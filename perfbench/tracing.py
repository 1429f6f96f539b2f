"""Spans recorded by the benchmark around its own calls into each layer.

The benchmark is a single-threaded closed-loop client, so spans nest
strictly: a span's parent is whatever span was open when it started, and
child spans of one parent never overlap.  Spans live in memory and are
written out as JSON once the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["Span", "Tracer", "tail_quantile"]


class Span:
    """One timed call: name, start/end (seconds), parent span and request id."""

    __slots__ = ("id", "name", "parent", "request", "start", "end")

    def __init__(self, span_id, name, parent, request, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start": self.start,
            "end": self.end,
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "request", "span")

    def __init__(self, tracer: "Tracer", name: str, request):
        self.tracer = tracer
        self.name = name
        self.request = request
        self.span = None

    def __enter__(self) -> Optional[Span]:
        tracer = self.tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        request = self.request
        if request is None and parent is not None:
            request = parent.request
        self.span = Span(
            next(tracer._ids),
            self.name,
            None if parent is None else parent.id,
            request,
            time.perf_counter() - tracer.origin,
        )
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        self.span.end = time.perf_counter() - tracer.origin
        tracer._stack.pop()
        tracer.spans.append(self.span)


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    def span(self, name: str, request=None):
        """Context manager timing one layer call (no-op when disabled)."""
        if not self.enabled:
            return _NO_SPAN
        return _SpanContext(self, name, request)

    # ------------------------------------------------------------------
    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children = self.children()
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.duration - covered
        return out

    def busy(self, name: str) -> float:
        """Summed self time of every span with this name."""
        self_time = self.self_times()
        return sum(self_time[s.id] for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def ancestors(self, span: Span) -> Iterable[Span]:
        by_id = {s.id: s for s in self.spans}
        parent = span.parent
        while parent is not None:
            ancestor = by_id[parent]
            yield ancestor
            parent = ancestor.parent

    def write(self, path: Path, header: Dict[str, object]) -> None:
        payload = dict(header)
        payload["spans"] = [s.as_dict() for s in sorted(self.spans, key=lambda s: s.id)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def tail_quantile(values: Sequence[float], percentile: float) -> float:
    """The ``percentile`` of ``values``; 0.0 for an empty sample.

    Callers size their samples so that at least 10 values lie beyond the
    percentile they report; the run report prints the sample counts.
    """
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), percentile))
