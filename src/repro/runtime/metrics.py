"""Lightweight runtime instrumentation: counters and wall-clock timers.

The performance layer (vectorized design matrices, the design-matrix cache,
chunked Monte Carlo) reports what it did through a process-global
:class:`MetricsRegistry`.  Experiment runners snapshot the registry before
and after a run and attach the delta to their reports, so every regenerated
table/figure records how much work (and how many cache hits) it cost.

The registry is deliberately tiny: integer counters and accumulated
wall-clock timers behind one lock, cheap enough to leave enabled
everywhere.  Names are dotted strings (``"design_matrix.cells"``,
``"design_cache.hits"``, ``"montecarlo.samples"``).  A component that
needs its own counts emits through a :meth:`MetricsRegistry.scope`.
"""

from __future__ import annotations

from ..locks import named_lock
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import AbstractSet, Dict, Iterator, Optional

__all__ = [
    "TimerStat",
    "MetricsRegistry",
    "counters_delta",
    "metrics",
    "signature_fields",
    "snapshot_delta",
    "format_snapshot",
]


@dataclass
class TimerStat:
    """Accumulated wall-clock of one named timer."""

    calls: int = 0
    seconds: float = 0.0


class MetricsRegistry:
    """Thread-safe named counters and timers."""

    def __init__(self) -> None:
        self._lock = named_lock("runtime.metrics")
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._parent: Optional[MetricsRegistry] = None

    def scope(self) -> "MetricsRegistry":
        """A child registry whose increments and timers also land here.

        The owner of a scope reads its own counts from the child while
        this registry keeps the total over every child and every direct
        call.  The child releases its lock before it calls this registry,
        so a scope adds no lock-order edge.  :meth:`reset` clears only
        the registry it is called on.
        """
        child = MetricsRegistry()
        # Its own lock name, so the watchdog would see a child -> parent edge.
        child._lock = named_lock("runtime.metrics.scope")
        child._parent = self
        return child

    # -- counters ------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)
        if self._parent is not None:
            self._parent.increment(name, amount)

    def count(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- timers --------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager accumulating wall-clock into the named timer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._add_time(name, time.perf_counter() - start)

    def _add_time(self, name: str, elapsed: float) -> None:
        with self._lock:
            stat = self._timers.setdefault(name, TimerStat())
            stat.calls += 1
            stat.seconds += elapsed
        if self._parent is not None:
            self._parent._add_time(name, elapsed)

    def timer_stat(self, name: str) -> TimerStat:
        """Copy of the named timer's accumulated state."""
        with self._lock:
            stat = self._timers.get(name, TimerStat())
            return TimerStat(stat.calls, stat.seconds)

    # -- aggregate views -----------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat view of every counter and timer.

        Timers appear as two keys, ``<name>.calls`` and ``<name>.seconds``.
        """
        with self._lock:
            out: Dict[str, float] = dict(self._counters)
            for name, stat in self._timers.items():
                out[f"{name}.calls"] = stat.calls
                out[f"{name}.seconds"] = stat.seconds
            return out

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """Counters only (no timers), optionally filtered by name prefix.

        Counters are integer event counts, so two runs doing the same work
        produce *identical* dicts -- this is the view the chaos suite
        compares bitwise across seeds, where timer wall-clock would differ
        every run.
        """
        with self._lock:
            return {
                name: value
                for name, value in sorted(self._counters.items())
                if name.startswith(prefix)
            }

    def reset(self) -> None:
        """Drop every counter and timer."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()


def snapshot_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """What changed between two snapshots (zero-change keys dropped)."""
    out: Dict[str, float] = {}
    for name, value in after.items():
        change = value - before.get(name, 0)
        if change:
            out[name] = change
    return out


def counters_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Integer counter changes between two :meth:`MetricsRegistry.counters`
    views (zero-change keys dropped).

    The integer twin of :func:`snapshot_delta`: because the inputs carry
    no timers, the result is bitwise comparable across runs -- this is
    what the chaos runners attach to their deterministic signatures.
    """
    out: Dict[str, int] = {}
    for name, value in after.items():
        change = value - before.get(name, 0)
        if change:
            out[name] = change
    return out


def signature_fields(report, unsigned: AbstractSet[str]) -> Dict[str, object]:
    """Every dataclass field of ``report`` not named in ``unsigned``: the
    body of each drill report's ``deterministic_signature()``.

    Lists become tuples and dicts key-sorted copies, so the result
    compares equal across same-seed runs however the report was built.
    """
    out: Dict[str, object] = {}
    for spec in fields(report):
        if spec.name in unsigned:
            continue
        value = getattr(report, spec.name)
        if isinstance(value, dict):
            value = dict(sorted(value.items()))
        elif isinstance(value, list):
            value = tuple(value)
        out[spec.name] = value
    return out


def format_snapshot(values: Dict[str, float], title: str = "Runtime metrics") -> str:
    """Render a snapshot (or delta) as an aligned text block."""
    if not values:
        return f"{title}: (none)"
    width = max(len(name) for name in values)
    lines = [f"{title}:"]
    for name in sorted(values):
        value = values[name]
        if name.endswith(".seconds"):
            rendered = f"{value:.4f}"
        else:
            rendered = f"{value:g}"
        lines.append(f"  {name.ljust(width)} = {rendered}")
    return "\n".join(lines)


#: Process-global registry used by the library's instrumented hot paths.
metrics = MetricsRegistry()
