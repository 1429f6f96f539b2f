"""Injectable manual clock for deterministic time-driven tests.

Components whose behavior depends on elapsed time -- such as the
:class:`~repro.faults.CircuitBreaker` recovery timeout -- accept a
``clock`` callable so tests can drive time explicitly instead of
sleeping.  :class:`ManualClock` is the canonical implementation: a
thread-safe monotonic counter advanced only by :meth:`advance` /
:meth:`set`, so a test's time axis is a pure function of the test body.
"""

from __future__ import annotations

from ..locks import named_lock

__all__ = ["ManualClock"]


class ManualClock:
    """A callable clock that only moves when told to.

    Use anywhere a ``clock: Callable[[], float]`` parameter is accepted::

        clock = ManualClock()
        breaker = CircuitBreaker(reset_timeout_seconds=5.0, clock=clock)
        clock.advance(5.0)   # the reset timeout elapses, no wall-time spent
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = named_lock("faults.clock")

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}; time is monotonic")
        with self._lock:
            self._now += float(seconds)
            return self._now

    def set(self, value: float) -> float:
        """Jump to an absolute reading (must not move backwards)."""
        with self._lock:
            if value < self._now:
                raise ValueError(
                    f"cannot set clock back to {value} from {self._now}"
                )
            self._now = float(value)
            return self._now

    def __repr__(self) -> str:
        return f"ManualClock({self()!r})"
