"""Overload protection and stats consistency for the prediction engine.

The bounded request queue's admission-control contract, exercised
deterministically by pausing the dispatcher so tests can stage an exact
backlog:

* a full queue sheds its **oldest already-expired** entries first
  (``serving.shed.expired``; their futures fail with
  :class:`~repro.faults.DeadlineExpiredError`),
* if still full, the new submit is rejected immediately with
  :class:`~repro.serving.EngineOverloadedError`
  (``serving.shed.rejected``),
* the queue depth never exceeds the bound (``peak_queue_depth``),
* :meth:`~repro.serving.PredictionEngine.stats` is one
  point-in-time-consistent snapshot carrying the queue fields.
"""

from __future__ import annotations

import queue
import time

import numpy as np
import pytest

from repro.basis import OrthonormalBasis, total_degree_index_set
from repro.faults import Deadline, DeadlineExpiredError
from repro.regression import FittedModel
from repro.runtime.metrics import metrics
from repro.serving import (
    EngineOverloadedError,
    EngineStoppedError,
    ModelRegistry,
    PredictionEngine,
)
from repro.serving.engine import _STOP, _BoundedRequestQueue, _Request

NUM_VARS = 3


def _counter(name):
    return metrics.counters().get(name, 0)


def _expired_deadline():
    deadline = Deadline.after(1e-9)
    while not deadline.expired:  # nanosecond fuse; burns out instantly
        pass
    return deadline


@pytest.fixture
def registry():
    basis = OrthonormalBasis(NUM_VARS, total_degree_index_set(NUM_VARS, 1))
    coeffs = np.arange(1.0, len(basis.indices) + 1.0)
    out = ModelRegistry()
    out.publish("power", FittedModel(basis, coeffs))
    return out


@pytest.fixture
def sample():
    return np.zeros(NUM_VARS)


class TestAdmissionControl:
    def test_full_queue_rejects_live_submits(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=3, workers=1) as engine:
            engine.pause_dispatch()
            futures = [engine.submit("power", sample) for _ in range(3)]
            before = _counter("serving.shed.rejected")
            with pytest.raises(EngineOverloadedError, match="queue full"):
                engine.submit("power", sample)
            assert _counter("serving.shed.rejected") - before == 1
            stats = engine.stats()
            assert stats["queue_depth"] == 3
            assert stats["shed_rejected"] == 1
            engine.resume_dispatch()
            for future in futures:
                assert future.result(timeout=10.0).shape == (1,)

    def test_oldest_expired_shed_first(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=3, workers=1) as engine:
            engine.pause_dispatch()
            stale_first = engine.submit(
                "power", sample, deadline=_expired_deadline()
            )
            live = engine.submit("power", sample)
            stale_second = engine.submit(
                "power", sample, deadline=_expired_deadline()
            )
            before = _counter("serving.shed.expired")
            newcomer = engine.submit("power", sample)
            # Exactly one eviction makes room; FIFO order picks the oldest.
            assert _counter("serving.shed.expired") - before == 1
            assert stale_first.done()
            with pytest.raises(DeadlineExpiredError, match="shed under overload"):
                stale_first.result()
            assert not stale_second.done()
            assert engine.stats()["queue_depth"] == 3
            engine.resume_dispatch()
            assert live.result(timeout=10.0).shape == (1,)
            assert newcomer.result(timeout=10.0).shape == (1,)
            with pytest.raises(DeadlineExpiredError):
                stale_second.result(timeout=10.0)

    def test_rejected_only_after_shedding_cannot_make_room(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=2, workers=1) as engine:
            engine.pause_dispatch()
            engine.submit("power", sample)
            engine.submit("power", sample)
            # All queued entries are live: nothing sheddable, so reject.
            with pytest.raises(EngineOverloadedError):
                engine.submit("power", sample)
            stats = engine.stats()
            assert stats["shed_expired"] == 0
            assert stats["shed_rejected"] == 1
            engine.resume_dispatch()

    def test_peak_depth_never_exceeds_bound(self, registry, sample):
        bound = 4
        with PredictionEngine(
            registry, max_queue_depth=bound, workers=1
        ) as engine:
            engine.pause_dispatch()
            staged = [
                engine.submit("power", sample, deadline=_expired_deadline())
                for _ in range(bound)
            ]
            rejected = 0
            for _ in range(2 * bound):
                try:
                    engine.submit("power", sample)
                except EngineOverloadedError:
                    rejected += 1
            stats = engine.stats()
            assert stats["peak_queue_depth"] <= bound
            assert stats["queue_depth"] == bound
            assert stats["shed_expired"] == bound  # every stale one evicted
            assert rejected == bound
            engine.resume_dispatch()
            for future in staged:
                assert future.done()

    def test_unbounded_queue_never_rejects(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=None, workers=1) as engine:
            engine.pause_dispatch()
            futures = [engine.submit("power", sample) for _ in range(64)]
            stats = engine.stats()
            assert stats["queue_bound"] is None
            assert stats["queue_depth"] == 64
            engine.resume_dispatch()
            for future in futures:
                assert future.result(timeout=10.0).shape == (1,)

    def test_invalid_bound_rejected(self, registry):
        with pytest.raises(ValueError, match="max_queue_depth"):
            PredictionEngine(registry, max_queue_depth=0)

    def test_rejected_submits_do_not_count_as_admitted(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=1, workers=1) as engine:
            engine.pause_dispatch()
            stale = engine.submit("power", sample, deadline=_expired_deadline())
            # A full queue of sheddable entries never starves live work:
            # the stale entry is evicted and the newcomer admitted.
            live = engine.submit("power", sample)
            assert stale.done()
            requests_before = engine.stats()["requests"]
            with pytest.raises(EngineOverloadedError):
                engine.submit("power", sample)  # live occupant: no room now
            # The rejected submit never entered the queue, so the admitted
            # request count did not move.
            stats = engine.stats()
            assert stats["requests"] == requests_before
            assert stats["queue_depth"] == 1
            engine.resume_dispatch()
            assert live.result(timeout=10.0).shape == (1,)


class TestPredictTimeoutBudget:
    """Regression: ``predict(timeout=t)`` used to pass ``t`` to both the
    submit deadline and ``Future.result``, restarting the clock at the
    wait -- a request stuck in the queue blocked for ~2t before raising.
    One deadline is computed at entry and the wait gets only what is
    left of it."""

    def test_timeout_is_charged_once(self, registry, sample):
        budget = 0.5
        with PredictionEngine(registry, max_queue_depth=4, workers=1) as engine:
            engine.pause_dispatch()  # the request can never be served
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                engine.predict("power", sample, timeout=budget)
            elapsed = time.perf_counter() - start
            engine.resume_dispatch()
        # One budget, not two: the double-charge bug took ~2t.
        assert budget * 0.9 <= elapsed < budget * 1.5

    def test_abandoned_request_expires_instead_of_ghost_evaluating(
        self, registry, sample
    ):
        """The deadline travels with the queued request, so after the
        caller gives up the dispatcher drops it -- no ghost evaluation."""
        with PredictionEngine(registry, max_queue_depth=4, workers=1) as engine:
            engine.pause_dispatch()
            before = _counter("serving.expired")
            with pytest.raises(TimeoutError):
                engine.predict("power", sample, timeout=0.05)
            engine.resume_dispatch()
            deadline = Deadline.after(5.0)
            while (
                _counter("serving.expired") == before and not deadline.expired
            ):
                time.sleep(0.005)
            assert _counter("serving.expired") - before == 1
            assert engine.stats()["batches"] == 0  # never evaluated

    def test_timeout_none_blocks_until_served(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=4, workers=1) as engine:
            assert engine.predict("power", sample, timeout=None).shape == (1,)


class TestBoundedQueuePauseStop:
    """The queue's pause/stop contract, at the queue level and end to end.

    Regression territory: a paused dispatcher never wakes for the stop
    sentinel on its own (``get`` blocks while paused no matter what is
    queued), so ``stop()`` must resume the queue after planting the
    sentinel and then drain-fail whatever the dispatcher left behind."""

    def _request(self, sample, deadline=None):
        return _Request(
            name="power",
            x=sample[None, :],
            enqueued_at=time.perf_counter(),
            deadline=deadline,
        )

    def test_paused_get_times_out_even_with_items_queued(self, sample):
        bounded = _BoundedRequestQueue(bound=4)
        bounded.pause()
        admitted, shed = bounded.offer(self._request(sample))
        assert admitted and shed == []
        bounded.put_sentinel(_STOP)
        with pytest.raises(queue.Empty):
            bounded.get(timeout=0.05)  # pause gates sentinels too

    def test_resume_delivers_backlog_then_sentinel_fifo(self, sample):
        bounded = _BoundedRequestQueue(bound=4)
        bounded.pause()
        first = self._request(sample)
        second = self._request(sample)
        bounded.offer(first)
        bounded.offer(second)
        bounded.put_sentinel(_STOP)
        assert bounded.depth() == 2  # sentinels never count as depth
        bounded.resume()
        assert bounded.get(timeout=1.0) is first
        assert bounded.get(timeout=1.0) is second
        assert bounded.get(timeout=1.0) is _STOP
        assert bounded.depth() == 0

    def test_stop_while_paused_resolves_every_future(self, registry, sample):
        engine = PredictionEngine(registry, max_queue_depth=8, workers=1)
        engine.start()
        engine.pause_dispatch()
        futures = [engine.submit("power", sample) for _ in range(5)]
        engine.stop()  # must not hang on the paused dispatcher
        for future in futures:
            assert future.done()
            if future.exception() is not None:
                assert isinstance(future.exception(), EngineStoppedError)
        with pytest.raises(EngineStoppedError):
            engine.submit("power", sample)

    def test_backlog_behind_the_sentinel_is_drain_failed(
        self, registry, sample
    ):
        """Deterministic drain path: a sentinel planted *ahead* of the
        backlog makes the dispatcher exit before serving it, so stop()'s
        drain must fail every queued request fast."""
        engine = PredictionEngine(registry, max_queue_depth=8, workers=1)
        engine.start()
        engine.pause_dispatch()
        engine._queue.put_sentinel(_STOP)
        futures = [engine.submit("power", sample) for _ in range(3)]
        drops_before = _counter("serving.shutdown_drops")
        engine.stop()
        assert _counter("serving.shutdown_drops") - drops_before == 3
        for future in futures:
            with pytest.raises(EngineStoppedError):
                future.result()


class TestLifecycleWhilePaused:
    def test_stop_drains_a_paused_engine(self, registry, sample):
        engine = PredictionEngine(registry, max_queue_depth=4, workers=1)
        engine.start()
        engine.pause_dispatch()
        future = engine.submit("power", sample)
        engine.stop()  # implies resume: the stop sentinel must be seen
        # The queued request either got flushed or failed fast -- never
        # left dangling.
        assert future.done()
        if future.exception() is None:
            assert future.result().shape == (1,)
        else:
            assert isinstance(future.exception(), EngineStoppedError)
        with pytest.raises(EngineStoppedError):
            engine.submit("power", sample)

    def test_pause_resume_are_idempotent(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=4) as engine:
            engine.pause_dispatch()
            engine.pause_dispatch()
            future = engine.submit("power", sample)
            engine.resume_dispatch()
            engine.resume_dispatch()
            assert future.result(timeout=10.0).shape == (1,)


class TestStatsSnapshot:
    EXPECTED_KEYS = {
        "requests",
        "rows",
        "batches",
        "mean_batch_requests",
        "mean_latency_seconds",
        "max_latency_seconds",
        "expired",
        "retries",
        "degraded",
        "failed",
        "max_version_lag",
        "shed_expired",
        "shed_rejected",
        "queue_depth",
        "peak_queue_depth",
        "queue_bound",
        "breaker",
        "cancelled",
        "brownout_shed",
        "health_score",
        "live",
        "ready",
        "brownout_active",
    }

    def test_stats_carries_every_field_in_one_snapshot(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=8) as engine:
            engine.predict("power", sample)
            stats = engine.stats()
        assert set(stats) == self.EXPECTED_KEYS
        assert stats["requests"] == 1
        assert stats["queue_bound"] == 8
        assert isinstance(stats["breaker"], dict)

    def test_queue_fields_reflect_live_state(self, registry, sample):
        with PredictionEngine(registry, max_queue_depth=8) as engine:
            engine.pause_dispatch()
            for _ in range(5):
                engine.submit("power", sample)
            stats = engine.stats()
            assert stats["queue_depth"] == 5
            assert stats["peak_queue_depth"] == 5
            engine.resume_dispatch()

    def test_breaker_disabled_snapshot_is_empty(self, registry, sample):
        with PredictionEngine(registry, breaker=None, max_queue_depth=8) as engine:
            engine.predict("power", sample)
            assert engine.stats()["breaker"] == {}
