"""One count per serving event.

Each serving component (engine, shard router, brownout controller,
hedge coordinator) counts through its own scope of the global
metrics registry and reads its ``stats()`` back from that scope.  These
tests pin the bookkeeping: every global ``serving.*`` delta is exactly
the sum of the owning scopes' deltas, a scope never sees traffic its
owner did not, and the engine's latency figures cover served requests
only.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.faults import Deadline, DeadlineExpiredError
from repro.regression import FittedModel
from repro.runtime.metrics import counters_delta, metrics
from repro.serving import (
    PRIORITY_HIGH,
    BrownoutController,
    BrownoutShedError,
    EngineOverloadedError,
    ModelRegistry,
    PredictionEngine,
    ShardRouter,
)
from repro.store import ModelStore


@pytest.fixture(scope="module")
def model():
    basis = OrthonormalBasis.total_degree(3, 1)
    return FittedModel(basis, np.random.default_rng(3).normal(size=basis.size))


#: Due at monotonic time zero, so expired from the start.
EXPIRED = Deadline(0.0)


def _scope_deltas(scopes, before):
    total = Counter()
    for scope, counts in zip(scopes, before):
        total.update(counters_delta(counts, scope.counters("serving.")))
    return {name: value for name, value in total.items() if value}


class TestGlobalEqualsScopeSum:
    def test_router_events_are_counted_once(self, model, tmp_path):
        controller = BrownoutController()
        router = ShardRouter(
            ModelStore(tmp_path, use_fsync=False),
            num_shards=2,
            replication_factor=2,
            engine_kwargs={
                "workers": 1,
                "max_delay_seconds": 0.0,
                "max_queue_depth": 1,
                "brownout": controller,
            },
        )
        x = np.zeros(3)
        with router:
            router.publish("m", model)
            home = router.primary("m")
            survivor = router.shard(1 - home).engine
            scopes = [router.metrics, controller.metrics] + [
                router.shard(shard_id).engine.metrics for shard_id in (0, 1)
            ]
            before_scopes = [scope.counters("serving.") for scope in scopes]
            before = metrics.counters("serving.")

            router.submit("m", x).result(timeout=5.0)
            with pytest.raises(DeadlineExpiredError):
                router.submit("m", x, deadline=EXPIRED).result(timeout=5.0)
            router.pause_dispatch(home)
            queued = router.submit("m", x)
            with pytest.raises(EngineOverloadedError) as rejected:
                router.submit("m", x)
            assert not isinstance(rejected.value, BrownoutShedError)
            router.kill_shard(home)
            queued.result(timeout=5.0)  # drained by the stopping engine
            for _ in range(survivor.health.window):
                survivor.health.observe_outcome(False)  # score 0
            with pytest.raises(BrownoutShedError):
                router.submit("m", x)
            router.submit("m", x, priority=PRIORITY_HIGH).result(timeout=5.0)

            delta = counters_delta(before, metrics.counters("serving."))
            assert delta == _scope_deltas(scopes, before_scopes)
            for name in (
                "serving.expired",
                "serving.shed.rejected",
                "serving.brownout.shed",
                "serving.shard.failovers",
            ):
                assert delta[name] == 1, name
            assert router.stats()["failovers"] == 1
            assert survivor.stats()["brownout_shed"] == 1
            assert router.shard(home).engine.stats()["brownout_shed"] == 0
            assert controller.stats()["entered"] == delta[
                "serving.brownout.entered"
            ]

    def test_a_second_engine_stays_at_zero(self, model):
        registry = ModelRegistry()
        registry.publish("m", model)
        busy = PredictionEngine(registry, workers=1, max_delay_seconds=0.0)
        idle = PredictionEngine(registry, workers=1, max_delay_seconds=0.0)
        with busy, idle:
            for _ in range(3):
                busy.submit("m", np.zeros(3)).result(timeout=5.0)
            assert idle.metrics.counters() == {}
            idle_stats = idle.stats()
            busy_stats = busy.stats()
        assert busy_stats["requests"] == 3
        assert busy_stats["batches"] == 3
        for key in ("requests", "batches", "expired", "failed", "cancelled"):
            assert idle_stats[key] == 0, key
        assert idle_stats["mean_latency_seconds"] == 0.0


class TestLatencyOverServedRequests:
    def test_expired_requests_leave_mean_latency_alone(self, model):
        registry = ModelRegistry()
        registry.publish("m", model)
        with PredictionEngine(registry, workers=1, max_delay_seconds=0.0) as engine:
            engine.submit("m", np.zeros(3)).result(timeout=5.0)
            served = engine.stats()
            for _ in range(9):
                with pytest.raises(DeadlineExpiredError):
                    engine.submit("m", np.zeros(3), deadline=EXPIRED).result(
                        timeout=5.0
                    )
            stats = engine.stats()
        assert served["mean_latency_seconds"] == served["max_latency_seconds"] > 0
        assert stats["requests"] == 10
        assert stats["expired"] == 9
        assert stats["mean_latency_seconds"] == stats["max_latency_seconds"]
        assert stats["max_latency_seconds"] == served["max_latency_seconds"]
