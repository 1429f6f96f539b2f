"""Resilience tests for the serving layer (docs/faults.md).

Covers the deadline-drop regression (a pre-expired burst must cost zero
design-matrix calls), retry/breaker/degradation wiring, serve-last-good
registry semantics, and shutdown/drain behavior.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.faults import (
    CircuitBreaker,
    Deadline,
    DeadlineExpiredError,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    inject,
)
from repro.regression import FittedModel
from repro.runtime.metrics import metrics
from repro.serving import (
    EngineStoppedError,
    ModelEvaluationError,
    ModelRegistry,
    PredictionEngine,
    PublishRejectedError,
)


@pytest.fixture(scope="module")
def basis():
    return OrthonormalBasis.total_degree(3, 2)


def constant_model(basis, value: float) -> FittedModel:
    constant = float(basis.design_matrix(np.zeros((1, basis.num_vars)))[0, 0])
    coefficients = np.zeros(basis.size)
    coefficients[0] = value / constant
    return FittedModel(basis, coefficients)


def overflow_model(basis) -> FittedModel:
    """Finite coefficients whose prediction at ``x = 0`` overflows to inf.

    Survives registry validation (coefficients are finite) but evaluating
    at the origin accumulates ``float_max * sum(|design_row|) > float_max``
    and raises :class:`ModelEvaluationError` -- the post-publish poisoning
    scenario.
    """
    design_row = basis.design_matrix(np.zeros((1, basis.num_vars)))[0]
    coefficients = np.finfo(float).max * np.sign(design_row)
    return FittedModel(basis, coefficients)


@pytest.fixture
def registry(basis):
    registry = ModelRegistry()
    registry.publish("m", constant_model(basis, 1.0))
    return registry


def counter(name: str) -> int:
    return metrics.counters().get(name, 0)


# ----------------------------------------------------------------------
# Deadline propagation (the predict-timeout ghost-request regression)
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_pre_expired_burst_costs_zero_design_matrix_calls(
        self, basis, registry
    ):
        """Regression: a caller that already gave up must not be evaluated.

        ``predict`` used to submit without a deadline, so a timed-out
        caller's request was still batched and cost a ``design_matrix``
        call.  Now the dispatcher drops expired requests before grouping.
        """
        x = np.zeros((1, basis.num_vars))
        dead = Deadline.after(-1.0)
        with PredictionEngine(registry) as engine:
            calls_before = counter("design_matrix.calls")
            expired_before = counter("serving.expired")
            futures = [
                engine.submit("m", x, deadline=dead) for _ in range(16)
            ]
            for future in futures:
                with pytest.raises(DeadlineExpiredError):
                    future.result(timeout=5.0)
            calls_after = counter("design_matrix.calls")
        assert calls_after - calls_before == 0
        assert counter("serving.expired") - expired_before == 16
        assert engine.stats()["expired"] == 16

    def test_predict_propagates_timeout_as_deadline(self, basis, registry):
        # predict() must attach its caller timeout to the request, so the
        # dispatcher can drop it once the caller has given up.
        with PredictionEngine(registry) as engine:
            value = engine.predict("m", np.zeros(basis.num_vars), timeout=5.0)
            assert value.shape == (1,)
            assert value[0] == pytest.approx(1.0)

    def test_timeout_and_deadline_mutually_exclusive(self, basis, registry):
        with PredictionEngine(registry) as engine:
            with pytest.raises(ValueError, match="timeout or deadline"):
                engine.submit(
                    "m",
                    np.zeros(basis.num_vars),
                    timeout=1.0,
                    deadline=Deadline.after(1.0),
                )

    def test_fresh_deadline_is_served(self, basis, registry):
        with PredictionEngine(registry) as engine:
            future = engine.submit(
                "m", np.zeros(basis.num_vars), timeout=30.0
            )
            assert future.result(timeout=5.0)[0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Retry under injected evaluation faults
# ----------------------------------------------------------------------
class TestRetries:
    def test_transient_evaluation_fault_is_retried(self, basis, registry):
        with PredictionEngine(registry) as engine:
            retries_before = counter("serving.retries")
            with inject(FaultPlan.fail_once("engine.evaluate")):
                value = engine.predict("m", np.zeros(basis.num_vars))
            assert value[0] == pytest.approx(1.0)
        assert counter("serving.retries") - retries_before >= 1
        assert engine.stats()["retries"] >= 1

    def test_caller_error_is_not_retried_and_spares_breaker(
        self, basis, registry
    ):
        breaker = CircuitBreaker(failure_threshold=1)
        with PredictionEngine(registry, breaker=breaker) as engine:
            bad = np.zeros((1, basis.num_vars + 2))  # wrong width
            with pytest.raises(ValueError):
                engine.predict("m", bad)
            # A caller bug must not poison the model's circuit.
            key = registry.current("m").key
            assert breaker.state(key) == "closed"
            good = engine.predict("m", np.zeros(basis.num_vars))
            assert good[0] == pytest.approx(1.0)

    def test_exhausted_retries_fail_the_request(self, basis, registry):
        policy = RetryPolicy(
            max_attempts=2,
            base_seconds=0.001,
            cap_seconds=0.002,
            non_retryable=(TypeError, ValueError, KeyError, ModelEvaluationError),
        )
        engine = PredictionEngine(
            registry, retry_policy=policy, breaker=None, serve_last_good=False
        )
        failed_before = counter("serving.failed")
        with engine:
            with inject(FaultPlan.fail_every("engine.evaluate", 1)):
                with pytest.raises(InjectedFault):
                    engine.predict("m", np.zeros(basis.num_vars))
        assert counter("serving.failed") - failed_before == 1


# ----------------------------------------------------------------------
# Breaker + serve-last-good degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_poisoned_version_degrades_to_last_good(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        registry.publish("m", overflow_model(basis))
        breaker = CircuitBreaker(failure_threshold=1)
        degraded_before = counter("serving.degraded")
        with PredictionEngine(registry, breaker=breaker) as engine:
            value = engine.predict("m", np.zeros(basis.num_vars))
            # Answered from the previous good version, one version stale.
            assert value[0] == pytest.approx(1.0)
            assert engine.stats()["max_version_lag"] == 1
            assert engine.stats()["degraded"] >= 1
        assert counter("serving.degraded") - degraded_before >= 1
        # The breaker opened on the bad version, so it was quarantined and
        # the registry's active pointer stepped back to the good one.
        assert registry.is_bad("m", 2)
        assert registry.current("m").version == 1

    def test_requests_after_quarantine_serve_last_good_directly(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 7.0))
        registry.publish("m", overflow_model(basis))
        breaker = CircuitBreaker(failure_threshold=1)
        with PredictionEngine(registry, breaker=breaker) as engine:
            first = engine.predict("m", np.zeros(basis.num_vars))
            second = engine.predict("m", np.zeros(basis.num_vars))
        assert first[0] == pytest.approx(7.0)
        assert second[0] == pytest.approx(7.0)
        # Second request resolved the stepped-back version: no extra lag.
        assert engine.stats()["max_version_lag"] <= 1

    def test_no_good_fallback_fails_requests(self, basis):
        registry = ModelRegistry()
        registry.publish("m", overflow_model(basis))
        breaker = CircuitBreaker(failure_threshold=1)
        with PredictionEngine(registry, breaker=breaker) as engine:
            with pytest.raises(ModelEvaluationError):
                engine.predict("m", np.zeros(basis.num_vars))
        assert engine.stats()["failed"] >= 1

    def test_breaker_stats_visible_in_engine_stats(self, basis):
        registry = ModelRegistry()
        registry.publish("m", overflow_model(basis))
        breaker = CircuitBreaker(failure_threshold=1)
        with PredictionEngine(registry, breaker=breaker) as engine:
            with pytest.raises(ModelEvaluationError):
                engine.predict("m", np.zeros(basis.num_vars))
            snapshot = engine.stats()["breaker"]
        key = registry.current("m").key
        assert snapshot[key]["state"] == "open"

    def test_disabled_breaker_reports_empty_snapshot(self, basis, registry):
        with PredictionEngine(registry, breaker=None) as engine:
            engine.predict("m", np.zeros(basis.num_vars))
            assert engine.stats()["breaker"] == {}


# ----------------------------------------------------------------------
# Registry serve-last-good semantics
# ----------------------------------------------------------------------
class TestRegistryLastGood:
    def test_injected_publish_fault_preserves_current(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        rejected_before = counter("serving.rejected_publishes")
        with inject(FaultPlan.fail_once("registry.publish")):
            with pytest.raises(PublishRejectedError):
                registry.publish("m", constant_model(basis, 2.0))
        assert registry.current("m").version == 1
        assert counter("serving.rejected_publishes") - rejected_before == 1
        # Registry heals: the next publish goes through.
        registry.publish("m", constant_model(basis, 3.0))
        assert registry.current("m").version == 2

    def test_non_finite_publish_rejected(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        poisoned = FittedModel(basis, np.full(basis.size, np.nan))
        with pytest.raises(PublishRejectedError, match="non-finite"):
            registry.publish("m", poisoned)
        assert registry.current("m").version == 1

    def test_validation_can_be_disabled(self, basis):
        registry = ModelRegistry(validate=False)
        poisoned = FittedModel(basis, np.full(basis.size, np.nan))
        registry.publish("m", poisoned)
        assert registry.current("m").version == 1

    def test_mark_bad_steps_active_back(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        registry.publish("m", constant_model(basis, 2.0))
        record = registry.mark_bad("m", 2)
        assert record is not None and record.version == 1
        assert registry.current("m").version == 1
        assert registry.is_bad("m", 2)
        assert not registry.is_bad("m", 1)

    def test_mark_bad_with_no_good_version_keeps_pointer(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        record = registry.mark_bad("m", 1)
        # A possibly-bad model beats no model.
        assert record is not None and record.version == 1
        assert registry.current("m").version == 1

    def test_mark_bad_unknown_name_returns_none(self):
        assert ModelRegistry().mark_bad("ghost", 1) is None

    def test_mark_bad_is_idempotent(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        registry.publish("m", constant_model(basis, 2.0))
        marked_before = counter("serving.marked_bad")
        registry.mark_bad("m", 2)
        registry.mark_bad("m", 2)
        assert counter("serving.marked_bad") - marked_before == 1

    def test_previous_good_skips_quarantined(self, basis):
        registry = ModelRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.publish("m", constant_model(basis, value))
        registry.mark_bad("m", 2)
        fallback = registry.previous_good("m", before_version=3)
        assert fallback is not None and fallback.version == 1

    def test_previous_good_default_is_before_active(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        registry.publish("m", constant_model(basis, 2.0))
        fallback = registry.previous_good("m")
        assert fallback is not None and fallback.version == 1

    def test_previous_good_unknown_name(self):
        assert ModelRegistry().previous_good("ghost") is None

    def test_last_good_prefers_newest_good(self, basis):
        registry = ModelRegistry()
        registry.publish("m", constant_model(basis, 1.0))
        registry.publish("m", constant_model(basis, 2.0))
        registry.mark_bad("m", 2)
        record = registry.last_good("m")
        assert record is not None and record.version == 1

    def test_serve_last_good_disabled_keeps_bad_active(self, basis):
        registry = ModelRegistry(serve_last_good=False)
        registry.publish("m", constant_model(basis, 1.0))
        registry.publish("m", constant_model(basis, 2.0))
        registry.mark_bad("m", 2)
        assert registry.current("m").version == 2

    def test_prune_discards_bad_bookkeeping(self, basis):
        registry = ModelRegistry(max_versions=2)
        registry.publish("m", constant_model(basis, 1.0))
        registry.mark_bad("m", 1)
        registry.publish("m", constant_model(basis, 2.0))
        registry.publish("m", constant_model(basis, 3.0))  # prunes v1
        versions = [record.version for record in registry.versions("m")]
        assert versions == [2, 3]
        assert not registry.is_bad("m", 1)


# ----------------------------------------------------------------------
# Shutdown / drain
# ----------------------------------------------------------------------
class TestShutdown:
    @pytest.mark.parametrize(
        "scenario", ["close_while_queued", "close_while_evaluating", "double_close"]
    )
    def test_close_never_hangs_or_orphans(self, basis, registry, scenario):
        engine = PredictionEngine(registry, workers=1)
        engine.start()
        x = np.zeros(basis.num_vars)
        futures = []
        if scenario == "close_while_queued":
            # Stall the single worker so later requests pile up queued.
            with inject(FaultPlan.latency("engine.evaluate", 0.05)):
                futures = [engine.submit("m", x) for _ in range(8)]
                engine.close()
        elif scenario == "close_while_evaluating":
            with inject(FaultPlan.latency("engine.evaluate", 0.05)):
                futures = [engine.submit("m", x)]
                time.sleep(0.01)  # let the dispatcher pick it up
                engine.close()
        else:
            futures = [engine.submit("m", x)]
            engine.close()
            engine.close()  # idempotent
        assert not engine.running
        # Every future resolves: either with a value (flushed) or with
        # EngineStoppedError (failed fast) -- never left hanging.
        for future in futures:
            try:
                value = future.result(timeout=5.0)
            except EngineStoppedError:
                continue
            assert value.shape == (1,)

    def test_submit_after_close_raises(self, basis, registry):
        engine = PredictionEngine(registry)
        engine.start()
        engine.close()
        with pytest.raises(EngineStoppedError):
            engine.submit("m", np.zeros(basis.num_vars))

    def test_close_before_start_is_noop(self, registry):
        engine = PredictionEngine(registry)
        engine.close()  # never started; must not raise
        assert not engine.running

    def test_no_dispatcher_thread_survives_close(self, basis, registry):
        engine = PredictionEngine(registry)
        engine.start()
        engine.predict("m", np.zeros(basis.num_vars))
        engine.close()
        lingering = [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-serve")
        ]
        assert lingering == []

    def test_shutdown_drops_are_counted(self, basis, registry):
        engine = PredictionEngine(registry, workers=1)
        engine.start()
        drops_before = counter("serving.shutdown_drops")
        with inject(FaultPlan.latency("engine.evaluate", 0.05)):
            futures = [
                engine.submit("m", np.zeros(basis.num_vars)) for _ in range(8)
            ]
            engine.close()
        resolved_as_drop = 0
        for future in futures:
            try:
                future.result(timeout=5.0)
            except EngineStoppedError:
                resolved_as_drop += 1
        assert counter("serving.shutdown_drops") - drops_before == resolved_as_drop
