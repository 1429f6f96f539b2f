"""Unit tests for the hot-path dtype policy, dtype-keyed caching, the
fused serving kernel, and the engine's opt-in float32 serving mode."""

import json

import numpy as np
import pytest

from repro.analysis.contracts import (
    ContractViolationError,
    check_close,
    contracts_enabled,
)
from repro.backends import FLOAT32_SERVING_RTOL, describe_selection, resolve_dtype
from repro.basis import OrthonormalBasis
from repro.regression import FittedModel
from repro.runtime import DesignMatrixCache, set_design_cache
from repro.runtime.cache import design_key
from repro.runtime.metrics import metrics as runtime_metrics
from repro.serving import ModelRegistry, PredictionEngine


class TestRegistry:
    """What is left of the backend registry: the dtype policy and the
    selection report environment fingerprints record."""

    def test_resolve_dtype(self):
        assert resolve_dtype(None) == np.dtype(np.float64)
        assert resolve_dtype(np.float32) == np.dtype(np.float32)
        with pytest.raises(ValueError, match="unsupported hot-path dtype"):
            resolve_dtype(np.int32)

    def test_describe_selection_is_json_and_reports_numpy(self):
        description = json.loads(json.dumps(describe_selection()))
        assert description["active"] == "numpy"


class TestDesignKey:
    def test_dtype_always_participates(self):
        x = np.zeros((3, 2))
        k64 = design_key("tok", x, None)
        k32 = design_key("tok", x, None, dtype=np.float32)
        assert k64 != k32

    def test_new_keys_cannot_collide_with_legacy_triples(self):
        x = np.zeros((3, 2))
        legacy = ("tok", (x.shape, "digest"), None)
        assert len(design_key("tok", x, None)) > len(legacy)


class TestDtypeKeyedCache:
    def test_float32_and_float64_entries_never_collide_or_cross_serve(self):
        basis = OrthonormalBasis.total_degree(3, 3)
        x = np.random.default_rng(0).standard_normal((40, 3))
        cache = DesignMatrixCache(min_result_cells=1)
        previous = set_design_cache(cache)
        try:
            g64 = basis.design_matrix(x)
            g32 = basis.design_matrix(x, dtype=np.float32)
            assert len(cache) == 2  # distinct entries, no collision
            assert g64.dtype == np.dtype(np.float64)
            assert g32.dtype == np.dtype(np.float32)
            # Hits serve the dtype their key promises.
            again64 = basis.design_matrix(x)
            again32 = basis.design_matrix(x, dtype=np.float32)
            assert again64 is g64  # cache hit: same read-only entry
            assert again32 is g32
            assert cache.stats()["hits"] == 2
        finally:
            set_design_cache(previous)

    def test_hit_revalidation_rejects_wrong_dtype_entry(self):
        if not contracts_enabled():
            pytest.skip("contracts disabled; hit re-validation is a no-op")
        cache = DesignMatrixCache(min_result_cells=1)
        key = ("k",)
        first = cache.get_or_compute(
            key, lambda: np.ones((4, 4)), dtype=np.dtype(np.float64)
        )
        assert first.dtype == np.dtype(np.float64)
        # A hit demanding float32 self-heals: evict and recompute.
        healed = cache.get_or_compute(
            key,
            lambda: np.ones((4, 4), dtype=np.float32),
            dtype=np.dtype(np.float32),
        )
        assert healed.dtype == np.dtype(np.float32)
        assert cache.stats()["evictions"] == 1


class TestFusedPredict:
    def test_streaming_path_matches_unfused(self):
        basis = OrthonormalBasis.total_degree(4, 3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((17, 4))
        coefficients = rng.standard_normal(basis.size)
        previous = set_design_cache(None)  # force the no-intermediate path
        try:
            fused = basis.fused_predict(x, coefficients)
        finally:
            set_design_cache(previous)
        unfused = basis.design_matrix(x) @ coefficients
        assert fused.shape == (17,)
        np.testing.assert_allclose(fused, unfused, rtol=1e-12, atol=1e-14)

    def test_cached_path_is_bitwise_equal_to_matvec_on_cached_matrix(self):
        basis = OrthonormalBasis.total_degree(3, 3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 3))
        coefficients = rng.standard_normal(basis.size)
        cache = DesignMatrixCache(min_result_cells=1)
        previous = set_design_cache(cache)
        try:
            first = basis.fused_predict(x, coefficients)  # miss: materialize
            assert cache.stats()["misses"] == 1
            second = basis.fused_predict(x, coefficients)  # hit: plain matvec
            assert cache.stats()["hits"] == 1
            design = basis.design_matrix(x)  # same entry
            assert cache.stats()["hits"] == 2
        finally:
            set_design_cache(previous)
        assert np.array_equal(first, second)
        assert np.array_equal(second, design @ coefficients)

    def test_counts_fused_predicts_metric(self):
        basis = OrthonormalBasis.linear(3)
        before = runtime_metrics.counters().get("backends.fused_predicts", 0)
        basis.fused_predict(np.zeros((2, 3)), np.zeros(basis.size))
        after = runtime_metrics.counters().get("backends.fused_predicts", 0)
        assert after == before + 1

    def test_rejects_wrong_coefficient_shape(self):
        basis = OrthonormalBasis.linear(3)
        with pytest.raises(ValueError, match="coefficients"):
            basis.fused_predict(np.zeros((2, 3)), np.zeros(basis.size + 1))


def _publish_model(registry, name="m", num_vars=3, degree=2, seed=7):
    basis = OrthonormalBasis.total_degree(num_vars, degree)
    rng = np.random.default_rng(seed)
    coefficients = rng.standard_normal(basis.size)
    registry.publish(name, FittedModel(basis, coefficients))
    return basis, coefficients


class TestEngineFloat32Serving:
    def test_rejects_unsupported_serving_dtype(self):
        with pytest.raises(ValueError, match="unsupported hot-path dtype"):
            PredictionEngine(ModelRegistry(), serving_dtype=np.int64)

    def test_rejects_non_positive_rtol(self):
        with pytest.raises(ValueError, match="float32_rtol"):
            PredictionEngine(ModelRegistry(), float32_rtol=0.0)

    def test_float32_predictions_match_float64_within_bound(self):
        registry = ModelRegistry()
        basis, coefficients = _publish_model(registry)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((24, 3))
        with PredictionEngine(registry) as engine64:
            reference = engine64.predict("m", x)
        with PredictionEngine(registry, serving_dtype=np.float32) as engine32:
            served = engine32.predict("m", x)
        assert reference.dtype == np.dtype(np.float64)
        assert served.dtype == np.dtype(np.float32)
        check_close(
            served, reference, rtol=FLOAT32_SERVING_RTOL, name="engine float32"
        )

    def test_float32_counters_increment(self):
        if not contracts_enabled():
            pytest.skip("contracts disabled; bound checks are off")
        registry = ModelRegistry()
        _publish_model(registry)
        before = runtime_metrics.counters()
        with PredictionEngine(registry, serving_dtype=np.float32) as engine:
            engine.predict("m", np.zeros((4, 3)))
        after = runtime_metrics.counters()
        assert after.get("backends.float32_serves", 0) > before.get(
            "backends.float32_serves", 0
        )
        assert after.get("backends.float32_bound_checks", 0) > before.get(
            "backends.float32_bound_checks", 0
        )

    def test_bound_violation_is_a_caller_error_and_spares_the_breaker(self):
        if not contracts_enabled():
            pytest.skip("contracts disabled; bound checks are off")
        registry = ModelRegistry()
        _publish_model(registry)
        # An absurdly tight bound makes any float32 batch violate it.
        with PredictionEngine(
            registry, serving_dtype=np.float32, float32_rtol=1e-300
        ) as engine:
            with pytest.raises(ContractViolationError):
                engine.predict("m", np.ones((4, 3)))
            stats = engine.stats()
        # Caller-error classification: no retries, breaker never tripped.
        assert stats["retries"] == 0
        assert all(
            state["state"] == "closed" for state in stats["breaker"].values()
        )
