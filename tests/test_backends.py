"""Unit tests for the fused serving kernel, the float64 contract on
cached design matrices, and the selection report environment
fingerprints record."""

import json

import numpy as np
import pytest

from repro.analysis.contracts import contracts_enabled
from repro.backends import describe_selection
from repro.basis import OrthonormalBasis
from repro.runtime import DesignMatrixCache, set_design_cache
from repro.runtime.metrics import metrics as runtime_metrics


class TestRegistry:
    """What is left of the backend registry: the selection report
    environment fingerprints record."""

    def test_describe_selection_is_json_and_reports_numpy(self):
        description = json.loads(json.dumps(describe_selection()))
        assert description["active"] == "numpy"


class TestCacheDtypeContract:
    def test_hit_revalidation_rejects_wrong_dtype_entry(self):
        if not contracts_enabled():
            pytest.skip("contracts disabled; hit re-validation is a no-op")
        cache = DesignMatrixCache(min_result_cells=1)
        key = ("k",)
        # A miss stores what compute returns, whatever its dtype.
        stored = cache.get_or_compute(key, lambda: np.ones((4, 4), dtype=np.float32))
        assert stored.dtype == np.dtype(np.float32)
        # The hit re-validates the float64 contract: evict and recompute.
        healed = cache.get_or_compute(key, lambda: np.ones((4, 4)))
        assert healed.dtype == np.dtype(np.float64)
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
