"""Unit tests for the fused serving kernel, the float64 contract on
cached design matrices, the design cache's cost rule, and the selection
report environment fingerprints record."""

import json

import numpy as np
import pytest

from repro.analysis.contracts import contracts_enabled
from repro.backends import describe_selection
from repro.backends.oracle import oracle_design_matrix
from repro.basis import OrthonormalBasis
from repro.circuits.modeling import FusionProblem
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


@pytest.fixture
def floorless_cache():
    """A global design cache that would take a design of any size."""
    cache = DesignMatrixCache(min_result_cells=1)
    previous = set_design_cache(cache)
    try:
        yield cache
    finally:
        set_design_cache(previous)


class TestDesignCacheCostRule:
    """The cache is consulted only where assembly costs more than the key."""

    @pytest.mark.parametrize("source", ["linear-50", "tiny-ro"])
    def test_linear_basis_never_consults_cache(self, floorless_cache, source, tiny_ro):
        if source == "linear-50":
            basis = OrthonormalBasis.linear(50)
        else:
            basis = FusionProblem(tiny_ro, "power").late_basis
        assert basis.is_linear()
        rng = np.random.default_rng(4)
        coefficients = rng.standard_normal(basis.size)
        for rows in (1, 300):
            x = rng.standard_normal((rows, basis.num_vars))
            for _ in range(2):  # the repeat would be a hit if cached
                design = basis.design_matrix(x)
                assert np.array_equal(design, oracle_design_matrix(basis, x))
                assert design.flags.writeable  # fresh, not a cache entry
        for rows in (1, 256):
            x = rng.standard_normal((rows, basis.num_vars))
            expected = oracle_design_matrix(basis, x) @ coefficients
            for _ in range(2):
                assert np.array_equal(basis.fused_predict(x, coefficients), expected)
        stats = floorless_cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)

    def test_quadratic_basis_still_caches(self, floorless_cache):
        basis = OrthonormalBasis.total_degree(4, 2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, basis.num_vars))
        coefficients = rng.standard_normal(basis.size)
        design = basis.design_matrix(x)
        assert (floorless_cache.hits, floorless_cache.misses) == (0, 1)
        predicted = basis.fused_predict(x, coefficients)  # same key: a hit
        assert (floorless_cache.hits, floorless_cache.misses) == (1, 1)
        assert not design.flags.writeable
        assert np.array_equal(design, oracle_design_matrix(basis, x))
        assert np.array_equal(predicted, design @ coefficients)
