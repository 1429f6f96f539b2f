"""Tests for runtime array contracts and their wiring into the hot paths."""

import numpy as np
import pytest

from repro.analysis.contracts import (
    ContractViolationError,
    accepts_arrays,
    check_array,
    contracts_enabled,
    returns_array,
    set_contracts_enabled,
)
from repro.backends.oracle import oracle_design_matrix
from repro.basis import OrthonormalBasis
from repro.runtime import DesignMatrixCache, set_design_cache


@pytest.fixture
def contracts_on():
    previous = set_contracts_enabled(True)
    yield
    set_contracts_enabled(previous)


class TestCheckArray:
    def test_passes_and_returns_value(self, contracts_on):
        x = np.zeros((2, 3))
        assert check_array(x, dtype=np.float64, ndim=2) is x

    def test_non_array_rejected(self, contracts_on):
        with pytest.raises(ContractViolationError, match="expected numpy.ndarray"):
            check_array([1, 2, 3])

    def test_dtype_mismatch(self, contracts_on):
        with pytest.raises(ContractViolationError, match="dtype"):
            check_array(np.zeros(3, dtype=np.float32), dtype=np.float64)

    def test_ndim_mismatch(self, contracts_on):
        with pytest.raises(ContractViolationError, match="2-D"):
            check_array(np.zeros(3), ndim=2)

    def test_shape_wildcards(self, contracts_on):
        check_array(np.zeros((5, 3)), shape=(None, 3))
        with pytest.raises(ContractViolationError, match="shape"):
            check_array(np.zeros((5, 4)), shape=(None, 3))

    def test_writeable_contract(self, contracts_on):
        x = np.zeros(4)
        check_array(x, writeable=True)
        with pytest.raises(ContractViolationError, match="read-only"):
            check_array(x, writeable=False)
        x.flags.writeable = False
        check_array(x, writeable=False)

    def test_contiguity_contract(self, contracts_on):
        x = np.zeros((4, 4))
        check_array(x, c_contiguous=True)
        with pytest.raises(ContractViolationError, match="c_contiguous"):
            check_array(x.T[1:, :], c_contiguous=True)

    def test_disabled_contracts_skip_checks(self):
        previous = set_contracts_enabled(False)
        try:
            assert not contracts_enabled()
            # Would violate every criterion, but checking is off.
            assert check_array("not an array", dtype=np.float64) == "not an array"
        finally:
            set_contracts_enabled(previous)


class TestDecorators:
    def test_returns_array_passes(self, contracts_on):
        @returns_array(dtype=np.float64, ndim=2, c_contiguous=True)
        def make():
            return np.ones((3, 3))

        assert make().shape == (3, 3)

    def test_returns_array_rejects_violation(self, contracts_on):
        @returns_array(dtype=np.float64)
        def make():
            return np.ones(3, dtype=np.int64)

        with pytest.raises(ContractViolationError, match="make"):
            make()

    def test_accepts_arrays_validates_named_argument(self, contracts_on):
        @accepts_arrays(design={"dtype": np.float64, "ndim": 2})
        def fit(design, target=None):
            return design.shape

        assert fit(np.zeros((2, 2))) == (2, 2)
        with pytest.raises(ContractViolationError, match="design"):
            fit(np.zeros(2))

    def test_accepts_arrays_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):

            @accepts_arrays(nope={"ndim": 1})
            def f(x):
                return x


class TestDesignMatrixContract:
    """design_matrix must serve C-contiguous float64 on every path."""

    def _check(self, basis, x):
        g = basis.design_matrix(x)
        assert g.dtype == np.float64
        assert g.flags.c_contiguous
        assert g.ndim == 2
        return g

    def test_linear_path(self, contracts_on):
        basis = OrthonormalBasis.linear(4)
        rng = np.random.default_rng(5)
        self._check(basis, rng.standard_normal((10, 4)))

    def test_general_path_uncached(self, contracts_on):
        previous = set_design_cache(None)
        try:
            basis = OrthonormalBasis.total_degree(3, 3)
            rng = np.random.default_rng(6)
            g = self._check(basis, rng.standard_normal((20, 3)))
            reference = oracle_design_matrix(basis, rng.standard_normal((20, 3)))
            assert reference.shape[1] == g.shape[1]
        finally:
            set_design_cache(previous)

    def test_column_subset_path(self, contracts_on):
        basis = OrthonormalBasis.total_degree(3, 3)
        rng = np.random.default_rng(7)
        g = basis.design_matrix(rng.standard_normal((8, 3)), columns=[0, 2, 4])
        assert g.flags.c_contiguous and g.dtype == np.float64


class TestCacheReadOnlyContract:
    """Satellite: cache-served arrays raise on in-place mutation, cold + hot."""

    def test_direct_cache_cold_path_read_only(self, contracts_on):
        cache = DesignMatrixCache(min_result_cells=1)
        cold = cache.get_or_compute(("k",), lambda: np.ones((8, 8)))
        assert cold.flags.writeable is False
        with pytest.raises(ValueError):
            cold[0, 0] = 7.0

    def test_direct_cache_hot_path_read_only(self, contracts_on):
        cache = DesignMatrixCache(min_result_cells=1)
        cache.get_or_compute(("k",), lambda: np.ones((8, 8)))
        hot = cache.get_or_compute(("k",), lambda: np.ones((8, 8)))
        assert cache.stats()["hits"] == 1
        assert hot.flags.writeable is False
        with pytest.raises(ValueError):
            hot[2, 2] = 7.0

    def test_through_basis_cold_and_cached(self, contracts_on):
        previous = set_design_cache(DesignMatrixCache(min_result_cells=1))
        try:
            basis = OrthonormalBasis.total_degree(3, 2)
            x = np.random.default_rng(8).standard_normal((16, 3))
            cold = basis.design_matrix(x)
            hot = basis.design_matrix(x)
            assert cold.flags.writeable is False
            assert hot.flags.writeable is False
            with pytest.raises(ValueError):
                cold[0, 0] = 1.0
            with pytest.raises(ValueError):
                hot[0, 0] = 1.0
            assert np.array_equal(cold, hot)
        finally:
            set_design_cache(previous)

    def test_corrupted_entry_evicted_and_recomputed_on_hit(self, contracts_on):
        """If an entry is ever force-mutated back to writeable, the cache
        self-heals: the poisoned entry is evicted (counted in
        ``design_cache.corrupt_evictions``) and a fresh result is served."""
        from repro.runtime.metrics import metrics

        cache = DesignMatrixCache(min_result_cells=1)
        stored = cache.get_or_compute(("k",), lambda: np.ones((8, 8)))
        stored.flags.writeable = True  # simulate a misbehaving caller
        stored[0, 0] = 99.0  # poison the shared entry
        before = metrics.counters().get("design_cache.corrupt_evictions", 0)
        healed = cache.get_or_compute(("k",), lambda: np.ones((8, 8)))
        after = metrics.counters().get("design_cache.corrupt_evictions", 0)
        assert after - before == 1
        assert np.array_equal(healed, np.ones((8, 8)))  # poison never served
        assert healed.flags.writeable is False
        assert cache.evictions >= 1

    def test_stats_snapshot_is_consistent(self):
        cache = DesignMatrixCache(min_result_cells=1)
        cache.get_or_compute(("a",), lambda: np.ones((4, 4)))
        cache.get_or_compute(("a",), lambda: np.ones((4, 4)))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] == 4 * 4 * 8
