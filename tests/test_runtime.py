"""Unit tests for the runtime layer: metrics registry and design cache."""

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.locks import watch_locks
from repro.runtime import (
    DesignMatrixCache,
    MetricsRegistry,
    design_cache,
    disable_design_cache,
    fingerprint_array,
    format_snapshot,
    set_design_cache,
    snapshot_delta,
)


class TestMetricsRegistry:
    def test_counter_starts_at_zero(self):
        registry = MetricsRegistry()
        assert registry.count("nope") == 0

    def test_increment_accumulates(self):
        registry = MetricsRegistry()
        registry.increment("a")
        registry.increment("a", 4)
        assert registry.count("a") == 5

    def test_timer_accumulates_calls(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with registry.timer("t"):
                pass
        stat = registry.timer_stat("t")
        assert stat.calls == 3
        assert stat.seconds >= 0.0

    def test_timer_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("t"):
                raise RuntimeError("boom")
        assert registry.timer_stat("t").calls == 1

    def test_snapshot_flattens_timers(self):
        registry = MetricsRegistry()
        registry.increment("c", 2)
        with registry.timer("t"):
            pass
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["t.calls"] == 1
        assert "t.seconds" in snap

    def test_reset(self):
        registry = MetricsRegistry()
        registry.increment("c")
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.snapshot() == {}

    def test_snapshot_delta_drops_unchanged(self):
        before = {"a": 1, "b": 2.0}
        after = {"a": 1, "b": 5.0, "c": 3}
        assert snapshot_delta(before, after) == {"b": 3.0, "c": 3}

    def test_format_snapshot(self):
        text = format_snapshot({"x.seconds": 0.5, "y": 3})
        assert "x.seconds" in text and "0.5000" in text and "3" in text
        assert format_snapshot({}).endswith("(none)")


class TestMetricsScope:
    def test_increments_land_in_child_and_parent(self):
        parent = MetricsRegistry()
        child = parent.scope()
        child.increment("a", 3)
        parent.increment("a")
        assert child.counters() == {"a": 3}
        assert parent.counters() == {"a": 4}

    def test_timers_land_in_both_with_one_elapsed(self):
        parent = MetricsRegistry()
        child = parent.scope()
        with child.timer("t"):
            pass
        assert child.timer_stat("t").calls == 1
        assert parent.timer_stat("t") == child.timer_stat("t")

    def test_nested_scopes_roll_up_to_the_root(self):
        root = MetricsRegistry()
        middle = root.scope()
        leaf = middle.scope()
        leaf.increment("a")
        middle.increment("a", 2)
        assert (root.count("a"), middle.count("a"), leaf.count("a")) == (3, 3, 1)

    def test_siblings_see_only_their_own_counts(self):
        parent = MetricsRegistry()
        first, second = parent.scope(), parent.scope()
        first.increment("x", 2)
        assert second.counters() == {}
        assert parent.count("x") == 2

    def test_reset_clears_only_that_registry(self):
        parent = MetricsRegistry()
        child = parent.scope()
        child.increment("a")
        child.reset()
        assert parent.count("a") == 1
        child.increment("a")
        parent.reset()
        assert child.count("a") == 1

    def test_child_releases_its_lock_before_calling_the_parent(self):
        with watch_locks() as watchdog:
            parent = MetricsRegistry()
            child = parent.scope()
            child.increment("a")
            with child.timer("t"):
                pass
        report = watchdog.report()
        assert set(report["locks"]) == {"runtime.metrics", "runtime.metrics.scope"}
        assert report["edges"] == []


class TestFingerprint:
    def test_same_values_same_fingerprint(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        b = a.copy()
        assert fingerprint_array(a) == fingerprint_array(b)

    def test_different_values_differ(self):
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        b[0, 0] = 1e-300
        assert fingerprint_array(a) != fingerprint_array(b)

    def test_shape_distinguished(self):
        a = np.zeros(12)
        b = np.zeros((3, 4))
        assert fingerprint_array(a) != fingerprint_array(b)


class TestDesignMatrixCache:
    def make_cache(self, **kwargs):
        kwargs.setdefault("min_result_cells", 1)
        return DesignMatrixCache(**kwargs)

    def test_miss_then_hit(self):
        cache = self.make_cache()
        calls = []

        def compute():
            calls.append(1)
            return np.ones((8, 8))

        first = cache.get_or_compute(("k",), compute)
        second = cache.get_or_compute(("k",), compute)
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert np.array_equal(first, second)

    def test_cached_array_is_read_only(self):
        cache = self.make_cache()
        result = cache.get_or_compute(("k",), lambda: np.ones((4, 4)))
        with pytest.raises(ValueError):
            result[0, 0] = 2.0

    def test_small_results_not_stored(self):
        cache = DesignMatrixCache(min_result_cells=1000)
        result = cache.get_or_compute(("k",), lambda: np.ones((2, 2)))
        assert len(cache) == 0
        # Un-stored results stay writable.
        result[0, 0] = 5.0

    def test_lru_eviction_by_count(self):
        cache = self.make_cache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get_or_compute((key,), lambda: np.ones((4, 4)))
        assert len(cache) == 2
        assert cache.evictions == 1
        # "a" was evicted; "b" and "c" still hit.
        cache.get_or_compute(("b",), lambda: np.ones((4, 4)))
        assert cache.hits == 1

    def test_eviction_by_bytes(self):
        one_entry = np.ones((8, 8)).nbytes
        cache = self.make_cache(max_bytes=int(one_entry * 1.5))
        cache.get_or_compute(("a",), lambda: np.ones((8, 8)))
        cache.get_or_compute(("b",), lambda: np.ones((8, 8)))
        assert len(cache) == 1
        assert cache.nbytes == one_entry

    def test_never_hit_entries_hold_an_eighth_of_the_bytes(self):
        one_entry = np.ones((8, 8)).nbytes
        cache = self.make_cache(max_entries=100, max_bytes=32 * one_entry)
        for key in range(10):
            cache.get_or_compute((key,), lambda: np.ones((8, 8)))
        # 4 one-off entries fill the eighth; the 6 oldest made room.
        assert len(cache) == 4
        assert cache.evictions == 6
        assert cache.nbytes == 4 * one_entry
        cache.get_or_compute((9,), lambda: np.ones((8, 8)))
        assert cache.hits == 1

    def test_hit_entry_outlives_a_stream_of_one_off_entries(self):
        one_entry = np.ones((8, 8)).nbytes
        cache = self.make_cache(max_entries=100, max_bytes=32 * one_entry)
        cache.get_or_compute(("hot",), lambda: np.ones((8, 8)))
        cache.get_or_compute(("hot",), lambda: np.ones((8, 8)))
        for key in range(10):
            cache.get_or_compute((key,), lambda: np.ones((8, 8)))
        assert len(cache) == 5
        cache.get_or_compute(("hot",), lambda: np.ones((8, 8)))
        assert cache.hits == 2 and cache.misses == 11

    def test_newest_never_hit_entry_stays_even_past_its_share(self):
        one_entry = np.ones((8, 8)).nbytes
        cache = self.make_cache(max_bytes=4 * one_entry)
        cache.get_or_compute(("a",), lambda: np.ones((8, 8)))
        assert len(cache) == 1
        cache.get_or_compute(("a",), lambda: np.ones((8, 8)))
        assert cache.hits == 1
        cache.get_or_compute(("b",), lambda: np.ones((8, 8)))
        cache.get_or_compute(("c",), lambda: np.ones((8, 8)))
        # "a" was hit, so only the older one-off "b" made room for "c".
        assert len(cache) == 2 and cache.evictions == 1

    def test_oversized_result_computed_but_not_stored(self):
        cache = self.make_cache(max_bytes=64)
        result = cache.get_or_compute(("big",), lambda: np.ones((8, 8)))
        assert result.shape == (8, 8)
        assert len(cache) == 0

    def test_clear(self):
        cache = self.make_cache()
        cache.get_or_compute(("a",), lambda: np.ones((4, 4)))
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_global_cache_swap_and_disable(self):
        replacement = DesignMatrixCache()
        previous = set_design_cache(replacement)
        try:
            assert design_cache() is replacement
            removed = disable_design_cache()
            assert removed is replacement
            assert design_cache() is None
        finally:
            set_design_cache(previous)


class TestDesignMatrixCaching:
    """Integration of the cache with OrthonormalBasis.design_matrix."""

    @pytest.fixture()
    def fresh_cache(self):
        cache = DesignMatrixCache(min_result_cells=1)
        previous = set_design_cache(cache)
        yield cache
        set_design_cache(previous)

    def test_repeated_assembly_hits(self, rng, fresh_cache):
        basis = OrthonormalBasis.total_degree(3, 2)
        x = rng.standard_normal((50, 3))
        first = basis.design_matrix(x)
        second = basis.design_matrix(x)
        assert fresh_cache.hits == 1 and fresh_cache.misses == 1
        assert second is first

    def test_equal_basis_instances_share_entries(self, rng, fresh_cache):
        x = rng.standard_normal((30, 2))
        OrthonormalBasis.total_degree(2, 2).design_matrix(x)
        OrthonormalBasis.total_degree(2, 2).design_matrix(x)
        assert fresh_cache.hits == 1

    def test_different_samples_miss(self, rng, fresh_cache):
        basis = OrthonormalBasis.total_degree(2, 2)
        basis.design_matrix(rng.standard_normal((20, 2)))
        basis.design_matrix(rng.standard_normal((20, 2)))
        assert fresh_cache.hits == 0 and fresh_cache.misses == 2

    def test_column_subset_keyed_separately(self, rng, fresh_cache):
        basis = OrthonormalBasis.total_degree(2, 2)
        x = rng.standard_normal((20, 2))
        full = basis.design_matrix(x)
        subset = basis.design_matrix(x, columns=[0, 2])
        assert np.allclose(subset, full[:, [0, 2]])
        assert fresh_cache.misses == 2

    def test_disabled_cache_still_correct(self, rng):
        previous = set_design_cache(None)
        try:
            basis = OrthonormalBasis.total_degree(2, 2)
            x = rng.standard_normal((25, 2))
            first = basis.design_matrix(x)
            second = basis.design_matrix(x)
            assert first is not second
            assert np.allclose(first, second)
        finally:
            set_design_cache(previous)
