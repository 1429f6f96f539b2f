"""Tests for the serving layer: registry semantics, engine behavior, and
concurrency (no torn reads under a thread barrier, cache hit rates)."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.bmf import BmfRegressor, SequentialBmf
from repro.regression import FittedModel
from repro.runtime import DesignMatrixCache, set_design_cache
from repro.runtime.metrics import metrics as runtime_metrics
from repro.serving import (
    EngineStoppedError,
    ModelRegistry,
    ModelVersion,
    PredictionEngine,
    model_key,
)


@pytest.fixture(scope="module")
def basis():
    return OrthonormalBasis.total_degree(4, 2)


@pytest.fixture(scope="module")
def fitted(basis):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 4))
    truth = rng.normal(size=basis.size)
    f = basis.design_matrix(x) @ truth + 0.01 * rng.normal(size=60)
    return BmfRegressor(basis, truth, prior_kind="nonzero-mean").fit(x, f)


def version_model(basis, value):
    """A model whose every prediction equals ``value`` (torn reads would
    produce a non-constant vector or a value never published)."""
    constant = float(basis.design_matrix(np.zeros((1, basis.num_vars)))[0, 0])
    coefficients = np.zeros(basis.size)
    coefficients[0] = value / constant
    return FittedModel(basis, coefficients)


class TestModelKey:
    def test_stable_and_sensitive(self, basis, fitted):
        prior = fitted.chosen_prior_
        key = model_key(basis, prior, 0.5)
        assert key == model_key(basis, prior, 0.5)
        assert key != model_key(basis, prior, 0.25)
        assert key != model_key(basis, None, 0.5)
        other = OrthonormalBasis.total_degree(4, 3)
        assert key != model_key(other, prior, 0.5)


class TestModelRegistry:
    def test_publish_and_current(self, basis, fitted):
        registry = ModelRegistry()
        record = registry.publish("gain", fitted)
        assert isinstance(record, ModelVersion)
        assert record.version == 1
        assert registry.current("gain") is record
        assert "gain" in registry
        assert len(registry) == 1
        assert registry.names() == ("gain",)

    def test_snapshot_is_frozen(self, basis, fitted):
        registry = ModelRegistry()
        record = registry.publish("gain", fitted)
        assert not record.model.coefficients.flags.writeable
        with pytest.raises((ValueError, TypeError)):
            record.model.coefficients[0] = 1.0
        # Mutating the source regressor afterwards must not leak through.
        fitted.coefficients_[0] += 100.0
        try:
            assert registry.model("gain").coefficients[0] != fitted.coefficients_[0]
        finally:
            fitted.coefficients_[0] -= 100.0

    def test_accepts_sequential_and_fitted_model(self, basis):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 4))
        f = x[:, 0] + 0.01 * rng.normal(size=30)
        sequential = SequentialBmf(basis, np.zeros(basis.size))
        sequential.add_samples(x, f)
        registry = ModelRegistry()
        registry.publish("seq", sequential)
        registry.publish("plain", version_model(basis, 7.0))
        assert registry.model("seq").coefficients.shape == (basis.size,)

    def test_rejects_unfittable_objects(self):
        registry = ModelRegistry()
        with pytest.raises(TypeError, match="FittedModel"):
            registry.publish("bad", object())

    def test_unknown_name_raises(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.current("missing")
        with pytest.raises(KeyError):
            registry.rollback("missing")

    def test_rollback_steps_back_and_bottoms_out(self, basis):
        registry = ModelRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.publish("m", version_model(basis, value))
        assert registry.current("m").version == 3
        assert registry.rollback("m").version == 2
        assert registry.rollback("m").version == 1
        with pytest.raises(RuntimeError, match="roll back"):
            registry.rollback("m")
        # Publishing after a rollback appends; history stays linear.
        record = registry.publish("m", version_model(basis, 4.0))
        assert record.version == 4
        assert [v.version for v in registry.versions("m")] == [1, 2, 3, 4]

    def test_history_pruning_keeps_active(self, basis):
        registry = ModelRegistry(max_versions=3)
        for value in range(1, 7):
            registry.publish("m", version_model(basis, float(value)))
        versions = [v.version for v in registry.versions("m")]
        assert versions == [4, 5, 6]
        assert registry.current("m").version == 6

    def test_max_versions_validated(self):
        with pytest.raises(ValueError, match="max_versions"):
            ModelRegistry(max_versions=1)


class TestPredictionEngine:
    def test_predict_matches_direct_evaluation(self, basis, fitted):
        rng = np.random.default_rng(5)
        registry = ModelRegistry()
        registry.publish("gain", fitted)
        x = rng.normal(size=(7, 4))
        with PredictionEngine(registry, max_delay_seconds=0.0) as engine:
            out = engine.predict("gain", x)
            single = engine.predict("gain", x[0])
        expected = basis.design_matrix(x) @ registry.model("gain").coefficients
        assert np.allclose(out, expected)
        assert single.shape == (1,)
        assert np.allclose(single, expected[:1])

    def test_unknown_model_rejects_future(self, basis):
        registry = ModelRegistry()
        with PredictionEngine(registry, max_delay_seconds=0.0) as engine:
            with pytest.raises(KeyError):
                engine.predict("missing", np.zeros(4), timeout=10.0)

    def test_evaluation_error_propagates(self, basis, fitted):
        registry = ModelRegistry()
        registry.publish("gain", fitted)
        with PredictionEngine(registry, max_delay_seconds=0.0) as engine:
            with pytest.raises(ValueError):
                engine.predict("gain", np.zeros(3), timeout=10.0)  # wrong width

    def test_submit_when_stopped_raises(self, basis):
        engine = PredictionEngine(ModelRegistry())
        with pytest.raises(EngineStoppedError):
            engine.submit("gain", np.zeros(4))
        engine.start()
        engine.stop()
        engine.stop()  # idempotent
        with pytest.raises(EngineStoppedError):
            engine.submit("gain", np.zeros(4))

    def test_constructor_validation(self):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="max_delay_seconds"):
            PredictionEngine(registry, max_delay_seconds=-1.0)
        with pytest.raises(ValueError, match="workers"):
            PredictionEngine(registry, workers=0)

    def test_requests_coalesce_into_batches(self, basis, fitted):
        rng = np.random.default_rng(6)
        registry = ModelRegistry()
        registry.publish("gain", fitted)
        before = runtime_metrics.snapshot().get("serving.requests", 0)
        with PredictionEngine(registry, max_delay_seconds=0.05) as engine:
            futures = [
                engine.submit("gain", rng.normal(size=(2, 4))) for _ in range(16)
            ]
            for future in futures:
                assert future.result(timeout=10.0).shape == (2,)
            stats = engine.stats()
        after = runtime_metrics.snapshot().get("serving.requests", 0)
        assert after - before == 16
        assert stats["requests"] == 16
        assert stats["rows"] == 32
        # The 50 ms linger must coalesce the burst well below 1 req/batch.
        assert stats["batches"] <= 8
        assert stats["mean_batch_requests"] >= 2.0
        assert stats["mean_latency_seconds"] > 0.0


class TestConcurrency:
    NUM_READERS = 8
    NUM_WRITERS = 3
    PREDICTIONS_PER_READER = 40

    def test_no_torn_reads_under_barrier(self, basis):
        """8 reader + 3 writer + 1 rollback thread hammer one name; every
        prediction must be a constant vector whose value was published."""
        registry = ModelRegistry(max_versions=64)
        published_values = [float(v) for v in range(1, 33)]
        registry.publish("m", version_model(basis, published_values[0]))
        allowed = set(published_values)
        num_threads = self.NUM_READERS + self.NUM_WRITERS + 1
        barrier = threading.Barrier(num_threads)
        x = np.zeros((5, 4))
        failures = []

        def writer(values):
            barrier.wait()
            for value in values:
                registry.publish("m", version_model(basis, value))

        def roller():
            barrier.wait()
            for _ in range(10):
                try:
                    registry.rollback("m")
                except RuntimeError:
                    break  # bottomed out: no earlier version retained

        def reader(engine):
            barrier.wait()
            for _ in range(self.PREDICTIONS_PER_READER):
                out = engine.predict("m", x, timeout=30.0)
                values = set(np.round(out, 9))
                if len(values) != 1 or not values <= allowed:
                    failures.append(out.copy())

        with PredictionEngine(registry, max_delay_seconds=0.0, workers=4) as engine:
            with ThreadPoolExecutor(max_workers=num_threads) as pool:
                jobs = [
                    pool.submit(writer, published_values[1 + w :: self.NUM_WRITERS])
                    for w in range(self.NUM_WRITERS)
                ]
                jobs.append(pool.submit(roller))
                jobs += [
                    pool.submit(reader, engine) for _ in range(self.NUM_READERS)
                ]
                for job in jobs:
                    job.result(timeout=60.0)
        assert not failures

    def test_registry_publish_race_yields_unique_versions(self, basis):
        registry = ModelRegistry(max_versions=128)
        barrier = threading.Barrier(8)

        def publisher(worker):
            barrier.wait()
            return [
                registry.publish("m", version_model(basis, float(worker))).version
                for _ in range(10)
            ]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [pool.submit(publisher, w) for w in range(8)]
            versions = [v for job in results for v in job.result(timeout=30.0)]
        assert sorted(versions) == list(range(1, 81))
        assert registry.current("m").version == 80

    def test_repeated_batches_hit_design_cache(self, basis, fitted):
        rng = np.random.default_rng(8)
        registry = ModelRegistry()
        registry.publish("gain", fitted)
        x = rng.normal(size=(128, 4))  # 128 x 15 cells > the 1-cell floor
        cache = DesignMatrixCache(min_result_cells=1)
        previous = set_design_cache(cache)
        try:
            with PredictionEngine(registry, max_delay_seconds=0.0) as engine:
                repeats = 10
                for _ in range(repeats):
                    engine.predict("gain", x, timeout=10.0)
            stats = cache.stats()
        finally:
            set_design_cache(previous)
        # One assembly, then cache hits for every identical batch.
        assert stats["misses"] == 1
        assert stats["hits"] == repeats - 1
        hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
        assert hit_rate >= (repeats - 1) / repeats
