"""Benchmark guards for generational store compaction.

Two bars from the ISSUE:

* **recovery speedup** -- with 500 superseded versions on disk, full
  recovery of a compacted store (snapshot + live tail) must be >= 3x
  faster than replaying the uncompacted journal, because compaction is
  exactly the knob that keeps long-lived serving fleets cheap to
  restart;
* **serving unaffected** -- the store-backed cached serving path must
  keep the >= 4.75x bar of ``test_runtime_vectorization`` when the model
  is served out of a *compacted* generation: compaction does its work at
  maintenance time, never on the serve path.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from conftest import save_result
from repro.backends.oracle import oracle_design_matrix
from repro.basis import OrthonormalBasis
from repro.regression import FittedModel
from repro.runtime import DesignMatrixCache, set_design_cache
from repro.serving import ModelRegistry
from repro.store import ModelStore, RecoveryManager, compact

#: The ISSUE working point: 500 superseded generations of one model.
SUPERSEDED = 500
RECOVERY_REPEATS = 3

# The >= 4.75x serving bar's working point (test_runtime_vectorization).
R = 100
K = 2000
DEGREE = 2
REPEATS = 3


def _best_of(repeats, fn):
    best = np.inf
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_compacted_recovery_speedup(benchmark, tmp_path):
    basis = OrthonormalBasis.total_degree(4, 2)
    rng = np.random.default_rng(13)

    def run():
        full_root = tmp_path / "full"
        store = ModelStore(full_root, use_fsync=False)
        registry = ModelRegistry(store=store, max_versions=2)
        for _ in range(SUPERSEDED + 1):
            registry.publish(
                "power", FittedModel(basis, rng.standard_normal(basis.size))
            )

        # Same history twice: one copy stays append-only, one compacts.
        compacted_root = tmp_path / "compacted"
        shutil.copytree(full_root, compacted_root)
        # history_window=1 keeps the same two versions max_versions=2
        # registries retain, so both recoveries see identical history.
        report = compact(
            ModelStore(compacted_root, use_fsync=False), history_window=1
        )
        assert len(report.dropped) == SUPERSEDED - 1

        def recover(root):
            out = RecoveryManager(ModelStore(root, use_fsync=False)).recover(
                registry=ModelRegistry(max_versions=2),
                quarantine_corrupt=False,
            )
            return out

        full_seconds, full = _best_of(
            RECOVERY_REPEATS, lambda: recover(full_root)
        )
        compacted_seconds, compacted_report = _best_of(
            RECOVERY_REPEATS, lambda: recover(compacted_root)
        )

        return {
            "full_seconds": full_seconds,
            "compacted_seconds": compacted_seconds,
            "speedup": full_seconds / compacted_seconds,
            "full_snapshot": full.registry.snapshot(),
            "compacted_snapshot": compacted_report.registry.snapshot(),
            "compacted_restored": compacted_report.restored,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    # Same answer, much faster: the registry state is bitwise identical.
    assert result["compacted_snapshot"] == result["full_snapshot"]
    assert result["compacted_restored"] == (
        ("power", SUPERSEDED),
        ("power", SUPERSEDED + 1),
    )
    assert result["speedup"] >= 3.0, (
        f"compacted recovery only {result['speedup']:.2f}x faster than full "
        f"replay over {SUPERSEDED} superseded versions (bar: 3x)"
    )
    save_result(
        "store_compaction_recovery",
        f"Recovery over {SUPERSEDED} superseded versions: full replay "
        f"{result['full_seconds'] * 1e3:.2f} ms, compacted "
        f"{result['compacted_seconds'] * 1e3:.2f} ms "
        f"({result['speedup']:.2f}x)",
    )


def test_compacted_store_serving_path_keeps_speedup(benchmark, tmp_path):
    basis = OrthonormalBasis.total_degree(R, DEGREE)
    x = np.random.default_rng(42).standard_normal((K, R))
    coefficients = np.random.default_rng(7).standard_normal(basis.size)

    def run():
        loop_seconds, reference = _best_of(
            REPEATS, lambda: oracle_design_matrix(basis, x)
        )

        store = ModelStore(tmp_path / "store")  # durability on: real fsyncs
        registry = ModelRegistry(store=store)
        registry.publish("power", FittedModel(basis, coefficients))
        registry.publish("power", FittedModel(basis, coefficients))
        compact(store, history_window=0)  # maintenance happens pre-serve

        recovered = RecoveryManager(store).recover(
            registry=ModelRegistry(store=store)
        )
        model = recovered.registry.model("power")

        previous = set_design_cache(DesignMatrixCache())
        try:
            model.basis.design_matrix(x)  # warming miss
            served_seconds, served = _best_of(
                REPEATS, lambda: model.basis.design_matrix(x)
            )
        finally:
            set_design_cache(previous)

        return {
            "loop_seconds": loop_seconds,
            "served_seconds": served_seconds,
            "served_speedup": loop_seconds / served_seconds,
            "generation": store.generation,
            "records": len(store.record_paths()),
            "reference": reference,
            "served": served,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    assert result["generation"] == 1  # really serving out of a compaction
    assert result["records"] == 1  # the superseded version was dropped
    assert np.allclose(result["served"], result["reference"])
    assert result["served_speedup"] >= 4.75, (
        "compacted-store cached serving path only "
        f"{result['served_speedup']:.2f}x faster (bar: within 5% of 5.0x)"
    )
    save_result(
        "store_compaction_serving",
        "Compacted-store cached serving path, quadratic basis, "
        f"R = {R}, K = {K}: loop {result['loop_seconds'] * 1e3:.2f} ms, "
        f"served {result['served_seconds'] * 1e3:.2f} ms "
        f"({result['served_speedup']:.2f}x)",
    )
