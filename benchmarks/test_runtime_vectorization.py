"""Runtime-layer benchmark: vectorized + cached design-matrix assembly.

Measures quadratic-basis design-matrix assembly at the paper's "large"
working point -- R = 100 variables, K = 2000 Monte Carlo samples,
M = 5151 basis functions -- three ways:

* ``loop``:       the per-column Python loop of the test oracle
  (``repro.backends.oracle.oracle_design_matrix``);
* ``vectorized``: one cold pass through the blocked gather-product assembly
  (cache bypassed);
* ``cached``:     the production ``design_matrix`` entry point on repeated
  requests for the same (basis, samples) pair -- the pattern of the
  cross-validation sweep and the multi-metric cost runners, where the pool
  is fixed and the matrix is re-requested per metric / per method.

Assertions: the served (cached) path is >= 5x faster than the loop,
a single cold vectorized pass is >= 1.3x faster, and both produce the same
matrix to ``np.allclose`` tolerance.  On this box the cold pass is bounded
below by pure memory bandwidth (the 82 MB output is written once and
multiplied once), which is why the 5x headline belongs to the serving path.
The cold floor was 2x when ``design_matrix`` returned Fortran-ordered
output; the array contract introduced with ``repro.analysis`` guarantees
C-contiguous float64 on every path, and row-major assembly of a
column-defined basis costs real bandwidth (measured best ~1.5-2.3x
depending on load), so the floor asserts a solid-but-smaller margin.
"""

import time

import numpy as np

from conftest import save_result
from repro.backends.oracle import oracle_design_matrix
from repro.basis import OrthonormalBasis
from repro.regression import FittedModel
from repro.runtime import DesignMatrixCache, set_design_cache
from repro.serving import ModelRegistry
from repro.store import ModelStore

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


def test_design_matrix_vectorization_speedup(benchmark):
    basis = OrthonormalBasis.total_degree(R, DEGREE)
    x = np.random.default_rng(42).standard_normal((K, R))

    def run():
        # Reference: one Python-level loop iteration per basis column.
        loop_seconds, reference = _best_of(
            REPEATS, lambda: oracle_design_matrix(basis, x)
        )

        # Cold vectorized assembly, cache bypassed.
        previous = set_design_cache(None)
        try:
            cold_seconds, vectorized = _best_of(REPEATS, lambda: basis.design_matrix(x))
        finally:
            set_design_cache(previous)

        # Production serving path: fresh cache, one warming miss, then
        # repeated requests for the same (basis, samples) pair.
        previous = set_design_cache(DesignMatrixCache())
        try:
            basis.design_matrix(x)
            served_seconds, served = _best_of(REPEATS, lambda: basis.design_matrix(x))
        finally:
            set_design_cache(previous)

        return {
            "loop_seconds": loop_seconds,
            "cold_seconds": cold_seconds,
            "served_seconds": served_seconds,
            "cold_speedup": loop_seconds / cold_seconds,
            "served_speedup": loop_seconds / served_seconds,
            "reference": reference,
            "vectorized": vectorized,
            "served": served,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    assert np.allclose(result["vectorized"], result["reference"])
    assert np.allclose(result["served"], result["reference"])
    assert result["served_speedup"] >= 5.0, (
        f"cached serving path only {result['served_speedup']:.2f}x faster"
    )
    # The floor is intentionally below the ~1.9x typical margin: the cold
    # path now also guarantees C-contiguous output (see module docstring),
    # and this single-core box's timings jitter by +/- 20%.
    assert result["cold_speedup"] >= 1.3, (
        f"cold vectorized assembly only {result['cold_speedup']:.2f}x faster"
    )

    lines = [
        "Design-matrix assembly: quadratic basis, "
        f"R = {R}, K = {K}, M = {basis.size}",
        f"  per-column loop (oracle)   {result['loop_seconds'] * 1e3:9.2f} ms",
        f"  vectorized, cold           {result['cold_seconds'] * 1e3:9.2f} ms"
        f"   ({result['cold_speedup']:.2f}x)",
        f"  cached serving path        {result['served_seconds'] * 1e3:9.2f} ms"
        f"   ({result['served_speedup']:.2f}x)",
    ]
    save_result("runtime_vectorization", "\n".join(lines))


def test_store_backed_serving_path_keeps_speedup(benchmark, tmp_path):
    """Crash-safe persistence must not tax the serve path.

    The store does all its work at *publish* time (encode, fsync, rename,
    journal); once a version is registered, serving resolves the same
    frozen model and hits the same design-matrix cache as before.  This
    guard publishes through a store-backed registry (real fsyncs, no
    failpoints armed) and re-measures the cached serving path of
    ``test_design_matrix_vectorization_speedup`` -- the speedup must stay
    within 5% of that test's 5.0x bar (>= 4.75x).
    """
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
        model = registry.model("power")

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
            "records": len(store.record_paths()),
            "reference": reference,
            "served": served,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    assert result["records"] == 1  # persistence really was enabled
    assert np.allclose(result["served"], result["reference"])
    assert result["served_speedup"] >= 4.75, (
        "store-backed cached serving path only "
        f"{result['served_speedup']:.2f}x faster (bar: within 5% of 5.0x)"
    )
    save_result(
        "runtime_store_serving",
        "Store-backed cached serving path, quadratic basis, "
        f"R = {R}, K = {K}: loop {result['loop_seconds'] * 1e3:.2f} ms, "
        f"served {result['served_seconds'] * 1e3:.2f} ms "
        f"({result['served_speedup']:.2f}x)",
    )


def test_linear_design_matrix_vectorization(benchmark):
    """Linear bases (the paper's RO and SRAM models) assemble by one copy.

    The oracle's per-column loop and the production assembly produce the
    same ``K x (R + 1)`` floats.  A linear basis's variables follow its
    constant in order, so production fills the constant column and copies
    ``x`` into the rest with one slice assignment each: no per-column
    Python loop and no fancy-index gather with its temporary.  Assert at
    least 8x over the loop (about 20x measured on one core) plus bitwise
    agreement.
    """
    basis = OrthonormalBasis.linear(4000)
    x = np.random.default_rng(43).standard_normal((500, 4000))

    def run():
        loop_seconds, reference = _best_of(
            REPEATS, lambda: oracle_design_matrix(basis, x)
        )
        previous = set_design_cache(None)
        try:
            fast_seconds, fast = _best_of(REPEATS, lambda: basis.design_matrix(x))
        finally:
            set_design_cache(previous)
        return {
            "loop_seconds": loop_seconds,
            "fast_seconds": fast_seconds,
            "speedup": loop_seconds / fast_seconds,
            "reference": reference,
            "fast": fast,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    assert np.array_equal(result["fast"], result["reference"])
    assert result["speedup"] >= 8.0, (
        f"linear slice-copy assembly only {result['speedup']:.2f}x faster"
    )
    save_result(
        "runtime_linear_design",
        "Linear design matrix, R = 4000, K = 500: "
        f"loop {result['loop_seconds'] * 1e3:.2f} ms, "
        f"vectorized {result['fast_seconds'] * 1e3:.2f} ms "
        f"({result['speedup']:.2f}x)",
    )


def test_linear_batch_skips_design_cache(benchmark):
    """A linear basis serves a repeated batch no slower with the cache on.

    Keying a request for the design cache hashes its whole sample matrix:
    3.7 MB for a 256-row batch at the paper's SRAM shape (R = 1804,
    M = 1805), several times what the slice-copy assembly of a linear
    design costs.  So a linear basis never consults the cache.  With a
    default ``DesignMatrixCache`` installed, a repeated 256-row
    ``fused_predict`` may take at most 1.5x the same call with the cache
    off (best of 30 each, after one warming call), and both return the
    oracle's matvec bitwise.
    """
    basis = OrthonormalBasis.linear(1804)
    rng = np.random.default_rng(44)
    x = rng.standard_normal((256, basis.num_vars))
    coefficients = rng.standard_normal(basis.size)

    def repeated(cache):
        previous = set_design_cache(cache)
        try:
            basis.fused_predict(x, coefficients)
            return _best_of(30, lambda: basis.fused_predict(x, coefficients))
        finally:
            set_design_cache(previous)

    def run():
        off_seconds, off = repeated(None)
        on_seconds, on = repeated(DesignMatrixCache())
        return {
            "off_seconds": off_seconds,
            "on_seconds": on_seconds,
            "ratio": on_seconds / off_seconds,
            "off": off,
            "on": on,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    expected = oracle_design_matrix(basis, x) @ coefficients
    assert np.array_equal(result["off"], expected)
    assert np.array_equal(result["on"], expected)
    assert result["ratio"] <= 1.5, (
        f"repeated linear batch {result['ratio']:.2f}x slower with the cache on"
    )
    save_result(
        "runtime_linear_cache",
        "Repeated 256-row fused_predict, linear basis, R = 1804, M = "
        f"{basis.size}: cache off {result['off_seconds'] * 1e3:.2f} ms, "
        f"default cache {result['on_seconds'] * 1e3:.2f} ms "
        f"({result['ratio']:.2f}x, bar 1.5x)",
    )
