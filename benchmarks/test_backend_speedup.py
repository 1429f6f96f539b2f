"""Serving benchmark: the fused design-predict kernel.

Measures end-to-end prediction (design-matrix assembly + coefficient
matvec) at the paper's "large" working point -- R = 100 variables,
K = 2000 samples, M = 5151 quadratic basis functions -- on these serving
paths:

* ``loop``:      the test oracle's per-column loop
                 (``repro.backends.oracle.oracle_design_matrix``) followed
                 by a matvec;
* ``fused hot``: ``OrthonormalBasis.fused_predict`` on a warm design
                 cache -- one call, a single matvec on the cached
                 read-only matrix;
* ``fused cold``: ``fused_predict`` with the cache disabled -- the
                 streaming kernel that never materializes the K x M
                 intermediate;
* ``cold unfused``: cache-bypassed ``design_matrix`` + matvec, what the
                 serving engine used to do on uncached batches.

Bars (recorded in ``benchmarks/results/backend_speedup.txt``): the fused
cached serving path must clear **8.0x** over the loop baseline -- strictly
above the previous 5.0x cached-design bar of
``test_runtime_vectorization.py``, which this PR keeps in force -- and the
streaming fused kernel must beat the materialize-then-matvec cold path by
**1.3x** (measured ~1.9x: it saves writing and re-reading the 82 MB
intermediate).
"""

import time

import numpy as np

from conftest import save_result
from repro.backends.oracle import oracle_design_matrix
from repro.basis import OrthonormalBasis
from repro.runtime import DesignMatrixCache, set_design_cache

R = 100
K = 2000
DEGREE = 2
REPEATS = 3

#: The fused cached serving bar; the cached-design bar of
#: test_runtime_vectorization.py is 5.0x.
FUSED_HOT_BAR = 8.0
#: Streaming fused kernel vs. materialize-then-matvec.
FUSED_COLD_BAR = 1.3


def _best_of(repeats, fn):
    best = np.inf
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_fused_serving_kernel_speedup(benchmark):
    basis = OrthonormalBasis.total_degree(R, DEGREE)
    x = np.random.default_rng(42).standard_normal((K, R))
    coefficients = np.random.default_rng(7).standard_normal(basis.size)

    def run():
        loop_seconds, reference = _best_of(
            REPEATS, lambda: oracle_design_matrix(basis, x) @ coefficients
        )

        # Hot serving: warm cache, fused_predict is one matvec per call.
        previous = set_design_cache(DesignMatrixCache())
        try:
            basis.fused_predict(x, coefficients)  # warming miss
            hot_seconds, hot = _best_of(
                REPEATS, lambda: basis.fused_predict(x, coefficients)
            )
        finally:
            set_design_cache(previous)

        # Cold paths, cache disabled: streaming fused kernel vs. the old
        # materialize-then-matvec sequence.
        previous = set_design_cache(None)
        try:
            cold_seconds, cold = _best_of(
                REPEATS, lambda: basis.fused_predict(x, coefficients)
            )
            unfused_seconds, _ = _best_of(
                REPEATS, lambda: basis.design_matrix(x) @ coefficients
            )
        finally:
            set_design_cache(previous)

        return {
            "loop_seconds": loop_seconds,
            "hot_seconds": hot_seconds,
            "cold_seconds": cold_seconds,
            "unfused_seconds": unfused_seconds,
            "hot_speedup": loop_seconds / hot_seconds,
            "cold_speedup": unfused_seconds / cold_seconds,
            "reference": reference,
            "hot": hot,
            "cold": cold,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    assert np.allclose(result["hot"], result["reference"])
    assert np.allclose(result["cold"], result["reference"])
    assert result["hot_speedup"] >= FUSED_HOT_BAR, (
        f"fused cached serving only {result['hot_speedup']:.2f}x over the "
        f"loop baseline (bar: {FUSED_HOT_BAR}x, measured ~14.9x)"
    )
    assert result["cold_speedup"] >= FUSED_COLD_BAR, (
        f"streaming fused kernel only {result['cold_speedup']:.2f}x over "
        f"materialize-then-matvec (bar: {FUSED_COLD_BAR}x, measured ~1.9x)"
    )

    lines = [
        "Fused serving kernel: quadratic basis, "
        f"R = {R}, K = {K}, M = {basis.size}",
        f"  loop assembly + matvec     {result['loop_seconds'] * 1e3:9.2f} ms",
        f"  fused, warm cache          {result['hot_seconds'] * 1e3:9.2f} ms"
        f"   ({result['hot_speedup']:.2f}x, bar {FUSED_HOT_BAR}x)",
        f"  materialize + matvec, cold {result['unfused_seconds'] * 1e3:9.2f} ms",
        f"  fused streaming, cold      {result['cold_seconds'] * 1e3:9.2f} ms"
        f"   ({result['cold_speedup']:.2f}x vs materialize, "
        f"bar {FUSED_COLD_BAR}x)",
    ]
    save_result("backend_speedup", "\n".join(lines))

