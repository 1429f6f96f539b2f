"""Property-based tests (hypothesis) for the float32 serving mode.

Two invariants, driven by the same seeded problem generator as the PR-3
Woodbury property suite (``test_properties_woodbury.random_config``):

* fused float32 predictions always satisfy the serving contract bound
  (:data:`repro.backends.FLOAT32_SERVING_RTOL`) against the float64
  reference -- the exact check ``repro.analysis.contracts.check_close``
  enforces on the ``REPRO_CONTRACTS`` serving path;
* chaining ``extend_gram_kernel`` one row at a time over float32-sourced
  designs never drifts past the documented float32 gram tolerance, either
  against a fresh one-shot build (chaining adds no error) or against the
  float64 oracle kernel (rounding stays bounded).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.contracts import check_close  # noqa: E402
from repro.backends import FLOAT32_SERVING_RTOL, TOLERANCES  # noqa: E402
from repro.backends.oracle import oracle_gram_kernel  # noqa: E402
from repro.basis import OrthonormalBasis  # noqa: E402
from repro.linalg import extend_gram_kernel, gram_kernel  # noqa: E402

from test_properties_woodbury import random_config  # noqa: E402

FLOAT32_GRAM_RTOL = TOLERANCES["float32"].gram

seeds = st.integers(min_value=0, max_value=2_000)


def relative_inf_error(actual, reference):
    scale = max(float(np.max(np.abs(reference), initial=0.0)), 1e-300)
    return float(np.max(np.abs(actual - reference), initial=0.0)) / scale


class TestFloat32ServingContract:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_fused_float32_predictions_satisfy_contract_bound(self, seed):
        rng = np.random.default_rng(3_000_000 + seed)
        num_vars = int(rng.integers(2, 6))
        degree = int(rng.integers(1, 4))
        basis = OrthonormalBasis.total_degree(num_vars, degree)
        x = rng.standard_normal((int(rng.integers(1, 80)), num_vars))
        coefficients = rng.standard_normal(basis.size)
        reference = basis.fused_predict(x, coefficients)
        served = basis.fused_predict(x, coefficients, dtype=np.float32)
        assert served.dtype == np.dtype(np.float32)
        # check_close raises ContractViolationError on a bound miss -- the
        # very call the serving engine makes under REPRO_CONTRACTS.
        check_close(
            served, reference, rtol=FLOAT32_SERVING_RTOL, name="float32 serving"
        )

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_float32_design_predictions_stay_bounded(self, seed):
        """The bound also holds when the float32 design path feeds a plain
        matvec (the cached-serving shape) rather than the fused kernel."""
        rng = np.random.default_rng(4_000_000 + seed)
        basis = OrthonormalBasis.total_degree(3, int(rng.integers(1, 4)))
        x = rng.standard_normal((int(rng.integers(1, 50)), 3))
        coefficients = rng.standard_normal(basis.size)
        design32 = basis.design_matrix(x, dtype=np.float32)
        served = design32 @ coefficients.astype(np.float32)
        reference = basis.design_matrix(x) @ coefficients
        check_close(
            served, reference, rtol=FLOAT32_SERVING_RTOL, name="float32 matvec"
        )


class TestFloat32ChainedExtensions:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_chained_extensions_never_drift_past_bound(self, seed):
        num_old, design64, _, prior, _, missing_scale = random_config(seed)
        scale_sq = prior.effective_scale(missing_scale) ** 2
        design = design64.astype(np.float32).astype(np.float64)
        kernel = gram_kernel(design[:num_old], scale_sq)
        for row in range(num_old, design.shape[0]):
            kernel = extend_gram_kernel(
                kernel, design[:row], design[row : row + 1], scale_sq
            )
        fresh = gram_kernel(design, scale_sq)
        assert relative_inf_error(kernel, fresh) <= FLOAT32_GRAM_RTOL
        oracle = oracle_gram_kernel(design64, scale_sq)
        assert relative_inf_error(kernel, oracle) <= FLOAT32_GRAM_RTOL
