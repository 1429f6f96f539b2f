"""Differential conformance suite for the numeric hot paths.

Each hot-path operation -- design-matrix assembly, Gram kernels, MAP
solves, incremental Woodbury refits, and fused serving predictions -- runs
in float64 and is compared to the bitwise-deterministic float64 oracle
(:mod:`repro.backends.oracle`) within the documented tolerances
(:data:`repro.backends.TOLERANCES`, whose prose copy lives in
``docs/backends.md``).  A tolerance of ``0.0`` means *bitwise equal*; the
meta-tests at the bottom pin the hot paths to the oracle's exact bits so
the reference itself cannot drift.
"""

import numpy as np
import pytest

from repro.backends import TOLERANCES
from repro.backends.oracle import (
    oracle_design_matrix,
    oracle_gram_kernel,
    oracle_map_solve,
    oracle_predict,
)
from repro.basis import OrthonormalBasis
from repro.bmf import GaussianCoefficientPrior, KernelMapSolver
from repro.linalg import extend_gram_kernel, gram_kernel

from test_properties_woodbury import random_config

#: Seeds driving the randomized solve/refit conformance cases.
SOLVE_SEEDS = tuple(range(0, 40, 4))


# Every hot path returns float64.  The "numpy-float64" id keeps each
# case's node ID as it was when the suite also ran other numeric
# implementations and float32, so test histories line up.
@pytest.fixture(params=["float64"], ids=lambda name: f"numpy-{name}")
def dtype(request):
    return np.dtype(request.param)


def tolerance(operation):
    return TOLERANCES.for_operation(operation)


def assert_conforms(actual, reference, tol, label):
    """Inf-norm relative comparison; ``tol == 0`` demands bitwise equality."""
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    assert actual.shape == reference.shape, label
    if tol == 0:
        assert np.array_equal(actual, reference), f"{label}: expected bitwise equality"
        return
    scale = max(float(np.max(np.abs(reference), initial=0.0)), 1e-300)
    error = float(np.max(np.abs(actual - reference), initial=0.0)) / scale
    assert error <= tol, f"{label}: relative error {error:.3e} exceeds {tol:.1e}"


@pytest.fixture(scope="module")
def problem():
    """One moderate dense problem: basis, samples, coefficients."""
    basis = OrthonormalBasis.total_degree(4, 3)
    rng = np.random.default_rng(77)
    x = rng.standard_normal((61, 4))
    coefficients = rng.standard_normal(basis.size)
    return basis, x, coefficients


class TestDesignMatrixConformance:
    def test_assembly_matches_oracle(self, dtype, problem):
        basis, x, _ = problem
        reference = oracle_design_matrix(basis, x)
        actual = basis.design_matrix(x)
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("design"), "design")

    def test_column_subsets_match_oracle(self, dtype, problem):
        basis, x, _ = problem
        columns = list(range(0, basis.size, 3))
        reference = oracle_design_matrix(basis, x)[:, columns]
        actual = basis.design_matrix(x, columns=columns)
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("design"), "design-cols")


class TestGramKernelConformance:
    def test_gram_kernel_matches_oracle(self, dtype, problem):
        basis, x, _ = problem
        design = oracle_design_matrix(basis, x)
        rng = np.random.default_rng(5)
        scale_sq = np.abs(rng.standard_normal(basis.size)) + 0.1
        reference = oracle_gram_kernel(design, scale_sq)
        actual = gram_kernel(design, scale_sq)
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("gram"), "gram")

    def test_extend_gram_kernel_matches_oracle(self, dtype, problem):
        basis, x, _ = problem
        design = oracle_design_matrix(basis, x)
        split = design.shape[0] // 2
        reference = oracle_gram_kernel(design)
        base = gram_kernel(design[:split])
        actual = extend_gram_kernel(base, design[:split], design[split:])
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("gram"), "extend")


class TestSolveConformance:
    @pytest.mark.parametrize("seed", SOLVE_SEEDS)
    def test_map_solve_matches_oracle(self, dtype, seed):
        _, design, target, prior, eta, missing_scale = random_config(seed)
        reference = oracle_map_solve(design, target, prior, eta, missing_scale)
        solver = KernelMapSolver(design, target, prior, missing_scale)
        actual = solver.solve(eta)
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("solve"), "solve")

    @pytest.mark.parametrize("seed", SOLVE_SEEDS)
    def test_incremental_refit_matches_oracle(self, dtype, seed):
        num_old, design, target, prior, eta, missing_scale = random_config(seed)
        reference = oracle_map_solve(design, target, prior, eta, missing_scale)
        base = KernelMapSolver(
            design[:num_old], target[:num_old], prior, missing_scale
        )
        grown = base.extended(design[num_old:], target[num_old:])
        actual = grown.solve(eta)
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("refit"), "refit")


class TestServingConformance:
    def test_fused_predict_matches_oracle(self, dtype, problem):
        basis, x, coefficients = problem
        reference = oracle_predict(basis, coefficients, x)
        actual = basis.fused_predict(x, coefficients)
        assert actual.dtype == dtype
        assert_conforms(actual, reference, tolerance("serving"), "serving")


class TestNumpyBitwiseMetaTest:
    """The hot paths must reproduce the oracle's exact bits.

    These are the anchors of the tolerance table: if the hot paths drifted
    from the oracle, every bound would silently be measured against a
    moved reference.
    """

    def test_design_assembly_is_bitwise(self, problem):
        basis, x, _ = problem
        actual = basis.design_matrix(x)
        assert np.array_equal(actual, oracle_design_matrix(basis, x))

    def test_deterministic_gram_is_bitwise(self, problem):
        basis, x, _ = problem
        design = oracle_design_matrix(basis, x)
        rng = np.random.default_rng(9)
        scale_sq = np.abs(rng.standard_normal(basis.size)) + 0.1
        actual = gram_kernel(design, scale_sq, deterministic=True)
        assert np.array_equal(actual, oracle_gram_kernel(design, scale_sq))

    @pytest.mark.parametrize("seed", SOLVE_SEEDS[:3])
    def test_deterministic_solve_is_bitwise(self, seed):
        _, design, target, prior, eta, missing_scale = random_config(seed)
        solver = KernelMapSolver(
            design, target, prior, missing_scale, deterministic=True
        )
        actual = solver.solve(eta)
        reference = oracle_map_solve(design, target, prior, eta, missing_scale)
        assert np.array_equal(actual, reference)
