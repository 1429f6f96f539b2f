"""One K x K kernel per distinct prior scale per BMF fit.

BMF-PS's zero-mean and nonzero-mean priors share the scale ``|alpha_E|``
and so the dual kernel ``B = G diag(s^2) G^T`` (Sections III-A, IV-C).
``KernelMapSolver.for_priors`` builds it once for both, the CV sweep and
the MAP solve reuse it, and ``SequentialBmf`` grows it once per refit.
These tests count the kernel builds, pin the sharing, and check that the
reused solve is bitwise the conventional ``map_estimate``.
"""

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.bmf import (
    BmfRegressor,
    GaussianCoefficientPrior,
    KernelMapSolver,
    SequentialBmf,
    map_estimate,
    nonzero_mean_prior,
    select_prior_and_eta,
    zero_mean_prior,
)
from repro.bmf import map_estimation
from repro.bmf.evidence import log_evidence, select_prior_and_eta_by_evidence


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of ``gram_kernel`` / ``extend_gram_kernel`` calls made by the
    BMF solvers."""
    calls = {"gram_kernel": 0, "extend_gram_kernel": 0}
    for name in calls:
        original = getattr(map_estimation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(map_estimation, name, counted)
    return calls


def _problem(rng, num_vars, num_samples):
    """Linear-basis data whose last two variables have no early prior."""
    basis = OrthonormalBasis.linear(num_vars)
    truth = rng.normal(0, 1, basis.size)
    early = truth * (1 + 0.1 * rng.standard_normal(basis.size))
    x = rng.standard_normal((num_samples, num_vars))
    f = basis.evaluate(truth, x) + 0.01 * rng.standard_normal(num_samples)
    missing = [basis.size - 2, basis.size - 1]
    return basis, early, missing, x, f


@pytest.fixture
def small_k(rng):
    """K = 40 samples, M = 61 terms."""
    return _problem(rng, 60, 40)


@pytest.fixture
def large_k(rng):
    """K = 40 samples, M = 11 terms: the kernel is rank deficient."""
    return _problem(rng, 10, 40)


class TestKernelBuildCounts:
    def test_bmf_ps_with_missing_indices_builds_one_kernel(self, small_k, kernel_calls):
        basis, early, missing, x, f = small_k
        BmfRegressor(basis, early, missing_indices=missing).fit(x, f)
        assert kernel_calls == {"gram_kernel": 1, "extend_gram_kernel": 0}

    def test_evidence_selection_builds_one_kernel(self, small_k, kernel_calls):
        basis, early, _missing, x, f = small_k
        BmfRegressor(basis, early, selection="evidence").fit(x, f)
        assert kernel_calls["gram_kernel"] == 1

    def test_single_prior_fit_builds_one_kernel(self, small_k, kernel_calls):
        basis, early, _missing, x, f = small_k
        BmfRegressor(basis, early, prior_kind="zero-mean").fit(x, f)
        assert kernel_calls["gram_kernel"] == 1

    def test_select_prior_and_eta_shares_one_scale(self, small_k, kernel_calls):
        basis, early, _missing, x, f = small_k
        design = basis.design_matrix(x)
        priors = [zero_mean_prior(early), nonzero_mean_prior(early)]
        select_prior_and_eta(design, f, priors)
        assert kernel_calls["gram_kernel"] == 1

    def test_select_prior_and_eta_builds_one_kernel_per_scale(
        self, small_k, kernel_calls
    ):
        basis, early, _missing, x, f = small_k
        design = basis.design_matrix(x)
        priors = [zero_mean_prior(early), nonzero_mean_prior(3.0 * early)]
        select_prior_and_eta(design, f, priors)
        assert kernel_calls["gram_kernel"] == 2

    def test_sequential_builds_once_then_extends_once_per_batch(
        self, small_k, kernel_calls
    ):
        basis, early, missing, x, f = small_k
        sequential = SequentialBmf(basis, early, missing_indices=missing)
        sequential.add_samples(x[:20], f[:20])
        assert kernel_calls == {"gram_kernel": 1, "extend_gram_kernel": 0}
        for start in (20, 30):
            sequential.add_samples(x[start : start + 10], f[start : start + 10])
            assert sequential.last_refit_mode == "incremental"
        assert kernel_calls == {"gram_kernel": 1, "extend_gram_kernel": 2}


class TestSharedKernel:
    def test_for_priors_shares_equal_scales_only(self, small_k):
        basis, early, _missing, x, f = small_k
        design = basis.design_matrix(x)
        priors = [
            zero_mean_prior(early),
            nonzero_mean_prior(early),
            nonzero_mean_prior(3.0 * early),
        ]
        solvers = KernelMapSolver.for_priors(design, f, priors)
        assert [s.prior for s in solvers] == priors
        assert solvers[0].kernel is solvers[1].kernel
        assert solvers[2].kernel is not solvers[0].kernel
        for solver, prior in zip(solvers, priors):
            alone = KernelMapSolver(design, f, prior)
            assert np.array_equal(solver.kernel, alone.kernel)
            assert np.array_equal(solver.centered_target, alone.centered_target)

    def test_kernel_is_read_only(self, small_k):
        basis, early, _missing, x, f = small_k
        design = basis.design_matrix(x)
        solver = KernelMapSolver.for_priors(design, f, [zero_mean_prior(early)])[0]
        grown = solver.extended(design[:3], f[:3])
        for kernel in (solver.kernel, grown.kernel):
            with pytest.raises(ValueError):
                kernel[0, 0] = 1.0

    def test_incremental_refit_keeps_one_kernel(self, small_k):
        basis, early, missing, x, f = small_k
        sequential = SequentialBmf(basis, early, missing_indices=missing)
        sequential.add_samples(x[:30], f[:30])
        sequential.add_samples(x[30:], f[30:])
        assert sequential.last_refit_mode == "incremental"
        solvers = sequential._solvers
        assert solvers[0].kernel is solvers[1].kernel
        assert solvers[0].kernel.shape == (40, 40)

    def test_conditioning_fallback_rebuild_keeps_one_kernel(self):
        rng = np.random.default_rng(99)
        basis = OrthonormalBasis.total_degree(2, 1)  # terms: 1, x1, x2
        scale = np.array([0.0, 1.0, 1.0])  # the constant term is pinned
        priors = [
            GaussianCoefficientPrior(np.array([1.0, 0.0, 0.0]), scale, "a"),
            GaussianCoefficientPrior(np.array([1.0, 0.5, -0.3]), scale, "b"),
        ]
        sequential = SequentialBmf(basis, priors=priors)
        x = rng.normal(size=(8, 2))
        f = 1.0 + x @ np.array([0.5, -0.3]) + 0.01 * rng.normal(size=8)
        sequential.add_samples(x, f)
        # A sample at the origin has a zero kernel diagonal entry.
        sequential.add_samples(np.zeros((1, 2)), np.array([1.0]))
        assert sequential.last_refit_mode == "fallback"
        solvers = sequential._solvers
        assert solvers[0].kernel is solvers[1].kernel
        assert solvers[0].kernel.shape == (9, 9)


class TestWinnerSolveIsMapEstimate:
    """A fit's coefficients come from the selected prior's solver; they
    must be bitwise what a fresh ``map_estimate`` returns."""

    @pytest.mark.parametrize("size", ["small_k", "large_k"])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prior_kind": "select"},
            {"prior_kind": "zero-mean"},
            {"prior_kind": "select", "selection": "evidence"},
        ],
        ids=["select", "zero-mean", "evidence"],
    )
    def test_coefficients_bitwise_equal(self, request, size, kwargs):
        basis, early, missing, x, f = request.getfixturevalue(size)
        regressor = BmfRegressor(basis, early, missing_indices=missing, **kwargs)
        regressor.fit(x, f)
        design = basis.design_matrix(x)
        expected = map_estimate(
            design, f, regressor.chosen_prior_, regressor.chosen_eta_
        )
        assert np.array_equal(regressor.coefficients_, expected)


class TestEvidenceDecomposesEachKernelOnce:
    """Evidence selection eigendecomposes each distinct kernel once; the
    two BMF-PS priors share one kernel, so one ``eigh`` serves both."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counted(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_bmf_ps_evidence_fit_runs_one_eigh(self, small_k, eigh_calls):
        basis, early, _missing, x, f = small_k
        BmfRegressor(basis, early, selection="evidence").fit(x, f)
        assert eigh_calls == [(len(x), len(x))]

    def test_priors_of_two_scales_run_two(self, small_k, eigh_calls):
        basis, early, _missing, x, f = small_k
        design = basis.design_matrix(x)
        priors = [zero_mean_prior(early), nonzero_mean_prior(3.0 * early)]
        select_prior_and_eta_by_evidence(design, f, priors)
        assert len(eigh_calls) == 2

    def test_curves_equal_log_evidence_per_solver(self, small_k):
        basis, early, _missing, x, f = small_k
        design = basis.design_matrix(x)
        priors = [zero_mean_prior(early), nonzero_mean_prior(early)]
        report = select_prior_and_eta_by_evidence(design, f, priors)
        for solver in KernelMapSolver.for_priors(design, f, priors):
            name = solver.prior.name
            grid = report.per_prior_grids[name]
            assert np.array_equal(
                report.per_prior_log_evidence[name], log_evidence(solver, grid)
            )
