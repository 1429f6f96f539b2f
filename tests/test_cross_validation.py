"""Unit tests for hyper-parameter / prior selection (Section IV-D)."""

import numpy as np
import pytest
import scipy.linalg

from repro.basis import OrthonormalBasis
from repro.bmf import (
    BmfRegressor,
    GaussianCoefficientPrior,
    KernelMapSolver,
    cross_validate_eta,
    default_eta_grid,
    nonzero_mean_prior,
    select_prior_and_eta,
    select_prior_and_eta_from_solvers,
    zero_mean_prior,
)
from repro.runtime.metrics import counters_delta, metrics

SWEEP_COUNTERS = (
    "bmf.cv_evaluations",
    "bmf.cv_factorizations",
    "bmf.cv_eigendecompositions",
)


@pytest.fixture
def fusion_data(rng):
    """Late data whose early prior is excellent -> NZM should win."""
    num_samples, num_terms = 60, 150
    design = rng.standard_normal((num_samples, num_terms))
    truth = rng.standard_normal(num_terms) * (rng.random(num_terms) < 0.3)
    truth[0] = 5.0
    target = design @ truth + 0.02 * rng.standard_normal(num_samples)
    early_good = truth * (1 + 0.05 * rng.standard_normal(num_terms))
    return design, target, truth, early_good


class TestDefaultGrid:
    def test_grid_is_positive_and_geometric(self):
        prior = zero_mean_prior(np.array([1.0, 2.0, 0.5]))
        grid = default_eta_grid(prior, num_samples=100)
        assert np.all(grid > 0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_grid_scales_with_sample_count(self):
        prior = zero_mean_prior(np.ones(4))
        small = default_eta_grid(prior, num_samples=10)
        large = default_eta_grid(prior, num_samples=1000)
        assert np.allclose(large / small, 100.0)

    def test_grid_centered_on_median_scale(self):
        prior = zero_mean_prior(np.array([10.0, 10.0, 10.0]))
        grid = default_eta_grid(prior, num_samples=1)
        reference = 100.0  # K * median(s^2) = 1 * 100
        assert grid.min() < reference < grid.max()

    def test_all_missing_prior_still_works(self):
        from repro.bmf import uninformative_prior

        grid = default_eta_grid(uninformative_prior(5), num_samples=50)
        assert np.all(np.isfinite(grid)) and np.all(grid > 0)


class TestCrossValidateEta:
    def test_returns_one_error_per_eta(self, fusion_data):
        design, target, _truth, early = fusion_data
        solver = KernelMapSolver(design, target, nonzero_mean_prior(early))
        errors = cross_validate_eta(solver, [0.1, 1.0, 10.0], n_folds=4)
        assert errors.shape == (3,)
        assert np.all(errors > 0)

    def test_extreme_etas_are_worse(self, fusion_data):
        """The CV error curve is U-ish: both extremes lose to the middle."""
        design, target, _truth, early = fusion_data
        prior = nonzero_mean_prior(early)
        solver = KernelMapSolver(design, target, prior)
        grid = default_eta_grid(prior, design.shape[0])
        errors = cross_validate_eta(solver, grid, n_folds=5)
        best = errors.min()
        assert errors[0] > best
        assert errors[-1] > best

    def test_invalid_eta_rejected(self, fusion_data):
        design, target, _truth, early = fusion_data
        solver = KernelMapSolver(design, target, zero_mean_prior(early))
        with pytest.raises(ValueError, match="positive"):
            cross_validate_eta(solver, [1.0, -1.0], n_folds=3)

    def test_invalid_folds_rejected(self, fusion_data):
        design, target, _truth, early = fusion_data
        solver = KernelMapSolver(design, target, zero_mean_prior(early))
        with pytest.raises(ValueError, match="n_folds"):
            cross_validate_eta(solver, [1.0], n_folds=1)


class TestSelectPriorAndEta:
    def test_good_prior_selects_nonzero_mean(self, fusion_data):
        """Accurate early info -> the sign-carrying NZM prior should win."""
        design, target, _truth, early = fusion_data
        report = select_prior_and_eta(
            design,
            target,
            [zero_mean_prior(early), nonzero_mean_prior(early)],
        )
        assert report.prior.name == "nonzero-mean"
        assert np.isfinite(report.error)

    def test_sign_scrambled_prior_selects_zero_mean(self, fusion_data, rng):
        """Sign-scrambled early coefficients: magnitudes fine, means wrong.

        This is exactly the situation the paper says favors the zero-mean
        prior (it only encodes magnitudes).
        """
        design, target, _truth, early = fusion_data
        scrambled = np.abs(early) * rng.choice([-1.0, 1.0], early.shape)
        report = select_prior_and_eta(
            design,
            target,
            [zero_mean_prior(scrambled), nonzero_mean_prior(scrambled)],
        )
        assert report.prior.name == "zero-mean"

    def test_report_contains_all_curves(self, fusion_data):
        design, target, _truth, early = fusion_data
        report = select_prior_and_eta(
            design,
            target,
            [zero_mean_prior(early), nonzero_mean_prior(early)],
        )
        assert set(report.per_prior_errors) == {"zero-mean", "nonzero-mean"}
        assert set(report.per_prior_grids) == {"zero-mean", "nonzero-mean"}
        for name, errors in report.per_prior_errors.items():
            assert errors.shape == report.per_prior_grids[name].shape

    def test_explicit_grids_respected(self, fusion_data):
        design, target, _truth, early = fusion_data
        grid = [0.5, 5.0]
        report = select_prior_and_eta(
            design,
            target,
            [zero_mean_prior(early)],
            eta_grids={"zero-mean": grid},
        )
        assert report.eta in grid

    def test_empty_priors_rejected(self, fusion_data):
        design, target, _truth, _early = fusion_data
        with pytest.raises(ValueError, match="at least one"):
            select_prior_and_eta(design, target, [])


def _folds(num_samples, n_folds):
    fold_ids = np.arange(num_samples) % n_folds
    for fold in range(n_folds):
        yield np.flatnonzero(fold_ids != fold), np.flatnonzero(fold_ids == fold)


def _oracle_curve(solver, etas, n_folds):
    """Eq. (59) per (fold, eta), one :meth:`predict_submatrix` each: the
    per-prior sweep the grouped one must reproduce."""
    errors = np.zeros(len(etas))
    for train_rows, val_rows in _folds(solver.target.shape[0], n_folds):
        actual = solver.target[val_rows]
        scale = float(np.linalg.norm(actual)) or 1.0
        for i, eta in enumerate(etas):
            predicted = solver.predict_submatrix(train_rows, val_rows, eta)
            errors[i] += float(np.linalg.norm(predicted - actual)) / scale
    return errors / n_folds


def _cholesky_fails(solver, eta, train_rows):
    system = solver.kernel[np.ix_(train_rows, train_rows)]
    try:
        scipy.linalg.cho_factor(system + eta * np.eye(len(train_rows)), lower=True)
    except scipy.linalg.LinAlgError:
        return True
    return False


def _sweep(solvers, eta_grids=None, n_folds=5, fallback_rtol=None):
    """Run the grouped selection, check it against the oracle, and return
    the report with the sweep's counter deltas."""
    before = metrics.counters()
    report = select_prior_and_eta_from_solvers(solvers, eta_grids, n_folds)
    delta = counters_delta(before, metrics.counters())
    best = (np.inf, None, None)
    for solver in solvers:
        name = solver.prior.name
        grid = report.per_prior_grids[name]
        expected = _oracle_curve(solver, grid, n_folds)
        errors = report.per_prior_errors[name]
        fallback = np.array(
            [
                any(
                    _cholesky_fails(solver, eta, train_rows)
                    for train_rows, _ in _folds(solver.target.shape[0], n_folds)
                )
                for eta in grid
            ]
        )
        np.testing.assert_allclose(errors[~fallback], expected[~fallback], rtol=1e-9)
        if fallback.any():
            assert fallback_rtol is not None, "unexpected eigen fallback"
            np.testing.assert_allclose(
                errors[fallback], expected[fallback], rtol=fallback_rtol
            )
        index = int(np.argmin(expected))
        if expected[index] < best[0]:
            best = (expected[index], name, float(grid[index]))
    assert (report.prior.name, report.eta) == best[1:]
    return report, {name: delta.get(name, 0) for name in SWEEP_COUNTERS}


class TestGroupedSweep:
    """The grouped sweep against the per-(prior, fold, eta) oracle, with
    exact counts of the fold systems it factors."""

    def test_shared_kernel_pair_factors_once_for_both(self, fusion_data):
        design, target, _truth, early = fusion_data
        solvers = [
            KernelMapSolver(design, target, prior)
            for prior in (zero_mean_prior(early), nonzero_mean_prior(early))
        ]
        # Built separately, so the kernels are equal by value, not identity.
        assert solvers[0].kernel is not solvers[1].kernel
        _report, counts = _sweep(solvers)
        assert counts["bmf.cv_factorizations"] == 5 * 13
        assert counts["bmf.cv_evaluations"] == 2 * counts["bmf.cv_factorizations"]
        assert counts["bmf.cv_eigendecompositions"] == 0

    def test_different_scales_are_swept_apart(self, fusion_data):
        design, target, _truth, early = fusion_data
        solvers = [
            KernelMapSolver(design, target, zero_mean_prior(early)),
            KernelMapSolver(design, target, nonzero_mean_prior(3.0 * early)),
        ]
        _report, counts = _sweep(solvers)
        assert counts["bmf.cv_factorizations"] == 2 * 5 * 13
        assert counts["bmf.cv_evaluations"] == counts["bmf.cv_factorizations"]

    def test_per_prior_grids(self, fusion_data):
        design, target, _truth, early = fusion_data
        solvers = [
            KernelMapSolver(design, target, prior)
            for prior in (zero_mean_prior(early), nonzero_mean_prior(early))
        ]
        grids = {"zero-mean": [0.1, 1.0, 10.0], "nonzero-mean": [0.5, 5.0, 50.0, 500.0]}
        report, counts = _sweep(solvers, grids, n_folds=4)
        for name, grid in grids.items():
            np.testing.assert_array_equal(report.per_prior_grids[name], grid)
        assert counts["bmf.cv_factorizations"] == 4 * (3 + 4)
        assert counts["bmf.cv_evaluations"] == counts["bmf.cv_factorizations"]
        shared = {name: [0.1, 1.0, 10.0] for name in grids}
        _report, counts = _sweep(solvers, shared, n_folds=4)
        assert counts["bmf.cv_factorizations"] == 4 * 3

    def test_missing_and_pinned_entries(self, fusion_data):
        design, target, _truth, early = fusion_data
        scale = np.abs(early) + 0.1
        scale[[3, 7]] = np.inf  # missing prior knowledge
        scale[[5, 11]] = 0.0  # pinned to the prior mean
        mean = early.copy()
        priors = [
            GaussianCoefficientPrior(np.zeros_like(mean), scale, "zero-mean"),
            GaussianCoefficientPrior(mean, scale, "nonzero-mean"),
        ]
        solvers = [KernelMapSolver(design, target, prior) for prior in priors]
        _report, counts = _sweep(solvers)
        assert counts["bmf.cv_evaluations"] == 2 * counts["bmf.cv_factorizations"]

    def test_more_samples_than_terms_takes_eigen_path(self, rng):
        """K > M leaves the kernel rank deficient: small etas fail Cholesky
        and each fold eigendecomposes its kernel at most once.  There both
        the sweep and the oracle pseudo-solve a numerically singular system
        whose round-off the clip floor amplifies, so those entries agree
        to a looser tolerance; the rest agree to 1e-9."""
        num_samples, num_terms = 40, 10
        design = rng.standard_normal((num_samples, num_terms))
        truth = rng.standard_normal(num_terms)
        target = design @ truth + 0.3 * rng.standard_normal(num_samples)
        early = truth * (1 + 0.02 * rng.standard_normal(num_terms))
        priors = (zero_mean_prior(early), nonzero_mean_prior(early))
        solvers = [KernelMapSolver(design, target, prior) for prior in priors]
        reference = num_samples * float(np.median(early**2))
        grid = reference * np.geomspace(1e-18, 1e3, 12)
        grids = {prior.name: grid for prior in priors}
        report, counts = _sweep(solvers, grids, fallback_rtol=1e-4)
        failing_folds = sum(
            any(_cholesky_fails(solvers[0], eta, train_rows) for eta in grid)
            for train_rows, _ in _folds(num_samples, 5)
        )
        assert 1 <= failing_folds <= 5
        assert counts["bmf.cv_eigendecompositions"] == failing_folds
        assert counts["bmf.cv_factorizations"] == 5 * len(grid)
        # The winner is a well-posed eta, not a fallback one.
        assert not any(
            _cholesky_fails(solvers[0], report.eta, train_rows)
            for train_rows, _ in _folds(num_samples, 5)
        )

    def test_cross_validate_eta_is_the_one_solver_sweep(self, fusion_data):
        design, target, _truth, early = fusion_data
        solver = KernelMapSolver(design, target, nonzero_mean_prior(early))
        grid = default_eta_grid(solver.prior, design.shape[0])
        before = metrics.counters()
        errors = cross_validate_eta(solver, grid, n_folds=5)
        delta = counters_delta(before, metrics.counters())
        np.testing.assert_allclose(errors, _oracle_curve(solver, grid, 5), rtol=1e-9)
        assert delta["bmf.cv_factorizations"] == delta["bmf.cv_evaluations"] == 5 * 13

    def test_bmf_ps_fit_factors_each_fold_system_once(self, rng):
        """A BMF-PS fit as in the paper: both priors from one alpha_E share
        the kernel, so 5 folds x 13 etas are factored once for 130 scored
        (prior, fold, eta) models."""
        num_vars, num_samples = 60, 40
        basis = OrthonormalBasis.linear(num_vars)
        truth = rng.normal(0, 1, basis.size)
        early = truth * (1 + 0.1 * rng.standard_normal(basis.size))
        x = rng.standard_normal((num_samples, num_vars))
        f = basis.evaluate(truth, x) + 0.01 * rng.standard_normal(num_samples)
        before = metrics.counters()
        BmfRegressor(basis, early, prior_kind="select").fit(x, f)
        delta = counters_delta(before, metrics.counters())
        assert delta["bmf.cv_factorizations"] == 65
        assert delta["bmf.cv_evaluations"] == 130
