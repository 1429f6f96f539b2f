"""Unit tests for the linear-algebra kernels (SPD solves, Woodbury)."""

import numpy as np
import pytest
import scipy.linalg

from repro.basis import OrthonormalBasis
from repro.linalg import (
    posterior_variance_diagonal,
    solve_diag_plus_gram,
    solve_diag_plus_gram_direct,
    solve_eigh,
    solve_least_squares,
    solve_spd,
    woodbury,
)
from repro.regression import RidgeRegressor


def random_spd(rng, size):
    root = rng.standard_normal((size, size))
    return root @ root.T + size * np.eye(size)


def ridge_least_squares(design, target, diag):
    """Independent oracle for ``(diag(diag) + G^T G) x = G^T f``: the
    least-squares solution of the stacked ``[G; sqrt(diag) I] x = [f; 0]``."""
    num_terms = design.shape[1]
    stacked = np.vstack([design, np.diag(np.sqrt(diag))])
    padded = np.concatenate([target, np.zeros(num_terms)])
    return np.linalg.lstsq(stacked, padded, rcond=None)[0]


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


class TestSolveSpd:
    def test_matches_numpy_solve(self, rng):
        matrix = random_spd(rng, 12)
        rhs = rng.standard_normal(12)
        assert np.allclose(solve_spd(matrix, rhs), np.linalg.solve(matrix, rhs))

    def test_identity(self):
        rhs = np.arange(5.0)
        assert np.allclose(solve_spd(np.eye(5), rhs), rhs)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_spd(np.ones((3, 4)), np.ones(3))

    def test_mismatched_rhs_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            solve_spd(np.eye(3), np.ones(4))

    def test_indefinite_fallback_does_not_crash(self, rng):
        """A numerically indefinite matrix falls back to the clipped solve."""
        matrix = np.diag([1.0, 1e-30, -1e-30])
        result = solve_spd(matrix, np.array([1.0, 0.0, 0.0]))
        assert np.isfinite(result).all()
        assert result[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("width", [4, 3])
    def test_indefinite_fallback_solves_each_rhs_column(self, rng, width):
        """Square and non-square right-hand sides take the fallback column
        by column, exactly as separate vector solves would."""
        root = rng.standard_normal((4, 4))
        matrix = root + root.T
        assert np.linalg.eigvalsh(matrix).min() < 0
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(matrix, lower=True)
        rhs = rng.standard_normal((4, width))
        columns = np.column_stack(
            [solve_spd(matrix, rhs[:, j]) for j in range(width)]
        )
        np.testing.assert_allclose(solve_spd(matrix, rhs), columns, rtol=1e-10)


class TestSolveEigh:
    def test_shifted_spectrum_solves_shifted_matrix(self, rng):
        """One decomposition of A serves every (A + eta I)."""
        matrix = random_spd(rng, 6)
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        rhs = rng.standard_normal((6, 2))
        for eta in (0.0, 1e-3, 1.0, 10.0):
            np.testing.assert_allclose(
                solve_eigh(eigenvalues + eta, eigenvectors, rhs),
                np.linalg.solve(matrix + eta * np.eye(6), rhs),
                rtol=1e-10,
            )

    def test_clips_small_and_negative_eigenvalues_to_floor(self):
        eigenvalues = np.array([-1.0, 0.0, 4.0])
        result = solve_eigh(eigenvalues, np.eye(3), np.ones(3))
        np.testing.assert_allclose(result, [1e12 / 4.0, 1e12 / 4.0, 0.25])


class TestLeastSquares:
    def test_overdetermined_recovery(self, rng):
        design = rng.standard_normal((50, 5))
        truth = rng.standard_normal(5)
        solution = solve_least_squares(design, design @ truth)
        assert np.allclose(solution, truth)

    def test_underdetermined_minimum_norm(self, rng):
        design = rng.standard_normal((3, 10))
        target = rng.standard_normal(3)
        solution = solve_least_squares(design, target)
        assert np.allclose(design @ solution, target)
        # Minimum-norm solution lies in the row space.
        null_component = solution - design.T @ np.linalg.solve(
            design @ design.T, design @ solution
        )
        assert np.allclose(null_component, 0.0, atol=1e-10)


class TestWoodbury:
    @pytest.mark.parametrize("num_samples,num_terms", [(5, 20), (20, 5), (10, 10)])
    def test_matches_direct(self, rng, num_samples, num_terms):
        """K < M holds the Woodbury dual to the direct Cholesky oracle.  At
        K >= M the fast path factors the direct path's own system, so the
        reference there is a dense LU solve of that system instead."""
        design = rng.standard_normal((num_samples, num_terms))
        diag = rng.uniform(0.1, 10.0, num_terms)
        rhs = rng.standard_normal(num_terms)
        fast = solve_diag_plus_gram(diag, design, rhs, scale=2.5)
        if num_samples < num_terms:
            reference = solve_diag_plus_gram_direct(diag, design, rhs, scale=2.5)
        else:
            system = np.diag(diag) + 2.5 * design.T @ design
            reference = np.linalg.solve(system, rhs)
        assert np.allclose(fast, reference, atol=1e-10)

    def test_matches_dense_reference(self, rng):
        design = rng.standard_normal((6, 15))
        diag = rng.uniform(0.5, 5.0, 15)
        rhs = rng.standard_normal(15)
        system = np.diag(diag) + 3.0 * design.T @ design
        reference = np.linalg.solve(system, rhs)
        assert np.allclose(
            solve_diag_plus_gram(diag, design, rhs, scale=3.0), reference
        )

    def test_wide_dynamic_range_diag(self, rng):
        """Prior variances spanning many decades (BMF's regime)."""
        design = rng.standard_normal((8, 30))
        diag = 10.0 ** rng.uniform(-6, 6, 30)
        rhs = rng.standard_normal(30)
        fast = solve_diag_plus_gram(diag, design, rhs)
        direct = solve_diag_plus_gram_direct(diag, design, rhs)
        scale = np.max(np.abs(direct))
        assert np.allclose(fast, direct, atol=1e-8 * scale)

    def test_non_positive_diag_rejected(self, rng):
        design = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="positive"):
            solve_diag_plus_gram(np.zeros(6), design, np.ones(6))

    def test_non_positive_scale_rejected(self, rng):
        design = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="scale"):
            solve_diag_plus_gram(np.ones(6), design, np.ones(6), scale=0.0)

    def test_shape_validation(self, rng):
        design = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="diag"):
            solve_diag_plus_gram(np.ones(5), design, np.ones(6))
        with pytest.raises(ValueError, match="rhs"):
            solve_diag_plus_gram(np.ones(6), design, np.ones(5))


class TestSmallerSpace:
    """The solve factors the M x M primal system when K >= M and the K x K
    Woodbury capacitance only when K < M."""

    # 400 samples of 40 terms at the early-stage ridge penalty 1e-6 K: the
    # dual's A^{-1} b and its correction cancel to ~5e-10 relative error
    # here, the M x M Cholesky leaves ~3e-15.
    NUM_SAMPLES, NUM_TERMS = 400, 40

    def test_many_samples_match_stacked_least_squares(self, rng):
        design = rng.standard_normal((self.NUM_SAMPLES, self.NUM_TERMS))
        target = rng.standard_normal(self.NUM_SAMPLES)
        diag = np.full(self.NUM_TERMS, 1e-6 * self.NUM_SAMPLES)
        solved = solve_diag_plus_gram(diag, design, design.T @ target)
        reference = ridge_least_squares(design, target, diag)
        assert relative_error(solved, reference) < 1e-12

    def test_ridge_many_samples_match_stacked_least_squares(self, rng):
        basis = OrthonormalBasis.linear(self.NUM_TERMS - 1)
        x = rng.standard_normal((self.NUM_SAMPLES, self.NUM_TERMS - 1))
        design = basis.design_matrix(x)
        target = 3.0 + x @ rng.standard_normal(self.NUM_TERMS - 1)
        target += 0.1 * rng.standard_normal(self.NUM_SAMPLES)
        penalty = 1e-6 * self.NUM_SAMPLES
        fitted = RidgeRegressor(basis, penalty=penalty).fit_design(design, target)
        offset = target.mean()
        reference = ridge_least_squares(
            design, target - offset, np.full(basis.size, penalty)
        )
        reference[0] += offset  # the constant term gets the mean back
        assert relative_error(fitted, reference) < 1e-12

    @pytest.mark.parametrize("num_samples,num_terms", [(5, 20), (20, 5), (10, 10)])
    @pytest.mark.parametrize("variances", [False, True])
    def test_factors_the_smaller_system(
        self, rng, monkeypatch, num_samples, num_terms, variances
    ):
        factored = []

        def recording_solve_spd(matrix, rhs):
            factored.append(np.shape(matrix))
            return solve_spd(matrix, rhs)

        monkeypatch.setattr(woodbury, "solve_spd", recording_solve_spd)
        design = rng.standard_normal((num_samples, num_terms))
        diag = rng.uniform(0.1, 10.0, num_terms)
        if variances:
            posterior_variance_diagonal(diag, design, scale=2.0)
        else:
            solve_diag_plus_gram(diag, design, np.ones(num_terms), scale=2.0)
        size = min(num_samples, num_terms)
        assert factored == [(size, size)]


class TestPosteriorVariance:
    def test_matches_dense_inverse_diagonal(self, rng):
        # K < M takes the Woodbury dual; K >= M inverts the M x M system.
        for num_samples, num_terms in [(7, 12), (12, 7), (9, 9)]:
            design = rng.standard_normal((num_samples, num_terms))
            diag = rng.uniform(0.2, 3.0, num_terms)
            system = np.diag(diag) + 1.7 * design.T @ design
            expected = np.diag(np.linalg.inv(system))
            computed = posterior_variance_diagonal(diag, design, scale=1.7)
            assert np.allclose(computed, expected)

    def test_no_data_returns_prior_variance(self):
        diag = np.array([2.0, 4.0])
        design = np.zeros((0, 2))
        assert np.allclose(
            posterior_variance_diagonal(diag, design), 1.0 / diag
        )

    def test_variances_positive_and_shrinking(self, rng):
        """Observing data can only shrink posterior variances."""
        design = rng.standard_normal((10, 8))
        diag = rng.uniform(0.5, 2.0, 8)
        posterior = posterior_variance_diagonal(diag, design)
        assert np.all(posterior > 0)
        assert np.all(posterior <= 1.0 / diag + 1e-12)
