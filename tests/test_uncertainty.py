"""Unit tests for the posterior-uncertainty utilities."""

import numpy as np
import pytest
import scipy.linalg

from repro.bmf import (
    coefficient_posterior_variance,
    map_estimate,
    nonzero_mean_prior,
    predictive_variance,
    zero_mean_prior,
)
from repro.bmf.priors import GaussianCoefficientPrior


@pytest.fixture
def setting(rng):
    num_samples, num_terms = 15, 40
    design = rng.standard_normal((num_samples, num_terms))
    early = rng.uniform(0.5, 2.0, num_terms) * rng.choice([-1, 1], num_terms)
    return design, early


class TestCoefficientVariance:
    def test_matches_dense_posterior(self, setting):
        """Eq. (28): Sigma = sigma0^2 (eta diag(s^-2) + G^T G)^{-1}."""
        design, early = setting
        prior = zero_mean_prior(early)
        eta, noise = 1.5, 1.5  # zero-mean: eta = sigma0^2
        variances = coefficient_posterior_variance(design, prior, eta, noise)
        dense = noise * np.linalg.inv(
            eta * np.diag(early**-2.0) + design.T @ design
        )
        assert np.allclose(variances, np.diag(dense), atol=1e-10)

    def test_bounded_by_prior_variance(self, setting):
        """Observing data can only shrink the coefficient uncertainty."""
        design, early = setting
        prior = nonzero_mean_prior(early)
        eta = 2.0
        noise = 2.0
        variances = coefficient_posterior_variance(design, prior, eta, noise)
        prior_variances = (noise / eta) * early**2
        assert np.all(variances <= prior_variances + 1e-12)

    def test_pinned_coefficients_have_zero_variance(self, setting):
        design, early = setting
        early = early.copy()
        early[5] = 0.0
        prior = zero_mean_prior(early)
        variances = coefficient_posterior_variance(design, prior, 1.0)
        assert variances[5] == 0.0
        assert np.all(variances[np.arange(40) != 5] > 0)

    def test_all_pinned(self, setting):
        design, _early = setting
        prior = GaussianCoefficientPrior(np.ones(40), np.zeros(40))
        assert np.allclose(
            coefficient_posterior_variance(design, prior, 1.0), 0.0
        )

    def test_validation(self, setting):
        design, early = setting
        with pytest.raises(ValueError, match="eta"):
            coefficient_posterior_variance(design, zero_mean_prior(early), 0.0)
        with pytest.raises(ValueError, match="columns"):
            coefficient_posterior_variance(
                design[:, :5], zero_mean_prior(early), 1.0
            )


class TestPredictiveVariance:
    def test_matches_dense_quadratic_form(self, setting, rng):
        design, early = setting
        prior = nonzero_mean_prior(early)
        eta, noise = 0.7, 1.4
        eval_design = rng.standard_normal((6, 40))
        variances = predictive_variance(design, eval_design, prior, eta, noise)
        dense_cov = noise * np.linalg.inv(
            eta * np.diag(early**-2.0) + design.T @ design
        )
        expected = np.einsum("em,mn,en->e", eval_design, dense_cov, eval_design)
        assert np.allclose(variances, expected, atol=1e-9)

    def test_shrinks_near_training_data(self, setting):
        """Variance at a training point is far below the prior variance."""
        design, early = setting
        prior = nonzero_mean_prior(early)
        eta, noise = 0.5, 0.5
        at_train = predictive_variance(design, design[:1], prior, eta, noise)
        far_away = predictive_variance(
            design, 10.0 * np.ones((1, 40)), prior, eta, noise
        )
        assert at_train[0] < 0.2 * far_away[0]

    def test_include_noise_adds_sigma0_sq(self, setting, rng):
        design, early = setting
        prior = zero_mean_prior(early)
        point = rng.standard_normal((1, 40))
        clean = predictive_variance(design, point, prior, 1.0, 2.0)
        noisy = predictive_variance(
            design, point, prior, 1.0, 2.0, include_noise=True
        )
        assert noisy[0] == pytest.approx(clean[0] + 2.0)

    def test_consistency_with_map_shift(self, setting, rng):
        """Adding one observation near a point reduces variance there."""
        design, early = setting
        prior = nonzero_mean_prior(early)
        point = rng.standard_normal((1, 40))
        before = predictive_variance(design, point, prior, 1.0)
        augmented = np.vstack([design, point])
        after = predictive_variance(augmented, point, prior, 1.0)
        assert after[0] < before[0]

    def test_singular_dual_system_takes_eigen_fallback(self, rng):
        """K > M with a vanishing eta: Cholesky of the K x K dual system
        fails and every evaluation point's right-hand side is solved by the
        clipped eigen fallback, matching the well-posed primal form."""
        num_samples, num_terms, num_eval = 40, 10, 5
        design = rng.standard_normal((num_samples, num_terms))
        early = rng.uniform(0.5, 2.0, num_terms)
        prior = zero_mean_prior(early)
        eta = 1e-14
        kernel = (design * early**2) @ design.T
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(kernel + eta * np.eye(num_samples), lower=True)
        eval_design = rng.standard_normal((num_eval, num_terms))
        variances = predictive_variance(design, eval_design, prior, eta)
        dense_cov = eta * np.linalg.inv(
            eta * np.diag(early**-2.0) + design.T @ design
        )
        expected = np.einsum("em,mn,en->e", eval_design, dense_cov, eval_design)
        prior_var = np.einsum("em,m,em->e", eval_design, early**2, eval_design)
        assert variances.shape == (num_eval,)
        np.testing.assert_allclose(variances, expected, atol=1e-9 * prior_var.max())
