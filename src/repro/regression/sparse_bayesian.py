"""Sparse Bayesian learning (relevance vector regression), ref. [29].

The paper borrows its Gaussian-posterior machinery from Ji/Xue/Carin's
Bayesian compressive sensing, whose underlying model is Tipping's
relevance vector machine: each coefficient gets its *own* zero-mean prior
precision ``alpha_m``, and evidence maximization drives most precisions to
infinity, pruning the corresponding basis functions.  Where BMF fixes the
per-coefficient scales from early-stage data, SBL *learns* them from the
late-stage data alone -- making it the natural "what if we had no early
stage?" Bayesian baseline.

This implementation uses the classic EM-style update (MacKay's gamma
rule):

    gamma_m   = 1 - alpha_m * Sigma_mm
    alpha_m  <- gamma_m / mu_m^2
    sigma^2  <- ||y - G mu||^2 / (K - sum gamma)

with the posterior mean/variances computed through the same
:mod:`repro.linalg.woodbury` kernels as BMF, which factor the smaller of
the K x K dual and the M x M primal system, so each iteration costs
``O(K^2 M)`` for M >> K and ``O(M_a^2 K)`` once pruning leaves an active
set of ``M_a <= K`` terms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..linalg import posterior_variance_diagonal, solve_diag_plus_gram
from .base import BasisRegressor

__all__ = ["SparseBayesianRegressor", "sparse_bayesian_fit"]


def sparse_bayesian_fit(
    design: np.ndarray,
    target: np.ndarray,
    max_iterations: int = 100,
    tolerance: float = 1e-4,
    prune_threshold: float = 1e9,
    initial_noise_fraction: float = 0.1,
) -> "tuple[np.ndarray, np.ndarray, float]":
    """Run SBL evidence maximization.

    Parameters
    ----------
    design / target:
        Training data ``(K, M)`` / ``(K,)``.  The target should be centered
        (or the basis include a constant column) as usual.
    max_iterations:
        EM iteration budget.
    tolerance:
        Convergence threshold on the max relative change of ``log alpha``.
    prune_threshold:
        Precisions above ``prune_threshold / var(target-ish scale)`` mark a
        coefficient as pruned (exactly zero in the output).
    initial_noise_fraction:
        Initial noise variance as a fraction of the target variance.

    Returns
    -------
    (coefficients, precisions, noise_variance)
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    num_samples, num_terms = design.shape

    target_scale = max(float(np.var(target)), 1e-300)
    alpha = np.full(num_terms, 1.0 / target_scale)
    # The noise floor (relative to the target scale) keeps the posterior
    # solve well-posed on noiseless data, where the EM noise estimate
    # would otherwise collapse to zero and blow up the coefficients.
    noise_floor = 1e-12 * target_scale
    noise = max(initial_noise_fraction * target_scale, noise_floor)
    alpha_cap = prune_threshold / target_scale

    mean = np.zeros(num_terms)
    for _iteration in range(max_iterations):
        active = alpha < alpha_cap
        if not np.any(active):
            mean = np.zeros(num_terms)
            break
        design_a = design[:, active]
        alpha_a = alpha[active]

        # Posterior over the active coefficients.
        rhs = design_a.T @ target / noise
        mean_a = solve_diag_plus_gram(alpha_a, design_a, rhs, scale=1.0 / noise)
        variance_a = posterior_variance_diagonal(
            alpha_a, design_a, scale=1.0 / noise
        )

        gamma = 1.0 - alpha_a * variance_a
        gamma = np.clip(gamma, 1e-12, 1.0)
        # Floor keeps precisions strictly positive even when a noiseless
        # fit drives a coefficient estimate to extreme magnitudes.
        new_alpha_a = np.maximum(
            gamma / np.maximum(mean_a**2, 1e-300), 1e-10 / target_scale
        )

        residual = target - design_a @ mean_a
        denominator = max(num_samples - float(gamma.sum()), 1e-6)
        new_noise = float(residual @ residual) / denominator
        if not np.isfinite(new_noise):
            break  # degenerate update; keep the previous iterate
        new_noise = max(new_noise, noise_floor)

        change = np.max(
            np.abs(np.log(np.minimum(new_alpha_a, alpha_cap)) - np.log(alpha_a))
        )
        alpha = alpha.copy()
        alpha[active] = new_alpha_a
        noise = new_noise
        mean = np.zeros(num_terms)
        mean[active] = mean_a
        if change < tolerance:
            break

    pruned = alpha >= alpha_cap
    mean[pruned] = 0.0
    return mean, alpha, noise


class SparseBayesianRegressor(BasisRegressor):
    """Relevance-vector regression on the orthonormal basis.

    The intercept is handled by centering (as for ridge / elastic net);
    the returned constant coefficient absorbs the target mean.
    """

    def __init__(
        self,
        basis,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        prune_threshold: float = 1e9,
    ):
        super().__init__(basis)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.prune_threshold = float(prune_threshold)
        self.precisions_: Optional[np.ndarray] = None
        self.noise_variance_: Optional[float] = None

    def _fit_design(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        from .ridge import constant_column

        target = np.asarray(target, dtype=float)
        constant = constant_column(self.basis)
        offset = float(target.mean()) if constant is not None else 0.0
        coefficients, alpha, noise = sparse_bayesian_fit(
            design,
            target - offset,
            self.max_iterations,
            self.tolerance,
            self.prune_threshold,
        )
        self.precisions_ = alpha
        self.noise_variance_ = noise
        if constant is not None:
            coefficients = coefficients.copy()
            coefficients[constant] += offset
        return coefficients

    def num_relevant(self) -> int:
        """Number of basis functions surviving the evidence pruning."""
        if self.coefficients_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return int(np.count_nonzero(self.coefficients_))
