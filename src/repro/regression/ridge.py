"""Ridge (L2-regularized) regression.

Not described in the paper explicitly, but it is the natural "prior-free"
midpoint between least squares and BMF: BMF with a *flat* magnitude profile
(all prior variances equal) degenerates to ridge.  Having it as a baseline
lets tests and ablations isolate how much of BMF's win comes from the
early-stage information rather than from regularization alone.
"""

from __future__ import annotations

import numpy as np

from ..linalg import solve_diag_plus_gram
from .base import BasisRegressor

__all__ = ["RidgeRegressor"]


class RidgeRegressor(BasisRegressor):
    """Minimize ``||G a - f||^2 + penalty * ||a||^2``.

    Solves through :func:`repro.linalg.solve_diag_plus_gram`, which
    factors the smaller of the K x K Woodbury dual and the M x M primal
    system, so it stays cheap both in the ``M >> K`` regime and on
    thousands of early-stage samples (``K >> M``).  The constant basis
    term (intercept) is effectively unpenalized: the target is centered
    before the shrinkage fit and its mean restored into the constant
    coefficient afterwards -- essential for circuit metrics whose nominal
    value dwarfs the variation (e.g. a 6 GHz frequency with 4% spread).
    """

    def __init__(self, basis, penalty: float = 1.0):
        if penalty <= 0:
            raise ValueError(f"penalty must be positive, got {penalty}")
        super().__init__(basis)
        self.penalty = float(penalty)

    def _fit_design(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        target = np.asarray(target, dtype=float)
        constant = constant_column(self.basis)
        offset = float(target.mean()) if constant is not None else 0.0
        num_terms = design.shape[1]
        diag = np.full(num_terms, self.penalty)
        rhs = design.T @ (target - offset)
        coefficients = solve_diag_plus_gram(diag, design, rhs, scale=1.0)
        if constant is not None:
            coefficients[constant] += offset
        return coefficients


def constant_column(basis) -> "int | None":
    """Position of the constant basis function, or None if absent."""
    for m, index in enumerate(basis.indices):
        if not index:
            return m
    return None
