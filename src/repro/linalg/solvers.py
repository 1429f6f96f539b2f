"""Dense symmetric-positive-definite solve helpers.

Thin wrappers over :mod:`scipy.linalg` with the error handling and
conventions used throughout the package (float64, explicit shapes).  The
"conventional solver" of the paper (Cholesky decomposition, ref. [30]) lives
here so that the fast low-rank solver of Section IV-C has an exact reference
implementation to be compared against.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["solve_spd", "solve_eigh", "solve_least_squares", "SolverError"]


class SolverError(RuntimeError):
    """Raised when a linear system cannot be solved reliably."""


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive definite ``matrix``.

    Uses a Cholesky factorization (the paper's "conventional solver").
    Falls back to an eigenvalue-clipped pseudo-solve (:func:`solve_eigh`)
    if the matrix is numerically indefinite, which can happen when prior
    variances span many orders of magnitude.  ``rhs`` may be a vector or
    an ``(n, k)`` matrix of right-hand sides.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if rhs.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"rhs length {rhs.shape[0]} does not match matrix size {matrix.shape[0]}"
        )
    try:
        chol = scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(chol, rhs, check_finite=False)
    except scipy.linalg.LinAlgError:
        return solve_eigh(*np.linalg.eigh(matrix), rhs)


def solve_eigh(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Regularized solve from a symmetric eigendecomposition ``V diag(w) V^T``.

    Eigenvalues below ``1e-12 * max(w.max(), 1)`` -- tiny or negative ones
    of a numerically indefinite matrix -- are clipped up to that floor.
    ``rhs`` may be a vector or an ``(n, k)`` matrix of right-hand sides.
    Shifting ``eigenvalues`` by ``eta`` solves ``(A + eta I) x = rhs`` from
    one decomposition of ``A``.
    """
    floor = max(float(eigenvalues.max()), 1.0) * 1e-12
    clipped = np.maximum(eigenvalues, floor)
    projected = eigenvectors.T @ rhs
    return eigenvectors @ (projected.T / clipped).T


def solve_least_squares(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``design @ x ~= target``.

    This is the traditional fitting method of Section II-B (eq. 6); for an
    overdetermined system it returns the least-squares solution, and for an
    underdetermined one the minimum-norm solution (which is exactly why
    plain least squares fails in the paper's high-dimensional regime).
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    solution, _residuals, _rank, _sv = np.linalg.lstsq(design, target, rcond=None)
    return solution
