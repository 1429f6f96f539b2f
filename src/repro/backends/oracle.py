"""The bitwise-deterministic float64 oracle of the conformance suite.

Independent reference implementations of every hot-path operation,
written for auditability rather than speed: a per-column Python loop for
design-matrix assembly, blocking-stable ``einsum`` contractions (their
``deterministic=True`` mode) for the Gram kernels, and the deterministic
:class:`~repro.bmf.KernelMapSolver` for MAP solves.  Everything here runs
in float64.  The differential conformance suite
(``tests/test_backend_conformance.py``) holds each hot path at each dtype
to the :data:`repro.backends.TOLERANCES` bounds against these functions,
and pins float64 assembly and deterministic-mode kernels *bitwise* to
them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "oracle_design_matrix",
    "oracle_gram_kernel",
    "oracle_map_solve",
    "oracle_predict",
]


def oracle_design_matrix(basis, x: np.ndarray) -> np.ndarray:
    """Reference assembly of eq. (9): one explicit product per column.

    Bitwise equal to :meth:`~repro.basis.OrthonormalBasis.design_matrix`
    in float64 (both multiply factors in multi-index order; ``1.0 * v`` is
    exact).
    """
    from ..basis.hermite import hermite_orthonormal_all

    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    tables = {
        var: hermite_orthonormal_all(basis.max_degree, x[:, var])
        for var in range(basis.num_vars)
    }
    out = np.empty((x.shape[0], basis.size), dtype=np.float64)
    for column, index in enumerate(basis.indices):
        value = np.ones(x.shape[0], dtype=np.float64)
        for var, degree in index:
            value = value * tables[var][degree]
        out[:, column] = value
    return out


def oracle_gram_kernel(
    design: np.ndarray, scale_sq: Optional[np.ndarray] = None
) -> np.ndarray:
    """Deterministic ``G diag(s^2) G^T``: unblocked einsum, lower-mirrored."""
    design = np.asarray(design, dtype=np.float64)
    scaled = design if scale_sq is None else design * scale_sq
    kernel = np.einsum("im,jm->ij", scaled, design, optimize=False)
    lower = np.tril(kernel)
    return lower + np.tril(kernel, -1).T


def oracle_map_solve(
    design: np.ndarray,
    target: np.ndarray,
    prior,
    eta: float,
    missing_scale: Optional[float] = None,
) -> np.ndarray:
    """Deterministic-mode dual MAP solve (the PR-3 differential oracle)."""
    from ..bmf.map_estimation import KernelMapSolver

    solver = KernelMapSolver(
        np.asarray(design, dtype=np.float64),
        np.asarray(target, dtype=np.float64),
        prior,
        missing_scale,
        deterministic=True,
    )
    return solver.solve(eta)


def oracle_predict(basis, coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference prediction: oracle assembly + blocking-stable contraction."""
    design = oracle_design_matrix(basis, x)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    return np.einsum("km,m->k", design, coefficients, optimize=False)
