"""Sherman-Morrison-Woodbury low-rank solver (Section IV-C of the paper).

The MAP estimation of BMF requires solving

    (A + c * G^T G) x = b

where ``A = diag(a)`` is an M x M diagonal matrix of inverse prior
variances, ``G`` is the K x M design matrix (K << M for the paper's
late-stage data), and ``c > 0`` is a scalar (``sigma_0^{-2}`` for the
zero-mean prior, ``1`` for the nonzero-mean prior after scaling by eta).
A direct Cholesky solve costs ``O(K M^2 + M^3)``; when K < M the Woodbury
identity

    (A + c G^T G)^{-1} = A^{-1}
        - c A^{-1} G^T (I_K + c G A^{-1} G^T)^{-1} G A^{-1}

reduces this to a single K x K solve plus matrix-vector products, i.e.
``O(K^2 M + K^3)`` -- the paper's eqs. (53)-(58) -- while remaining *exact*.
Once the samples outnumber the basis functions (an early-stage fit on
thousands of schematic samples, or a pruned active set) the M x M system
is the smaller one, and the dual also loses digits: ``A^{-1} b`` and the
correction it subtracts both grow like ``1 / a`` and cancel.
:func:`solve_diag_plus_gram` and :func:`posterior_variance_diagonal`
therefore factor the K x K capacitance when K < M and the M x M system
itself when K >= M, at ``O(min(K, M)^2 max(K, M))`` either way.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from ..faults import failpoint
from .numerics import is_effectively_zero
from .solvers import SolverError, solve_spd

#: Fires before each Cholesky factorization / border update; armed plans
#: here model the conditioning failures the streaming refit must survive.
_FP_CHOLESKY = failpoint("solver.cholesky")

__all__ = [
    "solve_diag_plus_gram",
    "solve_diag_plus_gram_direct",
    "posterior_variance_diagonal",
    "gram_kernel",
    "extend_gram_kernel",
    "CholeskyFactor",
]


def _validate(diag: np.ndarray, design: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    diag = np.asarray(diag, dtype=float)
    design = np.asarray(design, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {design.shape}")
    num_terms = design.shape[1]
    if diag.shape != (num_terms,):
        raise ValueError(
            f"diag must have shape ({num_terms},) to match design, got {diag.shape}"
        )
    if rhs.shape != (num_terms,):
        raise ValueError(
            f"rhs must have shape ({num_terms},) to match design, got {rhs.shape}"
        )
    if np.any(diag <= 0):
        raise ValueError("all diagonal entries must be strictly positive")
    return diag, design, rhs


def _primal_is_smaller(design: np.ndarray) -> bool:
    """True when the M x M primal system is no larger than the K x K dual
    (K >= M): factoring it directly is then cheaper and skips the dual's
    cancellation."""
    num_samples, num_terms = design.shape
    return num_samples >= num_terms


def _primal_system(diag: np.ndarray, design: np.ndarray, scale: float) -> np.ndarray:
    """The M x M SPD matrix ``diag(diag) + scale * design.T @ design``."""
    system = design.T @ design
    system *= scale
    system[np.diag_indices_from(system)] += diag
    return system


def solve_diag_plus_gram(
    diag: np.ndarray,
    design: np.ndarray,
    rhs: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Solve ``(diag(diag) + scale * design.T @ design) x = rhs`` exactly.

    Parameters
    ----------
    diag:
        Positive diagonal entries ``a`` of shape ``(M,)`` (inverse prior
        variances in the BMF MAP system).
    design:
        Design matrix ``G`` of shape ``(K, M)``.
    rhs:
        Right-hand side of shape ``(M,)``.
    scale:
        Positive scalar ``c`` multiplying the Gram matrix.

    Returns
    -------
    numpy.ndarray
        The exact solution ``x`` of shape ``(M,)``.

    Notes
    -----
    Cost is ``O(min(K, M)^2 max(K, M))``: the only dense factorization is
    of the smaller SPD system -- the K x K capacitance matrix
    ``I + c G A^{-1} G^T`` (Woodbury) when K < M, the M x M system itself
    (Cholesky, as in :func:`solve_diag_plus_gram_direct`) when K >= M.
    """
    diag, design, rhs = _validate(diag, design, rhs)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if _primal_is_smaller(design):
        return solve_spd(_primal_system(diag, design, scale), rhs)
    inv_diag = 1.0 / diag
    base = inv_diag * rhs
    scaled_design = design * inv_diag  # G A^{-1}, shape (K, M)
    num_samples = design.shape[0]
    capacitance = np.eye(num_samples) + scale * (scaled_design @ design.T)
    correction = solve_spd(capacitance, design @ base)
    return base - scale * inv_diag * (design.T @ correction)


def solve_diag_plus_gram_direct(
    diag: np.ndarray,
    design: np.ndarray,
    rhs: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Reference ``O(M^3)`` direct solve of the same system (Cholesky).

    This is the paper's "conventional solver" used in the Fig. 5 / Fig. 8
    fitting-cost comparison; it exists so the Woodbury path can be validated
    bit-for-bit (well, to floating-point accuracy) against it.
    """
    diag, design, rhs = _validate(diag, design, rhs)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return solve_spd(_primal_system(diag, design, scale), rhs)


def posterior_variance_diagonal(
    diag: np.ndarray,
    design: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Diagonal of ``(diag(diag) + scale * design.T @ design)^{-1}``.

    Gives the marginal posterior variances of the BMF coefficients --
    useful for reporting per-coefficient uncertainty on top of the MAP
    point estimate.  Like :func:`solve_diag_plus_gram` it factors the
    smaller system: when K < M it never forms the M x M posterior
    covariance; when K >= M it inverts the M x M system directly.
    """
    diag = np.asarray(diag, dtype=float)
    design = np.asarray(design, dtype=float)
    if np.any(diag <= 0):
        raise ValueError("all diagonal entries must be strictly positive")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if _primal_is_smaller(design):
        system = _primal_system(diag, design, scale)
        return np.diagonal(solve_spd(system, np.eye(system.shape[0]))).copy()
    inv_diag = 1.0 / diag
    scaled_design = design * inv_diag  # G A^{-1}
    num_samples = design.shape[0]
    capacitance = np.eye(num_samples) + scale * (scaled_design @ design.T)
    # Sigma = A^{-1} - c (G A^{-1})^T C^{-1} (G A^{-1})
    solved = solve_spd(capacitance, scaled_design)
    reduction = scale * np.einsum("km,km->m", scaled_design, solved)
    return inv_diag - reduction


# ----------------------------------------------------------------------
# Incremental (streaming) kernel machinery
# ----------------------------------------------------------------------
#
# The dual-form solver of Section IV-C only ever factors the K x K kernel
# B = G diag(s^2) G^T.  When late-stage samples arrive in batches (the
# streaming workflow of repro.bmf.SequentialBmf), recomputing B from scratch
# costs O(K^2 M) per batch even though only Delta-K rows are new.  The
# helpers below maintain B -- and, for a fixed hyper-parameter, its Cholesky
# factor -- incrementally: a rank-k *border* update costs O(K * Delta-K * M)
# for the kernel and O(K^2 * Delta-K) for the factorization.


def _gram_product(left: np.ndarray, right: np.ndarray, deterministic: bool) -> np.ndarray:
    """``left @ right.T`` with an optional bitwise-deterministic reduction.

    BLAS matrix products choose different accumulation orders for different
    operand shapes, so the same kernel entry computed during a 1-row border
    update and during a 400-row rebuild can differ in the last bits.  The
    ``deterministic`` path uses an unoptimized ``einsum`` contraction, whose
    per-element reduction over the contracted axis is independent of the
    operand extents -- every entry of ``B`` is then bitwise identical no
    matter how the rows arrived (one at a time, in batches, or all at once).
    """
    if deterministic:
        return np.einsum("im,jm->ij", left, right, optimize=False)
    return left @ right.T


def _mirror_lower(block: np.ndarray) -> np.ndarray:
    """Make a square block exactly symmetric from its lower triangle.

    Entry ``(i, j)`` of a weighted Gram block is ``sum((g_i * s^2) * g_j)``
    while ``(j, i)`` is ``sum((g_j * s^2) * g_i)`` -- equal analytically but
    not bitwise (float multiplication is commutative, the *triple* product
    association differs).  Canonicalizing on the lower triangle makes every
    kernel entry's computation independent of whether its row pair arrived
    in the same batch (corner block) or different batches (cross block).
    """
    lower = np.tril(block)
    return lower + np.tril(block, -1).T


def gram_kernel(
    design: np.ndarray,
    scale_sq: Optional[np.ndarray] = None,
    deterministic: bool = False,
) -> np.ndarray:
    """The K x K kernel ``B = G diag(scale_sq) G^T`` (eq. 36's dual matrix).

    Parameters
    ----------
    design:
        Design matrix ``G`` of shape ``(K, M)``.
    scale_sq:
        Per-column weights ``s^2`` of shape ``(M,)``; ``None`` means all
        ones (the plain Gram matrix ``G G^T``).
    deterministic:
        Use a blocking-independent reduction so the result is bitwise
        reproducible across incremental and from-scratch builds (slower:
        no BLAS).  See :func:`extend_gram_kernel`.
    """
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {design.shape}")
    scaled = design if scale_sq is None else design * scale_sq
    kernel = _gram_product(scaled, design, deterministic)
    if deterministic:
        kernel = _mirror_lower(kernel)
    return kernel


def extend_gram_kernel(
    kernel: np.ndarray,
    old_design: np.ndarray,
    new_design: np.ndarray,
    scale_sq: Optional[np.ndarray] = None,
    deterministic: bool = False,
) -> np.ndarray:
    """Rank-k border update of a cached kernel ``B = G diag(s^2) G^T``.

    Given the kernel of the first ``K`` design rows and ``Delta-K`` new rows,
    returns the ``(K + Delta-K)`` kernel of the stacked design, computing only
    the new cross and corner blocks:

        B' = [[ B,        G S G_new^T    ],
              [ G_new S G^T, G_new S G_new^T ]]

    Cost is ``O((K + Delta-K) * Delta-K * M)`` versus ``O((K + Delta-K)^2 M)``
    for a from-scratch rebuild -- this is what makes streaming refits in
    :class:`repro.bmf.SequentialBmf` cheap.  The result is exact (no
    approximation); with ``deterministic=True`` it is additionally *bitwise*
    identical to :func:`gram_kernel` on the stacked design.
    """
    kernel = np.asarray(kernel, dtype=float)
    old_design = np.asarray(old_design, dtype=float)
    new_design = np.asarray(new_design, dtype=float)
    if new_design.ndim != 2:
        raise ValueError(f"new_design must be 2-D, got shape {new_design.shape}")
    num_old = old_design.shape[0]
    if kernel.shape != (num_old, num_old):
        raise ValueError(
            f"kernel shape {kernel.shape} does not match {num_old} cached rows"
        )
    if new_design.shape[1] != old_design.shape[1]:
        raise ValueError(
            f"new rows have {new_design.shape[1]} columns, expected "
            f"{old_design.shape[1]}"
        )
    num_new = new_design.shape[0]
    scaled_new = new_design if scale_sq is None else new_design * scale_sq
    cross = _gram_product(scaled_new, old_design, deterministic)  # (dK, K)
    corner = _gram_product(scaled_new, new_design, deterministic)  # (dK, dK)
    if deterministic:
        corner = _mirror_lower(corner)
    total = num_old + num_new
    out = np.empty((total, total), dtype=float)
    out[:num_old, :num_old] = kernel
    out[num_old:, :num_old] = cross
    out[:num_old, num_old:] = cross.T
    out[num_old:, num_old:] = corner
    return out


class CholeskyFactor:
    """Updatable Cholesky factorization of a growing SPD matrix.

    Maintains the lower-triangular factor ``L`` with ``A = L L^T`` and
    supports appending a border (rank-k update):

        A' = [[A, cross], [cross^T, corner]]

    via one triangular solve (``O(K^2 * Delta-K)``) plus a small dense
    factorization of the Schur complement (``O(Delta-K^3)``) -- no work
    proportional to the existing ``K^2`` entries is redone.  This is the
    factorization half of the streaming Woodbury refit: for a *fixed*
    hyper-parameter the dual system ``(eta I + B)`` grows by exactly such a
    border per batch of late-stage samples.

    Conditioning is checked on every append: the Schur-complement diagonal
    must stay strictly positive and not be round-off noise relative to the
    corner's own scale (an :func:`repro.linalg.is_effectively_zero`-style
    test).  A degenerate border raises :class:`~repro.linalg.SolverError`,
    which callers treat as the signal to fall back to a fresh full
    factorization.
    """

    #: Relative tolerance of the Schur-diagonal conditioning check; a pivot
    #: below ``rtol * scale`` means the new row is numerically dependent on
    #: the existing ones and the factor update would amplify round-off.
    schur_rtol = 1e-10

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        try:
            _FP_CHOLESKY.hit()
            self._lower = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"matrix is not positive definite: {exc}") from exc

    @classmethod
    def from_lower(cls, lower: np.ndarray) -> "CholeskyFactor":
        """Rehydrate a factor from a previously exported ``lower`` triangle.

        This is the warm-restart entry point: a crash-safe store persists
        ``factor.lower`` alongside a published model, and recovery re-arms
        the sequential fitter with the *exact* factor it crashed with -- no
        re-factorization, so the first post-restart refit border-updates the
        restored ``L`` bitwise-identically to an uncrashed process.  The
        strictly-upper triangle of ``lower`` is discarded (canonical zeros);
        the lower part is preserved bit for bit.

        Raises :class:`~repro.linalg.SolverError` for a non-positive
        diagonal -- a factor that could not have come from an SPD matrix.
        """
        lower = np.asarray(lower, dtype=float)
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
            raise ValueError(
                f"expected a square lower factor, got shape {lower.shape}"
            )
        diagonal = np.diagonal(lower)
        if lower.size and (
            not np.all(np.isfinite(lower)) or np.any(diagonal <= 0)
        ):
            raise SolverError(
                "lower factor has a non-finite entry or non-positive "
                "diagonal; not a valid Cholesky factor"
            )
        factor = object.__new__(cls)
        factor._lower = np.tril(lower)
        return factor

    @property
    def size(self) -> int:
        """Current dimension ``K`` of the factored matrix."""
        return self._lower.shape[0]

    @property
    def lower(self) -> np.ndarray:
        """Read-only view of the lower-triangular factor ``L``."""
        view = self._lower.view()
        view.flags.writeable = False
        return view

    def append(self, cross: np.ndarray, corner: np.ndarray) -> "CholeskyFactor":
        """Extend the factor to the bordered matrix ``[[A, cross], [cross^T, corner]]``.

        Parameters
        ----------
        cross:
            Off-diagonal border block of shape ``(K, Delta-K)`` (a 1-D array
            of shape ``(K,)`` is promoted to one column).
        corner:
            New symmetric diagonal block of shape ``(Delta-K, Delta-K)`` (a
            scalar is promoted to a 1 x 1 block).

        Raises
        ------
        SolverError
            If the bordered matrix is numerically indefinite or the new
            pivots are degenerate (conditioning fallback signal).
        """
        cross = np.asarray(cross, dtype=float)
        corner = np.asarray(corner, dtype=float)
        if cross.ndim == 1:
            cross = cross[:, np.newaxis]
        if corner.ndim == 0:
            corner = corner.reshape(1, 1)
        size = self.size
        num_new = corner.shape[0]
        if cross.shape != (size, num_new):
            raise ValueError(
                f"cross must have shape ({size}, {num_new}), got {cross.shape}"
            )
        if corner.shape != (num_new, num_new):
            raise ValueError(
                f"corner must be square of size {num_new}, got {corner.shape}"
            )
        _FP_CHOLESKY.hit()
        # W = L^{-1} cross, then Schur complement S = corner - W^T W.
        wide = scipy.linalg.solve_triangular(
            self._lower, cross, lower=True, check_finite=False
        )
        schur = corner - wide.T @ wide
        pivot_scale = max(
            float(np.max(np.abs(corner), initial=0.0)),
            float(np.max(self._lower[np.diag_indices(size)], initial=0.0)) ** 2,
        )
        diag = np.diagonal(schur)
        for pivot in diag:
            if pivot <= 0 or is_effectively_zero(
                pivot, scale=pivot_scale, rtol=self.schur_rtol
            ):
                raise SolverError(
                    "degenerate Schur pivot in Cholesky border update: new "
                    "rows are numerically dependent on the factored ones"
                )
        try:
            schur_lower = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"bordered matrix is not positive definite: {exc}"
            ) from exc
        total = size + num_new
        grown = np.zeros((total, total), dtype=float)
        grown[:size, :size] = self._lower
        grown[size:, :size] = wide.T
        grown[size:, size:] = schur_lower
        self._lower = grown
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` using the cached factor (``O(K^2)``)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError(
                f"rhs length {rhs.shape[0]} does not match factor size {self.size}"
            )
        forward = scipy.linalg.solve_triangular(
            self._lower, rhs, lower=True, check_finite=False
        )
        return scipy.linalg.solve_triangular(
            self._lower.T, forward, lower=False, check_finite=False
        )
