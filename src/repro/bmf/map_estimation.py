"""Maximum-a-posteriori estimation of late-stage coefficients (Section III-B).

Both priors of the paper lead to the same unified MAP linear system.  With
prior ``alpha ~ N(mu, t^2 diag(s)^2)`` and likelihood noise ``sigma_0``, the
posterior mean (eqs. 30 / 35) solves

    (eta * diag(s^{-2}) + G^T G) alpha = eta * diag(s^{-2}) mu + G^T f

with a single scalar hyper-parameter

    eta = sigma_0^2           (zero-mean prior,    mu = 0,      s = |alpha_E|)
    eta = sigma_0^2/lambda^2  (nonzero-mean prior, mu = alpha_E, s = |alpha_E|)

Two solver paths are provided:

* ``"direct"``: assemble and Cholesky-solve the M x M system -- the paper's
  conventional solver used as the Fig. 5 / Fig. 8 baseline;
* ``"fast"``: the dual (kernel) form of the Woodbury identity (Section IV-C),
  which only ever factors a K x K matrix:

      c = (eta I + G diag(s^2) G^T)^{-1} (f - G mu)
      alpha = mu + diag(s^2) G^T c

  exact, no approximation, ``O(K^2 M)`` instead of ``O(M^3)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..faults import failpoint
from ..linalg import (
    extend_gram_kernel,
    gram_kernel,
    solve_diag_plus_gram_direct,
    solve_spd,
)
from .priors import GaussianCoefficientPrior

__all__ = ["map_estimate", "KernelMapSolver"]

#: Fires before each dual-system solve (the K x K kernel solve at the
#: heart of every MAP fit and cross-validation fold); armed plans here
#: model a solver failure mid-refit.
_FP_MAP_SOLVE = failpoint("solver.map")


def map_estimate(
    design: np.ndarray,
    target: np.ndarray,
    prior: GaussianCoefficientPrior,
    eta: float,
    solver: str = "fast",
    missing_scale: Optional[float] = None,
) -> np.ndarray:
    """Solve the MAP system for the late-stage coefficients.

    Parameters
    ----------
    design:
        Late-stage design matrix ``G`` of shape ``(K, M)`` (eq. 9).
    target:
        Late-stage simulated performance values ``f_L`` of shape ``(K,)``.
    prior:
        Per-coefficient Gaussian prior (Section III-A / IV-B).
    eta:
        Positive prior-strength hyper-parameter (see module docstring).
    solver:
        ``"fast"`` (Woodbury/kernel, default) or ``"direct"`` (Cholesky on
        the M x M system).
    missing_scale:
        Finite stand-in scale for coefficients with missing prior knowledge;
        defaults to ``1e3`` x the largest finite prior scale.  Resolved to a
        concrete value once, up front, so every internal sub-solve (and both
        solver paths) substitutes the *same* scale.

    Returns
    -------
    numpy.ndarray
        MAP coefficients ``alpha_L`` of shape ``(M,)``.
    """
    if solver not in ("fast", "direct"):
        raise ValueError(f"solver must be 'fast' or 'direct', got {solver!r}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {design.shape}")
    num_samples, num_terms = design.shape
    if target.shape != (num_samples,):
        raise ValueError(
            f"target must have shape ({num_samples},), got {target.shape}"
        )
    if prior.size != num_terms:
        raise ValueError(
            f"prior covers {prior.size} coefficients but design has {num_terms}"
        )

    # Resolve the missing-scale default against the FULL prior before any
    # recursion: the pinned-coefficient sub-solve below sees a prior with a
    # different set of finite scales, so letting it re-derive the default
    # would substitute a different value than the fast path uses.
    missing_scale = prior.resolve_missing_scale(missing_scale)
    scale = prior.effective_scale(missing_scale)
    pinned = scale == 0.0  # repro: noqa[REP003] -- exact pinned-prior sentinel
    if np.all(pinned):
        return prior.mean.copy()

    if solver == "direct":
        if np.any(pinned):
            # Pinned coefficients contribute a fixed offset; solve the rest.
            free = ~pinned
            offset = design[:, pinned] @ prior.mean[pinned]
            sub_prior = GaussianCoefficientPrior(
                prior.mean[free], scale[free], prior.name
            )
            sub = map_estimate(
                design[:, free],
                target - offset,
                sub_prior,
                eta,
                solver,
                missing_scale,
            )
            out = prior.mean.copy()
            out[free] = sub
            return out
        inv_var = eta / scale**2
        rhs = inv_var * prior.mean + design.T @ target
        return solve_diag_plus_gram_direct(inv_var, design, rhs, scale=1.0)

    # The kernel (dual) form handles pinned coefficients natively: a zero
    # prior scale drops the column from the kernel and the MAP solution
    # returns the prior mean for it exactly.
    return KernelMapSolver(design, target, prior, missing_scale).solve(eta)


class KernelMapSolver:
    """Dual-form MAP solver with precomputed kernel matrix.

    Precomputes ``B = G diag(s^2) G^T`` (the ``O(K^2 M)`` part) once, after
    which every call to :meth:`solve` for a new ``eta`` -- and every
    prediction on held-out rows via :meth:`predict_submatrix` -- costs only
    an ``O(K^3)`` factorization of a kernel submatrix.  This is what makes
    the cross-validation sweep over hyper-parameter grids (Section IV-D)
    affordable: fold kernels are submatrices of the full-sample kernel.
    """

    def __init__(
        self,
        design: np.ndarray,
        target: np.ndarray,
        prior: GaussianCoefficientPrior,
        missing_scale: Optional[float] = None,
        deterministic: bool = False,
    ):
        design = np.asarray(design, dtype=float)
        target = np.asarray(target, dtype=float)
        missing_scale = prior.resolve_missing_scale(missing_scale)
        scale = prior.effective_scale(missing_scale)
        self.design = design
        self.target = target
        self.prior = prior
        self.deterministic = bool(deterministic)
        self._scale_sq = scale**2
        # B = G diag(s^2) G^T, shape (K, K).  In deterministic mode the
        # contraction is blocking-independent, so a solver grown through
        # :meth:`extended` is bitwise identical to one built from scratch
        # on the stacked design (see repro.linalg.gram_kernel).
        self.kernel = gram_kernel(design, self._scale_sq, self.deterministic)
        self.prior_prediction = self._prior_prediction(design)  # G mu
        self.centered_target = target - self.prior_prediction

    def _prior_prediction(self, design: np.ndarray) -> np.ndarray:
        if self.deterministic:
            return np.einsum("km,m->k", design, self.prior.mean, optimize=False)
        return design @ self.prior.mean

    def extended(
        self,
        new_design: np.ndarray,
        new_target: np.ndarray,
        full_design: Optional[np.ndarray] = None,
        full_target: Optional[np.ndarray] = None,
    ) -> "KernelMapSolver":
        """New solver with ``Delta-K`` appended rows, reusing the cached kernel.

        This is the streaming-refit entry point (Section IV-C used
        incrementally): only the new kernel border is computed, costing
        ``O(K * Delta-K * M)`` instead of the ``O(K^2 M)`` from-scratch
        rebuild.  The returned solver is exact -- and, when the solver was
        built with ``deterministic=True``, bitwise identical to a fresh
        :class:`KernelMapSolver` on the stacked data.

        Parameters
        ----------
        new_design, new_target:
            The appended design rows ``(Delta-K, M)`` and targets.
        full_design, full_target:
            Optional pre-stacked arrays equal to ``[old; new]``.  Callers
            that already maintain an accumulation buffer (e.g.
            :class:`repro.bmf.SequentialBmf`) pass views here so the grown
            solver shares their storage instead of re-concatenating.
        """
        new_design = np.asarray(new_design, dtype=float)
        new_target = np.asarray(new_target, dtype=float)
        if new_design.ndim != 2 or new_design.shape[1] != self.design.shape[1]:
            raise ValueError(
                f"new_design must have shape (dK, {self.design.shape[1]}), "
                f"got {new_design.shape}"
            )
        if new_target.shape != (new_design.shape[0],):
            raise ValueError(
                f"new_target must have shape ({new_design.shape[0]},), "
                f"got {new_target.shape}"
            )
        total = self.design.shape[0] + new_design.shape[0]
        grown = object.__new__(KernelMapSolver)
        grown.prior = self.prior
        grown.deterministic = self.deterministic
        grown._scale_sq = self._scale_sq
        grown.kernel = extend_gram_kernel(
            self.kernel,
            self.design,
            new_design,
            self._scale_sq,
            self.deterministic,
        )
        if full_design is None:
            grown.design = np.concatenate([self.design, new_design], axis=0)
        else:
            full_design = np.asarray(full_design, dtype=float)
            if full_design.shape != (total, self.design.shape[1]):
                raise ValueError(
                    f"full_design must have shape "
                    f"({total}, {self.design.shape[1]}), got {full_design.shape}"
                )
            grown.design = full_design
        if full_target is None:
            grown.target = np.concatenate([self.target, new_target])
        else:
            full_target = np.asarray(full_target, dtype=float)
            if full_target.shape != (total,):
                raise ValueError(
                    f"full_target must have shape ({total},), "
                    f"got {full_target.shape}"
                )
            grown.target = full_target
        new_prior_prediction = grown._prior_prediction(new_design)
        grown.prior_prediction = np.concatenate(
            [self.prior_prediction, new_prior_prediction]
        )
        grown.centered_target = np.concatenate(
            [self.centered_target, new_target - new_prior_prediction]
        )
        return grown

    def dual_weights(self, eta: float, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve ``(eta I + B[rows, rows]) c = (f - G mu)[rows]``."""
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        _FP_MAP_SOLVE.hit()
        if rows is None:
            kernel = self.kernel
            residual = self.centered_target
        else:
            kernel = self.kernel[np.ix_(rows, rows)]
            residual = self.centered_target[rows]
        system = kernel.copy()
        system[np.diag_indices_from(system)] += eta
        return solve_spd(system, residual)

    def solve(self, eta: float) -> np.ndarray:
        """Full MAP coefficient vector for the given ``eta``."""
        weights = self.dual_weights(eta)
        return self.prior.mean + self._scale_sq * (self.design.T @ weights)

    def predict_submatrix(
        self, train_rows: np.ndarray, eval_rows: np.ndarray, eta: float
    ) -> np.ndarray:
        """Predict at ``eval_rows`` from a model trained on ``train_rows``.

        Uses only kernel submatrices, never forming coefficients, but
        gathers and factors the ``len(train_rows)``-square system on every
        call: ``O(K^3)``.  Cross-validation
        (:mod:`repro.bmf.cross_validation`) does the same arithmetic with
        each fold system factored once for every prior sharing the kernel;
        this method stays as its per-(prior, fold, eta) test oracle.
        """
        weights = self.dual_weights(eta, train_rows)
        cross = self.kernel[np.ix_(eval_rows, train_rows)]
        return self.prior_prediction[eval_rows] + cross @ weights
