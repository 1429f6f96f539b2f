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

import copy
from typing import Dict, List, Optional, Sequence

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

    ``B`` depends on the prior only through its effective scale, so the
    solvers :meth:`for_priors` builds for priors of one scale share one
    ``kernel`` array and differ only in ``prior_prediction`` and
    ``centered_target``.  The array is read-only: copy it before writing.
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
        self.design = design
        self.target = np.asarray(target, dtype=float)
        self.prior = prior
        self.deterministic = bool(deterministic)
        self._scale_sq = _scale_sq(prior, missing_scale)
        # B = G diag(s^2) G^T, shape (K, K).  In deterministic mode the
        # contraction is blocking-independent, so a solver grown through
        # :meth:`extended` is bitwise identical to one built from scratch
        # on the stacked design (see repro.linalg.gram_kernel).
        self.kernel = gram_kernel(design, self._scale_sq, self.deterministic)
        self.kernel.flags.writeable = False  # shared; see the class docstring
        self.prior_prediction = self._prior_prediction(design, prior.mean)  # G mu
        self.centered_target = self.target - self.prior_prediction

    @classmethod
    def for_priors(
        cls,
        design: np.ndarray,
        target: np.ndarray,
        priors: Sequence[GaussianCoefficientPrior],
        missing_scale: Optional[float] = None,
        deterministic: bool = False,
    ) -> List["KernelMapSolver"]:
        """One solver per prior; priors of equal effective scale share one
        kernel, as BMF-PS's two priors of scale ``|alpha_E|`` do (Section
        III-A).  This is where a fit decides the sharing; the CV sweep and
        :meth:`extended` follow it."""
        solvers: List[KernelMapSolver] = []
        for prior in priors:
            scale_sq = _scale_sq(prior, missing_scale)
            twin = next(
                (s for s in solvers if np.array_equal(s._scale_sq, scale_sq)), None
            )
            if twin is None:
                solvers.append(cls(design, target, prior, missing_scale, deterministic))
            else:
                prediction = twin._prior_prediction(twin.design, prior.mean)
                solvers.append(twin._with_prior(prior, prediction))
        return solvers

    def _prior_prediction(self, design: np.ndarray, mean: np.ndarray) -> np.ndarray:
        if self.deterministic:
            return np.einsum("km,m->k", design, mean, optimize=False)
        return design @ mean

    def _with_prior(
        self, prior: GaussianCoefficientPrior, prior_prediction: np.ndarray
    ) -> "KernelMapSolver":
        """This solver's kernel, design and target under ``prior``."""
        twin = copy.copy(self)
        twin.prior = prior
        twin.prior_prediction = prior_prediction
        twin.centered_target = twin.target - prior_prediction
        return twin

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
        grown = self._extend_all(
            [self], new_design, new_target, full_design, full_target
        )
        return grown[0]

    @staticmethod
    def _extend_all(
        solvers: Sequence["KernelMapSolver"],
        new_design: np.ndarray,
        new_target: np.ndarray,
        full_design: Optional[np.ndarray] = None,
        full_target: Optional[np.ndarray] = None,
    ) -> List["KernelMapSolver"]:
        """:meth:`extended` on solvers built on the same rows (as by
        :meth:`for_priors`), bordering each distinct kernel once: solvers
        that shared a kernel share the grown one."""
        design, target = solvers[0].design, solvers[0].target
        new_design = np.asarray(new_design, dtype=float)
        new_target = np.asarray(new_target, dtype=float)
        if (
            new_design.ndim != 2
            or new_design.shape[1] != design.shape[1]
            or new_target.shape != new_design.shape[:1]
        ):
            raise ValueError(
                f"new_design / new_target must have shapes (dK, "
                f"{design.shape[1]}) / (dK,), got {new_design.shape} / "
                f"{new_target.shape}"
            )
        if full_design is None:
            full_design = np.concatenate([design, new_design], axis=0)
        if full_target is None:
            full_target = np.concatenate([target, new_target])
        full_design = np.asarray(full_design, dtype=float)
        full_target = np.asarray(full_target, dtype=float)
        total = len(target) + len(new_target)
        shapes = (full_design.shape, full_target.shape)
        if shapes != ((total, design.shape[1]), (total,)):
            raise ValueError(
                f"full_design / full_target must have shapes ({total}, "
                f"{design.shape[1]}) / ({total},), got {shapes[0]} / {shapes[1]}"
            )
        bordered: Dict[int, KernelMapSolver] = {}
        grown = []
        for solver in solvers:
            base = bordered.get(id(solver.kernel))
            if base is None:
                base = bordered[id(solver.kernel)] = copy.copy(solver)
                base.design, base.target = full_design, full_target
                base.kernel = extend_gram_kernel(
                    solver.kernel,
                    design,
                    new_design,
                    solver._scale_sq,
                    solver.deterministic,
                )
                base.kernel.flags.writeable = False
            # G mu of the new rows only: recomputing it over the stacked
            # design could move the old rows' bits.
            new_prediction = solver._prior_prediction(new_design, solver.prior.mean)
            prediction = np.concatenate([solver.prior_prediction, new_prediction])
            grown.append(base._with_prior(solver.prior, prediction))
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
        return self._coefficients(self.dual_weights(eta))

    def _coefficients(self, weights: np.ndarray) -> np.ndarray:
        """``alpha = mu + diag(s^2) G^T c`` from the dual weights ``c``."""
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


def _scale_sq(
    prior: GaussianCoefficientPrior, missing_scale: Optional[float]
) -> np.ndarray:
    """The kernel's column weights ``s^2``: the prior's effective scale squared."""
    return prior.effective_scale(prior.resolve_missing_scale(missing_scale)) ** 2

