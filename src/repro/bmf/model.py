"""Top-level BMF estimator (Algorithm 1 of the paper).

:class:`BmfRegressor` glues together the pieces: prior construction from
early-stage coefficients (Section III-A), optional missing-prior handling
(Section IV-B), hyper-parameter / prior selection by cross-validation
(Section IV-D), and MAP estimation with the fast solver (Sections III-B,
IV-C).  The three method variants benchmarked in Section V map to:

* BMF-ZM:  ``BmfRegressor(basis, alpha_early, prior_kind="zero-mean")``
* BMF-NZM: ``BmfRegressor(basis, alpha_early, prior_kind="nonzero-mean")``
* BMF-PS:  ``BmfRegressor(basis, alpha_early, prior_kind="select")``
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..regression.base import BasisRegressor, FittedModel
from .cross_validation import (
    CrossValidationReport,
    default_eta_grid,
    select_prior_and_eta_from_solvers,
)
from .map_estimation import KernelMapSolver, map_estimate
from .priors import (
    GaussianCoefficientPrior,
    nonzero_mean_prior,
    zero_mean_prior,
)

__all__ = ["BmfRegressor", "fuse"]

_PRIOR_KINDS = ("zero-mean", "nonzero-mean", "select")


class BmfRegressor(BasisRegressor):
    """Bayesian model fusion of early-stage and late-stage data.

    Parameters
    ----------
    basis:
        The late-stage orthonormal basis (eq. 11).
    alpha_early:
        Early-stage coefficients aligned with ``basis`` (eq. 10).  When the
        late stage uses a different basis, map the coefficients first with
        :func:`repro.bmf.prior_mapping.map_prior_coefficients` and/or extend
        them with missing entries via ``missing_indices``.
    prior_kind:
        ``"zero-mean"``, ``"nonzero-mean"``, or ``"select"`` (BMF-PS: pick
        the better of the two by cross-validation).
    missing_indices:
        Basis-function positions for which the early stage carries no
        information (Section IV-B); they receive an uninformative prior.
    eta:
        Fix the hyper-parameter instead of cross-validating it.  Only valid
        with a concrete ``prior_kind`` (not ``"select"``).
    eta_grid:
        Candidate hyper-parameter values; defaults to a data-scaled
        geometric grid (see :func:`repro.bmf.cross_validation.default_eta_grid`).
    selection:
        ``"cv"`` (the paper's N-fold cross-validation, default) or
        ``"evidence"`` (type-II maximum likelihood -- see
        :mod:`repro.bmf.evidence`).
    n_folds:
        Cross-validation folds (``N`` of Section IV-D).
    solver:
        ``"fast"`` (Woodbury/kernel) or ``"direct"`` (Cholesky) MAP solver.
    missing_scale:
        Finite stand-in prior scale for missing-knowledge coefficients.

    Attributes
    ----------
    chosen_prior_:
        The prior actually used for the final MAP solve.
    chosen_eta_:
        The hyper-parameter actually used.
    cv_report_:
        Full cross-validation error surfaces (None when ``eta`` was fixed).
    """

    def __init__(
        self,
        basis,
        alpha_early: Optional[np.ndarray] = None,
        prior_kind: str = "select",
        priors: Optional[Sequence[GaussianCoefficientPrior]] = None,
        missing_indices: Optional[Iterable[int]] = None,
        eta: Optional[float] = None,
        eta_grid: Optional[Sequence[float]] = None,
        selection: str = "cv",
        n_folds: int = 5,
        solver: str = "fast",
        missing_scale: Optional[float] = None,
    ):
        super().__init__(basis)
        if prior_kind not in _PRIOR_KINDS:
            raise ValueError(
                f"prior_kind must be one of {_PRIOR_KINDS}, got {prior_kind!r}"
            )
        if selection not in ("cv", "evidence"):
            raise ValueError(
                f"selection must be 'cv' or 'evidence', got {selection!r}"
            )
        if (alpha_early is None) == (priors is None):
            raise ValueError(
                "provide exactly one of alpha_early (to build the paper's "
                "priors) or an explicit priors sequence"
            )
        if eta is not None and prior_kind == "select":
            raise ValueError(
                "a fixed eta cannot be combined with prior_kind='select'; "
                "prior selection requires cross-validation"
            )
        if eta is not None and eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.prior_kind = prior_kind
        self.eta = eta
        self.eta_grid = None if eta_grid is None else list(eta_grid)
        self.selection = selection
        self.n_folds = n_folds
        self.solver = solver
        self.missing_scale = missing_scale
        self._candidate_priors = self._build_priors(
            alpha_early, priors, missing_indices
        )
        self.chosen_prior_: Optional[GaussianCoefficientPrior] = None
        self.chosen_eta_: Optional[float] = None
        self.cv_report_: Optional[CrossValidationReport] = None
        self.evidence_report_ = None

    def _build_priors(
        self,
        alpha_early: Optional[np.ndarray],
        priors: Optional[Sequence[GaussianCoefficientPrior]],
        missing_indices: Optional[Iterable[int]],
    ) -> List[GaussianCoefficientPrior]:
        if priors is not None:
            candidates = list(priors)
            if not candidates:
                raise ValueError("priors sequence must not be empty")
        else:
            alpha_early = np.asarray(alpha_early, dtype=float)
            if alpha_early.shape != (self.basis.size,):
                raise ValueError(
                    f"alpha_early must have shape ({self.basis.size},) to "
                    f"match the basis, got {alpha_early.shape}"
                )
            if self.prior_kind == "zero-mean":
                candidates = [zero_mean_prior(alpha_early)]
            elif self.prior_kind == "nonzero-mean":
                candidates = [nonzero_mean_prior(alpha_early)]
            else:
                candidates = [
                    zero_mean_prior(alpha_early),
                    nonzero_mean_prior(alpha_early),
                ]
        for prior in candidates:
            if prior.size != self.basis.size:
                raise ValueError(
                    f"prior {prior.name!r} covers {prior.size} coefficients "
                    f"but the basis has {self.basis.size}"
                )
        if missing_indices is not None:
            missing = list(missing_indices)
            candidates = [prior.with_missing(missing) for prior in candidates]
        return candidates

    # ------------------------------------------------------------------
    def _fit_design(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        target = np.asarray(target, dtype=float)
        self.cv_report_ = None
        self.evidence_report_ = None
        if self.eta is None:
            solvers = KernelMapSolver.for_priors(
                design, target, self._candidate_priors, self.missing_scale
            )
            winner = self._select(solvers)
            if self.solver == "fast":
                return winner.solve(self.chosen_eta_)
        else:
            self.chosen_prior_ = self._candidate_priors[0]
            self.chosen_eta_ = float(self.eta)
        return map_estimate(
            design,
            target,
            self.chosen_prior_,
            self.chosen_eta_,
            solver=self.solver,
            missing_scale=self.missing_scale,
        )

    def _select(self, solvers: Sequence[KernelMapSolver]) -> KernelMapSolver:
        """Select (prior, eta) over one solver per candidate prior, record
        the choice and its report (both reports start as None), and return
        the chosen prior's solver."""
        grids: Optional[Dict[str, Sequence[float]]] = None
        if self.eta_grid is not None:
            grids = {p.name: self.eta_grid for p in self._candidate_priors}
        if self.selection == "evidence":
            from .evidence import _select_from_solvers

            report = self.evidence_report_ = _select_from_solvers(solvers, grids)
        else:
            n_folds = min(self.n_folds, max(2, solvers[0].target.shape[0] // 2))
            report = self.cv_report_ = select_prior_and_eta_from_solvers(
                solvers, grids, n_folds
            )
        self.chosen_prior_ = report.prior
        self.chosen_eta_ = report.eta
        return next(s for s in solvers if s.prior is report.prior)

    def fit(self, x: np.ndarray, f: np.ndarray) -> "BmfRegressor":
        """Fit from raw samples, keeping the design matrix for uncertainty.

        Assembles the design matrix once and reuses it for both the fit and
        :meth:`predict_std` (the base-class ``fit`` would discard it,
        forcing a second assembly).
        """
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (K, R), got shape {x.shape}")
        if f.shape != (x.shape[0],):
            raise ValueError(
                f"f must have shape ({x.shape[0]},) to match x, got {f.shape}"
            )
        design = self.basis.design_matrix(x)
        self.fit_design(design, f)
        self._train_design = design
        return self

    def predict_std(self, x: np.ndarray) -> np.ndarray:
        """Posterior predictive standard deviation at new samples.

        Quantifies how much the fused model is still uncertain about its
        own prediction (eq. 28/31's covariance, never formed explicitly --
        see :mod:`repro.bmf.uncertainty`).  Requires the model to have been
        fitted through :meth:`fit` (not ``fit_design``), and interprets the
        chosen ``eta`` as the noise variance, which is exact for the
        zero-mean prior and a ``lambda^2`` rescaling for the nonzero-mean
        one.
        """
        from .uncertainty import predictive_variance

        if self.chosen_prior_ is None or self.chosen_eta_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        train_design = getattr(self, "_train_design", None)
        if train_design is None:
            raise RuntimeError(
                "predict_std needs the training design matrix; fit the "
                "model with fit() rather than fit_design()"
            )
        eval_design = self.basis.design_matrix(np.asarray(x, dtype=float))
        variance = predictive_variance(
            train_design,
            eval_design,
            self.chosen_prior_,
            self.chosen_eta_,
            missing_scale=self.missing_scale,
        )
        return np.sqrt(variance)

    # ------------------------------------------------------------------
    def default_grid(self, num_samples: int) -> np.ndarray:
        """The eta grid that would be used for ``num_samples`` samples."""
        return default_eta_grid(self._candidate_priors[0], num_samples)


def fuse(
    x_late: np.ndarray,
    f_late: np.ndarray,
    basis,
    alpha_early: np.ndarray,
    **kwargs,
) -> FittedModel:
    """One-call BMF: fit a late-stage model from samples + early coefficients.

    Equivalent to ``BmfRegressor(basis, alpha_early, **kwargs).fit(x, f)``
    followed by :meth:`~repro.regression.base.BasisRegressor.fitted_model`;
    the quickstart example uses this entry point.
    """
    regressor = BmfRegressor(basis, alpha_early, **kwargs)
    regressor.fit(x_late, f_late)
    return regressor.fitted_model()
