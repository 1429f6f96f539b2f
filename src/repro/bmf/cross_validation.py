"""Hyper-parameter and prior selection by N-fold cross-validation (§IV-D).

The modeling error of a candidate (prior, eta) pair is estimated by
partitioning the late-stage samples into N non-overlapping folds, fitting on
N-1 of them and measuring the relative error (eq. 59) on the held-out fold,
then averaging over folds.  BMF-PS picks the (prior, eta) pair with minimal
cross-validation error -- this is what lets it track the better of
BMF-ZM/BMF-NZM in every experiment of Section V.

The sweep is made cheap by the dual-form solver: the fold kernels are
submatrices of one precomputed K x K kernel ``B = G diag(s^2) G^T`` (see
:class:`repro.bmf.map_estimation.KernelMapSolver`), built once in
``O(K^2 M)``.  The zero-mean and nonzero-mean priors share the scale
``|alpha_E|`` and so the kernel: ``KernelMapSolver.for_priors`` gives
them one array, and they differ only in the centered target ``f - G mu``.
For each group of candidates with one kernel and one eta grid the sweep
gathers every fold's ``B_TT`` / ``B_VT`` once and factors each fold
system ``eta I + B_TT`` once per (fold, eta), solving all the group's
centered targets as the columns of one right-hand side: ``N * len(grid)``
factorizations of ``O(K^3)`` per kernel, not per prior.  When Cholesky
fails (``K >= M`` leaves ``B`` rank deficient, so small etas are
numerically singular), that fold's ``B_TT`` is eigendecomposed once and
every failing eta of the fold reuses it with shifted eigenvalues: at most
one extra ``O(K^3)`` eigendecomposition per fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from ..faults import failpoint
from ..linalg import solve_eigh
from ..runtime.metrics import metrics as runtime_metrics
from .map_estimation import KernelMapSolver
from .priors import GaussianCoefficientPrior

__all__ = [
    "CrossValidationReport",
    "default_eta_grid",
    "cross_validate_eta",
    "select_prior_and_eta",
    "select_prior_and_eta_from_solvers",
]

#: The same failpoint as the MAP dual solve in
#: :mod:`repro.bmf.map_estimation`; here it fires once per fold-system
#: factorization.
_FP_MAP_SOLVE = failpoint("solver.map")


def default_eta_grid(
    prior: GaussianCoefficientPrior,
    num_samples: int,
    num_points: int = 13,
    decades_below: float = 5.0,
    decades_above: float = 3.0,
) -> np.ndarray:
    """Geometric eta grid centered on the natural problem scale.

    The prior term ``eta * s_m^{-2}`` competes with the Gram diagonal
    ``(G^T G)_{mm} ~= K`` (the basis is orthonormal in distribution), so the
    interesting regime is ``eta ~ K * s^2``.  The grid spans several decades
    around ``K * median(s^2)`` to cover strongly- and weakly-weighted priors.
    """
    finite = prior.scale[np.isfinite(prior.scale) & (prior.scale > 0)]
    reference_scale_sq = float(np.median(finite**2)) if finite.size else 1.0
    reference = max(num_samples, 1) * reference_scale_sq
    return np.geomspace(
        reference * 10.0**-decades_below,
        reference * 10.0**decades_above,
        num_points,
    )


@dataclass
class CrossValidationReport:
    """Outcome of a prior/eta selection run.

    Attributes
    ----------
    prior:
        The winning prior object.
    eta:
        The winning hyper-parameter value.
    error:
        Mean cross-validation relative error of the winner.
    per_prior_errors:
        For each candidate prior name, the CV error curve over its eta grid.
    per_prior_grids:
        The eta grid evaluated for each candidate prior.
    """

    prior: GaussianCoefficientPrior
    eta: float
    error: float
    per_prior_errors: Dict[str, np.ndarray] = field(default_factory=dict)
    per_prior_grids: Dict[str, np.ndarray] = field(default_factory=dict)


def _eta_grid(
    prior: GaussianCoefficientPrior,
    eta_grids: Optional[Dict[str, Sequence[float]]],
    num_samples: int,
) -> np.ndarray:
    """The caller's grid for ``prior`` if given, else :func:`default_eta_grid`."""
    if eta_grids is not None and prior.name in eta_grids:
        return np.asarray(list(eta_grids[prior.name]), dtype=float)
    return default_eta_grid(prior, num_samples)


def _fold_masks(num_samples: int, n_folds: int):
    """Deterministic interleaved fold assignment (samples are i.i.d. anyway)."""
    fold_ids = np.arange(num_samples) % n_folds
    for fold in range(n_folds):
        yield np.flatnonzero(fold_ids != fold), np.flatnonzero(fold_ids == fold)


def _kernel_groups(
    solvers: Sequence[KernelMapSolver], grids: Sequence[np.ndarray]
) -> List[List[int]]:
    """Candidate indices grouped by equal eta grid and equal kernel.
    Solvers from :meth:`KernelMapSolver.for_priors` match by identity; the
    by-value test (``O(K^2)`` against the ``O(K^3)`` per fold that sharing
    saves) serves solvers built one by one, as perfbench's ``fit_once``."""
    groups: List[List[int]] = []
    for index, solver in enumerate(solvers):
        for group in groups:
            lead = group[0]
            kernel = solvers[lead].kernel
            if np.array_equal(grids[lead], grids[index]) and (
                kernel is solver.kernel or np.array_equal(kernel, solver.kernel)
            ):
                group.append(index)
                break
        else:
            groups.append([index])
    return groups


def _sweep_group(
    solvers: Sequence[KernelMapSolver], etas: np.ndarray, n_folds: int
) -> np.ndarray:
    """CV error curves, shape ``(len(solvers), len(etas))``, of candidates
    that share one kernel: one factorization per (fold, eta) for all."""
    kernel = solvers[0].kernel
    centered = np.column_stack([solver.centered_target for solver in solvers])
    errors = np.zeros((len(solvers), len(etas)))
    eigendecompositions = 0
    for train_rows, val_rows in _fold_masks(kernel.shape[0], n_folds):
        # Fortran order lets LAPACK factor each shifted copy in place.
        gram = np.asfortranarray(kernel[np.ix_(train_rows, train_rows)])
        diagonal = np.diag_indices(len(train_rows))
        cross = kernel[np.ix_(val_rows, train_rows)]
        rhs = np.asfortranarray(centered[train_rows])
        actuals = [solver.target[val_rows] for solver in solvers]
        baselines = [solver.prior_prediction[val_rows] for solver in solvers]
        scales = [float(np.linalg.norm(actual)) or 1.0 for actual in actuals]
        spectrum = None
        for i, eta in enumerate(etas):
            _FP_MAP_SOLVE.hit()
            system = gram.copy(order="F")
            system[diagonal] += eta
            factor, info = dpotrf(system, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                weights, _ = dpotrs(factor, rhs, lower=1)
            else:
                if spectrum is None:
                    spectrum = np.linalg.eigh(gram)
                    eigendecompositions += 1
                weights = solve_eigh(spectrum[0] + eta, spectrum[1], rhs)
            for j, column in enumerate(weights.T):
                predicted = baselines[j] + cross @ column
                errors[j, i] += float(np.linalg.norm(predicted - actuals[j])) / scales[j]
    runtime_metrics.increment("bmf.cv_factorizations", n_folds * len(etas))
    if eigendecompositions:
        runtime_metrics.increment("bmf.cv_eigendecompositions", eigendecompositions)
    runtime_metrics.increment("bmf.cv_evaluations", errors.size * n_folds)
    return errors / n_folds


def _cross_validate(
    solvers: Sequence[KernelMapSolver],
    grids: Sequence[np.ndarray],
    n_folds: int,
) -> List[np.ndarray]:
    """Mean CV error curve of each solver over its own eta grid."""
    for grid in grids:
        if np.any(grid <= 0):
            raise ValueError("all eta values must be positive")
    for solver in solvers:
        num_samples = solver.target.shape[0]
        if n_folds < 2 or n_folds > num_samples:
            raise ValueError(
                f"n_folds must be in [2, {num_samples}], got {n_folds}"
            )
    curves: Dict[int, np.ndarray] = {}
    with runtime_metrics.timer("bmf.cross_validation"):
        for group in _kernel_groups(solvers, grids):
            errors = _sweep_group(
                [solvers[i] for i in group], grids[group[0]], n_folds
            )
            curves.update(zip(group, errors))
    return [curves[index] for index in range(len(solvers))]


def cross_validate_eta(
    solver: KernelMapSolver,
    etas: Sequence[float],
    n_folds: int = 5,
) -> np.ndarray:
    """Mean relative validation error for each eta in the grid.

    Parameters
    ----------
    solver:
        A :class:`KernelMapSolver` built on the *training* data.
    etas:
        Candidate hyper-parameter values (all positive).
    n_folds:
        Number of cross-validation folds (``N`` in Section IV-D).

    Returns
    -------
    numpy.ndarray
        ``errors[i]`` is the N-fold mean of eq. (59) for ``etas[i]``.
    """
    etas = np.asarray(list(etas), dtype=float)
    return _cross_validate([solver], [etas], n_folds)[0]


def select_prior_and_eta(
    design: np.ndarray,
    target: np.ndarray,
    priors: Sequence[GaussianCoefficientPrior],
    eta_grids: Optional[Dict[str, Sequence[float]]] = None,
    n_folds: int = 5,
    missing_scale: Optional[float] = None,
) -> CrossValidationReport:
    """Pick the best (prior, eta) pair by N-fold cross-validation.

    This is the full BMF-PS selection step: it evaluates every candidate
    prior with its own eta grid and returns the minimizer together with the
    full error surfaces (useful for the hyper-parameter ablation bench).
    """
    if not priors:
        raise ValueError("at least one candidate prior is required")
    solvers = KernelMapSolver.for_priors(design, target, priors, missing_scale)
    return select_prior_and_eta_from_solvers(solvers, eta_grids, n_folds)


def select_prior_and_eta_from_solvers(
    solvers: Sequence[KernelMapSolver],
    eta_grids: Optional[Dict[str, Sequence[float]]] = None,
    n_folds: int = 5,
) -> CrossValidationReport:
    """Prior/eta selection over *prebuilt* kernel solvers.

    Identical selection semantics to :func:`select_prior_and_eta` (same
    candidate order, same default grids, same fold layout), but the caller
    supplies the :class:`~repro.bmf.map_estimation.KernelMapSolver` per
    candidate prior (from :meth:`KernelMapSolver.for_priors`, so priors of
    one scale share a kernel).  This is the streaming entry point: a
    sequential fit keeps its solvers and *extends* them with each new batch
    (``O(K * Delta-K * M)``), so re-running the full selection does not pay
    the ``O(K^2 M)`` kernel rebuild.
    """
    if not solvers:
        raise ValueError("at least one solver is required")
    num_samples = solvers[0].target.shape[0]
    grids = [_eta_grid(s.prior, eta_grids, num_samples) for s in solvers]
    curves = _cross_validate(solvers, grids, n_folds)
    report = CrossValidationReport(prior=solvers[0].prior, eta=np.nan, error=np.inf)
    for solver, grid, errors in zip(solvers, grids, curves):
        prior = solver.prior
        report.per_prior_errors[prior.name] = errors
        report.per_prior_grids[prior.name] = grid
        best = int(np.argmin(errors))
        if errors[best] < report.error:
            report.prior = prior
            report.eta = float(grid[best])
            report.error = float(errors[best])
    return report
