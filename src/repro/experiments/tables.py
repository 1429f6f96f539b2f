"""Error-vs-sample-count table runner (Tables I, II, III, V of the paper).

One table sweeps the number of post-layout training samples ``K`` and
reports the relative modeling error (eq. 59, on an independent 300-sample
test set) of four methods:

* ``OMP``      -- sparse regression on the late-stage data alone [13];
* ``BMF-ZM``   -- BMF with the zero-mean prior;
* ``BMF-NZM``  -- BMF with the nonzero-mean prior;
* ``BMF-PS``   -- BMF with cross-validated prior selection.

Errors are averaged over ``repeats`` independent train/test draws, as in
the paper's 50-run averages.  The early-stage model is fitted once per
table from schematic Monte Carlo data (OMP on 3000 samples by default,
matching Section V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..bmf import BmfRegressor
from ..circuits.base import Stage, Testbench
from ..circuits.modeling import FusionProblem
from ..montecarlo import simulate_dataset
from ..regression import OrthogonalMatchingPursuit, relative_error

__all__ = ["ErrorTable", "run_error_table", "METHODS"]

METHODS = ("OMP", "BMF-ZM", "BMF-NZM", "BMF-PS")


@dataclass
class ErrorTable:
    """Result of one error-vs-samples sweep.

    Attributes
    ----------
    testbench_name / metric:
        What was modeled.
    sample_counts:
        The ``K`` values swept (paper: 100 .. 900).
    errors:
        Method name -> mean relative error per ``K``, shape ``(len(counts),)``.
    stds:
        Method name -> standard deviation over repeats.
    repeats:
        Number of independent train/test draws averaged.
    """

    testbench_name: str
    metric: str
    sample_counts: Tuple[int, ...]
    errors: Dict[str, np.ndarray]
    stds: Dict[str, np.ndarray]
    repeats: int
    early_error: float = float("nan")

    def format(self, percent: bool = True) -> str:
        """Render the table in the paper's layout."""
        methods = list(self.errors)
        header = ["Number of samples"] + methods
        widths = [max(len(header[0]), 6)] + [max(len(m), 8) for m in methods]
        lines = [
            f"Relative modeling error ({'%' if percent else 'fraction'}) of "
            f"{self.metric} for {self.testbench_name} "
            f"(mean of {self.repeats} runs)"
        ]
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        lines.append("-+-".join("-" * w for w in widths))
        scale = 100.0 if percent else 1.0
        for i, count in enumerate(self.sample_counts):
            cells = [str(count).ljust(widths[0])]
            for m, w in zip(methods, widths[1:]):
                cells.append(f"{self.errors[m][i] * scale:.4f}".ljust(w))
            lines.append(" | ".join(cells))
        return "\n".join(lines)

    def best_method_at(self, sample_count: int) -> str:
        """Lowest-error method at a given ``K``."""
        i = self.sample_counts.index(sample_count)
        return min(self.errors, key=lambda m: self.errors[m][i])

    def to_csv(self) -> str:
        """CSV rendering (fractional errors) for downstream plotting."""
        methods = list(self.errors)
        lines = ["samples," + ",".join(methods)]
        for i, count in enumerate(self.sample_counts):
            cells = [str(count)] + [
                f"{self.errors[m][i]:.6e}" for m in methods
            ]
            lines.append(",".join(cells))
        return "\n".join(lines)


def run_error_table(
    testbench: Testbench,
    metric: str,
    sample_counts: Sequence[int] = (100, 200, 300, 400, 500, 600, 700, 800, 900),
    repeats: int = 3,
    rng: Optional[np.random.Generator] = None,
    test_size: int = 300,
    early_samples: int = 3000,
    early_method: str = "omp",
    early_max_terms: Optional[int] = None,
    methods: Sequence[str] = METHODS,
    omp_max_terms: Optional[int] = None,
    n_folds: int = 5,
    alpha_early: Optional[np.ndarray] = None,
) -> ErrorTable:
    """Run one Table-I-style sweep.

    Parameters mirror Section V's setup; see the module docstring.  The
    BMF-PS column reuses the BMF-ZM / BMF-NZM cross-validation results
    (prior selection *is* picking the better CV error of the two, so no
    third fit is needed), which keeps the sweep affordable.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; known: {METHODS}")
    if rng is None:
        rng = np.random.default_rng(0)
    sample_counts = tuple(int(k) for k in sample_counts)
    max_count = max(sample_counts)

    problem = FusionProblem(testbench, metric)
    if alpha_early is None:
        alpha_early = problem.fit_early_model(
            early_samples, rng, method=early_method, max_terms=early_max_terms
        )
    aligned = problem.align_early_coefficients(alpha_early)
    missing = problem.missing_indices()
    late_basis = problem.late_basis

    per_run: Dict[str, list] = {m: [] for m in methods}
    early_errors = []

    for _run in range(repeats):
        pool = simulate_dataset(
            testbench, Stage.POST_LAYOUT, max_count, rng, [metric]
        )
        test = simulate_dataset(
            testbench, Stage.POST_LAYOUT, test_size, rng, [metric]
        )
        design_pool = late_basis.design_matrix(pool.x)
        design_test = late_basis.design_matrix(test.x)
        target_pool = pool.metric(metric)
        target_test = test.metric(metric)
        early_errors.append(
            relative_error(design_test[:, : len(aligned)] @ aligned, target_test)
        )

        run_errors = {m: np.empty(len(sample_counts)) for m in methods}
        for i, count in enumerate(sample_counts):
            design = design_pool[:count]
            target = target_pool[:count]
            results = _fit_all(
                methods,
                design,
                target,
                late_basis,
                aligned,
                missing,
                omp_max_terms,
                n_folds,
            )
            for m in methods:
                prediction = design_test @ results[m]
                run_errors[m][i] = relative_error(prediction, target_test)
        for m in methods:
            per_run[m].append(run_errors[m])

    errors = {m: np.mean(per_run[m], axis=0) for m in methods}
    stds = {m: np.std(per_run[m], axis=0) for m in methods}
    return ErrorTable(
        testbench.name,
        metric,
        sample_counts,
        errors,
        stds,
        repeats,
        early_error=float(np.mean(early_errors)),
    )


def _fit_all(
    methods,
    design,
    target,
    late_basis,
    aligned,
    missing,
    omp_max_terms,
    n_folds,
) -> Dict[str, np.ndarray]:
    """Fit every requested method on one (design, target) pair."""
    results: Dict[str, np.ndarray] = {}

    if "OMP" in methods:
        omp = OrthogonalMatchingPursuit(late_basis, max_terms=omp_max_terms)
        results["OMP"] = omp.fit_design(design, target)

    bmf_variants = {}
    for method, kind in (("BMF-ZM", "zero-mean"), ("BMF-NZM", "nonzero-mean")):
        wanted = method in methods or "BMF-PS" in methods
        if not wanted:
            continue
        regressor = BmfRegressor(
            late_basis,
            aligned,
            prior_kind=kind,
            missing_indices=missing,
            n_folds=n_folds,
        )
        coefficients = regressor.fit_design(design, target)
        bmf_variants[method] = (coefficients, regressor.cv_report_.error)
        if method in methods:
            results[method] = coefficients

    if "BMF-PS" in methods:
        # Prior selection: the winner of the two cross-validation errors.
        results["BMF-PS"] = min(bmf_variants.values(), key=lambda item: item[1])[0]
    return results
