"""Experiment runners: the paper's cost comparison and the serving drills.

* :func:`run_cost_comparison` -- Tables IV and VI: OMP on many
  post-layout samples against BMF-PS with the fast solver on few --
  relative error, simulation and fitting cost, and the total-cost
  speedup (the paper's headline 9x RO and 4x SRAM numbers).
* :func:`run_serving_stream` folds late-stage batches into a
  :class:`~repro.bmf.SequentialBmf`, publishing and serving after each
  (docs/serving.md); :func:`run_chaos_stream` runs that loop under armed
  fault plans (docs/faults.md); :func:`run_crash_recovery_stream` kills
  it mid-publish, recovers from disk and ends with an overload burst.
* :func:`run_rolling_restart_drill` compacts a sharded fleet and
  restarts it shard by shard under live traffic (docs/store.md).

The stream runners share one scaffold, :class:`_Stream`: the set-up and
the refit -> publish -> await tally.  Drill signatures come from
:func:`repro.runtime.metrics.signature_fields`, the crash drill's burst
from :func:`repro.loadgen.overload_burst`.  The serving, store and
loadgen layers are imported inside the runners, so ``import repro``
does not load them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bmf import BmfRegressor, RefitOutcome, SequentialBmf
from ..circuits.base import Stage, Testbench
from ..circuits.modeling import FusionProblem
from ..faults import FaultPlan, SimulatedCrash, inject
from ..montecarlo import simulate_dataset
from ..regression import OrthogonalMatchingPursuit, relative_error
from ..runtime.metrics import (
    counters_delta,
    format_snapshot,
    metrics as runtime_metrics,
    signature_fields,
    snapshot_delta,
)
from .cost import CostReport, SimulationCostModel

__all__ = [
    "ChaosStreamReport",
    "CostComparison",
    "CrashRecoveryReport",
    "RollingRestartReport",
    "ServingStreamReport",
    "run_chaos_stream",
    "run_cost_comparison",
    "run_crash_recovery_stream",
    "run_rolling_restart_drill",
    "run_serving_stream",
]

#: Seconds a drill waits on one request before counting it as failed.
_REQUEST_TIMEOUT_SECONDS = 30.0
#: The rolling-restart drill's synthetic models: total degree 2 in 2
#: variables, compacted mid-drill down to one superseded version per model.
_DRILL_BASIS_VARS = 2
_DRILL_BASIS_DEGREE = 2
_DRILL_HISTORY_WINDOW = 1


@dataclass
class CostComparison:
    """OMP-vs-BMF cost table (Table IV / Table VI layout)."""

    baseline: CostReport
    fused: CostReport
    #: Runtime counter/timer deltas accumulated while the comparison ran
    #: (design-matrix cells assembled, cache hits, Monte Carlo samples, ...).
    runtime_metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Total-modeling-cost speedup of BMF over the baseline."""
        return self.fused.speedup_over(self.baseline)

    def format(self) -> str:
        rows = [
            ("", self.baseline.method, self.fused.method),
            (
                "# of post-layout training samples",
                str(self.baseline.num_samples),
                str(self.fused.num_samples),
            ),
        ]
        for metric in self.baseline.errors:
            rows.append(
                (
                    f"Modeling error for {metric}",
                    f"{self.baseline.errors[metric] * 100:.4f}%",
                    f"{self.fused.errors[metric] * 100:.4f}%",
                )
            )
        rows.extend(
            [
                (
                    "Simulation cost (Hour)",
                    f"{self.baseline.simulation_hours:.2f}",
                    f"{self.fused.simulation_hours:.2f}",
                ),
                (
                    "Fitting cost (Second)",
                    f"{self.baseline.fitting_seconds:.2f}",
                    f"{self.fused.fitting_seconds:.2f}",
                ),
                (
                    "Total modeling cost (Hour)",
                    f"{self.baseline.total_hours:.2f}",
                    f"{self.fused.total_hours:.2f}",
                ),
                ("Speedup", "1.0x", f"{self.speedup:.1f}x"),
            ]
        )
        width0 = max(len(r[0]) for r in rows)
        width1 = max(len(r[1]) for r in rows)
        width2 = max(len(r[2]) for r in rows)
        table = "\n".join(
            f"{a.ljust(width0)} | {b.ljust(width1)} | {c.ljust(width2)}"
            for a, b, c in rows
        )
        if self.runtime_metrics:
            table += "\n\n" + format_snapshot(self.runtime_metrics)
        return table


def run_cost_comparison(
    testbench: Testbench,
    metrics: Sequence[str],
    cost_model: SimulationCostModel,
    baseline_samples: int = 900,
    fused_samples: int = 100,
    rng: Optional[np.random.Generator] = None,
    test_size: int = 300,
    early_samples: int = 3000,
    early_method: str = "omp",
    omp_max_terms: Optional[int] = None,
    early_coefficients: Optional[Dict[str, np.ndarray]] = None,
) -> CostComparison:
    """Run the Table IV / Table VI comparison.

    The Monte Carlo training pool is shared across metrics (one simulation
    yields every metric), so simulation cost is paid once -- matching the
    paper's accounting.
    """
    if rng is None:
        rng = np.random.default_rng(2)
    metrics = tuple(metrics)
    metrics_before = runtime_metrics.snapshot()
    pool = simulate_dataset(
        testbench, Stage.POST_LAYOUT, max(baseline_samples, fused_samples), rng, metrics
    )
    test = simulate_dataset(testbench, Stage.POST_LAYOUT, test_size, rng, metrics)

    baseline_errors: Dict[str, float] = {}
    fused_errors: Dict[str, float] = {}
    baseline_fit_seconds = 0.0
    fused_fit_seconds = 0.0

    for metric in metrics:
        problem = FusionProblem(testbench, metric)
        if early_coefficients is not None and metric in early_coefficients:
            alpha_early = early_coefficients[metric]
        else:
            alpha_early = problem.fit_early_model(
                early_samples, rng, method=early_method
            )
        aligned = problem.align_early_coefficients(alpha_early)
        missing = problem.missing_indices()
        basis = problem.late_basis

        design_baseline = basis.design_matrix(pool.x[:baseline_samples])
        design_fused = design_baseline[:fused_samples]
        design_test = basis.design_matrix(test.x)
        target = pool.metric(metric)
        target_test = test.metric(metric)

        start = time.perf_counter()
        omp = OrthogonalMatchingPursuit(basis, max_terms=omp_max_terms)
        coefficients = omp.fit_design(design_baseline, target[:baseline_samples])
        baseline_fit_seconds += time.perf_counter() - start
        baseline_errors[metric] = relative_error(
            design_test @ coefficients, target_test
        )

        start = time.perf_counter()
        bmf = BmfRegressor(
            basis, aligned, prior_kind="select", missing_indices=missing
        )
        coefficients = bmf.fit_design(design_fused, target[:fused_samples])
        fused_fit_seconds += time.perf_counter() - start
        fused_errors[metric] = relative_error(design_test @ coefficients, target_test)

    baseline = CostReport(
        method="OMP",
        num_samples=baseline_samples,
        errors=baseline_errors,
        simulation_hours=cost_model.simulation_hours(baseline_samples),
        fitting_seconds=baseline_fit_seconds,
    )
    fused = CostReport(
        method="BMF-PS (fast solver)",
        num_samples=fused_samples,
        errors=fused_errors,
        simulation_hours=cost_model.simulation_hours(fused_samples),
        fitting_seconds=fused_fit_seconds,
    )
    return CostComparison(
        baseline,
        fused,
        runtime_metrics=snapshot_delta(metrics_before, runtime_metrics.snapshot()),
    )


class _Stream:
    """The scaffold of the three stream runners.

    Construction validates the arguments, fits and aligns the early prior,
    and simulates the late-stage batches and the test rows.  The chaos and
    crash drills drive each batch through :meth:`refit`, :meth:`publish`
    and :meth:`serve`, which count every outcome.  ``sequential_kwargs``
    overrides the fitter defaults wholesale: with a fixed eta, injected
    solver faults are absorbed by the woodbury fallback.
    """

    def __init__(
        self,
        testbench: Testbench,
        metric: str,
        batch_sizes: Sequence[int],
        requests_per_batch: int,
        rng: np.random.Generator,
        test_size: int,
        early_samples: int,
        sequential_kwargs: Optional[Dict[str, object]] = None,
    ) -> None:
        batch_sizes = tuple(int(b) for b in batch_sizes)
        if not batch_sizes or any(b <= 0 for b in batch_sizes):
            raise ValueError(f"batch_sizes must be positive, got {batch_sizes}")
        if requests_per_batch < 1:
            raise ValueError(
                f"requests_per_batch must be >= 1, got {requests_per_batch}"
            )
        problem = FusionProblem(testbench, metric)
        alpha_early = problem.fit_early_model(early_samples, rng)
        #: Builds a fresh sequential fitter on the aligned early prior.
        self.fitter = functools.partial(
            SequentialBmf,
            problem.late_basis,
            problem.align_early_coefficients(alpha_early),
            missing_indices=problem.missing_indices(),
            **{"prior_kind": "select", **(sequential_kwargs or {})},
        )
        pool = simulate_dataset(
            testbench, Stage.POST_LAYOUT, sum(batch_sizes), rng, (metric,)
        )
        self.test = simulate_dataset(
            testbench, Stage.POST_LAYOUT, test_size, rng, (metric,)
        )
        target = pool.metric(metric)
        #: ``(x, f)`` per arriving batch.
        self.batches = [
            (pool.x[end - size : end], target[end - size : end])
            for size, end in zip(batch_sizes, np.cumsum(batch_sizes))
        ]
        self.name = metric
        self.batch_sizes = batch_sizes
        self._requests_per_batch = requests_per_batch
        self._rng = rng
        self.refit_outcomes: List[RefitOutcome] = []
        self.publish_attempts = self.publish_rejections = 0
        self.answered = self.failed = self.skipped = 0

    def refit(self, fitter: SequentialBmf, x: np.ndarray, f: np.ndarray) -> bool:
        """Fold one batch in; a failed refit rolls back and returns False."""
        outcome = fitter.try_add_samples(x, f)
        self.refit_outcomes.append(outcome)
        return outcome.ok

    def publish(self, registry, fitter: SequentialBmf) -> bool:
        """Publish ``fitter``; False if the registry rejected it."""
        from ..serving import PublishRejectedError

        self.publish_attempts += 1
        try:
            registry.publish(self.name, fitter)
        except PublishRejectedError:
            self.publish_rejections += 1
            return False
        return True

    def serve(self, engine, registry) -> None:
        """Draw ``requests_per_batch`` test rows and await each request in
        turn: concurrent submission would make batch composition, and
        hence every counter, timing-dependent."""
        rows = self._rng.integers(0, len(self.test.x), size=self._requests_per_batch)
        if self.name not in registry:
            # Nothing servable yet (every publish so far failed); the
            # registry would raise KeyError per request.
            self.skipped += len(rows)
            return
        for row in rows:
            future = engine.submit(self.name, self.test.x[row])
            try:
                future.result(timeout=_REQUEST_TIMEOUT_SECONDS)
            except Exception:
                self.failed += 1
            else:
                self.answered += 1


#: Report fields the stream drills leave out of ``deterministic_signature()``.
_STREAM_UNSIGNED = frozenset({"metric", "seed", "batch_sizes", "engine_stats"})


def _stream_signature(report) -> Dict[str, object]:
    """:func:`signature_fields` with each refit outcome cut to
    ``(ok, mode, num_samples)``."""
    signature = signature_fields(report, _STREAM_UNSIGNED)
    signature["refit_outcomes"] = tuple(
        (outcome.ok, outcome.mode, outcome.num_samples)
        for outcome in report.refit_outcomes
    )
    return signature


@dataclass
class ServingStreamReport:
    """Outcome of one streaming fit-publish-serve run (docs/serving.md)."""

    metric: str
    batch_sizes: Sequence[int]
    #: CV/apparent modeling error after each arriving batch.
    cv_error_history: Sequence[float]
    #: ``"incremental"`` / ``"full"`` / ``"fallback"`` per refit.
    refit_modes: Sequence[str]
    #: Relative error of the finally served model on held-out samples.
    test_error: float
    #: Number of versions published to the registry.
    versions_published: int
    #: :meth:`repro.serving.PredictionEngine.stats` snapshot.
    engine_stats: Dict[str, float] = field(default_factory=dict)
    #: Runtime counter/timer deltas accumulated during the stream
    #: (``serving.requests``, ``woodbury.incremental_refits``, ...).
    runtime_metrics: Dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"Streaming BMF serving run for metric {self.metric!r}",
            f"  batches              : {list(self.batch_sizes)}",
            f"  refit modes          : {list(self.refit_modes)}",
            f"  final CV error       : {self.cv_error_history[-1] * 100:.4f}%",
            f"  held-out rel. error  : {self.test_error * 100:.4f}%",
            f"  versions published   : {self.versions_published}",
            f"  requests served      : {self.engine_stats.get('requests', 0):.0f}",
            f"  mean batch requests  : "
            f"{self.engine_stats.get('mean_batch_requests', 0.0):.2f}",
            f"  mean latency (ms)    : "
            f"{self.engine_stats.get('mean_latency_seconds', 0.0) * 1e3:.3f}",
        ]
        text = "\n".join(lines)
        if self.runtime_metrics:
            text += "\n\n" + format_snapshot(self.runtime_metrics)
        return text


def run_serving_stream(
    testbench: Testbench,
    metric: str,
    batch_sizes: Sequence[int] = (30, 10, 10, 10),
    requests_per_batch: int = 16,
    rng: Optional[np.random.Generator] = None,
    test_size: int = 200,
    early_samples: int = 3000,
) -> ServingStreamReport:
    """Drive the full streaming loop: fit -> publish -> serve -> repeat.

    Late-stage samples arrive in ``batch_sizes`` waves.  Each wave is folded
    into a :class:`repro.bmf.SequentialBmf` (incremental Woodbury refit), the
    refreshed model is atomically published to a
    :class:`repro.serving.ModelRegistry` under the name ``metric``, and
    ``requests_per_batch`` prediction requests are answered by a
    :class:`repro.serving.PredictionEngine` against the just-published
    version.  The report carries the error trajectory, the refit modes
    actually taken, engine throughput/latency, and the runtime-metrics delta.
    """
    from ..serving import ModelRegistry, PredictionEngine

    if rng is None:
        rng = np.random.default_rng(7)
    stream = _Stream(
        testbench, metric, batch_sizes, requests_per_batch, rng, test_size,
        early_samples,
    )
    test = stream.test
    metrics_before = runtime_metrics.snapshot()
    sequential = stream.fitter()
    registry = ModelRegistry()
    refit_modes = []
    with PredictionEngine(registry) as engine:
        for x, f in stream.batches:
            sequential.add_samples(x, f)
            refit_modes.append(sequential.last_refit_mode)
            registry.publish(metric, sequential)
            rows = rng.integers(0, test.x.shape[0], size=requests_per_batch)
            futures = [engine.submit(metric, test.x[row]) for row in rows]
            for future in futures:
                future.result(timeout=_REQUEST_TIMEOUT_SECONDS)
        predicted = engine.predict(metric, test.x)
        engine_stats = engine.stats()
    test_error = relative_error(predicted, test.metric(metric))

    return ServingStreamReport(
        metric=metric,
        batch_sizes=stream.batch_sizes,
        cv_error_history=list(sequential.cv_error_history),
        refit_modes=refit_modes,
        test_error=test_error,
        versions_published=len(registry.versions(metric)),
        engine_stats=engine_stats,
        runtime_metrics=snapshot_delta(metrics_before, runtime_metrics.snapshot()),
    )


@dataclass
class ChaosStreamReport:
    """Outcome of one fault-injected streaming run (docs/faults.md).

    The counter dicts hold only integer event counts (no wall-clock), so
    two runs with the same seed and fault plans produce *identical*
    reports -- the property the chaos suite asserts bitwise.
    """

    metric: str
    seed: int
    batch_sizes: Sequence[int]
    #: ``(ok, mode)`` per arriving batch; a failed refit leaves the fitter
    #: rolled back and simply skips that batch's publish.
    refit_outcomes: Sequence[object]
    #: Requests whose future resolved with a prediction.
    answered_requests: int
    #: Requests whose future resolved with an exception.
    failed_requests: int
    #: Requests never submitted because no version was published yet.
    skipped_requests: int
    #: Publishes attempted / rejected (``PublishRejectedError``).
    publish_attempts: int
    publish_rejections: int
    #: Versions retained by the registry at the end of the run.
    versions_published: int
    #: Largest (current - served) version gap any answered request saw.
    max_version_lag: int
    #: ``faults.*`` counter deltas (injection bookkeeping).
    fault_counters: Dict[str, int] = field(default_factory=dict)
    #: ``serving.*`` counter deltas (engine + registry resilience events).
    serving_counters: Dict[str, int] = field(default_factory=dict)
    #: Final :meth:`repro.serving.PredictionEngine.stats` snapshot.
    engine_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return self.answered_requests + self.failed_requests

    @property
    def answered_fraction(self) -> float:
        """Fraction of submitted requests that got a prediction."""
        total = self.total_requests
        return self.answered_requests / total if total else 0.0

    def deterministic_signature(self) -> Dict[str, object]:
        """Everything that must be bitwise identical across same-seed runs.

        Timers and latency statistics are deliberately excluded; what
        remains is pure event counting driven by the seeded fault plans.
        """
        return _stream_signature(self)

    def format(self) -> str:
        lines = [
            f"Chaos stream run for metric {self.metric!r} (seed {self.seed})",
            f"  batches              : {list(self.batch_sizes)}",
            f"  refits ok/failed     : "
            f"{sum(1 for o in self.refit_outcomes if o.ok)}"
            f"/{sum(1 for o in self.refit_outcomes if not o.ok)}",
            f"  requests answered    : {self.answered_requests}"
            f"/{self.total_requests}"
            f" ({self.answered_fraction * 100:.1f}%)",
            f"  requests skipped     : {self.skipped_requests}",
            f"  publishes (rejected) : {self.publish_attempts}"
            f" ({self.publish_rejections})",
            f"  versions retained    : {self.versions_published}",
            f"  max version lag      : {self.max_version_lag}",
        ]
        text = "\n".join(lines)
        merged = {**self.fault_counters, **self.serving_counters}
        if merged:
            text += "\n\n" + format_snapshot(merged, title="Chaos counters")
        return text


def run_chaos_stream(
    testbench: Testbench,
    metric: str,
    batch_sizes: Sequence[int] = (30, 10, 10, 10),
    requests_per_batch: int = 16,
    fault_plans: Sequence[object] = (),
    seed: int = 0,
    test_size: int = 100,
    early_samples: int = 3000,
    sequential_kwargs: Optional[Dict[str, object]] = None,
) -> ChaosStreamReport:
    """:func:`run_serving_stream` under armed fault plans, deterministically.

    The fit -> publish -> serve loop runs with ``fault_plans`` armed for its
    whole duration: refits go through
    :meth:`repro.bmf.SequentialBmf.try_add_samples` (a failed refit rolls
    back and skips that publish), publishes absorb
    :class:`~repro.serving.PublishRejectedError`, and every prediction
    request is awaited **sequentially** so the order of failpoint hits --
    and therefore every ``faults.*`` / ``serving.*`` counter -- is a pure
    function of ``seed`` and the plans.  Two calls with equal arguments
    yield equal :meth:`ChaosStreamReport.deterministic_signature` s.
    """
    from ..serving import ModelRegistry, PredictionEngine

    rng = np.random.default_rng(seed)
    stream = _Stream(
        testbench, metric, batch_sizes, requests_per_batch, rng, test_size,
        early_samples, sequential_kwargs,
    )

    before = runtime_metrics.counters()
    sequential = stream.fitter()
    registry = ModelRegistry()
    armed = inject(*fault_plans) if fault_plans else contextlib.nullcontext()
    with PredictionEngine(registry) as engine:
        with armed:
            for x, f in stream.batches:
                if stream.refit(sequential, x, f):
                    stream.publish(registry, sequential)
                stream.serve(engine, registry)
        engine_stats = engine.stats()

    return ChaosStreamReport(
        metric=metric,
        seed=int(seed),
        batch_sizes=stream.batch_sizes,
        refit_outcomes=stream.refit_outcomes,
        answered_requests=stream.answered,
        failed_requests=stream.failed,
        skipped_requests=stream.skipped,
        publish_attempts=stream.publish_attempts,
        publish_rejections=stream.publish_rejections,
        versions_published=len(registry.versions(metric)),
        max_version_lag=int(engine_stats["max_version_lag"]),
        fault_counters=counters_delta(before, runtime_metrics.counters("faults.")),
        serving_counters=counters_delta(before, runtime_metrics.counters("serving.")),
        engine_stats=engine_stats,
    )


@dataclass
class CrashRecoveryReport:
    """Outcome of one fit -> publish -> kill -> recover -> serve run.

    Like :class:`ChaosStreamReport`, every field that enters
    :meth:`deterministic_signature` is an integer event count, a boolean,
    or a tuple of them -- never wall-clock -- so two runs with the same
    seed produce identical signatures.
    """

    metric: str
    seed: int
    batch_sizes: Sequence[int]
    #: Publishes completed before the crash was injected.
    crash_after_batches: int
    #: Failpoint the simulated kill fired at (``store.write``/``store.fsync``).
    crash_failpoint: str
    #: Whether the injected :class:`~repro.faults.SimulatedCrash` surfaced.
    crash_observed: bool
    #: Record files visible in ``records/`` right after the crash (a
    #: ``store.fsync`` kill leaves a torn one; ``store.write`` leaves none).
    records_visible_after_crash: int
    #: Versions re-admitted by recovery, ``(name, version)`` in order.
    recovered_versions: Sequence[object]
    #: Records quarantined during recovery (torn/corrupt; never served).
    quarantined_records: int
    #: Recovered registry snapshot == last pre-crash durable snapshot.
    recovered_bitwise_identical: bool
    #: Whether the sequential fitter warm-restarted from persisted state.
    rearmed: bool
    #: ``(ok, mode)`` per refit, pre-crash then post-recovery.
    refit_outcomes: Sequence[object]
    answered_requests: int
    failed_requests: int
    publish_attempts: int
    publish_rejections: int
    #: Versions retained by the post-recovery registry at the end.
    versions_published: int
    # -- overload burst (2x the queue bound against a paused dispatcher) --
    queue_bound: int
    burst_staged_expired: int
    burst_live_submitted: int
    burst_rejected: int
    burst_answered: int
    peak_queue_depth: int
    shed_expired: int
    shed_rejected: int
    #: ``faults.*`` / ``serving.*`` / ``store.*`` counter deltas.
    fault_counters: Dict[str, int] = field(default_factory=dict)
    serving_counters: Dict[str, int] = field(default_factory=dict)
    store_counters: Dict[str, int] = field(default_factory=dict)
    #: Final :meth:`repro.serving.PredictionEngine.stats` snapshot.
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def deterministic_signature(self) -> Dict[str, object]:
        """Everything that must be bitwise identical across same-seed runs."""
        return _stream_signature(self)

    def format(self) -> str:
        lines = [
            f"Crash-recovery run for metric {self.metric!r} (seed {self.seed})",
            f"  crash point          : {self.crash_failpoint} after "
            f"{self.crash_after_batches} publishes",
            f"  records after crash  : {self.records_visible_after_crash}"
            f" ({self.quarantined_records} quarantined on recovery)",
            f"  recovered versions   : {list(self.recovered_versions)}",
            f"  bitwise identical    : {self.recovered_bitwise_identical}",
            f"  warm restart         : {self.rearmed}",
            f"  requests answered    : {self.answered_requests}"
            f"/{self.answered_requests + self.failed_requests}",
            f"  burst shed (exp/rej) : {self.shed_expired}"
            f"/{self.shed_rejected} (peak depth {self.peak_queue_depth}"
            f" <= bound {self.queue_bound})",
        ]
        text = "\n".join(lines)
        merged = {
            **self.fault_counters,
            **self.serving_counters,
            **self.store_counters,
        }
        if merged:
            text += "\n\n" + format_snapshot(merged, title="Recovery counters")
        return text


def run_crash_recovery_stream(
    testbench: Testbench,
    metric: str,
    store_root,
    batch_sizes: Sequence[int] = (30, 10, 10, 10),
    crash_after_batches: int = 2,
    crash_failpoint: str = "store.fsync",
    requests_per_batch: int = 16,
    seed: int = 0,
    test_size: int = 100,
    early_samples: int = 3000,
    max_queue_depth: int = 16,
    sequential_kwargs: Optional[Dict[str, object]] = None,
) -> CrashRecoveryReport:
    """Fit -> publish -> **kill** -> recover -> serve, deterministically.

    Phase 1 streams ``crash_after_batches`` batches through a
    store-backed registry (write-ahead persistence), snapshotting the
    registry after each durable publish.  Phase 2 fits one more batch and
    injects a :class:`~repro.faults.SimulatedCrash` at
    ``crash_failpoint`` during its publish, then abandons every live
    object -- fitter, registry, engine -- exactly as a killed process
    would.  Phase 3 recovers from the store directory alone: corrupt or
    torn records are quarantined, valid ones rebuild a registry that must
    be *bitwise identical* to the last pre-crash snapshot, and the
    sequential fitter warm-restarts from its persisted samples and
    Cholesky factor.  Phase 4 replays the crashed batch plus the
    remaining stream against the recovered state.  Phase 5 is
    :func:`repro.loadgen.overload_burst` at twice ``max_queue_depth``,
    exercising admission control (shed-oldest-expired, then reject) with
    deterministic counters.

    Like :func:`run_chaos_stream`, requests are awaited sequentially and
    every signature field is event-count-only, so the
    :meth:`CrashRecoveryReport.deterministic_signature` is a pure
    function of the arguments.
    """
    from ..loadgen import overload_burst
    from ..serving import ModelRegistry, PredictionEngine
    from ..store import ModelStore, RecoveryManager

    if crash_failpoint not in ("store.write", "store.fsync"):
        raise ValueError(
            "crash_failpoint must be 'store.write' or 'store.fsync', got "
            f"{crash_failpoint!r}"
        )
    if max_queue_depth < 1:
        raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
    rng = np.random.default_rng(seed)
    stream = _Stream(
        testbench, metric, batch_sizes, requests_per_batch, rng, test_size,
        early_samples, sequential_kwargs,
    )
    if not 1 <= crash_after_batches < len(stream.batches):
        raise ValueError(
            f"crash_after_batches must be in [1, {len(stream.batches) - 1}], "
            f"got {crash_after_batches}"
        )

    before = runtime_metrics.counters()

    # ----- Phase 1+2: pre-crash stream, then the killed publish ---------
    store = ModelStore(store_root)
    sequential = stream.fitter()
    registry = ModelRegistry(store=store)
    durable_snapshot: Dict[str, object] = registry.snapshot()
    crash_observed = False
    with PredictionEngine(registry, max_queue_depth=max_queue_depth) as engine:
        for x, f in stream.batches[:crash_after_batches]:
            if stream.refit(sequential, x, f) and stream.publish(registry, sequential):
                durable_snapshot = registry.snapshot()
            stream.serve(engine, registry)

        if stream.refit(sequential, *stream.batches[crash_after_batches]):
            kill = FaultPlan.fail_once(crash_failpoint, error=SimulatedCrash)
            try:
                with inject(kill):
                    stream.publish(registry, sequential)
            except SimulatedCrash:
                crash_observed = True
            else:  # plan did not fire (publish skipped earlier) -- still durable
                durable_snapshot = registry.snapshot()
    # The process is now "dead": drop every live object.  Only the store
    # directory and the (host-side) random stream survive.
    records_visible = len(store.record_paths())
    del sequential, registry, engine, store

    # ----- Phase 3: recovery from the store directory alone -------------
    store = ModelStore(store_root)
    recovery = RecoveryManager(store).recover(
        registry=ModelRegistry(store=store)
    )
    registry = recovery.registry
    recovered_identical = registry.snapshot() == durable_snapshot

    sequential = stream.fitter()
    state = recovery.sequential_state(metric)
    rearmed = state is not None
    if rearmed:
        sequential.rearm(state)

    # ----- Phase 4: replay the crashed batch + the rest of the stream ---
    with PredictionEngine(registry, max_queue_depth=max_queue_depth) as engine:
        for x, f in stream.batches[crash_after_batches:]:
            if stream.refit(sequential, x, f):
                stream.publish(registry, sequential)
            stream.serve(engine, registry)

        # ----- Phase 5: 2x-bound saturation burst, dispatcher paused ----
        burst = overload_burst(
            engine,
            metric,
            stream.test.x[0],
            bound=max_queue_depth,
            factor=2,
            timeout=_REQUEST_TIMEOUT_SECONDS,
        )
        engine_stats = engine.stats()

    return CrashRecoveryReport(
        metric=metric,
        seed=int(seed),
        batch_sizes=stream.batch_sizes,
        crash_after_batches=crash_after_batches,
        crash_failpoint=crash_failpoint,
        crash_observed=crash_observed,
        records_visible_after_crash=records_visible,
        recovered_versions=recovery.restored,
        quarantined_records=len(recovery.quarantined),
        recovered_bitwise_identical=recovered_identical,
        rearmed=rearmed,
        refit_outcomes=stream.refit_outcomes,
        answered_requests=stream.answered,
        failed_requests=stream.failed,
        publish_attempts=stream.publish_attempts,
        publish_rejections=stream.publish_rejections,
        versions_published=len(registry.versions(metric)),
        queue_bound=max_queue_depth,
        burst_staged_expired=burst.staged,
        burst_live_submitted=burst.submitted - burst.rejected,
        burst_rejected=burst.rejected,
        burst_answered=burst.answered,
        peak_queue_depth=int(engine_stats["peak_queue_depth"]),
        shed_expired=int(engine_stats["shed_expired"]),
        shed_rejected=int(engine_stats["shed_rejected"]),
        fault_counters=counters_delta(before, runtime_metrics.counters("faults.")),
        serving_counters=counters_delta(before, runtime_metrics.counters("serving.")),
        store_counters=counters_delta(before, runtime_metrics.counters("store.")),
        engine_stats=engine_stats,
    )


@dataclass
class RollingRestartReport:
    """Outcome of one zero-downtime rolling-restart drill.

    Every field that enters :meth:`deterministic_signature` is an event
    count, a tuple of them, or a mode string -- never wall-clock -- so two
    runs with the same seed produce identical signatures.
    """

    seed: int
    num_shards: int
    replication_factor: int
    num_models: int
    #: Versions published across all phases (pre-stream + post-rearm).
    versions_published: int
    #: Whether the store was compacted under live traffic mid-drill.
    compacted: bool
    #: Superseded versions per model the compaction kept (always 1).
    history_window: int
    #: Live store generation when the drill finished (0 = never compacted).
    generation: int
    #: Global journal offset the live generation's checkpoint covers.
    checkpoint_offset: int
    #: Shard ids in the order the drill restarted them.
    restart_order: Sequence[int]
    #: Versions each restarted shard restored from the store, same order.
    restart_restored: Sequence[int]
    requests_issued: int
    answered_requests: int
    #: Must be 0: every accepted request is answered by a warm replica.
    failed_requests: int
    #: ``last_refit_mode`` per model for the first post-restart batch --
    #: all ``"incremental"`` means no refit-from-scratch ever ran.
    rearm_modes: Sequence[str]
    #: ``sequential.rearms`` counter delta (one warm rearm per model).
    rearms: int
    #: ``woodbury.fallbacks`` counter delta (must be 0).
    woodbury_fallbacks: int
    #: ``serving.*`` / ``store.*`` counter deltas over the whole drill.
    serving_counters: Dict[str, int] = field(default_factory=dict)
    store_counters: Dict[str, int] = field(default_factory=dict)
    #: Final :meth:`repro.serving.ShardRouter.stats` snapshot.
    router_stats: Dict[str, object] = field(default_factory=dict)

    def deterministic_signature(self) -> Dict[str, object]:
        """Everything that must be bitwise identical across same-seed runs."""
        return signature_fields(self, {"seed", "router_stats"})

    def format(self) -> str:
        lines = [
            f"Rolling-restart drill (seed {self.seed}): "
            f"{self.num_shards} shards, rf={self.replication_factor}",
            f"  models / versions    : {self.num_models}"
            f" / {self.versions_published}",
            f"  compacted            : {self.compacted}"
            f" (window {self.history_window}, generation {self.generation},"
            f" checkpoint {self.checkpoint_offset})",
            f"  restarts             : {list(self.restart_order)} restored "
            f"{list(self.restart_restored)}",
            f"  requests answered    : {self.answered_requests}"
            f"/{self.requests_issued} ({self.failed_requests} failed)",
            f"  warm rearms          : {self.rearms}"
            f" ({self.woodbury_fallbacks} woodbury fallbacks),"
            f" next batches {list(self.rearm_modes)}",
        ]
        text = "\n".join(lines)
        merged = {**self.serving_counters, **self.store_counters}
        if merged:
            text += "\n\n" + format_snapshot(merged, title="Drill counters")
        return text


def run_rolling_restart_drill(
    store_root,
    num_shards: int = 3,
    replication_factor: int = 2,
    num_models: int = 4,
    pre_batches: int = 2,
    batch_size: int = 16,
    requests_per_phase: int = 6,
    compact_between: bool = True,
    seed: int = 0,
    engine_kwargs: Optional[Dict[str, object]] = None,
) -> RollingRestartReport:
    """Publish -> (compact) -> restart every shard under live traffic.

    The zero-downtime drill the shard tier must survive in production:

    1. stream ``pre_batches`` sequential-BMF batches per model through a
       :class:`~repro.serving.ShardRouter` (write-ahead persistence into
       the shared store), serving between publishes;
    2. optionally compact the store *under the live router* (survivors +
       journal checkpoint into a new generation, keeping one superseded
       version per model; every follower crosses the compaction boundary
       on its next poll);
    3. :meth:`~repro.serving.ShardRouter.rolling_restart` -- one shard at
       a time is stopped, rebuilt from nothing but the store directory,
       and rejoined, while the ``drive`` callback pushes live requests
       through the degraded ring (``replication_factor >= 2`` keeps every
       name on a warm replica, so **zero requests fail**);
    4. warm-rearm a fresh fitter per model from recovered state and prove
       the next ``add_samples`` is *incremental* -- no refit-from-scratch
       ever lands on the critical path (``sequential.rearms`` up,
       ``woodbury.fallbacks`` zero).

    The models are seeded synthetic ones on a degree-2 Hermite basis in
    two variables.  Requests are awaited sequentially (blocking
    ``predict``), so every signature field is a pure function of the
    arguments: same seed, same
    :meth:`RollingRestartReport.deterministic_signature`.
    """
    from ..basis import OrthonormalBasis
    from ..serving import ShardRouter
    from ..store import ModelStore, RecoveryManager, compact

    if num_models < 1:
        raise ValueError(f"num_models must be >= 1, got {num_models}")
    if pre_batches < 1:
        raise ValueError(f"pre_batches must be >= 1, got {pre_batches}")

    rng = np.random.default_rng(seed)
    basis = OrthonormalBasis.total_degree(_DRILL_BASIS_VARS, _DRILL_BASIS_DEGREE)
    names = [f"model-{index:04d}" for index in range(num_models)]
    alphas = {name: rng.normal(size=len(basis.indices)) for name in names}
    test_x = rng.normal(size=(64, basis.num_vars))

    def make_fitter(name: str) -> SequentialBmf:
        return SequentialBmf(
            basis, alphas[name], prior_kind="nonzero-mean", eta=1e-3
        )

    def draw(name: str, count: int):
        x = rng.normal(size=(count, basis.num_vars))
        f = basis.design_matrix(x) @ alphas[name] + 0.01 * rng.normal(size=count)
        return x, f

    before = runtime_metrics.counters()
    store = ModelStore(store_root)
    router = ShardRouter(
        store,
        num_shards=num_shards,
        replication_factor=replication_factor,
        engine_kwargs=dict(engine_kwargs or {}),
    )

    issued = answered = failed = 0

    def serve_phase(_shard_id: Optional[int] = None) -> None:
        nonlocal issued, answered, failed
        for _ in range(requests_per_phase):
            name = names[int(rng.integers(0, num_models))]
            row = int(rng.integers(0, test_x.shape[0]))
            issued += 1
            try:
                # Sequential awaits keep counter values timing-independent.
                router.predict(
                    name, test_x[row], timeout=_REQUEST_TIMEOUT_SECONDS
                )
            except Exception:
                failed += 1
            else:
                answered += 1

    fitters = {name: make_fitter(name) for name in names}
    versions_published = 0
    with router:
        # ----- Phase 1: pre-drill publish stream ------------------------
        for _ in range(pre_batches):
            for name in names:
                x, f = draw(name, batch_size)
                fitters[name].add_samples(x, f)
                router.publish(name, fitters[name])
                versions_published += 1
            serve_phase()

        # ----- Phase 2: compaction under the live router ----------------
        if compact_between:
            compact(store, history_window=_DRILL_HISTORY_WINDOW)
            router.catch_up()  # every follower crosses the boundary
            serve_phase()

        # ----- Phase 3: one-at-a-time restarts under live traffic ------
        restart_order = list(router.alive_shards())
        restored_map = router.rolling_restart(drive=serve_phase)
        restart_restored = [restored_map[sid] for sid in restart_order]
        serve_phase()  # the fully-restarted fleet still serves everything

        # ----- Phase 4: warm rearm, next batch must be incremental ------
        recovery = RecoveryManager(store).recover(quarantine_corrupt=False)
        rearm_modes = []
        for name in names:
            state = recovery.sequential_state(name)
            if state is None:
                rearm_modes.append("missing")
                continue
            fresh = make_fitter(name)
            fresh.rearm(state)
            x, f = draw(name, batch_size)
            fresh.add_samples(x, f)
            rearm_modes.append(fresh.last_refit_mode)
            router.publish(name, fresh)
            versions_published += 1
        serve_phase()
        router_stats = router.stats()

    view = store.journal_view()
    rearms, fallbacks = (
        runtime_metrics.count(name) - before.get(name, 0)
        for name in ("sequential.rearms", "woodbury.fallbacks")
    )
    return RollingRestartReport(
        seed=int(seed),
        num_shards=int(num_shards),
        replication_factor=int(replication_factor),
        num_models=int(num_models),
        versions_published=versions_published,
        compacted=bool(compact_between),
        history_window=_DRILL_HISTORY_WINDOW,
        generation=view.generation,
        checkpoint_offset=view.checkpoint_offset,
        restart_order=tuple(restart_order),
        restart_restored=tuple(restart_restored),
        requests_issued=issued,
        answered_requests=answered,
        failed_requests=failed,
        rearm_modes=tuple(rearm_modes),
        rearms=rearms,
        woodbury_fallbacks=fallbacks,
        serving_counters=counters_delta(before, runtime_metrics.counters("serving.")),
        store_counters=counters_delta(before, runtime_metrics.counters("store.")),
        router_stats=router_stats,
    )
