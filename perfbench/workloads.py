"""The benchmark's three workloads: two BMF fit sweeps and a serving stream.

Each workload is one closed-loop client in one process: the callers this
models are fitting scripts and validation loops that wait for every
answer.  A run builds its fixed inputs (testbenches, early-stage ridge
models, held-out test sets, the router) ``SETUP_REPEATS`` times, then
drives the workload for the requested number of seconds and verifies
every output it can.  Layer timings come from spans around the
benchmark's own calls (see :mod:`tracing`) and from deltas of the
program's ``repro.runtime.metrics`` counters.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bmf import (
    KernelMapSolver,
    SequentialBmf,
    map_estimate,
    nonzero_mean_prior,
    select_prior_and_eta_from_solvers,
    zero_mean_prior,
)
from repro.circuits import RingOscillator, SramReadPath
from repro.circuits.base import Stage
from repro.circuits.modeling import FusionProblem
from repro.montecarlo import simulate_dataset
from repro.regression import relative_error
from repro.regression.base import FittedModel
from repro.runtime.cache import design_cache
from repro.runtime.metrics import metrics as runtime_metrics
from repro.runtime.metrics import snapshot_delta
from repro.serving import ShardRouter
from repro.store import ModelStore

from tracing import Tracer, tail_quantile

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Fixed inputs shared by every workload seed, like the circuits themselves.
EARLY_SAMPLES = 3000
EARLY_SEED = 1013
TEST_SEED = 2029
TEST_ROWS = 256
BULK_ROWS = 256
SETUP_REPEATS = 3

#: Late-stage data seeds with recorded references.  A workload seed picks
#: its order of data seeds from the pool; the held-out workload seed draws
#: from a pool of its own, which no other seed touches.
DATA_SEEDS = tuple(range(16))
HELD_OUT_SEED = 9973
HELD_OUT_DATA_SEEDS = (100, 101, 102, 103)

#: Reference checks.  On the machine that recorded them the selected eta
#: matches exactly; elsewhere a different BLAS kernel can flip a near-tie
#: of the CV error curve, so a different eta is accepted only when the
#: reference eta's CV error is within ``ETA_TIE_RTOL`` of this fit's own
#: minimum, and the held-out error must stay within ``ERROR_RTOL``.
ETA_TIE_RTOL = 0.01
ERROR_RTOL = 0.02

#: Stage-sum check: inside a traced fit, the montecarlo, basis and bmf
#: spans must cover the fit's wall time up to this share of it (or this
#: many seconds, whichever is larger).
STAGE_SUM_TOLERANCE = 0.02
STAGE_SUM_FLOOR_S = 0.001

CIRCUITS = {
    # key: (testbench factory, metric, rng tag)
    "ro": (lambda: RingOscillator(), "power", 1),
    "sram": (lambda: SramReadPath(n_cells=32, n_timing=10), "read_delay", 2),
}

#: (circuit, K, requests its fitted model answers after the fit).  The
#: requests are about a fifth of each pass's time, so
#: predictions are spread over the run in proportion to time: the host's
#: speed drifts in spells of several seconds, and a few bursts of requests
#: would hinge on which spell they hit.  The counts are fixed, not timed,
#: so the mix of circuits among the requests is the same on every run.
FIT_WORKLOADS = {
    "fit-paper-k": {
        "fits": (
            ("sram", 100, 15), ("sram", 200, 15), ("sram", 300, 15), ("sram", 400, 15),
            ("ro", 100, 15), ("ro", 200, 15), ("ro", 300, 15),
        ),
    },
    "fit-large-k": {"fits": (("ro", 600, 100), ("ro", 900, 500))},
}

#: Every this many requests, one is a 256-row batch instead of a single row:
#: on serve-stream, and after each fit of a fit workload (there, three
#: batches per fit of fit-paper-k, so each fit answers two cache hits and
#: one miss).
BULK_EVERY = 25
FIT_BULK_EVERY = 5

#: Fit workloads take every timing over the runs of each fit at or below
#: this percentile of its fit time (see :func:`calm_fits`).
CALM_QUANTILE = 20

SERVE = {
    "shards": 3,
    "replication_factor": 2,
    "models": 12,
    "initial_samples": 40,
    "refit_samples": 20,
    "refit_every": 200,
    "point_pool": 64,
    "bulk_hit_pool": 4,
    "check_fraction": 1.0 / 16.0,
    "timeout_s": 30.0,
}

WORKLOADS = tuple(FIT_WORKLOADS) + ("serve-stream",)


def repeats_rows(batch_index: int) -> bool:
    """Two of every three bulk batches repeat earlier rows (design-cache
    hits), the third is fresh Monte Carlo rows (a miss).  An even split
    would put the median exactly between the hit and miss latencies, so
    it would flip from run to run; at two to one, ``bulk_p50_ms`` tracks
    cached batches and ``bulk_p90_ms`` tracks uncached ones."""
    return batch_index % 3 != 2


# ----------------------------------------------------------------------
# Fixed inputs
# ----------------------------------------------------------------------
@dataclass
class Circuit:
    key: str
    testbench: object
    metric: str
    tag: int
    basis: object
    aligned: np.ndarray
    missing: List[int]
    priors: list
    test_x: np.ndarray
    test_f: np.ndarray


def build_circuit(key: str) -> Circuit:
    """Testbench, early-stage ridge prior and held-out test set."""
    factory, metric, tag = CIRCUITS[key]
    testbench = factory()
    problem = FusionProblem(testbench, metric)
    alpha_early = problem.fit_early_model(
        EARLY_SAMPLES, np.random.default_rng([EARLY_SEED, tag]), method="ridge"
    )
    aligned = problem.align_early_coefficients(alpha_early)
    missing = problem.missing_indices()
    # Same candidates, in the same order, as BmfRegressor(prior_kind="select").
    priors = [
        zero_mean_prior(aligned).with_missing(missing),
        nonzero_mean_prior(aligned).with_missing(missing),
    ]
    test = simulate_dataset(
        testbench,
        Stage.POST_LAYOUT,
        TEST_ROWS,
        np.random.default_rng([TEST_SEED, tag]),
        (metric,),
    )
    return Circuit(
        key, testbench, metric, tag, problem.late_basis, aligned, missing,
        priors, test.x, test.metric(metric),
    )


def data_seed_order(seed: int) -> List[int]:
    pool = HELD_OUT_DATA_SEEDS if seed == HELD_OUT_SEED else DATA_SEEDS
    return [int(s) for s in np.random.default_rng(seed).permutation(pool)]


def reference_key(circuit: str, num_samples: int, data_seed: int) -> str:
    return f"{circuit}/K={num_samples}/seed={data_seed}"


def load_references() -> Dict[str, dict]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["fits"]


def _clear_design_cache() -> None:
    cache = design_cache()
    if cache is not None:
        cache.clear()


# ----------------------------------------------------------------------
# One BMF-PS fit
# ----------------------------------------------------------------------
@dataclass
class FitOutcome:
    coefficients: np.ndarray
    prior: str
    eta: float
    eta_index: int
    cv_errors: Dict[str, np.ndarray]
    seconds: float


def fit_once(
    circuit: Circuit,
    num_samples: int,
    data_seed: int,
    tracer: Tracer,
    fit_id: str,
) -> FitOutcome:
    """simulate -> design_matrix -> kernels -> CV selection -> MAP solve."""
    rng = np.random.default_rng([data_seed, num_samples, circuit.tag])
    start = time.perf_counter()
    with tracer.span("fit", request=fit_id):
        with tracer.span("montecarlo.simulate"):
            data = simulate_dataset(
                circuit.testbench, Stage.POST_LAYOUT, num_samples, rng,
                (circuit.metric,),
            )
        target = data.metric(circuit.metric)
        with tracer.span("basis.design_matrix"):
            design = circuit.basis.design_matrix(data.x)
        with tracer.span("bmf.kernel_build"):
            solvers = [KernelMapSolver(design, target, p) for p in circuit.priors]
        with tracer.span("bmf.cv"):
            report = select_prior_and_eta_from_solvers(solvers)
        with tracer.span("bmf.map"):
            coefficients = map_estimate(design, target, report.prior, report.eta)
    seconds = time.perf_counter() - start
    grid = report.per_prior_grids[report.prior.name]
    return FitOutcome(
        coefficients=coefficients,
        prior=report.prior.name,
        eta=report.eta,
        eta_index=int(np.argmin(np.abs(grid - report.eta))),
        cv_errors=dict(report.per_prior_errors),
        seconds=seconds,
    )


def check_fit(outcome: FitOutcome, test_error: float, reference: Optional[dict]) -> Optional[str]:
    """None when the fit matches its recorded reference, else the reason."""
    if reference is None:
        return "no recorded reference"
    chosen = (outcome.prior, outcome.eta_index)
    expected_choice = (reference["prior"], reference["eta_index"])
    if chosen != expected_choice:
        best = min(float(errors.min()) for errors in outcome.cv_errors.values())
        at_reference = outcome.cv_errors[reference["prior"]][reference["eta_index"]]
        if at_reference > best * (1.0 + ETA_TIE_RTOL):
            return f"selected (prior, eta index) {chosen} != reference {expected_choice}"
    expected = reference["test_error"]
    if abs(test_error - expected) > ERROR_RTOL * expected:
        return f"held-out error {test_error:.6g} != reference {expected:.6g}"
    return None


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    setup_s: List[float]
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


def _timer_delta(delta: Dict[str, float], name: str) -> Tuple[int, float]:
    return int(delta.get(f"{name}.calls", 0)), float(delta.get(f"{name}.seconds", 0.0))


def runtime_layers(delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics read from the program's own runtime counters."""
    mc_calls, mc_busy = _timer_delta(delta, "montecarlo.simulate")
    dm_calls, dm_busy = _timer_delta(delta, "design_matrix")
    _, cv_busy = _timer_delta(delta, "bmf.cross_validation")
    cv_evals = int(delta.get("bmf.cv_evaluations", 0))
    hits = int(delta.get("design_cache.hits", 0))
    lookups = hits + int(delta.get("design_cache.misses", 0))
    return {
        "montecarlo.calls": mc_calls,
        "montecarlo.busy_s": mc_busy,
        "montecarlo.samples": int(delta.get("montecarlo.samples", 0)),
        "basis.design_matrix.calls": dm_calls,
        "basis.design_matrix.busy_s": dm_busy,
        "basis.design_matrix.cells": int(delta.get("design_matrix.cells", 0)),
        "bmf.cv.busy_s": cv_busy,
        "bmf.cv.evaluations": cv_evals,
        "bmf.cv.ms_per_evaluation": 1e3 * cv_busy / cv_evals if cv_evals else 0.0,
        "runtime.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.cache.lookups": lookups,
        "runtime.cache.evictions": int(delta.get("design_cache.evictions", 0)),
        "store.writes": int(delta.get("store.writes", 0)),
        "store.replica_applied": int(delta.get("serving.shard.replica_applied", 0)),
        "serving.batches": int(delta.get("serving.batches", 0)),
        "serving.shed": int(
            delta.get("serving.shed.rejected", 0)
            + delta.get("serving.shed.expired", 0)
            + delta.get("serving.expired", 0)
            + delta.get("serving.retries", 0)
            + delta.get("serving.brownout.shed", 0)
        ),
    }


def span_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics measured by the benchmark's own spans."""
    refits = tracer.durations("bmf.sequential.refit")
    return {
        "bmf.kernel_build.busy_s": tracer.busy("bmf.kernel_build"),
        "bmf.map.busy_s": tracer.busy("bmf.map"),
        "bmf.sequential.refit.calls": len(refits),
        "bmf.sequential.refit.busy_s": float(sum(refits)),
        "serving.submit.p50_ms": 1e3 * tail_quantile(tracer.durations("serving.submit"), 50),
        "serving.wait.p50_ms": 1e3 * tail_quantile(tracer.durations("serving.wait"), 50),
        "serving.wait.p99_ms": 1e3 * tail_quantile(tracer.durations("serving.wait"), 99),
        "store.publish.p50_ms": 1e3 * tail_quantile(tracer.durations("store.publish"), 50),
    }


def stage_sum_failures(tracer: Tracer) -> Tuple[List[str], float]:
    """Traced fits whose stage spans leave too much wall time uncovered,
    and the largest uncovered share of any fit."""
    children = tracer.children()
    failures = []
    worst = 0.0
    for span in tracer.spans:
        if span.name != "fit":
            continue
        total = span.duration
        gap = total - sum(c.duration for c in children.get(span.id, ()))
        worst = max(worst, gap / total)
        if gap > max(STAGE_SUM_TOLERANCE * total, STAGE_SUM_FLOOR_S):
            failures.append(
                f"{span.request}: stages leave {gap * 1e3:.3f} ms of "
                f"{total * 1e3:.3f} ms unattributed"
            )
    return failures, worst


def _serving_e2e(points, bulks, to_serve, rows, busy) -> Dict[str, float]:
    return {
        "point_p50_ms": 1e3 * tail_quantile(points, 50),
        "point_p90_ms": 1e3 * tail_quantile(points, 90),
        "bulk_p50_ms": 1e3 * tail_quantile(bulks, 50),
        "bulk_p90_ms": 1e3 * tail_quantile(bulks, 90),
        "rows_per_s": rows / busy if busy > 0 else 0.0,
        "refit_to_serve_ms": 1e3 * tail_quantile(to_serve, 50),
    }


# ----------------------------------------------------------------------
# fit-paper-k / fit-large-k
# ----------------------------------------------------------------------
@dataclass
class FitRecord:
    """One fit of a fit workload and the requests its model answered."""

    index: int
    seconds: float
    to_serve_s: float = 0.0
    points: List[float] = field(default_factory=list)
    bulks: List[float] = field(default_factory=list)
    rows: int = 0
    busy: float = 0.0


def calm_fits(records: List[FitRecord]) -> List[FitRecord]:
    """Per fit of the fixed set, the runs of it at or below its own
    ``CALM_QUANTILE`` fit time, with the requests each answered.

    A shared host runs every part of a fit workload 10-50% slower for
    spells of several seconds, and how much of a run the spells cover
    varies from run to run.  The data seed barely moves a fit's time and
    interference only ever adds time, so the fastest runs of each fit
    measure the code; every timing of a fit workload is taken over them.
    """
    calm = []
    for index in sorted({r.index for r in records}):
        group = [r for r in records if r.index == index]
        cut = float(np.percentile([r.seconds for r in group], CALM_QUANTILE))
        calm.extend(r for r in group if r.seconds <= cut)
    return calm


def run_fit_workload(name: str, seed: int, seconds: float, tracer: Tracer) -> RunResult:
    spec = FIT_WORKLOADS[name]
    needed = sorted({fit[0] for fit in spec["fits"]})
    setup_s = []
    for _ in range(SETUP_REPEATS):
        _clear_design_cache()
        start = time.perf_counter()
        circuits = {key: build_circuit(key) for key in needed}
        setup_s.append(time.perf_counter() - start)
    references = load_references()
    order = data_seed_order(seed)
    rng = np.random.default_rng([seed, 7])
    result = RunResult(setup_s=setup_s)
    records: List[FitRecord] = []
    fit_errors = []
    bulk_count = 0

    before = runtime_metrics.snapshot()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        data_seed = order[passes % len(order)]
        for index, (circuit_key, num_samples, requests) in enumerate(spec["fits"]):
            circuit = circuits[circuit_key]
            fit_id = f"{name}/{reference_key(circuit_key, num_samples, data_seed)}/pass={passes}"
            outcome = fit_once(circuit, num_samples, data_seed, tracer, fit_id)
            record = FitRecord(index, outcome.seconds, busy=outcome.seconds)
            records.append(record)
            result.attempted += 1
            model = FittedModel(circuit.basis, outcome.coefficients)

            # The predict tail of the fitting pipeline: the fitted model
            # answers point and 256-row requests.  The first answer closes
            # the fit-to-serve interval.
            for request in range(1, requests + 1):
                if request % FIT_BULK_EVERY:
                    x = circuit.test_x[request % TEST_ROWS : request % TEST_ROWS + 1]
                else:
                    if repeats_rows(bulk_count):
                        x = circuit.test_x
                    else:
                        x = circuit.testbench.sample(Stage.POST_LAYOUT, BULK_ROWS, rng)
                    bulk_count += 1
                t0 = time.perf_counter()
                with tracer.span("predict", request=fit_id):
                    values = model.predict(x)
                elapsed = time.perf_counter() - t0
                if request == 1:
                    record.to_serve_s = outcome.seconds + elapsed
                (record.points if x.shape[0] == 1 else record.bulks).append(elapsed)
                record.busy += elapsed
                record.rows += x.shape[0]
                result.attempted += 1
                if values.shape != (x.shape[0],) or not np.all(np.isfinite(values)):
                    result.failures.append(f"{fit_id}: bad prediction for {x.shape[0]} rows")
            test_error = relative_error(model.predict(circuit.test_x), circuit.test_f)
            fit_errors.append(test_error)
            problem = check_fit(
                outcome,
                test_error,
                references.get(reference_key(circuit_key, num_samples, data_seed)),
            )
            if problem is not None:
                result.failures.append(f"{fit_id}: {problem}")
        passes += 1
    delta = snapshot_delta(before, runtime_metrics.snapshot())

    calm = calm_fits(records)
    points = [t for r in calm for t in r.points]
    bulks = [t for r in calm for t in r.bulks]
    # Per fit of the fixed set, its median over its calm runs; the set
    # mixes K values, so a median over single fits would jump between them.
    fit_s = [np.median([r.seconds for r in calm if r.index == i]) for i in range(len(spec["fits"]))]
    to_serve = [np.median([r.to_serve_s for r in calm if r.index == i]) for i in range(len(spec["fits"]))]
    result.e2e = {"fit_s": float(np.sum(fit_s)), "fit_rel_error": float(np.mean(fit_errors))}
    result.e2e.update(_serving_e2e(
        points, bulks, [float(np.mean(to_serve))],
        sum(r.rows for r in calm), sum(r.busy for r in calm),
    ))
    result.counts = {
        "passes": passes,
        "fits": len(records),
        "calm_fits": len(calm),
        "points": len(points),
        "bulks": len(bulks),
    }
    result.layers = runtime_layers(delta)
    result.layers["bmf.cv.share_of_fit"] = (
        result.layers["bmf.cv.busy_s"] / sum(r.seconds for r in records)
    )
    if tracer.enabled:
        result.layers.update(span_layers(tracer))
        failures, worst = stage_sum_failures(tracer)
        result.failures.extend(failures)
        result.layers["fit.unattributed_frac"] = worst
    return result


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
@dataclass
class ServeSetup:
    circuit: Circuit
    router: ShardRouter
    store_dir: Path
    names: List[str]
    fitters: Dict[str, SequentialBmf]
    versions: Dict[str, object]
    initial_versions: List[object]
    point_pool: np.ndarray
    hit_pool: List[np.ndarray]

    def close(self) -> None:
        self.router.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def build_serve(seed: int, out_dir: Path) -> ServeSetup:
    rng = np.random.default_rng([seed, 3])
    circuit = build_circuit("sram")
    names = [f"sram-tenant-{i:02d}" for i in range(SERVE["models"])]
    fitters = {}
    for name in names:
        fitter = SequentialBmf(
            circuit.basis, circuit.aligned, prior_kind="select",
            missing_indices=circuit.missing,
        )
        data = simulate_dataset(
            circuit.testbench, Stage.POST_LAYOUT, SERVE["initial_samples"], rng,
            (circuit.metric,),
        )
        fitter.add_samples(data.x, data.metric(circuit.metric))
        fitters[name] = fitter
    point_pool = circuit.testbench.sample(Stage.POST_LAYOUT, SERVE["point_pool"], rng)
    hit_pool = [
        circuit.testbench.sample(Stage.POST_LAYOUT, BULK_ROWS, rng)
        for _ in range(SERVE["bulk_hit_pool"])
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=out_dir))
    router = ShardRouter(
        ModelStore(store_dir),
        num_shards=SERVE["shards"],
        replication_factor=SERVE["replication_factor"],
    )
    router.start()
    versions = {name: router.publish(name, fitters[name]) for name in names}
    return ServeSetup(
        circuit, router, store_dir, names, fitters, versions, list(versions.values()),
        point_pool, hit_pool,
    )


def run_serve_stream(seed: int, seconds: float, tracer: Tracer, out_dir: Path) -> RunResult:
    setup_s = []
    setup = None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
        _clear_design_cache()
        start = time.perf_counter()
        setup = build_serve(seed, out_dir)
        setup_s.append(time.perf_counter() - start)
    result = RunResult(setup_s=setup_s)
    try:
        _drive_stream(setup, seed, seconds, tracer, result)
    finally:
        setup.close()
    return result


def _drive_stream(setup: ServeSetup, seed: int, seconds: float, tracer: Tracer, result: RunResult) -> None:
    circuit, router = setup.circuit, setup.router
    rng = np.random.default_rng([seed, 4])
    check_rng = np.random.default_rng([seed, 5])
    timeout = SERVE["timeout_s"]
    points, bulks, to_serve, refit_s = [], [], [], []
    checks: List[Tuple[str, object, np.ndarray, np.ndarray]] = []
    new_versions = []
    rows = 0
    busy = 0.0
    refits = 0
    bulk_count = 0
    cv_outside_refits = 0

    def serve(kind: str, name: str, x: np.ndarray, request_id: str) -> Optional[float]:
        nonlocal rows
        result.attempted += 1
        t0 = time.perf_counter()
        with tracer.span(kind, request=request_id):
            try:
                with tracer.span("serving.submit"):
                    future = router.submit(name, x)
            except Exception as exc:  # refused at admission: counted, not raised
                result.failures.append(f"{request_id}: refused ({type(exc).__name__})")
                return None
            try:
                with tracer.span("serving.wait"):
                    value = future.result(timeout=timeout)
            except Exception as exc:
                result.failures.append(f"{request_id}: admitted but not answered ({type(exc).__name__})")
                return None
        elapsed = time.perf_counter() - t0
        rows += x.shape[0] if x.ndim == 2 else 1
        if check_rng.random() < SERVE["check_fraction"]:
            checks.append((request_id, setup.versions[name], np.atleast_2d(x), value))
        return elapsed

    before = runtime_metrics.snapshot()
    start = time.perf_counter()
    step = 0
    while step < SERVE["refit_every"] or time.perf_counter() - start < seconds:
        step += 1
        name = setup.names[int(rng.integers(len(setup.names)))]
        request_id = f"serve-stream/step={step}"
        if step % SERVE["refit_every"] == 0:
            name = setup.names[refits % len(setup.names)]
            data = simulate_dataset(
                circuit.testbench, Stage.POST_LAYOUT, SERVE["refit_samples"], rng,
                (circuit.metric,),
            )
            probe = setup.point_pool[int(rng.integers(len(setup.point_pool)))]
            cv_before = runtime_metrics.count("bmf.cv_evaluations")
            result.attempted += 1
            refits += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("refit", request=request_id):
                    with tracer.span("bmf.sequential.refit"):
                        setup.fitters[name].add_samples(data.x, data.metric(circuit.metric))
                    t1 = time.perf_counter()
                    with tracer.span("store.publish"):
                        record = router.publish(name, setup.fitters[name])
                    with tracer.span("serving.read"):
                        value = router.predict(name, probe, timeout=timeout)
            except Exception as exc:  # a failed refit step is counted, not raised
                result.failures.append(f"{request_id}: refit step failed ({type(exc).__name__})")
                continue
            finally:
                cv_outside_refits -= runtime_metrics.count("bmf.cv_evaluations") - cv_before
            elapsed = time.perf_counter() - t0
            setup.versions[name] = record
            new_versions.append(record)
            refit_s.append(t1 - t0)
            to_serve.append(elapsed)
            busy += elapsed
            rows += 1
            checks.append((request_id, record, probe[np.newaxis, :], value))
        elif step % BULK_EVERY == 0:
            if repeats_rows(bulk_count):
                block = setup.hit_pool[int(rng.integers(len(setup.hit_pool)))]
            else:
                block = circuit.testbench.sample(Stage.POST_LAYOUT, BULK_ROWS, rng)
            bulk_count += 1
            elapsed = serve("request.bulk", name, block, request_id)
            if elapsed is not None:
                bulks.append(elapsed)
                busy += elapsed
        else:
            row = setup.point_pool[int(rng.integers(len(setup.point_pool)))]
            elapsed = serve("request.point", name, row, request_id)
            if elapsed is not None:
                points.append(elapsed)
                busy += elapsed
    cv_outside_refits += runtime_metrics.count("bmf.cv_evaluations") - before.get("bmf.cv_evaluations", 0)
    delta = snapshot_delta(before, runtime_metrics.snapshot())
    router_stats = router.stats()

    # Verification runs after the measured stream.
    for request_id, version, x, served in checks:
        expected = version.model.predict(x)
        if served.shape != expected.shape or not np.array_equal(served, expected):
            result.failures.append(
                f"{request_id}: served prediction differs from FittedModel.predict "
                f"of {version.name} v{version.version}"
            )
    if cv_outside_refits:
        result.failures.append(f"{cv_outside_refits} CV evaluations outside refit steps")
    # Every version the run published, the set-up's included: more models
    # in the mean make it steadier across seeds.
    published = list(setup.initial_versions) + new_versions
    errors = [relative_error(v.model.predict(circuit.test_x), circuit.test_f) for v in published]

    result.e2e = {
        "fit_s": float(np.median(refit_s)),
        "fit_rel_error": float(np.mean(errors)),
    }
    result.e2e.update(_serving_e2e(points, bulks, to_serve, rows, busy))
    result.counts = {
        "steps": step,
        "points": len(points),
        "bulks": len(bulks),
        "refits": refits,
        "checked": len(checks),
    }
    result.layers = runtime_layers(delta)
    batches = result.layers["serving.batches"]
    result.layers["serving.rows_per_batch"] = rows / batches if batches else 0.0
    result.layers["serving.queue_peak"] = max(
        (int(s["peak_queue_depth"]) for s in router_stats["shards"].values()), default=0
    )
    incremental = int(delta.get("woodbury.incremental_refits", 0))
    result.layers["bmf.sequential.incremental_ratio"] = incremental / refits if refits else 0.0
    result.layers["bmf.cv.share_of_fit"] = result.layers["bmf.cv.busy_s"] / sum(refit_s)
    if tracer.enabled:
        result.layers.update(span_layers(tracer))
        for span in tracer.spans:
            if span.name.startswith("bmf.") and not any(
                a.name == "refit" for a in tracer.ancestors(span)
            ):
                result.failures.append(f"bmf span {span.name} outside a refit step")


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer, out_dir: Path) -> RunResult:
    if name in FIT_WORKLOADS:
        return run_fit_workload(name, seed, seconds, tracer)
    if name == "serve-stream":
        return run_serve_stream(seed, seconds, tracer, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
