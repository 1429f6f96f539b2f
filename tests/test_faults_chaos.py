"""Deterministic chaos suite: the serving loop under injected faults.

Every test drives the real fit -> publish -> serve pipeline
(:func:`repro.experiments.run_chaos_stream`) with a seeded
:class:`~repro.faults.FaultPlan` armed, and asserts the self-healing
contract end to end:

* every request completes (served from the current or last-good version),
* the served model is never stale by more than one version,
* the same seed yields a bitwise-identical counter signature.

The whole module carries the ``chaos`` marker so the nightly CI job can
run it alone (``pytest -m chaos``) across a seed sweep.  The sweep width
comes from ``REPRO_CHAOS_SEEDS`` -- either a count (``5`` -> seeds 0..4)
or an explicit comma list (``3,17,99``); unset, a single seed keeps the
tier-1 run fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.experiments import (
    run_chaos_stream,
    run_crash_recovery_stream,
    run_rolling_restart_drill,
)
from repro.faults import CircuitBreaker, FaultPlan, inject
from repro.linalg import SolverError
from repro.regression import FittedModel
from repro.runtime.cache import DesignMatrixCache, set_design_cache
from repro.runtime.metrics import metrics
from repro.serving import ModelRegistry, PredictionEngine

pytestmark = pytest.mark.chaos

#: Fixed-eta configuration: refits go through the border-updated Cholesky
#: factor, where injected ``solver.cholesky`` faults are absorbed by the
#: woodbury fallback path instead of failing the whole refit.
FIXED_ETA = {"prior_kind": "nonzero-mean", "eta": 1e-3}


def _chaos_seeds():
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "").strip()
    if not raw:
        return (0,)
    if "," in raw:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return tuple(range(int(raw)))


SEEDS = _chaos_seeds()


def _run(testbench, seed=0, fault_plans=(), **overrides):
    kwargs = dict(
        batch_sizes=(20, 8, 8),
        requests_per_batch=8,
        test_size=40,
        early_samples=300,
        sequential_kwargs=FIXED_ETA,
    )
    kwargs.update(overrides)
    return run_chaos_stream(
        testbench, "power", seed=seed, fault_plans=fault_plans, **kwargs
    )


@pytest.fixture
def tiny_cache():
    """A global design cache with no size floor, so single-row serving
    requests actually exercise the ``cache.lookup`` failpoint."""
    previous = set_design_cache(DesignMatrixCache(min_result_cells=1))
    try:
        yield
    finally:
        set_design_cache(previous)


def _counter(name):
    return metrics.counters().get(name, 0)


class TestSolverFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_failures_absorbed_by_fallback(self, tiny_ro, seed):
        """>=10% of Cholesky factorizations fail; refits and serving survive."""
        plans = (
            FaultPlan.fail_every(
                "solver.cholesky", 2, error=SolverError("chaos: injected")
            ),
        )
        report = _run(tiny_ro, seed=seed, fault_plans=plans)
        hits = report.fault_counters.get("faults.hits", 0)
        injected = report.fault_counters.get(
            "faults.injected.solver.cholesky", 0
        )
        assert injected >= 1
        assert injected / hits >= 0.10
        # The woodbury fallback absorbs the failure inside the refit.
        assert all(outcome.ok for outcome in report.refit_outcomes)
        assert report.answered_fraction == 1.0
        assert report.failed_requests == 0
        assert report.max_version_lag <= 1

    def test_refit_failure_rolls_back_and_serving_continues(self, tiny_ro):
        """A refit killed mid-flight skips its publish; requests keep being
        answered from the last successfully published version."""
        failed_before = _counter("sequential.failed_refits")
        plans = (FaultPlan.fail_every("sequential.refit", 2, max_triggers=1),)
        report = _run(tiny_ro, fault_plans=plans)
        outcomes = report.refit_outcomes
        assert outcomes[0].ok and not outcomes[1].ok and outcomes[2].ok
        assert outcomes[1].error_type == "InjectedFault"
        assert _counter("sequential.failed_refits") - failed_before == 1
        assert report.publish_attempts == 2  # failed refit never publishes
        assert report.versions_published == 2
        assert report.answered_fraction == 1.0
        assert report.max_version_lag <= 1

    def test_refits_hard_failed_by_map_solver_faults(self, tiny_ro):
        """Killing the MAP dual solve fails the refit outright (no fallback
        exists on that path); serving still answers from last-good."""
        # Count the solver.map hits of the first refit and of the first two
        # (a plan that never fires still counts its hits), then put the
        # single trigger mid-way through refit 2.
        counting = (FaultPlan.fail_every("solver.map", 10**9),)
        hits_through = [
            _run(
                tiny_ro,
                fault_plans=counting,
                sequential_kwargs={},
                batch_sizes=(20, 8)[:refits],
            ).fault_counters["faults.hits"]
            for refits in (1, 2)
        ]
        assert 0 < hits_through[0] < hits_through[1]
        trigger = (hits_through[0] + hits_through[1] + 1) // 2
        plans = (FaultPlan.fail_every("solver.map", trigger, max_triggers=1),)
        report = _run(tiny_ro, fault_plans=plans, sequential_kwargs={})
        outcomes = report.refit_outcomes
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "InjectedFault"
        assert report.versions_published == 2
        assert report.answered_fraction == 1.0
        assert report.max_version_lag <= 1


class TestCacheCorruption:
    def test_poisoned_cache_entry_self_heals(self, tiny_cache):
        """A corrupted cached design matrix is evicted, recomputed, and never
        surfaces in a prediction.

        The model is quadratic because a linear basis never consults the
        design cache.  Each query is asked twice in a row, so its second
        request is a cache hit: the first such hit is poisoned.
        """
        basis = OrthonormalBasis.total_degree(4, 2)
        rng = np.random.default_rng(11)
        model = FittedModel(basis, rng.standard_normal(basis.size))
        registry = ModelRegistry()
        registry.publish("m", model)
        queries = np.repeat(rng.standard_normal((4, basis.num_vars)), 2, axis=0)
        injected_before = _counter("faults.injected.cache.lookup")
        evictions_before = _counter("design_cache.corrupt_evictions")
        with PredictionEngine(registry, workers=1) as engine:
            with inject(FaultPlan.fail_once("cache.lookup")):
                # One blocking request at a time: each is its own batch.
                answers = [engine.predict("m", row) for row in queries]
        assert _counter("faults.injected.cache.lookup") - injected_before == 1
        assert _counter("design_cache.corrupt_evictions") - evictions_before == 1
        assert len(answers) == len(queries)
        for row, answer in zip(queries, answers):
            assert np.array_equal(answer, model.predict(row[None, :]))


class TestLatencyAndPublish:
    def test_worker_latency_spike_answers_everything(self, tiny_ro):
        plans = (FaultPlan.latency("engine.evaluate", 0.02, every=5),)
        report = _run(tiny_ro, seed=3, fault_plans=plans, batch_sizes=(20, 8))
        assert report.fault_counters.get("faults.delays", 0) >= 1
        assert report.answered_fraction == 1.0
        assert report.failed_requests == 0

    def test_publish_failure_keeps_serving_last_good(self, tiny_ro):
        plans = (FaultPlan.fail_every("registry.publish", 2),)
        report = _run(tiny_ro, seed=5, fault_plans=plans)
        assert report.publish_rejections >= 1
        assert (
            report.versions_published
            == report.publish_attempts - report.publish_rejections
        )
        assert (
            report.serving_counters.get("serving.rejected_publishes")
            == report.publish_rejections
        )
        # A rejected publish never evicts the served version.
        assert report.answered_fraction == 1.0
        assert report.max_version_lag <= 1


class TestBreakerSchedule:
    def test_breaker_trips_and_half_open_probe_recovers(self, tiny_ro):
        """End to end: consecutive evaluation failures trip the breaker, the
        half-open probe goes through once the window elapses, and a healthy
        probe closes the circuit again."""
        basis = OrthonormalBasis.total_degree(3, 2)
        coefficients = np.zeros(basis.size)
        coefficients[0] = 1.0
        registry = ModelRegistry()
        registry.publish("m", FittedModel(basis, coefficients))
        key = registry.current("m").key
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_seconds=1e-6)
        x = np.zeros(basis.num_vars)
        plans = (
            # Six injected failures = 2 requests x 3 retry attempts, enough
            # to open the breaker; the probe afterwards finds a healthy path.
            FaultPlan.fail_every("engine.evaluate", 1, max_triggers=6),
        )
        opened_before = _counter("serving.breaker.opened")
        half_before = _counter("serving.breaker.half_opened")
        closed_before = _counter("serving.breaker.closed")
        with PredictionEngine(
            registry, breaker=breaker, serve_last_good=False, workers=1
        ) as engine:
            with inject(*plans):
                for _ in range(2):
                    with pytest.raises(Exception):
                        engine.predict("m", x)
                assert breaker.state(key) in ("open", "half_open")
                # reset_timeout has long elapsed: exactly one probe runs,
                # succeeds, and closes the circuit.
                assert engine.predict("m", x) == pytest.approx(
                    coefficients[0] * basis.design_matrix(x[None, :])[0, 0]
                )
            assert breaker.state(key) == "closed"
        assert _counter("serving.breaker.opened") - opened_before == 1
        assert _counter("serving.breaker.half_opened") - half_before == 1
        assert _counter("serving.breaker.closed") - closed_before == 1


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_is_bitwise_identical(self, tiny_ro, seed):
        def plans():
            # Fresh plan objects per run: plans are frozen, but a fresh tuple
            # documents that no armed state leaks between runs.
            return (
                FaultPlan.fail_every("solver.cholesky", 2, error=SolverError("chaos")),
                FaultPlan.fail_once("cache.lookup"),
            )
        first = _run(
            tiny_ro, seed=seed, fault_plans=plans(), requests_per_batch=6
        )
        second = _run(
            tiny_ro, seed=seed, fault_plans=plans(), requests_per_batch=6
        )
        assert first.deterministic_signature() == second.deterministic_signature()
        assert first.fault_counters == second.fault_counters
        assert first.serving_counters == second.serving_counters

    def test_acceptance_mix(self, tiny_ro):
        """The acceptance scenario: every second Cholesky factorization
        fails -> 100% of requests complete, the served model is never stale
        beyond one version, and the run is reproducible.  A poisoned-cache
        plan is armed too, but tiny RO's basis is linear and never consults
        the design cache, so it never fires here; ``TestCacheCorruption``
        covers the poisoned entry."""
        def plans():
            return (
                FaultPlan.fail_every("solver.cholesky", 2, error=SolverError("chaos")),
                FaultPlan.fail_once("cache.lookup"),
            )

        def run_with_fresh_cache():
            # A fresh cache per run: a warm global cache would change which
            # lookups hit, making the two signatures incomparable.
            previous = set_design_cache(DesignMatrixCache(min_result_cells=1))
            try:
                return _run(tiny_ro, seed=9, fault_plans=plans())
            finally:
                set_design_cache(previous)

        first = run_with_fresh_cache()
        second = run_with_fresh_cache()
        assert first.answered_fraction == 1.0
        assert first.failed_requests == 0
        assert first.max_version_lag <= 1
        injected = first.fault_counters.get("faults.injected", 0)
        assert injected >= 1
        assert first.fault_counters.get("faults.injected.solver.cholesky", 0) >= 1
        assert first.deterministic_signature() == second.deterministic_signature()

    def test_report_format_is_human_readable(self, tiny_ro):
        report = _run(tiny_ro, batch_sizes=(20,), requests_per_batch=2)
        text = report.format()
        assert "power" in text
        assert str(report.answered_requests) in text


def _run_crash(testbench, store_root, seed=0, crash_failpoint="store.fsync", **overrides):
    kwargs = dict(
        batch_sizes=(20, 8, 8),
        crash_after_batches=1,
        requests_per_batch=8,
        test_size=40,
        early_samples=300,
        max_queue_depth=8,
        sequential_kwargs=FIXED_ETA,
    )
    kwargs.update(overrides)
    return run_crash_recovery_stream(
        testbench,
        "power",
        store_root,
        seed=seed,
        crash_failpoint=crash_failpoint,
        **kwargs,
    )


def _run_shard_kill(store_root, seed=0, **overrides):
    from repro.loadgen import LoadConfig, run_load

    kwargs = dict(
        seed=seed,
        num_requests=200,
        num_tenants=6,
        num_models=8,
        num_shards=3,
        replication_factor=2,
        max_queue_depth=32,
        workers=1,
        kill_shard_after=100,
    )
    kwargs.update(overrides)
    return run_load(LoadConfig(**kwargs), store_root)


class TestShardKill:
    """The ISSUE acceptance scenario for the sharded tier: kill one shard
    mid-traffic.  Every accepted request must still be answered, the dead
    shard's keys must be served from warm follower replicas (no refit, no
    store backfill), the served version lag stays bounded, and the same
    seed produces a bitwise-identical report signature."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_mid_traffic_answers_everything(self, tmp_path, seed):
        report = _run_shard_kill(tmp_path, seed=seed)
        assert report.killed_shard is not None
        assert report.failovers == 1
        assert report.rebalanced_keys >= 1
        # 100% of accepted requests answered, before and after the kill.
        assert report.failed == 0
        assert report.expired == 0
        assert report.answered == report.admitted
        assert report.post_kill_answered == report.post_kill_admitted
        assert report.post_kill_admitted >= 1
        # Warm failover: the survivors' followers replicated every model
        # at publish time, so no request ever backfills from the store
        # (let alone refits from scratch).
        assert report.backfills == 0
        assert report.replica_applied >= report.rebalanced_keys
        assert report.max_version_lag <= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_is_bitwise_identical(self, tmp_path, seed):
        first = _run_shard_kill(tmp_path / "a", seed=seed)
        second = _run_shard_kill(tmp_path / "b", seed=seed)
        assert (
            first.deterministic_signature() == second.deterministic_signature()
        )

    def test_report_format_is_human_readable(self, tmp_path):
        report = _run_shard_kill(tmp_path, num_requests=60, kill_shard_after=30)
        text = report.format()
        assert "rebalanced" in text
        assert str(report.killed_shard) in text


class TestCrashRecovery:
    """The ISSUE acceptance scenario: fit -> publish -> kill -> recover
    -> serve.  The kill lands mid-publish at a ``store.*`` failpoint; the
    recovered registry must be bitwise identical to the last durable
    pre-crash snapshot, zero corrupt records may ever be served, the
    sequential fitter warm-restarts from its persisted Cholesky factor,
    and a 2x saturation burst sheds within the queue bound."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("crash_failpoint", ["store.write", "store.fsync"])
    def test_kill_mid_publish_recovers_bitwise(
        self, tiny_ro, tmp_path, seed, crash_failpoint
    ):
        report = _run_crash(
            tiny_ro, tmp_path, seed=seed, crash_failpoint=crash_failpoint
        )
        assert report.crash_observed
        assert report.recovered_bitwise_identical
        assert report.rearmed  # warm restart from the persisted factor
        assert report.recovered_versions == (("power", 1),)
        if crash_failpoint == "store.fsync":
            # Lost fsync: the rename landed on a torn record -- recovery
            # must quarantine it, never serve it.
            assert report.records_visible_after_crash == 2
            assert report.quarantined_records == 1
            assert report.store_counters.get("store.corrupt_quarantined") == 1
            assert report.store_counters.get("store.torn_writes") == 1
        else:
            # Crash mid-write: the temp file was abandoned pre-rename, so
            # nothing new is visible and nothing needs quarantining.
            assert report.records_visible_after_crash == 1
            assert report.quarantined_records == 0
        # Every request before and after the crash was answered.
        assert report.failed_requests == 0
        assert report.answered_requests == 3 * 8

    @pytest.mark.parametrize("seed", SEEDS)
    def test_burst_sheds_within_the_bound(self, tiny_ro, tmp_path, seed):
        report = _run_crash(tiny_ro, tmp_path, seed=seed)
        bound = report.queue_bound
        # 2x-bound burst against a paused dispatcher: every staged expired
        # request is shed, every overflow live submit is rejected, and the
        # depth never exceeded the bound.
        assert report.burst_staged_expired == bound
        assert report.burst_live_submitted == bound
        assert report.burst_rejected == bound
        assert report.burst_answered == bound
        assert report.shed_expired == bound
        assert report.shed_rejected == bound
        assert report.peak_queue_depth <= bound
        assert report.serving_counters.get("serving.shed.expired") == bound
        assert report.serving_counters.get("serving.shed.rejected") == bound

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_is_bitwise_identical(self, tiny_ro, tmp_path, seed):
        first = _run_crash(tiny_ro, tmp_path / "a", seed=seed)
        second = _run_crash(tiny_ro, tmp_path / "b", seed=seed)
        assert first.deterministic_signature() == second.deterministic_signature()
        assert first.store_counters == second.store_counters
        assert first.serving_counters == second.serving_counters

    def test_report_format_is_human_readable(self, tiny_ro, tmp_path):
        report = _run_crash(tiny_ro, tmp_path)
        text = report.format()
        assert "store.fsync" in text
        assert "bitwise identical" in text
        assert "True" in text


class TestLockWatchdog:
    """Watchdog-on chaos: the acceptance scenarios re-run with every lock
    created through ``repro.locks`` tracked.  The runtime acquisition
    graph must confirm the static REP012 model — no cycles, no
    inversions — and tracking must not perturb the same-seed
    deterministic signature."""

    def test_shard_kill_acquisition_graph_is_clean(self, tmp_path):
        from repro.locks import watch_locks

        with watch_locks() as wd:
            report = _run_shard_kill(tmp_path, seed=SEEDS[0])
        payload = wd.report()
        assert payload["cycles"] == []
        assert payload["inversions"] == []
        # The run really was tracked: the serving-tier locks show up.
        tracked = set(payload["locks"])
        assert any(name.startswith("serving.") for name in tracked)
        assert report.failed == 0

    def test_crash_recovery_acquisition_graph_is_clean(self, tiny_ro, tmp_path):
        from repro.locks import watch_locks

        with watch_locks() as wd:
            report = _run_crash(tiny_ro, tmp_path, seed=SEEDS[0])
        payload = wd.report()
        assert payload["cycles"] == []
        assert payload["inversions"] == []
        tracked = set(payload["locks"])
        assert "store.append" in tracked
        assert report.recovered_bitwise_identical

    def test_observed_edges_are_a_subset_of_the_static_model(self, tmp_path):
        from repro.analysis import LintEngine
        from repro.analysis.concurrency import LockOrderRule
        from repro.locks import watch_locks

        rule = LockOrderRule()
        engine = LintEngine(rules=[rule])
        assert engine.lint_paths(["src"]) == []
        static_nodes = {node for edge in rule.edges() for node in edge}

        with watch_locks() as wd:
            _run_shard_kill(tmp_path, seed=SEEDS[0])
        # Every observed nested acquisition is between locks the static
        # pass knows about (names differ: runtime uses dotted site names,
        # static uses Class.attr -- so compare shape, not labels: the
        # runtime graph must be acyclic exactly like the static one).
        assert static_nodes  # the static model is not degenerate
        assert wd.cycles() == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_watchdog_preserves_shard_kill_signature(self, tmp_path, seed):
        from repro.locks import watch_locks

        baseline = _run_shard_kill(tmp_path / "off", seed=seed)
        with watch_locks() as wd:
            tracked = _run_shard_kill(tmp_path / "on", seed=seed)
            wd.publish_metrics()  # lock.* counters are signature-exempt
        assert (
            tracked.deterministic_signature()
            == baseline.deterministic_signature()
        )

    def test_watchdog_preserves_crash_recovery_signature(self, tiny_ro, tmp_path):
        from repro.locks import watch_locks

        baseline = _run_crash(tiny_ro, tmp_path / "off", seed=SEEDS[0])
        with watch_locks() as wd:
            tracked = _run_crash(tiny_ro, tmp_path / "on", seed=SEEDS[0])
            wd.publish_metrics()
        assert (
            tracked.deterministic_signature()
            == baseline.deterministic_signature()
        )
        assert tracked.store_counters == baseline.store_counters
        assert tracked.serving_counters == baseline.serving_counters


def _run_drill(store_root, seed=0, **overrides):
    kwargs = dict(
        num_shards=3,
        replication_factor=2,
        num_models=3,
        pre_batches=2,
        batch_size=12,
        requests_per_phase=5,
        seed=seed,
        engine_kwargs={"workers": 1, "max_delay_seconds": 0.0},
    )
    kwargs.update(overrides)
    return run_rolling_restart_drill(store_root, **kwargs)


class TestRollingRestartDrill:
    """The ISSUE acceptance scenario for zero-downtime restarts: every
    shard is restarted one at a time under live traffic, over a store
    that was compacted mid-drill.  100% of accepted requests must be
    answered, no refit-from-scratch may land on the critical path (warm
    ``rearm()`` only), and the same seed must produce a bitwise-identical
    signature."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_failed_requests_across_restarts(self, tmp_path, seed):
        report = _run_drill(tmp_path, seed=seed)
        assert report.failed_requests == 0
        assert report.answered_requests == report.requests_issued
        assert report.requests_issued >= 1
        # Every shard restarted exactly once and came back warm.
        assert tuple(report.restart_order) == (0, 1, 2)
        assert all(count >= 1 for count in report.restart_restored)
        # The drill crossed a real compaction boundary.
        assert report.compacted and report.generation == 1
        assert report.checkpoint_offset >= 1
        # Warm path only: one rearm per model, zero refits-from-scratch.
        assert report.rearms == report.num_models
        assert report.woodbury_fallbacks == 0
        assert all(mode == "incremental" for mode in report.rearm_modes)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_is_bitwise_identical(self, tmp_path, seed):
        first = _run_drill(tmp_path / "a", seed=seed)
        second = _run_drill(tmp_path / "b", seed=seed)
        assert (
            first.deterministic_signature() == second.deterministic_signature()
        )

    def test_drill_without_compaction_also_holds(self, tmp_path):
        report = _run_drill(tmp_path, seed=SEEDS[0], compact_between=False)
        assert report.failed_requests == 0
        assert report.generation == 0
        assert report.checkpoint_offset == 0
        assert all(mode == "incremental" for mode in report.rearm_modes)

    def test_rolling_restart_acquisition_graph_is_clean(self, tmp_path):
        from repro.locks import watch_locks

        with watch_locks() as wd:
            report = _run_drill(tmp_path, seed=SEEDS[0])
        payload = wd.report()
        assert payload["cycles"] == []
        assert payload["inversions"] == []
        tracked = set(payload["locks"])
        assert any(name.startswith("serving.") for name in tracked)
        assert report.failed_requests == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_watchdog_preserves_drill_signature(self, tmp_path, seed):
        from repro.locks import watch_locks

        baseline = _run_drill(tmp_path / "off", seed=seed)
        with watch_locks() as wd:
            tracked = _run_drill(tmp_path / "on", seed=seed)
            wd.publish_metrics()  # lock.* counters are signature-exempt
        assert (
            tracked.deterministic_signature()
            == baseline.deterministic_signature()
        )

    def test_report_format_is_human_readable(self, tmp_path):
        report = _run_drill(tmp_path)
        text = report.format()
        assert "Rolling-restart drill" in text
        assert "requests answered" in text
        assert "warm rearms" in text


def _run_slow_shard(store_root, seed=0, hedge=True, slow=True, **overrides):
    """One tail-tolerance run: optional slow shard, optional hedging.

    The hedge delay is pinned tiny (both the warm-up initial delay and
    the adaptive clamp) so hedges fire well inside the injected stall,
    and the budget is generous -- the *tight*-budget behavior is covered
    by ``tests/test_serving_health.py``; here the contract under test is
    the p99 rescue and the budget ceiling.
    """
    from repro.loadgen import LoadConfig, run_load

    kwargs = dict(
        seed=seed,
        num_requests=200,
        num_tenants=6,
        num_models=8,
        num_shards=3,
        replication_factor=2,
        max_queue_depth=64,
        workers=1,
        hedge=hedge,
        hedge_budget_fraction=0.5,
        hedge_initial_delay_seconds=0.004,
        hedge_min_delay_seconds=0.002,
        hedge_max_delay_seconds=0.004,
        slow_shard_latency_seconds=0.05 if slow else 0.0,
        slow_shard_every=4,
    )
    kwargs.update(overrides)
    return run_load(LoadConfig(**kwargs), store_root)


class TestSlowShardHedging:
    """The ISSUE acceptance scenario for tail tolerance: one shard's
    evaluations stall ~10x the healthy latency.  Hedged requests must
    rescue the tail -- p99 bounded relative to the healthy baseline while
    the no-hedge control blows through the bound -- with zero failed
    requests, hedge volume inside the configured budget, and a
    bitwise-identical same-seed report signature."""

    #: Healthy p99 floor (ms): sub-ms baselines would make the 3x bound
    #: meaninglessly tight on a loaded CI box.
    _P99_FLOOR_MS = 5.0

    def _p99_bound(self, baseline_report):
        return 3.0 * max(baseline_report.latency_p99_ms, self._P99_FLOOR_MS)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hedging_rescues_p99_where_control_fails(self, tmp_path, seed):
        baseline = _run_slow_shard(
            tmp_path / "base", seed=seed, hedge=False, slow=False
        )
        control = _run_slow_shard(
            tmp_path / "ctrl", seed=seed, hedge=False, slow=True
        )
        hedged = _run_slow_shard(
            tmp_path / "hedge", seed=seed, hedge=True, slow=True
        )
        bound = self._p99_bound(baseline)
        # The un-hedged control eats the injected 50ms stalls in its tail;
        # the hedged run answers those requests from a warm replica well
        # inside the bound.
        assert control.latency_p99_ms > bound
        assert hedged.latency_p99_ms <= bound

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_request_answered_and_budget_respected(self, tmp_path, seed):
        hedged = _run_slow_shard(tmp_path, seed=seed)
        assert hedged.slow_shard is not None
        assert hedged.failed == 0
        assert hedged.expired == 0
        assert hedged.answered == hedged.admitted
        # Hedging actually engaged, and stayed inside the token budget.
        assert hedged.hedged >= 1
        assert hedged.hedge_wins >= 1
        assert hedged.hedged <= 0.5 * hedged.submitted + 4.0
        assert hedged.hedge_wins + hedged.hedge_primary_wins <= hedged.hedged

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_is_bitwise_identical(self, tmp_path, seed):
        first = _run_slow_shard(tmp_path / "a", seed=seed)
        second = _run_slow_shard(tmp_path / "b", seed=seed)
        assert (
            first.deterministic_signature() == second.deterministic_signature()
        )

    def test_report_format_mentions_hedging(self, tmp_path):
        report = _run_slow_shard(tmp_path, num_requests=60)
        text = report.format()
        assert "hedged" in text
