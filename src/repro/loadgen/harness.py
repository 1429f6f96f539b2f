"""Seeded synthetic-load harness for the sharded serving tier.

Drives high request volumes from many simulated tenants against a
:class:`~repro.serving.ShardRouter`, with a per-tenant **admission
quota** layered on top of the engines' ``max_queue_depth`` shedding:

1. **publish** -- ``num_models`` synthetic models (seeded coefficients on
   a shared Hermite basis) are published through the router; the shared
   store journal replicates each one to its ring replicas at publish
   time;
2. **traffic** -- ``num_requests`` requests are generated from the seed
   (tenant, model, and query rows are all seeded draws).  A tenant over
   its quota is rejected at the harness gate (``loadgen.quota_rejected``)
   without ever touching an engine; everything else is submitted and
   awaited sequentially, so the outcome counts are a pure function of
   the seed.  Optionally, ``kill_shard_after`` kills one shard
   mid-traffic: the router rebalances its names to survivors whose
   followers already hold warm replicas, and the harness keeps driving;
3. **overload burst** (optional) -- :func:`overload_burst`, shared with
   the crash-recovery drill: with one engine's dispatcher paused, the
   queue is saturated with already-expired requests and then hit with a
   live burst, exercising shed-oldest-expired-then-reject admission
   control with deterministic counts.

The result is a :class:`~repro.loadgen.report.LoadReport`: latency
percentiles (p50/p99/p999), throughput, and the full deterministic
event-count signature, serializable to the schema-checked JSON that CI
archives under ``benchmarks/results/``.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..basis import OrthonormalBasis
from ..faults import Deadline, DeadlineExpiredError, FaultPlan, inject
from ..regression.base import FittedModel
from ..runtime.metrics import counters_delta, metrics
from ..serving import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    BrownoutController,
    BrownoutShedError,
    EngineOverloadedError,
    HedgePolicy,
    ShardRouter,
)
from .report import LoadReport, latency_percentiles

__all__ = ["BurstOutcome", "LoadConfig", "overload_burst", "run_load"]

#: The synthetic fleet's shared Hermite basis: total degree 2 in 4 variables.
_BASIS_VARS = 4
_BASIS_DEGREE = 2


@dataclass(frozen=True)
class LoadConfig:
    """Frozen configuration of one synthetic-load run.

    Everything random in the run -- model coefficients, tenant/model
    assignment per request, query rows -- derives from ``seed`` alone.
    """

    seed: int = 0
    num_requests: int = 1000
    num_tenants: int = 8
    num_models: int = 8
    num_shards: int = 2
    replication_factor: int = 2
    #: Max requests a tenant may submit per run; ``None`` disables the gate.
    tenant_quota: Optional[int] = None
    max_queue_depth: int = 64
    workers: int = 2
    #: Dispatcher linger; zero keeps sequential-await latency flat.
    max_delay_seconds: float = 0.0
    request_timeout_seconds: float = 30.0
    rows_per_request: int = 1
    #: Kill one shard after this many generated requests (``None`` = never).
    kill_shard_after: Optional[int] = None
    #: Which shard to kill; ``None`` picks the first model's primary, so
    #: the kill is guaranteed to rebalance at least one key.
    kill_shard: Optional[int] = None
    #: Saturation factor of the optional :func:`overload_burst` phase
    #: against ``max_queue_depth`` (0 = skip).
    overload_burst: int = 0
    #: Enable hedged requests on the router (see ``docs/serving.md``,
    #: "Health, hedging, and brownout").
    hedge: bool = False
    hedge_budget_fraction: float = 0.05
    hedge_min_samples: int = 16
    hedge_initial_delay_seconds: float = 0.05
    hedge_min_delay_seconds: float = 0.001
    hedge_max_delay_seconds: float = 1.0
    #: Inject latency into one shard's ``engine.evaluate`` during the
    #: traffic phase (the slow-shard chaos scenario).  ``slow_shard=None``
    #: with a positive latency degrades the first model's primary, so the
    #: slow shard is guaranteed to serve traffic.
    slow_shard: Optional[int] = None
    slow_shard_latency_seconds: float = 0.0
    slow_shard_every: int = 1
    #: Enable brownout shedding (engines reject low-priority work while
    #: their health score is degraded).
    brownout: bool = False
    #: Seeded fraction of traffic submitted at ``PRIORITY_LOW``.
    low_priority_fraction: float = 0.0

    def __post_init__(self):
        for name in (
            "num_requests",
            "num_tenants",
            "num_models",
            "num_shards",
            "replication_factor",
            "max_queue_depth",
            "workers",
            "rows_per_request",
        ):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.tenant_quota is not None and self.tenant_quota < 0:
            raise ValueError(
                f"tenant_quota must be >= 0 or None, got {self.tenant_quota}"
            )
        if self.kill_shard_after is not None and not (
            0 <= self.kill_shard_after <= self.num_requests
        ):
            raise ValueError(
                f"kill_shard_after must be in [0, {self.num_requests}], "
                f"got {self.kill_shard_after}"
            )
        if self.kill_shard is not None and not (
            0 <= self.kill_shard < self.num_shards
        ):
            raise ValueError(
                f"kill_shard must be in [0, {self.num_shards}), "
                f"got {self.kill_shard}"
            )
        if self.overload_burst < 0:
            raise ValueError(
                f"overload_burst must be >= 0, got {self.overload_burst}"
            )
        if self.request_timeout_seconds <= 0:
            raise ValueError(
                "request_timeout_seconds must be > 0, got "
                f"{self.request_timeout_seconds}"
            )
        if not 0.0 < self.hedge_budget_fraction <= 1.0:
            raise ValueError(
                "hedge_budget_fraction must be in (0, 1], got "
                f"{self.hedge_budget_fraction}"
            )
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be >= 1, got {self.hedge_min_samples}"
            )
        for name in (
            "hedge_initial_delay_seconds",
            "hedge_min_delay_seconds",
            "hedge_max_delay_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.hedge_min_delay_seconds > self.hedge_max_delay_seconds:
            raise ValueError(
                "hedge_min_delay_seconds must be <= hedge_max_delay_seconds"
            )
        if self.slow_shard is not None and not (
            0 <= self.slow_shard < self.num_shards
        ):
            raise ValueError(
                f"slow_shard must be in [0, {self.num_shards}), "
                f"got {self.slow_shard}"
            )
        if self.slow_shard_latency_seconds < 0:
            raise ValueError(
                "slow_shard_latency_seconds must be >= 0, got "
                f"{self.slow_shard_latency_seconds}"
            )
        if self.slow_shard_every < 1:
            raise ValueError(
                f"slow_shard_every must be >= 1, got {self.slow_shard_every}"
            )
        if not 0.0 <= self.low_priority_fraction <= 1.0:
            raise ValueError(
                "low_priority_fraction must be in [0, 1], got "
                f"{self.low_priority_fraction}"
            )


def _model_name(index: int) -> str:
    return f"model-{index:04d}"


class BurstOutcome(NamedTuple):
    """Counts of one :func:`overload_burst` (all zero when none ran):
    expired requests staged, live submits attempted, live submits
    rejected, and live requests answered."""

    staged: int = 0
    submitted: int = 0
    rejected: int = 0
    answered: int = 0


def overload_burst(
    engine, name: str, x, bound: int, factor: int, timeout: float
) -> BurstOutcome:
    """Saturate ``engine``'s queue against a paused dispatcher.

    Stages ``bound`` already-expired requests for row ``x`` of model
    ``name``, submits ``factor * bound`` live ones, resumes dispatch,
    then awaits the admitted ones one at a time.  With ``bound`` the
    engine's ``max_queue_depth``, shed-oldest-expired-then-reject
    admission makes every count a pure function of the arguments.
    """
    engine.pause_dispatch()
    stale = Deadline.after(1e-9)
    while not stale.expired:  # nanosecond fuse; burns out instantly
        pass
    staged = [engine.submit(name, x, deadline=stale) for _ in range(bound)]
    live = []
    rejected = 0
    for _ in range(factor * bound):
        try:
            live.append(engine.submit(name, x, timeout=timeout))
        except EngineOverloadedError:
            rejected += 1
    engine.resume_dispatch()
    answered = 0
    for future in live:
        try:
            future.result(timeout=timeout)
        except Exception:
            continue  # unanswered: absent from the answered count
        answered += 1
    for future in staged:  # shed futures resolve with an exception
        future.exception(timeout=timeout)
    return BurstOutcome(len(staged), factor * bound, rejected, answered)


def run_load(config: LoadConfig, store_root) -> LoadReport:
    """Run the synthetic-load harness; returns the structured report.

    ``store_root`` is the directory backing the shared
    :class:`~repro.store.ModelStore` (the replication log); a fresh
    temporary directory gives a hermetic run.
    """
    rng = np.random.default_rng(config.seed)
    basis = OrthonormalBasis.total_degree(_BASIS_VARS, _BASIS_DEGREE)
    counters_before = metrics.counters()

    quota_rejected = submitted = 0
    shed_rejected = answered = failed = expired = 0
    post_kill_admitted = post_kill_answered = 0
    burst = BurstOutcome()
    brownout_shed = 0
    killed_shard: Optional[int] = None
    tenant_admitted: Dict[str, int] = {}
    latencies: List[float] = []

    hedge_policy = (
        HedgePolicy(
            budget_fraction=config.hedge_budget_fraction,
            min_samples=config.hedge_min_samples,
            initial_delay_seconds=config.hedge_initial_delay_seconds,
            min_delay_seconds=config.hedge_min_delay_seconds,
            max_delay_seconds=config.hedge_max_delay_seconds,
        )
        if config.hedge
        else None
    )
    engine_kwargs = {
        "max_queue_depth": config.max_queue_depth,
        "workers": config.workers,
        "max_delay_seconds": config.max_delay_seconds,
    }
    if config.brownout:
        # One controller shared by every shard: the harness wants fleet-wide
        # shed counts, and admit() takes each engine's score and keeps each
        # engine's regime.
        engine_kwargs["brownout"] = BrownoutController()

    router = ShardRouter(
        store_root,
        num_shards=config.num_shards,
        replication_factor=config.replication_factor,
        engine_kwargs=engine_kwargs,
        hedge=hedge_policy,
    )
    with router:
        # ----- Phase 1: publish the synthetic model fleet ---------------
        names = [_model_name(index) for index in range(config.num_models)]
        for name in names:
            coefficients = rng.normal(size=basis.size)
            router.publish(name, FittedModel(basis, coefficients))

        kill_target = config.kill_shard
        if kill_target is None:
            kill_target = router.primary(names[0])

        slow_target: Optional[int] = None
        if config.slow_shard_latency_seconds > 0:
            slow_target = config.slow_shard
            if slow_target is None:
                # Degrade the first model's primary so the slow shard is
                # guaranteed to serve (and therefore stall) real traffic.
                slow_target = router.primary(names[0])

        # A fixed seeded pool of query rows: requests index into it, so
        # the design-matrix cache sees realistic repetition.
        pool = rng.normal(size=(max(64, config.rows_per_request), basis.num_vars))

        # ----- Phase 2: seeded tenant traffic (sequential awaits) -------
        fault_scope = contextlib.ExitStack()
        if slow_target is not None:
            fault_scope.enter_context(
                inject(
                    FaultPlan.latency(
                        "engine.evaluate",
                        config.slow_shard_latency_seconds,
                        every=config.slow_shard_every,
                        tag=f"shard-{slow_target}",
                    )
                )
            )
        with fault_scope:
            traffic_start = time.perf_counter()
            for index in range(config.num_requests):
                if (
                    config.kill_shard_after is not None
                    and index == config.kill_shard_after
                    and killed_shard is None
                ):
                    router.kill_shard(kill_target)
                    killed_shard = kill_target
                tenant = f"tenant-{int(rng.integers(config.num_tenants)):03d}"
                name = names[int(rng.integers(config.num_models))]
                rows = rng.integers(0, pool.shape[0], size=config.rows_per_request)
                x = pool[rows]
                priority = PRIORITY_NORMAL
                if (
                    config.low_priority_fraction > 0
                    and rng.random() < config.low_priority_fraction
                ):
                    priority = PRIORITY_LOW
                if (
                    config.tenant_quota is not None
                    and tenant_admitted.get(tenant, 0) >= config.tenant_quota
                ):
                    quota_rejected += 1
                    continue
                tenant_admitted[tenant] = tenant_admitted.get(tenant, 0) + 1
                submitted += 1
                start = time.perf_counter()
                try:
                    future = router.submit(name, x, priority=priority)
                except BrownoutShedError:
                    brownout_shed += 1
                    shed_rejected += 1
                    continue
                except EngineOverloadedError:
                    shed_rejected += 1
                    continue
                if killed_shard is not None:
                    post_kill_admitted += 1
                try:
                    future.result(timeout=config.request_timeout_seconds)
                except DeadlineExpiredError:
                    expired += 1
                except Exception:
                    failed += 1
                else:
                    answered += 1
                    if killed_shard is not None:
                        post_kill_answered += 1
                    latencies.append(time.perf_counter() - start)
            duration = time.perf_counter() - traffic_start

        # ----- Phase 3: optional deterministic overload burst -----------
        if config.overload_burst > 0:
            burst = overload_burst(
                router.engine_for(names[0]),
                names[0],
                pool[0],
                bound=config.max_queue_depth,
                factor=config.overload_burst,
                timeout=config.request_timeout_seconds,
            )

        max_version_lag = router.max_version_lag()
        hedge_stats = router.hedge_stats() or {}
        router_stats = router.stats()
        shed_expired_total = sum(
            int(shard_stats["shed_expired"])
            for shard_stats in router_stats["shards"].values()
        )

    delta = counters_delta(counters_before, metrics.counters())
    metrics.increment("loadgen.requests", config.num_requests)
    metrics.increment("loadgen.quota_rejected", quota_rejected)
    metrics.increment("loadgen.answered", answered + burst.answered)
    metrics.increment("loadgen.failed", failed)
    metrics.increment("loadgen.shed", shed_rejected + burst.rejected)

    return LoadReport(
        seed=config.seed,
        num_requests=config.num_requests,
        num_tenants=config.num_tenants,
        num_models=config.num_models,
        num_shards=config.num_shards,
        replication_factor=min(config.replication_factor, config.num_shards),
        tenant_quota=config.tenant_quota,
        max_queue_depth=config.max_queue_depth,
        rows_per_request=config.rows_per_request,
        kill_shard_after=config.kill_shard_after,
        killed_shard=killed_shard,
        hedge_enabled=config.hedge,
        brownout_enabled=config.brownout,
        slow_shard=slow_target,
        slow_shard_latency_ms=config.slow_shard_latency_seconds * 1e3,
        submitted=submitted,
        admitted=submitted - shed_rejected,
        answered=answered,
        failed=failed,
        quota_rejected=quota_rejected,
        shed_rejected=shed_rejected,
        shed_expired=shed_expired_total,
        expired=expired,
        post_kill_admitted=post_kill_admitted,
        post_kill_answered=post_kill_answered,
        burst_staged=burst.staged,
        burst_submitted=burst.submitted,
        burst_rejected=burst.rejected,
        burst_answered=burst.answered,
        hedged=int(hedge_stats.get("attempts", 0)),
        hedge_wins=int(hedge_stats.get("wins", 0)),
        hedge_primary_wins=int(hedge_stats.get("primary_wins", 0)),
        hedge_budget_denied=int(hedge_stats.get("budget_denied", 0)),
        hedge_cancelled=int(hedge_stats.get("cancelled", 0)),
        brownout_shed=brownout_shed,
        rebalanced_keys=int(router_stats["rebalanced_keys"]),
        failovers=int(router_stats["failovers"]),
        failover_routes=delta.get("serving.shard.failover_routes", 0),
        replica_applied=delta.get("serving.shard.replica_applied", 0),
        backfills=delta.get("serving.shard.backfills", 0),
        max_version_lag=max_version_lag,
        throughput_rps=answered / duration if duration > 0 else 0.0,
        duration_seconds=duration,
        tenant_admitted=tenant_admitted,
        **latency_percentiles(latencies),
    )
