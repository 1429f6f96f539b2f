"""Central catalog of every metric name the library may emit.

Two drift directions are gated:

* **code -> catalog**: the REP013 lint rule requires every
  ``metrics.increment("...")`` / ``metrics.timer("...")`` string literal
  in ``src`` to be declared here (f-string names must start with a
  :data:`DYNAMIC_PREFIXES` entry), so a new metric cannot ship
  undeclared;
* **catalog -> docs**: ``python -m repro.runtime.catalog docs`` (run in
  CI) requires every declared name to appear back-ticked somewhere under
  ``docs/``, so the docs metric tables cannot silently rot.

This module is pure data plus stdlib — it must import nothing from the
rest of :mod:`repro`, because the lint rules late-import it while the
package is still initialising.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "METRICS",
    "TIMERS",
    "DYNAMIC_PREFIXES",
    "all_names",
    "is_declared",
    "undeclared",
    "missing_from_docs",
    "main",
]

#: Counter names -> one-line description (what one increment means).
METRICS: Dict[str, str] = {
    "backends.fused_predicts": "predictions served through the fused design-predict kernel",
    "bmf.cv_eigendecompositions": "fold kernels eigendecomposed after a BMF cross-validation Cholesky failed",
    "bmf.cv_evaluations": "candidate models scored during BMF cross-validation",
    "bmf.cv_factorizations": "fold systems eta I + B_TT factored during BMF cross-validation",
    "design_cache.corrupt_evictions": "cached design matrices evicted by contract violation",
    "design_cache.evictions": "design-matrix cache LRU evictions",
    "design_cache.hits": "design-matrix cache hits",
    "design_cache.misses": "design-matrix cache misses",
    "design_matrix.calls": "design-matrix assembly calls",
    "design_matrix.cells": "design-matrix cells assembled",
    "faults.delays": "injected latency delays applied at failpoints",
    "faults.hits": "failpoint evaluations while a plan was armed",
    "faults.injected": "faults actually injected (errors plus delays)",
    "loadgen.answered": "load-harness requests answered successfully",
    "loadgen.failed": "load-harness requests that errored",
    "loadgen.quota_rejected": "load-harness requests rejected by tenant quota",
    "loadgen.requests": "load-harness requests issued",
    "loadgen.shed": "load-harness requests shed by overload protection",
    "lock.acquires": "tracked lock acquisitions observed by the watchdog",
    "lock.long_holds": "tracked lock holds exceeding the long-hold threshold",
    "lock.order_cycles": "cycles present in the observed lock-order graph",
    "lock.order_edges": "distinct held->acquired edges observed by the watchdog",
    "lock.order_inversions": "lock pairs observed acquired in both orders",
    "montecarlo.chunks": "Monte Carlo worker chunks executed",
    "montecarlo.samples": "Monte Carlo samples simulated",
    "sequential.failed_refits": "sequential-BMF refits that failed and were rolled back",
    "sequential.rearms": "sequential-BMF warm rearms from persisted state",
    "serving.batch_size": "summed batch sizes (with serving.batches gives the mean)",
    "serving.batches": "micro-batches flushed by the prediction engine",
    "serving.breaker.closed": "circuit breakers that closed after recovery",
    "serving.breaker.half_opened": "circuit breakers that entered half-open probing",
    "serving.breaker.opened": "circuit breakers tripped open by failures",
    "serving.breaker.rejected": "requests rejected by an open circuit breaker",
    "serving.brownout.entered": "brownout activations (health score crossed below healthy)",
    "serving.brownout.exited": "brownout deactivations (health score recovered)",
    "serving.brownout.shed": "requests shed by brownout priority admission",
    "serving.cancelled": "queued requests dropped because their future was cancelled",
    "serving.degraded": "requests answered from the last-good degraded path",
    "serving.degraded_rollbacks": "degraded answers later superseded by a rollback",
    "serving.expired": "requests whose deadline expired before evaluation",
    "serving.failed": "requests that failed evaluation",
    "serving.health.degraded": "readiness probes that observed a not-ready transition",
    "serving.health.recovered": "readiness probes that observed a ready-again transition",
    "serving.hedge.attempts": "hedged backup attempts dispatched to warm replicas",
    "serving.hedge.budget_denied": "hedge opportunities denied by the token budget",
    "serving.hedge.cancelled": "hedge losers cancelled before evaluation",
    "serving.hedge.primary_wins": "hedged requests where the primary still answered first",
    "serving.hedge.wins": "hedged requests won by the backup replica",
    "serving.marked_bad": "model versions marked bad",
    "serving.publish_persist_skipped": "publishes that skipped store persistence",
    "serving.publishes": "model versions published to a registry",
    "serving.rejected_publishes": "publishes rejected by registry validation",
    "serving.requests": "prediction requests accepted by the engine",
    "serving.restored_versions": "model versions restored from the store",
    "serving.retries": "evaluation retries performed by the retry policy",
    "serving.rollbacks": "registry rollbacks to an earlier version",
    "serving.shard.backfills": "replica shards backfilled from the journal",
    "serving.shard.failover_routes": "requests routed to a warm replica after failover",
    "serving.shard.failovers": "shard failovers triggered by a kill",
    "serving.shard.publishes": "publishes routed through the shard router",
    "serving.shard.rebalanced_keys": "keys rerouted during shard rebalancing",
    "serving.shard.replica_applied": "journal entries applied to warm replicas",
    "serving.shard.replica_corrupt": "journal entries skipped by replicas as corrupt",
    "serving.shard.replica_skipped": "journal entries skipped by replica filters",
    "serving.shard.follower_boundary": "follower polls that crossed a compaction boundary",
    "serving.shard.rerouted": "requests rerouted away from a dead shard",
    "serving.shard.restart_restored": "versions restored by restarted shards",
    "serving.shard.restarts": "shard restarts performed (rolling-restart drill)",
    "serving.shard.routed": "requests routed to their home shard",
    "serving.shed.expired": "queued requests shed because their deadline passed",
    "serving.shed.rejected": "requests shed at admission by the bounded queue",
    "serving.shutdown_drops": "queued requests dropped during engine shutdown",
    "store.compaction.dropped": "superseded records dropped by compaction",
    "store.compaction.kept": "survivor records carried into a new generation",
    "store.compaction.quarantined": "corrupt survivors quarantined during compaction",
    "store.compaction.retired": "retired generation directories removed",
    "store.compaction.runs": "generational compactions completed",
    "store.corrupt_quarantined": "corrupt store records moved to quarantine",
    "store.journal_torn": "torn journal tails detected during recovery scans",
    "store.journal_write_failures": "journal appends that failed",
    "store.load_failures": "store record loads that failed",
    "store.loads": "store records loaded",
    "store.missing_records": "journalled records missing from the store",
    "store.pitr.recoveries": "point-in-time recoveries performed",
    "store.recovered_records": "records recovered by a store scan",
    "store.recovered_unjournaled": "records recovered that never reached the journal",
    "store.torn_writes": "torn (partial) record writes detected",
    "store.write_failures": "store record writes that failed",
    "store.writes": "store records written",
    "woodbury.fallbacks": "incremental refits that fell back to full refits",
    "woodbury.incremental_refits": "incremental Woodbury refits performed",
}

#: Timer names -> one-line description (what one sample times).
TIMERS: Dict[str, str] = {
    "bmf.cross_validation": "one BMF cross-validation sweep over every candidate prior",
    "design_matrix": "one design-matrix assembly",
    "montecarlo.simulate": "one Monte Carlo simulation run",
    "sequential.rearm": "one sequential-BMF warm rearm",
    "sequential.refit": "one sequential-BMF refit",
    "serving.evaluate": "one engine model evaluation",
    "store.compaction": "one generational store compaction",
}

#: Prefixes under which dynamically-formatted metric names are allowed
#: (e.g. ``f"faults.injected.{name}"`` — one counter per failpoint).
DYNAMIC_PREFIXES: Tuple[str, ...] = ("faults.injected.",)


def all_names() -> Tuple[str, ...]:
    """Every declared static metric name, sorted."""
    return tuple(sorted(set(METRICS) | set(TIMERS)))


def is_declared(name: str) -> bool:
    """True if *name* is a declared counter/timer or under a dynamic prefix."""
    if name in METRICS or name in TIMERS:
        return True
    return any(name.startswith(prefix) for prefix in DYNAMIC_PREFIXES)


def undeclared(names: Iterable[str]) -> List[str]:
    """The subset of *names* the catalog does not declare, sorted."""
    return sorted({name for name in names if not is_declared(name)})


def missing_from_docs(doc_text: str) -> List[str]:
    """Declared names that never appear back-ticked in *doc_text*, sorted."""
    return [name for name in all_names() if f"`{name}`" not in doc_text]


def _docs_text(doc_dir: Path) -> str:
    return "\n".join(
        path.read_text(encoding="utf-8") for path in sorted(doc_dir.rglob("*.md"))
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI gate: ``python -m repro.runtime.catalog docs [DOC_DIR]``.

    Exits 1 listing any catalog entry absent from the docs metric tables.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] != "docs":
        print("usage: python -m repro.runtime.catalog docs [DOC_DIR]", file=sys.stderr)
        return 2
    doc_dir = Path(args[1]) if len(args) > 1 else Path("docs")
    if not doc_dir.is_dir():
        print(f"docs directory not found: {doc_dir}", file=sys.stderr)
        return 2
    missing = missing_from_docs(_docs_text(doc_dir))
    if missing:
        print(f"{len(missing)} metric(s) declared in the catalog but absent from docs:")
        for name in missing:
            print(f"  {name}")
        return 1
    print(f"all {len(all_names())} declared metrics documented under {doc_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
