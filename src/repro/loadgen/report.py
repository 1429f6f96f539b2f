"""Machine-readable load-harness report: schema, validation, serialization.

Every harness run emits one flat JSON object into ``benchmarks/results/``
so the perf trajectory becomes trackable across PRs.  The schema below is
the contract CI enforces (``python -m repro.loadgen --check-schema``):
a key disappearing or changing type fails the build instead of silently
drifting, and downstream tooling can consume the files without guessing.

Latency percentiles are wall-clock and vary run to run; everything under
:meth:`LoadReport.deterministic_signature` is integer event counting and
must be bitwise identical across same-seed runs (the shard-kill chaos
scenario asserts exactly that).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.metrics import signature_fields

__all__ = [
    "LoadReport",
    "REPORT_SCHEMA",
    "SCHEMA_VERSION",
    "latency_percentiles",
    "validate_report",
]

SCHEMA_VERSION = 2

#: The report contract: key -> allowed JSON types.  ``"int"`` means a
#: JSON integer (bools excluded), ``"float"`` accepts integers too (JSON
#: has one number type), ``"bool"`` is a JSON boolean, ``"null"`` allows
#: ``None``.
REPORT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "schema_version": ("int",),
    "kind": ("str",),
    # -- configuration echo ------------------------------------------------
    "seed": ("int",),
    "num_requests": ("int",),
    "num_tenants": ("int",),
    "num_models": ("int",),
    "num_shards": ("int",),
    "replication_factor": ("int",),
    "tenant_quota": ("int", "null"),
    "max_queue_depth": ("int",),
    "rows_per_request": ("int",),
    "kill_shard_after": ("int", "null"),
    "killed_shard": ("int", "null"),
    "hedge_enabled": ("bool",),
    "brownout_enabled": ("bool",),
    "slow_shard": ("int", "null"),
    "slow_shard_latency_ms": ("float",),
    # -- admission / outcome counts (deterministic) ------------------------
    "submitted": ("int",),
    "admitted": ("int",),
    "answered": ("int",),
    "failed": ("int",),
    "quota_rejected": ("int",),
    "shed_rejected": ("int",),
    "shed_expired": ("int",),
    "expired": ("int",),
    "post_kill_admitted": ("int",),
    "post_kill_answered": ("int",),
    "burst_staged": ("int",),
    "burst_submitted": ("int",),
    "burst_rejected": ("int",),
    "burst_answered": ("int",),
    # -- hedging / brownout counts (timing-dependent; not in the signature) -
    "hedged": ("int",),
    "hedge_wins": ("int",),
    "hedge_primary_wins": ("int",),
    "hedge_budget_denied": ("int",),
    "hedge_cancelled": ("int",),
    "brownout_shed": ("int",),
    # -- sharding / replication counts (deterministic) ---------------------
    "rebalanced_keys": ("int",),
    "failovers": ("int",),
    "failover_routes": ("int",),
    "replica_applied": ("int",),
    "backfills": ("int",),
    "max_version_lag": ("int",),
    # -- latency / throughput (wall-clock; excluded from the signature) ----
    "latency_p50_ms": ("float",),
    "latency_p99_ms": ("float",),
    "latency_p999_ms": ("float",),
    "latency_mean_ms": ("float",),
    "latency_max_ms": ("float",),
    "throughput_rps": ("float",),
    "duration_seconds": ("float",),
}

#: Fields :meth:`LoadReport.deterministic_signature` leaves out: the
#: configuration echoes other than the seed and the tail-tolerance
#: switches, the timing-dependent hedge/brownout counts, and wall-clock.
_UNSIGNED_FIELDS = frozenset(
    {
        "num_requests", "num_tenants", "num_models", "num_shards",
        "replication_factor", "tenant_quota", "max_queue_depth",
        "rows_per_request", "kill_shard_after", "slow_shard_latency_ms",
        "hedged", "hedge_wins", "hedge_primary_wins", "hedge_budget_denied",
        "hedge_cancelled", "brownout_shed", "latency_p50_ms", "latency_p99_ms",
        "latency_p999_ms", "latency_mean_ms", "latency_max_ms",
        "throughput_rps", "duration_seconds",
    }
)

_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_report(data: Dict[str, object]) -> None:
    """Check ``data`` against :data:`REPORT_SCHEMA`; raises ``ValueError``.

    Enforced both ways: every schema key must be present with an allowed
    type, and no unknown key may appear -- additions go through the
    schema (and therefore through review), never around it.
    """
    if not isinstance(data, dict):
        raise ValueError(f"report must be a JSON object, got {type(data).__name__}")
    problems: List[str] = []
    for key, allowed in REPORT_SCHEMA.items():
        if key not in data:
            problems.append(f"missing key {key!r}")
            continue
        value = data[key]
        if not any(_TYPE_CHECKS[kind](value) for kind in allowed):
            problems.append(
                f"key {key!r} has type {type(value).__name__}, "
                f"expected one of {allowed}"
            )
    for key in data:
        if key not in REPORT_SCHEMA:
            problems.append(f"unknown key {key!r} (schema additions must be explicit)")
    if problems:
        raise ValueError(
            "load report failed schema validation: " + "; ".join(sorted(problems))
        )


def latency_percentiles(latencies_seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p99/p999 (plus mean/max) of per-request latencies, in ms."""
    if len(latencies_seconds) == 0:
        return {
            "latency_p50_ms": 0.0,
            "latency_p99_ms": 0.0,
            "latency_p999_ms": 0.0,
            "latency_mean_ms": 0.0,
            "latency_max_ms": 0.0,
        }
    values = np.asarray(latencies_seconds, dtype=float) * 1e3
    p50, p99, p999 = np.percentile(values, [50.0, 99.0, 99.9])
    return {
        "latency_p50_ms": float(p50),
        "latency_p99_ms": float(p99),
        "latency_p999_ms": float(p999),
        "latency_mean_ms": float(values.mean()),
        "latency_max_ms": float(values.max()),
    }


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one :func:`repro.loadgen.run_load` harness run.

    ``to_dict()`` renders exactly the :data:`REPORT_SCHEMA` shape;
    :meth:`write_json` validates before writing, so an emitted file can
    never be schema-invalid.
    """

    # configuration echo
    seed: int
    num_requests: int
    num_tenants: int
    num_models: int
    num_shards: int
    replication_factor: int
    tenant_quota: Optional[int]
    max_queue_depth: int
    rows_per_request: int
    kill_shard_after: Optional[int]
    killed_shard: Optional[int]
    hedge_enabled: bool
    brownout_enabled: bool
    slow_shard: Optional[int]
    slow_shard_latency_ms: float
    # deterministic outcome counts
    submitted: int
    admitted: int
    answered: int
    failed: int
    quota_rejected: int
    shed_rejected: int
    shed_expired: int
    expired: int
    post_kill_admitted: int
    post_kill_answered: int
    burst_staged: int
    burst_submitted: int
    burst_rejected: int
    burst_answered: int
    # timing-dependent tail-tolerance counts (excluded from the signature)
    hedged: int
    hedge_wins: int
    hedge_primary_wins: int
    hedge_budget_denied: int
    hedge_cancelled: int
    brownout_shed: int
    rebalanced_keys: int
    failovers: int
    failover_routes: int
    replica_applied: int
    backfills: int
    max_version_lag: int
    # wall-clock measurements
    latency_p50_ms: float
    latency_p99_ms: float
    latency_p999_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    throughput_rps: float
    duration_seconds: float
    #: Per-tenant admitted counts (not serialized; signature material).
    tenant_admitted: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def answered_fraction(self) -> float:
        """Fraction of admitted requests that got a prediction."""
        return self.answered / self.admitted if self.admitted else 0.0

    def deterministic_signature(self) -> Dict[str, object]:
        """Everything that must be bitwise identical across same-seed runs.

        Latency and throughput are wall-clock and deliberately excluded;
        what remains is pure event counting driven by the seed (with
        requests awaited sequentially, ``concurrency`` semantics of the
        harness).  Hedge and brownout *event counts* depend on whether a
        hedge timer fired before the primary answered -- pure timing --
        so they are excluded too; the *configuration* that enables them
        (``hedge_enabled``, ``brownout_enabled``, ``slow_shard``) is part
        of the signature, because two runs with different tail-tolerance
        settings are not the same scenario.
        """
        return signature_fields(self, _UNSIGNED_FIELDS)

    def to_dict(self) -> Dict[str, object]:
        """The schema-shaped JSON object (see :data:`REPORT_SCHEMA`)."""
        data = asdict(self)
        data.pop("tenant_admitted")
        data["schema_version"] = SCHEMA_VERSION
        data["kind"] = "loadgen"
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    def write_json(self, path) -> Path:
        """Validate against the schema and write the report file."""
        data = self.to_dict()
        validate_report(data)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    def format(self) -> str:
        """Human-readable summary (the JSON file stays the machine contract)."""
        lines = [
            f"Synthetic load run (seed {self.seed})",
            f"  shards x replication : {self.num_shards} x {self.replication_factor}",
            f"  tenants / models     : {self.num_tenants} / {self.num_models}",
            f"  submitted            : {self.submitted}"
            f" (admitted {self.admitted}, quota-rejected {self.quota_rejected})",
            f"  answered             : {self.answered}"
            f" ({self.answered_fraction * 100:.1f}% of admitted,"
            f" {self.failed} failed)",
            f"  shed (rej/exp)       : {self.shed_rejected}/{self.shed_expired}",
            f"  kill/rebalance       : shard {self.killed_shard} after "
            f"{self.kill_shard_after} requests,"
            f" {self.rebalanced_keys} keys rebalanced,"
            f" {self.backfills} backfills",
            f"  post-kill answered   : {self.post_kill_answered}"
            f"/{self.post_kill_admitted}",
            f"  hedging              : "
            + (
                f"{self.hedged} hedged ({self.hedge_wins} backup wins,"
                f" {self.hedge_budget_denied} budget-denied,"
                f" {self.brownout_shed} brownout-shed)"
                if self.hedge_enabled or self.brownout_enabled
                else "off"
            ),
            f"  latency p50/p99/p999 : {self.latency_p50_ms:.3f}"
            f"/{self.latency_p99_ms:.3f}/{self.latency_p999_ms:.3f} ms",
            f"  throughput           : {self.throughput_rps:.0f} req/s",
        ]
        return "\n".join(lines)
