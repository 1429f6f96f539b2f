"""Synthetic-load harness for the sharded serving tier.

Seeded, multi-tenant load generation against
:class:`~repro.serving.ShardRouter` (per-tenant admission quotas layered
on the engines' bounded-queue shedding, optional shard-kill mid-traffic,
optional overload burst), emitting the schema-checked JSON perf report CI
archives under ``benchmarks/results/``.  See ``docs/serving.md`` and
``python -m repro.loadgen --help``.
"""

from .harness import BurstOutcome, LoadConfig, overload_burst, run_load
from .report import (
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    LoadReport,
    latency_percentiles,
    validate_report,
)

__all__ = [
    "BurstOutcome",
    "LoadConfig",
    "LoadReport",
    "REPORT_SCHEMA",
    "SCHEMA_VERSION",
    "latency_percentiles",
    "overload_burst",
    "run_load",
    "validate_report",
]
