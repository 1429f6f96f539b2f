"""Hypothesis property suites for compaction and point-in-time recovery.

Two differential properties pin the tentpole contracts:

* **compaction is invisible to recovery** -- for arbitrary
  publish/compact/crash interleavings, recovering the compacted store
  yields a registry bitwise identical (per ``snapshot()``) to recovering
  an uncompacted mirror that saw the same publishes, provided the
  registry's ``max_versions`` fits inside ``history_window + 1`` (here
  ``max_versions=2`` with windows >= 1);
* **``recover_at(k)`` is prefix replay** -- for every valid global offset
  ``k``, point-in-time recovery of the compacted store equals an
  independent replay of the mirror's first ``k`` journal entries.

Each example builds its stores in a throwaway directory (``tmp_path`` is
per-test, not per-example).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.basis import OrthonormalBasis, total_degree_index_set
from repro.faults import FaultPlan, SimulatedCrash, inject
from repro.regression import FittedModel
from repro.serving import ModelRegistry
from repro.store import ModelRecord, ModelStore, RecoveryManager, compact

NAMES = ("power", "gain", "delay")
MAX_VERSIONS = 2  # history windows below are >= MAX_VERSIONS - 1

BASIS = OrthonormalBasis(2, total_degree_index_set(2, 1))


def make_record(name, version, seed):
    rng = np.random.default_rng(seed)
    return ModelRecord(
        name=name,
        version=version,
        key="deadbeef" * 4,
        published_at=123.5 + version,
        basis_digest=BASIS.cache_token(),
        basis_num_vars=BASIS.num_vars,
        basis_index_array=BASIS.index_array(),
        coefficients=rng.normal(size=len(BASIS.indices)),
    )


#: One schedule step: publish to one of the names, or compact with a
#: history window >= 1 and an optional crash at one of the failpoints.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, len(NAMES) - 1)),
        st.tuples(
            st.just("compact"),
            st.integers(1, 2),  # history_window
            st.sampled_from(
                [None, "store.compact.swing", "store.compact.retire"]
            ),
        ),
    ),
    min_size=1,
    max_size=18,
)


def apply_schedule(root, ops):
    """Run the schedule; returns (subject, mirror, total_publishes)."""
    subject = ModelStore(root / "subject", use_fsync=False)
    mirror = ModelStore(root / "mirror", use_fsync=False)
    versions = {name: 0 for name in NAMES}
    for step, op in enumerate(ops):
        if op[0] == "publish":
            name = NAMES[op[1]]
            versions[name] += 1
            record = make_record(name, versions[name], seed=step)
            subject.append(record)
            mirror.append(record)
        else:
            _, window, crash_at = op
            if crash_at is None:
                compact(subject, history_window=window)
            else:
                plan = FaultPlan.fail_once(crash_at, error=SimulatedCrash)
                with inject(plan):
                    with pytest.raises(SimulatedCrash):
                        compact(subject, history_window=window)
                # A crashed compaction kills the process: reopen cold.
                subject = ModelStore(root / "subject", use_fsync=False)
    return subject, mirror, sum(versions.values())


def recovered_snapshot(store):
    report = RecoveryManager(store).recover(
        registry=ModelRegistry(max_versions=MAX_VERSIONS),
        quarantine_corrupt=False,
    )
    return report.registry.snapshot(), report


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS)
def test_recovery_from_compacted_is_bitwise_identical(ops):
    root = Path(tempfile.mkdtemp(prefix="compaction-prop-"))
    try:
        subject, mirror, total = apply_schedule(root, ops)
        subject_snapshot, subject_report = recovered_snapshot(subject)
        mirror_snapshot, _ = recovered_snapshot(mirror)
        assert subject_snapshot == mirror_snapshot
        # Compaction never invents damage: nothing quarantined, nothing
        # missing, no torn lines, and the global offsets add up.
        assert subject_report.missing == ()
        assert subject_report.compaction_quarantined == ()
        assert subject_report.torn_journal_lines == 0
        assert subject.journal_view().end_offset == total
    finally:
        shutil.rmtree(root, ignore_errors=True)


def prefix_replay(mirror, k):
    """Independent reference: replay the mirror's first ``k`` entries."""
    entries, torn = mirror.journal_entries()
    assert torn == 0
    registry = ModelRegistry(max_versions=MAX_VERSIONS)
    for entry in entries[:k]:
        record = mirror.read(mirror.records_dir / entry.filename)
        registry.restore(
            record.name,
            record.version,
            record.key,
            record.published_at,
            FittedModel(record.basis(), record.coefficients),
        )
    return registry.snapshot()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS)
def test_recover_at_equals_prefix_replay_for_every_valid_offset(ops):
    root = Path(tempfile.mkdtemp(prefix="pitr-prop-"))
    try:
        subject, mirror, total = apply_schedule(root, ops)
        view = subject.journal_view()
        assert view.end_offset == total
        rm = RecoveryManager(subject)
        for k in range(view.checkpoint_offset, view.end_offset + 1):
            got = rm.recover_at(
                k, registry=ModelRegistry(max_versions=MAX_VERSIONS)
            ).registry.snapshot()
            assert got == prefix_replay(mirror, k), f"offset {k} diverged"
        # Offsets folded into the checkpoint are unreachable, loudly.
        if view.checkpoint_offset > 0:
            with pytest.raises(ValueError, match="compacted away"):
                rm.recover_at(view.checkpoint_offset - 1)
        with pytest.raises(ValueError, match="outside the recoverable range"):
            rm.recover_at(view.end_offset + 1)
    finally:
        shutil.rmtree(root, ignore_errors=True)
