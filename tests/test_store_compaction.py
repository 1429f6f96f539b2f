"""Tests for generational store compaction and point-in-time recovery.

Covers the generation layout and ``CURRENT``-pointer swing, history-window
selection, crash-at-every-failpoint atomicity (a crash mid-compaction
leaves either the old or the new generation fully live, never a hybrid),
the follower no-skip/no-double-apply contract across a compaction
boundary, the generation-tagged quarantine audit trail, warm sequential
rearm from a compacted store, ``recover_at`` point-in-time recovery, and
a seeded publish/compact/crash fuzz sweep (chaos-marked; also run by the
nightly CI compaction-fuzz step).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.basis import OrthonormalBasis, total_degree_index_set
from repro.bmf import SequentialBmf
from repro.faults import FaultPlan, SimulatedCrash, inject
from repro.runtime.metrics import metrics
from repro.regression import FittedModel
from repro.serving import JournalFollower, ModelRegistry
from repro.store import (
    ModelRecord,
    ModelStore,
    RecoveryManager,
    compact,
    encode_record,
    stale_generations,
)


def _counter(name):
    return metrics.counters().get(name, 0)


def make_basis(num_vars=3, degree=1):
    return OrthonormalBasis(num_vars, total_degree_index_set(num_vars, degree))


def make_model(seed=0):
    basis = make_basis()
    coeffs = np.random.default_rng(seed).normal(size=len(basis.indices))
    return FittedModel(basis, coeffs)


def make_record(name="power", version=1, seed=0, **overrides):
    basis = make_basis()
    rng = np.random.default_rng(seed)
    fields = dict(
        name=name,
        version=version,
        key="deadbeef" * 4,
        published_at=123.5 + version,
        basis_digest=basis.cache_token(),
        basis_num_vars=basis.num_vars,
        basis_index_array=basis.index_array(),
        coefficients=rng.normal(size=len(basis.indices)),
    )
    fields.update(overrides)
    return ModelRecord(**fields)


@pytest.fixture
def store(tmp_path):
    return ModelStore(tmp_path, use_fsync=False)


def publish_history(store, spec):
    """Append ``{name: num_versions}`` records; returns total appended."""
    total = 0
    for name, versions in spec.items():
        for version in range(1, versions + 1):
            store.append(make_record(name, version, seed=hash(name) % 97 + version))
            total += 1
    return total


def corrupt_file(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestCompactionLayout:
    def test_swing_creates_generation_and_current_pointer(self, store, tmp_path):
        publish_history(store, {"power": 3, "gain": 1})
        report = compact(store, history_window=0)
        assert report.generation == 1
        assert report.previous_generation == 0
        assert (tmp_path / "CURRENT").read_text() == "gen-00000001\n"
        assert store.generation == 1
        assert store.generation_dir == tmp_path / "gen-00000001"
        assert store.records_dir == tmp_path / "gen-00000001" / "records"
        # Generation 0's payload was retired from the root.
        assert not (tmp_path / "records").exists()
        assert not (tmp_path / "journal.log").exists()

    def test_history_window_selects_survivors(self, store):
        publish_history(store, {"power": 5, "gain": 2})
        report = compact(store, history_window=1)
        assert report.kept == (
            ("gain", 1),
            ("gain", 2),
            ("power", 4),
            ("power", 5),
        )
        assert report.dropped == (("power", 1), ("power", 2), ("power", 3))
        assert report.checkpoint_offset == 7
        assert len(store.record_paths()) == 4

    def test_window_zero_keeps_only_latest(self, store):
        publish_history(store, {"power": 4})
        report = compact(store, history_window=0)
        assert report.kept == (("power", 4),)
        assert len(report.dropped) == 3

    def test_negative_window_rejected(self, store):
        with pytest.raises(ValueError, match="history_window"):
            compact(store, history_window=-1)

    def test_appends_land_in_the_new_generation(self, store):
        publish_history(store, {"power": 2})
        compact(store, history_window=0)
        store.append(make_record("power", 3, seed=3))
        assert (store.root / "gen-00000001" / "records" / store.record_filename(
            "power", 3
        )).exists()
        entries, torn = store.journal_entries()
        assert torn == 0
        assert [(e.name, e.version) for e in entries] == [("power", 3)]
        view = store.journal_view()
        assert view.checkpoint_offset == 2
        assert view.end_offset == 3

    def test_stacked_compactions_continue_global_offsets(self, store):
        publish_history(store, {"power": 3})
        compact(store, history_window=1)
        store.append(make_record("power", 4, seed=4))
        report = compact(store, history_window=0)
        assert report.generation == 2
        assert report.checkpoint_offset == 4
        assert report.kept == (("power", 4),)
        view = store.journal_view()
        assert view.generation == 2
        assert view.checkpoint_offset == 4
        assert view.end_offset == 4

    def test_unjournaled_record_is_rejournaled(self, store):
        publish_history(store, {"power": 1})
        # Simulate a crash between rename and journal append: a valid
        # record file the journal never mentions.
        stray = make_record("power", 2, seed=2)
        path = store.records_dir / store.record_filename("power", 2)
        path.write_bytes(encode_record(stray))
        report = compact(store, history_window=1)
        assert ("power", 2) in report.kept
        view = store.journal_view()
        assert [(e.name, e.version) for e in view.snapshot] == [
            ("power", 1),
            ("power", 2),
        ]
        scan = store.scan()
        assert scan.unjournaled == ()  # the audit trail is repaired

    def test_retire_false_leaves_old_generation_stale(self, store, tmp_path):
        publish_history(store, {"power": 2})
        report = compact(store, history_window=0, retire=False)
        assert report.retired == ()
        assert (tmp_path / "journal.log").exists()  # gen-0 payload untouched
        assert store.generation == 1
        # The stale payload is invisible to every read path...
        assert [p.name for p in store.record_paths()] == [
            store.record_filename("power", 2)
        ]
        # ...and the next compaction sweeps it.
        report2 = compact(store, history_window=0)
        assert not (tmp_path / "journal.log").exists()
        assert store.generation == report2.generation == 2

    def test_compaction_metrics_counted(self, store):
        publish_history(store, {"power": 3})
        before = {
            name: _counter(name)
            for name in (
                "store.compaction.runs",
                "store.compaction.kept",
                "store.compaction.dropped",
                "store.compaction.retired",
            )
        }
        compact(store, history_window=0)
        assert _counter("store.compaction.runs") - before["store.compaction.runs"] == 1
        assert _counter("store.compaction.kept") - before["store.compaction.kept"] == 1
        assert (
            _counter("store.compaction.dropped")
            - before["store.compaction.dropped"]
            == 2
        )
        assert (
            _counter("store.compaction.retired")
            - before["store.compaction.retired"]
            == 1
        )

    def test_recovery_from_compacted_matches_uncompacted(self, store, tmp_path):
        publish_history(store, {"power": 3, "gain": 2})
        mirror = ModelStore(tmp_path / "mirror", use_fsync=False)
        publish_history(mirror, {"power": 3, "gain": 2})
        compact(store, history_window=2)  # window covers every version
        recovered = RecoveryManager(store).recover(registry=ModelRegistry())
        baseline = RecoveryManager(mirror).recover(registry=ModelRegistry())
        assert recovered.registry.snapshot() == baseline.registry.snapshot()
        assert recovered.restored == baseline.restored
        assert recovered.generation == 1
        assert baseline.generation == 0


class TestCompactionCrash:
    """A crash mid-compaction leaves old XOR new fully live, never a hybrid."""

    def _baseline_snapshot(self, store):
        return RecoveryManager(store).recover(
            registry=ModelRegistry(max_versions=2), quarantine_corrupt=False
        ).registry.snapshot()

    @pytest.mark.parametrize(
        "failpoint", ["store.compact.swing", "store.compact.retire"]
    )
    def test_crash_leaves_one_generation_fully_live(self, store, failpoint):
        publish_history(store, {"power": 3, "gain": 2})
        before = self._baseline_snapshot(store)
        plan = FaultPlan.fail_once(failpoint, error=SimulatedCrash)
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                compact(store, history_window=1)
        # The reopened store (a fresh process) is fully live either way:
        reopened = ModelStore(store.root, use_fsync=False)
        if failpoint == "store.compact.swing":
            assert reopened.generation == 0  # the swing never happened
        else:
            assert reopened.generation == 1  # the swing committed
        after = self._baseline_snapshot(reopened)
        assert after == before
        # Appends keep working, landing in the live generation.
        reopened.append(make_record("power", 4, seed=4))
        assert reopened.journal_view().end_offset == 6

    @pytest.mark.parametrize(
        "failpoint", ["store.compact.swing", "store.compact.retire"]
    )
    def test_next_compaction_sweeps_crash_garbage(self, store, failpoint):
        publish_history(store, {"power": 2})
        with inject(FaultPlan.fail_once(failpoint, error=SimulatedCrash)):
            with pytest.raises(SimulatedCrash):
                compact(store, history_window=0)
        reopened = ModelStore(store.root, use_fsync=False)
        assert len(stale_generations(reopened)) == 1
        report = compact(reopened, history_window=0)
        assert stale_generations(reopened) == []
        assert report.kept == (("power", 2),)
        recovered = RecoveryManager(reopened).recover()
        assert recovered.restored == (("power", 2),)

    def test_swing_crash_then_append_then_compact(self, store):
        publish_history(store, {"power": 2})
        with inject(
            FaultPlan.fail_once("store.compact.swing", error=SimulatedCrash)
        ):
            with pytest.raises(SimulatedCrash):
                compact(store, history_window=0)
        # Still generation 0: the append extends the original journal.
        store.append(make_record("power", 3, seed=3))
        view = store.journal_view()
        assert view.generation == 0 and view.end_offset == 3
        report = compact(store, history_window=0)
        assert report.kept == (("power", 3),)
        assert report.checkpoint_offset == 3


class TestFollowerAcrossCompaction:
    """Satellite: a follower never skips nor double-applies across a boundary."""

    def test_follower_neither_skips_nor_double_applies(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)

        primary.publish("power", make_model(seed=1))
        primary.publish("power", make_model(seed=2))
        applied_before = _counter("serving.shard.replica_applied")
        assert follower.poll() == 2
        assert follower.offset == 2
        assert follower.generation == 0

        compact(store, history_window=1)
        primary.publish("power", make_model(seed=3))
        primary.publish("gain", make_model(seed=4))

        # Across the boundary: exactly the two new entries apply; the two
        # snapshot survivors the replica already holds are not re-applied.
        assert follower.poll() == 2
        assert follower.generation == 1
        assert follower.offset == store.journal_view().end_offset == 4
        assert _counter("serving.shard.replica_applied") - applied_before == 4
        assert replica.snapshot() == primary.snapshot()
        assert follower.poll() == 0  # quiescent: nothing applied twice
        assert follower.lag() == 0

    def test_follower_behind_checkpoint_replays_snapshot_once(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)

        primary.publish("power", make_model(seed=1))
        assert follower.poll() == 1  # offset 1

        primary.publish("power", make_model(seed=2))
        primary.publish("gain", make_model(seed=3))
        compact(store, history_window=0)  # checkpoint offset 3 > follower's 1

        boundary_before = _counter("serving.shard.follower_boundary")
        skipped_before = _counter("serving.shard.replica_skipped")
        # power v2 and gain v1 were folded into the snapshot; they apply
        # exactly once.  power v1 is gone (superseded) -- the replica's
        # held v1 simply stays until v2 replaces it, never re-applied.
        assert follower.poll() == 2
        assert _counter("serving.shard.follower_boundary") - boundary_before == 1
        assert replica.current("power").version == 2
        assert replica.current("gain").version == 1
        assert follower.offset == 3
        # Re-polling after the boundary is quiescent and skip-free.
        assert follower.poll() == 0
        assert (
            _counter("serving.shard.replica_skipped") - skipped_before == 0
        )

    def test_resync_lands_on_global_offsets(self, store):
        primary = ModelRegistry(store=store)
        primary.publish("power", make_model(seed=1))
        primary.publish("power", make_model(seed=2))
        compact(store, history_window=0)
        primary.publish("power", make_model(seed=3))

        follower = JournalFollower(store, ModelRegistry())
        assert follower.resync() == 2  # v2 (snapshot) + v3 (live tail)
        assert follower.offset == 3
        assert follower.generation == 1
        assert follower.lag() == 0
        primary.publish("power", make_model(seed=4))
        assert follower.poll() == 1


class TestQuarantineAudit:
    """Satellite: generation-tagged quarantine evidence survives compaction."""

    def test_corrupt_survivor_quarantined_with_generation_tag(self, store):
        publish_history(store, {"power": 3})
        corrupt_file(store.records_dir / store.record_filename("power", 3))
        before = _counter("store.corrupt_quarantined")
        report = compact(store, history_window=0)
        assert _counter("store.corrupt_quarantined") - before == 1
        # The next-older version was promoted in the corrupt one's place.
        assert report.kept == (("power", 2),)
        assert len(report.quarantined) == 1
        quarantined = report.quarantined[0]
        assert quarantined.parent == store.root / "gen-00000001" / "quarantine"
        reason = quarantined.with_suffix(quarantined.suffix + ".reason")
        text = reason.read_text()
        assert "generation: 0" in text
        assert "checksum" in text or "decodes" in text or "CRC" in text

    def test_recovery_surfaces_compaction_quarantine_audit(self, store):
        publish_history(store, {"power": 3, "gain": 1})
        corrupt_file(store.records_dir / store.record_filename("power", 3))
        compact(store, history_window=0)
        report = RecoveryManager(store).recover()
        filename = store.record_filename("power", 3)
        assert report.compaction_quarantined == (("power", 3, filename),)
        # Quarantined records are neither restored nor double-counted.
        assert ("power", 3) not in report.restored
        assert report.missing == ()
        assert report.restored == (("gain", 1), ("power", 2))
        assert report.generation == 1

    def test_live_quarantine_sidecar_tags_current_generation(self, store):
        publish_history(store, {"power": 1})
        compact(store, history_window=0)
        store.append(make_record("power", 2, seed=2))
        path = store.records_dir / store.record_filename("power", 2)
        corrupt_file(path)
        target = store.quarantine(path, "checksum mismatch")
        text = target.with_suffix(target.suffix + ".reason").read_text()
        assert "generation: 1" in text

    def test_old_generation_quarantine_salvaged_on_retire(self, store):
        publish_history(store, {"power": 2})
        corrupt_file(store.records_dir / store.record_filename("power", 2))
        store.scan()  # quarantines the corrupt record into gen 0
        assert len(list(store.quarantine_dir.iterdir())) >= 1
        compact(store, history_window=0)
        salvaged = sorted(
            p.name for p in (store.generation_dir / "quarantine").iterdir()
        )
        assert any(
            name.startswith(store.record_filename("power", 2)) for name in salvaged
        )


class TestSequentialRearmAcrossCompaction:
    """Satellite: warm-restart state survives compaction at any window."""

    @pytest.mark.parametrize("history_window", [0, 1, 2])
    def test_rearm_from_compacted_store_is_incremental(
        self, tmp_path, history_window
    ):
        basis = make_basis(num_vars=2, degree=2)
        rng = np.random.default_rng(11)
        alpha = rng.normal(size=len(basis.indices))

        def draw(n):
            x = rng.normal(size=(n, basis.num_vars))
            f = basis.design_matrix(x) @ alpha + 0.01 * rng.normal(size=n)
            return x, f

        def fitter():
            return SequentialBmf(basis, alpha, prior_kind="nonzero-mean", eta=1e-3)

        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        crashed = fitter()
        for _ in range(2):
            x, f = draw(25)
            crashed.add_samples(x, f)
            registry.publish("power", crashed)
        del crashed, registry

        compact(store, history_window=history_window)

        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        state = recovery.sequential_state("power")
        assert state is not None

        rearms_before = _counter("sequential.rearms")
        fallbacks_before = _counter("woodbury.fallbacks")
        rearmed = fitter().rearm(state)
        assert rearmed.last_refit_mode == "rearmed"
        x, f = draw(10)
        rearmed.add_samples(x, f)
        assert rearmed.last_refit_mode == "incremental"
        assert _counter("sequential.rearms") - rearms_before == 1
        assert _counter("woodbury.fallbacks") - fallbacks_before == 0


class TestPointInTimeRecovery:
    def test_recover_at_prefixes_and_range(self, store):
        publish_history(store, {"power": 3, "gain": 2})
        rm = RecoveryManager(store)
        assert rm.recover_at(0).restored == ()
        assert rm.recover_at(2).restored == (("power", 1), ("power", 2))
        assert rm.recover_at(5).restored == (
            ("power", 1),
            ("power", 2),
            ("power", 3),
            ("gain", 1),
            ("gain", 2),
        )
        with pytest.raises(ValueError, match="outside the recoverable range"):
            rm.recover_at(6)
        with pytest.raises(ValueError, match="outside the recoverable range"):
            rm.recover_at(-1)

    def test_recover_at_after_compaction(self, store):
        publish_history(store, {"power": 3})
        compact(store, history_window=1)  # checkpoint offset 3
        store.append(make_record("power", 4, seed=4))
        rm = RecoveryManager(store)
        before = _counter("store.pitr.recoveries")
        checkpoint_state = rm.recover_at(3)
        assert checkpoint_state.restored == (("power", 2), ("power", 3))
        assert rm.recover_at(4).restored == (
            ("power", 2),
            ("power", 3),
            ("power", 4),
        )
        assert _counter("store.pitr.recoveries") - before == 2
        with pytest.raises(ValueError, match="compacted away"):
            rm.recover_at(2)

    def test_recover_at_is_read_only(self, store):
        publish_history(store, {"power": 2})
        corrupt_file(store.records_dir / store.record_filename("power", 2))
        rm = RecoveryManager(store)
        report = rm.recover_at(2)
        assert report.restored == (("power", 1),)
        assert [(n, v) for n, v, _ in report.rejected] == [("power", 2)]
        assert report.quarantined == ()
        # The corrupt file is still in place: PITR never mutates the store.
        assert (store.records_dir / store.record_filename("power", 2)).exists()


@pytest.mark.chaos
class TestCompactionFuzz:
    """Random publish/compact/crash schedules: compaction never loses data.

    The mirror store receives every publish but never compacts; after an
    arbitrary schedule the compacted store must recover to the same
    registry state (``max_versions`` small enough that the history window
    covers it).  Part of the nightly CI compaction-fuzz step.
    """

    def _seeds(self):
        raw = os.environ.get("REPRO_CHAOS_SEEDS", "0")
        return tuple(int(s) for s in raw.split(",") if s.strip())

    def test_compaction_fuzz_differential(self, tmp_path):
        for seed in self._seeds():
            self._run_one(tmp_path / f"seed-{seed}", seed)

    def _run_one(self, root, seed):
        rng = np.random.default_rng(seed)
        subject = ModelStore(root / "subject", use_fsync=False)
        mirror = ModelStore(root / "mirror", use_fsync=False)
        names = ["power", "gain", "delay"]
        versions = {name: 0 for name in names}

        for step in range(30):
            op = rng.integers(0, 10)
            if op < 7:  # publish
                name = names[int(rng.integers(0, len(names)))]
                versions[name] += 1
                record = make_record(
                    name, versions[name], seed=1000 * seed + step
                )
                subject.append(record)
                mirror.append(record)
            else:  # compact, sometimes crashing at a random failpoint
                window = int(rng.integers(1, 3))
                crash = int(rng.integers(0, 3))
                if crash == 0:
                    compact(subject, history_window=window)
                else:
                    failpoint = (
                        "store.compact.swing"
                        if crash == 1
                        else "store.compact.retire"
                    )
                    plan = FaultPlan.fail_once(failpoint, error=SimulatedCrash)
                    with inject(plan):
                        with pytest.raises(SimulatedCrash):
                            compact(subject, history_window=window)
                    subject = ModelStore(root / "subject", use_fsync=False)

        recovered = RecoveryManager(subject).recover(
            registry=ModelRegistry(max_versions=2)
        )
        baseline = RecoveryManager(mirror).recover(
            registry=ModelRegistry(max_versions=2)
        )
        assert recovered.registry.snapshot() == baseline.registry.snapshot()
        assert recovered.torn_journal_lines == 0
        # Global offsets survived every boundary: the journal end equals
        # the total number of publishes ever made.
        assert subject.journal_view().end_offset == sum(versions.values())
