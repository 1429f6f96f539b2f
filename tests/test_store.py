"""Unit tests for the crash-safe model store (`repro.store`).

Covers the record codec's validation surface, the atomic append /
journal / scan protocol (including simulated write and lost-fsync
crashes at the ``store.*`` failpoints), quarantine of damaged records,
warm-restart recovery into a registry, and the registry's write-ahead
durability modes.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.basis import OrthonormalBasis, total_degree_index_set
from repro.bmf import SequentialBmf
from repro.faults import FaultPlan, SimulatedCrash, inject
from repro.regression import FittedModel
from repro.runtime.metrics import metrics
from repro.serving import ModelRegistry, PublishRejectedError
from repro.store import (
    MAGIC,
    CorruptRecordError,
    ModelRecord,
    ModelStore,
    RecoveryManager,
    StoreWriteError,
    decode_record,
    encode_record,
    record_crc,
)


def _counter(name):
    return metrics.counters().get(name, 0)


def make_basis(num_vars=3, degree=1):
    return OrthonormalBasis(num_vars, total_degree_index_set(num_vars, degree))


def make_record(name="power", version=1, seed=0, **overrides):
    basis = make_basis()
    rng = np.random.default_rng(seed)
    fields = dict(
        name=name,
        version=version,
        key="deadbeef" * 4,
        published_at=123.5,
        basis_digest=basis.cache_token(),
        basis_num_vars=basis.num_vars,
        basis_index_array=basis.index_array(),
        coefficients=rng.normal(size=len(basis.indices)),
    )
    fields.update(overrides)
    return ModelRecord(**fields)


def v1_blob(basis, coefficients):
    """A record in the version 1 layout: the basis as a JSON index list."""
    header = {
        "record": {
            "name": "power",
            "version": 1,
            "key": "deadbeef" * 4,
            "published_at": 123.5,
            "basis_digest": basis.cache_token(),
            "basis_num_vars": basis.num_vars,
            "basis_indices": [[list(pair) for pair in idx] for idx in basis.indices],
            "prior_name": None,
            "eta": None,
            "chol_prior_index": None,
        },
        "arrays": [
            {
                "name": "coefficients",
                "dtype": coefficients.dtype.str,
                "shape": list(coefficients.shape),
                "offset": 0,
                "nbytes": coefficients.nbytes,
            }
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = struct.pack("<II", 1, len(header_bytes)) + header_bytes + coefficients.tobytes()
    return MAGIC + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + body


def basis_record(basis, **overrides):
    fields = dict(
        basis_digest=basis.cache_token(),
        basis_num_vars=basis.num_vars,
        basis_index_array=basis.index_array(),
        coefficients=np.ones(basis.size),
    )
    fields.update(overrides)
    return make_record(**fields)


class TestRecordFormatV2:
    MIXED = [
        (),
        ((0, 1),),
        ((3, 1),),
        ((0, 1), (2, 1)),
        ((1, 2),),
        ((0, 1), (1, 1), (3, 1)),
        ((2, 3),),
        ((0, 2), (3, 1)),
    ]

    @pytest.mark.parametrize(
        "basis",
        [
            OrthonormalBasis(4, MIXED),
            OrthonormalBasis(3, [()]),
            OrthonormalBasis.linear(5),
            OrthonormalBasis.total_degree(3, 3),
        ],
        ids=["mixed-depth", "constant", "linear", "degree-3"],
    )
    def test_basis_round_trips_with_its_digest(self, basis):
        decoded = decode_record(encode_record(basis_record(basis)))
        assert decoded.basis_index_array.dtype.kind == "i"
        assert not decoded.basis_index_array.flags.writeable
        rebuilt = decoded.basis()
        assert rebuilt == basis
        assert rebuilt.indices == basis.indices
        assert rebuilt.cache_token() == basis.cache_token()

    def test_basis_refuses_a_structure_that_misses_its_digest(self):
        basis = OrthonormalBasis(4, self.MIXED)
        swapped = basis.index_array()[[1, 0, *range(2, basis.size)]]
        record = decode_record(encode_record(basis_record(basis, basis_index_array=swapped)))
        with pytest.raises(CorruptRecordError, match="digest"):
            record.basis()
        invalid = basis.index_array().copy()
        invalid[1, 0] = (7, 1)  # variable outside [0, 4)
        with pytest.raises(CorruptRecordError, match="invalid basis structure"):
            basis_record(basis, basis_index_array=invalid).basis()

    def test_known_bases_are_shared_by_digest(self):
        basis = OrthonormalBasis(4, self.MIXED)
        known = {}
        first = basis_record(basis, version=1).basis(known)
        second = basis_record(basis, version=2).basis(known)
        assert first is second
        assert known == {basis.cache_token(): first}

    def test_version_1_blob_is_unsupported(self, tmp_path):
        basis = make_basis()
        blob = v1_blob(basis, np.ones(basis.size))
        with pytest.raises(CorruptRecordError, match="unsupported format version 1"):
            decode_record(blob)
        store = ModelStore(tmp_path, use_fsync=False)
        (store.records_dir / store.record_filename("power", 1)).write_bytes(blob)
        recovery = RecoveryManager(store).recover()
        assert recovery.restored == ()
        assert len(recovery.quarantined) == 1
        reason = recovery.quarantined[0].with_suffix(".rbmf.reason").read_text()
        assert "unsupported format version 1" in reason

    def test_header_does_not_grow_with_basis_size(self):
        def header_length(num_vars):
            blob = encode_record(basis_record(OrthonormalBasis.linear(num_vars)))
            return struct.unpack_from("<I", blob, 12)[0]

        small, large = header_length(9), header_length(1804)  # M = 10, 1805
        # Only the decimal widths of num_vars, shapes and offsets differ.
        assert large - small < 32
        assert large < 1024


class TestRecordFormat:
    def test_round_trip_is_bitwise_identical(self):
        coeffs = np.array([1.0, -0.0, np.nan, np.inf, 5e-324])
        record = make_record(
            coefficients=coeffs,
            prior_name="nonzero-mean",
            prior_mean=np.array([0.5, 0.25]),
            prior_scale=np.array([1.0, np.inf]),
            eta=1e-3,
            chol_lower=np.tril(np.ones((3, 3))),
            chol_prior_index=0,
            train_x=np.zeros((4, 3)),
            train_f=np.arange(4.0),
        )
        decoded = decode_record(encode_record(record))
        assert decoded.equals_bitwise(record)
        # NaN payload and signed zero survive exactly.
        assert decoded.coefficients.tobytes() == coeffs.tobytes()

    FULL = dict(
        prior_name="nonzero-mean",
        prior_mean=np.array([0.5, 0.25, 0.0, 1.0]),
        prior_scale=np.array([1.0, np.inf, 2.0, 0.5]),
        eta=1e-3,
        chol_lower=np.tril(np.ones((3, 3))),
        chol_prior_index=0,
        train_x=np.zeros((4, 3)),
        train_f=np.arange(4.0),
    )

    def test_decoded_arrays_are_read_only_views_of_the_blob(self):
        blob = encode_record(make_record(**self.FULL))
        whole = np.frombuffer(blob, dtype=np.uint8)
        decoded = decode_record(blob)
        for name in ModelRecord.ARRAY_FIELDS:
            array = getattr(decoded, name)
            assert not array.flags.writeable, name
            assert np.shares_memory(array, whole), name
        # A prior outlives the record it came from, so it owns its arrays.
        prior = decoded.prior()
        assert np.array_equal(prior.mean, decoded.prior_mean)
        assert not np.shares_memory(prior.mean, whole)
        assert not np.shares_memory(prior.scale, whole)

    def test_records_copy_arrays_a_caller_can_change(self):
        coefficients = np.arange(4.0)
        train_x = np.zeros((4, 3))
        read_only = train_x.view()
        read_only.flags.writeable = False
        record = make_record(
            coefficients=coefficients, train_x=read_only, train_f=np.arange(4.0)
        )
        coefficients[0] = 99.0
        train_x[0, 0] = 99.0
        assert record.coefficients[0] == 0.0
        assert record.train_x[0, 0] == 0.0
        assert not record.coefficients.flags.writeable
        # A writable buffer is decoded into copies, not views.
        buffer = bytearray(encode_record(record))
        decoded = decode_record(buffer)
        assert decoded.equals_bitwise(record)
        assert not np.shares_memory(
            decoded.coefficients, np.frombuffer(buffer, dtype=np.uint8)
        )
        assert not decoded.coefficients.flags.writeable

    def test_blob_layout_and_stored_crc(self):
        blob = encode_record(make_record())
        assert blob[:4] == MAGIC
        assert record_crc(blob) == zlib.crc32(blob[8:]) & 0xFFFFFFFF

    def test_optional_fields_round_trip_as_none(self):
        decoded = decode_record(encode_record(make_record()))
        assert decoded.prior_mean is None
        assert decoded.chol_lower is None
        assert decoded.eta is None
        assert decoded.prior() is None

    def test_basis_rebuilds_identically(self):
        basis = make_basis(num_vars=4, degree=2)
        record = make_record(
            basis_digest=basis.cache_token(),
            basis_num_vars=basis.num_vars,
            basis_index_array=basis.index_array(),
            coefficients=np.ones(len(basis.indices)),
        )
        rebuilt = decode_record(encode_record(record)).basis()
        assert rebuilt.cache_token() == basis.cache_token()

    def test_wrong_magic_rejected(self):
        blob = bytearray(encode_record(make_record()))
        blob[0] ^= 0xFF
        with pytest.raises(CorruptRecordError, match="magic"):
            decode_record(bytes(blob))

    def test_truncation_rejected(self):
        blob = encode_record(make_record())
        for cut in (0, 4, 15, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CorruptRecordError):
                decode_record(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = encode_record(make_record())
        with pytest.raises(CorruptRecordError):
            decode_record(blob + b"\x00")

    def test_unsupported_format_version_rejected(self):
        blob = encode_record(make_record())
        body = bytearray(blob[8:])
        struct.pack_into("<I", body, 0, 999)
        forged = (
            MAGIC
            + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
            + bytes(body)
        )
        with pytest.raises(CorruptRecordError, match="version"):
            decode_record(forged)

    def test_equals_bitwise_detects_differences(self):
        record = make_record()
        assert record.equals_bitwise(make_record())
        assert not record.equals_bitwise(make_record(version=2))
        other = make_record(coefficients=record.coefficients + 1e-16)
        assert not record.equals_bitwise(other)
        assert not record.equals_bitwise(object())

    def test_record_validation(self):
        with pytest.raises(ValueError):
            make_record(name="")
        with pytest.raises(ValueError):
            make_record(version=0)
        with pytest.raises(ValueError):
            make_record(coefficients=None)
        with pytest.raises(TypeError):
            encode_record("not a record")


class TestModelStore:
    def test_append_read_scan_round_trip(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        record = make_record()
        path = store.append(record)
        assert path.exists()
        assert store.read(path).equals_bitwise(record)
        entries, torn = store.journal_entries()
        assert torn == 0
        assert [(e.name, e.version) for e in entries] == [("power", 1)]
        assert entries[0].record_crc == record_crc(path.read_bytes())
        scan = store.scan()
        assert len(scan.records) == 1
        assert scan.records[0].equals_bitwise(record)
        assert scan.quarantined == () and scan.missing == ()
        assert scan.unjournaled == () and scan.torn_journal_lines == 0

    def test_record_filenames_are_deterministic_and_distinct(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        assert store.record_filename("power", 1) == store.record_filename("power", 1)
        # Names that sanitize to the same slug stay distinct via the digest.
        assert store.record_filename("a/b", 1) != store.record_filename("a:b", 1)

    def test_scan_sorts_by_name_then_version(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(make_record(name="power", version=2))
        store.append(make_record(name="delay", version=1))
        store.append(make_record(name="power", version=1))
        scan = store.scan()
        assert [(r.name, r.version) for r in scan.records] == [
            ("delay", 1),
            ("power", 1),
            ("power", 2),
        ]

    def test_torn_journal_tail_stops_parse(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(make_record(version=1))
        store.append(make_record(version=2))
        with open(store.journal_path, "ab") as handle:
            handle.write(b"v1 00000000 {torn")  # crashed append: no newline
        entries, torn = store.journal_entries()
        assert len(entries) == 2
        assert torn == 1

    def test_unjournaled_record_still_recovered(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        record = make_record()
        store.append(record)
        store.journal_path.unlink()  # crash between rename and journal append
        scan = store.scan()
        assert len(scan.records) == 1
        assert [(r.name, r.version) for r in scan.unjournaled] == [("power", 1)]

    def test_missing_record_reported_not_fabricated(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        path = store.append(make_record())
        path.unlink()
        scan = store.scan()
        assert scan.records == ()
        assert [(m.name, m.version) for m in scan.missing] == [("power", 1)]

    def test_corrupt_record_quarantined_with_reason(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        path = store.append(make_record())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        before = _counter("store.corrupt_quarantined")
        scan = store.scan()
        assert scan.records == ()
        assert len(scan.quarantined) == 1
        quarantined = scan.quarantined[0]
        assert quarantined.parent == store.quarantine_dir
        reason = quarantined.with_suffix(quarantined.suffix + ".reason")
        assert "checksum" in reason.read_text()
        assert _counter("store.corrupt_quarantined") - before == 1
        # Quarantined records never reappear on later scans.
        assert store.scan().records == ()

    def test_write_crash_leaves_nothing_visible(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        plan = FaultPlan.fail_once("store.write", error=SimulatedCrash)
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                store.append(make_record())
        assert store.record_paths() == []
        assert store.journal_entries() == ([], 0)

    def test_fsync_crash_leaves_torn_record(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        before = _counter("store.torn_writes")
        plan = FaultPlan.fail_once("store.fsync", error=SimulatedCrash)
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                store.append(make_record())
        assert _counter("store.torn_writes") - before == 1
        paths = store.record_paths()
        assert len(paths) == 1  # the rename landed...
        with pytest.raises(CorruptRecordError):
            store.read(paths[0])  # ...but the tail pages did not
        scan = store.scan()
        assert scan.records == ()
        assert len(scan.quarantined) == 1

    def test_non_crash_write_failure_wrapped_and_cleaned(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        before = _counter("store.write_failures")
        with inject(FaultPlan.fail_once("store.write")):
            with pytest.raises(StoreWriteError):
                store.append(make_record())
        assert _counter("store.write_failures") - before == 1
        assert store.record_paths() == []
        assert list(store.records_dir.iterdir()) == []  # temp cleaned up

    def test_injected_load_fault_is_corrupt_record(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        path = store.append(make_record())
        with inject(FaultPlan.fail_once("store.load")):
            with pytest.raises(CorruptRecordError, match="unreadable"):
                store.read(path)
        assert store.read(path).name == "power"  # fault was one-shot


class TestRecovery:
    def _publish_fitted(self, registry, name, seed=0):
        basis = make_basis()
        coeffs = np.random.default_rng(seed).normal(size=len(basis.indices))
        return registry.publish(name, FittedModel(basis, coeffs))

    def test_recovery_is_bitwise_identical(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        self._publish_fitted(registry, "power", seed=1)
        self._publish_fitted(registry, "power", seed=2)
        self._publish_fitted(registry, "delay", seed=3)
        snapshot = registry.snapshot()

        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        assert recovery.registry.snapshot() == snapshot
        assert recovery.restored == (("delay", 1), ("power", 1), ("power", 2))
        assert recovery.rejected == () and recovery.quarantined == ()
        assert recovery.registry.current("power").version == 2

    def test_versions_on_one_basis_share_one_rebuilt_basis(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        for seed in (1, 2, 3):
            self._publish_fitted(registry, "power", seed=seed)
        self._publish_fitted(registry, "delay", seed=4)
        snapshot = registry.snapshot()
        manager = RecoveryManager(ModelStore(tmp_path, use_fsync=False))
        for recovery in (manager.recover(), manager.recover_at(4)):
            assert recovery.registry.snapshot() == snapshot
            bases = [
                version.model.basis
                for name in ("power", "delay")
                for version in recovery.registry.versions(name)
            ]
            assert len(bases) == 4
            assert all(basis is bases[0] for basis in bases)
            assert bases[0] == make_basis()

    def test_basis_off_its_digest_rejected_and_quarantined(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(make_record(version=1))
        store.append(make_record(version=2, basis_digest="0" * 32))
        recovery = RecoveryManager(store).recover()
        assert recovery.restored == (("power", 1),)
        assert [entry[:2] for entry in recovery.rejected] == [("power", 2)]
        assert "digest" in recovery.rejected[0][2]
        assert len(recovery.quarantined) == 1

    def test_corrupt_record_not_restored(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        self._publish_fitted(registry, "power", seed=1)
        self._publish_fitted(registry, "power", seed=2)
        # Corrupt v2 on disk; recovery must fall back to v1.
        path = store.records_dir / store.record_filename("power", 2)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        assert recovery.restored == (("power", 1),)
        assert len(recovery.quarantined) == 1
        assert recovery.registry.current("power").version == 1

    def test_nonfinite_record_rejected_and_quarantined(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(
            make_record(coefficients=np.array([1.0, np.nan, 0.0, 2.0]))
        )
        recovery = RecoveryManager(store).recover()
        assert recovery.restored == ()
        assert len(recovery.rejected) == 1
        assert "non-finite" in recovery.rejected[0][2]
        assert len(recovery.quarantined) == 1
        assert "power" not in recovery.registry

    def test_sequential_state_none_without_samples(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        self._publish_fitted(registry, "power")  # plain FittedModel publish
        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        assert recovery.sequential_state("power") is None
        assert recovery.sequential_state("unknown") is None

    def test_sequential_warm_restart_matches_uncrashed_fitter(self, tmp_path):
        basis = make_basis(num_vars=2, degree=2)
        rng = np.random.default_rng(7)
        alpha = rng.normal(size=len(basis.indices))

        def draw(n):
            x = rng.normal(size=(n, basis.num_vars))
            f = basis.design_matrix(x) @ alpha + 0.01 * rng.normal(size=n)
            return x, f

        def fitter():
            return SequentialBmf(
                basis, alpha, prior_kind="nonzero-mean", eta=1e-3
            )

        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        crashed = fitter()
        survivor = fitter()
        x1, f1 = draw(30)
        crashed.add_samples(x1, f1)
        survivor.add_samples(x1, f1)
        registry.publish("power", crashed)
        del crashed  # the "kill"

        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        state = recovery.sequential_state("power")
        assert state is not None
        rearmed = fitter().rearm(state)
        assert rearmed.last_refit_mode == "rearmed"
        np.testing.assert_allclose(
            rearmed.model.coefficients_, survivor.model.coefficients_
        )
        # The restored factor keeps border-updating on the next batch.
        x2, f2 = draw(10)
        rearmed.add_samples(x2, f2)
        survivor.add_samples(x2, f2)
        assert rearmed.last_refit_mode == "incremental"
        np.testing.assert_allclose(
            rearmed.model.coefficients_, survivor.model.coefficients_
        )


class TestRegistryStoreIntegration:
    def _model(self, seed=0):
        basis = make_basis()
        coeffs = np.random.default_rng(seed).normal(size=len(basis.indices))
        return FittedModel(basis, coeffs)

    def test_invalid_durability_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            ModelRegistry(store=ModelStore(tmp_path), durability="maybe")

    def test_required_durability_rejects_on_store_failure(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        with inject(FaultPlan.fail_once("store.write")):
            with pytest.raises(PublishRejectedError, match="durable"):
                registry.publish("power", self._model())
        assert "power" not in registry
        assert store.record_paths() == []
        # The registry heals: the next publish lands normally as v1... no,
        # version numbers are never reused -- the failed allocate burned v1.
        record = registry.publish("power", self._model())
        assert record.version == 2

    def test_best_effort_durability_serves_without_persisting(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store, durability="best-effort")
        before = _counter("serving.publish_persist_skipped")
        with inject(FaultPlan.fail_once("store.write")):
            record = registry.publish("power", self._model())
        assert record.version == 1
        assert registry.current("power").version == 1
        assert store.record_paths() == []
        assert _counter("serving.publish_persist_skipped") - before == 1

    def test_crash_mid_publish_never_announces(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        registry.publish("power", self._model(seed=1))
        snapshot = registry.snapshot()
        plan = FaultPlan.fail_once("store.fsync", error=SimulatedCrash)
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                registry.publish("power", self._model(seed=2))
        # Write-ahead ordering: the crash may leave a durable (here: torn)
        # record, but the in-memory registry never moved.
        assert registry.snapshot() == snapshot
        assert registry.current("power").version == 1
        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        assert recovery.restored == (("power", 1),)
        assert len(recovery.quarantined) == 1
        assert recovery.registry.snapshot() == snapshot

    def test_restore_out_of_order_rejected(self):
        registry = ModelRegistry()
        model = self._model()
        registry.restore("power", 3, "key", 1.0, model)
        with pytest.raises(ValueError, match="out of order"):
            registry.restore("power", 3, "key", 2.0, model)
        # Publishing after a restore continues the version sequence.
        assert registry.publish("power", model).version == 4


class TestJournalTornMetric:
    """Regression: ``store.journal_torn`` was charged on *every* scan of
    the same torn tail, so any poll-driven consumer (recovery retries, a
    replication follower tailing the journal) inflated the damage count
    without any new damage occurring.  The counter is keyed on the torn
    tail's offset + content and charged once per distinct damage state."""

    def _corrupt_tail(self, store, garbage=b"v1 00000000 {torn"):
        with open(store.journal_path, "ab") as handle:
            handle.write(garbage)  # crashed append: no trailing newline

    def test_two_consecutive_scans_count_once(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(make_record(version=1))
        store.append(make_record(version=2))
        self._corrupt_tail(store)
        before = _counter("store.journal_torn")
        first = store.journal_entries()
        second = store.journal_entries()
        assert first[1] == second[1] == 1  # torn count still reported...
        assert _counter("store.journal_torn") - before == 1  # ...charged once
        # Full scans route through the same parse: still no re-charge.
        assert store.scan().torn_journal_lines == 1
        assert _counter("store.journal_torn") - before == 1

    def test_new_damage_is_charged_again(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(make_record(version=1))
        self._corrupt_tail(store)
        before = _counter("store.journal_torn")
        store.journal_entries()
        assert _counter("store.journal_torn") - before == 1
        self._corrupt_tail(store, garbage=b" more")  # the tail grew: new state
        store.journal_entries()
        assert _counter("store.journal_torn") - before == 2

    def test_repair_resets_the_fingerprint(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        store.append(make_record(version=1))
        clean = store.journal_path.read_bytes()
        self._corrupt_tail(store)
        before = _counter("store.journal_torn")
        store.journal_entries()
        assert _counter("store.journal_torn") - before == 1
        store.journal_path.write_bytes(clean)  # operator repaired the tail
        assert store.journal_entries()[1] == 0
        assert _counter("store.journal_torn") - before == 1
        # Identical damage after a repair is a *new* event: charge again.
        self._corrupt_tail(store)
        store.journal_entries()
        assert _counter("store.journal_torn") - before == 2


class TestVersionGaps:
    """The allocate-then-persist gap, pinned as an invariant: version
    numbers are allocated exactly once and never reused, so a publish
    that fails after allocation burns its number and nothing -- later
    publishes, durable-but-unannounced leftovers, or recovery -- can
    ever collide on a version."""

    def _model(self, seed=0):
        basis = make_basis()
        coeffs = np.random.default_rng(seed).normal(size=len(basis.indices))
        return FittedModel(basis, coeffs)

    def test_failed_publish_gap_survives_recovery(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        registry.publish("power", self._model(seed=1))
        with inject(FaultPlan.fail_once("store.write")):
            with pytest.raises(PublishRejectedError):
                registry.publish("power", self._model(seed=2))  # burns v2
        assert registry.publish("power", self._model(seed=3)).version == 3
        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        assert recovery.restored == (("power", 1), ("power", 3))
        # The recovered allocator resumes above the highest durable
        # version: the gap persists, no number is ever handed out twice.
        assert recovery.registry.publish("power", self._model(seed=4)).version == 4
        assert [r.version for r in store.scan().records] == [1, 3]  # the gap

    def test_durable_but_unannounced_record_never_collides(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        v1 = registry.publish("power", self._model(seed=1))
        # A crash between persist and announce leaves exactly this state:
        # an intact durable v2 the in-memory registry never saw.
        store.append_model(
            "power", 2, "ab" * 16, v1.published_at + 1.0, self._model(seed=2)
        )
        assert registry.current("power").version == 1
        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        # Recovery admits the unannounced record and resumes above it.
        assert recovery.restored == (("power", 1), ("power", 2))
        assert recovery.registry.current("power").version == 2
        assert recovery.registry.publish("power", self._model(seed=3)).version == 3

    def test_torn_leftover_is_skipped_not_reused(self, tmp_path):
        store = ModelStore(tmp_path, use_fsync=False)
        registry = ModelRegistry(store=store)
        registry.publish("power", self._model(seed=1))
        plan = FaultPlan.fail_once("store.fsync", error=SimulatedCrash)
        with inject(plan):
            with pytest.raises(SimulatedCrash):
                registry.publish("power", self._model(seed=2))  # torn v2
        # The survivor (same process) keeps publishing past the gap...
        assert registry.publish("power", self._model(seed=3)).version == 3
        # ...and recovery quarantines the torn v2 instead of resurrecting
        # its number.
        recovery = RecoveryManager(ModelStore(tmp_path, use_fsync=False)).recover()
        assert recovery.restored == (("power", 1), ("power", 3))
        assert len(recovery.quarantined) == 1
        assert recovery.registry.publish("power", self._model(seed=4)).version == 4
