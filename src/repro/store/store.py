"""Crash-safe on-disk model store: atomic records plus an append-only journal.

Layout under the store root (generation 0, the seed layout)::

    root/
      records/     one ``.rbmf`` blob per published version (atomic rename)
      quarantine/  records that failed validation, moved aside with a reason
      journal.log  append-only publish log, one checksummed line per record

Generational compaction (:mod:`repro.store.compaction`) folds the journal
prefix into a snapshot: the survivor records plus a checkpointed journal
land in a sibling generation directory and an atomically-swung ``CURRENT``
pointer names the live one::

    root/
      CURRENT               "gen-00000001" (write-temp -> fsync -> rename)
      gen-00000001/
        records/            survivor set (latest per key + history window)
        quarantine/         carried forward, sidecars tagged with generation
        journal.log         first line is a ``c1`` checkpoint, then appends

A store whose root has no ``CURRENT`` pointer *is* generation 0 -- the
layouts are bitwise compatible, and every path in this class resolves
through the live generation on access, so appends racing a compaction
swing land on whichever generation owns the append lock's critical
section.  Journal offsets are **global**: the checkpoint records how many
entries the retired prefix held (``base``), and entries in the live
journal continue the count, so follower offsets survive compaction.

Durability protocol (the classic write-temp -> fsync -> rename dance):

1. the encoded record is written to ``records/<file>.tmp``;
2. the temp file is flushed and ``fsync``'d -- its bytes are durable;
3. ``os.replace`` renames it over the final name -- the *commit point*:
   a record is published iff the final name exists;
4. the records directory is ``fsync``'d so the rename itself is durable;
5. a journal line is appended (and ``fsync``'d) describing the record.

A crash before step 3 leaves at most an invisible ``.tmp`` file; a crash
after step 3 but before step 5 leaves a valid record the journal does not
know about (recovery still admits it -- rename is the commit point, the
journal is an audit log).  The dangerous window is a *lost fsync* (step 2
skipped by a dying kernel): the rename can survive while the data pages
do not, leaving a **torn** record.  The ``store.fsync`` failpoint armed
with :class:`~repro.faults.SimulatedCrash` models exactly that worst
case, deterministically: the store truncates the half-written file,
renames it into place, and re-raises the crash -- recovery must then
catch the damage by CRC and quarantine the record.

Failpoints: ``store.write`` (mid-payload; a crash here abandons a
half-written temp file), ``store.fsync`` (before the data fsync),
``store.load`` (per record read).  All activity is reported through
integer ``store.*`` counters in :mod:`repro.runtime.metrics`, so chaos
signatures over them stay a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from ..locks import named_lock
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from ..faults import SimulatedCrash, failpoint
from ..runtime.metrics import metrics
from .format import (
    CorruptRecordError,
    ModelRecord,
    decode_record,
    encode_record,
    record_crc,
)

__all__ = [
    "JournalCheckpoint",
    "JournalEntry",
    "JournalView",
    "ModelStore",
    "StoreWriteError",
    "StoreScan",
]

#: Fires mid-payload, after the first half of the record bytes are written;
#: a :class:`~repro.faults.SimulatedCrash` here abandons the temp file.
_FP_WRITE = failpoint("store.write")
#: Fires just before the temp file's data fsync; a crash here is modeled as
#: a lost fsync -- the rename lands but the tail pages do not (torn record).
_FP_FSYNC = failpoint("store.fsync")
#: Fires at the top of every record read; an injected error marks the
#: record unreadable (recovery quarantines it).
_FP_LOAD = failpoint("store.load")

_JOURNAL_LINE = re.compile(r"^v1 (?P<crc>[0-9a-f]{8}) (?P<payload>\{.*\})$")
#: Checkpoint line written by compaction as the *first* line of a new
#: generation's journal; same CRC discipline as ``v1`` entry lines.
_CHECKPOINT_LINE = re.compile(r"^c1 (?P<crc>[0-9a-f]{8}) (?P<payload>\{.*\})$")

#: ``CURRENT`` pointer file naming the live generation directory.
CURRENT_POINTER = "CURRENT"
#: Prefix of generation directory names (``gen-00000001``).
GENERATION_PREFIX = "gen-"


def generation_dir_name(generation: int) -> str:
    """Directory name of generation ``generation`` (``gen-<8 digits>``)."""
    return f"{GENERATION_PREFIX}{int(generation):08d}"


class StoreWriteError(RuntimeError):
    """A record could not be made durable (no partial state left behind)."""


@dataclass(frozen=True)
class JournalEntry:
    """One checksummed publish line from the append-only journal."""

    name: str
    version: int
    filename: str
    record_crc: int


@dataclass(frozen=True)
class JournalCheckpoint:
    """The ``c1`` snapshot header of a compacted generation's journal.

    ``base`` is the number of journal entries the retired prefix held --
    the global offset the snapshot stands in for.  ``snapshot`` lists the
    survivor records (sorted by ``(name, version)``, so per-name version
    order is increasing) exactly as entry lines would; ``quarantined``
    records ``(name, version, filename)`` for records that were journaled
    in the retired generation but failed validation during compaction and
    were moved to the new generation's quarantine instead of copied.
    """

    generation: int
    base: int
    snapshot: Tuple[JournalEntry, ...]
    quarantined: Tuple[Tuple[str, int, str], ...] = ()


@dataclass(frozen=True)
class JournalView:
    """Generation-aware parse of the live journal.

    Offsets are **global**: entry ``i`` of :attr:`entries` sits at global
    journal offset ``checkpoint_offset + i``.  Generation 0 (no
    checkpoint) has ``checkpoint_offset == 0`` and an empty snapshot, so
    the view degrades to the flat-journal semantics.
    """

    generation: int
    #: Global offset the snapshot stands in for (``0`` before compaction).
    checkpoint_offset: int
    #: Survivor manifest from the checkpoint (empty for generation 0).
    snapshot: Tuple[JournalEntry, ...]
    #: Post-checkpoint appends, in journal order.
    entries: Tuple[JournalEntry, ...]
    #: Trailing journal lines dropped as torn.
    torn_lines: int
    #: ``(name, version, filename)`` quarantined during compaction.
    compaction_quarantined: Tuple[Tuple[str, int, str], ...] = ()

    @property
    def end_offset(self) -> int:
        """Global offset one past the newest journaled entry."""
        return self.checkpoint_offset + len(self.entries)


@dataclass(frozen=True)
class StoreScan:
    """Outcome of one full store scan (see :meth:`ModelStore.scan`)."""

    #: Valid records, sorted by ``(name, version)``.
    records: Tuple[ModelRecord, ...]
    #: Final resting paths of records quarantined during this scan.
    quarantined: Tuple[Path, ...]
    #: Journal entries whose record file is missing from ``records/``.
    missing: Tuple[JournalEntry, ...]
    #: Valid records the journal does not mention (crash between the
    #: rename commit point and the journal append).
    unjournaled: Tuple[ModelRecord, ...]
    #: Trailing journal lines dropped as torn (bad per-line CRC / truncated).
    torn_journal_lines: int
    #: Live generation id the scan ran against (0 before any compaction).
    generation: int = 0
    #: Global journal offset folded into the generation's snapshot.
    checkpoint_offset: int = 0
    #: ``(name, version, filename)`` journaled in a retired generation but
    #: quarantined (not copied) by compaction -- the audit trail for
    #: records that must be neither served nor reported missing.
    compaction_quarantined: Tuple[Tuple[str, int, str], ...] = ()


def _slug(name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "model"
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).hexdigest()
    return f"{safe[:48]}-{digest}"


class ModelStore:
    """Directory-backed store of published model records.

    Parameters
    ----------
    root:
        Store directory (created, with subdirectories, when missing).
    use_fsync:
        Issue real ``os.fsync`` calls (temp file, directory, journal).
        Disable only in tests that measure pure codec cost; the crash
        guarantees obviously require it on.

    Thread safety: appends and journal writes are serialized under one
    lock; reads are lock-free (records are immutable once renamed in).
    """

    RECORD_SUFFIX = ".rbmf"

    def __init__(self, root, use_fsync: bool = True):
        self.root = Path(root)
        self.use_fsync = bool(use_fsync)
        self._lock = named_lock("store.append")
        # Fingerprint of the torn journal tail last charged to the
        # ``store.journal_torn`` counter; re-parsing the *same* damage
        # (repeated scans, follower tailing) must not re-count it.
        self._torn_counted: Optional[Tuple[int, bytes]] = None
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Generation resolution
    # ------------------------------------------------------------------
    @property
    def current_pointer(self) -> Path:
        """The ``CURRENT`` pointer file naming the live generation."""
        return self.root / CURRENT_POINTER

    def _resolve_generation(self) -> Tuple[int, Path]:
        """``(generation id, generation dir)`` of the live generation.

        A missing (or unparseable) ``CURRENT`` pointer means the root
        itself is generation 0 -- the pre-compaction layout.  The pointer
        is swung by ``os.replace``, so a read sees either the old or the
        new generation name, never a torn hybrid.
        """
        try:
            text = self.current_pointer.read_text(encoding="utf-8").strip()
        except (FileNotFoundError, OSError):
            return 0, self.root
        if not text.startswith(GENERATION_PREFIX):
            return 0, self.root
        try:
            generation = int(text[len(GENERATION_PREFIX) :])
        except ValueError:
            return 0, self.root
        return generation, self.root / text

    @property
    def generation(self) -> int:
        """Live generation id (0 until the first compaction)."""
        return self._resolve_generation()[0]

    @property
    def generation_dir(self) -> Path:
        """Directory of the live generation (the root for generation 0)."""
        return self._resolve_generation()[1]

    @property
    def records_dir(self) -> Path:
        """``records/`` of the live generation."""
        return self.generation_dir / "records"

    @property
    def quarantine_dir(self) -> Path:
        """``quarantine/`` of the live generation."""
        return self.generation_dir / "quarantine"

    @property
    def journal_path(self) -> Path:
        """``journal.log`` of the live generation."""
        return self.generation_dir / "journal.log"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_filename(self, name: str, version: int) -> str:
        """Deterministic record filename for ``(name, version)``."""
        return f"{_slug(name)}-v{int(version):08d}{self.RECORD_SUFFIX}"

    def append(self, record: ModelRecord) -> Path:
        """Durably persist ``record``; returns the committed path.

        Raises :class:`StoreWriteError` when the record could not be made
        durable (temp state cleaned up, nothing visible to recovery) and
        lets :class:`~repro.faults.SimulatedCrash` propagate untouched
        after performing crash-consistent (possibly torn) on-disk effects.
        """
        blob = encode_record(record)
        metrics.increment("store.writes")
        # Appends are deliberately serialized end-to-end: the write-ahead
        # protocol requires record bytes to hit disk before the journal
        # line, in version order, and readers never take this lock.  The
        # fsync-under-lock cost is the durability contract, not an
        # accident, so the REP011 findings below are audited suppressions.
        with self._lock:
            # Resolve the live generation *inside* the critical section:
            # compaction swings CURRENT under this same lock, so an append
            # can never land in a generation that is about to be retired.
            final = self.records_dir / self.record_filename(
                record.name, record.version
            )
            tmp = final.with_suffix(final.suffix + ".tmp")
            try:
                self._write_atomic(tmp, final, blob)  # repro: noqa[REP011] -- WAL ordering requires fsync under the append lock
            except SimulatedCrash:
                raise
            except Exception as exc:
                metrics.increment("store.write_failures")
                tmp.unlink(missing_ok=True)
                raise StoreWriteError(
                    f"could not persist {record.name!r} v{record.version}: {exc}"
                ) from exc
            self._journal_append(record, final.name, blob)  # repro: noqa[REP011] -- journal append must stay inside the same critical section
        return final

    def _write_atomic(self, tmp: Path, final: Path, blob: bytes) -> None:
        half = len(blob) // 2
        view = memoryview(blob)
        crash: Optional[SimulatedCrash] = None
        with open(tmp, "wb") as handle:
            handle.write(view[:half])
            _FP_WRITE.hit()
            handle.write(view[half:])
            handle.flush()
            try:
                _FP_FSYNC.hit()
            except SimulatedCrash as exc:
                # Lost-fsync crash: data pages past the first half never
                # reach disk, but the rename below still can.  Truncate
                # deterministically so recovery faces a torn record.
                crash = exc
                handle.truncate(half)
                handle.flush()
            else:
                if self.use_fsync:
                    os.fsync(handle.fileno())
        os.replace(tmp, final)
        self._fsync_dir(self.records_dir)
        if crash is not None:
            metrics.increment("store.torn_writes")
            raise crash

    def _fsync_dir(self, directory: Path) -> None:
        if not self.use_fsync:
            return
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _journal_append(self, record: ModelRecord, filename: str, blob: bytes) -> None:
        # The blob's stored CRC was computed over these very bytes by
        # encode_record; the journal line repeats it instead of rehashing.
        payload = json.dumps(
            {
                "name": record.name,
                "version": record.version,
                "file": filename,
                "crc": record_crc(blob),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        line = f"v1 {zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x} {payload}\n"
        try:
            with open(self.journal_path, "ab") as handle:
                handle.write(line.encode("utf-8"))
                handle.flush()
                if self.use_fsync:
                    os.fsync(handle.fileno())
        except OSError:
            # The record itself is already committed (rename happened);
            # a failed journal append only degrades the audit trail.
            metrics.increment("store.journal_write_failures")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def record_paths(self) -> List[Path]:
        """Committed record files, sorted by filename (temp files excluded)."""
        return sorted(
            path
            for path in self.records_dir.iterdir()
            if path.suffix == self.RECORD_SUFFIX
        )

    def read(self, path) -> ModelRecord:
        """Read and validate one record file.

        Raises :class:`~repro.store.CorruptRecordError` for unreadable or
        damaged records (including injected ``store.load`` faults, which
        model unreadable sectors); :class:`~repro.faults.SimulatedCrash`
        propagates untouched.
        """
        path = Path(path)
        metrics.increment("store.loads")
        try:
            _FP_LOAD.hit()
        except SimulatedCrash:
            raise
        except Exception as exc:
            metrics.increment("store.load_failures")
            raise CorruptRecordError(f"{path.name}: unreadable: {exc}") from exc
        try:
            blob = path.read_bytes()
        except OSError as exc:
            metrics.increment("store.load_failures")
            raise CorruptRecordError(f"{path.name}: unreadable: {exc}") from exc
        try:
            return decode_record(blob)
        except CorruptRecordError:
            metrics.increment("store.load_failures")
            raise

    def journal_entries(self) -> Tuple[List[JournalEntry], int]:
        """Parse the live journal; returns ``(entries, torn_trailing_lines)``.

        ``entries`` are the live generation's *appends* -- entry ``i``
        sits at global journal offset ``checkpoint_offset + i`` (see
        :meth:`journal_view` for the checkpoint offset and the snapshot
        manifest; before any compaction the two notions coincide).

        Lines are validated front to back; the first damaged line (bad
        shape or per-line CRC -- a torn tail from a crashed append) stops
        the parse, and it plus everything after it is counted as torn.

        The ``store.journal_torn`` counter is charged **once per distinct
        journal damage state** (keyed on the torn tail's offset and
        content): repeated scans or recoveries of the same torn tail --
        and a replication follower tailing the journal every publish --
        leave the metric untouched, so it counts damage events, not
        reads.  *New* damage (a different torn tail) is charged again.
        """
        _, entries, torn = self._parse_journal()
        return list(entries), torn

    def journal_view(self) -> JournalView:
        """Generation-aware journal parse with global offsets.

        The view is the compaction-stable contract consumers should code
        against: :attr:`JournalView.checkpoint_offset` is the global
        offset the snapshot stands in for, :attr:`JournalView.snapshot`
        re-lists the survivor records a retired prefix folded into, and
        :attr:`JournalView.entries` continue the global offset count.  A
        follower that crossed a compaction boundary (the view's
        generation differs from the one it last saw) replays the snapshot
        idempotently instead of rewinding to raw offset 0.
        """
        generation = self.generation
        checkpoint, entries, torn = self._parse_journal()
        if checkpoint is None:
            return JournalView(
                generation=generation,
                checkpoint_offset=0,
                snapshot=(),
                entries=entries,
                torn_lines=torn,
            )
        return JournalView(
            generation=checkpoint.generation,
            checkpoint_offset=checkpoint.base,
            snapshot=checkpoint.snapshot,
            entries=entries,
            torn_lines=torn,
            compaction_quarantined=checkpoint.quarantined,
        )

    def _parse_journal(
        self, count_torn: bool = True
    ) -> Tuple[Optional[JournalCheckpoint], Tuple[JournalEntry, ...], int]:
        """Shared journal parse: ``(checkpoint, appends, torn_lines)``.

        Only the first line may be a ``c1`` checkpoint (compaction writes
        it before the generation goes live); a damaged checkpoint line is
        treated like any torn line -- the parse stops and everything from
        it on is counted torn.  ``count_torn=False`` skips the damage
        bookkeeping (used by compaction, which already holds the append
        lock the bookkeeping would re-acquire).
        """
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return None, (), 0
        checkpoint: Optional[JournalCheckpoint] = None
        entries: List[JournalEntry] = []
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for index, line in enumerate(lines):
            if index == 0 and line.startswith(b"c1 "):
                checkpoint = self._parse_checkpoint_line(line)
                if checkpoint is not None:
                    continue
            entry = self._parse_journal_line(line)
            if entry is None:
                torn = len(lines) - index
                if count_torn:
                    torn_tail = b"\n".join(lines[index:])
                    state = (
                        index,
                        hashlib.blake2b(torn_tail, digest_size=16).digest(),
                    )
                    with self._lock:
                        new_damage = state != self._torn_counted
                        self._torn_counted = state
                    if new_damage:
                        metrics.increment("store.journal_torn", torn)
                return checkpoint, tuple(entries), torn
            entries.append(entry)
        if count_torn:
            with self._lock:
                self._torn_counted = None
        return checkpoint, tuple(entries), 0

    @staticmethod
    def _parse_journal_line(line: bytes) -> Optional[JournalEntry]:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        match = _JOURNAL_LINE.match(text)
        if match is None:
            return None
        payload = match.group("payload")
        if int(match.group("crc"), 16) != (
            zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        ):
            return None
        try:
            body = json.loads(payload)
            return JournalEntry(
                name=body["name"],
                version=int(body["version"]),
                filename=body["file"],
                record_crc=int(body["crc"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    @staticmethod
    def encode_checkpoint(checkpoint: JournalCheckpoint) -> bytes:
        """Serialize a checkpoint as the ``c1`` journal header line."""
        payload = json.dumps(
            {
                "generation": int(checkpoint.generation),
                "base": int(checkpoint.base),
                "snapshot": [
                    [e.name, e.version, e.filename, e.record_crc]
                    for e in checkpoint.snapshot
                ],
                "quarantined": [
                    [name, version, filename]
                    for name, version, filename in checkpoint.quarantined
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        return f"c1 {crc:08x} {payload}\n".encode("utf-8")

    @staticmethod
    def _parse_checkpoint_line(line: bytes) -> Optional[JournalCheckpoint]:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        match = _CHECKPOINT_LINE.match(text)
        if match is None:
            return None
        payload = match.group("payload")
        if int(match.group("crc"), 16) != (
            zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        ):
            return None
        try:
            body = json.loads(payload)
            snapshot = tuple(
                JournalEntry(
                    name=name,
                    version=int(version),
                    filename=filename,
                    record_crc=int(crc),
                )
                for name, version, filename, crc in body["snapshot"]
            )
            quarantined = tuple(
                (name, int(version), filename)
                for name, version, filename in body.get("quarantined", [])
            )
            return JournalCheckpoint(
                generation=int(body["generation"]),
                base=int(body["base"]),
                snapshot=snapshot,
                quarantined=quarantined,
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Quarantine + scan
    # ------------------------------------------------------------------
    def quarantine(self, path, reason: str, generation: Optional[int] = None) -> Path:
        """Move a damaged record aside; it is never served or re-scanned.

        The ``.reason`` sidecar carries the generation the record came
        from (``generation:`` line) so records journaled in a retired
        generation stay attributable after compaction; ``generation``
        defaults to the live one.
        """
        path = Path(path)
        quarantine_dir = self.quarantine_dir
        target = quarantine_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine_dir / f"{path.name}.{suffix}"
        os.replace(path, target)
        origin = self.generation if generation is None else int(generation)
        target.with_suffix(target.suffix + ".reason").write_text(
            f"{reason}\ngeneration: {origin}\n", encoding="utf-8"
        )
        self._fsync_dir(quarantine_dir)
        self._fsync_dir(self.records_dir)
        metrics.increment("store.corrupt_quarantined")
        return target

    def scan(self, quarantine_corrupt: bool = True) -> StoreScan:
        """Validate every committed record against its CRC and the journal.

        Corrupt or torn records are quarantined (when
        ``quarantine_corrupt``) and reported; valid records come back
        sorted by ``(name, version)`` ready for registry restoration.
        The snapshot manifest of a compacted generation counts as
        journaled (survivors are re-listed by the checkpoint), and a scan
        that races a compaction swing retries against the new generation
        so it never mixes two generations' contents.
        """
        for _ in range(3):
            generation = self.generation
            result = self._scan_once(quarantine_corrupt)
            if self.generation == generation:
                return result
        return self._scan_once(quarantine_corrupt)

    def _scan_once(self, quarantine_corrupt: bool) -> StoreScan:
        view = self.journal_view()
        journaled = {
            entry.filename: entry for entry in view.snapshot + view.entries
        }
        records: List[ModelRecord] = []
        quarantined: List[Path] = []
        unjournaled: List[ModelRecord] = []
        seen_files = set()
        for path in self.record_paths():
            seen_files.add(path.name)
            try:
                record = self.read(path)
            except CorruptRecordError as exc:
                if quarantine_corrupt:
                    quarantined.append(self.quarantine(path, str(exc)))
                else:
                    quarantined.append(path)
                continue
            records.append(record)
            if path.name not in journaled:
                unjournaled.append(record)
                metrics.increment("store.recovered_unjournaled")
        missing = tuple(
            entry
            for entry in view.snapshot + view.entries
            if entry.filename not in seen_files
        )
        if missing:
            metrics.increment("store.missing_records", len(missing))
        records.sort(key=lambda r: (r.name, r.version))
        return StoreScan(
            records=tuple(records),
            quarantined=tuple(quarantined),
            missing=missing,
            unjournaled=tuple(unjournaled),
            torn_journal_lines=view.torn_lines,
            generation=view.generation,
            checkpoint_offset=view.checkpoint_offset,
            compaction_quarantined=view.compaction_quarantined,
        )

    # ------------------------------------------------------------------
    # Publish-side convenience (used by ModelRegistry)
    # ------------------------------------------------------------------
    def append_model(
        self,
        name: str,
        version: int,
        key: str,
        published_at: float,
        model,
        prior=None,
        eta: Optional[float] = None,
        sequential_state=None,
    ) -> Path:
        """Build and persist the record for one published model version.

        ``model`` is a :class:`~repro.regression.base.FittedModel`-like
        object (``basis`` + ``coefficients``); ``sequential_state`` is an
        optional :class:`repro.bmf.SequentialFitterState` carrying the
        samples and dual Cholesky factor for warm sequential resume.
        """
        record = ModelRecord(
            name=name,
            version=int(version),
            key=key,
            published_at=float(published_at),
            basis_digest=model.basis.cache_token(),
            basis_num_vars=model.basis.num_vars,
            basis_index_array=model.basis.index_array(),
            coefficients=model.coefficients,
            prior_name=None if prior is None else prior.name,
            prior_mean=None if prior is None else prior.mean,
            prior_scale=None if prior is None else prior.scale,
            eta=None if eta is None else float(eta),
            chol_lower=(
                None if sequential_state is None else sequential_state.chol_lower
            ),
            chol_prior_index=(
                None
                if sequential_state is None
                else sequential_state.chol_prior_index
            ),
            train_x=None if sequential_state is None else sequential_state.x,
            train_f=None if sequential_state is None else sequential_state.f,
        )
        return self.append(record)
