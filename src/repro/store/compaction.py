"""Generational snapshot compaction for the crash-safe model store.

An append-only store hoards every superseded version, so recovery (and a
journal follower's bootstrap) replays history that no longer matters.
:func:`compact` folds the journal prefix into a snapshot:

1. **select** -- group every known record (journaled appends, a previous
   generation's snapshot manifest, and valid-but-unjournaled strays) by
   name and keep the newest ``history_window + 1`` *valid* versions of
   each: a survivor that fails its CRC is quarantine-copied (its
   ``.reason`` sidecar names the generation it came from) and the next
   older version is promoted in its place, exactly what uncompacted
   recovery would have restored;
2. **copy** -- write the survivor files into a fresh generation directory
   (``root/gen-<n>/records``) and fsync them;
3. **checkpoint** -- write the new generation's ``journal.log`` whose
   first line is a ``c1`` checkpoint: the global offset the snapshot
   stands in for (``base``), the survivor manifest, and the quarantined
   list; fsync it;
4. **swing** -- under the store's append lock, absorb any appends that
   raced phases 1-3, re-plan the snapshot, then atomically swing the
   ``CURRENT`` pointer (write-temp -> fsync -> ``os.replace`` -> dir
   fsync).  The ``store.compact.swing`` failpoint fires just before the
   rename: a crash there leaves the *old* generation fully live and the
   new directory as ignorable garbage;
5. **retire** -- outside the lock, salvage the old generation's
   quarantine into the new one and delete the old payload.  The
   ``store.compact.retire`` failpoint fires first: a crash there leaves
   the *new* generation fully live with the old directory ignored on
   disk (the next compaction sweeps stale generations).

Because the swing shares the append lock with :meth:`ModelStore.append`
(which re-resolves the live generation inside its critical section), the
store keeps accepting appends throughout: they land in whichever
generation owns the lock, never in a retired one.  Journal offsets are
global -- the checkpoint's ``base`` continues the retired prefix's count
-- so followers and point-in-time recovery survive the boundary.

Metrics: ``store.compaction.runs`` / ``kept`` / ``dropped`` /
``quarantined`` / ``retired`` counters and the ``store.compaction``
timer, all declared in :mod:`repro.runtime.catalog`.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..faults import SimulatedCrash, failpoint
from ..runtime.metrics import metrics
from .format import CorruptRecordError, record_crc
from .store import (
    GENERATION_PREFIX,
    JournalCheckpoint,
    JournalEntry,
    ModelStore,
    generation_dir_name,
)

__all__ = ["CompactionReport", "compact", "stale_generations"]

#: Fires just before the ``CURRENT`` pointer rename; a crash here aborts
#: the compaction with the old generation still fully live.
_FP_SWING = failpoint("store.compact.swing")
#: Fires just before the old generation is deleted; a crash here leaves
#: the new generation live and the old directory as ignored garbage.
_FP_RETIRE = failpoint("store.compact.retire")


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of one :func:`compact` run."""

    #: Live generation id after the swing.
    generation: int
    #: Generation id that was retired (or left stale on a retire crash).
    previous_generation: int
    #: Global journal offset the new snapshot stands in for.
    checkpoint_offset: int
    #: ``(name, version)`` of every record carried into the new generation.
    kept: Tuple[Tuple[str, int], ...]
    #: ``(name, version)`` dropped by the history window.
    dropped: Tuple[Tuple[str, int], ...]
    #: Quarantine paths (new generation) of records that failed their CRC.
    quarantined: Tuple[Path, ...]
    #: ``(name, version)`` journaled but absent from disk; resolved out of
    #: the new generation's audit trail (reported here, nowhere else).
    missing: Tuple[Tuple[str, int], ...]
    #: Stale generation directories deleted during retirement.
    retired: Tuple[Path, ...]


@dataclass
class _Candidate:
    """One record known to the pre-compaction generation."""

    name: str
    version: int
    filename: str
    record_crc: Optional[int]  # None until computed from the file bytes
    journaled: bool


def stale_generations(store: ModelStore) -> List[Path]:
    """Generation directories on disk that are not the live one.

    Crashed compactions leave these behind (a swing crash orphans the new
    directory; a retire crash orphans the old one); they are ignored by
    every read path and swept by the next successful :func:`compact`.
    Generation 0 is the store root itself: its leftover payload
    (``records/``, ``quarantine/``, ``journal.log``) counts as stale once
    a later generation is live, and is reported as the root path.
    """
    live = store.generation_dir
    out = []
    if live != store.root and any(
        (store.root / name).exists()
        for name in ("records", "quarantine", "journal.log")
    ):
        out.append(store.root)
    for path in sorted(store.root.iterdir()):
        if (
            path.is_dir()
            and path.name.startswith(GENERATION_PREFIX)
            and path != live
        ):
            out.append(path)
    return out


def _next_generation_id(store: ModelStore) -> int:
    """A generation id strictly above everything on disk (crash-safe)."""
    highest = store.generation
    for path in store.root.iterdir():
        if path.is_dir() and path.name.startswith(GENERATION_PREFIX):
            try:
                highest = max(highest, int(path.name[len(GENERATION_PREFIX) :]))
            except ValueError:
                continue
    return highest + 1


def _collect_candidates(store: ModelStore) -> Dict[str, List[_Candidate]]:
    """Every record the live generation knows, grouped by name.

    Journaled records (snapshot manifest + appends) come with their CRC;
    valid record files the journal does not mention (a crash between the
    rename commit point and the journal append) are still candidates --
    compaction re-journals them, repairing the audit trail.
    """
    view = store.journal_view()
    by_file: Dict[str, _Candidate] = {}
    for entry in view.snapshot + view.entries:
        by_file[entry.filename] = _Candidate(
            name=entry.name,
            version=entry.version,
            filename=entry.filename,
            record_crc=entry.record_crc,
            journaled=True,
        )
    for path in store.record_paths():
        if path.name in by_file:
            continue
        try:
            record = store.read(path)
        except SimulatedCrash:
            raise
        except (CorruptRecordError, OSError):
            # Unjournaled *and* unreadable: nobody can attribute it; the
            # scan/recovery path quarantines it from the live generation.
            continue
        by_file[path.name] = _Candidate(
            name=record.name,
            version=record.version,
            filename=path.name,
            record_crc=None,
            journaled=False,
        )
    grouped: Dict[str, List[_Candidate]] = {}
    for candidate in by_file.values():
        grouped.setdefault(candidate.name, []).append(candidate)
    for candidates in grouped.values():
        candidates.sort(key=lambda c: c.version)
    return grouped


class _SurvivorSet:
    """Plans and materializes the survivor set in the new generation.

    ``reconcile`` is re-runnable: phase 2 merges late appends into the
    candidate map and calls it again under the append lock, and it
    converges because a failed copy permanently marks its file bad (the
    next plan promotes an older version in its place).
    """

    def __init__(
        self,
        store: ModelStore,
        history_window: int,
        old_records: Path,
        new_records: Path,
        new_quarantine: Path,
        old_generation: int,
    ):
        self.store = store
        self.history_window = history_window
        self.old_records = old_records
        self.new_records = new_records
        self.new_quarantine = new_quarantine
        self.old_generation = old_generation
        self.copied: Dict[str, _Candidate] = {}
        self.bad_files: Set[str] = set()
        self.dropped: List[Tuple[str, int]] = []
        self.quarantined_paths: List[Path] = []
        self.quarantined_meta: List[Tuple[str, int, str]] = []
        self.missing: List[Tuple[str, int]] = []

    def _plan(self, grouped: Dict[str, List[_Candidate]]) -> List[_Candidate]:
        keep: List[_Candidate] = []
        self.dropped = []
        retain = self.history_window + 1
        for name in sorted(grouped):
            good = [c for c in grouped[name] if c.filename not in self.bad_files]
            keep.extend(good[-retain:])
            self.dropped.extend((c.name, c.version) for c in good[:-retain])
        return keep

    def reconcile(self, grouped: Dict[str, List[_Candidate]]) -> None:
        while True:
            keep = self._plan(grouped)
            pending = [c for c in keep if c.filename not in self.copied]
            if not pending:
                # Drop copies a newer (late-appended) version pushed out.
                keep_files = {c.filename for c in keep}
                for filename in list(self.copied):
                    if filename not in keep_files:
                        (self.new_records / filename).unlink(missing_ok=True)
                        del self.copied[filename]
                return
            for candidate in pending:
                self._copy(candidate)

    def _copy(self, candidate: _Candidate) -> None:
        source = self.old_records / candidate.filename
        try:
            blob = source.read_bytes()
        except OSError:
            self.bad_files.add(candidate.filename)
            self.missing.append((candidate.name, candidate.version))
            return
        reason: Optional[str] = None
        try:
            record = self.store.read(source)
        except SimulatedCrash:
            raise
        except CorruptRecordError as exc:
            reason = str(exc)
        else:
            if (record.name, record.version) != (candidate.name, candidate.version):
                reason = (
                    f"journal names {candidate.name!r} v{candidate.version} but "
                    f"the file decodes as {record.name!r} v{record.version}"
                )
        if reason is not None:
            self.bad_files.add(candidate.filename)
            target = self.new_quarantine / candidate.filename
            target.write_bytes(blob)
            target.with_suffix(target.suffix + ".reason").write_text(
                f"{reason}\ngeneration: {self.old_generation}\n",
                encoding="utf-8",
            )
            metrics.increment("store.corrupt_quarantined")
            self.quarantined_paths.append(target)
            self.quarantined_meta.append(
                (candidate.name, candidate.version, candidate.filename)
            )
            return
        destination = self.new_records / candidate.filename
        with open(destination, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.store.use_fsync:
                os.fsync(handle.fileno())
        candidate.record_crc = record_crc(blob)
        self.copied[candidate.filename] = candidate

    def snapshot(self) -> Tuple[JournalEntry, ...]:
        return tuple(
            JournalEntry(
                name=c.name,
                version=c.version,
                filename=c.filename,
                record_crc=c.record_crc,
            )
            for c in sorted(self.copied.values(), key=lambda c: (c.name, c.version))
        )


def _fsync_path(path: Path, use_fsync: bool) -> None:
    if not use_fsync:
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def compact(
    store: ModelStore, history_window: int = 0, retire: bool = True
) -> CompactionReport:
    """Fold the store's journal prefix into a fresh generation.

    ``history_window`` is how many *superseded* versions to keep per name
    on top of the newest one (0 keeps only the latest).  ``retire=False``
    leaves the old generation directory on disk (it is ignored by every
    read path); the next compaction sweeps it either way.

    Lets :class:`~repro.faults.SimulatedCrash` propagate untouched after
    crash-consistent on-disk effects: a crash at ``store.compact.swing``
    leaves the old generation fully live (the new directory is ignorable
    garbage), a crash at ``store.compact.retire`` leaves the new
    generation fully live (the old directory is ignored) -- never a
    hybrid.
    """
    if history_window < 0:
        raise ValueError(f"history_window must be >= 0, got {history_window}")
    with metrics.timer("store.compaction"):
        report = _compact(store, history_window, retire)
    metrics.increment("store.compaction.runs")
    metrics.increment("store.compaction.kept", len(report.kept))
    metrics.increment("store.compaction.dropped", len(report.dropped))
    if report.quarantined:
        metrics.increment("store.compaction.quarantined", len(report.quarantined))
    if report.retired:
        metrics.increment("store.compaction.retired", len(report.retired))
    return report


def _compact(store: ModelStore, history_window: int, retire: bool) -> CompactionReport:
    old_generation = store.generation
    old_dir = store.generation_dir
    old_records = store.records_dir
    view = store.journal_view()

    new_generation = _next_generation_id(store)
    new_dir = store.root / generation_dir_name(new_generation)
    new_records = new_dir / "records"
    new_quarantine = new_dir / "quarantine"
    new_records.mkdir(parents=True, exist_ok=True)
    new_quarantine.mkdir(parents=True, exist_ok=True)

    survivors = _SurvivorSet(
        store, history_window, old_records, new_records, new_quarantine,
        old_generation,
    )

    # ----- Phase 1 (lock-free): bulk-copy the survivor set --------------
    grouped = _collect_candidates(store)
    survivors.reconcile(grouped)

    # ----- Phase 2 (under the append lock): catch up + checkpoint + swing
    with store._lock:
        if store.generation != old_generation:
            raise RuntimeError(
                f"concurrent compaction detected: generation moved from "
                f"{old_generation} to {store.generation} mid-run"
            )
        _, entries_now, _ = store._parse_journal(count_torn=False)
        known = {
            c.filename for cs in grouped.values() for c in cs
        }
        for entry in entries_now[len(view.entries) :]:
            if entry.filename in known:
                continue
            candidate = _Candidate(
                name=entry.name,
                version=entry.version,
                filename=entry.filename,
                record_crc=entry.record_crc,
                journaled=True,
            )
            grouped.setdefault(entry.name, []).append(candidate)
            grouped[entry.name].sort(key=lambda c: c.version)
        survivors.reconcile(grouped)

        base = view.checkpoint_offset + len(entries_now)
        checkpoint = JournalCheckpoint(
            generation=new_generation,
            base=base,
            snapshot=survivors.snapshot(),
            quarantined=tuple(sorted(survivors.quarantined_meta)),
        )
        new_journal = new_dir / "journal.log"
        with open(new_journal, "wb") as handle:
            handle.write(ModelStore.encode_checkpoint(checkpoint))
            handle.flush()
            if store.use_fsync:
                os.fsync(handle.fileno())
        _fsync_path(new_records, store.use_fsync)
        _fsync_path(new_dir, store.use_fsync)

        _FP_SWING.hit()  # crash here: CURRENT still names the old generation

        pointer = store.current_pointer
        tmp_pointer = pointer.with_suffix(".tmp")
        tmp_pointer.write_text(
            generation_dir_name(new_generation) + "\n", encoding="utf-8"
        )
        if store.use_fsync:
            fd = os.open(tmp_pointer, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        os.replace(tmp_pointer, pointer)  # the swing: old XOR new, never both
        _fsync_path(store.root, store.use_fsync)

    # ----- Phase 3 (lock-free): retire the old generation ---------------
    retired: List[Path] = []
    if retire:
        _FP_RETIRE.hit()  # crash here: the new generation is already live
        retired = _retire_stale(store, new_quarantine)
    return CompactionReport(
        generation=new_generation,
        previous_generation=old_generation,
        checkpoint_offset=base,
        kept=tuple(
            (c.name, c.version)
            for c in sorted(
                survivors.copied.values(), key=lambda c: (c.name, c.version)
            )
        ),
        dropped=tuple(sorted(survivors.dropped)),
        quarantined=tuple(survivors.quarantined_paths),
        missing=tuple(sorted(survivors.missing)),
        retired=tuple(retired),
    )


def _retire_stale(store: ModelStore, new_quarantine: Path) -> List[Path]:
    """Delete every non-live generation, salvaging quarantine evidence."""
    retired: List[Path] = []
    for stale in stale_generations(store):
        _salvage_quarantine(stale / "quarantine", new_quarantine)
        if stale == store.root:
            # Generation 0 is the root itself: retire only its payload,
            # the root still hosts CURRENT and the generation dirs.
            shutil.rmtree(store.root / "records", ignore_errors=True)
            shutil.rmtree(store.root / "quarantine", ignore_errors=True)
            (store.root / "journal.log").unlink(missing_ok=True)
        else:
            shutil.rmtree(stale, ignore_errors=True)
        retired.append(stale)
    return retired


def _salvage_quarantine(source: Path, destination: Path) -> None:
    """Move quarantined records (+ sidecars) into the live generation."""
    if not source.is_dir() or source == destination:
        return
    destination.mkdir(parents=True, exist_ok=True)
    for path in sorted(source.iterdir()):
        target = destination / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = destination / f"{path.name}.{suffix}"
        os.replace(path, target)
