"""Warm-restart recovery: rebuild the serving state from the model store.

After a crash (or an ordinary restart) the serving process owns nothing
but the store directory.  :class:`RecoveryManager` turns that directory
back into a live :class:`~repro.serving.ModelRegistry`:

1. **scan** -- every committed record is read and CRC-validated; corrupt
   or torn records (a lost-fsync crash can rename a half-written file
   into place) are moved to ``quarantine/`` and counted as
   ``store.corrupt_quarantined`` -- they are never served;
2. **restore** -- valid records are re-admitted in ``(name, version)``
   order with their original version numbers, keys, and timestamps via
   :meth:`~repro.serving.ModelRegistry.restore`, so the rebuilt registry
   is *bitwise identical* (per :meth:`~repro.serving.ModelRegistry.snapshot`)
   to the pre-crash registry over the records that reached disk; every
   version recorded on one basis digest shares one rebuilt basis
   (:meth:`~repro.store.ModelRecord.basis`);
3. **re-arm** -- the newest record of a name that carries sequential
   fitter state (samples + dual Cholesky factor) can warm-restart a
   fresh :class:`~repro.bmf.SequentialBmf` through
   :meth:`RecoveryReport.sequential_state`, so streaming fits resume
   border-updating instead of refitting from scratch.

The journal is an audit log, not the source of truth: a valid record the
journal does not mention (crash between the rename commit point and the
journal append) is still recovered, and a journal entry whose record file
is missing (crash before the rename) is reported, not fabricated.

Two recovery modes:

* :meth:`RecoveryManager.recover` -- full crash recovery: every valid
  record on disk is admitted, journaled or not;
* :meth:`RecoveryManager.recover_at` -- **point-in-time recovery**: the
  journal *is* the definition of the prefix.  ``recover_at(k)`` rebuilds
  exactly the state after the first ``k`` global journal entries -- the
  compacted generation's snapshot stands in for the retired prefix, so
  any ``k`` between the checkpoint offset and the journal end is
  reachable (earlier offsets were compacted away and raise
  ``ValueError``).

Compaction also leaves an audit trail recovery surfaces: records that
were journaled in a retired generation but failed validation during
compaction appear in :attr:`RecoveryReport.compaction_quarantined` (their
bytes sit in ``quarantine/`` with a generation-tagged ``.reason``
sidecar) -- they are neither served, nor restored, nor double-counted as
missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from ..basis import OrthonormalBasis
from ..bmf.sequential import SequentialFitterState
from ..regression.base import FittedModel
from ..runtime.metrics import metrics
from ..serving.registry import ModelRegistry, PublishRejectedError
from .format import CorruptRecordError, ModelRecord
from .store import JournalEntry, ModelStore

__all__ = ["RecoveryManager", "RecoveryReport"]


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover` pass found and rebuilt."""

    #: The rebuilt (or caller-supplied) registry, ready to serve.
    registry: ModelRegistry
    #: ``(name, version)`` of every record re-admitted, in restore order.
    restored: Tuple[Tuple[str, int], ...]
    #: ``(name, version, reason)`` for CRC-valid records the registry
    #: refused (e.g. non-finite coefficients) or whose basis structure
    #: does not hash to their digest; quarantined, never served.
    rejected: Tuple[Tuple[str, int, str], ...]
    #: Final quarantine paths of corrupt, torn, or rejected records.
    quarantined: Tuple[Path, ...]
    #: Journal entries whose record never reached disk (crash pre-rename).
    missing: Tuple[JournalEntry, ...]
    #: Valid records the journal did not mention (crash post-rename).
    unjournaled: Tuple[Tuple[str, int], ...]
    #: Trailing journal lines dropped as torn.
    torn_journal_lines: int
    #: Newest restored record per name (the basis for warm restarts).
    latest: Mapping[str, ModelRecord] = field(default_factory=dict)
    #: Live generation id the recovery ran against (0 before compaction).
    generation: int = 0
    #: Global journal offset the generation's snapshot stands in for.
    checkpoint_offset: int = 0
    #: ``(name, version, filename)`` journaled in a retired generation but
    #: quarantined by compaction: present in ``quarantine/`` with a
    #: generation-tagged ``.reason`` sidecar, absent from both
    #: :attr:`restored` and :attr:`missing`.
    compaction_quarantined: Tuple[Tuple[str, int, str], ...] = ()

    def sequential_state(self, name: str) -> Optional[SequentialFitterState]:
        """Warm-restart state for ``name``'s newest restored record.

        Returns ``None`` when the name is unknown or its newest record
        was published without sequential context (e.g. a plain
        ``FittedModel`` publish).  Feed the result to
        :meth:`repro.bmf.SequentialBmf.rearm` on a fresh fitter built
        with the *same* configuration as the crashed one.
        """
        record = self.latest.get(name)
        if record is None or record.train_x is None or record.train_f is None:
            return None
        return SequentialFitterState(
            x=record.train_x,
            f=record.train_f,
            chol_lower=record.chol_lower,
            chol_prior_index=record.chol_prior_index,
        )


class RecoveryManager:
    """Rebuilds serving state from a :class:`~repro.store.ModelStore`."""

    def __init__(self, store: ModelStore):
        self.store = store

    def recover(
        self,
        registry: Optional[ModelRegistry] = None,
        quarantine_corrupt: bool = True,
    ) -> RecoveryReport:
        """Scan the store and restore every valid record to a registry.

        ``registry`` defaults to a fresh :class:`ModelRegistry` with
        default configuration; pass one explicitly to control
        ``max_versions`` / ``validate`` / ``serve_last_good`` (use the
        same values as the crashed process for a bitwise-identical
        rebuild) or to attach the store for continued write-ahead
        publishing.  Corrupt records are quarantined when
        ``quarantine_corrupt`` (the default), otherwise left in place
        but still excluded from the registry.
        """
        if registry is None:
            registry = ModelRegistry()
        scan = self.store.scan(quarantine_corrupt=quarantine_corrupt)
        restored = []
        rejected = []
        quarantined = list(scan.quarantined)
        latest: Dict[str, ModelRecord] = {}
        bases: Dict[str, OrthonormalBasis] = {}
        for record in scan.records:
            try:
                model = FittedModel(record.basis(bases), record.coefficients)
                registry.restore(
                    record.name,
                    record.version,
                    record.key,
                    record.published_at,
                    model,
                )
            except (CorruptRecordError, PublishRejectedError) as exc:
                rejected.append((record.name, record.version, str(exc)))
                if quarantine_corrupt:
                    path = self.store.records_dir / self.store.record_filename(
                        record.name, record.version
                    )
                    if path.exists():
                        quarantined.append(self.store.quarantine(path, str(exc)))
                continue
            restored.append((record.name, record.version))
            latest[record.name] = record
            metrics.increment("store.recovered_records")
        return RecoveryReport(
            registry=registry,
            restored=tuple(restored),
            rejected=tuple(rejected),
            quarantined=tuple(quarantined),
            missing=scan.missing,
            unjournaled=tuple(
                (record.name, record.version) for record in scan.unjournaled
            ),
            torn_journal_lines=scan.torn_journal_lines,
            latest=MappingProxyType(latest),
            generation=scan.generation,
            checkpoint_offset=scan.checkpoint_offset,
            compaction_quarantined=scan.compaction_quarantined,
        )

    def recover_at(
        self,
        offset: int,
        registry: Optional[ModelRegistry] = None,
    ) -> RecoveryReport:
        """Point-in-time recovery to global journal offset ``offset``.

        Rebuilds exactly the registry state after the first ``offset``
        journal entries: the live generation's snapshot manifest (the
        state at the checkpoint offset) plus the appends up to
        ``offset``.  Valid offsets span ``[checkpoint_offset,
        end_offset]`` -- earlier prefixes were folded away by compaction
        and raise :class:`ValueError`, as does an offset beyond the
        journal end.

        Unlike :meth:`recover`, PITR is journal-driven and read-only:
        unjournaled records cannot be placed in the prefix order and are
        excluded, nothing is quarantined (corrupt records are reported in
        ``rejected``), and records published after ``offset`` are simply
        not replayed.
        """
        if registry is None:
            registry = ModelRegistry()
        view = self.store.journal_view()
        if not view.checkpoint_offset <= offset <= view.end_offset:
            raise ValueError(
                f"offset {offset} is outside the recoverable range "
                f"[{view.checkpoint_offset}, {view.end_offset}]: entries "
                f"before the checkpoint were compacted away"
            )
        metrics.increment("store.pitr.recoveries")
        replay = list(view.snapshot) + list(
            view.entries[: offset - view.checkpoint_offset]
        )
        restored = []
        rejected = []
        missing = []
        latest: Dict[str, ModelRecord] = {}
        bases: Dict[str, OrthonormalBasis] = {}
        for entry in replay:
            path = self.store.records_dir / entry.filename
            try:
                record = self.store.read(path)
            except CorruptRecordError as exc:
                if path.exists():
                    rejected.append((entry.name, entry.version, str(exc)))
                else:
                    missing.append(entry)
                continue
            try:
                model = FittedModel(record.basis(bases), record.coefficients)
                registry.restore(
                    record.name,
                    record.version,
                    record.key,
                    record.published_at,
                    model,
                )
            except (CorruptRecordError, PublishRejectedError) as exc:
                rejected.append((record.name, record.version, str(exc)))
                continue
            restored.append((record.name, record.version))
            latest[record.name] = record
            metrics.increment("store.recovered_records")
        return RecoveryReport(
            registry=registry,
            restored=tuple(restored),
            rejected=tuple(rejected),
            quarantined=(),
            missing=tuple(missing),
            unjournaled=(),
            torn_journal_lines=view.torn_lines,
            latest=MappingProxyType(latest),
            generation=view.generation,
            checkpoint_offset=view.checkpoint_offset,
            compaction_quarantined=view.compaction_quarantined,
        )
