"""Thread-safe, versioned registry of fitted performance models.

A production modeling service fits models out-of-band (the streaming
:class:`repro.bmf.SequentialBmf` loop) and serves predictions to many
concurrent callers.  The registry is the hand-off point: writers *publish*
immutable model snapshots under a name, readers resolve the *current*
version with one lock acquisition, and a bad deploy is undone with an
atomic *rollback*.

Versions are keyed on the model's identity -- the basis digest
(:meth:`repro.basis.OrthonormalBasis.cache_token`) plus the prior
configuration and hyper-parameter that produced the coefficients -- so two
services can tell at a glance whether they are serving the same model
family, and the :class:`~repro.serving.engine.PredictionEngine` can group
requests that share a design matrix.

Every published snapshot is deep-frozen (coefficients copied and marked
read-only), so a reader can never observe a torn or later-mutated state.

Self-healing (``docs/faults.md``): a publish is *validated* before the
active pointer moves -- a poisoned snapshot (non-finite coefficients) or
an injected ``registry.publish`` fault raises
:class:`PublishRejectedError` and the currently served version stays
exactly where it was.  Versions that misbehave *after* publish (the
engine's circuit breaker opening on them) are quarantined with
:meth:`ModelRegistry.mark_bad`, which in ``serve_last_good`` mode also
steps the active pointer back to the newest good version.
"""

from __future__ import annotations

import hashlib
from ..locks import named_lock
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..bmf.priors import GaussianCoefficientPrior
from ..faults import SimulatedCrash, failpoint
from ..regression.base import BasisRegressor, FittedModel
from ..runtime.cache import fingerprint_array
from ..runtime.metrics import metrics

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "PublishRejectedError",
    "model_key",
]

#: Fires just before a publish commits; an armed fault here simulates a
#: failed deploy (rejected, counted, active version untouched).
_FP_PUBLISH = failpoint("registry.publish")


class PublishRejectedError(RuntimeError):
    """A publish was rejected before the active version moved."""


def model_key(
    basis,
    prior: Optional[GaussianCoefficientPrior] = None,
    eta: Optional[float] = None,
) -> str:
    """Digest identifying a model family: basis + prior config + eta.

    Two models share a key exactly when they were produced from an equal
    basis (value identity, per the basis cache token) with the same prior
    name/mean/scale and hyper-parameter -- the ISSUE's "basis digest +
    prior config" versioning key.
    """
    parts: List[object] = [basis.cache_token()]
    if prior is not None:
        parts.append(prior.name)
        parts.append(fingerprint_array(prior.mean))
        # Missing-prior entries are inf; fingerprinting raw bytes handles
        # inf/0 sentinels exactly.
        parts.append(fingerprint_array(prior.scale))
    if eta is not None:
        parts.append(float(eta))
    payload = repr(parts).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published snapshot of a model.

    Attributes
    ----------
    name:
        Registry name the snapshot was published under.
    version:
        Monotonically increasing per-name version number (1-based).
    key:
        Model-family digest (see :func:`model_key`).
    model:
        Frozen :class:`~repro.regression.base.FittedModel` snapshot; its
        coefficient array is read-only.
    published_at:
        ``time.time()`` timestamp of the publish.
    """

    name: str
    version: int
    key: str
    model: FittedModel
    published_at: float


def _freeze_model(
    model,
) -> Tuple[FittedModel, str, Optional[GaussianCoefficientPrior], Optional[float]]:
    """Snapshot a fitted-model-like object into (frozen, key, prior, eta).

    The prior and eta are surfaced (not just folded into the key) so a
    store-backed registry can persist the full fitting context alongside
    the coefficients; they are ``None`` for plain :class:`FittedModel`
    publishes, which carry no selection metadata.
    """
    prior = None
    eta = None
    if isinstance(model, FittedModel):
        fitted = model
    elif isinstance(model, BasisRegressor):
        prior = getattr(model, "chosen_prior_", None)
        eta = getattr(model, "chosen_eta_", None)
        fitted = model.fitted_model()
    elif hasattr(model, "model"):  # SequentialBmf duck type
        inner = model.model
        prior = getattr(inner, "chosen_prior_", None)
        eta = getattr(inner, "chosen_eta_", None)
        fitted = inner.fitted_model()
    else:
        raise TypeError(
            "expected a FittedModel, a fitted BasisRegressor, or a "
            f"SequentialBmf, got {type(model).__name__}"
        )
    coefficients = np.array(fitted.coefficients, dtype=float, copy=True)
    coefficients.flags.writeable = False
    frozen = FittedModel(fitted.basis, coefficients)
    # FittedModel.__init__ re-wraps via np.asarray (no copy for float64),
    # so the read-only flag survives; re-assert to be safe.
    frozen.coefficients.flags.writeable = False
    return frozen, model_key(fitted.basis, prior, eta), prior, eta


class ModelRegistry:
    """Versioned model store with atomic publish / current / rollback.

    All state transitions happen under one lock and readers only ever
    receive immutable :class:`ModelVersion` records, so there are no torn
    reads: a concurrent reader sees either the pre-publish or post-publish
    state in full, never a mixture.

    Parameters
    ----------
    max_versions:
        History bound per name; the oldest *inactive* versions beyond this
        count are pruned on publish (the active version is never pruned).
    validate:
        Reject publishes whose snapshot has non-finite coefficients
        (:class:`PublishRejectedError`) instead of silently serving NaNs.
    serve_last_good:
        When :meth:`mark_bad` quarantines the *active* version, step the
        active pointer back to the newest good retained version so readers
        degrade to last-good instead of a known-bad model.
    store:
        Optional crash-safe store (:class:`repro.store.ModelStore` shaped:
        an ``append_model(...)`` method).  When set, every publish is
        persisted **write-ahead**: the record reaches disk before the
        in-memory active pointer moves, so a crash mid-publish can lose an
        unannounced record but never announce an unpersisted one.  A
        :class:`repro.store.RecoveryManager` rebuilds the registry from
        the store after a restart.  Quarantine state (:meth:`mark_bad`)
        is in-memory only and resets on recovery.
    durability:
        ``"required"`` (default): a store failure rejects the publish
        (:class:`PublishRejectedError`, active version untouched).
        ``"best-effort"``: the publish proceeds in memory and the miss is
        counted as ``serving.publish_persist_skipped``.
    """

    def __init__(
        self,
        max_versions: int = 8,
        validate: bool = True,
        serve_last_good: bool = True,
        store=None,
        durability: str = "required",
    ):
        if max_versions < 2:
            raise ValueError(
                f"max_versions must be >= 2 to allow rollback, got {max_versions}"
            )
        if durability not in ("required", "best-effort"):
            raise ValueError(
                f"durability must be 'required' or 'best-effort', got "
                f"{durability!r}"
            )
        self.max_versions = int(max_versions)
        self.validate = bool(validate)
        self.serve_last_good = bool(serve_last_good)
        self.store = store
        self.durability = durability
        self._lock = named_lock("serving.registry.state")
        # Held across version-allocate -> persist -> commit so concurrent
        # publishes reach the store in version order; readers never take it.
        self._publish_lock = named_lock("serving.registry.publish")
        self._history: Dict[str, List[ModelVersion]] = {}
        self._active: Dict[str, int] = {}  # index into the history list
        self._next_version: Dict[str, int] = {}
        self._bad: Dict[str, Set[int]] = {}  # quarantined version numbers

    def export_config(self) -> Dict[str, object]:
        """Constructor kwargs (minus ``store``) that reproduce this registry.

        A restart path (e.g. :meth:`~repro.serving.ShardRouter.restart_shard`
        or a post-crash :class:`~repro.store.RecoveryManager` rebuild)
        must run the replacement registry with the *same* configuration
        as the one it replaces, or the rebuild is not bitwise comparable
        (a different ``max_versions`` prunes a different history).  The
        shared ``store`` is intentionally excluded: the caller decides
        whether the replacement re-attaches.
        """
        return {
            "max_versions": self.max_versions,
            "validate": self.validate,
            "serve_last_good": self.serve_last_good,
            "durability": self.durability,
        }

    # ------------------------------------------------------------------
    def publish(self, name: str, model, key: Optional[str] = None) -> ModelVersion:
        """Atomically make ``model`` the current version under ``name``.

        ``model`` may be a :class:`~repro.regression.base.FittedModel`, a
        fitted :class:`~repro.bmf.BmfRegressor` (any
        :class:`~repro.regression.base.BasisRegressor`), or a
        :class:`~repro.bmf.SequentialBmf`; it is snapshotted (coefficients
        copied, read-only) before the registry pointer moves.  Versions
        published after a rollback do not resurrect the rolled-back entry:
        history stays append-only and the new version simply becomes
        current.

        Raises :class:`PublishRejectedError` -- with the active version
        untouched -- when the snapshot fails validation, the
        ``registry.publish`` failpoint injects a fault, or (with a store
        in ``"required"`` durability) the record cannot be persisted.  A
        :class:`~repro.faults.SimulatedCrash` raised by the store
        propagates untouched with the in-memory registry unchanged --
        the write-ahead ordering means the crash may leave a durable
        record the registry never announced, which recovery admits.

        **Version numbers are allocated exactly once and never reused.**
        A publish that fails *after* allocation (persist failure under
        ``"required"`` durability, or a crash mid-persist) leaves a
        permanent gap in the version sequence: the failed number is
        burned, the next publish takes a fresh one.  This is deliberate
        -- reusing the number could collide with a durable-but-
        unannounced record the crashed persist left behind, so gaps are
        the price of the guarantee that a version number on disk or in
        memory refers to exactly one snapshot, ever.  Recovery preserves
        the invariant by resuming allocation above the highest durable
        version it restores (``tests/test_store.py::TestVersionGaps``).
        """
        frozen, derived_key, prior, eta = _freeze_model(model)
        record_key = derived_key if key is None else str(key)
        try:
            _FP_PUBLISH.hit()
        except Exception as exc:
            metrics.increment("serving.rejected_publishes")
            raise PublishRejectedError(
                f"publish of {name!r} failed before commit: {exc}"
            ) from exc
        if self.validate and not np.all(np.isfinite(frozen.coefficients)):
            metrics.increment("serving.rejected_publishes")
            raise PublishRejectedError(
                f"publish of {name!r} rejected: snapshot has non-finite "
                "coefficients"
            )
        with self._publish_lock:
            with self._lock:
                version = self._next_version.get(name, 0) + 1
                self._next_version[name] = version
            published_at = time.time()
            if self.store is not None:
                self._persist(
                    name, version, record_key, published_at, frozen, prior,
                    eta, model,
                )
            record = ModelVersion(
                name=name,
                version=version,
                key=record_key,
                model=frozen,
                published_at=published_at,
            )
            with self._lock:
                history = self._history.setdefault(name, [])
                history.append(record)
                self._active[name] = len(history) - 1
                self._prune_locked(name, history)
        metrics.increment("serving.publishes")
        return record

    def _persist(
        self, name, version, key, published_at, frozen, prior, eta, source
    ) -> None:
        """Write-ahead persist of one publish; see the publish docstring."""
        state = None
        if hasattr(source, "export_state"):  # SequentialBmf duck type
            state = source.export_state()
        try:
            self.store.append_model(
                name,
                version,
                key,
                published_at,
                frozen,
                prior=prior,
                eta=eta,
                sequential_state=state,
            )
        except SimulatedCrash:
            raise
        except Exception as exc:
            if self.durability == "required":
                metrics.increment("serving.rejected_publishes")
                raise PublishRejectedError(
                    f"publish of {name!r} v{version} could not be made "
                    f"durable: {exc}"
                ) from exc
            metrics.increment("serving.publish_persist_skipped")

    def _prune_locked(self, name: str, history: List[ModelVersion]) -> None:
        """Drop the oldest entries, keeping the active one reachable."""
        while len(history) > self.max_versions and self._active[name] > 0:
            dropped = history.pop(0)
            self._active[name] -= 1
            self._bad.get(name, set()).discard(dropped.version)

    def restore(
        self,
        name: str,
        version: int,
        key: str,
        published_at: float,
        model,
    ) -> ModelVersion:
        """Re-admit a recovered version with its original identity.

        Used by :class:`repro.store.RecoveryManager` to rebuild the
        registry after a crash: unlike :meth:`publish`, the version
        number, key, and timestamp come from the durable record (so the
        rebuilt registry is bitwise comparable to the pre-crash one via
        :meth:`snapshot`) and nothing is written back to the store.
        Versions must be restored in increasing order per name; the
        restored version becomes active and history pruning applies
        exactly as at publish time.  Validation still rejects non-finite
        coefficients (:class:`PublishRejectedError`), so a corrupt-but-
        CRC-valid record can never be served.
        """
        frozen, _, _, _ = _freeze_model(model)
        if self.validate and not np.all(np.isfinite(frozen.coefficients)):
            metrics.increment("serving.rejected_publishes")
            raise PublishRejectedError(
                f"restore of {name!r} v{version} rejected: snapshot has "
                "non-finite coefficients"
            )
        version = int(version)
        with self._publish_lock:
            with self._lock:
                history = self._history.setdefault(name, [])
                if history and history[-1].version >= version:
                    raise ValueError(
                        f"restore of {name!r} v{version} out of order: "
                        f"newest retained is v{history[-1].version}"
                    )
                record = ModelVersion(
                    name=name,
                    version=version,
                    key=str(key),
                    model=frozen,
                    published_at=float(published_at),
                )
                history.append(record)
                self._active[name] = len(history) - 1
                self._next_version[name] = max(
                    self._next_version.get(name, 0), version
                )
                self._prune_locked(name, history)
        metrics.increment("serving.restored_versions")
        return record

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic, bitwise-comparable digest of the registry state.

        Per name: the active version number, the quarantined version set,
        and for every retained version its number, key, timestamp, basis
        cache token, and the coefficient buffer (dtype, shape, raw
        bytes).  Two registries serving identical models compare equal
        with ``==``; the crash-recovery suite uses this to prove a
        recovered registry is bit-for-bit the pre-crash one.
        """
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name in sorted(self._history):
                history = self._history[name]
                out[name] = {
                    "active_version": history[self._active[name]].version,
                    "bad": tuple(sorted(self._bad.get(name, ()))),
                    "versions": tuple(
                        (
                            record.version,
                            record.key,
                            record.published_at,
                            record.model.basis.cache_token(),
                            str(record.model.coefficients.dtype),
                            record.model.coefficients.shape,
                            record.model.coefficients.tobytes(),
                        )
                        for record in history
                    ),
                }
            return out

    def current(self, name: str) -> ModelVersion:
        """The active version under ``name`` (raises ``KeyError`` if none)."""
        with self._lock:
            if name not in self._active:
                raise KeyError(f"no model published under {name!r}")
            return self._history[name][self._active[name]]

    def model(self, name: str) -> FittedModel:
        """Shorthand for ``current(name).model``."""
        return self.current(name).model

    def rollback(self, name: str) -> ModelVersion:
        """Atomically re-activate the version preceding the current one.

        Repeated rollbacks keep stepping back through retained history;
        raises :class:`RuntimeError` when no earlier version is retained.
        """
        with self._lock:
            if name not in self._active:
                raise KeyError(f"no model published under {name!r}")
            index = self._active[name]
            if index == 0:
                raise RuntimeError(
                    f"no earlier version of {name!r} retained to roll back to"
                )
            self._active[name] = index - 1
            record = self._history[name][index - 1]
        metrics.increment("serving.rollbacks")
        return record

    # ------------------------------------------------------------------
    # Degradation to last-good (docs/faults.md)
    # ------------------------------------------------------------------
    def mark_bad(self, name: str, version: int) -> Optional[ModelVersion]:
        """Quarantine a published version that misbehaves at serve time.

        In ``serve_last_good`` mode, quarantining the *active* version also
        steps the active pointer back to the newest good retained version
        (counted as ``serving.degraded_rollbacks``); with no good version
        retained the pointer stays put -- a possibly-bad model beats no
        model.  Returns the version now active, or ``None`` for an unknown
        name.  Idempotent per (name, version).
        """
        with self._lock:
            history = self._history.get(name)
            if not history:
                return None
            bad = self._bad.setdefault(name, set())
            newly_marked = version not in bad
            bad.add(int(version))
            stepped_back = False
            active_index = self._active[name]
            if self.serve_last_good and history[active_index].version in bad:
                for index in range(active_index - 1, -1, -1):
                    if history[index].version not in bad:
                        self._active[name] = index
                        stepped_back = True
                        break
            record = self._history[name][self._active[name]]
        if newly_marked:
            metrics.increment("serving.marked_bad")
        if stepped_back:
            metrics.increment("serving.degraded_rollbacks")
        return record

    def is_bad(self, name: str, version: int) -> bool:
        """Whether (name, version) has been quarantined."""
        with self._lock:
            return version in self._bad.get(name, set())

    def previous_good(
        self, name: str, before_version: Optional[int] = None
    ) -> Optional[ModelVersion]:
        """Newest retained good version strictly older than ``before_version``.

        ``before_version=None`` means "older than the active version".
        Returns ``None`` when nothing qualifies -- including for unknown
        names, so engine fallback paths need no separate existence check.
        """
        with self._lock:
            history = self._history.get(name)
            if not history:
                return None
            if before_version is None:
                before_version = history[self._active[name]].version
            bad = self._bad.get(name, ())
            for record in reversed(history):
                if record.version < before_version and record.version not in bad:
                    return record
        return None

    def last_good(self, name: str) -> Optional[ModelVersion]:
        """Newest retained version not quarantined (may be the active one)."""
        with self._lock:
            history = self._history.get(name)
            if not history:
                return None
            bad = self._bad.get(name, ())
            for record in reversed(history):
                if record.version not in bad:
                    return record
        return None

    # ------------------------------------------------------------------
    def versions(self, name: str) -> Tuple[ModelVersion, ...]:
        """Retained history for ``name``, oldest first."""
        with self._lock:
            return tuple(self._history.get(name, ()))

    def names(self) -> Tuple[str, ...]:
        """Names with at least one published version."""
        with self._lock:
            return tuple(sorted(self._history))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._active

    def __len__(self) -> int:
        with self._lock:
            return len(self._active)
