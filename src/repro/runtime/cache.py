"""Design-matrix cache keyed on basis identity + sample fingerprint.

Assembling the design matrix **G** (eq. 9) is the single most repeated
computation in the experiment harness: the cost-comparison runner assembles
it once per metric over the *same* Monte Carlo pool, ``BmfRegressor.fit``
needs it both for fitting and for posterior uncertainty, and the
cross-validation sweep re-enters through the same samples.  This module
memoizes those assemblies.

Keys are value-based, not identity-based: a basis is identified by a digest
of its multi-index set (so two equal bases built independently share
entries) and a sample array by a digest of its bytes.  Cached matrices are
returned with ``writeable=False`` so an accidental in-place edit raises
instead of silently corrupting every later hit.

Hashing the samples costs more than assembling a linear basis's design,
which is a slice copy of them, so a linear basis (the paper's RO and SRAM
models) never consults the cache: its designs are fresh writable arrays,
and only cached matrices are read-only.  The rule lives in
``OrthonormalBasis._design_cache_for``.

The process-global cache is enabled by default and bounded both by entry
count and total bytes, and matrices never reused hold at most an eighth
of the bytes; tiny evaluations (single-sample ``predict`` calls) bypass
it entirely.  Hits/misses/evictions are reported through
:mod:`repro.runtime.metrics`.
"""

from __future__ import annotations

import hashlib
from ..locks import named_lock
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

import numpy as np

from ..analysis.contracts import ContractViolationError, check_array
from ..faults import InjectedFault, failpoint
from .metrics import metrics

#: Fires on every cache hit, before the entry is re-validated; an armed
#: error plan here models a poisoned cache entry (the cache self-heals by
#: evicting and recomputing -- see get_or_compute).  Only nonlinear bases
#: reach it.
_FP_CACHE_LOOKUP = failpoint("cache.lookup")

__all__ = [
    "DesignMatrixCache",
    "design_key",
    "fingerprint_array",
    "design_cache",
    "set_design_cache",
    "disable_design_cache",
]

CacheKey = Tuple[Hashable, ...]


def fingerprint_array(x: np.ndarray) -> Tuple[Hashable, ...]:
    """Value fingerprint of a float array: shape plus a content digest."""
    x = np.ascontiguousarray(x)
    digest = hashlib.blake2b(x.view(np.uint8), digest_size=16).hexdigest()
    return (x.shape, digest)


def design_key(
    basis_token: str,
    x: np.ndarray,
    signature: Optional[Tuple[int, ...]],
) -> CacheKey:
    """Cache key for one assembled design matrix: value identity.

    The basis digest, the sample fingerprint and the column signature
    (``None`` for all columns).
    """
    return (basis_token, fingerprint_array(x), signature)


class DesignMatrixCache:
    """Bounded LRU cache of assembled design matrices of nonlinear bases.

    One guard sits in front of plain LRU: entries not hit since they were
    stored -- a fresh Monte Carlo batch served once, a fit's own design --
    may together hold at most an eighth of ``max_bytes``; past that the
    oldest of them goes first, even while the cache has room (the newest
    always stays, so it can still be hit).  A hit lifts an entry out of
    that share.  A stream of one-off batches therefore cycles through a
    slice of the budget instead of filling all of it, while a matrix
    reused a few requests later -- a repeated serving batch, the second
    read inside one fit -- still hits.

    Parameters
    ----------
    max_entries:
        Maximum number of cached matrices.
    max_bytes:
        Total byte budget across entries; matrices larger than the whole
        budget are computed but never stored.
    min_result_cells:
        Results with fewer than this many cells (``K * len(columns)``) are
        not cached -- hashing overhead would exceed the assembly cost.
        Linear bases never reach the cache, whatever their size.
    """

    def __init__(
        self,
        max_entries: int = 32,
        max_bytes: int = 256 * 1024 * 1024,
        min_result_cells: int = 4096,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.min_result_cells = int(min_result_cells)
        self._lock = named_lock("runtime.design_cache")
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._bytes = 0
        # Sizes of the entries not hit since they were stored, oldest first.
        self._unhit: "OrderedDict[CacheKey, int]" = OrderedDict()
        self._unhit_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._unhit.clear()
            self._unhit_bytes = 0

    def stats(self) -> dict:
        """Consistent snapshot of counters and occupancy, read under the lock.

        Prefer this over reading ``hits``/``misses``/``evictions`` directly
        from another thread: the attributes are mutated under the lock, so
        only a locked read sees a mutually consistent set.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }

    # ------------------------------------------------------------------
    def get_or_compute(
        self, key: CacheKey, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Return the cached matrix for ``key``, computing it on a miss.

        The stored (and returned) array is marked read-only; callers that
        need to mutate must copy.  Every hit re-validates the entry as a
        read-only, C-contiguous float64 matrix.

        A hit entry that fails re-validation (its read-only contract was
        broken, or the ``cache.lookup`` failpoint injects a corruption
        fault) is *self-healing*: the poisoned entry is evicted, counted
        as ``design_cache.corrupt_evictions``, and the matrix is
        recomputed instead of the corruption propagating to the caller.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._unhit_bytes -= self._unhit.pop(key, 0)
        if cached is not None:
            metrics.increment("design_cache.hits")
            try:
                _FP_CACHE_LOOKUP.hit()
                return check_array(
                    cached,
                    name="cached design matrix",
                    dtype=np.float64,
                    writeable=False,
                    c_contiguous=True,
                )
            except (ContractViolationError, InjectedFault):
                metrics.increment("design_cache.corrupt_evictions")
                with self._lock:
                    if self._drop_locked(key):
                        self.evictions += 1

        result = compute()
        with self._lock:
            self.misses += 1
        metrics.increment("design_cache.misses")
        if result.size < self.min_result_cells or result.nbytes > self.max_bytes:
            return result
        result = np.ascontiguousarray(result)
        result.flags.writeable = False
        with self._lock:
            if key not in self._entries:
                self._entries[key] = result
                self._bytes += result.nbytes
                self._unhit[key] = result.nbytes
                self._unhit_bytes += result.nbytes
                self._evict_locked()
        return result

    def _drop_locked(self, key: CacheKey) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry.nbytes
        self._unhit_bytes -= self._unhit.pop(key, 0)
        return True

    def _evict_locked(self) -> None:
        while True:
            if len(self._unhit) > 1 and self._unhit_bytes > self.max_bytes // 8:
                oldest = next(iter(self._unhit))
            elif self._entries and (
                len(self._entries) > self.max_entries or self._bytes > self.max_bytes
            ):
                oldest = next(iter(self._entries))
            else:
                return
            self._drop_locked(oldest)
            self.evictions += 1
            metrics.increment("design_cache.evictions")


_default_cache: Optional[DesignMatrixCache] = DesignMatrixCache()
_cache_lock = named_lock("runtime.design_cache.global")


def design_cache() -> Optional[DesignMatrixCache]:
    """The process-global design-matrix cache (``None`` when disabled)."""
    with _cache_lock:
        return _default_cache


def set_design_cache(
    cache: Optional[DesignMatrixCache],
) -> Optional[DesignMatrixCache]:
    """Install a new global cache (or ``None`` to disable); returns the old."""
    global _default_cache
    with _cache_lock:
        previous = _default_cache
        _default_cache = cache
        return previous


def disable_design_cache() -> Optional[DesignMatrixCache]:
    """Convenience: turn global caching off; returns the removed cache."""
    return set_design_cache(None)
