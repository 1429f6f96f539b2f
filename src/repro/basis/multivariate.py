"""Multivariate orthonormal polynomial basis (eqs. 2-5 of the paper).

:class:`OrthonormalBasis` bundles a multi-index set over ``num_vars``
standard-normal variables and evaluates the design matrix **G** of eq. (9):

    G[k, m] = g_m(x^(k))

Each basis function is a product of univariate orthonormal Hermite
polynomials; orthonormality of the product set follows from independence of
the variables.
"""

from __future__ import annotations

import hashlib
import operator
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import check_array
from ..runtime.cache import DesignMatrixCache, design_cache, design_key
from ..runtime.metrics import metrics
from .hermite import hermite_orthonormal_all
from .multiindex import (
    MultiIndex,
    linear_index_set,
    total_degree_index_set,
    validate_index_set,
)

__all__ = ["OrthonormalBasis"]


def _as_slice(indices: List[int]) -> "slice | List[int]":
    """``indices`` as the equivalent slice when they count up by one."""
    start, stop = indices[0], indices[0] + len(indices)
    return slice(start, stop) if indices == list(range(start, stop)) else indices


class OrthonormalBasis:
    """A set of multivariate orthonormal polynomial basis functions.

    Parameters
    ----------
    num_vars:
        Number of underlying standard-normal variables ``R``.
    indices:
        Sparse multi-index set defining the basis functions.  Each entry is
        a tuple of ``(variable, degree)`` pairs; the empty tuple is the
        constant function.  Use the classmethod constructors for common sets.

    Notes
    -----
    The basis is orthonormal under ``x ~ N(0, I)``:

        E[g_i(x) g_j(x)] = delta_ij

    which the test suite verifies by Monte Carlo quadrature.
    """

    def __init__(self, num_vars: int, indices: Sequence[MultiIndex]):
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        validate_index_set(indices, num_vars)
        self.num_vars = int(num_vars)
        self.indices: List[MultiIndex] = list(indices)
        self._max_degree = max(
            (deg for idx in self.indices for _, deg in idx), default=0
        )
        self._linear = self._max_degree <= 1 and all(
            len(idx) <= 1 for idx in self.indices
        )
        self._cache_token: Optional[str] = None
        self._index_array: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def linear(cls, num_vars: int, include_constant: bool = True) -> "OrthonormalBasis":
        """Linear basis ``{1, x_1, ..., x_R}`` used by the paper's examples."""
        return cls(num_vars, linear_index_set(num_vars, include_constant))

    @classmethod
    def total_degree(cls, num_vars: int, degree: int) -> "OrthonormalBasis":
        """All products with total degree at most ``degree`` (eq. 5 order)."""
        return cls(num_vars, total_degree_index_set(num_vars, degree))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of basis functions ``M``."""
        return len(self.indices)

    @property
    def max_degree(self) -> int:
        """Highest univariate degree appearing in any basis function."""
        return self._max_degree

    def is_linear(self) -> bool:
        """True if every basis function has total degree <= 1 (set at construction)."""
        return self._linear

    def total_degrees(self) -> np.ndarray:
        """Total degree of each basis function, shape ``(M,)``."""
        return np.array([sum(d for _, d in idx) for idx in self.indices], dtype=int)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OrthonormalBasis(num_vars={self.num_vars}, size={self.size}, "
            f"max_degree={self._max_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrthonormalBasis):
            return NotImplemented
        return self.num_vars == other.num_vars and self.indices == other.indices

    def cache_token(self) -> str:
        """Value-identity digest of the basis (design-cache key component).

        Two independently constructed but equal bases share a token, so
        cached design matrices are reused across instances.
        """
        token = self._cache_token
        if token is None:
            payload = repr((self.num_vars, self.indices)).encode()
            token = hashlib.blake2b(payload, digest_size=16).hexdigest()
            self._cache_token = token
        return token

    def index_array(self) -> np.ndarray:
        """The multi-index set as one read-only int64 array, shape ``(M, L, 2)``.

        Row ``m`` lists basis function ``m``'s ``(variable, degree)`` pairs,
        padded with ``(0, 0)`` up to ``L``, the most pairs any function
        has (degrees are >= 1, so a zero degree marks padding).  This is
        the form :mod:`repro.store` persists; it is built once per basis.
        """
        array = self._index_array
        if array is None:
            width = max((len(idx) for idx in self.indices), default=0)
            padded = [idx + ((0, 0),) * (width - len(idx)) for idx in self.indices]
            array = np.array(padded, dtype=np.int64).reshape(self.size, width, 2)
            array.flags.writeable = False
            self._index_array = array
        return array

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def design_matrix(
        self, x: np.ndarray, columns: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Assemble the design matrix **G** of eq. (9).

        Parameters
        ----------
        x:
            Sample matrix of shape ``(K, num_vars)`` (a single sample of
            shape ``(num_vars,)`` is promoted to ``(1, num_vars)``).
        columns:
            Optional subset of basis-function indices to evaluate; defaults
            to all ``M`` functions.

        Returns
        -------
        numpy.ndarray
            ``G`` of shape ``(K, len(columns))`` with
            ``G[k, j] = g_{columns[j]}(x[k])``.
        """
        x = self._coerce_samples(x)
        wanted = self._resolve_columns(columns)

        cache = self._design_cache_for(x.shape[0] * max(len(wanted), 1))
        if cache is None:
            result = self._assemble(x, wanted)
        else:
            signature = None if columns is None else tuple(wanted)
            key = design_key(self.cache_token(), x, signature)
            result = cache.get_or_compute(key, lambda: self._assemble(x, wanted))
        return check_array(
            result,
            name="design matrix G",
            dtype=np.float64,
            ndim=2,
            c_contiguous=True,
        )

    def _design_cache_for(self, cells: int) -> Optional[DesignMatrixCache]:
        """The design cache to consult for a ``cells``-cell design, or None.

        A cache key hashes the whole sample matrix, so the cache is
        consulted only where assembly costs more than the key: never for a
        linear basis, whose assembly is a slice copy of the samples, and
        not below the cache's ``min_result_cells``.
        """
        if self._linear:
            return None
        cache = design_cache()
        if cache is None or cells < cache.min_result_cells:
            return None
        return cache

    def _coerce_samples(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[np.newaxis, :]
        if x.ndim != 2 or x.shape[1] != self.num_vars:
            raise ValueError(
                f"expected samples of shape (K, {self.num_vars}), got {x.shape}"
            )
        return x

    def _resolve_columns(self, columns: Optional[Sequence[int]]) -> List[int]:
        """Materialize ``columns`` once, normalizing negative indices.

        A generator argument must be consumed exactly once: both table
        sizing and assembly below iterate the result, so everything works
        off this single materialized list.  Entries must be integers
        (``operator.index``): a float raises ``TypeError``, as in numpy
        indexing, rather than being truncated to a column.
        """
        if columns is None:
            return list(range(self.size))
        wanted: List[int] = []
        for c in columns:
            c = operator.index(c)
            if c < 0:
                c += self.size
            if not 0 <= c < self.size:
                raise IndexError(
                    f"column {c} out of range for basis of size {self.size}"
                )
            wanted.append(c)
        return wanted

    def _assemble(self, x: np.ndarray, wanted: List[int]) -> np.ndarray:
        with metrics.timer("design_matrix"):
            metrics.increment("design_matrix.calls")
            metrics.increment("design_matrix.cells", x.shape[0] * len(wanted))
            if self._linear:
                return self._linear_design_matrix(x, wanted)
            plan = self._gather_plan(x, wanted)
            if plan is None:
                return np.ones((x.shape[0], len(wanted)), dtype=np.float64)
            stacked, gather = plan
            return self._gather_product(stacked, gather)

    def _gather_plan(
        self, x: np.ndarray, wanted: List[int]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Build the ``(stacked table, gather indices)`` assembly plan.

        The univariate orthonormal Hermite tables are evaluated in one
        batched recurrence over every active variable, only up to the
        highest degree the *selected* columns actually use, and stacked
        next to a shared ones column with a ``(degree, variable)``-major
        column layout, samples along the leading axis.  Each output column
        is then a product of ``depth`` columns of that table (zero-padded
        gather rows multiply by the ones column for lower-order terms) --
        the shape :meth:`_gather_product` assembles and the fused
        :meth:`_fused_gather_matvec` serving kernel consumes.

        Returns ``None`` when the selection needs no table at all (empty
        selection or constant-only columns -- the result is all ones).
        """
        num_samples = x.shape[0]
        num_cols = len(wanted)
        if num_cols == 0:
            return None

        max_deg: dict = {}
        depth = 1
        for m in wanted:
            idx = self.indices[m]
            depth = max(depth, len(idx))
            for var, deg in idx:
                if deg > max_deg.get(var, 0):
                    max_deg[var] = deg

        active = sorted(max_deg)
        table_degree = max(max_deg.values(), default=0)
        if table_degree == 0:
            return None
        # Batched recurrence over all active variables at once:
        # (table_degree + 1, K, V) -> columns laid out (degree, variable)-
        # major with samples as the leading axis.
        batch = hermite_orthonormal_all(table_degree, x[:, active])
        num_active = len(active)
        stacked = np.empty(
            (num_samples, 1 + table_degree * num_active), dtype=np.float64
        )
        stacked[:, 0] = 1.0
        stacked[:, 1:] = batch[1:].transpose(1, 0, 2).reshape(num_samples, -1)
        position = {var: p for p, var in enumerate(active)}

        gather = np.zeros((num_cols, depth), dtype=np.intp)
        for j, m in enumerate(wanted):
            for level, (var, deg) in enumerate(self.indices[m]):
                gather[j, level] = 1 + (deg - 1) * num_active + position[var]
        return stacked, gather

    # Sample rows are processed in blocks of this size so the per-block
    # gather buffers (2 x block x C doubles) stay inside the L2 cache;
    # larger blocks push the gather traffic out to L3/DRAM and measurably
    # slow the assembly down on memory-bandwidth-bound hosts.
    _ROW_BLOCK = 8

    def _gather_product(self, stacked: np.ndarray, gather: np.ndarray) -> np.ndarray:
        """Assemble design columns as products of gathered table columns.

        ``stacked`` and ``gather`` are a :meth:`_gather_plan`; returns the
        ``(K, C)`` design matrix in ``stacked``'s dtype.
        """
        num_samples = stacked.shape[0]
        num_cols, depth = gather.shape
        dtype = stacked.dtype
        out = np.empty((num_samples, num_cols), dtype=dtype)
        block = self._ROW_BLOCK
        product = np.empty((block, num_cols), dtype=dtype)
        factor = np.empty((block, num_cols), dtype=dtype)
        first = gather[:, 0]
        middle = [gather[:, level] for level in range(1, depth - 1)]
        last = gather[:, depth - 1] if depth > 1 else None
        for k0 in range(0, num_samples, block):
            k1 = min(k0 + block, num_samples)
            rows = k1 - k0
            sub = stacked[k0:k1]
            if last is None:
                np.take(sub, first, axis=1, out=out[k0:k1])
                continue
            np.take(sub, first, axis=1, out=product[:rows])
            for level_cols in middle:
                np.take(sub, level_cols, axis=1, out=factor[:rows])
                product[:rows] *= factor[:rows]
            np.take(sub, last, axis=1, out=factor[:rows])
            np.multiply(product[:rows], factor[:rows], out=out[k0:k1])
        return out

    def _fused_gather_matvec(
        self, stacked: np.ndarray, gather: np.ndarray, coefficients: np.ndarray
    ) -> np.ndarray:
        """Blocked assembly-and-dot: only a ``block x C`` scratch is live."""
        num_samples = stacked.shape[0]
        num_cols, depth = gather.shape
        dtype = stacked.dtype
        out = np.empty(num_samples, dtype=dtype)
        block = self._ROW_BLOCK
        product = np.empty((block, num_cols), dtype=dtype)
        factor = np.empty((block, num_cols), dtype=dtype)
        first = gather[:, 0]
        rest = [gather[:, level] for level in range(1, depth)]
        for k0 in range(0, num_samples, block):
            k1 = min(k0 + block, num_samples)
            rows = k1 - k0
            sub = stacked[k0:k1]
            np.take(sub, first, axis=1, out=product[:rows])
            for level_cols in rest:
                np.take(sub, level_cols, axis=1, out=factor[:rows])
                product[:rows] *= factor[:rows]
            np.dot(product[:rows], coefficients, out=out[k0:k1])
        return out

    def _linear_design_matrix(self, x: np.ndarray, wanted: List[int]) -> np.ndarray:
        """Fast path for linear bases: columns are 1 or a raw variable.

        Variable columns that sit in consecutive output positions and read
        consecutive variables -- every basis :meth:`linear` builds, whole
        or restricted to a range -- are written by one slice copy of
        ``x``; any other layout (permuted variables, gaps) is gathered.
        Both write the same floats.
        """
        out = np.empty((x.shape[0], len(wanted)), dtype=np.float64)
        const_pos: List[int] = []
        var_pos: List[int] = []
        var_ids: List[int] = []
        for j, m in enumerate(wanted):
            idx = self.indices[m]
            if not idx:
                const_pos.append(j)
            else:
                var_pos.append(j)
                var_ids.append(idx[0][0])
        if const_pos:
            out[:, _as_slice(const_pos)] = 1.0
        if var_pos:
            out[:, _as_slice(var_pos)] = x[:, _as_slice(var_ids)]
        return out

    def fused_predict(self, x: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Fused design-matrix -> prediction serving kernel.

        Computes ``design_matrix(x) @ coefficients`` in one call.  Where
        :meth:`_design_cache_for` consults the design cache (a nonlinear
        basis at a cacheable size), a hit feeds the cached matrix to a
        single matvec (no re-assembly) and a miss materializes the matrix
        once, caches it for the next batch of the same samples, and
        consumes it by the same matvec.  A linear basis is assembled by
        slice copy, uncached, for the same matvec.  Otherwise -- below the
        cache's ``min_result_cells`` threshold, the common serving
        micro-batch, or with the cache disabled --
        :meth:`_fused_gather_matvec` streams block-sized slices of the
        assembly straight into the dot product, so no ``K x M``
        intermediate is ever materialized.  Counted as
        ``backends.fused_predicts``.
        """
        x = self._coerce_samples(x)
        coefficients = np.ascontiguousarray(coefficients, dtype=np.float64)
        if coefficients.shape != (self.size,):
            raise ValueError(
                f"expected {self.size} coefficients, got shape {coefficients.shape}"
            )
        metrics.increment("backends.fused_predicts")
        wanted = list(range(self.size))
        cache = self._design_cache_for(x.shape[0] * max(self.size, 1))
        if cache is not None:
            key = design_key(self.cache_token(), x, None)
            design = cache.get_or_compute(key, lambda: self._assemble(x, wanted))
            return design @ coefficients
        if self._linear:
            design = self._linear_design_matrix(x, wanted)
            return design @ coefficients
        plan = self._gather_plan(x, wanted)
        if plan is None:
            design = np.ones((x.shape[0], self.size), dtype=np.float64)
            return design @ coefficients
        stacked, gather = plan
        return self._fused_gather_matvec(stacked, gather, coefficients)

    def evaluate(self, coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Evaluate ``sum_m alpha_m g_m(x)`` for each row of ``x`` (eq. 2)."""
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.size,):
            raise ValueError(
                f"expected {self.size} coefficients, got shape {coefficients.shape}"
            )
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        design = self.design_matrix(x)
        values = design @ coefficients
        return values[0] if squeeze else values

    # ------------------------------------------------------------------
    # Structure helpers used by prior mapping (Section IV-A)
    # ------------------------------------------------------------------
    def index_of(self, index: MultiIndex) -> int:
        """Position of a multi-index in the basis (raises if absent)."""
        try:
            return self.indices.index(index)
        except ValueError:
            raise KeyError(f"multi-index {index} not in basis") from None

    def restricted_to(self, columns: Sequence[int]) -> "OrthonormalBasis":
        """New basis containing only the selected basis functions."""
        return OrthonormalBasis(self.num_vars, [self.indices[c] for c in columns])
