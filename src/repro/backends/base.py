"""Backend interface for the compiled hot paths.

A :class:`Backend` supplies the handful of dense numeric primitives that
dominate BMF wall-clock once the simulation budget is paid:

* ``gather_product`` -- the design-matrix assembly core of
  :meth:`repro.basis.OrthonormalBasis.design_matrix` (eq. 9): each output
  column is a product of gathered columns of a stacked Hermite table;
* ``fused_gather_matvec`` -- the fused design-matrix -> predict serving
  kernel (assembly and the coefficient dot product in one pass, no
  ``K x M`` intermediate);
* ``matmul_t`` / ``matvec`` -- the Gram contractions of
  :func:`repro.linalg.gram_kernel` / :func:`repro.linalg.solve_diag_plus_gram`
  (its K < M Woodbury dual);
* ``triangular_solve`` -- the border-update solves of
  :class:`repro.linalg.CholeskyFactor`.

The ``numpy`` backend is the canonical reference: its float64 results
define the bits every cache entry and golden test is keyed on.  Optional
backends (``numba``, ``torch``) may differ bitwise; the differential
conformance suite (``tests/test_backend_conformance.py``) holds every
registered backend to the per-operation tolerances in :data:`TOLERANCES`,
measured against the bitwise-deterministic float64 oracle
(:mod:`repro.backends.oracle`).

Dtype policy: hot paths run in ``float64`` (default) or the opt-in
``float32`` serving mode.  Solvers always *accumulate* in float64 --
``float32`` governs the design/serving data, never the K x K factorization
-- which is why the float32 tolerance rows below stay small.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Backend",
    "ToleranceSpec",
    "TOLERANCES",
    "FLOAT32_SERVING_RTOL",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
]

#: Dtypes the hot paths may run in; everything else is rejected up front.
SUPPORTED_DTYPES: Tuple[np.dtype, ...] = (np.dtype(np.float64), np.dtype(np.float32))

#: Default relative bound for the float32 serving mode: fused float32
#: predictions must stay within this inf-norm-relative distance of the
#: float64 reference (enforced via ``repro.analysis.contracts.check_close``
#: when ``REPRO_CONTRACTS`` is on; see docs/backends.md for the
#: per-testbench table).
FLOAT32_SERVING_RTOL = 1e-4


def resolve_dtype(dtype: Optional[object]) -> np.dtype:
    """Normalize a user-facing dtype argument (``None`` means float64)."""
    if dtype is None:
        return SUPPORTED_DTYPES[0]
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(str(d) for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported hot-path dtype {resolved}; supported: {supported}"
        )
    return resolved


@dataclass(frozen=True)
class ToleranceSpec:
    """Documented per-operation error bounds of one (backend, dtype) pair.

    Each field is an inf-norm relative tolerance against the
    bitwise-deterministic float64 oracle; ``0.0`` means *bitwise equal*.
    ``serving`` additionally bounds the fused-kernel predictions and is the
    contract enforced on the float32 serving path.
    """

    design: float
    gram: float
    solve: float
    refit: float
    serving: float

    def for_operation(self, operation: str) -> float:
        value = getattr(self, operation, None)
        if value is None:
            raise KeyError(f"unknown conformance operation {operation!r}")
        return float(value)


#: The documented tolerance table (docs/backends.md keeps the prose copy;
#: the conformance suite imports this one, so they cannot drift apart).
#:
#: numpy/float64 is bitwise for assembly and for deterministic-mode
#: contractions; its BLAS (non-deterministic-mode) contractions are held to
#: 1e-12 because blocking order may differ from the oracle's einsum.
TOLERANCES: Dict[Tuple[str, str], ToleranceSpec] = {
    ("numpy", "float64"): ToleranceSpec(
        design=0.0, gram=1e-12, solve=1e-9, refit=1e-9, serving=1e-12
    ),
    ("numpy", "float32"): ToleranceSpec(
        design=1e-5, gram=1e-5, solve=1e-3, refit=1e-3, serving=FLOAT32_SERVING_RTOL
    ),
    ("numba", "float64"): ToleranceSpec(
        design=0.0, gram=1e-12, solve=1e-9, refit=1e-9, serving=1e-12
    ),
    ("numba", "float32"): ToleranceSpec(
        design=1e-5, gram=1e-5, solve=1e-3, refit=1e-3, serving=FLOAT32_SERVING_RTOL
    ),
    ("torch", "float64"): ToleranceSpec(
        design=1e-12, gram=1e-10, solve=1e-8, refit=1e-8, serving=1e-10
    ),
    ("torch", "float32"): ToleranceSpec(
        design=1e-5, gram=1e-5, solve=1e-3, refit=1e-3, serving=FLOAT32_SERVING_RTOL
    ),
}


class Backend(ABC):
    """Numeric primitives behind the hot-path seams.

    Implementations must be stateless (a single shared instance serves all
    threads) and must preserve the input dtype: float32 in, float32 out.
    Outputs are fresh C-contiguous arrays the caller owns.
    """

    #: Registry key; also the value recorded in dtype-aware cache keys.
    name: str = "abstract"

    @classmethod
    @abstractmethod
    def available(cls) -> bool:
        """Whether this backend can run here (its extra is importable)."""

    @classmethod
    def unavailable_reason(cls) -> str:
        """Human-readable reason used by skip messages and fallbacks."""
        return f"backend {cls.name!r} is not available on this host"

    # ------------------------------------------------------------------
    # Design-matrix assembly
    # ------------------------------------------------------------------
    @abstractmethod
    def gather_product(self, stacked: np.ndarray, gather: np.ndarray) -> np.ndarray:
        """Assemble design columns as products of gathered table columns.

        ``stacked`` is the ``(K, T)`` Hermite table (column 0 is all ones);
        ``gather`` is ``(C, depth)`` of ``intp`` indices into the table's
        columns, zero-padded so unused factor levels multiply by the ones
        column.  Returns the ``(K, C)`` design matrix in ``stacked``'s
        dtype.
        """

    @abstractmethod
    def fused_gather_matvec(
        self, stacked: np.ndarray, gather: np.ndarray, coefficients: np.ndarray
    ) -> np.ndarray:
        """Fused assembly + prediction: ``gather_product(...) @ coefficients``.

        Must not materialize the full ``(K, C)`` design matrix; returns the
        ``(K,)`` prediction vector in ``stacked``'s dtype.
        """

    # ------------------------------------------------------------------
    # Dense contractions
    # ------------------------------------------------------------------
    @abstractmethod
    def matmul_t(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``left @ right.T`` (the Gram-product shape used by the kernels)."""

    @abstractmethod
    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """``matrix @ vector``."""

    @abstractmethod
    def triangular_solve(
        self, lower: np.ndarray, rhs: np.ndarray, trans: bool = False
    ) -> np.ndarray:
        """Solve ``L x = rhs`` (or ``L^T x = rhs`` when ``trans``)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
