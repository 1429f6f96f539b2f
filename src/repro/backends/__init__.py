"""Dtype policy and conformance tolerances of the numeric hot paths.

The hot paths -- design-matrix assembly and the fused design-matrix ->
predict serving kernel (:meth:`repro.basis.OrthonormalBasis.design_matrix`
/ :meth:`~repro.basis.OrthonormalBasis.fused_predict`), the Gram kernels
(:func:`repro.linalg.gram_kernel` / :func:`~repro.linalg.extend_gram_kernel`),
the Woodbury solve and the bordered-Cholesky updates
(:class:`repro.linalg.CholeskyFactor`) -- call numpy and scipy directly.
This package holds what they share: the dtypes they may run in, the
float32 serving bound, and the :data:`TOLERANCES` the differential
conformance suite holds them to against the bitwise-deterministic float64
oracle (:mod:`repro.backends.oracle`).  See ``docs/backends.md``.

Dtype policy: hot paths run in ``float64`` (default) or the opt-in
``float32`` serving mode.  Solvers always *accumulate* in float64 --
``float32`` governs the design/serving data, never the K x K factorization
-- which is why the float32 tolerance row stays small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "FLOAT32_SERVING_RTOL",
    "SUPPORTED_DTYPES",
    "TOLERANCES",
    "ToleranceSpec",
    "describe_selection",
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
    """Documented per-operation error bounds of one dtype.

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


#: The documented tolerance table, keyed by dtype name (docs/backends.md
#: keeps the prose copy; the conformance suite imports this one, so they
#: cannot drift apart).
#:
#: float64 assembly and deterministic-mode contractions are bitwise; the
#: BLAS (non-deterministic-mode) contractions are held to 1e-12 because
#: blocking order may differ from the oracle's einsum.
TOLERANCES: Dict[str, ToleranceSpec] = {
    "float64": ToleranceSpec(
        design=0.0, gram=1e-12, solve=1e-9, refit=1e-9, serving=1e-12
    ),
    "float32": ToleranceSpec(
        design=1e-5, gram=1e-5, solve=1e-3, refit=1e-3, serving=FLOAT32_SERVING_RTOL
    ),
}


def describe_selection() -> Dict[str, object]:
    """Which numeric implementation runs the hot paths (always numpy).

    Kept for environment fingerprints that record it next to the BLAS
    library and the numpy/scipy versions.
    """
    return {"active": "numpy"}
