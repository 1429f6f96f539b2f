"""Conformance tolerances of the numeric hot paths.

The hot paths -- design-matrix assembly and the fused design-matrix ->
predict serving kernel (:meth:`repro.basis.OrthonormalBasis.design_matrix`
/ :meth:`~repro.basis.OrthonormalBasis.fused_predict`), the Gram kernels
(:func:`repro.linalg.gram_kernel` / :func:`~repro.linalg.extend_gram_kernel`),
the Woodbury solve and the bordered-Cholesky updates
(:class:`repro.linalg.CholeskyFactor`) -- call numpy and scipy directly
and run in float64.  This package holds the :data:`TOLERANCES` the
differential conformance suite holds them to against the
bitwise-deterministic float64 oracle (:mod:`repro.backends.oracle`).  See
``docs/backends.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = [
    "TOLERANCES",
    "ToleranceSpec",
    "describe_selection",
]


@dataclass(frozen=True)
class ToleranceSpec:
    """Documented per-operation error bounds of the float64 hot paths.

    Each field is an inf-norm relative tolerance against the
    bitwise-deterministic float64 oracle; ``0.0`` means *bitwise equal*.
    ``serving`` bounds the fused-kernel predictions.
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
#: Assembly and deterministic-mode contractions are bitwise; the BLAS
#: (non-deterministic-mode) contractions are held to 1e-12 because
#: blocking order may differ from the oracle's einsum.
TOLERANCES = ToleranceSpec(
    design=0.0, gram=1e-12, solve=1e-9, refit=1e-9, serving=1e-12
)


def describe_selection() -> Dict[str, object]:
    """Which numeric implementation runs the hot paths (always numpy).

    Kept for environment fingerprints that record it next to the BLAS
    library and the numpy/scipy versions.
    """
    return {"active": "numpy"}
