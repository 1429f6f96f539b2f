"""Multi-backend compiled hot paths.

``repro.backends`` is the registry-based seam the numeric hot paths
dispatch through: design-matrix gather/product assembly and the fused
design-matrix -> predict serving kernel
(:meth:`repro.basis.OrthonormalBasis.design_matrix` /
:meth:`~repro.basis.OrthonormalBasis.fused_predict`), the Gram kernels
(:func:`repro.linalg.gram_kernel` / :func:`~repro.linalg.extend_gram_kernel`),
the Woodbury solve (:func:`repro.linalg.solve_diag_plus_gram` when K < M),
and the bordered-Cholesky updates (:class:`repro.linalg.CholeskyFactor`).

Three backends ship:

* ``numpy`` (default, always available) -- the canonical bits;
* ``numba`` (optional extra) -- parallel-JIT assembly and fused kernels;
* ``torch`` (optional extra) -- tensor kernels end to end, CPU or GPU.

Select with ``REPRO_BACKEND=<name>`` in the environment, process-wide via
:func:`set_backend`, or scoped via :func:`use_backend`.  A requested
backend whose extra is missing falls back to numpy gracefully (counted as
``backends.fallbacks``).  Every backend is held to the documented
:data:`TOLERANCES` against the bitwise-deterministic float64 oracle
(:mod:`repro.backends.oracle`) by the differential conformance suite; see
``docs/backends.md`` for the selection/fallback runbook and the tolerance
table, including the opt-in float32 serving mode.
"""

from .base import (
    FLOAT32_SERVING_RTOL,
    SUPPORTED_DTYPES,
    TOLERANCES,
    Backend,
    ToleranceSpec,
    resolve_dtype,
)
from .numba_backend import NumbaBackend
from .numpy_backend import NumpyBackend
from .registry import (
    BACKEND_ENV_VAR,
    active_backend_name,
    available_backends,
    backend_available,
    backend_unavailable_reason,
    describe_selection,
    get_backend,
    register_backend,
    registered_backends,
    reset_backend_selection,
    set_backend,
    use_backend,
)
from .torch_backend import TorchBackend

register_backend(NumpyBackend)
register_backend(NumbaBackend)
register_backend(TorchBackend)

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "FLOAT32_SERVING_RTOL",
    "NumbaBackend",
    "NumpyBackend",
    "SUPPORTED_DTYPES",
    "TOLERANCES",
    "TorchBackend",
    "ToleranceSpec",
    "active_backend_name",
    "available_backends",
    "backend_available",
    "backend_unavailable_reason",
    "describe_selection",
    "get_backend",
    "register_backend",
    "registered_backends",
    "reset_backend_selection",
    "resolve_dtype",
    "set_backend",
    "use_backend",
]
