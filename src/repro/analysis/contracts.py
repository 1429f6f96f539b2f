"""Runtime array contracts for public API boundaries.

The static rules in :mod:`repro.analysis.rules` catch what is decidable
from source; this module enforces the dynamic half of the same invariants:
arrays served from the design-matrix cache must stay read-only, and
``design_matrix`` outputs must be C-contiguous float64.  Checks are flag
inspections (no data traversal), cheap enough to leave on everywhere, and
can be disabled globally (``REPRO_CONTRACTS=0`` or
:func:`set_contracts_enabled`) for micro-benchmarks.

Contract failures raise :class:`ContractViolationError` — a real exception,
not an ``assert``, so they survive ``python -O`` (the REP007 invariant).
"""

from __future__ import annotations

import functools
import os
from ..locks import named_lock
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ContractViolationError",
    "check_array",
    "returns_array",
    "accepts_arrays",
    "contracts_enabled",
    "set_contracts_enabled",
]


class ContractViolationError(TypeError):
    """An array crossed an API boundary in a state its contract forbids."""


_state_lock = named_lock("analysis.contracts")
_enabled = os.environ.get("REPRO_CONTRACTS", "1").strip().lower() not in (
    "0",
    "false",
    "off",
)


def contracts_enabled() -> bool:
    """Whether runtime contract checks are currently active."""
    with _state_lock:
        return _enabled


def set_contracts_enabled(enabled: bool) -> bool:
    """Toggle contract checking process-wide; returns the previous setting."""
    global _enabled
    with _state_lock:
        previous = _enabled
        _enabled = bool(enabled)
        return previous


def check_array(
    value: Any,
    *,
    name: str = "array",
    dtype: Optional[type] = None,
    ndim: Optional[int] = None,
    shape: Optional[Tuple[Optional[int], ...]] = None,
    writeable: Optional[bool] = None,
    c_contiguous: Optional[bool] = None,
) -> Any:
    """Validate an ndarray against a contract; returns it unchanged.

    Every criterion is optional; ``shape`` entries of ``None`` are
    wildcards (``(None, 3)`` = "any number of rows, exactly 3 columns").
    No-op (beyond one lock acquisition) when contracts are disabled.
    """
    if not contracts_enabled():
        return value
    if not isinstance(value, np.ndarray):
        raise ContractViolationError(
            f"{name}: expected numpy.ndarray, got {type(value).__name__}"
        )
    if dtype is not None and value.dtype != np.dtype(dtype):
        raise ContractViolationError(
            f"{name}: expected dtype {np.dtype(dtype)}, got {value.dtype}"
        )
    if ndim is not None and value.ndim != ndim:
        raise ContractViolationError(
            f"{name}: expected {ndim}-D array, got {value.ndim}-D {value.shape}"
        )
    if shape is not None:
        if value.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(value.shape, shape)
        ):
            raise ContractViolationError(
                f"{name}: expected shape {shape}, got {value.shape}"
            )
    if writeable is not None and bool(value.flags.writeable) != writeable:
        state = "writeable" if value.flags.writeable else "read-only"
        want = "writeable" if writeable else "read-only"
        raise ContractViolationError(f"{name}: expected {want} array, got {state}")
    if c_contiguous is not None and bool(value.flags.c_contiguous) != c_contiguous:
        raise ContractViolationError(
            f"{name}: expected c_contiguous={c_contiguous}, got "
            f"{bool(value.flags.c_contiguous)}"
        )
    return value


def returns_array(**spec: Any) -> Callable:
    """Decorator: the wrapped function's return value must satisfy ``spec``.

    Example
    -------
    >>> @returns_array(dtype=np.float64, ndim=2, c_contiguous=True)
    ... def design_matrix(...): ...
    """

    def decorate(func: Callable) -> Callable:
        label = spec.pop("name", f"{func.__qualname__}() return value")

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            return check_array(result, name=label, **spec)

        wrapper.__contract__ = dict(spec, name=label)
        return wrapper

    return decorate


def accepts_arrays(**per_arg: Dict[str, Any]) -> Callable:
    """Decorator: named arguments must satisfy their per-argument specs.

    Example
    -------
    >>> @accepts_arrays(design={"dtype": np.float64, "ndim": 2})
    ... def fit_design(self, design, target): ...
    """
    import inspect

    def decorate(func: Callable) -> Callable:
        signature = inspect.signature(func)
        unknown = set(per_arg) - set(signature.parameters)
        if unknown:
            raise ValueError(
                f"{func.__qualname__} has no parameter(s) {sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if contracts_enabled():
                bound = signature.bind_partial(*args, **kwargs)
                for arg_name, spec in per_arg.items():
                    if arg_name in bound.arguments:
                        check_array(
                            bound.arguments[arg_name],
                            name=f"{func.__qualname__}({arg_name})",
                            **spec,
                        )
            return func(*args, **kwargs)

        wrapper.__contract__ = dict(per_arg)
        return wrapper

    return decorate
