"""Linear-algebra kernels: SPD solves and Woodbury low-rank updates."""

from .numerics import EPS, is_effectively_zero
from .solvers import SolverError, solve_eigh, solve_least_squares, solve_spd
from .woodbury import (
    CholeskyFactor,
    extend_gram_kernel,
    gram_kernel,
    posterior_variance_diagonal,
    solve_diag_plus_gram,
    solve_diag_plus_gram_direct,
)

__all__ = [
    "CholeskyFactor",
    "EPS",
    "SolverError",
    "extend_gram_kernel",
    "gram_kernel",
    "is_effectively_zero",
    "posterior_variance_diagonal",
    "solve_diag_plus_gram",
    "solve_diag_plus_gram_direct",
    "solve_eigh",
    "solve_least_squares",
    "solve_spd",
]
