"""Discrete nabla fractional calculus on finite integer-offset grids.

Taylor monomials, fractional integrals and Riemann-Liouville / Caputo
differences, the fractional operator L x = nabla[p * caputo x] +
q * shift(x), IVP solvers via Cauchy functions and variation of
constants, (N,1) boundary value problems via constructed Green's
functions, and a dense brute-force oracle.
"""

from .errors import (
    DegenerateDenominatorError,
    NearSingularError,
    NonFiniteError,
    OffGridError,
    SingularSystemError,
)
from .grid import Grid, GridFunction, constant_grid_function, make_grid_function
from .monomial import kernel_weights, taylor_monomial
from .fraccalc import (
    caputo_difference,
    frac_integral,
    fractional_order_n,
    nabla_n,
    order_n,
    rl_difference,
)
from .operator import FracOperator, GhostClosure, apply
from .ivp import (
    CauchyFunction,
    InitialConditions,
    cauchy_function,
    homogeneous_basis,
    ic_to_values,
    solve_ivp,
    variation_of_constants,
    zero_forcing,
)
from .bvp import BoundarySpec, assemble_d, boundary_rows, solve_bvp
from .greens import (
    GreensFunction,
    build_greens,
    compare_greens,
    conjugate_greens_closed_form,
    greens_solve,
)
from .oracle import (
    DenseSolution,
    DenseSystem,
    assemble_bvp,
    assemble_ivp,
    dense_solve,
    probe_equation_rows,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "CauchyFunction",
    "DegenerateDenominatorError",
    "DenseSolution",
    "DenseSystem",
    "FracOperator",
    "GhostClosure",
    "GreensFunction",
    "Grid",
    "GridFunction",
    "InitialConditions",
    "NearSingularError",
    "NonFiniteError",
    "OffGridError",
    "SingularSystemError",
    "apply",
    "assemble_bvp",
    "assemble_d",
    "assemble_ivp",
    "boundary_rows",
    "build_greens",
    "caputo_difference",
    "cauchy_function",
    "compare_greens",
    "conjugate_greens_closed_form",
    "constant_grid_function",
    "dense_solve",
    "frac_integral",
    "fractional_order_n",
    "greens_solve",
    "homogeneous_basis",
    "ic_to_values",
    "kernel_weights",
    "make_grid_function",
    "nabla_n",
    "order_n",
    "probe_equation_rows",
    "residual",
    "rl_difference",
    "solve_bvp",
    "solve_ivp",
    "taylor_monomial",
    "variation_of_constants",
    "zero_forcing",
]
