"""(N,1) boundary value problems: boundary functionals, the D-matrix,
solvability detection, and solution assembly."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .errors import NearSingularError
from .grid import Grid, GridFunction
from .ivp import InitialConditions, homogeneous_basis, solve_ivp
from .linalg import gauss_solve
from .operator import FracOperator

_RANK_TOL = 1e-10
_NEAR_SINGULAR_TOL = 1e-10


def _nabla_pow_at(x: GridFunction, j: int, k: int) -> float:
    """nabla^j x at offset k, by signed binomial sums."""
    return sum((-1) ** i * comb(j, i) * x.at(k - i) for i in range(j + 1))


def left_bc_eval(x: GridFunction, alpha_row: Sequence[float], a: float) -> float:
    """sum_j alpha_j * nabla^j x(a+j)."""
    k0 = x.grid.offset_of(a)
    return sum(
        aj * _nabla_pow_at(x, j, k0 + j) for j, aj in enumerate(alpha_row)
    )


def right_bc_eval(x: GridFunction, beta: Sequence[float], b: float) -> float:
    """sum_j beta_j * nabla^j x(b), all differences anchored at b."""
    kb = x.grid.offset_of(b)
    return sum(bj * _nabla_pow_at(x, j, kb) for j, bj in enumerate(beta))


@dataclass(frozen=True)
class BoundarySpec:
    """N left rows alpha_{ij} with values A_i, one right row beta with value B."""

    alpha: tuple[tuple[float, ...], ...]
    left_values: tuple[float, ...]
    beta: tuple[float, ...]
    right_value: float

    def __post_init__(self):
        n = len(self.alpha)
        if n == 0:
            raise ValueError("need at least one left boundary row")
        alpha = tuple(tuple(float(v) for v in row) for row in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "left_values", tuple(float(v) for v in self.left_values))
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        object.__setattr__(self, "right_value", float(self.right_value))
        if any(len(row) != n + 1 for row in alpha):
            raise ValueError(f"each alpha row must have {n + 1} entries")
        if len(self.beta) != n + 1:
            raise ValueError(f"beta must have {n + 1} entries")
        if len(self.left_values) != n:
            raise ValueError(f"need {n} left boundary values")
        for i, row in enumerate(alpha):
            if sum(v * v for v in row) == 0.0:
                raise ValueError(f"alpha row {i} is identically zero")
        if sum(v * v for v in self.beta) == 0.0:
            raise ValueError("beta row is identically zero")
        if np.linalg.matrix_rank(np.array(alpha), tol=_RANK_TOL) < n:
            raise ValueError("alpha rows are linearly dependent")

    @property
    def N(self) -> int:
        return len(self.alpha)

    @classmethod
    def conjugate(cls, A: float = 0.0, B: float = 0.0, C: float = 0.0) -> "BoundarySpec":
        """(2,1) conjugate conditions x(a) = A, nabla x(a+1) = B, x(b) = C."""
        return cls(
            alpha=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
            left_values=(A, B),
            beta=(1.0, 0.0, 0.0),
            right_value=C,
        )

    def homogeneous(self) -> "BoundarySpec":
        return BoundarySpec(self.alpha, (0.0,) * self.N, self.beta, 0.0)


@dataclass(frozen=True, eq=False)
class DMatrix:
    """Boundary functionals of the basis: entry (i, k) applies row i to x_k."""

    entries: np.ndarray

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    def is_near_singular(self) -> bool:
        row_norms = np.max(np.abs(self.entries), axis=1)
        scale = float(np.prod(np.maximum(row_norms, 1e-300)))
        return abs(self.det) < _NEAR_SINGULAR_TOL * scale


def assemble_d(basis: Sequence[GridFunction], spec: BoundarySpec,
               op: FracOperator) -> DMatrix:
    """Tabulate the (N+1) x (N+1) matrix of boundary functionals."""
    n = spec.N
    if n != op.N:
        raise ValueError(f"spec has N={n} but operator has N={op.N}")
    if len(basis) != n + 1:
        raise ValueError(f"need {n + 1} basis functions, got {len(basis)}")
    d = np.empty((n + 1, n + 1))
    for k, x in enumerate(basis):
        for i in range(n):
            d[i, k] = left_bc_eval(x, spec.alpha[i], op.a)
        d[n, k] = right_bc_eval(x, spec.beta, op.b)
    return DMatrix(d)


def solve_bvp(op: FracOperator, h: GridFunction, spec: BoundarySpec,
              basis: Sequence[GridFunction] | None = None) -> GridFunction:
    """Solve L x = h subject to ``spec`` within the span of ``basis``.

    x = x_p + sum a_k x_k with x_p the zero-data IVP solution and the
    a_k from the D-matrix system.  Defaults to the numeric identity-IC
    basis (zero ghost closure).  Raises :class:`NearSingularError` when
    det D vanishes at tolerance.
    """
    if basis is None:
        basis = homogeneous_basis(op)
    d = assemble_d(basis, spec, op)
    if d.is_near_singular():
        raise NearSingularError(
            f"boundary matrix is singular at tolerance (det = {d.det:.3e})"
        )
    xp = solve_ivp(op, h, InitialConditions.zeros(op.N))
    n = spec.N
    rhs = np.empty(n + 1)
    for i in range(n):
        rhs[i] = spec.left_values[i] - left_bc_eval(xp, spec.alpha[i], op.a)
    rhs[n] = spec.right_value - right_bc_eval(xp, spec.beta, op.b)
    coeffs = gauss_solve(d.entries, rhs)
    return GridFunction(xp.grid, xp.values + coeffs @ basis_values(basis, xp.grid))


def basis_values(basis: Sequence[GridFunction], grid: Grid) -> np.ndarray:
    """The basis tabulated on ``grid``: one row per basis function."""
    return np.array([x.values_on(grid.base, grid.lo, grid.hi) for x in basis])
