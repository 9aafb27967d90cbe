"""(N,1) boundary value problems: the boundary functionals as one matrix
(:func:`boundary_rows`), the D-matrix (:func:`assemble_d`), and the
bordered system, whose layout this module alone knows.  Its unknowns are
x on [a-N+1, b], then the basis coefficients c; its rows are
x - sum_k c_k x_k = 0 on the window [a-N+1, a+N], the boundary rows and
the equation rows, ``op.matrix``.  Only the basis's window enters, so its
growth does not, and the system is singular exactly when det D = 0.
``solve_bvp`` solves it, and ``greens_matrix`` reads G off its inverse."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Sequence

import numpy as np

from .grid import Grid, GridFunction
from .ivp import InitialConditions, ic_to_values
from .linalg import gauss_solve
from .operator import FracOperator, require_finite

_RANK_TOL = 1e-10


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
        if not np.all(np.isfinite(np.concatenate((np.ravel(alpha), self.beta, self.values)))):
            raise ValueError("boundary coefficients and values must be finite")
        for i, row in enumerate(alpha):
            if not any(v != 0.0 for v in row):
                raise ValueError(f"alpha row {i} is identically zero")
        if not any(v != 0.0 for v in self.beta):
            raise ValueError("beta row is identically zero")
        if n > 1:  # one nonzero row has rank 1
            rows = np.array(alpha)
            rows /= np.max(np.abs(rows), axis=1, keepdims=True)  # rank test free of scale
            if np.linalg.matrix_rank(rows, tol=_RANK_TOL) < n:
                raise ValueError("alpha rows are linearly dependent")

    @property
    def N(self) -> int:
        return len(self.alpha)

    @classmethod
    @cache  # built, and its alpha rows rank-tested, once per set of values
    def conjugate(cls, A: float = 0.0, B: float = 0.0, C: float = 0.0) -> "BoundarySpec":
        """(2,1) conjugate conditions x(a) = A, nabla x(a+1) = B, x(b) = C."""
        return cls(
            alpha=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
            left_values=(A, B),
            beta=(1.0, 0.0, 0.0),
            right_value=C,
        )

    @property
    def values(self) -> tuple[float, ...]:
        """(A_0, ..., A_{N-1}, B), in the order of the boundary rows."""
        return self.left_values + (self.right_value,)


def boundary_rows(spec: BoundarySpec, b: int) -> np.ndarray:
    """The N+1 boundary functionals as rows over x(a-N+1), ..., x(a+b).

    Row i < N is sum_j alpha_ij nabla^j x(a+j) and row N is
    sum_j beta_j nabla^j x(a+b), with nabla^j x(t) =
    sum_i (-1)^i C(j,i) x(t-i); ``b`` is the offset b - a.
    """
    n = spec.N
    if b < n + 1:
        raise ValueError(f"b - a = {b} must be at least N + 1 = {n + 1}")
    lo = -(n - 1)
    rows = np.zeros((n + 1, b - lo + 1))
    alpha = np.array(spec.alpha)
    for j in range(n + 1):
        for i in range(j + 1):
            w = (-1) ** i * comb(j, i)
            rows[:n, j - i - lo] += alpha[:, j] * w
            rows[n, b - i - lo] += spec.beta[j] * w
    return rows


def _basis_on(basis: Sequence[GridFunction] | None, spec: BoundarySpec, op: FracOperator,
              grid: Grid) -> np.ndarray:
    """The basis on ``grid``, one row per function, once spec and basis fit op.  ``None``
    is ``homogeneous_basis(op)`` on its window [a-N+1, a+N] alone, written down without
    solving (zero ghosts, then each unit initial vector unfolded), and refused elsewhere."""
    n = op.N
    if spec.N != n:
        raise ValueError(f"spec has N={spec.N} but operator has N={n}")
    if basis is None:
        if grid != Grid(op.a, 1 - n, n):
            raise ValueError("basis None covers only [a-N+1, a+N]; pass homogeneous_basis(op)")
        return np.array([(0.0,) * (n - 1) + ic_to_values(InitialConditions(e))
                         for e in np.eye(n + 1)])
    if len(basis) != n + 1:
        raise ValueError(f"need {n + 1} basis functions, got {len(basis)}")
    return np.array([x.values_on(grid) for x in basis])


def assemble_d(basis: Sequence[GridFunction], spec: BoundarySpec,
               op: FracOperator) -> np.ndarray:
    """The (N+1) x (N+1) matrix of boundary functionals: entry (i, k) is row i applied to x_k."""
    return boundary_rows(spec, op.b_offset) @ _basis_on(basis, spec, op, op.grid).T


def _bordered_matrix(op: FracOperator, spec: BoundarySpec,
                     basis: Sequence[GridFunction] | None) -> np.ndarray:
    """The bordered system's matrix, its rows and columns in the order above."""
    n, m = op.N, len(op.grid)
    matrix = np.zeros((m + n + 1, m + n + 1))
    matrix[:2 * n, :2 * n] = np.eye(2 * n)
    matrix[:2 * n, m:] = -_basis_on(basis, spec, op, Grid(op.a, 1 - n, n)).T  # [a-N+1, a+N]
    matrix[2 * n:3 * n + 1, :m] = boundary_rows(spec, op.b_offset)
    matrix[3 * n + 1:, :m] = op.matrix
    return matrix


def solve_bvp(op: FracOperator, h: GridFunction, spec: BoundarySpec,
              basis: Sequence[GridFunction] | None = None) -> GridFunction:
    """Solve L x = h subject to ``spec`` within the span of ``basis``.

    One bordered solve, with right-hand side (0, spec.values, h).
    Defaults to the numeric identity-IC basis (zero ghost closure),
    whose window is known without solving an IVP.  Raises
    :class:`NearSingularError` when the system is singular to working
    precision (in exact arithmetic, iff det D = 0), and
    :class:`NonFiniteError` when x is not finite.
    """
    rhs = np.concatenate((np.zeros(2 * op.N), spec.values, h.values_on(op.rows)))
    x = gauss_solve(_bordered_matrix(op, spec, basis), rhs)[:len(op.grid)]
    return GridFunction(op.grid, require_finite(op.grid, x))


def greens_matrix(op: FracOperator, spec: BoundarySpec,
                  basis: Sequence[GridFunction] | None = None) -> np.ndarray:
    """G alone, (t, s)-indexed on ``op.grid`` x ``op.rows``, with no Cauchy function.

    Column s of G solves L x = e_s with zero boundary values within the
    span of ``basis`` (by default the numeric one, as in ``solve_bvp``),
    so G is the x rows of the bordered inverse's equation-row columns,
    O(b^3).  The basis's values below a decide G: for the (2,1) conjugate
    problem with p = 1, q = 0 and b = 40, G over the numeric zero-ghost
    basis is 33 %, 19 % and 2.9 % of max|G| from the closed form for
    nu = 1.2, 1.5 and 1.9, and over the analytic basis within 5e-14 of
    it.  Raises as ``solve_bvp`` does.
    """
    inverse = gauss_solve(_bordered_matrix(op, spec, basis))
    return require_finite(op.grid, inverse[:len(op.grid), 3 * op.N + 1:])
