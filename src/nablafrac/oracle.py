"""Brute-force verification: assemble the full dense linear system for an
IVP or BVP on the extended grid and solve it independently of the
structured solvers.

The equation rows are generated symbolically by index (binomial weights
of nabla^N convolved with the Caputo kernel values), not by probing
``operator.apply`` with unit vectors; a separately coded expansion is a
genuine oracle.  The unit-vector probe is kept as a third implementation
for mutual agreement tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .bvp import BoundarySpec
from .grid import Grid, GridFunction
from .ivp import InitialConditions
from .linalg import gauss_solve
from .monomial import taylor_monomial
from .operator import FracOperator, GhostClosure, apply, apply_array

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class DenseSystem:
    """An M x M system for the unknowns x(a-N+1), ..., x(b); M = b-a+N."""

    a: float
    nu: float
    N: int
    b_offset: int
    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def lo(self) -> int:
        return -(self.N - 1)

    def column_of(self, offset: int) -> int:
        return offset - self.lo


def _equation_row(op: FracOperator, t: int, lo: int, m: int, kernel: list[float]) -> np.ndarray:
    """Coefficients of (L x)(t) on x(lo), ..., x(b); kernel[k] = H_{N-nu-1}(k)."""
    n = op.N
    row = np.zeros(m)
    for tau, w in ((t, op.p.at(t)), (t - 1, -op.p.at(t - 1))):
        for s in range(1, tau + 1):
            kern = w * kernel[tau - s + 1]
            for i in range(n + 1):
                row[s - i - lo] += kern * (-1) ** i * comb(n, i)
    row[t - 1 - lo] += op.q.at(t)
    return row


def _equation_rows(op: FracOperator, h: GridFunction, lo: int, m: int):
    """Rows and right-hand sides of (L x)(t) = h(t), t in [N+1, b]; one monomial per offset."""
    kernel = [taylor_monomial(k, op.N - op.nu - 1.0) for k in range(op.b_offset + 1)]
    ts = range(op.N + 1, op.b_offset + 1)
    return [_equation_row(op, t, lo, m, kernel) for t in ts], [h.at(t) for t in ts]


def _closure_rows(closure: GhostClosure, n: int, lo: int, m: int):
    rows, rhs = [], []
    for i, g in enumerate(closure.ghost_values(n - 1), start=1):
        row = np.zeros(m)
        row[-i - lo] = 1.0
        rows.append(row)
        rhs.append(g)
    return rows, rhs


def _left_row(alpha_row: Sequence[float], lo: int, m: int) -> np.ndarray:
    row = np.zeros(m)
    for j, aj in enumerate(alpha_row):
        for i in range(j + 1):
            row[j - i - lo] += aj * (-1) ** i * comb(j, i)
    return row


def _right_row(beta: Sequence[float], b: int, lo: int, m: int) -> np.ndarray:
    row = np.zeros(m)
    for j, bj in enumerate(beta):
        for i in range(j + 1):
            row[b - i - lo] += bj * (-1) ** i * comb(j, i)
    return row


def assemble_ivp(op: FracOperator, h: GridFunction, ic: InitialConditions) -> DenseSystem:
    """Dense system for L x = h with nabla^i x(a+i) = A_i and ic.closure."""
    n = op.N
    b = op.b_offset
    lo = -(n - 1)
    m = b - lo + 1
    if len(ic.values) != n + 1:
        raise ValueError(f"need {n + 1} initial values, got {len(ic.values)}")
    rows, rhs = _closure_rows(ic.closure, n, lo, m)
    for i, a_i in enumerate(ic.values):
        row = np.zeros(m)
        for j in range(i + 1):
            row[i - j - lo] += (-1) ** j * comb(i, j)
        rows.append(row)
        rhs.append(a_i)
    eq_rows, eq_rhs = _equation_rows(op, h, lo, m)
    return DenseSystem(op.a, op.nu, n, b, np.array(rows + eq_rows), np.array(rhs + eq_rhs))


def assemble_bvp(op: FracOperator, h: GridFunction, spec: BoundarySpec,
                 closure: GhostClosure) -> DenseSystem:
    """Dense system for L x = h with the BoundarySpec functionals and a
    ghost closure (the structured BVP solver's numeric basis uses zero)."""
    n = op.N
    b = op.b_offset
    if spec.N != n:
        raise ValueError(f"spec has N={spec.N} but operator has N={n}")
    lo = -(n - 1)
    m = b - lo + 1
    rows, rhs = _closure_rows(closure, n, lo, m)
    for i in range(n):
        rows.append(_left_row(spec.alpha[i], lo, m))
        rhs.append(spec.left_values[i])
    rows.append(_right_row(spec.beta, b, lo, m))
    rhs.append(spec.right_value)
    eq_rows, eq_rhs = _equation_rows(op, h, lo, m)
    return DenseSystem(op.a, op.nu, n, b, np.array(rows + eq_rows), np.array(rhs + eq_rhs))


def dense_solve(sys: DenseSystem) -> GridFunction:
    """Solve the assembled system by partial-pivot elimination.

    Raises :class:`SingularSystemError` on a vanishing pivot; the
    condition number is computed and logged only at debug level.
    """
    x = gauss_solve(sys.matrix, sys.rhs)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("dense system condition number: %.3e", np.linalg.cond(sys.matrix))
    return GridFunction(Grid(sys.a, sys.lo, sys.b_offset), tuple(x))


def residual(op: FracOperator, x: GridFunction, h: GridFunction) -> float:
    """||apply(op, x) - h||_inf over the equation rows."""
    hs = [h.at(t) for t in range(op.N + 1, op.b_offset + 1)]
    return float(np.max(np.abs(np.subtract(apply(op, x).values, hs))))


def probe_equation_rows(op: FracOperator) -> np.ndarray:
    """Equation-row matrix obtained by applying the operator to unit vectors.

    A third, independent implementation used to cross-check the symbolic
    expansion in :func:`assemble_ivp` / :func:`assemble_bvp`.
    """
    return np.array([apply_array(op, e) for e in np.eye(op.b_offset + op.N)]).T
