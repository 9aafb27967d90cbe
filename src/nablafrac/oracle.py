"""Brute-force verification: assemble the full dense linear system for an
IVP or BVP on the extended grid and solve it independently of the
structured solvers.

The equation rows are one block built symbolically by index: the kernel
H_{N-nu-1}(k), k = 0..b, one running product in ``taylor_monomial``'s
order, broadcast over the lags, times the binomial weights of nabla^N.
Neither ``kernel_weights`` nor a solver is used, so this is a genuine
oracle.  The system is solved by its own LAPACK LU (``numpy.linalg.solve``),
never through ``linalg.gauss_solve``.  ``probe_equation_rows`` is
``op.matrix``, the rows the solvers read, which these are checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from math import comb, inf

import numpy as np

from .bvp import BoundarySpec
from .errors import SingularSystemError
from .grid import Grid, GridFunction
from .ivp import InitialConditions
from .monomial import taylor_monomial
from .operator import FracOperator, GhostClosure, apply

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class DenseSystem:
    """An M x M system for the unknowns x(a-N+1), ..., x(b); M = b-a+N."""

    a: float
    N: int
    b_offset: int
    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def lo(self) -> int:
        return -(self.N - 1)


def _system(op: FracOperator, h: GridFunction, closure: GhostClosure,
            conditions: list) -> DenseSystem:
    """Rows x(a-i) = the closure's ghost i, a row
    sum_j coeffs[j] nabla^j x(a + points[j]) = value for each side
    condition (coeffs, points, value), then (L x)(t) = h(t) for t in
    [N+1, b] as one block.

    The ghost rows are side conditions too, with coeffs (1,) at point -i.
    Term s of the Caputo sum at tau puts (w H(tau-s+1)) (-1)^i C(N,i) on
    x(s-i).  Each (tau, i) is one slice update over s = 1..b for all rows,
    in the order tau = t, t-1 and i increasing; lags tau-s+1 <= 0 read
    exact zeros, and p is finite, so those terms are exact zeros too,
    which leave sums that start from +0.0 unchanged.
    """
    n = op.N
    b = op.b_offset
    lo = 1 - n
    conditions = [((1.0,), (-i,), g)
                  for i, g in enumerate(closure.ghost_values(n - 1), start=1)] + conditions
    side = np.zeros((len(conditions), b + n))
    for row, (coeffs, points, _) in zip(side, conditions):
        for j, (cj, tj) in enumerate(zip(coeffs, points)):
            for i in range(j + 1):
                row[tj - i - lo] += cj * (-1) ** i * comb(j, i)
    mu = n - op.nu - 1.0  # H(0) by taylor_monomial's rule, H(1..b) by its product, run once
    kernel = np.array([taylor_monomial(0, mu),
                       *accumulate(range(1, b), lambda x, j: x * ((mu + j) / j), initial=1.0)])
    padded = np.concatenate((np.zeros(b), kernel))  # padded[b + k] = H(k); 0 for k < 0
    t = np.arange(n + 1, b + 1)
    lag = b + t[:, None] - np.arange(1, b + 1)  # b + (t-1) - s + 1
    p = op.p.values  # on [n, b]
    eq = np.zeros((b - n, b + n))
    for w, k in ((p[1:], lag + 1), (-p[:-1], lag)):
        kern = w[:, None] * padded[k]
        for i in range(n + 1):
            eq[:, 1 - i - lo:b + 1 - i - lo] += kern * (-1) ** i * comb(n, i)
    eq[np.arange(b - n), t - 1 - lo] += op.q.values
    hv = h.values_on(Grid(op.a, n + 1, b))  # its own h slice, not op.rows
    return DenseSystem(op.a, n, b, np.vstack((side, eq)),
                       np.concatenate(([v for *_, v in conditions], hv)))


def assemble_ivp(op: FracOperator, h: GridFunction, ic: InitialConditions) -> DenseSystem:
    """Dense system for L x = h with nabla^i x(a+i) = A_i and ic.closure."""
    n = op.N
    if len(ic.values) != n + 1:
        raise ValueError(f"need {n + 1} initial values, got {len(ic.values)}")
    return _system(op, h, ic.closure,
                   [(e, range(n + 1), a_i) for e, a_i in zip(np.eye(n + 1), ic.values)])


def assemble_bvp(op: FracOperator, h: GridFunction, spec: BoundarySpec,
                 closure: GhostClosure) -> DenseSystem:
    """Dense system for L x = h with the BoundarySpec functionals and a
    ghost closure (the structured BVP solver's numeric basis uses zero)."""
    n = op.N
    if spec.N != n:
        raise ValueError(f"spec has N={spec.N} but operator has N={n}")
    return _system(op, h, closure,
                   [(row, range(n + 1), v) for row, v in zip(spec.alpha, spec.left_values)]
                   + [(spec.beta, [op.b_offset] * (n + 1), spec.right_value)])


@dataclass(frozen=True, eq=False)
class DenseSolution(GridFunction):
    """The oracle's x, with cond_1 of the system it solves."""

    cond: float


def dense_solve(sys: DenseSystem) -> DenseSolution:
    """Solve the assembled system by one partial-pivot LU of ``[rhs | I]``,
    which gives x and A^-1, so cond = ||A||_1 ||A^-1||_1 needs no second
    one; x carries it as ``cond``.

    Raises :class:`SingularSystemError`, naming cond, unless cond * eps < 1
    (LAPACK's "singular to working precision"; a zero pivot or a NaN
    fails it too).  cond is logged at debug level.
    """
    try:
        sol = np.linalg.solve(sys.matrix, np.column_stack((sys.rhs, np.eye(len(sys.rhs)))))
        cond = float(np.linalg.norm(sys.matrix, 1)) * float(np.linalg.norm(sol[:, 1:], 1))
    except np.linalg.LinAlgError:
        cond = inf
    log.debug("dense system condition number: %.3e", cond)
    if not cond * np.finfo(float).eps < 1.0:
        raise SingularSystemError(
            f"dense system is singular to working precision: condition number {cond:.3e}"
        )
    return DenseSolution(Grid(sys.a, sys.lo, sys.b_offset), sol[:, 0], cond)


def residual(op: FracOperator, x: GridFunction, h: GridFunction) -> float:
    """||apply(op, x) - h||_inf over the equation rows."""
    hs = h.values_on(Grid(op.a, op.N + 1, op.b_offset))
    return float(np.max(np.abs(apply(op, x).values - hs)))


def probe_equation_rows(op: FracOperator) -> np.ndarray:
    """``op.matrix``, the operator's own equation rows, which the solvers read and
    which the symbolic rows of :func:`assemble_ivp` / :func:`assemble_bvp` are checked against."""
    return op.matrix
