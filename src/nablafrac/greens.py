"""Green's functions: generic construction from a basis, the closed-form
(2,1) conjugate kernel, and the resulting zero-data BVP solver.

G(t,s) is assembled piecewise from u (below the diagonal band) and
v = u + Cauchy column (on and above it).  Cells outside the stated
piecewise regions carry the u-branch value and are flagged ``u*``;
comparisons quantify only over the stated region.  The t range is
extended down to a-N+1 so that operator residual checks are possible.
The generic builder shares the D solve of :mod:`nablafrac.bvp` and takes r(s)
from the last row of :func:`~nablafrac.bvp.boundary_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bvp import BoundarySpec, _span_solve, boundary_rows
from .errors import DegenerateDenominatorError, OffGridError
from .fraccalc import FracOrder
from .grid import Grid, GridFunction, point_offset
from .ivp import cauchy_function
from .monomial import kernel_weights
from .operator import FracOperator

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GreensFunction:
    """Piecewise kernel on t in [a-N+1, b] x s in [a+N+1, b].

    ``u``, ``v`` and ``G`` are (t, s)-indexed arrays; ``branch`` holds
    'u' / 'v' on the stated regions and 'u*' on flagged cells.
    """

    a: float
    nu: float
    N: int
    b_offset: int
    u: np.ndarray
    v: np.ndarray
    G: np.ndarray
    branch: np.ndarray

    @property
    def t_lo(self) -> int:
        return -(self.N - 1)

    @property
    def s_lo(self) -> int:
        return self.N + 1

    def value(self, t_offset: int, s_offset: int) -> float:
        return float(self.G[t_offset - self.t_lo, s_offset - self.s_lo])

    def branch_of(self, t_offset: int, s_offset: int) -> str:
        return str(self.branch[t_offset - self.t_lo, s_offset - self.s_lo])

    def column(self, s_offset: int) -> GridFunction:
        """G(., s) on the extended grid, for residual checks."""
        return GridFunction(Grid(self.a, self.t_lo, self.b_offset),
                            self.G[:, s_offset - self.s_lo])


def _grid_offsets(n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """t offsets [a-N+1, b] as a column and s offsets [a+N+1, b] as a row."""
    return np.arange(-(n - 1), b + 1)[:, None], np.arange(n + 1, b + 1)[None, :]


def _branch_table(n: int, b: int) -> np.ndarray:
    # stated regions: u on 0 <= t <= b-N, s >= t+1 and v on t >= N, s <= t+1
    t, s = _grid_offsets(n, b)
    in_v = (t >= n) & (s <= t + 1)
    in_u = (t >= 0) & (t <= b - n) & (s >= t + 1)
    return np.where(in_v, "v", np.where(in_u, "u", "u*"))


def _assemble(a, nu, n, b, u, v, branch) -> GreensFunction:
    # u-branch value everywhere except the stated v region
    g = np.where(branch == "v", v, u)
    return GreensFunction(a, nu, n, b, u, v, g, branch)


def build_greens(op: FracOperator, spec: BoundarySpec,
                 basis: Sequence[GridFunction]) -> GreensFunction:
    """Construct G for the homogeneous part of ``spec`` over ``basis``.

    For each s, u(., s) solves the homogeneous equation with zero left
    boundary conditions and right condition equal to minus the right
    boundary functional r(s) of the Cauchy column; v = u + Cauchy column.
    Only the last boundary value depends on s, so one solve of D c = e_N
    gives every column: u(., s) = -r(s) * sum_k c_k x_k.
    """
    n = op.N
    b = op.b_offset
    combo = _span_solve(op, spec, basis, np.eye(n + 1)[n])
    cf = cauchy_function(op)
    r = boundary_rows(spec, b)[n] @ cf.values
    u = -np.outer(combo, r)
    return _assemble(op.a, op.nu, n, b, u, u + cf.values, _branch_table(n, b))


def conjugate_greens_closed_form(a: float, b: float, nu: float) -> GreensFunction:
    """Closed-form Green's function for the (2,1) conjugate problem.

    For p == 1, q == 0 and 1 < nu < 2:
    u(t,s) = -H_nu(b, rho(s)) (t - a - H_nu(t,a)) / (b - a - H_nu(b,a)),
    v(t,s) = u(t,s) + H_nu(t, rho(s)).
    """
    if FracOrder.fractional(nu).N != 2:
        raise ValueError(f"conjugate closed form needs nu in (1, 2), got {nu}")
    try:
        b_off = point_offset(b, a)
    except OffGridError:
        raise OffGridError(f"b - a = {b - a} is not a whole number") from None
    if b_off < 3:
        raise ValueError(f"b - a must be at least 3, got {b_off}")
    n = 2
    w = kernel_weights(b_off, nu)  # H_nu(a+m, a) for m = 0..b-a

    def mono(m):  # H_nu(a+m, a) vanishes for m <= 0
        return w[np.maximum(m, 0)]

    denom = b_off - w[b_off]
    if abs(denom) < _DEGENERATE_TOL * abs(b_off):
        raise DegenerateDenominatorError(
            f"b - a - H_nu(b, a) = {denom:.3e} vanishes at tolerance"
        )
    t, s = _grid_offsets(n, b_off)
    u = -mono(b_off - s + 1) * ((t - mono(t)) / denom)
    return _assemble(a, nu, n, b_off, u, u + mono(t - s + 1), _branch_table(n, b_off))


def greens_solve(g: GreensFunction, h: GridFunction) -> GridFunction:
    """x(t) = sum_{s=a+N+1}^{b} G(t,s) h(s), the zero-data BVP solution."""
    return GridFunction(Grid(g.a, g.t_lo, g.b_offset),
                        g.G @ h.values_on(g.a, g.s_lo, g.b_offset))


def compare_greens(g1: GreensFunction, g2: GreensFunction) -> float:
    """Max absolute entry difference over the stated piecewise region."""
    if g1.G.shape != g2.G.shape or g1.N != g2.N or g1.b_offset != g2.b_offset:
        raise ValueError("Green's functions have different index sets")
    stated = g1.branch != "u*"
    if not np.array_equal(g1.branch, g2.branch):
        raise ValueError("branch tables disagree")
    return float(np.max(np.abs(g1.G[stated] - g2.G[stated])))
