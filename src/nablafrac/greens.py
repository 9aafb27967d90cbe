"""Green's functions: generic construction from a basis, the closed-form
(2,1) conjugate kernel, and the resulting zero-data BVP solver.

G(t,s) is stated piecewise: u for s > t and v = u + x(t, s) for
s <= t + 1, with x the Cauchy function.  x(t, s) is 0 for t < s, so v
equals u on every cell where u is stated, and G is v on every cell.
``branch`` names the stated piece of each cell, from N and b alone, and
flags the cells outside both regions ``u*``; comparisons read the same
table as a boolean mask of the stated cells.  The t range reaches down
to a-N+1 for operator residual checks.  The generic builder takes G from
the bordered system of :mod:`nablafrac.bvp`, with the identity on its
equation rows (``greens_matrix``, O(b^3)), and u = G - x(t, s), whose
Cauchy function costs O(b^4); the closed form, the G that the CLI's
``greens`` prints when p == 1 and q == 0, needs neither solve nor x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bvp import BoundarySpec, _bordered_solve
from .errors import DegenerateDenominatorError, OffGridError
from .fraccalc import fractional_order_n
from .grid import Grid, GridFunction, point_offset
from .ivp import cauchy_function
from .monomial import kernel_weights
from .operator import FracOperator, require_finite

_DEGENERATE_TOL = 1e-12
_BRANCHES = np.array(["u*", "u", "v"])  # the branch labels, by _regions's index


@dataclass(frozen=True, eq=False)
class GreensFunction:
    """Piecewise kernel on t in ``grid``, [a-N+1, b], x s in ``rows``, [a+N+1, b].

    ``u`` and ``v`` are (t, s)-indexed arrays; ``branch`` holds 'u' / 'v'
    on the stated regions and 'u*' on flagged cells.  The accessors take
    offsets and raise :class:`OffGridError` outside those ranges.
    """

    grid: Grid
    rows: Grid
    u: np.ndarray
    v: np.ndarray

    @property
    def G(self) -> np.ndarray:
        """G itself: v, since the Cauchy column x(t, s) is 0 for t < s, where v = u."""
        return self.v

    @cached_property
    def branch(self) -> np.ndarray:
        return _BRANCHES[_regions(self.grid, self.rows)]

    def _cell(self, t_offset: int, s_offset: int) -> tuple[int, int]:
        """The array index of (t, s); :class:`OffGridError` outside the kernel's ranges."""
        g, r = self.grid, self.rows
        if not (g.contains_offset(t_offset) and r.contains_offset(s_offset)):
            raise OffGridError(f"(t, s) offsets ({t_offset}, {s_offset}) outside "
                               f"[{g.lo}, {g.hi}] x [{r.lo}, {r.hi}]")
        return t_offset - g.lo, s_offset - r.lo

    def value(self, t_offset: int, s_offset: int) -> float:
        return float(self.G[self._cell(t_offset, s_offset)])

    def branch_of(self, t_offset: int, s_offset: int) -> str:
        return str(self.branch[self._cell(t_offset, s_offset)])

    def column(self, s_offset: int) -> GridFunction:
        """G(., s) on the extended grid, for residual checks."""
        _, j = self._cell(self.grid.lo, s_offset)
        return GridFunction(self.grid, self.G[:, j])


def _grid_offsets(grid: Grid, rows: Grid) -> tuple[np.ndarray, np.ndarray]:
    """grid's offsets, the t's, as a column and rows' offsets, the s's, as a row."""
    return np.arange(grid.lo, grid.hi + 1)[:, None], np.arange(rows.lo, rows.hi + 1)[None, :]


def _regions(grid: Grid, rows: Grid) -> np.ndarray:
    """Each (t, s) cell's stated piece as an index into ``_BRANCHES``: 2 (v) on t >= N,
    s <= t+1, else 1 (u) on 0 <= t <= b-N, s >= t+1, else 0 (u*); nonzero is stated."""
    n, b = rows.lo - 1, rows.hi
    t, s = _grid_offsets(grid, rows)
    return np.where((t >= n) & (s <= t + 1), 2, (t >= 0) & (t <= b - n) & (s >= t + 1))


def greens_matrix(op: FracOperator, spec: BoundarySpec,
                  basis: Sequence[GridFunction] | None = None) -> np.ndarray:
    """G alone, (t, s)-indexed on ``op.grid`` x ``op.rows``, with no Cauchy function.

    Column s of G solves L x = e_s with zero boundary values within the
    span of ``basis`` (by default the numeric one, as in ``solve_bvp``), so
    one bordered solve with the identity on the equation rows gives every
    column, in O(b^3).  The basis's values below a decide G: for the (2,1)
    conjugate problem with p = 1, q = 0 and b = 40, G over the numeric
    zero-ghost basis is 33 %, 19 % and 2.9 % of max|G| from the closed
    form for nu = 1.2, 1.5 and 1.9, and G over the analytic basis is
    within 5e-14 of it.  Raises :class:`NearSingularError` as
    ``solve_bvp`` does.
    """
    s = len(op.rows)
    return _bordered_solve(op, spec, basis, np.eye(s), np.zeros((op.N + 1, s)))


def build_greens(op: FracOperator, spec: BoundarySpec,
                 basis: Sequence[GridFunction] | None = None) -> GreensFunction:
    """G of ``greens_matrix`` and u = G - x(t, s), whose Cauchy function x costs
    O(b^4): a caller that reads G alone, as ``greens`` does, calls ``greens_matrix``."""
    g = greens_matrix(op, spec, basis)
    return GreensFunction(op.grid, op.rows, g - cauchy_function(op).values, g)


def conjugate_greens_closed_form(a: float, b: float, nu: float) -> GreensFunction:
    """Closed-form Green's function for the (2,1) conjugate problem.

    For p == 1, q == 0 and 1 < nu < 2:
    u(t,s) = -H_nu(b, rho(s)) (t - a - H_nu(t,a)) / (b - a - H_nu(b,a)),
    v(t,s) = u(t,s) + H_nu(t, rho(s)).
    Both differences m - H_nu(a+m, a), m >= 1, are -m expm1(sum_{i=2}^{m}
    log1p((nu-1)/i)), as H_nu(a+m, a) / m is the product of 1 + (nu-1)/i:
    H_nu(a+m, a) -> m as nu -> 1+, and m minus a rounded H_nu cancels (G
    9.6e-7 of max|G| off at nu = 1 + 1e-9, b = 40).  G is within 3.1e-14
    of max|G| of the exact G for nu in [1 + 1e-12, 2 - 1e-9], b <= 160.
    """
    if fractional_order_n(nu) != 2:
        raise ValueError(f"conjugate closed form needs nu in (1, 2), got {nu}")
    try:
        b_off = point_offset(b, a)
    except OffGridError:
        raise OffGridError(f"b - a is not a whole number for a = {a}, b = {b}") from None
    if b_off < 3:
        raise ValueError(f"b - a must be at least 3, got {b_off}")
    n = 2
    grid, rows = Grid(a, 1 - n, b_off), Grid(a, n + 1, b_off)  # refuse an inexact a + t
    w = kernel_weights(b_off, nu)  # H_nu(a+m, a) for m = 0..b-a

    def mono(m):  # H_nu(a+m, a) vanishes for m <= 0
        return w[np.maximum(m, 0)]

    m = np.arange(1, b_off + 1)
    log_ratio = np.concatenate(([0.0], np.cumsum(np.log1p((nu - 1) / m[1:]))))  # H_nu(a+m, a) / m
    diff = np.concatenate((np.arange(1 - n, 1), -m * np.expm1(log_ratio)))  # t - H_nu(t, a)
    denom = diff[-1]
    if abs(denom) < _DEGENERATE_TOL * abs(b_off):
        raise DegenerateDenominatorError(f"b - a - H_nu(b, a) = {denom:.3e} vanishes at tolerance")
    t, s = _grid_offsets(grid, rows)
    u = -mono(b_off - s + 1) * (diff[t - grid.lo] / denom)
    return GreensFunction(grid, rows, u, u + mono(t - s + 1))


def greens_solve(g: GreensFunction, h: GridFunction) -> GridFunction:
    """x(t) = sum_{s=a+N+1}^{b} G(t,s) h(s), the zero-data BVP solution.

    Raises :class:`NonFiniteError` when x outgrows float64.
    """
    return GridFunction(g.grid, require_finite(g.grid, g.G @ h.values_on(g.rows)))


def compare_greens(g1: GreensFunction, g2: GreensFunction) -> float:
    """Max absolute entry difference over the stated piecewise region."""
    try:
        same_base = point_offset(g2.grid.base, g1.grid.base) == 0
    except OffGridError:
        same_base = False
    if not same_base or g1.G.shape != g2.G.shape or g1.grid.lo != g2.grid.lo:
        raise ValueError("Green's functions have different index sets")
    stated = _regions(g1.grid, g1.rows) > 0  # g2's too: the same ranges
    return float(np.max(np.abs(g1.G[stated] - g2.G[stated])))
