"""The fractional operator L x = nabla[p * caputo_nu x] + q * shift(x).

``FracOperator`` carries the base point a, the order nu (strictly
between N-1 and N), the finite coefficient functions p > 0 on [a+N, b]
and q on [a+N+1, b].  ``apply`` evaluates the operator as a residual on
[a+N+1, b]; the argument must carry the N-1 ghost points below a that
the Caputo sum consumes (see :class:`GhostClosure`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fraccalc import frac_sum
from .grid import _POINT_TOL, Grid, GridFunction, constant_grid_function


@dataclass(frozen=True)
class GhostClosure:
    """How to fill the N-1 grid points below the base.

    ``explicit`` supplies values for x(a-1), ..., x(a-N+1) in that order;
    ``zero`` pins them to 0.
    """

    mode: str
    values: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.mode not in ("zero", "explicit"):
            raise ValueError(f"unknown closure mode {self.mode!r}")
        if self.mode != "explicit" and self.values:
            raise ValueError(f"{self.mode} closure takes no values")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def zero(cls) -> "GhostClosure":
        return cls("zero")

    @classmethod
    def explicit(cls, *values: float) -> "GhostClosure":
        return cls("explicit", values)

    def ghost_values(self, n_ghosts: int) -> tuple[float, ...]:
        """Values for x(a-1), ..., x(a-n_ghosts)."""
        if self.mode == "zero":
            return (0.0,) * n_ghosts
        if len(self.values) != n_ghosts:
            raise ValueError(
                f"explicit closure has {len(self.values)} values, need {n_ghosts}"
            )
        return self.values


@dataclass(frozen=True)
class FracOperator:
    """The tuple (a, nu, p, q) defining L, with b read off p's grid."""

    a: float
    nu: float
    p: GridFunction
    q: GridFunction

    def __post_init__(self):
        n = math.ceil(self.nu)
        if float(self.nu).is_integer() or not n - 1 < self.nu < n:
            raise ValueError(f"nu must lie strictly between N-1 and N, got {self.nu}")
        if (abs(self.p.grid.base - self.a) > _POINT_TOL
                or abs(self.q.grid.base - self.a) > _POINT_TOL):
            raise ValueError("p and q must be tabulated on grids based at a")
        b = self.p.grid.hi
        if b < n + 1:
            raise ValueError(f"b - a = {b} must be at least N + 1 = {n + 1}")
        if self.p.grid.lo != n or self.q.grid.lo != n + 1 or self.q.grid.hi != b:
            raise ValueError(
                f"p must cover offsets [{n}, {b}] and q offsets [{n + 1}, {b}]"
            )
        if not np.all(np.isfinite(self.p.values) & (self.p.values > 0.0)):
            raise ValueError("p must be finite and strictly positive")
        if not np.all(np.isfinite(self.q.values)):
            raise ValueError("q must be finite")

    @property
    def N(self) -> int:
        return math.ceil(self.nu)

    @property
    def b_offset(self) -> int:
        return self.p.grid.hi

    @property
    def b(self) -> float:
        return self.a + self.b_offset

    @classmethod
    def constant(cls, a: float, nu: float, b_offset: int,
                 p: float = 1.0, q: float = 0.0) -> "FracOperator":
        """Operator with constant coefficients on [a, a + b_offset]."""
        n = math.ceil(nu)
        return cls(
            a, nu,
            constant_grid_function(Grid(a, n, b_offset), p),
            constant_grid_function(Grid(a, n + 1, b_offset), q),
        )

    def is_basic(self) -> bool:
        """True when p == 1 and q == 0, the case with an analytic basis."""
        return bool(np.all(self.p.values == 1.0) and np.all(self.q.values == 0.0))


def extend_with_closure(op: FracOperator, x: GridFunction,
                        closure: GhostClosure) -> GridFunction:
    """Prepend the N-1 ghost values of ``closure`` to x on [a, b]."""
    n = op.N
    if x.grid.lo != 0 or abs(x.grid.base - op.a) > _POINT_TOL:
        raise ValueError("x must be tabulated on [a, ...] based at a")
    ghosts = closure.ghost_values(n - 1)[::-1]
    return GridFunction(Grid(op.a, -(n - 1), x.grid.hi), np.concatenate((ghosts, x.values)))


def apply_array(op: FracOperator, x: np.ndarray) -> np.ndarray:
    """(L x)(t) for t in [a+N+1, b] from the values of x on [a-N+1, b].

    x is (b+N,) or (b+N, k), one function per column, elementwise along axis 0.
    """
    n = op.N
    b = op.b_offset
    col = (slice(None),) + (None,) * (x.ndim - 1)  # p and q along axis 0
    cap = frac_sum(np.diff(x, n, axis=0), n - op.nu)  # on [1, b]
    flux = np.multiply(op.p.values[col], cap[n - 1:b])  # on [n, b]
    shifted = np.multiply(op.q.values[col], x[2 * n - 1:b + n - 1])  # x(t-1), t in [n+1, b]
    return np.diff(flux, axis=0) + shifted


def apply(op: FracOperator, x: GridFunction) -> GridFunction:
    """Evaluate (L x)(t) for t in [a+N+1, b].

    x must be defined on [a-N+1, b] (ghost points included); only those
    values are read, so the result does not depend on how far x's grid
    reaches past b.
    """
    n = op.N
    b = op.b_offset
    return GridFunction(Grid(op.a, n + 1, b), apply_array(op, x.values_on(op.a, -(n - 1), b)))


def leading_coefficient(op: FracOperator, t: float) -> float:
    """Coefficient of x(t) in (L x)(t): just p(t), the recursion pivot."""
    k = round(t - op.a)
    if not op.N + 1 <= k <= op.b_offset:
        raise ValueError(f"t offset {k} outside [{op.N + 1}, {op.b_offset}]")
    return op.p.at(k)
