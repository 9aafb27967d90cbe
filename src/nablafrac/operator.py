"""The fractional operator L x = nabla[p * caputo_nu x] + q * shift(x).

``FracOperator`` carries the base point a, the order nu (strictly
between N-1 and N), the finite coefficient functions p > 0 on [a+N, b]
and q on [a+N+1, b], and what construction finds once: ``N = ceil(nu)``,
``grid`` = [a-N+1, b], the unknowns, and ``rows`` = [a+N+1, b], the
equation rows, h, q and the s of the Cauchy and Green's kernels.
``apply`` evaluates the operator as a residual on ``rows``; the argument
must carry the N-1 ghost points below a that the Caputo sum consumes
(see :class:`GhostClosure`).  ``matrix`` is L on the identity, built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFiniteError
from .fraccalc import frac_sum, fractional_order_n, order_n
from .grid import Grid, GridFunction, constant_grid_function


@dataclass(frozen=True)
class GhostClosure:
    """How to fill the N-1 grid points below the base.

    ``values`` holds x(a-1), ..., x(a-N+1) in that order; ``None`` pins
    them to 0.
    """

    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            if not all(map(math.isfinite, self.values)):
                raise ValueError("ghost values must be finite")

    @classmethod
    def zero(cls) -> "GhostClosure":
        return cls()

    @classmethod
    def explicit(cls, *values: float) -> "GhostClosure":
        return cls(values)

    def ghost_values(self, n_ghosts: int) -> tuple[float, ...]:
        """Values for x(a-1), ..., x(a-n_ghosts)."""
        if self.values is None:
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
    N: int = field(init=False, repr=False, compare=False)
    grid: Grid = field(init=False, repr=False, compare=False)  # [a-N+1, b]: the unknowns
    rows: Grid = field(init=False, repr=False, compare=False)  # [a+N+1, b]: the equation rows

    def __post_init__(self):
        n = fractional_order_n(self.nu)
        object.__setattr__(self, "N", n)
        self.p.grid.require_base(self.a)
        self.q.grid.require_base(self.a)
        b = self.p.grid.hi
        if self.p.grid.lo != n or self.q.grid.lo != n + 1 or self.q.grid.hi != b:
            raise ValueError(
                f"p must cover offsets [{n}, {b}] and q offsets [{n + 1}, {b}]"
            )
        if not np.all(np.isfinite(self.p.values) & (self.p.values > 0.0)):
            raise ValueError("p must be finite and strictly positive")
        if not np.all(np.isfinite(self.q.values)):
            raise ValueError("q must be finite")
        object.__setattr__(self, "grid", Grid(self.a, 1 - n, b))
        object.__setattr__(self, "rows", Grid(self.a, n + 1, b))

    @property
    def b_offset(self) -> int:
        return self.p.grid.hi

    @property
    def b(self) -> float:
        return self.a + self.b_offset

    @staticmethod
    def coefficient_grids(a: float, nu: float, b_offset: int) -> tuple[Grid, Grid]:
        """The grids p and q must cover, [a+N, b] and [a+N+1, b]."""
        n = order_n(nu)
        return Grid(a, n, b_offset), Grid(a, n + 1, b_offset)

    @classmethod
    def constant(cls, a: float, nu: float, b_offset: int,
                 p: float = 1.0, q: float = 0.0) -> "FracOperator":
        """Operator with constant coefficients on [a, a + b_offset]."""
        p_grid, q_grid = cls.coefficient_grids(a, nu, b_offset)
        return cls(a, nu, constant_grid_function(p_grid, p), constant_grid_function(q_grid, q))

    @cached_property
    def matrix(self) -> np.ndarray:
        """L on the identity (:func:`apply_array`), ``rows`` x ``grid``, built once, read-only."""
        out = apply_array(self, np.eye(len(self.grid)))
        out.flags.writeable = False
        return out

    def is_basic(self) -> bool:
        """True when p == 1 and q == 0, the case with an analytic basis."""
        return bool(np.all(self.p.values == 1.0) and np.all(self.q.values == 0.0))


def apply_array(op: FracOperator, x: np.ndarray) -> np.ndarray:
    """(L x)(t) for t in ``op.rows`` from the values of x on ``op.grid``.

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
    """Evaluate (L x)(t) for t in ``op.rows``.

    x must be defined on ``op.grid`` (ghost points included); only those
    values are read, so the result does not depend on how far x's grid
    reaches past b.
    """
    return GridFunction(op.rows, apply_array(op, x.values_on(op.grid)))


def require_finite(grid: Grid, x: np.ndarray) -> np.ndarray:
    """x, with axis 0 on ``grid``, unless it holds an inf or a NaN: then
    :class:`NonFiniteError`, naming the first offset that does and max|x| before it."""
    finite = np.isfinite(x)
    if finite.all():
        return x
    i = int(np.argmin(finite.reshape(len(x), -1).all(axis=1)))
    k = grid.lo + i
    before = (f"max|x| before it is {np.max(np.abs(x[:i])):.3e}" if i
              else "no value is finite" if not finite.any() else "it is the answer's first offset")
    raise NonFiniteError(f"the answer holds an inf or a NaN from offset {k} "
                         f"(t = {grid.base + k:.17g}); {before}")
