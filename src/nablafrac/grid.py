"""Finite integer-offset grids and grid-indexed real functions.

A grid is anchored at a real base point ``a`` and consists of the points
``a + k`` for integer offsets ``k`` in ``[lo, hi]``.  All position
arithmetic is done on the integer offsets, so membership tests never
suffer floating-point drift.  :func:`point_offset` is the package's one
rule from a real point to an offset, base equality included: it accepts
a point within ``_POINT_TOL`` of a grid point and raises
:class:`OffGridError` for any other, a non-finite one too.  A grid's
points stay below 2**53 in magnitude, where ``a + k`` is exact.  Function
values are one read-only float64 array; :meth:`GridFunction.values_on`
is the one place that turns a base and an offset range into a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OffGridError

# slack when converting a real point to an integer offset
_POINT_TOL = 1e-9
# beyond this magnitude consecutive floats are more than 1 apart
_EXACT_LIMIT = 2 ** 53


def point_offset(t: float, base: float) -> int:
    """The whole number ``k`` with ``t == base + k`` to within ``_POINT_TOL``."""
    try:
        d = t - base
        on_grid = math.isfinite(d) and abs(d - round(d)) <= _POINT_TOL
    except OverflowError:  # an int too large for a float
        on_grid = False
    if not on_grid:
        raise OffGridError(f"{t} is not a unit-step point of a grid based at {base}")
    return round(d)


@dataclass(frozen=True)
class Grid:
    """Points ``base + k`` for ``k`` in ``[lo, hi]`` with unit step."""

    base: float
    lo: int
    hi: int

    def __post_init__(self):
        try:
            finite = math.isfinite(self.base)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"grid base must be finite, got {self.base}")
        if self.lo > self.hi:
            raise ValueError(f"empty grid: lo={self.lo} > hi={self.hi}")
        try:
            exact = -_EXACT_LIMIT < self.base + self.lo and self.base + self.hi < _EXACT_LIMIT
        except OverflowError:  # an offset too large for a float
            exact = False
        if not exact:
            raise ValueError(f"grid points a + k with a = {self.base} and k in "
                             f"[{self.lo}, {self.hi}] reach 2**53 in magnitude, "
                             "where a + k is not exact")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def offsets(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains_offset(self, k: int) -> bool:
        return self.lo <= k <= self.hi

    def require_base(self, base: float) -> None:
        """Raise :class:`OffGridError` unless this grid is based at the point ``base``."""
        if point_offset(base, self.base) != 0:
            raise OffGridError(f"grid is based at {self.base}, not {base}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real-valued function tabulated on a :class:`Grid`.

    ``values`` is a read-only float64 copy of the input.  Evaluation
    outside the grid raises :class:`OffGridError` rather than silently
    returning zero.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.grid),):
            raise ValueError(
                f"{values.size} values for a grid of {len(self.grid)} points"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def at(self, k: int) -> float:
        """Value at integer offset ``k`` from the base."""
        if not self.grid.contains_offset(k):
            raise OffGridError(f"offset {k} outside [{self.grid.lo}, {self.grid.hi}]")
        return float(self.values[k - self.grid.lo])

    def values_on(self, base: float, lo: int, hi: int) -> np.ndarray:
        """The read-only values at offsets ``[lo, hi]`` of a grid based at ``base``.

        Raises :class:`OffGridError` unless this function is tabulated on
        a grid based at ``base`` that covers them.
        """
        g = self.grid
        g.require_base(base)
        if lo < g.lo or hi > g.hi:
            raise OffGridError(f"offsets [{lo}, {hi}] not covered by [{g.lo}, {g.hi}]")
        return self.values[lo - g.lo:hi + 1 - g.lo]


def make_grid_function(grid: Grid, f: Callable[[float], float]) -> GridFunction:
    """Tabulate ``f`` at every point of ``grid``."""
    return GridFunction(grid, [f(grid.base + k) for k in grid.offsets()])


def constant_grid_function(grid: Grid, c: float) -> GridFunction:
    return GridFunction(grid, np.full(len(grid), float(c)))
