"""Whole-order nabla differences and fractional integrals/differences.

Every operator maps a :class:`GridFunction` to a :class:`GridFunction`
tabulated on exactly the offsets where its defining formula makes sense;
there is no silent zero-padding.  Every fractional sum, and through it
every Riemann-Liouville and Caputo difference, is one ``np.convolve``
with the kernel weights of :func:`~nablafrac.monomial.kernel_weights`.
:class:`FracOrder` is the one place that checks an order ``nu`` (finite
and above 0) and maps it to ``N = ceil(nu)``; base points go through
:func:`~nablafrac.grid.point_offset`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OffGridError
from .grid import Grid, GridFunction, point_offset
from .monomial import kernel_weights


@dataclass(frozen=True)
class FracOrder:
    """An order ``nu``, finite and above 0, together with ``N = ceil(nu)``."""

    nu: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"order nu must be finite and positive, got {self.nu}")
        if self.N != math.ceil(self.nu):
            raise ValueError(f"N={self.N} is not ceil({self.nu})")

    @classmethod
    def from_nu(cls, nu: float) -> "FracOrder":
        nu = float(nu)
        # ceil(inf) overflows; N = 0 lets __post_init__ reject the order instead
        return cls(nu, math.ceil(nu) if math.isfinite(nu) else 0)

    @classmethod
    def fractional(cls, nu: float) -> "FracOrder":
        """:meth:`from_nu` for an order strictly between N-1 and N."""
        order = cls.from_nu(nu)
        if order.is_whole:
            raise ValueError(f"order nu must not be a whole number, got {nu}")
        return order

    @property
    def is_whole(self) -> bool:
        return float(self.nu).is_integer()


def nabla(f: GridFunction) -> GridFunction:
    """Backward difference f(t) - f(t-1), defined on [lo+1, hi]."""
    g = f.grid
    if len(g) < 2:
        raise ValueError("nabla needs at least 2 points")
    return GridFunction(Grid(g.base, g.lo + 1, g.hi), np.diff(f.values))


def nabla_n(f: GridFunction, n: int) -> GridFunction:
    """n-fold backward difference; n = 0 returns f unchanged."""
    if n < 0:
        raise ValueError("difference order must be >= 0")
    if len(f.grid) < n + 1:
        raise ValueError(f"grid of {len(f.grid)} points too short for nabla^{n}")
    for _ in range(n):
        f = nabla(f)
    return f


def frac_sum(f: np.ndarray, nu: float) -> np.ndarray:
    """Order-``nu`` sum of f = f(base+1..base+m), at base+1..base+m (see frac_integral).

    A 2-D f is one function per column: one kernel, one convolution per column.
    """
    m = len(f)
    w = kernel_weights(m, nu - 1.0)[1:]
    cols = f.reshape(m, -1).T
    return np.stack([np.convolve(w, c)[:m] for c in cols], axis=1).reshape(f.shape)


def frac_integral(f: GridFunction, base: float, nu: float) -> GridFunction:
    """Fractional integral of order ``nu > 0`` based at ``base``.

    Result is tabulated on [base, hi] with value 0 at the base point;
    at base+m it is sum_{s=1..m} H_{nu-1}(m-s+1) * f(base+s).  f must be
    defined on (base, hi].
    """
    FracOrder.from_nu(nu)
    b = point_offset(base, f.grid.base)  # the base may sit one step below f's grid
    if not f.grid.lo - 1 <= b <= f.grid.hi:
        raise OffGridError(f"base offset {b} outside [{f.grid.lo - 1}, {f.grid.hi}]")
    hi = f.grid.hi
    vals = np.zeros(hi - b + 1)
    if hi > b:  # np.convolve rejects the empty sum at a base on f's last point
        vals[1:] = frac_sum(f.values_on(f.grid.base, b + 1, hi), nu)
    return GridFunction(Grid(f.grid.base, b, hi), vals)


def rl_difference(f: GridFunction, base: float, nu: float, extend: bool = False) -> GridFunction:
    """Riemann-Liouville difference: nabla^N of the (N-nu)-integral, N = ceil(nu).

    The result lives on [base+N, hi]: the whole-order difference consumes
    the N leading points of the fractional integral.  With ``extend=True``
    the inner integral is continued by zero below the base (the definite
    nabla integral is 0 whenever its upper limit is <= its lower limit),
    which extends the result down to [base, hi] with value 0 at the base.
    """
    n = FracOrder.fractional(nu).N
    g = frac_integral(f, base, n - nu)
    if extend:
        g = GridFunction(Grid(g.grid.base, g.grid.lo - n, g.grid.hi),
                         np.concatenate((np.zeros(n), g.values)))
    return nabla_n(g, n)


def caputo_difference(f: GridFunction, base: float, nu: float) -> GridFunction:
    """Caputo difference: (N-nu)-integral of nabla^N f, for N-1 < nu < N.

    f must carry the N-1 ghost points below the base, i.e. be defined on
    [base-N+1, hi].  The result lives on [base, hi] and is 0 at the base.
    """
    n = FracOrder.fractional(nu).N
    b = point_offset(base, f.grid.base)
    if f.grid.lo > b - n + 1:
        raise ValueError(
            f"f must be defined down to base-N+1 (offset {b - n + 1}), "
            f"but starts at {f.grid.lo}"
        )
    d = nabla_n(f, n)
    return frac_integral(d, base, n - nu)
