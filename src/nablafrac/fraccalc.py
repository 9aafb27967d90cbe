"""Whole-order nabla differences and fractional integrals/differences.

Every operator maps a :class:`GridFunction` to a :class:`GridFunction`
tabulated on exactly the offsets where its defining formula makes sense;
there is no silent zero-padding.  Every fractional sum, and through it
every Riemann-Liouville and Caputo difference, is one ``np.convolve`` (one
Toeplitz product for many columns) with the weights of ``kernel_weights``.
:func:`order_n` is the one place that checks an order ``nu`` (finite
and above 0) and maps it to ``N = ceil(nu)``, and
:func:`fractional_order_n` also refuses a whole ``nu``; base points go
through :func:`~nablafrac.grid.point_offset`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OffGridError
from .grid import Grid, GridFunction, point_offset
from .monomial import kernel_weights


def order_n(nu: float) -> int:
    """``N = ceil(nu)`` for an order ``nu``, which must be finite and above 0."""
    try:
        nu = float(nu)
    except OverflowError:  # an int too large for a float
        nu = math.inf
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"order nu must be finite and positive, got {nu}")
    return math.ceil(nu)


def fractional_order_n(nu: float) -> int:
    """:func:`order_n` for an order strictly between N-1 and N."""
    n = order_n(nu)
    if float(nu).is_integer():
        raise ValueError(f"order nu must not be a whole number, got {nu}")
    return n


def nabla_n(f: GridFunction, n: int) -> GridFunction:
    """n-fold backward difference, defined on [lo+n, hi]; n = 0 returns f unchanged."""
    if n < 0:
        raise ValueError("difference order must be >= 0")
    if len(f.grid) < n + 1:
        raise ValueError(f"grid of {len(f.grid)} points too short for nabla^{n}")
    g = f.grid
    return f if n == 0 else GridFunction(Grid(g.base, g.lo + n, g.hi), np.diff(f.values, n))


def frac_sum(f: np.ndarray, nu: float) -> np.ndarray:
    """Order-``nu`` sum of f = f(base+1..base+m), at base+1..base+m (see frac_integral).

    A 1-D f is one ``np.convolve`` with the kernel; a 2-D f, one function per
    column, is one product with the kernel's lower-triangular Toeplitz matrix.
    """
    m = len(f)
    w = kernel_weights(m, nu - 1.0)[1:]
    if f.ndim == 1:
        return np.convolve(w, f)[:m]
    padded = np.concatenate((np.zeros(m - 1), w))  # Toeplitz row i is padded[i:i + m] reversed
    return np.lib.stride_tricks.sliding_window_view(padded, m)[:, ::-1] @ f


def frac_integral(f: GridFunction, base: float, nu: float) -> GridFunction:
    """Fractional integral of order ``nu > 0`` based at ``base``.

    Result is tabulated on [base, hi] with value 0 at the base point;
    at base+m it is sum_{s=1..m} H_{nu-1}(m-s+1) * f(base+s).  f must be
    defined on (base, hi].
    """
    order_n(nu)
    b = point_offset(base, f.grid.base)  # the base may sit one step below f's grid
    if not f.grid.lo - 1 <= b <= f.grid.hi:
        raise OffGridError(f"base offset {b} outside [{f.grid.lo - 1}, {f.grid.hi}]")
    hi = f.grid.hi
    vals = np.zeros(hi - b + 1)
    if hi > b:  # np.convolve rejects the empty sum at a base on f's last point
        vals[1:] = frac_sum(f.values_on(Grid(f.grid.base, b + 1, hi)), nu)
    return GridFunction(Grid(f.grid.base, b, hi), vals)


def rl_difference(f: GridFunction, base: float, nu: float, extend: bool = False) -> GridFunction:
    """Riemann-Liouville difference: nabla^N of the (N-nu)-integral, N = ceil(nu).

    The result lives on [base+N, hi]: the whole-order difference consumes
    the N leading points of the fractional integral.  With ``extend=True``
    the inner integral is continued by zero below the base (the definite
    nabla integral is 0 whenever its upper limit is <= its lower limit),
    which extends the result down to [base, hi] with value 0 at the base.
    """
    n = fractional_order_n(nu)
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
    n = fractional_order_n(nu)
    b = point_offset(base, f.grid.base)
    if f.grid.lo > b - n + 1:
        raise ValueError(
            f"f must be defined down to base-N+1 (offset {b - n + 1}), "
            f"but starts at {f.grid.lo}"
        )
    d = nabla_n(f, n)
    return frac_integral(d, base, n - nu)
