"""Generalized rising function and nabla Taylor monomials.

Both are evaluated by product recurrences rather than raw gamma ratios:
the product form stays finite for large arguments and keeps the sign
right when the order plus an index passes through negative values.  The
gamma-ratio form survives only as a test oracle.

Conventions, for integer argument ``m`` (= t - a):

* non-integer order, ``m <= 0``            -> 0
* integer order k >= 0                     -> polynomial product, all ``m``
* integer order k < 0, ``m <= 0``          -> 0
* ``H_0 == 1`` identically
"""

from __future__ import annotations

import math

import numpy as np


def _is_integer(nu: float) -> bool:
    return float(nu).is_integer()


def rising(m: int, nu: float) -> float:
    """Rising function ``m`` raised to ``nu``: Gamma(m+nu)/Gamma(m).

    For integer orders the polynomial product ``m (m+1) ... (m+nu-1)`` is
    used, which extends the definition to all integer ``m``.
    """
    if _is_integer(nu):
        k = int(round(nu))
        if k >= 0:
            out = 1.0
            for j in range(k):
                out *= m + j
            return out
        if m <= 0:
            return 0.0
        # Gamma(m+nu)/Gamma(m) = 1 / ((m-1)(m-2)...(m+nu)) for m >= 1
        denom = 1.0
        for j in range(-k):
            denom *= m - 1 - j
        if denom == 0.0:
            raise ValueError(f"rising({m}, {nu}) has a gamma pole")
        return 1.0 / denom
    if m <= 0:
        return 0.0
    out = math.gamma(nu + 1.0)
    for j in range(1, m):
        out *= (nu + j) / j
    return out


def taylor_monomial(m: int, nu: float) -> float:
    """Nabla Taylor monomial ``H_nu(a+m, a)`` as a function of the offset ``m``.

    Computed as ``prod((nu+j)/j for j in 1..m-1)`` for non-integer ``nu``
    and ``m >= 1``, which equals ``rising(m, nu)/Gamma(nu+1)`` but never
    overflows at desk scale.
    """
    if _is_integer(nu):
        k = int(round(nu))
        if k == 0:
            return 1.0
        if k < 0:
            return 0.0
        out = 1.0
        for j in range(k):
            out *= m + j
        return out / math.factorial(k)
    if m <= 0:
        return 0.0
    out = 1.0
    for j in range(1, m):
        out *= (nu + j) / j
    return out


def kernel_weights(m: int, nu: float) -> np.ndarray:
    """``H_nu(a+k, a)`` for ``k = 0..m`` as one array, for orders ``nu > -1``.

    They are the convolution weights of the order ``nu+1`` fractional sum;
    the Caputo kernel is ``kernel_weights(m, N-nu-1)``.  One cumulative
    product of ``(nu+j)/j``, taken in the order :func:`taylor_monomial`
    multiplies, so non-integer orders agree with it bit for bit and
    integer orders to rounding.
    """
    if not nu > -1.0:
        raise ValueError(f"kernel weights need an order above -1, got {nu}")
    j = np.arange(1.0, m)
    out = np.empty(m + 1)
    out[0] = 1.0 if nu == 0.0 else 0.0
    out[1:] = np.cumprod(np.concatenate(([1.0], (nu + j) / j)))[:m]
    return out
