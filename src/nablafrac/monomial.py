"""Nabla Taylor monomials ``H_nu(a+m, a)``.

They are evaluated by product recurrences rather than raw gamma ratios:
the product form stays finite for large arguments and keeps the sign
right when the order plus an index passes through negative values.  The
gamma-ratio form survives only as a test oracle.

Conventions, for integer argument ``m`` (= t - a):

* non-integer order, ``m <= 0``            -> 0
* integer order k >= 0                     -> polynomial product, all ``m``
* integer order k < 0                      -> 0
* ``H_0 == 1`` identically
"""

from __future__ import annotations

import math

import numpy as np


def taylor_monomial(m: int, nu: float) -> float:
    """Nabla Taylor monomial ``H_nu(a+m, a)`` as a function of the offset ``m``.

    Computed as ``prod((nu+j)/j for j in 1..m-1)`` for non-integer ``nu``
    and ``m >= 1``, which equals ``Gamma(m+nu)/(Gamma(m) Gamma(nu+1))``
    but never overflows at desk scale.  At a whole order k >= 1 it is
    m (m+1) ... (m+k-1) / k!: C(m+k-1, k) for m >= 1, 0 where the product
    passes through 0, and (-1)^k C(-m, k) below that, one exact integer
    rounded once.  C(n, r) >= (n/r)^r, so a value past the float range is
    +-inf before an integer that large is built.
    """
    if float(nu).is_integer():
        k = int(nu)
        if k <= 0:
            return float(k == 0)
        if m <= 0 <= m + k - 1:
            return -0.0 if m % 2 else 0.0  # (-1)^m 0, as m (m+1) ... gives in float arithmetic
        n, sign = (m + k - 1, 1.0) if m > 0 else (-m, (-1.0) ** (k % 2))
        r = min(k, n - k)  # C(n, k) = C(n, n-k)
        if r and r * (math.log2(n) - math.log2(r)) > 1025:
            return sign * math.inf
        try:
            return sign * float(math.comb(n, r))
        except OverflowError:  # just past the largest float
            return sign * math.inf
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
    if m < 0:
        raise ValueError(f"kernel weights need m >= 0, got m = {m}")
    j = np.arange(1.0, m)
    out = np.empty(m + 1)
    out[0] = 1.0 if nu == 0.0 else 0.0
    out[1:] = np.cumprod(np.concatenate(([1.0], (nu + j) / j)))[:m]
    return out
