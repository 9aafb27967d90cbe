"""Small dense linear algebra: Gaussian elimination with partial pivoting.

Its one caller is the (N+1)x(N+1) D solve of the structured BVP and
Green's function solvers, where a plain elimination that refuses a
vanishing pivot is all that is warranted.  The dense oracle solves with
LAPACK instead.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError

# a pivot below this times ||matrix||_inf (at least 1) is refused
_SINGULAR_TOL = 1e-13


def gauss_solve(matrix, rhs) -> np.ndarray:
    """Solve a square dense system by partial-pivot elimination.

    Raises :class:`SingularSystemError` when a pivot falls below
    ``_SINGULAR_TOL * max(||matrix||_inf, 1)``.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs length does not match matrix")
    n = a.shape[0]
    norm = np.max(np.sum(np.abs(a), axis=1))
    pivots = np.empty(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        pivots[k] = a[k, k]
        if a[k, k] != 0.0:
            lam = a[k + 1:, k] / a[k, k]
            rows = np.flatnonzero(lam)  # a zero multiplier leaves its row untouched
            a[k + 1 + rows, k:] -= lam[rows, None] * a[k, k:]
            b[k + 1 + rows] -= lam[rows] * b[k]
    if np.min(np.abs(pivots)) < _SINGULAR_TOL * max(norm, 1.0):
        raise SingularSystemError(
            f"pivot {np.min(np.abs(pivots)):.3e} below tolerance for matrix norm {norm:.3e}"
        )
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x
