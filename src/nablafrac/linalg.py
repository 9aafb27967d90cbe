"""Dense linear algebra: one LAPACK LU that refuses a singular system.

Its one caller is the bordered system of :mod:`nablafrac.bvp`, which
``solve_bvp`` and ``greens_matrix`` share.  ``numpy.linalg.solve`` runs
Gaussian elimination with partial pivoting; the refusal rule is the
dense oracle's, cond_1 * eps >= 1, though the oracle keeps its own copy
of it so that it stays independent of the solvers.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .errors import NearSingularError


def gauss_solve(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for one right-hand side or a block of them.

    One partial-pivot LU of ``[rhs | I]`` gives x and A^-1, so cond_1 =
    ||A||_1 ||A^-1||_1 needs no second one.  Raises
    :class:`NearSingularError`, naming cond_1, unless cond_1 * eps < 1
    (a zero pivot or a NaN fails it too).
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs length does not match matrix")
    n = len(a)
    try:
        sol = np.linalg.solve(a, np.column_stack((b, np.eye(n))))
        cond = float(np.linalg.norm(a, 1)) * float(np.linalg.norm(sol[:, -n:], 1))
    except np.linalg.LinAlgError:
        cond = inf
    if not cond * np.finfo(float).eps < 1.0:
        raise NearSingularError(
            f"system is singular to working precision: condition number {cond:.3e}"
        )
    return sol[:, :-n].reshape(b.shape)
