import numpy as np
import pytest

from nablafrac import SingularSystemError
from nablafrac.linalg import gauss_solve


def loop_gauss_solve(matrix, rhs, singular_tol=1e-13):
    """Row-by-row partial-pivot elimination: the reference for gauss_solve."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
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
            for i in range(k + 1, n):
                lam = a[i, k] / a[k, k]
                if lam != 0.0:
                    a[i, k:] -= lam * a[k, k:]
                    b[i] -= lam * b[k]
    if np.min(np.abs(pivots)) < singular_tol * max(norm, 1.0):
        raise SingularSystemError("pivot below tolerance")
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def _outcome(solve, a, r):
    try:
        return solve(a, r).tobytes()
    except SingularSystemError:
        return "singular"


def _systems(rng, count):
    """Dense, sparse (exact-zero multipliers), lower-triangular and singular systems."""
    for trial in range(count):
        n = int(rng.integers(1, 20))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        kind = trial % 4
        if kind == 1:
            a[rng.random((n, n)) < 0.5] = 0.0
        elif kind == 2:
            a = np.tril(a) + np.diag(rng.uniform(1e-3, 1e-2, n))
        elif kind == 3 and n > 2:
            a[-1] = 2.0 * a[0] - a[1]
        yield a, rng.standard_normal(n)


def test_bit_identical_to_row_loop():
    rng = np.random.default_rng(11)
    outcomes = []
    for a, r in _systems(rng, 400):
        want = _outcome(loop_gauss_solve, a, r)
        assert _outcome(gauss_solve, a, r) == want
        outcomes.append(want)
    singular = outcomes.count("singular")
    assert 20 < singular < 380, singular  # both refusals and answers are compared


def test_row_swaps_and_zero_multipliers_are_exercised():
    # the first pivot needs a swap, and rows 2 and 3 have a zero multiplier in column 0
    a = np.array([[1e-3, 2.0, 0.0, 1.0],
                  [4.0, 1.0, 3.0, 0.0],
                  [0.0, 5.0, 1.0, 2.0],
                  [0.0, 0.0, 2.0, 7.0]])
    r = np.array([1.0, -2.0, 0.5, 3.0])
    x = gauss_solve(a, r)
    assert x.tobytes() == loop_gauss_solve(a, r).tobytes()
    np.testing.assert_allclose(a @ x, r, rtol=0, atol=1e-14)


def test_singular_matrix_raises_like_row_loop():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    for solve in (loop_gauss_solve, gauss_solve):
        with pytest.raises(SingularSystemError):
            solve(a, np.ones(3))
