import numpy as np
import pytest

from nablafrac import NearSingularError
from nablafrac.linalg import gauss_solve


@pytest.mark.parametrize("n", [1, 5, 19])
def test_matches_lapack_solve(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x, want = gauss_solve(a, rhs), np.linalg.solve(a, rhs)
        assert x.shape == want.shape
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 5, 19])
def test_no_rhs_returns_the_inverse_lapack_forms(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    assert gauss_solve(a).tobytes() == np.linalg.solve(a, np.eye(n)).tobytes()


@pytest.mark.parametrize("matrix", [
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]),  # rank 2, exactly
    np.array([[1.0, 0.0], [0.0, 0.0]]),  # a zero row
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-17]]),  # rank 1 once rounded
    np.array([[1.0, 0.0], [0.0, np.nan]]),
])
def test_singular_and_rank_deficient_matrices_refused_naming_cond(matrix):
    with pytest.raises(NearSingularError, match="condition number"):
        gauss_solve(matrix, np.ones(len(matrix)))
    with pytest.raises(NearSingularError, match="condition number"):
        gauss_solve(matrix)


@pytest.mark.parametrize("matrix, rhs, match", [
    (np.ones((2, 3)), np.ones(2), "square"),
    (np.ones(3), np.ones(3), "square"),
    (np.eye(3), np.ones(2), "rhs length"),
])
def test_non_square_matrix_or_short_rhs_rejected(matrix, rhs, match):
    with pytest.raises(ValueError, match=match):
        gauss_solve(matrix, rhs)
