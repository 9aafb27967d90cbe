import math

import mpmath
import numpy as np
import pytest

from nablafrac import (
    FracOperator,
    GhostClosure,
    Grid,
    GridFunction,
    apply,
    caputo_difference,
    constant_grid_function,
    probe_equation_rows,
    taylor_monomial,
)
from nablafrac.operator import apply_array
from conftest import _mp_kernel, random_operator

EPS = np.finfo(float).eps


def monomial_function(base, lo, hi, nu):
    return GridFunction(
        Grid(base, lo, hi), tuple(taylor_monomial(m, nu) for m in range(lo, hi + 1))
    )


class TestFracOperator:
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_owns_the_unknowns_grid_and_the_equation_rows(self, rng, nu):
        op = random_operator(rng, 2.0, nu, 9)
        n = op.N
        assert op.grid == Grid(2.0, 1 - n, 9) and op.rows == Grid(2.0, n + 1, 9)
        x = GridFunction(op.grid, rng.uniform(-1, 1, len(op.grid)))
        assert apply(op, x).grid == op.rows

    def test_rejects_integer_order(self):
        with pytest.raises(ValueError):
            FracOperator.constant(0.0, 2.0, 8)

    def test_rejects_short_domain(self):
        with pytest.raises(ValueError):
            FracOperator.constant(0.0, 1.5, 2)  # needs b - a >= 3

    def test_rejects_nonpositive_p(self):
        p = GridFunction(Grid(0.0, 2, 6), (1.0, 1.0, 0.0, 1.0, 1.0))
        q = constant_grid_function(Grid(0.0, 3, 6), 0.0)
        with pytest.raises(ValueError):
            FracOperator(0.0, 1.5, p, q)

    def test_rejects_nan_p(self):
        # NaN <= 0 is False, so only a test that p > 0 holds everywhere refuses it
        p = GridFunction(Grid(0.0, 2, 6), (1.0, 1.0, float("nan"), 1.0, 1.0))
        q = constant_grid_function(Grid(0.0, 3, 6), 0.0)
        with pytest.raises(ValueError, match="positive"):
            FracOperator(0.0, 1.5, p, q)

    def test_rejects_infinite_p(self):
        # inf > 0 holds, but inf * 0 is NaN in the oracle's zero-padded rows
        p = GridFunction(Grid(0.0, 2, 6), (1.0, 1.0, float("inf"), 1.0, 1.0))
        q = constant_grid_function(Grid(0.0, 3, 6), 0.0)
        with pytest.raises(ValueError, match="finite"):
            FracOperator(0.0, 1.5, p, q)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_q(self, bad):
        p = constant_grid_function(Grid(0.0, 2, 6), 1.0)
        q = GridFunction(Grid(0.0, 3, 6), (0.0, bad, 0.0, 0.0))
        with pytest.raises(ValueError, match="q must be finite"):
            FracOperator(0.0, 1.5, p, q)

    def test_rejects_mismatched_coefficient_grids(self):
        p = constant_grid_function(Grid(0.0, 1, 6), 1.0)  # should start at 2
        q = constant_grid_function(Grid(0.0, 3, 6), 0.0)
        with pytest.raises(ValueError):
            FracOperator(0.0, 1.5, p, q)


class TestApply:
    def test_constant_is_homogeneous_solution(self):
        op = FracOperator.constant(0.0, 1.5, 10)
        x = constant_grid_function(Grid(0.0, -1, 10), 3.0)
        r = apply(op, x)
        assert max(abs(v) for v in r.values) < 1e-12

    def test_monomial_is_homogeneous_solution(self):
        op = FracOperator.constant(0.0, 1.5, 10)
        x = monomial_function(0.0, -1, 10, 1.5)  # ghost value H_nu(a-1, a) = 0
        r = apply(op, x)
        assert max(abs(v) for v in r.values) < 1e-10

    def test_zero_in_zero_out(self, rng):
        op = random_operator(rng, 0.0, 2.3, 9)
        x = constant_grid_function(Grid(0.0, -2, 9), 0.0)
        assert all(v == 0.0 for v in apply(op, x).values)

    def test_linear_in_x(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        grid = Grid(0.0, -1, 9)
        x = GridFunction(grid, tuple(rng.uniform(-1, 1, 11)))
        y = GridFunction(grid, tuple(rng.uniform(-1, 1, 11)))
        combo = GridFunction(grid, tuple(1.5 * u + 0.25 * v for u, v in zip(x.values, y.values)))
        rc, rx, ry = apply(op, combo), apply(op, x), apply(op, y)
        for k in rc.grid.offsets():
            assert rc.at(k) == pytest.approx(1.5 * rx.at(k) + 0.25 * ry.at(k), abs=1e-12)

    def test_missing_ghost_points_rejected(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        x = constant_grid_function(Grid(0.0, 0, 9), 1.0)
        with pytest.raises(ValueError):
            apply(op, x)

    def test_order_below_one_matches_direct_transcription(self, rng):
        # N = 1: no ghosts, and L x(t) = nabla[p * integral_{1-nu} nabla x](t) + q x(t-1)
        nu, b = 0.6, 9
        op = random_operator(rng, 0.0, nu, b)
        x = GridFunction(Grid(0.0, 0, b), tuple(rng.uniform(-1, 1, b + 1)))
        r = apply(op, x)

        def caputo(t):
            return sum(
                taylor_monomial(t - s + 1, -nu) * (x.at(s) - x.at(s - 1))
                for s in range(1, t + 1)
            )

        for t in range(2, b + 1):
            direct = (
                op.p.at(t) * caputo(t)
                - op.p.at(t - 1) * caputo(t - 1)
                + op.q.at(t) * x.at(t - 1)
            )
            assert r.at(t) == pytest.approx(direct, abs=1e-12)

    def test_fundamental_set_residuals(self):
        # {1, t - a, H_nu} with natural extensions, p = 1, q = 0, nu in (1, 2)
        for nu in (1.25, 1.5, 1.9):
            op = FracOperator.constant(0.0, nu, 20)
            for order in (0.0, 1.0, nu):
                x = monomial_function(0.0, -1, 20, order)
                r = apply(op, x)
                assert max(abs(v) for v in r.values) < 1e-10


    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_bit_identical_to_grid_function_composition(self, rng, nu):
        # reference: the Caputo difference as a GridFunction, then p*, nabla, + q x(t-1);
        # x is wider than [a-N+1, b] on both sides, and apply reads it only up to b
        op = random_operator(rng, 0.0, nu, 37)
        n, b = op.N, op.b_offset
        x = GridFunction(Grid(0.0, -n - 2, b + 3), tuple(rng.uniform(-1, 1, b + n + 6)))
        grid = Grid(0.0, x.grid.lo, b)
        cut = GridFunction(grid, x.values_on(grid))
        cap = caputo_difference(cut, op.a, op.nu).values
        flux = np.multiply(op.p.values, cap[n:b + 1])
        shifted = np.multiply(op.q.values, x.values[n - x.grid.lo:b - x.grid.lo])
        want = np.diff(flux) + shifted
        assert np.array(apply(op, x).values).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    @pytest.mark.parametrize("b", [5, 17, 40])
    def test_columns_bit_identical_to_one_dimensional_calls(self, nu, b):
        # one column per function: equal to one 1-D call per column within
        # 32 eps of the column's max, since a 2-D x is summed by a Toeplitz
        # product and a 1-D x by np.convolve (15 eps seen at nu = 3.3, b = 5)
        rng = np.random.default_rng(b)
        op = random_operator(rng, 0.0, nu, b)
        x = np.concatenate((rng.uniform(-1, 1, (b + op.N, 6)), np.eye(b + op.N)), axis=1)
        want = np.array([apply_array(op, np.ascontiguousarray(c)) for c in x.T]).T
        got = apply_array(op, x)
        assert got.shape == (b - op.N, x.shape[1])
        assert np.all(np.abs(got - want) <= 32 * EPS * np.max(np.abs(want), axis=0))

    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3, 1 + 1e-9, 2 - 1e-9])
    @pytest.mark.parametrize("b", [5, 17, 40])
    def test_columns_match_50_digit_sums(self, nu, b):
        # every column of the 2-D path against the same sums in 50 digits,
        # every input float taken exactly
        rng = np.random.default_rng(b)
        op = random_operator(rng, 0.0, nu, b)
        n = op.N
        x = np.concatenate((rng.uniform(-1, 1, (b + n, 3)), np.eye(b + n)), axis=1)
        got = apply_array(op, x)
        binom = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
        with mpmath.workdps(50):
            kernel = _mp_kernel(op)
            p = [None] * n + [mpmath.mpf(v) for v in op.p.values]  # p[t] = p(t)
            for j, col in enumerate(x.T):
                xs = [mpmath.mpf(v) for v in col]  # xs[k + n - 1] = x(k)
                d = [None] + [mpmath.fsum(c * xs[s - i + n - 1] for i, c in enumerate(binom))
                              for s in range(1, b + 1)]
                cap = [None] + [mpmath.fsum(kernel[t - s + 1] * d[s] for s in range(1, t + 1))
                                for t in range(1, b + 1)]
                want = np.array([float(p[t] * cap[t] - p[t - 1] * cap[t - 1]
                                       + mpmath.mpf(op.q.at(t)) * xs[t + n - 2])
                                 for t in range(n + 1, b + 1)])
                assert np.max(np.abs(got[:, j] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_same_bits_on_a_wider_grid(self, rng):
        # np.convolve's bits depend on its input length, so values above b must not reach it
        for trial in range(100):
            nu = float(rng.choice((0.6, 1.5, 2.5, 3.3)))
            n = math.ceil(nu)
            b = int(rng.integers(n + 2, 60))
            op = random_operator(rng, 0.0, nu, b)
            xv = rng.uniform(-1, 1, b + n + int(rng.integers(1, 20)))
            wide = GridFunction(Grid(0.0, -(n - 1), len(xv) - n), xv)
            cut = GridFunction(Grid(0.0, -(n - 1), b), xv[:b + n])
            assert apply(op, wide).values.tobytes() == apply(op, cut).values.tobytes()


class TestMatrix:
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_is_apply_array_on_the_identity_bit_for_bit(self, rng, nu):
        op = random_operator(rng, 0.0, nu, 17)
        assert op.matrix.shape == (len(op.rows), len(op.grid))
        assert op.matrix.tobytes() == apply_array(op, np.eye(len(op.grid))).tobytes()

    def test_built_once_read_only_and_the_oracles_probe(self, rng):
        op = random_operator(rng, 0.0, 1.5, 12)
        assert probe_equation_rows(op) is op.matrix
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0


class TestGhostClosure:
    def test_zero_closure_prepends_zeros(self):
        assert GhostClosure.zero().ghost_values(2) == (0.0, 0.0)

    def test_explicit_closure_order(self):
        # values run x(a-1), x(a-2), ...
        assert GhostClosure.explicit(7.0, 9.0).ghost_values(2) == (7.0, 9.0)

    def test_no_ghosts_for_order_below_one(self):
        assert GhostClosure.zero().ghost_values(0) == ()
        assert GhostClosure.explicit().ghost_values(0) == ()

    def test_wrong_explicit_count_rejected(self):
        with pytest.raises(ValueError, match="has 2 values, need 1"):
            GhostClosure.explicit(1.0, 2.0).ghost_values(1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # solve_ivp returned x(a-1) = inf at nu = 1.5, b = 8, without a word
        with pytest.raises(ValueError, match="ghost values must be finite"):
            GhostClosure.explicit(bad)
        with pytest.raises(ValueError, match="ghost values must be finite"):
            GhostClosure.explicit(0.0, bad)
