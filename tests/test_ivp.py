import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    FracOperator,
    GhostClosure,
    Grid,
    GridFunction,
    InitialConditions,
    NonFiniteError,
    OffGridError,
    apply,
    cauchy_function,
    constant_grid_function,
    frac_integral,
    homogeneous_basis,
    ic_to_values,
    kernel_weights,
    residual,
    solve_ivp,
    taylor_monomial,
    variation_of_constants,
    zero_forcing,
)
from nablafrac import ivp
from nablafrac.oracle import assemble_ivp
from conftest import max_gap, mp_solve_ivp, random_forcing, random_operator


def scaled_ivp_residual(op, h, ic, x):
    """||Ax - r|| / (||A|| ||x|| + ||r||) in the inf-norm, on the dense IVP system."""
    sys = assemble_ivp(op, h, ic)
    xv = np.asarray(x.values)
    num = np.max(np.abs(sys.matrix @ xv - sys.rhs))
    den = (np.max(np.sum(np.abs(sys.matrix), axis=1)) * np.max(np.abs(xv))
           + np.max(np.abs(sys.rhs)))
    return num / den


# orders next to an integer on either side, and anywhere in (0.05, 3.95)
near_integer_nus = st.builds(
    lambda k, sign, j: k + sign * 10.0 ** -j,
    st.sampled_from([1, 2, 3]), st.sampled_from([-1, 1]), st.integers(1, 10),
)
orders = st.one_of(near_integer_nus, st.floats(0.05, 3.95)).filter(
    lambda nu: not float(nu).is_integer()
)


class TestInitialConditions:
    def test_first_order_unfolding(self):
        assert ic_to_values(InitialConditions((2.0, 3.0))) == (2.0, 5.0)

    def test_zero_case(self):
        assert ic_to_values(InitialConditions((0.0, 0.0, 0.0))) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # solve_ivp returned NaNs at nu = 1.5, b = 8, without a word
        with pytest.raises(ValueError, match="initial values must be finite"):
            InitialConditions((bad, 0.0, 0.0))
        with pytest.raises(ValueError, match="initial values must be finite"):
            InitialConditions((0.0, 0.0, bad), GhostClosure.explicit(1.0))

    def test_against_triangular_solve(self):
        # nabla^i x(a+i) = A_i as an explicit 3x3 unit-triangular system
        a_vals = (1.0, 0.0, 0.0)
        m = np.array([
            [1.0, 0.0, 0.0],    # x(a) = A_0
            [-1.0, 1.0, 0.0],   # x(a+1) - x(a) = A_1
            [1.0, -2.0, 1.0],   # x(a+2) - 2x(a+1) + x(a) = A_2
        ])
        oracle = np.linalg.solve(m, np.array(a_vals))
        assert ic_to_values(InitialConditions(a_vals)) == pytest.approx(tuple(oracle))
        assert ic_to_values(InitialConditions(a_vals)) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_of_the_oracles_initial_rows(self, n):
        # assemble_ivp's ghost and initial rows, applied to [zero ghosts;
        # ic_to_values(A)], give back (0, ..., A); both halves are judged
        # componentwise, since at N = 6 a max|x| scale does not bound the
        # rounding of sums of C(i, j) A_j
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        op = FracOperator.constant(0.0, n - 0.5, n + 1)
        draws = [rng.uniform(-1, 1, n + 1) * 10.0 ** rng.uniform(-3, 3, n + 1)
                 for _ in range(60)]
        integers = [rng.integers(-1000, 1001, n + 1).astype(float) for _ in range(5)]
        for a in draws + integers:
            a = tuple(a.tolist())
            x = ic_to_values(InitialConditions(a))
            terms = [[math.comb(i, j) * Fraction(a[j]) for j in range(i + 1)] for i in range(n + 1)]
            for i, (xi, t) in enumerate(zip(x, terms)):
                # i products and i additions, each within eps/2 of the sum of |terms|
                assert abs(Fraction(xi) - sum(t)) <= (i + 1) * eps * sum(map(abs, t))
            rows = assemble_ivp(op, zero_forcing(op), InitialConditions(a)).matrix[:2 * n]
            xv = np.concatenate(((0.0,) * (n - 1), x, np.zeros(op.b_offset - n)))
            want = np.concatenate(((0.0,) * (n - 1), a))
            assert np.all(np.abs(rows @ xv - want) <= 4 * eps * (np.abs(rows) @ np.abs(xv)))
            if all(v.is_integer() for v in a):  # every product and partial sum is a small integer
                assert x == tuple(float(sum(t)) for t in terms)
                assert (rows @ xv).tolist() == want.tolist()


class TestSolveIvp:
    def test_trivial_solution(self):
        op = FracOperator.constant(0.0, 1.5, 8)
        x = solve_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        assert all(v == 0.0 for v in x.values)

    def test_satisfies_initial_conditions_exactly(self, rng):
        op = random_operator(rng, 0.0, 2.3, 12)
        ic = InitialConditions((0.5, -1.0, 2.0, 0.25))
        x = solve_ivp(op, random_forcing(rng, op), ic)
        expected = ic_to_values(ic)
        for i, v in enumerate(expected):
            assert x.at(i) == v

    def test_residual_on_random_instances(self, rng):
        for trial in range(10):
            op = random_operator(rng, 0.0, 2.3, 15)
            h = random_forcing(rng, op)
            ic = InitialConditions(tuple(rng.uniform(-1, 1, 4)))
            x = solve_ivp(op, h, ic)
            assert residual(op, x, h) < 1e-9

    def test_explicit_ghosts_respected(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        ic = InitialConditions((0.0, 0.0, 0.0), GhostClosure.explicit(0.75))
        x = solve_ivp(op, random_forcing(rng, op), ic)
        assert x.at(-1) == 0.75

    def test_deterministic(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        h = random_forcing(rng, op)
        ic = InitialConditions((1.0, 2.0, 3.0))
        assert solve_ivp(op, h, ic).values.tobytes() == solve_ivp(op, h, ic).values.tobytes()

    def test_linear_in_forcing(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        h1 = random_forcing(rng, op)
        h2 = random_forcing(rng, op)
        hsum = GridFunction(h1.grid, tuple(u + v for u, v in zip(h1.values, h2.values)))
        ic = InitialConditions.zeros(2)
        x1 = solve_ivp(op, h1, ic)
        x2 = solve_ivp(op, h2, ic)
        xs = solve_ivp(op, hsum, ic)
        assert max(
            abs(xs.at(k) - x1.at(k) - x2.at(k)) for k in xs.grid.offsets()
        ) < 1e-10


class TestSolveIvpAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(nu=orders, b=st.integers(5, 120), seed=st.integers(0, 2**32 - 1))
    def test_variable_coefficients_explicit_ghosts(self, nu, b, seed):
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 0.0, nu, b)
        n = op.N
        ic = InitialConditions(
            tuple(rng.uniform(-1, 1, n + 1)),
            GhostClosure.explicit(*rng.uniform(-1, 1, n - 1)),
        )
        h = random_forcing(rng, op)
        assert scaled_ivp_residual(op, h, ic, solve_ivp(op, h, ic)) <= 1e-12

    @pytest.mark.parametrize("variable", [False, True], ids=["basic", "variable"])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5])
    def test_long_horizon(self, rng, nu, variable):
        b = 320
        op = random_operator(rng, 0.0, nu, b) if variable else FracOperator.constant(0.0, nu, b)
        h = random_forcing(rng, op)
        ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)))
        assert scaled_ivp_residual(op, h, ic, solve_ivp(op, h, ic)) <= 1e-12


def _explicit_ghost_ivp(rng, nu, b, **ranges):
    op = random_operator(rng, 0.0, nu, b, **ranges)
    ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)),
                           GhostClosure.explicit(*rng.uniform(-1, 1, op.N - 1)))
    return op, random_forcing(rng, op), ic


def _gap_over_max(x, ref):
    return np.max(np.abs(x.values - ref)) / np.max(np.abs(ref))


class TestSolveIvpAgainstMpmath:
    """The forward substitution against a 60-digit solve of the same rows."""

    @pytest.mark.parametrize("solved_rows", [1, 31, 32, 33, 64, 65])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3, 1 + 1e-9])
    def test_block_edges(self, rng, nu, solved_rows):
        # b - N rows are solved; the sizes straddle the 32-row blocks
        op, h, ic = _explicit_ghost_ivp(rng, nu, math.ceil(nu) + solved_rows)
        assert _gap_over_max(solve_ivp(op, h, ic), mp_solve_ivp(op, h, ic)) <= 1e-10

    def test_long_growing_horizon(self, rng):
        # max|x| is about 1e87 here, so the rows must be solved in order:
        # a pivoting solve of each block leaves a small residual but a
        # wrong answer
        op, h, ic = _explicit_ghost_ivp(rng, 3.3, 320)
        ref = mp_solve_ivp(op, h, ic)
        assert np.max(np.abs(ref)) > 1e80
        assert _gap_over_max(solve_ivp(op, h, ic), ref) <= 1e-12


class TestSolveIvpQZero:
    """q == 0: a running sum of h and one (1-z)^-nu convolution, no row loop."""

    @pytest.mark.parametrize("solved_rows", [1, 31, 32, 33, 64, None],
                             ids=["1", "31", "32", "33", "64", "b=320"])
    @pytest.mark.parametrize("p_range", [(1.0, 1.0), (0.5, 2.0)], ids=["p=1", "variable-p"])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3, 1 + 1e-9, 2 - 1e-9])
    def test_against_60_digits(self, rng, nu, p_range, solved_rows):
        # at b = 320 the row loop was 2.3e-10 of max|x| away for nu = 3.3
        b = 320 if solved_rows is None else math.ceil(nu) + solved_rows
        op, h, ic = _explicit_ghost_ivp(rng, nu, b, p_range=p_range, q_range=(0.0, 0.0))
        assert not op.q.values.any()
        assert _gap_over_max(solve_ivp(op, h, ic), mp_solve_ivp(op, h, ic)) <= 1e-12


class TestSolveIvpIndexing:
    def test_forcing_on_a_wider_grid(self, rng):
        # h's padding below N+1 and above b must never be read
        for nu in (0.6, 1.5, 2.5):
            op = random_operator(rng, 0.0, nu, 20)
            n = op.N
            h = random_forcing(rng, op)
            wide = GridFunction(
                Grid(0.0, -5, 27), (1e300, -7.0, 3e8, 1.0, 42.0) + (np.nan,) * (n + 1)
                + tuple(h.values) + (np.inf,) * 7,
            )
            ic = InitialConditions(tuple(rng.uniform(-1, 1, n + 1)))
            assert (solve_ivp(op, wide, ic).values.tobytes()
                    == solve_ivp(op, h, ic).values.tobytes())

    def test_wrong_initial_value_count(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        for count in (2, 4):
            with pytest.raises(ValueError):
                solve_ivp(op, random_forcing(rng, op), InitialConditions((0.0,) * count))

    def test_no_scalar_monomial_per_term(self, rng, monkeypatch):
        # the recursion reads one kernel-weight vector, never the scalar monomial
        def refuse(m, nu):
            raise AssertionError("taylor_monomial called by solve_ivp")

        monkeypatch.setattr("nablafrac.ivp.taylor_monomial", refuse)
        for nu in (0.6, 1.5, 2.5):
            op = random_operator(rng, 0.0, nu, 30)
            x = solve_ivp(op, random_forcing(rng, op), InitialConditions.zeros(op.N))
            assert len(x.values) == 30 + op.N


class TestCauchyFunction:
    def test_basic_operator_matches_shifted_monomial(self):
        # p = 1, q = 0: x(t, s) = H_nu(t, rho(s))
        for nu in (0.5, 1.5, 2.4):
            op = FracOperator.constant(0.0, nu, 12)
            cf = cauchy_function(op)
            for s in cf.rows.offsets():
                col = cf.column(s)
                for t in col.grid.offsets():
                    assert col.at(t) == pytest.approx(
                        taylor_monomial(t - (s - 1), nu), abs=1e-10
                    )
        # and the whole array at b = 60, up to N = 4: H_nu(t, rho(s)) is
        # kernel_weights(b, nu)[t-s+1], zero for t < s
        b = 60
        for nu in (0.6, 1.5, 2.5, 3.3):
            op = FracOperator.constant(0.0, nu, b)
            lag = np.arange(1 - op.N, b + 1)[:, None] - np.arange(op.N + 1, b + 1) + 1
            expected = np.where(lag >= 1, kernel_weights(b, nu)[np.maximum(lag, 0)], 0.0)
            gap = np.max(np.abs(cauchy_function(op).values - expected))
            assert gap <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_constant_coefficients_shift_the_first_column(self, nu):
        # p and q constant: column s is column N+1 moved up by s-N-1, bit for bit;
        # b = 48 reaches past the first 32-row block of solve_ivp's recursion
        for b in (24, 48):
            op = FracOperator.constant(0.0, nu, b, p=1.7, q=-0.4)
            cf = cauchy_function(op)
            first = cf.column(op.N + 1).values
            for s in cf.rows.offsets():
                col = cf.column(s).values
                assert col.tobytes() == first[:len(col)].tobytes()

    def test_general_p_matches_fractional_integral(self, rng):
        # q = 0: x(t, s) = (integral of 1/p of order nu, based at rho(s))(t)
        op = random_operator(rng, 0.0, 1.5, 12, q_range=(0.0, 0.0))
        cf = cauchy_function(op)
        for s in cf.rows.offsets():
            inv_p = GridFunction(
                Grid(0.0, s, 12), tuple(1.0 / op.p.at(k) for k in range(s, 13))
            )
            ref = frac_integral(inv_p, float(s - 1), 1.5)
            col = cf.column(s)
            for t in col.grid.offsets():
                expected = ref.at(t) if t >= s - 1 else 0.0
                assert col.at(t) == pytest.approx(expected, abs=1e-10)

    def test_impulse_conditions(self, rng):
        op = random_operator(rng, 0.0, 2.4, 13)
        cf = cauchy_function(op)
        for s in cf.rows.offsets():
            col = cf.column(s)
            # zero values at and below rho(s)
            for t in range(s - 3, s):
                assert col.at(t) == 0.0
            # nabla^N x(s, s) = 1/p(s)
            d3 = sum(
                (-1) ** i * math.comb(3, i) * col.at(s - i) for i in range(4)
            )
            assert d3 == pytest.approx(1.0 / op.p.at(s), rel=1e-12)

    def test_columns_solve_homogeneous_rows(self, rng):
        # L_{rho(s)} x(., s) = 0 for t in [s+N, b]
        op = random_operator(rng, 0.0, 1.5, 12)
        cf = cauchy_function(op)
        for s in cf.rows.offsets():
            col = cf.column(s)
            for t in range(s + 2, 13):
                cap = lambda tau: sum(
                    taylor_monomial(tau - sig + 1, 2 - op.nu - 1)
                    * (col.at(sig) - 2 * col.at(sig - 1) + col.at(sig - 2))
                    for sig in range(s, tau + 1)
                )
                row = (
                    op.p.at(t) * cap(t)
                    - op.p.at(t - 1) * cap(t - 1)
                    + op.q.at(t) * col.at(t - 1)
                )
                assert row == pytest.approx(0.0, abs=1e-10)

    def test_one_array_zero_below_each_column(self, rng):
        # rows t in [a-N+1, b], columns s in [a+N+1, b]; x(t, s) = 0 for t < s
        op = random_operator(rng, 0.0, 2.4, 11)
        cf = cauchy_function(op)
        assert cf.values.shape == (11 + 3, 11 - 3)
        t = np.arange(-2, 12)[:, None]
        s = np.arange(4, 12)[None, :]
        assert np.all(cf.values[t < s] == 0.0)
        for si, s_off in enumerate(cf.rows.offsets()):
            col = cf.column(s_off)
            assert (col.grid.lo, col.grid.hi) == (s_off - 3, 11)
            assert col.values.tobytes() == cf.values[s_off - 1:, si].tobytes()

    @pytest.mark.parametrize("b", [24, 40])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_columns_against_60_digits(self, rng, nu, b):
        # column s solves L x = e_s from zero initial data
        op = random_operator(rng, 0.0, nu, b)
        cf = cauchy_function(op)
        for j, s in enumerate(cf.rows.offsets()):
            e_s = GridFunction(op.rows, np.eye(len(op.rows))[j])
            ref = mp_solve_ivp(op, e_s, InitialConditions.zeros(op.N))
            assert np.max(np.abs(cf.values[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_column_outside_s_range_is_an_error(self):
        cf = cauchy_function(FracOperator.constant(0.0, 1.5, 8))
        for s in (2, 9, -1):
            with pytest.raises(OffGridError):
                cf.column(s)


class TestVariationOfConstants:
    def test_zero_forcing_gives_zero(self):
        op = FracOperator.constant(0.0, 1.5, 9)
        x = variation_of_constants(op, zero_forcing(op))
        assert all(v == 0.0 for v in x.values)

    def test_impulse_response_is_monomial_column(self):
        op = FracOperator.constant(0.0, 1.5, 10)
        t0 = 5
        h = GridFunction(
            Grid(0.0, 3, 10), tuple(1.0 if k == t0 else 0.0 for k in range(3, 11))
        )
        x = variation_of_constants(op, h)
        for t in range(-1, 11):
            assert x.at(t) == pytest.approx(taylor_monomial(t - (t0 - 1), 1.5), abs=1e-12)

    def test_vanishes_through_initial_window(self, rng):
        op = random_operator(rng, 0.0, 2.4, 12)
        x = variation_of_constants(op, random_forcing(rng, op))
        for t in range(-2, 4):  # [a-N+1, a+N]
            assert x.at(t) == 0.0

    def test_agrees_with_solver_on_random_instances(self, rng):
        for nu in (0.5, 1.5, 2.4):
            n = math.ceil(nu)
            for trial in range(5):
                op = random_operator(rng, 0.0, nu, 14)
                h = random_forcing(rng, op)
                x1 = solve_ivp(op, h, InitialConditions.zeros(n))
                x2 = variation_of_constants(op, h)
                assert max_gap(x1, x2) < 1e-9


class TestHomogeneousBasis:
    def test_numeric_basis_residuals(self, rng):
        op = random_operator(rng, 0.0, 1.5, 12)
        for x in homogeneous_basis(op):
            assert residual(op, x, zero_forcing(op)) < 1e-9

    def test_numeric_basis_initial_data_is_identity(self, rng):
        op = random_operator(rng, 0.0, 2.3, 12)
        basis = homogeneous_basis(op)
        for k, x in enumerate(basis):
            for i in range(4):
                d = sum(
                    (-1) ** j * math.comb(i, j) * x.at(i - j) for j in range(i + 1)
                )
                assert d == pytest.approx(1.0 if i == k else 0.0, abs=1e-12)

    def test_analytic_basis_for_basic_operator(self):
        op = FracOperator.constant(0.0, 1.5, 10)
        b0, b1, b2 = homogeneous_basis(op, analytic=True)
        for t in range(-1, 11):
            assert b0.at(t) == 1.0
            assert b1.at(t) == float(t)
            assert b2.at(t) == taylor_monomial(t, 1.5)

    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    @pytest.mark.parametrize("b", ["N+1", 32, 320])
    def test_analytic_whole_orders_are_the_scalar_monomials_bit_for_bit(self, nu, b):
        n = math.ceil(nu)
        op = FracOperator.constant(0.0, nu, n + 1 if b == "N+1" else b)
        basis = homogeneous_basis(op, analytic=True)
        for k, x in enumerate(basis[:n]):
            want = np.array([taylor_monomial(m, float(k)) for m in op.grid.offsets()])
            assert x.values.tobytes() == want.tobytes()  # -0.0 and 0.0 told apart

    @pytest.mark.parametrize("nu", [0.6, 1.5])
    def test_analytic_basis_below_order_two_calls_no_scalar_monomial(self, monkeypatch, nu):
        def refuse(m, nu):
            raise AssertionError("taylor_monomial called")

        monkeypatch.setattr(ivp, "taylor_monomial", refuse)
        op = FracOperator.constant(0.0, nu, 32)
        assert len(homogeneous_basis(op, analytic=True)) == op.N + 1

    def test_analytic_basis_requires_basic_operator(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        with pytest.raises(ValueError):
            homogeneous_basis(op, analytic=True)


class TestNonFiniteAnswer:
    # x(3) = h(3) = 1e308 and x(4) = h(4) + x(3) - q x(3) overflows, on either path;
    # the q == 0 path's running sum of h overflows in numpy, which warns first
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("q", [0.0, 0.5], ids=["q-zero", "q-variable"])
    def test_solve_ivp_names_the_first_offset_past_float64(self, q):
        op = FracOperator.constant(0.0, 1.5, 12, q=q)
        with pytest.raises(NonFiniteError, match=r"offset 4 \(t = 4\); max\|x\| before it is 1\.000e\+308"):
            solve_ivp(op, constant_grid_function(op.rows, 1e308), InitialConditions.zeros(2))

    def test_huge_but_finite_answers_are_answers(self):
        op = FracOperator.constant(0.0, 1.5, 12, q=0.5)
        x = solve_ivp(op, constant_grid_function(op.rows, 1e306), InitialConditions.zeros(2))
        assert np.all(np.isfinite(x.values)) and np.max(np.abs(x.values)) > 1e306

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_variation_of_constants_names_the_first_offset_past_float64(self):
        op = FracOperator.constant(0.0, 1.5, 12)
        with pytest.raises(NonFiniteError, match=r"offset 4 \(t = 4\); max\|x\| before it is 1\.000e\+308"):
            variation_of_constants(op, constant_grid_function(op.rows, 1e308))

    def test_cauchy_function_names_the_first_offset_past_float64(self):
        # x(s, s) = 1/p(s) = 1e308, and the next row of each column overflows
        op = FracOperator.constant(0.0, 1.5, 8, p=1e-308)
        with pytest.raises(NonFiniteError, match=r"offset 4 .* before it is 1\.000e\+308"):
            cauchy_function(op)
