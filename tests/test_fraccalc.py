import math

import numpy as np
import pytest

from nablafrac import (
    FracOperator,
    FracOrder,
    Grid,
    GridFunction,
    caputo_difference,
    conjugate_greens_closed_form,
    constant_grid_function,
    frac_integral,
    make_grid_function,
    nabla,
    nabla_n,
    rl_difference,
    taylor_monomial,
)
from conftest import max_gap


def monomial_function(base, lo, hi, nu, a_offset=0):
    """H_nu(t, a + a_offset) tabulated on offsets [lo, hi]."""
    return GridFunction(
        Grid(base, lo, hi),
        tuple(taylor_monomial(m - a_offset, nu) for m in range(lo, hi + 1)),
    )


class TestFracOrder:
    def test_ceiling(self):
        assert FracOrder.from_nu(1.5).N == 2
        assert FracOrder.from_nu(3.0).N == 3
        assert FracOrder.from_nu(3.0).is_whole

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FracOrder.from_nu(0.0)

    def test_rejects_wrong_ceiling(self):
        with pytest.raises(ValueError):
            FracOrder(1.5, 3)

    def test_fractional_rejects_a_whole_order(self):
        assert FracOrder.fractional(2.5).N == 3
        with pytest.raises(ValueError, match="whole"):
            FracOrder.fractional(2.0)


# The one order rule, through every function that takes an order.
_F = GridFunction(Grid(0.0, -3, 8), tuple(float(k * k) for k in range(-3, 9)))
ORDER_CALLS = {
    "FracOrder.from_nu": FracOrder.from_nu,
    "FracOperator.constant": lambda nu: FracOperator.constant(0.0, nu, 8),
    "frac_integral": lambda nu: frac_integral(_F, 0.0, nu),
    "rl_difference": lambda nu: rl_difference(_F, 0.0, nu),
    "caputo_difference": lambda nu: caputo_difference(_F, 0.0, nu),
    "conjugate_greens_closed_form": lambda nu: conjugate_greens_closed_form(0.0, 10.0, nu),
}


@pytest.mark.parametrize("name", ORDER_CALLS)
@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_order_rule_rejects_with_value_error(name, nu):
    with pytest.raises(ValueError):  # an OverflowError is not a ValueError
        ORDER_CALLS[name](nu)


@pytest.mark.parametrize("name", ORDER_CALLS)
def test_order_rule_accepts_a_fractional_order(name):
    ORDER_CALLS[name](1.5)


class TestWholeOrder:
    def test_nabla_of_square(self):
        f = make_grid_function(Grid(0.0, 0, 4), lambda t: t * t)
        df = nabla(f)
        for t in range(1, 5):
            assert df.at(t) == 2 * t - 1

    def test_nabla_of_constant(self):
        f = constant_grid_function(Grid(0.0, 0, 6), 3.25)
        assert all(v == 0.0 for v in nabla(f).values)

    def test_nabla_of_monomial_drops_order(self):
        f = monomial_function(0.0, -1, 5, 1.5)
        df = nabla(f)
        for m in range(0, 6):
            assert df.at(m) == pytest.approx(taylor_monomial(m, 0.5), abs=1e-14)

    def test_nabla_singleton_rejected(self):
        with pytest.raises(ValueError):
            nabla(constant_grid_function(Grid(0.0, 0, 0), 1.0))

    def test_second_difference_of_square_is_two(self):
        f = make_grid_function(Grid(0.0, 0, 4), lambda t: t * t)
        d2 = nabla_n(f, 2)
        assert d2.grid.lo == 2
        assert all(v == 2.0 for v in d2.values)

    def test_order_zero_is_identity(self):
        f = make_grid_function(Grid(0.0, 0, 5), lambda t: t ** 3)
        assert nabla_n(f, 0) is f

    def test_difference_annihilates_lower_degree(self):
        f = make_grid_function(Grid(0.0, 0, 5), lambda t: t)
        assert all(v == 0.0 for v in nabla_n(f, 2).values)


class TestFracIntegral:
    def test_of_one_is_taylor_monomial(self):
        one = constant_grid_function(Grid(0.0, 1, 12), 1.0)
        for nu in (0.3, 1.0, 1.5, 2.7):
            fi = frac_integral(one, 0.0, nu)
            for m in range(0, 13):
                assert fi.at(m) == pytest.approx(taylor_monomial(m, nu), rel=1e-13, abs=1e-13)

    def test_zero_at_base(self, rng):
        f = GridFunction(Grid(0.0, 1, 8), tuple(rng.uniform(-5, 5, 8)))
        assert frac_integral(f, 0.0, 0.7).at(0) == 0.0

    def test_power_rule_against_double_sum(self):
        # integrating H_nu by one order gives H_{nu+1}; oracle = direct double sum
        nu, mu = 1.5, 1.0
        f = monomial_function(0.0, 1, 9, nu)
        fi = frac_integral(f, 0.0, mu)
        for m in range(0, 10):
            oracle = sum(
                taylor_monomial(m - s + 1, mu - 1.0) * taylor_monomial(s, nu)
                for s in range(1, m + 1)
            )
            assert fi.at(m) == pytest.approx(oracle, abs=1e-13)
            assert fi.at(m) == pytest.approx(taylor_monomial(m, nu + mu), rel=1e-12, abs=1e-12)

    def test_convolution_matches_direct_sum(self, rng):
        # loop transcription of the defining sum; the base sits inside f's grid
        f = GridFunction(Grid(0.0, -2, 30), tuple(rng.uniform(-1, 1, 33)))
        for nu in (0.4, 1.0, 1.5, 2.7):
            fi = frac_integral(f, 3.0, nu)
            assert (fi.grid.lo, fi.grid.hi) == (3, 30)
            for m in range(0, 28):
                direct = sum(taylor_monomial(m - s + 1, nu - 1.0) * f.at(3 + s)
                             for s in range(1, m + 1))
                scale = sum(abs(taylor_monomial(m - s + 1, nu - 1.0) * f.at(3 + s))
                            for s in range(1, m + 1))
                assert abs(fi.at(3 + m) - direct) <= 1e-14 * scale

    def test_base_at_last_point_gives_single_zero(self):
        f = constant_grid_function(Grid(0.0, 1, 5), 2.0)
        fi = frac_integral(f, 5.0, 0.5)
        assert (fi.grid.lo, fi.grid.hi) == (5, 5)
        assert fi.values == (0.0,)

    def test_base_off_grid_rejected(self):
        f = constant_grid_function(Grid(0.0, 1, 5), 1.0)
        with pytest.raises(ValueError):
            frac_integral(f, -2.0, 0.5)


class TestRiemannLiouville:
    def test_monomial_order_drop(self):
        # order-1.5 difference of H_2.5 is H_1
        f = monomial_function(0.0, 1, 10, 2.5)
        rl = rl_difference(f, 0.0, 1.5)
        assert rl.grid.lo == 2
        for m in range(2, 11):
            assert rl.at(m) == pytest.approx(taylor_monomial(m, 1.0), rel=1e-12, abs=1e-12)

    def test_inverts_frac_integral(self, rng):
        f = GridFunction(Grid(0.0, 1, 12), tuple(rng.uniform(-1, 1, 12)))
        for mu in (0.4, 1.5, 2.2):
            n = math.ceil(mu)
            back = rl_difference(frac_integral(f, 0.0, mu), 0.0, mu)
            assert max_gap(back, f, range(n, 13)) < 1e-12

    def test_zero_in_zero_out(self):
        z = constant_grid_function(Grid(0.0, 1, 6), 0.0)
        assert all(v == 0.0 for v in rl_difference(z, 0.0, 0.5).values)

    def test_integer_order_rejected(self):
        f = constant_grid_function(Grid(0.0, 1, 6), 1.0)
        with pytest.raises(ValueError):
            rl_difference(f, 0.0, 2.0)


class TestCaputo:
    def test_annihilates_constants(self):
        f = constant_grid_function(Grid(0.0, -1, 8), 4.2)
        c = caputo_difference(f, 0.0, 1.5)
        assert all(v == 0.0 for v in c.values)

    def test_of_matching_monomial_is_one(self):
        f = monomial_function(0.0, -1, 6, 1.5)
        c = caputo_difference(f, 0.0, 1.5)
        assert c.at(0) == 0.0
        for m in range(1, 7):
            assert c.at(m) == pytest.approx(1.0, abs=1e-13)

    def test_of_matching_monomial_against_double_sum(self):
        nu = 1.5
        f = monomial_function(0.0, -1, 6, nu)
        c = caputo_difference(f, 0.0, nu)
        for m in range(0, 7):
            oracle = sum(
                taylor_monomial(m - s + 1, 2 - nu - 1.0)
                * (f.at(s) - 2 * f.at(s - 1) + f.at(s - 2))
                for s in range(1, m + 1)
            )
            assert c.at(m) == pytest.approx(oracle, abs=1e-13)

    def test_annihilates_low_degree_polynomials(self):
        f = make_grid_function(Grid(0.0, -1, 6), lambda t: t)
        c = caputo_difference(f, 0.0, 1.5)
        assert max(abs(v) for v in c.values) == 0.0

    def test_requires_ghost_points(self):
        f = constant_grid_function(Grid(0.0, 0, 6), 1.0)
        with pytest.raises(ValueError):
            caputo_difference(f, 0.0, 1.5)  # needs offset -1


class TestCompositionRules:
    def test_whole_difference_of_integral(self, rng):
        # nabla^N (nu_a^{-mu} f) = nabla_a^{N-mu} f, pointwise on the common domain
        for trial in range(20):
            f = GridFunction(Grid(0.0, 0, 14), tuple(rng.uniform(-1, 1, 15)))
            for mu in (0.3, 1.5, 2.6):
                for n in (1, 2, 3):
                    lhs = nabla_n(frac_integral(f, 0.0, mu), n)
                    d = n - mu
                    if d > 0:
                        rhs = rl_difference(f, 0.0, d, extend=True)
                    else:
                        rhs = frac_integral(f, 0.0, -d)
                    assert max_gap(lhs, rhs) < 1e-10

    def test_integral_of_difference(self, rng):
        for trial in range(20):
            f = GridFunction(Grid(0.0, 0, 14), tuple(rng.uniform(-1, 1, 15)))
            for mu in (0.3, 1.5, 2.6):
                back = frac_integral(rl_difference(f, 0.0, mu, extend=True), 0.0, mu)
                assert max_gap(back, f, range(1, 15)) < 1e-10


class TestLeibnizRules:
    def test_both_identities_on_random_kernels(self, rng):
        # f(t, s) on N_a x N_{a+1}; F(t) = sum_{s=a+1}^{t} f(t,s)
        a, hi = 0, 10
        for trial in range(20):
            kern = rng.uniform(-1, 1, (hi + 1, hi + 1))  # indexed [t][s], s >= 1

            def integral(t):
                return sum(kern[t][s] for s in range(a + 1, t + 1))

            for t in range(a + 1, hi + 1):
                left = integral(t) - integral(t - 1)
                rule1 = sum(kern[t][s] - kern[t - 1][s] for s in range(a + 1, t + 1))
                rule1 += kern[t - 1][t]
                rule2 = sum(kern[t][s] - kern[t - 1][s] for s in range(a + 1, t))
                rule2 += kern[t][t]
                assert left == pytest.approx(rule1, abs=1e-12)
                assert left == pytest.approx(rule2, abs=1e-12)


def test_operators_are_linear(rng):
    f = GridFunction(Grid(0.0, -1, 10), tuple(rng.uniform(-1, 1, 12)))
    g = GridFunction(Grid(0.0, -1, 10), tuple(rng.uniform(-1, 1, 12)))
    combo = GridFunction(f.grid, tuple(2.0 * u - 3.0 * v for u, v in zip(f.values, g.values)))
    for operator in (
        nabla,
        lambda x: frac_integral(x, 0.0, 1.3),
        lambda x: rl_difference(x, 0.0, 1.3),
        lambda x: caputo_difference(x, 0.0, 1.5),
    ):
        lhs = operator(combo)
        rf, rg = operator(f), operator(g)
        for k in lhs.grid.offsets():
            assert lhs.at(k) == pytest.approx(2.0 * rf.at(k) - 3.0 * rg.at(k), abs=1e-12)
