import math

import pytest
from hypothesis import given, strategies as st

from nablafrac import kernel_weights, taylor_monomial


def gamma_ratio(m, nu):
    """Log-gamma oracle for Gamma(m+nu)/Gamma(m), positive arguments only."""
    return math.exp(math.lgamma(m + nu) - math.lgamma(m))


def monomial_oracle(m, nu):
    return gamma_ratio(m, nu) / math.gamma(nu + 1.0)


def test_monomial_is_one_at_first_step():
    for nu in (0.25, 0.5, 1.5, 2.7, 3.0):
        assert taylor_monomial(1, nu) == 1.0


def test_monomial_example_three_halves():
    assert taylor_monomial(3, 1.5) == pytest.approx(2.5 / 1 * 3.5 / 2, rel=1e-15)
    assert taylor_monomial(3, 1.5) == pytest.approx(monomial_oracle(3, 1.5), rel=1e-13)


def test_monomial_vanishes_at_and_below_base_for_fractional_order():
    for m in (0, -1, -5):
        assert taylor_monomial(m, 1.5) == 0.0
        assert taylor_monomial(m, 0.25) == 0.0


def test_monomial_kernel_diagonal_is_one():
    # H_{nu-N}(s, rho(s)) = 1 for any fractional nu
    for nu in (0.5, 1.5, 2.4):
        n = math.ceil(nu)
        assert taylor_monomial(1, nu - n) == 1.0


def test_monomial_order_zero_is_one_everywhere():
    for m in (-3, 0, 1, 7):
        assert taylor_monomial(m, 0.0) == 1.0


def test_monomial_integer_orders_extend_below_base():
    # H_1(a+m, a) = m and H_2(a+m, a) = m(m+1)/2 as polynomials
    for m in range(-4, 5):
        assert taylor_monomial(m, 1.0) == float(m)
        assert taylor_monomial(m, 2.0) == m * (m + 1) / 2.0


def test_monomial_negative_integer_orders_vanish():
    for m in range(-3, 4):
        assert taylor_monomial(m, -1.0) == 0.0
        assert taylor_monomial(m, -2.0) == 0.0


def test_agrees_with_log_gamma_oracle():
    for nu in (0.25, 0.5, 1.5, 2.7):
        for m in range(1, 51):
            assert taylor_monomial(m, nu) == pytest.approx(
                monomial_oracle(m, nu), rel=1e-12
            )


def test_whole_orders_are_the_exact_binomial_rounded_once():
    # m (m+1) ... (m+k-1) / k! is C(m+k-1, k) for m >= 1 and (-1)^k C(-m, k)
    # for m <= 0, which math.comb makes 0 where the product passes through 0
    ms = range(-400, 401)
    for k in range(401):
        expected = [float(math.comb(m + k - 1, k)) if m >= 1
                    else (-1) ** k * float(math.comb(-m, k)) for m in ms]
        assert [taylor_monomial(m, float(k)) for m in ms] == expected, k


@pytest.mark.parametrize("m, k, expected", [
    (2, 170.0, 171.0),  # the float product overflowed to inf here
    (3, 170.0, 14706.0),
    (3, 171.0, 14878.0),  # here 171! overflowed the float division
    (1, 1e308, 1.0),
    (2, 1e308, 1e308),
    (3, 1e308, math.inf),  # a loop over 10^308 factors never returned
    (-3, 1e308, 0.0),
    (-2002, 1001.0, -math.inf),  # (-1)^1001 C(2002, 1001), about 2^1998
    (-2002, 1000.0, math.inf),
])
def test_whole_orders_past_the_float_range(m, k, expected):
    assert taylor_monomial(m, k) == expected


@given(
    m=st.integers(1, 120),
    nu=st.floats(-0.9, 4.0).filter(lambda v: abs(v - round(v)) > 1e-6),
)
def test_recurrence_one_step(m, nu):
    # H_nu(a+m+1, a) = H_nu(a+m, a) * (m + nu) / m
    left = taylor_monomial(m + 1, nu)
    right = taylor_monomial(m, nu) * (m + nu) / m
    assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


@given(
    m=st.integers(1, 80),
    nu=st.one_of(
        st.floats(-0.9, 4.0).filter(lambda v: abs(v - round(v)) > 1e-6),
        st.integers(0, 4).map(float),
    ),
)
def test_difference_identity(m, nu):
    # H_nu(a+m) - H_nu(a+m-1) = H_{nu-1}(a+m)
    diff = taylor_monomial(m, nu) - taylor_monomial(m - 1, nu)
    scale = max(1.0, abs(taylor_monomial(m, nu)))
    assert diff == pytest.approx(taylor_monomial(m, nu - 1.0), rel=1e-10, abs=1e-12 * scale)


class TestKernelWeights:
    def test_bit_equal_to_scalar_monomial_for_fractional_orders(self):
        for nu in (-0.999, -0.5, -0.3, 0.01, 0.5, 1.5, 2.7, 3.999):
            expected = [taylor_monomial(m, nu) for m in range(801)]
            assert kernel_weights(800, nu).tolist() == expected

    def test_integer_orders_agree_to_rounding(self):
        for nu in (0.0, 1.0, 2.0, 3.0, 6.0):
            w = kernel_weights(500, nu)
            for m in range(501):
                assert w[m] == pytest.approx(taylor_monomial(m, nu), rel=1e-13, abs=0.0)

    def test_short_lengths(self):
        assert kernel_weights(0, 0.5).tolist() == [0.0]
        assert kernel_weights(0, 0.0).tolist() == [1.0]
        assert kernel_weights(1, 1.5).tolist() == [0.0, 1.0]

    def test_orders_at_or_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            kernel_weights(5, -1.0)
        with pytest.raises(ValueError):
            kernel_weights(5, -1.5)

    @pytest.mark.parametrize("m", [-1, -5])
    def test_negative_lengths_rejected(self, m):
        with pytest.raises(ValueError, match=f"m >= 0, got m = {m}"):
            kernel_weights(m, 0.5)
