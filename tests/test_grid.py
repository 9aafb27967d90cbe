import numpy as np
import pytest
from hypothesis import given, strategies as st

from nablafrac import (
    FracOperator,
    Grid,
    GridFunction,
    OffGridError,
    caputo_difference,
    conjugate_greens_closed_form,
    frac_integral,
    leading_coefficient,
    make_grid_function,
    nabla_integral,
    rl_difference,
)


def test_tabulates_square():
    f = make_grid_function(Grid(0.0, 0, 3), lambda t: t * t)
    assert f.values.tobytes() == np.array([0.0, 1.0, 4.0, 9.0]).tobytes()


def test_tabulates_constant_on_shifted_base():
    f = make_grid_function(Grid(2.5, -1, 1), lambda t: 1.0)
    assert f.values.tobytes() == np.array([1.0, 1.0, 1.0]).tobytes()
    assert f(1.5) == 1.0 and f(3.5) == 1.0


def test_singleton_grid():
    f = make_grid_function(Grid(0.0, 0, 0), lambda t: 7.0)
    assert f.values == (7.0,)


def test_values_are_read_only():
    f = GridFunction(Grid(0.0, 0, 2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0
    with pytest.raises(ValueError):
        f.values_on(0.0, 1, 2)[0] = 5.0
    assert f.values.tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()


def test_tuple_list_and_array_inputs_give_the_same_bytes():
    src = np.array([0.1, -2.5, 3e300, 7.0])
    grid = Grid(0.0, 0, 3)
    want = src.tobytes()
    for vals in (tuple(src.tolist()), src.tolist(), src, [0.1, -2.5, 3e300, 7]):
        f = GridFunction(grid, vals)
        assert f.values.dtype == np.float64 and f.values.tobytes() == want
    f = GridFunction(grid, src)
    src[0] = 99.0  # the input is copied
    assert f.at(0) == 0.1


def test_at_returns_a_python_float():
    f = GridFunction(Grid(1.0, -1, 1), np.array([1.5, 2.5, 3.5]))
    assert type(f.at(0)) is float and f.at(0) == 2.5
    assert type(f(2.0)) is float and f(2.0) == 3.5


def test_values_on_slices_by_offset():
    f = GridFunction(Grid(2.0, -1, 4), [10.0, 11.0, 12.0, 13.0, 14.0, 15.0])
    assert f.values_on(2.0, 1, 3).tolist() == [12.0, 13.0, 14.0]
    assert f.values_on(2.0 + 1e-12, -1, -1).tolist() == [10.0]
    assert f.values_on(2.0, 4, 3).size == 0


def test_values_on_rejects_an_off_base():
    f = GridFunction(Grid(2.0, -1, 4), [0.0] * 6)
    for base in (2.5, 3.0, 2.0 + 1e-6):
        with pytest.raises(OffGridError):
            f.values_on(base, 0, 2)


def test_values_on_rejects_an_uncovered_range():
    f = GridFunction(Grid(2.0, -1, 4), [0.0] * 6)
    for lo, hi in ((-2, 3), (0, 5), (-3, 7)):
        with pytest.raises(OffGridError):
            f.values_on(2.0, lo, hi)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        Grid(0.0, 2, 1)


def test_value_count_must_match():
    with pytest.raises(ValueError):
        GridFunction(Grid(0.0, 0, 3), (1.0, 2.0))


def test_off_grid_evaluation_is_an_error():
    f = make_grid_function(Grid(0.0, 0, 3), lambda t: t)
    with pytest.raises(OffGridError):
        f(4.0)
    with pytest.raises(OffGridError):
        f(0.5)
    with pytest.raises(OffGridError):
        f.at(-1)


def test_nabla_integral_counts_points():
    f = make_grid_function(Grid(0.0, 0, 5), lambda t: 1.0)
    assert nabla_integral(f, 0.0, 5.0) == 5.0


def test_nabla_integral_zero_when_upper_not_above_lower():
    f = make_grid_function(Grid(0.0, 0, 5), lambda t: t * t + 1)
    assert nabla_integral(f, 3.0, 3.0) == 0.0
    assert nabla_integral(f, 4.0, 1.0) == 0.0


def test_nabla_integral_direct_sum():
    f = make_grid_function(Grid(0.0, 0, 4), lambda t: t)
    assert nabla_integral(f, 1.0, 4.0) == 2.0 + 3.0 + 4.0


@given(
    vals=st.lists(st.integers(-100, 100), min_size=3, max_size=12),
    data=st.data(),
)
def test_nabla_integral_additive_over_adjacent_ranges(vals, data):
    f = GridFunction(Grid(0.0, 0, len(vals) - 1), tuple(float(v) for v in vals))
    hi = len(vals) - 1
    c = data.draw(st.integers(0, hi))
    d = data.draw(st.integers(c, hi))
    e = data.draw(st.integers(d, hi))
    whole = nabla_integral(f, float(c), float(e))
    split = nabla_integral(f, float(c), float(d)) + nabla_integral(f, float(d), float(e))
    assert whole == split


@given(vals=st.lists(st.floats(-10, 10), min_size=2, max_size=10), c=st.floats(-3, 3))
def test_nabla_integral_linear_in_f(vals, c):
    f = GridFunction(Grid(0.0, 0, len(vals) - 1), tuple(vals))
    scaled = GridFunction(f.grid, tuple(c * v for v in f.values))
    lo, hi = 0.0, float(len(vals) - 1)
    assert nabla_integral(scaled, lo, hi) == pytest.approx(
        c * nabla_integral(f, lo, hi), abs=1e-9
    )


# The one point rule, through every function that takes a point: (call, a grid point).
_F = GridFunction(Grid(0.0, -1, 8), np.arange(10.0) ** 2)
_OP = FracOperator.constant(0.0, 1.5, 8)
POINT_CALLS = {
    "Grid.offset_of": (_F.grid.offset_of, 3.0),
    "GridFunction.__call__": (_F, 3.0),
    "frac_integral base": (lambda t: frac_integral(_F, t, 0.5).values, 2.0),
    "rl_difference base": (lambda t: rl_difference(_F, t, 1.5).values, 0.0),
    "caputo_difference base": (lambda t: caputo_difference(_F, t, 1.5).values, 0.0),
    "nabla_integral lower end": (lambda t: nabla_integral(_F, t, 8.0), 2.0),
    "nabla_integral upper end": (lambda t: nabla_integral(_F, 0.0, t), 6.0),
    "leading_coefficient": (lambda t: leading_coefficient(_OP, t), 5.0),
    "conjugate closed form a": (lambda t: conjugate_greens_closed_form(t, 10.0, 1.5).G, 0.0),
    "conjugate closed form b": (lambda t: conjugate_greens_closed_form(0.0, t, 1.5).G, 10.0),
}


@pytest.mark.parametrize("name", POINT_CALLS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "+0.5", "+0.4",
                                 pytest.param(10**400, id="int-10**400")])
def test_point_rule_rejects_non_finite_and_off_grid_points(name, bad):
    call, t = POINT_CALLS[name]
    point = t + float(bad[1:]) if isinstance(bad, str) else bad
    with pytest.raises(OffGridError):
        call(point)


@pytest.mark.parametrize("name", POINT_CALLS)
def test_point_rule_accepts_a_point_within_tolerance(name):
    call, t = POINT_CALLS[name]
    want = np.asarray(call(t))
    assert np.asarray(call(t + 1e-12)).tobytes() == want.tobytes()


@pytest.mark.parametrize("base", [np.nan, np.inf, -np.inf,
                                  pytest.param(10**400, id="int-10**400")])
def test_grid_rejects_a_non_finite_base(base):
    with pytest.raises(ValueError):
        Grid(base, 0, 3)
