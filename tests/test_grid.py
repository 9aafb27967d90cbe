import numpy as np
import pytest

from nablafrac import (
    Grid,
    GridFunction,
    OffGridError,
    caputo_difference,
    conjugate_greens_closed_form,
    frac_integral,
    make_grid_function,
    rl_difference,
)


def test_tabulates_square():
    f = make_grid_function(Grid(0.0, 0, 3), lambda t: t * t)
    assert f.values.tobytes() == np.array([0.0, 1.0, 4.0, 9.0]).tobytes()


def test_tabulates_constant_on_shifted_base():
    f = make_grid_function(Grid(2.5, -1, 1), lambda t: 1.0)
    assert f.values.tobytes() == np.array([1.0, 1.0, 1.0]).tobytes()
    assert f.at(-1) == 1.0 and f.at(1) == 1.0


def test_singleton_grid():
    f = make_grid_function(Grid(0.0, 0, 0), lambda t: 7.0)
    assert f.values == (7.0,)


def test_values_are_read_only():
    f = GridFunction(Grid(0.0, 0, 2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0
    with pytest.raises(ValueError):
        f.values_on(Grid(0.0, 1, 2))[0] = 5.0
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
    assert type(f.at(1)) is float and f.at(1) == 3.5


def test_values_on_slices_by_offset():
    f = GridFunction(Grid(2.0, -1, 4), [10.0, 11.0, 12.0, 13.0, 14.0, 15.0])
    assert f.values_on(Grid(2.0, 1, 3)).tolist() == [12.0, 13.0, 14.0]
    assert f.values_on(Grid(2.0 + 1e-12, -1, -1)).tolist() == [10.0]


def test_values_on_rejects_an_off_base():
    f = GridFunction(Grid(2.0, -1, 4), [0.0] * 6)
    for base in (2.5, 3.0, 2.0 + 1e-6):
        with pytest.raises(OffGridError):
            f.values_on(Grid(base, 0, 2))


def test_values_on_rejects_an_uncovered_range():
    f = GridFunction(Grid(2.0, -1, 4), [0.0] * 6)
    for lo, hi in ((-2, 3), (0, 5), (-3, 7)):
        with pytest.raises(OffGridError):
            f.values_on(Grid(2.0, lo, hi))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        Grid(0.0, 2, 1)


def test_value_count_must_match():
    with pytest.raises(ValueError):
        GridFunction(Grid(0.0, 0, 3), (1.0, 2.0))


def test_off_grid_evaluation_is_an_error():
    f = make_grid_function(Grid(0.0, 0, 3), lambda t: t)
    with pytest.raises(OffGridError):
        f.at(4)
    with pytest.raises(OffGridError):
        f.at(-1)


# The one point rule, through every function that takes a point: (call, a grid point).
_F = GridFunction(Grid(0.0, -1, 8), np.arange(10.0) ** 2)
POINT_CALLS = {
    "GridFunction.values_on base": (lambda t: _F.values_on(Grid(t, 0, 3)), 0.0),
    "frac_integral base": (lambda t: frac_integral(_F, t, 0.5).values, 2.0),
    "rl_difference base": (lambda t: rl_difference(_F, t, 1.5).values, 0.0),
    "caputo_difference base": (lambda t: caputo_difference(_F, t, 1.5).values, 0.0),
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


@pytest.mark.parametrize("base, lo, hi", [
    pytest.param(1e17, 1, 10, id="1e17"),
    pytest.param(-1e17, 1, 10, id="-1e17"),
    pytest.param(2.0**53 - 10, 0, 10, id="hi-at-2**53"),
    pytest.param(-(2.0**53 - 2), -2, 3, id="lo-at-minus-2**53"),
    pytest.param(0.0, 2, 10**30, id="hi-10**30"),
    pytest.param(0.0, 2, 10**400, id="hi-int-10**400"),
    pytest.param(10**17, 0, 1, id="int-10**17"),
])
def test_grid_refuses_points_where_a_plus_k_is_not_exact(base, lo, hi):
    # at 2**53 and above, floats are more than 1 apart, so a + k merges points
    with pytest.raises(ValueError, match=r"reach 2\*\*53"):
        Grid(base, lo, hi)


def test_grid_accepts_points_up_to_2_53_minus_1():
    g = Grid(2.0**53 - 11, 0, 10)
    assert len({g.base + k for k in g.offsets()}) == len(g)
    assert len(Grid(-(2.0**53 - 2), -1, 0)) == 2
