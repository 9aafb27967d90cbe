import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    BoundarySpec,
    DegenerateDenominatorError,
    FracOperator,
    GhostClosure,
    Grid,
    GridFunction,
    NearSingularError,
    NonFiniteError,
    OffGridError,
    apply,
    assemble_bvp,
    boundary_rows,
    build_greens,
    compare_greens,
    conjugate_greens_closed_form,
    constant_grid_function,
    dense_solve,
    greens_solve,
    homogeneous_basis,
    residual,
    solve_bvp,
    taylor_monomial,
)
from conftest import max_gap, mp_solve_bvp, random_forcing, random_operator


def conjugate_setup(a, b_off, nu):
    op = FracOperator.constant(a, nu, b_off)
    spec = BoundarySpec.conjugate()
    basis = homogeneous_basis(op, analytic=True)
    return op, spec, basis


class TestClosedForm:
    def test_spot_value(self):
        # a=0, b=4, nu=1.5: H_nu(4,0) = 6.5625, G(2,4) = -0.5 / 2.5625
        g = conjugate_greens_closed_form(0.0, 4.0, 1.5)
        assert taylor_monomial(4, 1.5) == pytest.approx(6.5625, rel=1e-15)
        assert g.value(2, 4) == pytest.approx(-0.5 / 2.5625, rel=1e-13)
        assert g.value(2, 4) == pytest.approx(-0.195122, abs=1e-6)
        assert g.branch_of(2, 4) == "u"

    def test_vanishes_at_left_endpoint(self):
        g = conjugate_greens_closed_form(0.0, 8.0, 1.5)
        for s in range(3, 9):
            assert g.value(0, s) == 0.0

    def test_vanishes_at_right_endpoint(self):
        g = conjugate_greens_closed_form(0.0, 8.0, 1.5)
        for s in range(3, 9):
            assert g.value(8, s) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_denominator_raises(self):
        # H_nu(3,0) - 3 -> 0 as nu -> 1+, so a barely-fractional order trips the guard
        with pytest.raises(DegenerateDenominatorError):
            conjugate_greens_closed_form(0.0, 3.0, 1.0 + 1e-13)

    def test_order_outside_one_two_rejected(self):
        with pytest.raises(ValueError):
            conjugate_greens_closed_form(0.0, 8.0, 2.5)

    def test_short_domain_rejected(self):
        with pytest.raises(ValueError):
            conjugate_greens_closed_form(0.0, 2.0, 1.5)


class TestBuildGreens:
    def test_matches_closed_form(self):
        for a, b, nu in ((0, 10, 1.5), (0, 20, 1.25), (3, 9, 1.9)):
            op, spec, basis = conjugate_setup(float(a), b - a, nu)
            built = build_greens(op, spec, basis)
            closed = conjugate_greens_closed_form(float(a), float(b), nu)
            assert compare_greens(built, closed) < 1e-10

    def test_u_satisfies_left_conditions(self):
        op, spec, basis = conjugate_setup(0.0, 9, 1.5)
        g = build_greens(op, spec, basis)
        # one column per s, over t in [-1, 9]
        assert boundary_rows(spec, 9)[:2] @ g.u == pytest.approx(0.0, abs=1e-11)

    def test_u_column_solves_homogeneous_equation(self):
        op, spec, basis = conjugate_setup(0.0, 9, 1.5)
        g = build_greens(op, spec, basis)
        from nablafrac import apply, zero_forcing
        for s in range(3, 10):
            ucol = GridFunction(Grid(0.0, g.grid.lo, 9), tuple(g.u[:, s - 3]))
            assert residual(op, ucol, zero_forcing(op)) < 1e-9

    def test_right_functional_of_v_vanishes(self):
        op, spec, basis = conjugate_setup(0.0, 9, 1.5)
        g = build_greens(op, spec, basis)
        assert boundary_rows(spec, 9)[2] @ g.v == pytest.approx(0.0, abs=1e-11)

    def test_overlap_band_consistency(self):
        # where both branches are stated (s = t+1), u and v coincide
        op, spec, basis = conjugate_setup(0.0, 10, 1.5)
        g = build_greens(op, spec, basis)
        for t in range(2, 9):
            s = t + 1
            if s < 3:
                continue
            ti, si = t - g.grid.lo, s - g.rows.lo
            assert g.u[ti, si] == pytest.approx(g.v[ti, si], abs=1e-13)

    def test_g_is_the_stated_piece_on_every_cell(self, rng):
        # the Cauchy column is 0 for t < s, so v equals u wherever u is stated
        op, spec, basis = conjugate_setup(0.0, 14, 1.5)
        variable = random_operator(rng, 0.0, 2.5, 14)
        three_rows = BoundarySpec(((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                                   (0.0, 0.0, 1.0, 0.0)), (0.0, 0.0, 0.0),
                                  (1.0, 0.0, 0.0, 0.0), 0.0)
        for g in [build_greens(op, spec, basis),
                  conjugate_greens_closed_form(0.0, 14.0, 1.5),
                  build_greens(variable, three_rows, homogeneous_basis(variable))]:
            assert g.G is g.v
            assert np.array_equal(np.where(g.branch == "v", g.v, g.u), g.G)

    def test_invariant_under_basis_scaling(self):
        op, spec, basis = conjugate_setup(0.0, 9, 1.5)
        scaled = tuple(
            GridFunction(x.grid, tuple(c * v for v in x.values))
            for c, x in zip((3.0, -2.0, 0.25), basis)
        )
        assert compare_greens(
            build_greens(op, spec, basis), build_greens(op, spec, scaled)
        ) < 1e-10

    def test_variable_coefficients_numeric_basis(self, rng):
        op = random_operator(rng, 0.0, 1.5, 12)
        spec = BoundarySpec.conjugate()
        g = build_greens(op, spec, homogeneous_basis(op))
        assert np.max(np.abs(boundary_rows(spec, 12) @ g.G)) < 1e-12
        for trial in range(5):
            h = random_forcing(rng, op)
            x = greens_solve(g, h)
            assert max_gap(x, solve_bvp(op, h, spec)) < 1e-9
            # the numeric basis has zero ghost values, and so has G
            dense = dense_solve(assemble_bvp(op, h, spec, GhostClosure.zero()))
            assert max_gap(x, dense) < 1e-9

    def test_singular_d_refused(self):
        op, spec, basis = conjugate_setup(0.0, 9, 1.5)
        with pytest.raises(NearSingularError):
            build_greens(op, spec, (basis[0], basis[0], basis[2]))


class TestAgainst50Digits:
    """G's columns against the 50-digit zero-data BVP solve of L x = e_s."""

    @pytest.mark.parametrize("nu, b, variable", [
        (1.5, 20, True), (2.5, 20, True),
        (1.5, 30, False), (2.5, 30, False),  # q = -1: the basis grows to 1e13-6e14
    ])
    def test_columns(self, rng, nu, b, variable):
        op = (random_operator(rng, 0.0, nu, b) if variable
              else FracOperator.constant(0.0, nu, b, q=-1.0))
        n = op.N
        spec = BoundarySpec(tuple(tuple(np.eye(n + 1)[i]) for i in range(n)), (0.0,) * n,
                            tuple(np.eye(n + 1)[0]), 0.0)
        g = build_greens(op, spec, homogeneous_basis(op))
        ref = mp_solve_bvp(op, spec, np.eye(b - n))
        assert np.max(np.abs(g.G - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSelfAdjointLimit:
    """At nu = 1, L is the self-adjoint nabla[p nabla x] + q x(t-1), whose Green's
    function for x(a) = x(b) = 0 has G(t, s) = G(s-1, t+1) (Kelley & Peterson,
    Difference Equations, 2nd ed., ch. 6); as nu -> 1- the asymmetry vanishes
    linearly in 1 - nu, with variable p and q and no oracle."""

    SPEC = BoundarySpec(((1.0, 0.0),), (0.0,), (1.0, 0.0), 0.0)

    def gap(self, seed, b, eps):
        """max|G(t, s) - G(s-1, t+1)| / max|G| over t in [1, b-1] and s in [2, b]."""
        op = random_operator(np.random.default_rng(seed), 0.0, 1.0 - eps, b)
        g = build_greens(op, self.SPEC, homogeneous_basis(op)).G  # t from 0, s from 2
        t, s = np.arange(1, b)[:, None], np.arange(2, b + 1)[None, :]
        return np.max(np.abs(g[t, s - 2] - g[s - 1, t - 1])) / np.max(np.abs(g))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(6, 40))
    def test_asymmetry_is_linear_in_one_minus_nu(self, seed, b):
        near, nearer = self.gap(seed, b, 1e-6), self.gap(seed, b, 1e-9)
        assert near <= 50 * 1e-6 and nearer <= 50 * 1e-9
        assert near / nearer / 1000 == pytest.approx(1.0, rel=1e-4)


class TestColumn:
    @pytest.mark.parametrize("basic", [True, False])
    def test_each_column_solves_the_impulse_equation(self, rng, basic):
        op = FracOperator.constant(0.0, 1.5, 12) if basic else random_operator(rng, 0.0, 1.5, 12)
        g = build_greens(op, BoundarySpec.conjugate(), homogeneous_basis(op, analytic=basic))
        for s in g.rows.offsets():
            lx = apply(op, g.column(s))
            impulse = np.arange(lx.grid.lo, lx.grid.hi + 1) == s
            assert np.max(np.abs(lx.values - impulse)) < 1e-12


class TestGreensSolve:
    def test_zero_forcing(self):
        g = conjugate_greens_closed_form(0.0, 9.0, 1.5)
        h = GridFunction(Grid(0.0, 3, 9), (0.0,) * 7)
        assert all(v == 0.0 for v in greens_solve(g, h).values)

    def test_impulse_selects_column(self):
        g = conjugate_greens_closed_form(0.0, 9.0, 1.5)
        s0 = 6
        h = GridFunction(Grid(0.0, 3, 9), tuple(1.0 if s == s0 else 0.0 for s in range(3, 10)))
        x = greens_solve(g, h)
        for t in g.grid.offsets():
            assert x.at(t) == g.value(t, s0)

    def test_solves_zero_data_bvp(self, rng):
        op, spec, basis = conjugate_setup(0.0, 12, 1.5)
        g = build_greens(op, spec, basis)
        for trial in range(10):
            h = random_forcing(rng, op)
            x = greens_solve(g, h)
            assert residual(op, x, h) < 1e-8
            assert abs(x.at(0)) < 1e-9
            assert abs(x.at(1) - x.at(0)) < 1e-9
            assert abs(x.at(12)) < 1e-9
            xb = solve_bvp(op, h, spec, basis)
            assert max_gap(x, xb) < 1e-8

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_answer_past_float64_is_refused(self):
        # G(a-1, s) is not 0 here, so the first offset overflows on h = 1e308,
        # while the second, where G is 0, does not
        op, spec, basis = conjugate_setup(0.0, 12, 1.5)
        h = constant_grid_function(op.rows, 1e308)
        with pytest.raises(NonFiniteError, match=r"offset -1 \(t = -1\); it is the answer's first"):
            greens_solve(build_greens(op, spec, basis), h)


class TestOffsets:
    """value, branch_of and column take offsets in t in [-1, 6] x s in [3, 6] here."""

    G = conjugate_greens_closed_form(0.0, 6.0, 1.5)

    @pytest.mark.parametrize("t, s", [(-5, 3), (-2, 3), (7, 3), (0, 2), (0, -1), (0, 7)])
    def test_value_refuses_an_offset_outside(self, t, s):
        with pytest.raises(OffGridError):
            self.G.value(t, s)

    @pytest.mark.parametrize("t, s", [(0, 2), (-2, 4), (7, 6), (0, 7)])
    def test_branch_of_refuses_an_offset_outside(self, t, s):
        with pytest.raises(OffGridError):
            self.G.branch_of(t, s)

    @pytest.mark.parametrize("s", [1, 2, -1, 7])
    def test_column_refuses_an_offset_outside(self, s):
        with pytest.raises(OffGridError):
            self.G.column(s)

    def test_offsets_inside_read_their_cell(self):
        g = self.G
        assert g.value(-1, 3) == g.G[0, 0] and g.value(6, 6) == g.G[-1, -1]
        assert g.branch_of(6, 6) == "v" and g.branch_of(-1, 6) == "u*"
        assert g.column(6).values.tobytes() == g.G[:, -1].tobytes()


class TestCompare:
    def test_self_comparison_is_zero(self):
        g = conjugate_greens_closed_form(0.0, 7.0, 1.5)
        assert compare_greens(g, g) == 0.0

    def test_shape_mismatch_rejected(self):
        g1 = conjugate_greens_closed_form(0.0, 7.0, 1.5)
        g2 = conjugate_greens_closed_form(0.0, 8.0, 1.5)
        with pytest.raises(ValueError):
            compare_greens(g1, g2)
        # the same index sets over another base: [0, 6] against [5, 11] and [0.5, 6.5]
        g1 = conjugate_greens_closed_form(0.0, 6.0, 1.5)
        for a in (5.0, 0.5):
            with pytest.raises(ValueError, match="different index sets"):
                compare_greens(g1, conjugate_greens_closed_form(a, a + 6.0, 1.5))
        g1 = conjugate_greens_closed_form(0.3, 6.3, 1.5)  # bases equal to rounding
        assert compare_greens(g1, conjugate_greens_closed_form(0.1 + 0.2, 6.3, 1.5)) == 0.0

    def test_unstated_cells_are_flagged(self):
        g = conjugate_greens_closed_form(0.0, 7.0, 1.5)
        # rows below the base fall outside both stated branch ranges
        assert g.branch_of(-1, 5) == "u*"
        assert g.branch_of(0, 3) == "u"
        assert g.branch_of(3, 3) == "v"
        assert g.branch_of(6, 7) == "v"
