import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (
    BoundarySpec,
    FracOperator,
    GhostClosure,
    Grid,
    GridFunction,
    NearSingularError,
    NonFiniteError,
    apply,
    assemble_bvp,
    assemble_d,
    boundary_rows,
    constant_grid_function,
    homogeneous_basis,
    make_grid_function,
    residual,
    solve_bvp,
    taylor_monomial,
    zero_forcing,
)
from conftest import max_gap, mp_solve_bvp, random_forcing, random_operator


def functionals(x, alpha_row=(1.0, 0.0, 0.0), beta=(1.0, 0.0, 0.0)):
    """The rows of a spec with left rows (alpha_row, e_2) and right row beta, applied to x."""
    spec = BoundarySpec((alpha_row, (0.0, 0.0, 1.0)), (0.0, 0.0), beta, 0.0)
    return boundary_rows(spec, x.grid.hi) @ x.values


def random_spec(rng, n):
    """General (N,1) rows with random coefficients and values."""
    return BoundarySpec(tuple(map(tuple, rng.uniform(-2, 2, (n, n + 1)))),
                        tuple(rng.uniform(-1, 1, n)), tuple(rng.uniform(-2, 2, n + 1)),
                        float(rng.uniform(-1, 1)))


# Hard cases for the 50-digit comparison, with p = 1: nu within 1e-3, 1e-6
# or 1e-9 of a whole number, N = 3, and q in [-2, -0.5], whose solutions
# grow, or q = 0.
HARD_CASES = dict(
    nu=st.one_of(st.builds(lambda k, sign, j: k + sign * 10.0 ** -j, st.sampled_from([1, 2, 3]),
                           st.sampled_from([-1, 1]), st.sampled_from([3, 6, 9])),
                 st.floats(2.05, 2.95)),
    q=st.one_of(st.just(0.0), st.floats(-2.0, -0.5)),
    b=st.integers(5, 40),
    seed=st.integers(0, 2**32 - 1),
)
# 10x the worst gap over 200 derandomized draws of HARD_CASES (1.02e-12, at
# nu = 2.62, q = 0, b = 40, where the bordered system has cond_1 = 6.0e4)
HARD_CASE_BOUND = 1.0e-11


def hard_case_gap(nu, q, b, seed):
    """max|solve_bvp - 50-digit solve| over max|x|, conjugate-type rows with random values."""
    rng = np.random.default_rng(seed)
    op = FracOperator.constant(0.0, nu, b, q=q)
    n = op.N
    spec = BoundarySpec(tuple(tuple(np.eye(n + 1)[i]) for i in range(n)),
                        tuple(rng.uniform(-1, 1, n)), tuple(np.eye(n + 1)[0]),
                        float(rng.uniform(-1, 1)))
    h = random_forcing(rng, op)
    ref = mp_solve_bvp(op, spec, h.values)
    return np.max(np.abs(solve_bvp(op, h, spec).values - ref)) / np.max(np.abs(ref))


class TestBoundaryEvaluators:
    def test_left_unit_row_picks_endpoint_value(self):
        x = make_grid_function(Grid(0.0, -1, 6), lambda t: t * t + 1)
        assert functionals(x, alpha_row=(1.0, 0.0, 0.0))[0] == x.at(0)

    def test_left_first_difference_row(self):
        x = make_grid_function(Grid(0.0, -1, 6), lambda t: t * t)
        assert functionals(x, alpha_row=(0.0, 1.0, 0.0))[0] == x.at(1) - x.at(0)

    def test_left_mixed_row(self):
        x = make_grid_function(Grid(0.0, -1, 6), lambda t: t)
        assert functionals(x, alpha_row=(1.0, 1.0, 0.0))[0] == 0.0 + 1.0

    def test_right_unit_row_picks_endpoint_value(self):
        x = make_grid_function(Grid(0.0, -1, 6), lambda t: t ** 3)
        assert functionals(x, beta=(1.0, 0.0, 0.0))[2] == x.at(6)

    def test_right_first_difference_of_identity(self):
        x = make_grid_function(Grid(0.0, -1, 6), lambda t: t)
        assert functionals(x, beta=(0.0, 1.0, 0.0))[2] == 1.0

    def test_right_second_difference_of_square(self):
        x = make_grid_function(Grid(0.0, -1, 6), lambda t: t * t)
        assert functionals(x, beta=(0.0, 0.0, 1.0))[2] == 2.0

    def test_rows_equal_the_oracle_boundary_rows(self, rng):
        # the oracle's rows N-1 .. 2N-1 are its own expansion of the same functionals
        for trial in range(60):
            nu = float(rng.choice((0.6, 1.5, 2.5)))
            n = math.ceil(nu)
            b = int(rng.integers(n + 1, 41))
            op = random_operator(rng, 0.0, nu, b)
            spec = BoundarySpec(tuple(map(tuple, rng.uniform(-2, 2, (n, n + 1)))),
                                tuple(rng.uniform(-1, 1, n)),
                                tuple(rng.uniform(-2, 2, n + 1)), 0.5)
            dense = assemble_bvp(op, random_forcing(rng, op), spec, GhostClosure.zero())
            assert boundary_rows(spec, b).tobytes() == dense.matrix[n - 1:2 * n].tobytes()

    def test_domain_shorter_than_n_plus_one_rejected(self):
        with pytest.raises(ValueError):
            boundary_rows(BoundarySpec.conjugate(), 2)


class TestBoundarySpec:
    def test_conjugate_shape(self):
        spec = BoundarySpec.conjugate(1.0, 2.0, 3.0)
        assert spec.N == 2
        assert spec.left_values == (1.0, 2.0)
        assert spec.right_value == 3.0

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec(
                alpha=((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                left_values=(0.0, 0.0),
                beta=(1.0, 0.0, 0.0),
                right_value=0.0,
            )

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec(
                alpha=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                left_values=(0.0, 0.0),
                beta=(0.0, 0.0, 0.0),
                right_value=0.0,
            )

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            BoundarySpec(
                alpha=((1.0, 2.0, 0.0), (2.0, 4.0, 0.0)),
                left_values=(0.0, 0.0),
                beta=(1.0, 0.0, 0.0),
                right_value=0.0,
            )

    @pytest.mark.parametrize("alpha", [((1e-170, 0.0),), ((1e-11, 0.0),)])
    def test_tiny_rows_accepted(self, alpha):
        # a zero test on sum(v*v) underflows, and an absolute rank tolerance sees rank 0
        spec = BoundarySpec(alpha, (0.0,), (1e-170, 0.0), 0.0)
        assert spec.alpha == alpha

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_data_rejected(self, bad):
        for alpha, beta, right in [(((bad, 0.0),), (1.0, 0.0), 0.0),
                                   (((1.0, 0.0),), (1.0, bad), 0.0),
                                   (((1.0, 0.0),), (1.0, 0.0), bad)]:
            with pytest.raises(ValueError, match="finite"):
                BoundarySpec(alpha, (0.0,), beta, right)

    @pytest.mark.parametrize("scale", [1e-170, 1e-11, 1.0, 1e150])
    def test_dependent_rows_rejected_at_every_scale(self, scale):
        with pytest.raises(ValueError, match="dependent"):
            BoundarySpec(
                alpha=((scale, 3 * scale, 0.0), (3 * scale, 9 * scale, 0.0)),
                left_values=(0.0, 0.0),
                beta=(1.0, 0.0, 0.0),
                right_value=0.0,
            )

    @pytest.mark.parametrize("alpha, left, beta, match", [
        ((), (), (1.0,), "at least one"),
        (((1.0, 0.0),), (0.0,), (1.0,), "beta must have 2"),
        (((1.0, 0.0),), (), (1.0, 0.0), "need 1 left"),
    ])
    def test_missing_rows_or_entries_rejected(self, alpha, left, beta, match):
        with pytest.raises(ValueError, match=match):
            BoundarySpec(alpha, left, beta, 0.0)

    def test_wrong_row_width_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec(
                alpha=((1.0, 0.0), (0.0, 1.0)),
                left_values=(0.0, 0.0),
                beta=(1.0, 0.0, 0.0),
                right_value=0.0,
            )


class TestDMatrix:
    def test_conjugate_analytic_entries(self):
        b = 8
        op = FracOperator.constant(0.0, 1.5, b)
        basis = homogeneous_basis(op, analytic=True)
        d = assemble_d(basis, BoundarySpec.conjugate(), op)
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, float(b), taylor_monomial(b, 1.5)],
        ])
        assert np.max(np.abs(d - expected)) < 1e-12

    def test_conjugate_determinant_hand_expansion(self):
        for b in range(4, 21):
            op = FracOperator.constant(0.0, 1.5, b)
            basis = homogeneous_basis(op, analytic=True)
            d = assemble_d(basis, BoundarySpec.conjugate(), op)
            expected = taylor_monomial(b, 1.5) - b
            assert np.linalg.det(d) == pytest.approx(expected, rel=1e-12)
            solve_bvp(op, zero_forcing(op), BoundarySpec.conjugate(), basis)  # not refused

    def test_numeric_basis_top_rows_are_alpha_rows(self, rng):
        # identity initial data makes row i of D equal alpha row i
        op = random_operator(rng, 0.0, 1.5, 9)
        basis = homogeneous_basis(op)
        spec = BoundarySpec(
            alpha=((1.0, 2.0, -1.0), (0.5, 0.0, 3.0)),
            left_values=(0.0, 0.0),
            beta=(1.0, 1.0, 0.0),
            right_value=0.0,
        )
        d = assemble_d(basis, spec, op)
        assert np.max(np.abs(d[:2] - np.array(spec.alpha))) < 1e-12

    def test_spec_and_basis_must_fit_the_operator(self):
        op = FracOperator.constant(0.0, 1.5, 9)
        basis = homogeneous_basis(op)
        one_row = BoundarySpec(((1.0, 0.0),), (0.0,), (1.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="N=1 but operator has N=2"):
            assemble_d(basis, one_row, op)
        with pytest.raises(ValueError, match="N=1 but operator has N=2"):
            solve_bvp(op, zero_forcing(op), one_row)
        with pytest.raises(ValueError, match="need 3 basis functions, got 2"):
            assemble_d(basis[:2], BoundarySpec.conjugate(), op)

    def test_zero_basis_column_kills_determinant(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        basis = list(homogeneous_basis(op))
        basis[1] = GridFunction(basis[1].grid, (0.0,) * len(basis[1].grid))
        d = assemble_d(basis, BoundarySpec.conjugate(), op)
        assert np.linalg.det(d) == 0.0
        with pytest.raises(NearSingularError, match="condition number"):
            solve_bvp(op, zero_forcing(op), BoundarySpec.conjugate(), basis)


class TestSolveBvp:
    def test_zero_data_gives_trivial_solution(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        x = solve_bvp(op, zero_forcing(op), BoundarySpec.conjugate())
        assert max(abs(v) for v in x.values) < 1e-12

    def test_an_answer_past_float64_is_refused(self):
        # the system is well conditioned; its solve overflows on h = 1e308
        op = FracOperator.constant(0.0, 1.5, 12)
        # the solve fills every entry with NaN, so no max|x| before offset -1 is quoted
        with pytest.raises(NonFiniteError, match=r"offset -1 \(t = -1\); no value is finite$"):
            solve_bvp(op, constant_grid_function(op.rows, 1e308), BoundarySpec.conjugate())

    def test_boundary_residuals_on_random_instances(self, rng):
        for trial in range(8):
            op = random_operator(rng, 0.0, 1.5, 12)
            h = random_forcing(rng, op)
            spec = BoundarySpec.conjugate(*rng.uniform(-1, 1, 3))
            x = solve_bvp(op, h, spec)
            assert residual(op, x, h) < 1e-8
            got = boundary_rows(spec, 12) @ x.values
            assert got.tolist() == pytest.approx(spec.values, abs=1e-9)

    def test_general_left_rows(self, rng):
        op = random_operator(rng, 0.0, 1.5, 11)
        h = random_forcing(rng, op)
        spec = BoundarySpec(
            alpha=((1.0, -1.0, 0.5), (0.0, 2.0, 1.0)),
            left_values=(0.3, -0.7),
            beta=(1.0, 0.5, 0.0),
            right_value=0.9,
        )
        x = solve_bvp(op, h, spec)
        assert residual(op, x, h) < 1e-8
        got = boundary_rows(spec, 11) @ x.values
        assert got.tolist() == pytest.approx([0.3, -0.7, 0.9], abs=1e-9)

    def test_invariant_under_basis_scaling(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        h = random_forcing(rng, op)
        spec = BoundarySpec.conjugate(0.1, -0.2, 0.3)
        basis = homogeneous_basis(op)
        scaled = tuple(
            GridFunction(x.grid, tuple(c * v for v in x.values))
            for c, x in zip((2.0, -0.5, 10.0), basis)
        )
        x1 = solve_bvp(op, h, spec, basis)
        x2 = solve_bvp(op, h, spec, scaled)
        assert max_gap(x1, x2) < 1e-9

    def test_invariant_under_basis_recombination(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        h = random_forcing(rng, op)
        spec = BoundarySpec.conjugate(0.1, -0.2, 0.3)
        basis = homogeneous_basis(op)
        mix = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -2.0], [1.0, 0.0, 1.0]])
        recombined = tuple(
            GridFunction(
                basis[0].grid,
                tuple(
                    sum(mix[j, i] * basis[j].at(k) for j in range(3))
                    for k in basis[0].grid.offsets()
                ),
            )
            for i in range(3)
        )
        x1 = solve_bvp(op, h, spec, basis)
        x2 = solve_bvp(op, h, spec, recombined)
        assert max_gap(x1, x2) < 1e-9

    @pytest.mark.parametrize("b", [8, 33, 80])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_default_basis_is_the_numeric_basis_bit_for_bit(self, rng, nu, b):
        op = random_operator(rng, 0.0, nu, b)
        h = random_forcing(rng, op)
        spec = random_spec(rng, op.N)
        assert (solve_bvp(op, h, spec).values.tobytes()
                == solve_bvp(op, h, spec, homogeneous_basis(op)).values.tobytes())

    def test_default_basis_needs_no_ivp_solve(self, rng, monkeypatch):
        # only the numeric basis's window enters, and it is known without solving
        def refuse(*args):
            raise AssertionError("solve_ivp called by solve_bvp")

        monkeypatch.setattr("nablafrac.ivp.solve_ivp", refuse)
        for nu in (0.6, 1.5, 2.5):
            op = random_operator(rng, 0.0, nu, 30)
            x = solve_bvp(op, random_forcing(rng, op), random_spec(rng, op.N))
            assert len(x.values) == 30 + op.N

    def test_singular_basis_raises_near_singular(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        basis = homogeneous_basis(op)
        with pytest.raises(NearSingularError):
            solve_bvp(op, zero_forcing(op), BoundarySpec.conjugate(),
                      (basis[0], basis[0], basis[2]))

    def test_nontrivial_homogeneous_solutions_iff_singular_d(self, rng):
        # nullspace probe: det(D) = 0 exactly when some basis combination
        # satisfies the homogeneous boundary conditions nontrivially
        op = random_operator(rng, 0.0, 1.5, 10)
        basis = homogeneous_basis(op)
        spec = BoundarySpec.conjugate()
        d = assemble_d(basis, spec, op)
        _, svals, _ = np.linalg.svd(d)
        assert (abs(np.linalg.det(d)) < 1e-10) == (svals[-1] < 1e-10)


class TestAgainst50Digits:
    """solve_bvp against the 50-digit superposition built from the definitions."""

    @pytest.mark.parametrize("b", [12, 40])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5])
    def test_variable_coefficients_general_rows(self, rng, nu, b):
        op = random_operator(rng, 0.0, nu, b)
        h = random_forcing(rng, op)
        spec = random_spec(rng, op.N)
        ref = mp_solve_bvp(op, spec, h.values)
        x = solve_bvp(op, h, spec).values
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**HARD_CASES)
    def test_hard_cases(self, nu, q, b, seed):
        assert hard_case_gap(nu, q, b, seed) <= HARD_CASE_BOUND

    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5])
    def test_growing_basis(self, rng, nu):
        # q = -1 makes the basis grow by orders of magnitude over [a, b]
        # while x stays O(1): what single shooting lost to cancellation
        op = FracOperator.constant(0.0, nu, 40, q=-1.0)
        n = op.N
        spec = BoundarySpec(tuple(tuple(np.eye(n + 1)[i]) for i in range(n)),
                            tuple(rng.uniform(-1, 1, n)), tuple(np.eye(n + 1)[0]), 0.5)
        h = random_forcing(rng, op)
        ref = mp_solve_bvp(op, spec, h.values)
        x = solve_bvp(op, h, spec).values
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
