import logging
import sys
from math import comb

import numpy as np
import pytest

from nablafrac import (
    BoundarySpec,
    FracOperator,
    GhostClosure,
    Grid,
    GridFunction,
    InitialConditions,
    SingularSystemError,
    apply,
    assemble_bvp,
    assemble_ivp,
    build_greens,
    dense_solve,
    greens_solve,
    homogeneous_basis,
    probe_equation_rows,
    residual,
    solve_bvp,
    solve_ivp,
    taylor_monomial,
    zero_forcing,
)
from nablafrac import oracle
from conftest import max_gap, mp_solve_ivp, random_forcing, random_operator


class TestAssembly:
    def test_ivp_system_shape(self):
        # nu = 1.5, b = 10: unknowns x(-1), ..., x(10), so 12 rows
        op = FracOperator.constant(0.0, 1.5, 10)
        sys = assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        assert sys.matrix.shape == (12, 12)
        assert sys.lo == -1

    def test_equation_row_leading_coefficient_is_p(self, rng):
        # the kernel value at lag zero is 1, so x(t) carries weight p(t)
        op = random_operator(rng, 0.0, 1.5, 10)
        sys = assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        for i, t in enumerate(range(3, 11)):
            row = sys.matrix[4 + i]
            assert row[t - sys.lo] == pytest.approx(op.p.at(t), rel=1e-13)
            # nothing ahead of t
            assert np.all(row[t - sys.lo + 1:] == 0.0)

    def test_ivp_initial_value_count_mismatch(self):
        op = FracOperator.constant(0.0, 1.5, 10)
        with pytest.raises(ValueError, match="need 3 initial values, got 2"):
            assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(1))

    def test_bvp_row_count_and_spec_mismatch(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        sys = assemble_bvp(op, zero_forcing(op), BoundarySpec.conjugate(),
                           GhostClosure.zero())
        assert sys.matrix.shape == (11, 11)
        bad = BoundarySpec(
            alpha=((1.0, 0.0),), left_values=(0.0,), beta=(1.0, 0.0), right_value=0.0
        )
        with pytest.raises(ValueError):
            assemble_bvp(op, zero_forcing(op), bad, GhostClosure.zero())


class TestDenseSolve:
    def test_matches_solve_ivp(self, rng):
        for nu in (0.5, 1.5, 2.4):
            for trial in range(5):
                op = random_operator(rng, 0.0, nu, 12)
                h = random_forcing(rng, op)
                ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)))
                x = solve_ivp(op, h, ic)
                dense = dense_solve(assemble_ivp(op, h, ic))
                assert max_gap(x, dense) < 1e-9

    def test_matches_solve_ivp_with_explicit_ghosts(self, rng):
        op = random_operator(rng, 0.0, 2.4, 11)
        h = random_forcing(rng, op)
        ic = InitialConditions(
            tuple(rng.uniform(-1, 1, 4)), GhostClosure.explicit(0.5, -0.25)
        )
        x = solve_ivp(op, h, ic)
        dense = dense_solve(assemble_ivp(op, h, ic))
        assert max_gap(x, dense) < 1e-9

    def test_matches_solve_bvp(self, rng):
        # the structured solver's numeric basis uses zero ghosts, so the
        # dense system with a zero closure targets the same solution
        for trial in range(5):
            op = random_operator(rng, 0.0, 1.5, 12)
            h = random_forcing(rng, op)
            spec = BoundarySpec.conjugate(*rng.uniform(-1, 1, 3))
            x = solve_bvp(op, h, spec)
            dense = dense_solve(assemble_bvp(op, h, spec, GhostClosure.zero()))
            assert max_gap(x, dense) < 1e-9

    def test_matches_greens_solution_given_its_ghost(self):
        # the analytic-basis kernel fixes its own ghost value at a-1;
        # feeding that value back as an explicit closure must reproduce
        # the kernel-superposition solution exactly
        op = FracOperator.constant(0.0, 1.5, 10)
        spec = BoundarySpec.conjugate()
        g = build_greens(op, spec, homogeneous_basis(op, analytic=True))
        rng = np.random.default_rng(7)
        h = random_forcing(rng, op)
        x = greens_solve(g, h)
        dense = dense_solve(
            assemble_bvp(op, h, spec, GhostClosure.explicit(x.at(-1)))
        )
        assert max_gap(x, dense) < 1e-9

    def test_zero_rhs_gives_zero(self, rng):
        op = random_operator(rng, 0.0, 1.5, 9)
        dense = dense_solve(
            assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        )
        assert max(abs(v) for v in dense.values) < 1e-12

    def test_singular_matrix_raises(self):
        op = FracOperator.constant(0.0, 1.5, 8)
        sys = assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        sys.matrix[3] = sys.matrix[2]
        with pytest.raises(SingularSystemError):
            dense_solve(sys)

    def test_zero_row_raises(self):
        op = FracOperator.constant(0.0, 1.5, 8)
        sys = assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        sys.matrix[3] = 0.0
        with pytest.raises(SingularSystemError, match="condition number"):
            dense_solve(sys)

    @pytest.mark.parametrize("variable", [False, True], ids=["basic", "variable"])
    @pytest.mark.parametrize("b", [8, 32])
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5])
    def test_matches_60_digit_forward_solve(self, rng, nu, b, variable):
        op = (random_operator(rng, 0.0, nu, b) if variable
              else FracOperator.constant(0.0, nu, b))
        h = random_forcing(rng, op)
        ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)),
                               GhostClosure.explicit(*rng.uniform(-1, 1, op.N - 1)))
        ref = mp_solve_ivp(op, h, ic)
        dense = dense_solve(assemble_ivp(op, h, ic)).values
        assert np.max(np.abs(dense - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_reaches_no_python_elimination(self, rng, monkeypatch):
        # the oracle must stay independent of the structured solvers' D solve
        def refuse(*args):
            raise AssertionError("the oracle must not call gauss_solve")

        for module in [m for name, m in sys.modules.items() if name.startswith("nablafrac")]:
            if hasattr(module, "gauss_solve"):
                monkeypatch.setattr(module, "gauss_solve", refuse)
        op = random_operator(rng, 0.0, 1.5, 12)
        h = random_forcing(rng, op)
        spec = BoundarySpec.conjugate(*rng.uniform(-1, 1, 3))
        with pytest.raises(AssertionError):
            solve_bvp(op, h, spec)
        dense = dense_solve(assemble_bvp(op, h, spec, GhostClosure.zero()))
        assert residual(op, dense, h) < 1e-12


class TestConditionLogging:
    def test_condition_logged_at_debug(self, rng, caplog):
        op = random_operator(rng, 0.0, 1.5, 8)
        sys = assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2))
        with caplog.at_level(logging.DEBUG, logger="nablafrac.oracle"):
            dense_solve(sys)
        assert "condition number" in caplog.text

    def test_condition_not_computed_when_debug_off(self, rng, monkeypatch, caplog):
        def refuse(*args, **kwargs):
            raise AssertionError("condition number computed with debug logging off")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        caplog.set_level(logging.INFO, logger="nablafrac.oracle")
        op = random_operator(rng, 0.0, 1.5, 8)
        dense_solve(assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(2)))


class TestResidual:
    def test_exact_solution_has_tiny_residual(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        h = random_forcing(rng, op)
        x = solve_ivp(op, h, InitialConditions.zeros(2))
        assert residual(op, x, h) < 1e-10

    def test_perturbation_is_detected(self, rng):
        op = random_operator(rng, 0.0, 1.5, 10)
        h = random_forcing(rng, op)
        x = solve_ivp(op, h, InitialConditions.zeros(2))
        bumped = GridFunction(
            x.grid, tuple(v + (1.0 if k == 7 else 0.0)
                          for k, v in zip(x.grid.offsets(), x.values))
        )
        assert residual(op, bumped, h) > 0.1


class TestProbeRows:
    def test_agrees_with_symbolic_expansion(self, rng):
        for nu in (0.5, 1.5, 2.4):
            op = random_operator(rng, 0.0, nu, 11)
            sys = assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(op.N))
            gap = np.max(np.abs(probe_equation_rows(op) - sys.matrix[2 * op.N:]))
            assert gap < 1e-10

    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    @pytest.mark.parametrize("b", [5, 17, 40])
    def test_bit_identical_to_unit_vector_apply_loop(self, nu, b):
        op = random_operator(np.random.default_rng(b), 0.0, nu, b)
        grid = Grid(op.a, -(op.N - 1), op.b_offset)
        want = np.array([apply(op, GridFunction(grid, e)).values
                         for e in np.eye(len(grid))]).T
        assert probe_equation_rows(op).tobytes() == want.tobytes()


def _per_term_equation_row(op, t, lo, m):
    """Equation row with one scalar monomial per (row, term) pair: the
    reference for the assembly's shared kernel list."""
    n = op.N
    row = np.zeros(m)
    for tau, w in ((t, op.p.at(t)), (t - 1, -op.p.at(t - 1))):
        for s in range(1, tau + 1):
            kern = w * taylor_monomial(tau - s + 1, n - op.nu - 1.0)
            for i in range(n + 1):
                row[s - i - lo] += kern * (-1) ** i * comb(n, i)
    row[t - 1 - lo] += op.q.at(t)
    return row


class TestEquationRowKernel:
    @pytest.mark.parametrize("nu", [0.6, 1.5, 2.5, 3.3])
    def test_rows_bit_identical_to_per_term_evaluation(self, rng, nu):
        op = random_operator(rng, 0.0, nu, 23)
        h = random_forcing(rng, op)
        lo, m = -(op.N - 1), op.b_offset + op.N
        want = np.array([_per_term_equation_row(op, t, lo, m)
                         for t in range(op.N + 1, op.b_offset + 1)])
        ivp = assemble_ivp(op, h, InitialConditions.zeros(op.N))
        bvp = assemble_bvp(op, h, BoundarySpec(
            alpha=tuple(tuple(float(i == j) for j in range(op.N + 1)) for i in range(op.N)),
            left_values=(0.0,) * op.N, beta=(1.0,) + (0.0,) * op.N, right_value=0.0,
        ), GhostClosure.zero())
        assert ivp.matrix[2 * op.N:].tobytes() == want.tobytes()
        assert bvp.matrix[2 * op.N:].tobytes() == want.tobytes()

    def test_one_monomial_evaluation_per_offset(self, rng, monkeypatch):
        calls = []

        def counting(m, nu):
            calls.append(m)
            return taylor_monomial(m, nu)

        monkeypatch.setattr(oracle, "taylor_monomial", counting)
        op = random_operator(rng, 0.0, 1.5, 30)
        assemble_ivp(op, zero_forcing(op), InitialConditions.zeros(op.N))
        assert sorted(calls) == list(range(31))


class TestIndependence:
    def test_assembly_uses_neither_kernel_weights_nor_apply_array(self, rng, monkeypatch):
        cases = []
        for nu in (0.6, 1.5, 2.5, 3.3):
            op = random_operator(rng, 0.0, nu, 15)
            spec = BoundarySpec(tuple(map(tuple, rng.uniform(-2, 2, (op.N, op.N + 1)))),
                                tuple(rng.uniform(-1, 1, op.N)),
                                tuple(rng.uniform(-2, 2, op.N + 1)), 0.5)
            ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)))
            cases.append((op, random_forcing(rng, op), ic, spec))
        def systems(op, h, ic, spec):
            return (assemble_ivp(op, h, ic).matrix.tobytes(),
                    assemble_bvp(op, h, spec, GhostClosure.zero()).matrix.tobytes())

        want = [systems(*case) for case in cases]

        def refuse(*args):
            raise AssertionError("the oracle must not call the structured code")

        for module in [m for name, m in sys.modules.items() if name.startswith("nablafrac")]:
            for name in ("kernel_weights", "apply_array"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError):
            probe_equation_rows(cases[0][0])
        assert [systems(*case) for case in cases] == want
