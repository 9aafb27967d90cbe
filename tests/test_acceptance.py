"""End-to-end acceptance checks, one test per criterion.

Each test prints a single live pass line (bypassing capture) so a plain
pytest run shows a per-criterion report.
"""

import math

import numpy as np
import pytest

from nablafrac import (
    BoundarySpec,
    FracOperator,
    GridFunction,
    Grid,
    InitialConditions,
    NearSingularError,
    assemble_ivp,
    build_greens,
    cauchy_function,
    compare_greens,
    conjugate_greens_closed_form,
    dense_solve,
    frac_integral,
    greens_solve,
    homogeneous_basis,
    nabla_n,
    probe_equation_rows,
    residual,
    rl_difference,
    solve_bvp,
    solve_ivp,
    taylor_monomial,
    variation_of_constants,
)
from conftest import max_gap, random_forcing, random_operator


def _report(capsys, num, name):
    with capsys.disabled():
        print(f"criterion {num:2d} PASS: {name}")


def _random_instance(rng, nu=None, b_max=15):
    nu = rng.choice((0.5, 1.5, 2.4)) if nu is None else nu
    n = math.ceil(nu)
    b_off = int(rng.integers(n + 2, b_max + 1))
    op = random_operator(rng, 0.0, float(nu), b_off)
    return op, random_forcing(rng, op)


def test_criterion_01_monomial_correctness(capsys):
    for nu in (0.25, 0.5, 1.5, 2.7):
        for m in range(1, 51):
            product = taylor_monomial(m, nu)
            via_lgamma = math.exp(
                math.lgamma(m + nu) - math.lgamma(m) - math.lgamma(nu + 1)
            )
            assert abs(product - via_lgamma) <= 1e-12 * abs(via_lgamma)
        assert taylor_monomial(0, nu) == 0.0
        assert taylor_monomial(1, nu) == 1.0
    _report(capsys, 1, "product-form monomial vs log-gamma, 1e-12 relative")


def test_criterion_02_composition_rules(capsys):
    rng = np.random.default_rng(11)
    for trial in range(100):
        hi = int(rng.integers(6, 15))  # grid [0, hi] has <= 15 points
        f = GridFunction(Grid(0.0, 0, hi), tuple(rng.uniform(-1, 1, hi + 1)))
        mu = float(rng.choice((0.3, 0.8, 1.5, 2.6)))
        n = int(rng.integers(1, 4))
        lhs = nabla_n(frac_integral(f, 0.0, mu), n)
        d = n - mu
        rhs = rl_difference(f, 0.0, d, extend=True) if d > 0 else frac_integral(f, 0.0, -d)
        assert max_gap(lhs, rhs) <= 1e-10
        back = frac_integral(rl_difference(f, 0.0, mu, extend=True), 0.0, mu)
        assert max_gap(back, f, range(1, hi + 1)) <= 1e-10
    _report(capsys, 2, "composition of whole and fractional operators, 1e-10")


def test_criterion_03_leibniz_rules(capsys):
    rng = np.random.default_rng(13)
    hi = 10
    for trial in range(100):
        kern = rng.uniform(-1, 1, (hi + 1, hi + 1))

        def integral(t):
            return sum(kern[t][s] for s in range(1, t + 1))

        for t in range(1, hi + 1):
            left = integral(t) - integral(t - 1)
            rule1 = sum(kern[t][s] - kern[t - 1][s] for s in range(1, t + 1))
            rule1 += kern[t - 1][t]
            rule2 = sum(kern[t][s] - kern[t - 1][s] for s in range(1, t))
            rule2 += kern[t][t]
            assert abs(left - rule1) <= 1e-12
            assert abs(left - rule2) <= 1e-12
    _report(capsys, 3, "both sum-difference interchange identities, 1e-12")


def test_criterion_04_cauchy_examples(capsys):
    for nu in (0.5, 1.5, 2.4):
        op = FracOperator.constant(0.0, nu, 12)
        cf = cauchy_function(op)
        for s in cf.s_offsets():
            col = cf.column(s)
            for t in col.grid.offsets():
                assert abs(col.at(t) - taylor_monomial(t - (s - 1), nu)) <= 1e-10
    rng = np.random.default_rng(17)
    op = random_operator(rng, 0.0, 1.5, 12, q_range=(0.0, 0.0))
    cf = cauchy_function(op)
    for s in cf.s_offsets():
        inv_p = GridFunction(
            Grid(0.0, s, 12), tuple(1.0 / op.p.at(k) for k in range(s, 13))
        )
        ref = frac_integral(inv_p, float(s - 1), 1.5)
        col = cf.column(s)
        for t in col.grid.offsets():
            expected = ref.at(t) if t >= s - 1 else 0.0
            assert abs(col.at(t) - expected) <= 1e-10
    _report(capsys, 4, "Cauchy function closed forms (basic and general p), 1e-10")


def test_criterion_05_variation_of_constants(capsys):
    rng = np.random.default_rng(19)
    for trial in range(50):
        op, h = _random_instance(rng)
        x1 = solve_ivp(op, h, InitialConditions.zeros(op.N))
        x2 = variation_of_constants(op, h)
        assert max_gap(x1, x2) <= 1e-9
    _report(capsys, 5, "kernel superposition equals forward solve, 1e-9")


def test_criterion_06_operator_residuals(capsys):
    rng = np.random.default_rng(23)
    for trial in range(20):
        op, h = _random_instance(rng)
        ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)))
        assert residual(op, solve_ivp(op, h, ic), h) <= 1e-8
        assert residual(op, variation_of_constants(op, h), h) <= 1e-8
    for trial in range(10):
        op, h = _random_instance(rng, nu=1.5)
        spec = BoundarySpec.conjugate(*rng.uniform(-1, 1, 3))
        assert residual(op, solve_bvp(op, h, spec), h) <= 1e-8
    _report(capsys, 6, "every solver output passes the residual oracle, 1e-8")


def test_criterion_07_d_matrix_determinant(capsys):
    from nablafrac import assemble_d

    rng = np.random.default_rng(37)
    for b in range(4, 21):
        op = FracOperator.constant(0.0, 1.5, b)
        basis = homogeneous_basis(op, analytic=True)
        d = assemble_d(basis, BoundarySpec.conjugate(), op)
        expected = taylor_monomial(b, 1.5) - b
        assert abs(np.linalg.det(d) - expected) <= 1e-12 * abs(expected)
        solve_bvp(op, random_forcing(rng, op), BoundarySpec.conjugate(), basis)  # not refused
    _report(capsys, 7, "conjugate determinant hand expansion, 1e-12 relative")


def test_criterion_08_closed_form_vs_construction(capsys):
    for a, b, nu in ((0, 10, 1.5), (0, 20, 1.25), (3, 9, 1.9)):
        op = FracOperator.constant(float(a), nu, b - a)
        built = build_greens(op, BoundarySpec.conjugate(),
                             homogeneous_basis(op, analytic=True))
        closed = conjugate_greens_closed_form(float(a), float(b), nu)
        assert compare_greens(built, closed) <= 1e-10
    _report(capsys, 8, "constructed kernel matches closed form, 1e-10")


def test_criterion_09_greens_function_solves_bvp(capsys):
    rng = np.random.default_rng(29)
    op = FracOperator.constant(0.0, 1.5, 12)
    spec = BoundarySpec.conjugate()
    basis = homogeneous_basis(op, analytic=True)
    g = build_greens(op, spec, basis)
    for trial in range(50):
        h = random_forcing(rng, op)
        x = greens_solve(g, h)
        assert abs(x.at(0)) <= 1e-9
        assert abs(x.at(1) - x.at(0)) <= 1e-9
        assert abs(x.at(12)) <= 1e-9
        assert residual(op, x, h) <= 1e-8
        assert max_gap(x, solve_bvp(op, h, spec, basis)) <= 1e-8
    _report(capsys, 9, "kernel superposition solves the zero-data BVP, 1e-9/1e-8")


def test_criterion_10_oracle_independence(capsys):
    rng = np.random.default_rng(31)
    for trial in range(50):
        op, h = _random_instance(rng)
        ic = InitialConditions(tuple(rng.uniform(-1, 1, op.N + 1)))
        x = solve_ivp(op, h, ic)
        dense = dense_solve(assemble_ivp(op, h, ic))
        assert max_gap(x, dense) <= 1e-9
    for nu in (0.5, 1.5, 2.4):
        op = random_operator(rng, 0.0, nu, 11)
        sys = assemble_ivp(op, random_forcing(rng, op), InitialConditions.zeros(op.N))
        gap = np.max(np.abs(probe_equation_rows(op) - sys.matrix[2 * op.N:]))
        assert gap <= 1e-10
    _report(capsys, 10, "dense assembly and unit-vector probe agree, 1e-9/1e-10")


def test_criterion_11_degenerate_handling(capsys):
    with pytest.raises(ValueError):
        BoundarySpec(
            alpha=((1.0, 2.0, 0.0), (2.0, 4.0, 0.0)),
            left_values=(0.0, 0.0),
            beta=(1.0, 0.0, 0.0),
            right_value=0.0,
        )
    op = FracOperator.constant(0.0, 1.5, 9)
    basis = homogeneous_basis(op, analytic=True)
    degenerate = (basis[0], basis[0], basis[2])
    with pytest.raises(NearSingularError):
        build_greens(op, BoundarySpec.conjugate(), degenerate)
    _report(capsys, 11, "dependent rows and singular D are refused, never output")
