import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nablafrac import (BoundarySpec, FracOperator, GreensFunction, Grid, GridFunction,
                       build_greens, cauchy_function, conjugate_greens_closed_form,
                       homogeneous_basis, solve_ivp, taylor_monomial)
from nablafrac import bvp, cli, greens, ivp, linalg
from nablafrac.cli import _fmt, main
from nablafrac.operator import apply_array
from conftest import mp_solve_bvp, mp_solve_ivp


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def ivp_config(**overrides):
    cfg = {
        "a": 0.0,
        "b_offset": 8,
        "nu": 1.5,
        "p": 1.0,
        "q": 0.0,
        "h": 1.0,
        "problem": {"type": "ivp", "A": [0.0, 0.0, 0.0]},
    }
    cfg.update(overrides)
    return cfg


def variable_ivp_config(rng, nu, b):
    """An ivp config with random variable p, q, h and initial values."""
    n = int(np.ceil(nu))
    return {"a": 0.0, "b_offset": b, "nu": nu,
            "p": {"values": rng.uniform(0.5, 2.0, b - n + 1).tolist(), "start": n},
            "q": {"values": rng.uniform(-1.0, 1.0, b - n).tolist(), "start": n + 1},
            "h": {"values": rng.uniform(-1.0, 1.0, b - n).tolist(), "start": n + 1},
            "problem": {"type": "ivp", "A": rng.uniform(-1.0, 1.0, n + 1).tolist()}}


def mp_gap(cfg):
    """max|solve_ivp - 60-digit solve| over max|x| for an ivp config."""
    op = cli.build_operator(cfg)
    h = cli.build_forcing(cfg, op)
    ic = cli.build_initial_conditions(cfg["problem"], op)
    ref = mp_solve_ivp(op, h, ic)
    return np.max(np.abs(solve_ivp(op, h, ic).values - ref)) / np.max(np.abs(ref))


VARIABLE_PQ = {"p": {"values": [1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 1.0], "start": 2},
               "q": {"values": [0.1, -0.2, 0.3, 0.0, 0.1, -0.1], "start": 3}}


def variable_greens_config(rng, nu, b, q_range):
    """A greens config with p ~ U(0.5, 1.5), q ~ U(q_range) and h ~ U(-1, 1)."""
    return {"a": 0.0, "b_offset": b, "nu": nu,
            "p": {"values": rng.uniform(0.5, 1.5, b - 1).tolist(), "start": 2},
            "q": {"values": rng.uniform(*q_range, b - 2).tolist(), "start": 3},
            "h": {"values": rng.uniform(-1.0, 1.0, b - 2).tolist(), "start": 3},
            "problem": {"type": "greens"}}


class TestMonomial:
    def test_table_values_round_trip(self, tmp_path):
        out = tmp_path / "mono.csv"
        assert main(["monomial", "--nu", "1.5", "--lo", "0", "--hi", "6",
                     "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["offset", "t", "H"]
        for offset, t, h in rows:
            expected = taylor_monomial(int(offset), 1.5)
            # %.17g output parses back to the identical binary64 value
            assert float(h) == expected

    def test_whole_orders_print_exact_values(self, capsys):
        # at nu = 170 the float product printed inf for H(2) and H(3), at 171
        # the division by 171! raised, and at 1e308 the product never ended
        for nu, last in (("170", ["2,2,171", "3,3,14706"]), ("171", ["2,2,172", "3,3,14878"]),
                         ("1e308", ["2,2,1e+308", "3,3,inf"])):
            assert main(["monomial", "--nu", nu, "--hi", "3"]) == 0
            assert capsys.readouterr().out.splitlines()[-2:] == last

    @pytest.mark.parametrize("nu", [-0.5, -0.999, 1.5, 2.7, -1.5])
    def test_fractional_table_is_taylor_monomial_row_by_row(self, capsys, nu):
        # the table carries one product from row to row, which must be the one
        # taylor_monomial takes for each row alone
        assert main(["monomial", f"--nu={nu}", "--lo=-4", "--hi=300", "--a=0.5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(k) for k, _, _ in rows] == list(range(-4, 301))
        for k, t, h in rows:
            assert float(t) == 0.5 + int(k)
            assert float(h) == taylor_monomial(int(k), nu)
        assert main(["monomial", f"--nu={nu}", "--lo=120", "--hi=125"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(h) for _, _, h in rows] == [taylor_monomial(k, nu) for k in range(120, 126)]

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["monomial", "--nu", "0.5", "--hi", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("offset")
        assert len(lines) == 5


class TestSolveIvp:
    def test_zero_problem_gives_zero_column(self, tmp_path):
        cfg = ivp_config(h=0.0)
        out = tmp_path / "x.csv"
        assert main(["solve-ivp", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 10  # offsets -1 .. 8
        assert all(float(x) == 0.0 for _, _, x in rows)

    def test_tabulated_coefficients_accepted(self, tmp_path):
        cfg = ivp_config(
            p={"values": [1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 1.0], "start": 2},
            q={"values": [0.1, -0.2, 0.3, 0.0, 0.1, -0.1], "start": 3},
        )
        assert main(["solve-ivp", "--config", write_config(tmp_path, cfg)]) == 0

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        cfg = ivp_config()
        del cfg["nu"]
        assert main(["solve-ivp", "--config", write_config(tmp_path, cfg)]) == 1
        assert "nu" in capsys.readouterr().err

    def test_integer_order_is_config_error(self, tmp_path):
        assert main(["solve-ivp", "--config",
                     write_config(tmp_path, ivp_config(nu=2.0))]) == 1

    def test_wrong_coefficient_coverage_is_config_error(self, tmp_path):
        cfg = ivp_config(p={"values": [1.0, 1.0], "start": 2})
        assert main(["solve-ivp", "--config", write_config(tmp_path, cfg)]) == 1

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve-ivp", "--config", str(path)]) == 1

    @pytest.mark.parametrize("content, message", [
        pytest.param(b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "nested too deeply",
                     id="nested-past-the-recursion-limit"),
        pytest.param(b'{"a": ' + b"1" * 5000 + b"}", "value has 5000 digits",
                     id="int-of-5000-digits"),
        pytest.param(b'\xff{"a": 1}', "can't decode byte 0xff in position 0", id="not-utf-8"),
    ])
    def test_unreadable_json_is_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        assert main(["verify", "--config", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error: config field '<json>': ") and message in out.err
        assert "set_int_max_str_digits" not in out.err

    def test_top_level_array_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert main(["solve-ivp", "--config", str(path)]) == 1
        assert "must be an object" in capsys.readouterr().err

    def test_other_problem_type_is_config_error(self, tmp_path, capsys):
        cfg = ivp_config(problem={"type": "bvp"})
        assert main(["solve-ivp", "--config", write_config(tmp_path, cfg)]) == 1
        assert "'problem.type'" in capsys.readouterr().err

    def test_zero_ghost_mode_is_the_default(self, tmp_path, capsys):
        outputs = []
        for ghost in [{}, {"ghost": {"mode": "zero"}}]:
            cfg = ivp_config(h=0.5, problem={"type": "ivp", "A": [0.1, -0.2, 0.3], **ghost})
            assert main(["solve-ivp", "--config", write_config(tmp_path, cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["solve-ivp", "verify"])
    @pytest.mark.parametrize("ghost", [{"values": [5.0]}, {"mode": "zero", "values": [5.0]}])
    def test_ghost_values_need_the_explicit_mode(self, tmp_path, capsys, command, ghost):
        # values beside the zero mode were dropped: x(8) came out 37.35, not 49.72
        cfg = ivp_config(problem={"type": "ivp", "A": [0.1, -0.2, 0.3], "ghost": ghost})
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("error: config field 'problem.ghost.values'")


class TestCauchy:
    def test_rows_are_the_cauchy_function_columns(self, tmp_path):
        cfg = ivp_config(**VARIABLE_PQ)
        out = tmp_path / "x.csv"
        assert main(["cauchy", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["t_offset", "t", "s_offset", "s", "x"]
        cf = cauchy_function(FracOperator(0.0, 1.5,
                                          GridFunction(Grid(0.0, 2, 8), cfg["p"]["values"]),
                                          GridFunction(Grid(0.0, 3, 8), cfg["q"]["values"])))
        want = [[str(k), _fmt(k), str(s), _fmt(s), _fmt(cf.column(s).at(k))]
                for s in cf.rows.offsets() for k in cf.column(s).grid.offsets()]
        assert rows == want


class TestSolveBvp:
    def test_conjugate_problem(self, tmp_path):
        cfg = ivp_config()
        cfg["problem"] = {
            "type": "bvp",
            "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "A": [0.0, 0.0],
            "beta": [1.0, 0.0, 0.0],
            "B": 0.0,
        }
        out = tmp_path / "x.csv"
        assert main(["solve-bvp", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        by_offset = {int(k): float(x) for k, _, x in rows}
        assert by_offset[0] == pytest.approx(0.0, abs=1e-10)
        assert by_offset[8] == pytest.approx(0.0, abs=1e-10)

    def test_dependent_rows_are_config_error(self, tmp_path):
        cfg = ivp_config()
        cfg["problem"] = {
            "type": "bvp",
            "alpha": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            "A": [0.0, 0.0],
            "beta": [1.0, 0.0, 0.0],
            "B": 0.0,
        }
        assert main(["solve-bvp", "--config", write_config(tmp_path, cfg)]) == 1

    def test_growing_basis_is_solved(self, tmp_path):
        # q = -1 makes the basis grow to 5.5e14 while x stays O(1); the
        # bordered solve reads only the basis's initial window (cond_1 ~ 1e2)
        cfg = ivp_config(b_offset=30, nu=2.5, q=-1.0)
        cfg["problem"] = {
            "type": "bvp",
            "alpha": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            "A": [0.0, 0.0, 0.0],
            "beta": [1.0, 0.0, 0.0, 0.0],
            "B": 0.0,
        }
        out = tmp_path / "x.csv"
        assert main(["solve-bvp", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        x = np.array([float(row[2]) for row in read_csv(str(out))[1]])
        op = cli.build_operator(cfg)
        ref = mp_solve_bvp(op, cli.build_boundary_spec(cfg["problem"], op),
                           cli.build_forcing(cfg, op).values)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_d_exits_two(self, tmp_path, capsys):
        # constants solve L x = 0 when q = 0 and meet both difference rows,
        # so det D = 0: the problem has no unique solution
        cfg = ivp_config(nu=0.6)
        cfg["problem"] = {"type": "bvp", "alpha": [[0.0, 1.0]], "A": [0.0],
                          "beta": [0.0, 1.0], "B": 0.0}
        assert main(["solve-bvp", "--config", write_config(tmp_path, cfg)]) == 2
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert out.out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and "condition number" in lines[0]


def conjugate_config(**overrides):
    """A greens config with p == 1 and q == 0, whose G is the closed form."""
    return ivp_config(problem={"type": "greens"}, **overrides)


class TestGreens:
    def test_conjugate_closed_form_contains_spot_value(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["greens", "--config", write_config(tmp_path, conjugate_config(b_offset=4)),
                     "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        cells = {(int(r[0]), int(r[2])): (float(r[4]), r[5]) for r in rows}
        value, branch = cells[(2, 4)]
        assert value == pytest.approx(-0.195122, abs=1e-6)
        assert branch == "u"

    def test_degenerate_order_exits_two(self, tmp_path):
        cfg = conjugate_config(b_offset=3, nu=1.0000000000001)
        assert main(["greens", "--config", write_config(tmp_path, cfg)]) == 2

    def test_missing_parameters_is_config_error(self, tmp_path, capsys):
        cfg = {k: v for k, v in conjugate_config(b_offset=4).items() if k != "nu"}
        assert main(["greens", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "error: config field 'nu': missing\n"

    def test_config_gives_the_g_that_verify_checks(self, tmp_path):
        cfg = {"a": 0, "b_offset": 12, "nu": 1.5, "p": 1, "q": 0, "h": 1,
               "problem": {"type": "greens"}}
        out = tmp_path / "g.csv"
        assert main(["greens", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        closed = conjugate_greens_closed_form(0.0, 12.0, 1.5)
        stated = [(float(g), closed.value(int(t), int(s)))
                  for t, _, s, _, g, branch in rows if branch != "u*"]
        assert len(stated) == np.count_nonzero(closed.branch != "u*")
        assert max(abs(g - c) for g, c in stated) < 1e-10 * np.max(np.abs(closed.G))

    def test_basic_config_prints_the_closed_form_with_no_cauchy_function(self, tmp_path,
                                                                         monkeypatch):
        # p == 1 and q == 0: the closed form, bit for bit, and no bordered solve
        def no_cauchy(op):
            raise AssertionError("greens called cauchy_function")

        monkeypatch.setattr(greens, "cauchy_function", no_cauchy)
        out = tmp_path / "g.csv"
        assert main(["greens", "--config", write_config(tmp_path, conjugate_config(b_offset=12)),
                     "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        g = conjugate_greens_closed_form(0.0, 12.0, 1.5)
        assert [(int(t), int(s)) for t, _, s, _, _, _ in rows] == [
            (t, s) for t in g.grid.offsets() for s in g.rows.offsets()]
        assert [(value, branch) for _, _, _, _, value, branch in rows] == [
            (_fmt(g.value(t, s)), g.branch_of(t, s))
            for t in g.grid.offsets() for s in g.rows.offsets()]

    def test_config_with_variable_coefficients(self, tmp_path):
        # G over the numeric basis, cell for cell, whose window the CLI reads unsolved
        cfg = ivp_config(problem={"type": "greens"}, **VARIABLE_PQ)
        out = tmp_path / "g.csv"
        assert main(["greens", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        op = cli.build_operator(cfg)
        g = build_greens(op, BoundarySpec.conjugate(), homogeneous_basis(op))
        assert [(int(t), int(s)) for t, _, s, _, _, _ in rows] == [
            (t, s) for t in g.grid.offsets() for s in g.rows.offsets()]
        for t, _, s, _, value, branch in rows:
            assert float(value) == g.value(int(t), int(s))
            assert branch == g.branch_of(int(t), int(s))

    def test_variable_config_prints_greens_matrix_with_no_cauchy_function(self, tmp_path,
                                                                         monkeypatch):
        # G alone: build_greens's G, bit for bit, and none of its O(b^4) u
        cfg = ivp_config(problem={"type": "greens"}, **VARIABLE_PQ)
        op = cli.build_operator(cfg)
        g = build_greens(op, BoundarySpec.conjugate())

        def no_cauchy(op):
            raise AssertionError("greens called cauchy_function")

        for module in (ivp, greens, cli):
            monkeypatch.setattr(module, "cauchy_function", no_cauchy)
        out = tmp_path / "g.csv"
        assert main(["greens", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        assert [tuple(r) for r in rows] == [
            (str(t), _fmt(t), str(s), _fmt(s), _fmt(g.value(t, s)), g.branch_of(t, s))
            for t in g.grid.offsets() for s in g.rows.offsets()]

    @pytest.mark.parametrize("overrides, named", [
        ({"problem": {"type": "greens", "conjugate": True}}, "'problem.conjugate'"),
        ({"nu": 2.5, "problem": {"type": "greens"}}, "config field 'nu'"),
        ({"problem": {"type": "greens", "conjugate": "false"}}, "'problem.conjugate'"),
    ])
    def test_config_refusals(self, tmp_path, capsys, overrides, named):
        assert main(["greens", "--config", write_config(tmp_path, ivp_config(**overrides))]) == 1
        assert named in capsys.readouterr().err


class TestVerify:
    def test_valid_ivp_passes(self, tmp_path, capsys):
        assert main(["verify", "--config",
                     write_config(tmp_path, ivp_config())]) == 0
        report = capsys.readouterr().out
        assert "all checks passed" in report
        assert "PASS" in report

    def test_valid_bvp_passes(self, tmp_path):
        cfg = ivp_config()
        cfg["problem"] = {
            "type": "bvp",
            "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "A": [0.2, -0.1],
            "beta": [1.0, 0.0, 0.0],
            "B": 0.5,
        }
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0

    def test_valid_greens_passes(self, tmp_path):
        cfg = ivp_config()
        cfg["problem"] = {"type": "greens"}
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0

    def test_invalid_config_exits_one(self, tmp_path):
        assert main(["verify", "--config",
                     write_config(tmp_path, ivp_config(b_offset=1))]) == 1

    @pytest.mark.parametrize("problem", [
        {"type": "ivp", "A": [0.0, 0.0]},
        {"type": "ivp", "A": [0.0, [1.0], 0.0]},
        {"type": "ivp", "A": "0 0 0"},
        {"type": "ivp", "A": [0.0, 0.0, 0.0],
         "ghost": {"mode": "explicit", "values": [1.0, 2.0]}},
        {"type": "bvp", "alpha": [[1.0, 0.0]], "A": [0.0], "beta": [1.0, 0.0], "B": 0.0},
        {"type": "greens-ish"},
        {"type": "ivp", "A": [0.0, 0.0, 0.0], "ghost": [1.0]},
        {"type": "ivp", "A": [0.0, 0.0, 0.0], "ghost": {"mode": "reflect"}},
        {"type": "bvp", "alpha": "rows", "A": [0.0, 0.0], "beta": [1.0, 0.0, 0.0], "B": 0.0},
    ])
    def test_malformed_problem_exits_one_before_any_check(self, tmp_path, capsys, problem):
        cfg = ivp_config(problem=problem)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
        out = capsys.readouterr()
        assert "check" not in out.out
        assert "problem" in out.err

    def test_greens_with_q_not_zero_passes(self, tmp_path, capsys):
        # the G that greens prints for this file, judged against the oracle's answer
        cfg = ivp_config(q=0.5, problem={"type": "greens"})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr()
        assert "check 3: greens-oracle-agreement" in out.out and out.err == ""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("b", [32, 80])
    @pytest.mark.parametrize("nu", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("q_range", [(-3.0, 0.0), (0.0, 1.0)], ids=["q-neg", "q-pos"])
    def test_variable_greens_configs_pass(self, tmp_path, capsys, q_range, nu, b, seed):
        cfg = variable_greens_config(np.random.default_rng(seed), nu, b, q_range)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.endswith("verify: all checks passed\n")

    def test_printed_g_skewed_in_one_column_fails_the_oracle_agreement(self, tmp_path,
                                                                      monkeypatch, capsys):
        # column s = a+8 of G off by a relative 1e-6: x = G h is 3.1e-8 of max|x| from
        # the oracle's answer, while both scaled residuals stay below 1e-8
        greens_matrix = cli.greens_matrix

        def skewed(*args):
            g = greens_matrix(*args)
            g[:, 5] *= 1 + 1e-6
            return g

        monkeypatch.setattr(cli, "greens_matrix", skewed)
        cfg = variable_greens_config(np.random.default_rng(0), 1.5, 40, (-3.0, 0.0))
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 13
        line = capsys.readouterr().out.splitlines()[3]
        assert line.startswith("check 3: greens-oracle-agreement") and line.endswith("FAIL")

    def test_wrong_bordered_row_fails_the_closed_form_check(self, tmp_path, monkeypatch, capsys):
        # one equation row of the bordered matrix scaled by 1 + 1e-6, its right-hand
        # side kept: every column solved with that LU is wrong alike, so only a G
        # from elsewhere, the closed form, shows it (9.5e-7 of max|G|)
        def wrong_row(matrix, rhs):
            matrix = np.array(matrix)
            matrix[len(matrix) // 2] *= 1 + 1e-6
            return linalg.gauss_solve(matrix, rhs)

        monkeypatch.setattr(bvp, "gauss_solve", wrong_row)
        cfg = conjugate_config(b_offset=32)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 11
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("check 1: greens-closed-form-agreement") and line.endswith("FAIL")

    def test_greens_order_outside_conjugate_range_before_any_check(self, tmp_path, capsys):
        # the refusal greens gives for the same file
        cfg = ivp_config(nu=2.5, problem={"type": "greens"})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
        out = capsys.readouterr()
        assert "check" not in out.out
        assert out.err == ("error: config field 'nu': the (2,1) conjugate G needs nu in "
                           "(1, 2), got 2.5\n")

    BVP_CHECKS = ["probe-vs-symbolic-rows", "bvp-equation-residual", "bvp-boundary-residual",
                  "bvp-oracle-agreement"]

    @pytest.mark.parametrize("nu, problem, coefficients, names", [
        (1.5, {"type": "ivp", "A": [0.1, -0.2, 0.3]}, {},
         ["probe-vs-symbolic-rows", "ivp-equation-residual", "ivp-oracle-agreement"]),
        (1.5, {"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "A": [0.2, -0.1],
               "beta": [1.0, 0.0, 0.0], "B": 0.5}, {}, BVP_CHECKS),
        # the oracle's side rows start at row N-1, so N = 1 and N = 3 read other slices
        (0.5, {"type": "bvp", "alpha": [[1.0, 0.0]], "A": [0.2], "beta": [1.0, 0.0], "B": 0.5},
         {}, BVP_CHECKS),
        (2.5, {"type": "bvp", "alpha": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0]],
               "A": [0.2, -0.1, 0.3], "beta": [1.0, 0.0, 0.0, 0.0], "B": 0.5}, {}, BVP_CHECKS),
        (1.5, {"type": "greens"}, {},
         ["probe-vs-symbolic-rows", "greens-closed-form-agreement",
          "greens-equation-residual", "greens-boundary-residual"]),
        (1.5, {"type": "greens"}, VARIABLE_PQ,
         ["probe-vs-symbolic-rows", "greens-equation-residual", "greens-boundary-residual",
          "greens-oracle-agreement"]),
    ], ids=["ivp", "bvp", "bvp-N1", "bvp-N3", "greens", "greens-variable"])
    def test_check_names_and_order(self, tmp_path, monkeypatch, capsys, nu, problem,
                                   coefficients, names):
        # with no Cauchy function: G is the closed form or the bordered solve alone,
        # and the O(b^4) Cauchy function is only for build_greens's u
        def no_cauchy(op):
            raise AssertionError("verify called cauchy_function")

        for module in (ivp, greens, cli):
            monkeypatch.setattr(module, "cauchy_function", no_cauchy)
        cfg = ivp_config(nu=nu, problem=problem, **coefficients)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("check ")]
        assert [ln.split(": ")[0] for ln in lines] == [f"check {k}" for k in range(len(names))]
        assert [ln.split(": ")[1] for ln in lines] == names

    @pytest.mark.parametrize("problem, coefficients", [
        ({"type": "ivp", "A": [0.1, -0.2, 0.3]}, {"q": 0.3}),
        ({"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "A": [0.2, -0.1],
          "beta": [1.0, 0.0, 0.0], "B": 0.5}, {"q": 0.3}),
        ({"type": "greens"}, {}),
        ({"type": "greens"}, VARIABLE_PQ),
    ], ids=["ivp", "bvp", "greens", "greens-variable"])
    def test_applies_the_operator_to_an_identity_once(self, tmp_path, monkeypatch, problem,
                                                      coefficients):
        # the solvers and the probe read one op.matrix
        identities = []

        def counting(op, x):
            if x.ndim == 2 and np.array_equal(x, np.eye(len(x))):
                identities.append(len(x))
            return apply_array(op, x)

        for module in [m for name, m in sys.modules.items() if name.startswith("nablafrac")]:
            if hasattr(module, "apply_array"):
                monkeypatch.setattr(module, "apply_array", counting)
        cfg = ivp_config(problem=problem, **coefficients)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        assert identities == [len(cli.build_operator(cfg).grid)]

    def test_greens_config_factors_its_bordered_system_once(self, tmp_path, monkeypatch):
        # the printed G is the closed form, and its reference one gauss_solve of I
        calls = []

        def counting(matrix, rhs):
            calls.append(np.shape(rhs))
            return linalg.gauss_solve(matrix, rhs)

        monkeypatch.setattr(bvp, "gauss_solve", counting)
        cfg = conjugate_config(b_offset=12)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        assert calls == [(14 + 3, 10)]  # b+N values and N+1 coefficients; I on 10 rows

    def test_failing_check_exits_ten_plus_its_number(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "DEFAULT_TOL", 1e-300)
        cfg = ivp_config(q=0.3, problem={"type": "ivp", "A": [0.1, -0.2, 0.3]})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 11
        out = capsys.readouterr().out
        assert "check 1: ivp-equation-residual" in out and "FAIL" in out
        assert "check 2: ivp-oracle-agreement" in out
        assert "all checks passed" not in out

    def test_growing_answer_is_judged_relative_to_its_size(self, tmp_path, capsys):
        # variable p, q and nu = 2.5 at b = 32: x grows to about 1.7e6, and
        # the solver and the dense oracle differ by 1e-5 in absolute terms
        cfg = variable_ivp_config(np.random.default_rng(1), 2.5, 32)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[2]
        gap = float(line.split("max gap ")[1].split(",")[0])
        assert line.startswith("check 2: ivp-oracle-agreement") and gap > 1e-8
        # and the answer verify passed is right: a 60-digit solve agrees
        assert mp_gap(cfg) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 7])
    def test_growing_answer_is_judged_by_its_scaled_residual(self, tmp_path, capsys, seed):
        # x grows to 2e7 (seed 0) and 3e8 (seed 7), so rounding alone leaves
        # ||Lx - h|| above 1e-8; over ||L|| ||x|| + ||h|| it is about 2e-17
        cfg = variable_ivp_config(np.random.default_rng(seed), 2.5, 32)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("check 1: ivp-equation-residual") and line.endswith("PASS")
        absolute, scaled = (float(v.split(" ")[-1]) for v in line.split(" (")[0].split(", "))
        assert absolute > 1e-8 and scaled < 1e-15
        # and the answer verify passed is right: a 60-digit solve agrees
        assert mp_gap(cfg) <= 1e-14

    def test_boundary_residual_is_judged_by_its_scaled_value(self, tmp_path, capsys):
        # h scaled by 1e8 makes max|x| 6.5e8, so rounding alone leaves ||Bx - c||
        # near 5e-8; over ||B|| ||x|| + ||c|| it is about 2e-17
        cfg = variable_ivp_config(np.random.default_rng(3), 0.6, 40)
        cfg["h"]["values"] = [v * 1e8 for v in cfg["h"]["values"]]
        cfg["problem"] = {"type": "bvp", "alpha": [[1.0, 2.0]], "A": [0.3],
                          "beta": [1.0, 0.5], "B": -0.7}
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[2]
        assert line.startswith("check 2: bvp-boundary-residual") and line.endswith("PASS")
        absolute, scaled = (float(v.split(" ")[-1]) for v in line.split(" (")[0].split(", "))
        assert absolute > 1e-8 and scaled < 1e-15

    def test_oracle_solves_what_a_small_pivot_made_look_singular(self, tmp_path, capsys):
        # an elimination that refused pivots below 1e-13 ||A|| called this
        # system singular (pivot 9.3e-13), but its cond_1 is 2.9e13, below
        # 1/eps = 4.5e15, and the oracle's answer agrees with the solver
        cfg = variable_ivp_config(np.random.default_rng(2), 1.5, 80)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) != 2
        out = capsys.readouterr().out
        line = out.splitlines()[2]
        assert line.startswith("check 2: ivp-oracle-agreement") and line.endswith("PASS")
        assert mp_gap(cfg) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 4])
    def test_gap_within_the_oracles_own_rounding_passes(self, tmp_path, capsys, seed):
        # nu = 2.5, b = 64: the oracle's system has cond_1 = 1.2e15 (seed 1)
        # and 4.7e14 (seed 4), and its answer is 2.3e-7 and 1.7e-8 of max|x|
        # from the solver's, which a 60-digit solve confirms
        cfg = variable_ivp_config(np.random.default_rng(seed), 2.5, 64)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[2]
        assert line.startswith("check 2: ivp-oracle-agreement") and line.endswith("PASS")
        rel = float(line.split("over max|x| ")[1].split(",")[0])
        cond = float(line.split("oracle cond1 ")[1].split(" ")[0])
        assert 1e-8 < rel <= cond * np.finfo(float).eps
        assert mp_gap(cfg) <= 1e-12

    def test_wrong_answer_still_fails_the_agreement_check(self, tmp_path, monkeypatch, capsys):
        # a shift of 1e-6 max|x| keeps the equation rows (q = 0) but not
        # the boundary rows: an absolute ||Bx - c|| of 7.9e-10 passed it at
        # this small scale, the scaled one (5e-7) fails it, and so does the
        # oracle agreement
        solve_bvp = cli.solve_bvp

        def shifted(*args):
            x = solve_bvp(*args)
            return GridFunction(x.grid, x.values + 1e-6 * np.max(np.abs(x.values)))

        monkeypatch.setattr(cli, "solve_bvp", shifted)
        cfg = ivp_config(h=1e-4, problem={"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                          "A": [0.0, 0.0], "beta": [1.0, 0.0, 0.0], "B": 0.0})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 12
        out = capsys.readouterr().out
        assert "check 2: bvp-boundary-residual" in out and "FAIL" in out.splitlines()[2]
        assert "check 3: bvp-oracle-agreement" in out and "FAIL" in out.splitlines()[3]

    def test_boundary_residual_reads_the_oracles_own_rows(self, tmp_path, monkeypatch, capsys):
        # a right boundary row that also reads x(b-1) by 1e-3, in the function the
        # bordered solve reads: a check judged by that same row would pass, so only
        # the oracle's own side rows make the boundary check (2) fail
        rows_of = bvp.boundary_rows

        def skewed(spec, b):
            rows = rows_of(spec, b)
            rows[-1, -2] += 1e-3
            return rows

        monkeypatch.setattr(bvp, "boundary_rows", skewed)
        monkeypatch.setattr(cli, "boundary_rows", skewed, raising=False)
        cfg = ivp_config(problem={"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                  "A": [0.2, -0.1], "beta": [1.0, 0.0, 0.0], "B": 0.5})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 12
        line = capsys.readouterr().out.splitlines()[2]
        assert line.startswith("check 2: bvp-boundary-residual") and line.endswith("FAIL")

    def test_zero_answer_has_zero_relative_gap(self, tmp_path, capsys):
        assert main(["verify", "--config", write_config(tmp_path, ivp_config(h=0.0))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "max residual 0.000e+00, scaled 0.000e+00" in lines[1] and "PASS" in lines[1]
        assert "max gap 0.000e+00, over max|x| 0.000e+00" in lines[2] and "PASS" in lines[2]

    @staticmethod
    def _closed_form_changed(monkeypatch, change):
        """verify's closed form, with change(v) in place of its G."""
        closed_form = cli.conjugate_greens_closed_form

        def changed(*args):
            g = closed_form(*args)
            return GreensFunction(g.grid, g.rows, g.u, change(g.v.copy()))

        monkeypatch.setattr(cli, "conjugate_greens_closed_form", changed)

    def test_closed_form_gap_is_judged_relative_to_max_g(self, tmp_path, monkeypatch, capsys):
        # nu = 1.5, b = 32: max|G| is about 16, so a gap of 5e-8 on one stated
        # cell is about 3e-9 of it; an absolute verdict failed it against 1e-8
        def nudged(v):
            v[10, 20] += 5e-8
            return v

        self._closed_form_changed(monkeypatch, nudged)
        cfg = ivp_config(b_offset=32, problem={"type": "greens"})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("check 1: greens-closed-form-agreement") and line.endswith("PASS")
        gap, rel = (float(v.split(" ")[-1]) for v in line.split(" (")[0].split(", "))
        assert gap > 1e-8 and 1e-9 < rel < 1e-8
        assert "over max|G|" in line

    def test_closed_form_off_by_a_relative_1e_6_fails(self, tmp_path, monkeypatch, capsys):
        self._closed_form_changed(monkeypatch, lambda v: v * (1 + 1e-6))
        cfg = ivp_config(b_offset=32, problem={"type": "greens"})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 11
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("check 1: greens-closed-form-agreement") and line.endswith("FAIL")


class TestConfigNumbers:
    @pytest.mark.parametrize("overrides, field", [
        ({"h": float("nan")}, "'h'"),
        ({"h": {"values": [0.0] * 6 + [float("inf")], "start": 2}}, "'h.values'"),
        ({"a": float("inf")}, "'a'"),
        ({"nu": float("nan")}, "'nu'"),
        ({"p": float("nan")}, "'p'"),
        ({"p": True}, "'p'"),
        ({"q": {"values": [0.0] * 5 + [False, 0.0], "start": 3}}, "'q.values'"),
        ({"b_offset": True}, "'b_offset'"),
        ({"problem": {"type": "ivp", "A": [0.0, float("nan"), 0.0]}}, "'problem.A'"),
        ({"problem": {"type": "ivp", "A": [0.0, 0.0, 0.0],
                      "ghost": {"mode": "explicit", "values": [float("inf")]}}},
         "'problem.ghost.values'"),
        ({"problem": {"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, True, 0.0]],
                      "A": [0.0, 0.0], "beta": [1.0, 0.0, 0.0], "B": 0.0}}, "'problem.alpha'"),
        ({"problem": {"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                      "A": [0.0, 0.0], "beta": [1.0, 0.0, 0.0], "B": float("nan")}},
         "'problem.B'"),
        ({"h": 10**400}, "'h'"),
    ])
    def test_non_finite_or_boolean_number_is_config_error(self, tmp_path, capsys,
                                                          overrides, field):
        # json.load reads NaN and Infinity, and isinstance(True, int) holds
        path = write_config(tmp_path, ivp_config(**overrides))
        assert main(["verify", "--config", path]) == 1
        out = capsys.readouterr()
        assert "check" not in out.out
        assert f"config field {field}" in out.err

    @pytest.mark.parametrize("overrides, field", [
        ({"nu": 0.6, "p": {"values": [1.0] * 8, "start": True}}, "p"),
        ({"p": {"values": [1.0] * 7, "start": 2.0}}, "p"),
        ({"nu": 0.6, "h": {"values": [1.0] * 7, "start": 2.0}}, "h"),
    ])
    def test_coefficient_start_must_be_an_integer(self, tmp_path, capsys, overrides, field):
        # True == 1 and 2.0 == 2, so each start here names the right offset
        cfg = ivp_config(**overrides)
        cfg["problem"]["A"] = [0.0] * (math.ceil(cfg["nu"]) + 1)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith(f"error: config field '{field}.start': expected an integer, got ")

    @pytest.mark.parametrize("value, accepted", [
        (True, False), ("1", False), (None, False), (float("nan"), False),
        (float("inf"), False), (float("-inf"), False), (10**400, False),
        (-0.0, True), (1e308, True), ([1.0], False),
    ])
    def test_number_lists_accept_what_each_value_check_accepts(self, tmp_path, value, accepted):
        # one rule judges a number, so a list entry fares as the same value does alone
        assert cli._is_number(value) == accepted
        for overrides, field in [({"a": value}, "'a'"),
                                 *[({"problem": {"type": "ivp", "A": values}}, "'problem.A'")
                                   for values in ([value], [1.0, value, 2])]]:
            path = write_config(tmp_path, ivp_config(**overrides))
            if accepted:
                cli.load_config(path)
            else:
                with pytest.raises(cli.ConfigError, match=field):
                    cli.load_config(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"nu": "1.5"}, "'nu': expected a finite number, got '1.5'"),
        ({"b_offset": 8.0}, "'b_offset': expected an integer, got 8.0"),
        ({"problem": []}, "'problem': expected an object, got a list"),
        ({"p": [1.0]}, "'p': expected a finite number or an object, got a list"),
        ({"h": {"values": [0.0] * 6 + [float("inf")], "start": 3}},
         "'h.values': expected a list of finite numbers, got Infinity at [6]"),
        ({"problem": {"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, True, 0.0]]}},
         "'problem.alpha': expected a list of lists of finite numbers, got true at [1][1]"),
        ({"problem": {"type": "ivp", "A": [0.0, 0.0, 0.0], "ghost": {"mode": None}}},
         "'problem.ghost.mode': expected 'zero' or 'explicit', got null"),
        ({"problem": {"A": [0.0, 0.0, 0.0]}},
         "'problem.type': expected 'ivp' or 'bvp' or 'greens', got null"),
        ({"a": 10**400}, "'a': expected a finite number, got an integer too large for a float"),
    ])
    def test_refusals_say_what_was_expected_and_found_in_json_terms(self, tmp_path, capsys,
                                                                     overrides, message):
        # a refusal printed Python types: expected (<class 'int'>, <class 'float'>), got str
        assert main(["solve-ivp", "--config", write_config(tmp_path, ivp_config(**overrides))]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: config field {message}"]


GREENS_NU_2_5 = {"a": 0.0, "b_offset": 8, "nu": 2.5, "p": 1.0, "q": 0.0, "h": 1.0,
                 "problem": {"type": "greens"}}


# Each row's message names a config field exactly when `named` does.
@pytest.mark.parametrize("argv, code, named", [
    pytest.param(["greens", "--config", "{greens_b_2}"], 1,
                 "config field 'b_offset': must be at least N+1 = 3", id="b-too-short"),
    pytest.param(["greens", "--config", "{greens_nu_2_5_b_4}"], 1, "config field 'nu'",
                 id="nu-2.5"),
    pytest.param(["greens", "--config", "{greens_nu_2_5}"], 1, "config field 'nu'",
                 id="config-nu-2.5"),
    pytest.param(["monomial", "--nu", "nan"], 1, "'--nu'", id="monomial-nu-nan"),
    pytest.param(["monomial", "--nu", "1.5", "--a", "inf"], 1, "'--a'", id="monomial-a-inf"),
    pytest.param(["monomial", "--nu", "1.5", "--out", "{missing}"], 1, "{missing}",
                 id="out-unwritable"),
    pytest.param(["verify", "--config", "{missing}"], 1, "'--config'", id="config-unreadable"),
    pytest.param(["greens"], 1, "required: --config", id="greens-no-source"),
    pytest.param(["greens", "--conjugate", "a=0", "b=10", "nu=1.5"], 1, "required: --config",
                 id="greens-key-value-form"),
    pytest.param(["monomial", "--nu", "1.5", "--hi", "x"], 1, "argument --hi: invalid int",
                 id="usage-hi-not-an-int"),
    pytest.param(["verify"], 1, "required: --config", id="usage-verify-without-config"),
    pytest.param(["monomial", "--nu", "-1e308"], 1, "argument --nu: expected one argument",
                 id="usage-nu-read-as-an-option"),
    pytest.param(["greens", "--config", "{greens_1_5}", "nu=1.5"], 1,
                 "unrecognized arguments: nu=1.5", id="greens-params-with-config"),
    pytest.param(["greens", "--config", "{greens_p_2}", "--conjugate"], 1,
                 "unrecognized arguments: --conjugate", id="greens-conjugate-with-config"),
    pytest.param(["greens", "--config", "{greens_degenerate}"], 2, "vanishes",
                 id="degenerate-exits-two"),
    pytest.param(["greens", "--config", "{greens_a_1e17}"], 1, "a = 1e+17", id="a-beyond-2**53"),
    pytest.param(["monomial", "--nu", "1.5", "--a", "1e17", "--hi", "3"], 1, "a = 1e+17",
                 id="monomial-a-beyond-2**53"),
])
def test_cli_returns_its_documented_code_and_never_raises(tmp_path, capsys, argv, code, named):
    paths = {"greens_nu_2_5": write_config(tmp_path, GREENS_NU_2_5),
             "greens_nu_2_5_b_4": write_config(tmp_path, dict(GREENS_NU_2_5, b_offset=4),
                                               "g25b4.json"),
             "greens_1_5": write_config(tmp_path, dict(GREENS_NU_2_5, nu=1.5), "g15.json"),
             "greens_p_2": write_config(tmp_path, dict(GREENS_NU_2_5, nu=1.5, p=2.0,
                                                       problem={"type": "greens"}), "gp2.json"),
             "greens_b_2": write_config(tmp_path, dict(GREENS_NU_2_5, nu=1.5, b_offset=2),
                                        "gb2.json"),
             "greens_degenerate": write_config(tmp_path, dict(GREENS_NU_2_5, b_offset=3,
                                                              nu=1.0000000000001), "gdeg.json"),
             "greens_a_1e17": write_config(tmp_path, dict(GREENS_NU_2_5, a=1e17, b_offset=16,
                                                          nu=1.5), "ga.json"),
             "missing": str(tmp_path / "missing" / "x.csv")}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and named.format(**paths) in err
    assert ("config field" in err) == ("config field" in named)


CONJUGATE_BVP = {"type": "bvp", "alpha": [[1, 0, 0], [0, 1, 0]], "A": [0, 0], "beta": [1, 0, 0],
                 "B": 0}


@pytest.mark.parametrize("command, problem", [
    ("verify", {"type": "greens"}),
    ("verify", {"type": "ivp", "A": [0, 0, 0]}),
    ("verify", CONJUGATE_BVP),
    ("solve-ivp", {"type": "ivp", "A": [0, 0, 0]}),
    ("solve-bvp", CONJUGATE_BVP),
    ("cauchy", {"type": "ivp", "A": [0, 0, 0]}),
    ("greens", {"type": "greens"}),
])
def test_base_beyond_2_53_exits_one_before_any_output(tmp_path, capsys, command, problem):
    # 1e17 + k is not exact: the points a + 1, ..., a + 10 would merge
    cfg = {"a": 1e17, "b_offset": 10, "nu": 1.5, "p": 1, "q": 0, "h": 1, "problem": problem}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ") and "a = 1e+17" in out.err


@pytest.mark.parametrize("command", ["cauchy", "greens", "solve-ivp", "verify"])
@pytest.mark.parametrize("overrides, path", [
    ({"h": {"values": [1], "strat": 3}}, "h.strat"),
    ({"problem": {"type": "ivp", "A": "x"}}, "problem.A"),
])
def test_every_command_checks_the_whole_config(tmp_path, capsys, command, overrides, path):
    # cauchy read no h and no problem, and greens --config no h, so each printed
    # its table from a file that verify refused
    assert main([command, "--config", write_config(tmp_path, ivp_config(**overrides))]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith(f"error: config field '{path}'")


@pytest.mark.parametrize("command", ["cauchy", "greens"])
def test_commands_that_read_no_forcing_need_none(tmp_path, capsys, command):
    cfg = ivp_config(problem={"type": "greens"})
    outputs = []
    for config in (cfg, {k: v for k, v in cfg.items() if k != "h"}):
        assert main([command, "--config", write_config(tmp_path, config)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""


@pytest.mark.parametrize("command", ["greens", "verify"])
def test_greens_and_verify_refuse_a_conjugate_key_as_unknown(tmp_path, capsys, command):
    # the operator alone decides which G greens prints, so no key chooses it
    cfg = ivp_config(problem={"type": "greens", "conjugate": True})
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: config field 'problem.conjugate': "
                                    "unknown key; the object takes type"]


# Valid configs (b <= 12) for the mutation test, and the solve command of each.
MUTANT_BASES = {
    "ivp": {"a": 0.0, "b_offset": 8, "nu": 1.5,
            "p": {"values": [1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 1.0], "start": 2},
            "q": -0.5, "h": {"values": [0.5, -1.0, 0.25, 1.0, 0.0, 2.0], "start": 3},
            "problem": {"type": "ivp", "A": [0.5, -1.0, 0.25],
                        "ghost": {"mode": "explicit", "values": [0.75]}}},
    "bvp": {"a": 1.0, "b_offset": 6, "nu": 0.6, "p": 1.5,
            "q": {"values": [0.1, -0.2, 0.3, 0.0, 0.1], "start": 2}, "h": 1.0,
            "problem": {"type": "bvp", "alpha": [[1.0, 0.5]], "A": [0.25], "beta": [1.0, 0.0],
                        "B": -0.5}},
    "greens": {"a": 0.0, "b_offset": 9, "nu": 1.5, "p": 1, "q": 0, "h": 1.0,
               "problem": {"type": "greens"}},
}
SOLVE_COMMANDS = {"ivp": "solve-ivp", "bvp": "solve-bvp", "greens": "greens"}
_DELETE, _UNKNOWN_KEY, _HUGE = object(), object(), "<1e400>"  # JSON reads 1e400 as inf
MUTATIONS = [_DELETE, _UNKNOWN_KEY, None, "text", True, math.nan, _HUGE, [1.0, 2.0], {"k": 1},
             0, -3, -2.5, 10**30]


def _tabulated(cfg):
    """A copy of cfg with a constant p and h written as {"values", "start"} objects."""
    cfg = copy.deepcopy(cfg)
    n, b = math.ceil(cfg["nu"]), cfg["b_offset"]
    for name, lo in (("p", n), ("h", n + 1)):
        if not isinstance(cfg[name], dict):
            cfg[name] = {"values": [float(cfg[name])] * (b - lo + 1), "start": lo}
    return cfg


# every command checks the whole file, the objects it does not read (h under greens) too
@pytest.mark.parametrize("command, kind, path", [
    *[(cmd, kind, path) for path in ("tol", "p.strat") for cmd, kind in
      [("solve-ivp", "ivp"), ("solve-bvp", "bvp"), ("greens", "greens"), ("verify", "ivp")]],
    *[(cmd, kind, "h.strat") for cmd, kind in [("solve-ivp", "ivp"), ("solve-bvp", "bvp"),
                                                ("verify", "greens"), ("greens", "greens")]],
    ("solve-ivp", "ivp", "problem.gost"), ("verify", "ivp", "problem.gost"),
    ("solve-bvp", "bvp", "problem.Bb"), ("verify", "bvp", "problem.Bb"),
    ("greens", "greens", "problem.conjugat"), ("verify", "greens", "problem.conjugat"),
    ("solve-ivp", "ivp", "problem.ghost.modee"), ("verify", "ivp", "problem.ghost.modee"),
])
def test_unknown_key_at_any_level_is_config_error(tmp_path, capsys, command, kind, path):
    # a misspelled optional key was ignored, so it changed the answer without a word
    cfg = _tabulated(MUTANT_BASES[kind])
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    *parents, key = path.split(".")
    obj = cfg
    for name in parents:
        obj = obj[name]
    obj[key] = 7
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith(f"error: config field '{path}'")


def test_readme_key_table_lists_the_fields_row_by_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| object | key | value |\n| --- | --- | --- |\n")[1].split("\n\n")[0]
    listed, row = [], None
    for line in table.splitlines():
        obj, key, _ = (cell.strip() for cell in line.strip("|").split("|"))
        row = obj.split("`")[1] if obj else row
        listed.append((row, key.strip("`")))
    assert listed == [(row, key) for row, keys in cli._FIELDS.items() for key in keys]


def _field_paths(node, prefix=()):
    """The key or index path of every field and list entry below node."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


MUTANT_FIELDS = [(kind, path) for kind, cfg in MUTANT_BASES.items() for path in _field_paths(cfg)]


def _mutated(kind, path, value) -> str:
    """The config text with the field at path deleted or set to value, or with
    an unknown key in the innermost object that holds the field."""
    cfg = copy.deepcopy(MUTANT_BASES[kind])
    parents = [cfg]
    for key in path[:-1]:
        parents.append(parents[-1][key])
    parent = parents[-1]
    if value is _DELETE:
        del parent[path[-1]]
    elif value is _UNKNOWN_KEY:
        next(p for p in reversed(parents) if isinstance(p, dict))["unknown"] = 1.0
    else:
        parent[path[-1]] = value
    return json.dumps(cfg).replace(f'"{_HUGE}"', "1e400")


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(MUTANT_FIELDS), value=st.sampled_from(MUTATIONS))
def test_mutated_config_exits_with_a_documented_code(tmp_path_factory, field, value):
    kind, path = field
    config = tmp_path_factory.mktemp("mutant") / "config.json"
    config.write_text(_mutated(kind, path, value))
    try:
        op = cli.build_operator(cli.load_config(str(config)))
    except ValueError:
        pass
    else:  # no mutation makes a problem big enough to allocate much
        assert op.b_offset <= 64
    for argv in (["verify", "--config", str(config)],
                 [SOLVE_COMMANDS[kind], "--config", str(config)]):
        code, out, err = _run_in_process(argv)
        assert code in (0, 1, 2) or 10 <= code <= 14, (argv, code)
        if code in (1, 2):
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert "<class" not in err, err  # refusals speak JSON, not Python types
        else:
            assert err == ""
        if code == 1:  # an invalid config is refused before the first check
            assert "check" not in out
        if value is _UNKNOWN_KEY:  # every command checks every object
            assert code == 1, (argv, code)


@pytest.mark.parametrize("command", ["solve-ivp", "verify"])
@pytest.mark.parametrize("cfg, where", [
    # solve-ivp printed 61 rows of inf and nan from t = 1440 on and exited 0, and
    # verify printed "scaled nan ... FAIL" for check 1, then exited 2 on the oracle
    pytest.param(variable_ivp_config(np.random.default_rng(0), 2.5, 1500),
                 "offset 1440 (t = 1440); max|x| before it is 7.733e+307", id="variable-b-1500"),
    # the q == 0 path, whose running sum of h overflows in numpy, which warns
    pytest.param(ivp_config(h=1e308), "offset 4 (t = 4); max|x| before it is 1.000e+308",
                 id="q-zero-h-1e308"),
])
def test_an_answer_past_float64_exits_three_before_any_output(tmp_path, capsys, command,
                                                              cfg, where):
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: the answer holds an inf or a NaN from {where}"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([2.2, 2.5, 2.9, 3.3]),
       b=st.integers(100, 1500))
def test_growing_answers_are_finite_output_or_exit_three(tmp_path_factory, seed, nu, b):
    config = tmp_path_factory.mktemp("grow") / "config.json"
    config.write_text(json.dumps(variable_ivp_config(np.random.default_rng(seed), nu, b)))
    code, out, err = _run_in_process(["solve-ivp", "--config", str(config)])
    if code == 0:
        values = [float(row[2]) for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert len(values) == b + math.ceil(nu) and all(map(math.isfinite, values)) and err == ""
    else:
        assert code == 3 and out == "" and len(err.splitlines()) == 1, (code, err)


def _module_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "nablafrac", "--help"], env=_module_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "verify" in done.stdout


def test_problem_too_big_for_memory_exits_one(tmp_path, monkeypatch, capsys):
    # a config with b_offset = 1e12 asks numpy for terabytes; raise what it raises
    # instead of allocating
    def too_big(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "conjugate_greens_closed_form", too_big)
    assert main(["greens", "--config", write_config(tmp_path, conjugate_config())]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: problem too big for memory: "
                                    "Unable to allocate 7.28 TiB for an array"]


def test_closed_stdout_exits_one_without_a_traceback(tmp_path):
    # about 0.5 MB of CSV, far more than a pipe buffers, so the writer
    # is still writing when the reader goes away
    config = write_config(tmp_path, conjugate_config(b_offset=80))
    argv = [sys.executable, "-m", "nablafrac", "greens", "--config", config]
    with subprocess.Popen(argv, env=_module_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("t_offset,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in proc.stderr.read()
