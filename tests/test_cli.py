import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nablafrac import (FracOperator, Grid, GridFunction, cauchy_function,
                       conjugate_greens_closed_form, solve_ivp, taylor_monomial)
from nablafrac import cli
from nablafrac.cli import _fmt, main
from conftest import mp_solve_ivp


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
                for s in cf.s_offsets() for k in cf.column(s).grid.offsets()]
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

    def test_singular_system_exits_two(self, tmp_path, capsys):
        # q = -1 makes the basis grow to ~1e15, so the D solve hits a
        # pivot below its tolerance
        cfg = ivp_config(b_offset=30, nu=2.5, q=-1.0)
        cfg["problem"] = {
            "type": "bvp",
            "alpha": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            "A": [0.0, 0.0, 0.0],
            "beta": [1.0, 0.0, 0.0, 0.0],
            "B": 0.0,
        }
        assert main(["solve-bvp", "--config", write_config(tmp_path, cfg)]) == 2
        assert "pivot" in capsys.readouterr().err


class TestGreens:
    def test_conjugate_closed_form_contains_spot_value(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["greens", "--conjugate", "a=0", "b=4", "nu=1.5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(str(out))
        cells = {(int(r[0]), int(r[2])): (float(r[4]), r[5]) for r in rows}
        value, branch = cells[(2, 4)]
        assert value == pytest.approx(-0.195122, abs=1e-6)
        assert branch == "u"

    def test_degenerate_order_exits_two(self, tmp_path):
        assert main(["greens", "--conjugate", "a=0", "b=3",
                     "nu=1.0000000000001"]) == 2

    def test_missing_parameters_is_config_error(self):
        assert main(["greens", "--conjugate", "a=0", "b=4"]) == 1

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

    def test_config_with_variable_coefficients(self, tmp_path):
        cfg = ivp_config(problem={"type": "greens"}, **VARIABLE_PQ)
        assert main(["greens", "--config", write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize("overrides, named", [
        ({"q": 0.5, "problem": {"type": "greens", "conjugate": True}}, "'problem.conjugate'"),
        ({"nu": 2.5, "problem": {"type": "greens"}}, "N == 2"),
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

    def test_greens_needs_basic_operator_before_any_check(self, tmp_path, capsys):
        cfg = ivp_config(q=0.5, problem={"type": "greens"})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
        assert "check" not in capsys.readouterr().out

    @pytest.mark.parametrize("problem, names", [
        ({"type": "ivp", "A": [0.1, -0.2, 0.3]},
         ["probe-vs-symbolic-rows", "ivp-equation-residual", "ivp-oracle-agreement"]),
        ({"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "A": [0.2, -0.1],
          "beta": [1.0, 0.0, 0.0], "B": 0.5},
         ["probe-vs-symbolic-rows", "bvp-equation-residual", "bvp-boundary-residual",
          "bvp-oracle-agreement"]),
        ({"type": "greens"},
         ["probe-vs-symbolic-rows", "greens-closed-form-agreement",
          "greens-equation-residual", "greens-boundary-residual", "greens-vs-bvp-agreement"]),
    ])
    def test_check_names_and_order(self, tmp_path, capsys, problem, names):
        cfg = ivp_config(problem=problem)
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("check ")]
        assert [ln.split(": ")[0] for ln in lines] == [f"check {k}" for k in range(len(names))]
        assert [ln.split(": ")[1] for ln in lines] == names

    def test_failing_check_exits_ten_plus_its_number(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NABLA_GREEN_TOL", "1e-300")
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

    def test_wrong_answer_still_fails_the_agreement_check(self, tmp_path, monkeypatch, capsys):
        # a shift of 1e-6 max|x| keeps the equation rows (q = 0) and, at
        # this small scale, the boundary rows within 1e-8: only the
        # oracle agreement can see it
        solve_bvp = cli.solve_bvp

        def shifted(*args):
            x = solve_bvp(*args)
            return GridFunction(x.grid, x.values + 1e-6 * np.max(np.abs(x.values)))

        monkeypatch.setattr(cli, "solve_bvp", shifted)
        cfg = ivp_config(h=1e-4, problem={"type": "bvp", "alpha": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                          "A": [0.0, 0.0], "beta": [1.0, 0.0, 0.0], "B": 0.0})
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 13
        out = capsys.readouterr().out
        assert "check 2: bvp-boundary-residual" in out and "PASS" in out.splitlines()[2]
        assert "check 3: bvp-oracle-agreement" in out and "FAIL" in out.splitlines()[3]

    def test_zero_answer_has_zero_relative_gap(self, tmp_path, capsys):
        assert main(["verify", "--config", write_config(tmp_path, ivp_config(h=0.0))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "max residual 0.000e+00, scaled 0.000e+00" in lines[1] and "PASS" in lines[1]
        assert "max gap 0.000e+00, over max|x| 0.000e+00" in lines[2] and "PASS" in lines[2]

    def test_env_tolerance_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NABLA_GREEN_TOL", "1e-2")
        assert main(["verify", "--config",
                     write_config(tmp_path, ivp_config())]) == 0
        assert "1.0e-02" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "0"])
    def test_non_finite_or_non_positive_env_tolerance_exits_one(self, tmp_path, monkeypatch,
                                                                capsys, value):
        monkeypatch.setenv("NABLA_GREEN_TOL", value)
        assert main(["verify", "--config", write_config(tmp_path, ivp_config())]) == 1
        out = capsys.readouterr()
        assert "check" not in out.out
        assert "NABLA_GREEN_TOL" in out.err

    def test_bad_env_tolerance_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NABLA_GREEN_TOL", "not-a-number")
        assert main(["verify", "--config",
                     write_config(tmp_path, ivp_config())]) == 1


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


GREENS_NU_2_5 = {"a": 0.0, "b_offset": 8, "nu": 2.5, "p": 1.0, "q": 0.0, "h": 1.0,
                 "problem": {"type": "greens", "conjugate": True}}


@pytest.mark.parametrize("argv, code, named", [
    pytest.param(["greens", "--conjugate", "a=0", "b=4.5", "nu=1.5"], 1, "b - a", id="b-off-grid"),
    pytest.param(["greens", "--conjugate", "a=0", "b=2", "nu=1.5"], 1, "b - a", id="b-too-short"),
    pytest.param(["greens", "--conjugate", "a=0", "b=4", "nu=2.5"], 1, "nu", id="nu-2.5"),
    pytest.param(["greens", "--conjugate", "a=0", "b=4", "nu=nan"], 1, "'nu'", id="nu-nan"),
    pytest.param(["greens", "--conjugate", "a=nan", "b=4", "nu=1.5"], 1, "'a'", id="a-nan"),
    pytest.param(["greens", "--conjugate", "a=0", "b=inf", "nu=1.5"], 1, "'b'", id="b-inf"),
    pytest.param(["greens", "--config", "{greens_nu_2_5}"], 1, "nu", id="config-nu-2.5"),
    pytest.param(["monomial", "--nu", "nan"], 1, "'--nu'", id="monomial-nu-nan"),
    pytest.param(["monomial", "--nu", "1.5", "--a", "inf"], 1, "'--a'", id="monomial-a-inf"),
    pytest.param(["monomial", "--nu", "1.5", "--out", "{missing}"], 1, "{missing}",
                 id="out-unwritable"),
    pytest.param(["verify", "--config", "{missing}"], 1, "'--config'", id="config-unreadable"),
    pytest.param(["greens"], 1, "'--conjugate'", id="greens-no-source"),
    pytest.param(["greens", "--conjugate", "a=0", "b=5", "nu=1.5", "junk", "c=3"], 1, "'junk'",
                 id="greens-word-without-equals"),
    pytest.param(["greens", "--conjugate", "a=0", "b=5", "nu=1.5", "c=3"], 1, "'c=3'",
                 id="greens-unknown-key"),
    pytest.param(["greens", "--conjugate", "a=0", "b=5", "nu=1.5", "a=1"], 1, "'a=1'",
                 id="greens-key-twice"),
    pytest.param(["greens", "--config", "{greens_1_5}", "nu=1.5"], 1, "'nu=1.5'",
                 id="greens-params-with-config"),
    pytest.param(["greens", "--conjugate", "a=0", "b=3", "nu=1.0000000000001"], 2, "vanishes",
                 id="degenerate-exits-two"),
])
def test_cli_returns_its_documented_code_and_never_raises(tmp_path, capsys, argv, code, named):
    paths = {"greens_nu_2_5": write_config(tmp_path, GREENS_NU_2_5),
             "greens_1_5": write_config(tmp_path, dict(GREENS_NU_2_5, nu=1.5), "g15.json"),
             "missing": str(tmp_path / "missing" / "x.csv")}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**paths) in err
    assert "config field" not in err  # no row here names a config field


def _module_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "nablafrac", "--help"], env=_module_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "verify" in done.stdout


def test_problem_too_big_for_memory_exits_one(monkeypatch, capsys):
    # b = 1e12 asks numpy for terabytes; raise what it raises instead of allocating
    def too_big(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "conjugate_greens_closed_form", too_big)
    assert main(["greens", "--conjugate", "a=0", "b=1e12", "nu=1.5"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: problem too big for memory: "
                                    "Unable to allocate 7.28 TiB for an array"]


def test_closed_stdout_exits_one_without_a_traceback():
    # about 0.5 MB of CSV, far more than a pipe buffers, so the writer
    # is still writing when the reader goes away
    argv = [sys.executable, "-m", "nablafrac", "greens", "--conjugate", "a=0", "b=80", "nu=1.5"]
    with subprocess.Popen(argv, env=_module_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("t_offset,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in proc.stderr.read()
