import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nablafrac import taylor_monomial
from nablafrac.cli import main


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
    pytest.param(["greens", "--conjugate", "a=0", "b=3", "nu=1.0000000000001"], 2, "vanishes",
                 id="degenerate-exits-two"),
])
def test_cli_returns_its_documented_code_and_never_raises(tmp_path, capsys, argv, code, named):
    paths = {"greens_nu_2_5": write_config(tmp_path, GREENS_NU_2_5),
             "missing": str(tmp_path / "missing" / "x.csv")}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**paths) in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "nablafrac", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "verify" in done.stdout
