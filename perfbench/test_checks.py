"""Self-test of the benchmark's answer checks.

    python3 -m pytest perfbench -q

A perturbed answer must be counted as a failed op, and a repeat that
differs from the first answer in any bit must make the run incorrect.
"""

import numpy as np

import run

run.prepare_env()

import workloads  # noqa: E402  (needs src/ on the path)
from nablafrac.grid import GridFunction  # noqa: E402


def _judge(problem, answers):
    records = [run.Record(0, 0.1, problem.key(a), None, False) for a in answers]
    return run.judge([problem], records, {0: answers[0]})


def _perturb(x: GridFunction, rel: float) -> GridFunction:
    vals = list(x.values)
    k = len(vals) // 2
    vals[k] += rel * max(abs(v) for v in vals)
    return GridFunction(x.grid, tuple(vals))


def _next_float(x: GridFunction) -> GridFunction:
    vals = list(x.values)
    vals[-1] = float(np.nextafter(vals[-1], np.inf))
    return GridFunction(x.grid, tuple(vals))


def test_exact_repeated_answers_pass():
    p = workloads.ivp_problem(np.random.default_rng(0), 1.5, 12, True)
    failures, unrepeatable, err = _judge(p, [p.run(), p.run()])
    assert failures == [] and unrepeatable == 0
    assert err < 1e-12


def test_perturbed_ivp_answer_counts_as_failed():
    p = workloads.ivp_problem(np.random.default_rng(1), 2.5, 12, True)
    failures, unrepeatable, err = _judge(p, [_perturb(p.run(), 1e-6)])
    assert len(failures) == 1 and failures[0]["reason"].startswith("scaled_residual")
    assert unrepeatable == 0 and err is None


def test_perturbed_bvp_answer_counts_as_failed():
    p = workloads.bvp_problem(np.random.default_rng(2), 0.6, 12)
    failures, _, _ = _judge(p, [_perturb(p.run(), 1e-6)])
    assert len(failures) == 1


def test_perturbed_greens_answers_count_as_failed():
    p = workloads.greens_problem(np.random.default_rng(3), 1.5, 10)
    g, gap, xs = p.run()
    assert _judge(p, [(g, gap, xs)])[0] == []
    bad_solve = (g, gap, [_perturb(xs[0], 1e-6)] + xs[1:])
    bad_gap = (g, 1e-6 * float(np.max(np.abs(g.G))), xs)
    assert "scaled_residual" in _judge(p, [bad_solve])[0][0]["reason"]
    assert "closed_form_gap" in _judge(p, [bad_gap])[0][0]["reason"]


def test_repeat_with_one_changed_bit_is_incorrect():
    p = workloads.ivp_problem(np.random.default_rng(4), 0.6, 12, False)
    x = p.run()
    failures, unrepeatable, _ = _judge(p, [x, _next_float(x)])
    assert unrepeatable == 1
    assert failures == [{"problem": p.label, "reason": "answer differs from the first run"}]


def test_nonzero_cli_exit_counts_as_failed(tmp_path):
    p = workloads.verify_problem(np.random.default_rng(5), "bvp", 0.6, 8, tmp_path, 0)
    rc, out = p.run()
    assert rc == 0 and _judge(p, [(rc, out)])[0] == []
    failures, unrepeatable, _ = _judge(p, [(12, out)])
    assert failures[0]["reason"] == "exit 12" and unrepeatable == 0
