"""Seeded problems, ops and answer checks for the benchmark workloads.

A *problem* is one set of library inputs built in set-up.  Its ``run``
is the op: the call chain a user makes, and all that is timed.  Its
``check`` scores an answer against the dense oracle outside the timed
region.  Every library function is looked up on its module at call time
(``ivp.solve_ivp``, not a bound name) so the traced run's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nablafrac import bvp, cli, greens, ivp, oracle
from nablafrac.grid import Grid, GridFunction
from nablafrac.operator import FracOperator, GhostClosure

NUS = (0.6, 1.5, 2.5)
SCALED_TOL = cli.DEFAULT_TOL  # the CLI's verify tolerance, applied to scaled values
GREENS_TOL = 1e-10  # compare_greens / max|G|

SIZES = {"ivp-horizon": 320, "bvp-variable": 80, "greens-conjugate": 80, "cli-verify": 32,
         "cli-verify-full": 32}
WARM_UP_SIZE = 8


@dataclass
class Problem:
    """One distinct input set.

    ``run()`` returns the answer or raises.  ``check(answer)`` returns
    ``{name: (value, limit)}``; the op fails if any value exceeds its
    limit.  ``key(answer)`` is the bytes compared across repeats.
    ``refused(answer)`` names a refusal the library reported without
    raising (a nonzero CLI exit), or ``None``.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict[str, tuple[float, float]]]
    key: Callable[[object], bytes]
    refused: Callable[[object], str | None] = field(default=lambda answer: None)


# -- input generators (same distributions as the test suite's conftest) ----

def random_operator(rng, nu: float, b: int, variable: bool) -> FracOperator:
    if not variable:
        return FracOperator.constant(0.0, nu, b)
    n = math.ceil(nu)
    p = GridFunction(Grid(0.0, n, b), tuple(rng.uniform(0.5, 2.0, b - n + 1)))
    q = GridFunction(Grid(0.0, n + 1, b), tuple(rng.uniform(-1.0, 1.0, b - n)))
    return FracOperator(0.0, nu, p, q)


def random_forcing(rng, op: FracOperator) -> GridFunction:
    n = op.N
    return GridFunction(Grid(op.a, n + 1, op.b_offset),
                        tuple(rng.uniform(-1.0, 1.0, op.b_offset - n)))


def random_conjugate_spec(rng, n: int) -> bvp.BoundarySpec:
    """Conjugate-type (N,1) rows: nabla^i x(a+i) = A_i for i < N, x(b) = B."""
    alpha = tuple(tuple(1.0 if j == i else 0.0 for j in range(n + 1)) for i in range(n))
    return bvp.BoundarySpec(alpha, tuple(rng.uniform(-1.0, 1.0, n)),
                            (1.0,) + (0.0,) * n, float(rng.uniform(-1.0, 1.0)))


# -- checks ------------------------------------------------------------------

def _inf(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def scaled_residual(matrix: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    """||A x - r||_inf / (||A||_inf ||x||_inf + ||r||_inf)."""
    norm_a = float(np.max(np.sum(np.abs(matrix), axis=1)))
    return _inf(matrix @ x - rhs) / (norm_a * _inf(x) + _inf(rhs))


def _values(x: GridFunction) -> np.ndarray:
    return np.asarray(x.values, dtype=float)


def _dense_check(system: oracle.DenseSystem) -> Callable:
    def check(x: GridFunction) -> dict[str, tuple[float, float]]:
        return {"scaled_residual": (scaled_residual(system.matrix, _values(x), system.rhs),
                                    SCALED_TOL)}
    return check


def _lazy(build: Callable[[], Callable]) -> Callable:
    """Build a check on first use, so oracle assembly stays out of set-up."""
    memo: list[Callable] = []

    def check(answer):
        if not memo:
            memo.append(build())
        return memo[0](answer)
    return check


def _gf_key(x: GridFunction) -> bytes:
    return _values(x).tobytes()


# -- workloads ---------------------------------------------------------------

def ivp_problem(rng, nu: float, b: int, variable: bool) -> Problem:
    op = random_operator(rng, nu, b, variable)
    h = random_forcing(rng, op)
    ic = ivp.InitialConditions(tuple(rng.uniform(-1.0, 1.0, op.N + 1)))
    return Problem(
        f"ivp nu={nu} {'variable' if variable else 'basic'}",
        lambda: ivp.solve_ivp(op, h, ic),
        _lazy(lambda: _dense_check(oracle.assemble_ivp(op, h, ic))),
        _gf_key,
    )


def bvp_problem(rng, nu: float, b: int) -> Problem:
    op = random_operator(rng, nu, b, True)
    h = random_forcing(rng, op)
    spec = random_conjugate_spec(rng, op.N)
    return Problem(
        f"bvp nu={nu}",
        lambda: bvp.solve_bvp(op, h, spec),
        _lazy(lambda: _dense_check(oracle.assemble_bvp(op, h, spec, GhostClosure.zero()))),
        _gf_key,
    )


def greens_problem(rng, nu: float, b: int) -> Problem:
    op = FracOperator.constant(0.0, nu, b)
    spec = bvp.BoundarySpec.conjugate()
    forcings = [random_forcing(rng, op) for _ in range(b)]

    def run():
        basis = ivp.homogeneous_basis(op, analytic=True)
        g = greens.build_greens(op, spec, basis)
        closed = greens.conjugate_greens_closed_form(op.a, op.b, op.nu)
        gap = greens.compare_greens(g, closed)
        return g, gap, [greens.greens_solve(g, h) for h in forcings]

    def build_check():
        system = oracle.assemble_bvp(op, forcings[0], spec, GhostClosure.zero())
        # rows: N-1 ghost-closure rows, N left, 1 right, then the equation
        # rows whose right-hand side is h.  The analytic basis extends
        # below a naturally, so the zero-closure rows do not apply.
        n = op.N
        matrix = system.matrix[n - 1:]
        head = system.rhs[n - 1:2 * n]

        def check(answer):
            g, gap, xs = answer
            resid = max(
                scaled_residual(matrix, _values(x),
                                np.concatenate([head, np.asarray(h.values)]))
                for x, h in zip(xs, forcings)
            )
            return {"scaled_residual": (resid, SCALED_TOL),
                    "closed_form_gap": (gap / _inf(g.G), GREENS_TOL)}
        return check

    def key(answer):
        g, gap, xs = answer
        return g.G.tobytes() + np.float64(gap).tobytes() + b"".join(_gf_key(x) for x in xs)

    return Problem(f"greens nu={nu:.4f}", run, _lazy(build_check), key)


def _coef(values: np.ndarray, start: int) -> dict:
    return {"values": [float(v) for v in values], "start": start}


def verify_problem(rng, kind: str, nu: float, b: int, workdir: Path, index: int) -> Problem:
    """A ``nablafrac verify`` config written to ``workdir`` and checked by
    loading it through the CLI's own config reader."""
    variable = kind != "greens"
    op = random_operator(rng, nu, b, variable)
    h = random_forcing(rng, op)
    n = op.N
    cfg = {"a": op.a, "b_offset": b, "nu": nu,
           "p": _coef(op.p.values, n) if variable else 1.0,
           "q": _coef(op.q.values, n + 1) if variable else 0.0,
           "h": _coef(h.values, n + 1)}
    if kind == "ivp":
        cfg["problem"] = {"type": "ivp", "A": [float(v) for v in rng.uniform(-1.0, 1.0, n + 1)]}
    elif kind == "bvp":
        spec = random_conjugate_spec(rng, n)
        cfg["problem"] = {"type": "bvp", "alpha": [list(r) for r in spec.alpha],
                          "A": list(spec.left_values), "beta": list(spec.beta),
                          "B": spec.right_value}
    else:
        cfg["problem"] = {"type": "greens"}
    path = workdir / f"verify-{index}-{kind}.json"
    path.write_text(json.dumps(cfg))
    loaded = cli.load_config(str(path))
    cli.build_forcing(loaded, cli.build_operator(loaded))
    argv = ["verify", "--config", str(path)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return Problem(
        f"verify {kind} nu={nu}",
        run,
        lambda answer: {},
        lambda answer: f"{answer[0]}\n{answer[1]}".encode(),
        lambda answer: f"exit {answer[0]}" if answer[0] != 0 else None,
    )


def build(workload: str, seed: int, workdir: Path, b: int | None = None) -> list[Problem]:
    """The workload's problems, in the order one cycle of ops runs them.

    The order interleaves the orders nu so that a run cut mid-cycle keeps
    the mix of op costs balanced.
    """
    rng = np.random.default_rng(seed)
    b = SIZES[workload] if b is None else b
    if workload == "ivp-horizon":
        kinds = [(0.6, False), (1.5, True), (2.5, False), (0.6, True), (1.5, False), (2.5, True)]
        return [ivp_problem(rng, nu, b, var) for nu, var in kinds]
    if workload == "bvp-variable":
        return [bvp_problem(rng, nu, b) for nu in NUS + NUS]
    if workload == "greens-conjugate":
        return [greens_problem(rng, float(nu), b) for nu in rng.uniform(1.05, 1.95, 3)]
    if workload in ("cli-verify", "cli-verify-full"):
        if workload == "cli-verify":  # configs that verify passes: N = 1, and greens
            kinds = [("ivp", 0.6), ("greens", 1.5), ("bvp", 0.6)] * 2
        else:  # with the N >= 2 configs whose growing answers verify refuses
            kinds = [("ivp", 0.6), ("bvp", 1.5), ("greens", 1.5), ("ivp", 2.5),
                     ("bvp", 0.6), ("ivp", 1.5), ("bvp", 2.5)]
        return [verify_problem(rng, kind, nu, b, workdir, i) for i, (kind, nu) in enumerate(kinds)]
    raise ValueError(f"unknown workload {workload!r}")
