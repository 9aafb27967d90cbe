"""Command-line surface: JSON problem configs in, CSV tables out.

Subcommands: ``monomial``, ``cauchy``, ``solve-ivp``, ``solve-bvp``,
``greens``, ``verify``.  Exit codes: 0 success, 1 an invalid config,
argument or output path (every other ``ValueError`` the package raises
for its input included), 2 singular/degenerate problem data, 10+k
verification check k failed (checks are numbered in the printed report).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import Sequence

from .bvp import BoundarySpec, boundary_rows, solve_bvp
from .errors import DegenerateDenominatorError, NearSingularError, SingularSystemError
from .fraccalc import FracOrder
from .grid import Grid, GridFunction
from .ivp import InitialConditions, cauchy_function, homogeneous_basis, solve_ivp
from .greens import build_greens, compare_greens, conjugate_greens_closed_form, greens_solve
from .monomial import taylor_monomial
from .operator import FracOperator, GhostClosure
from .oracle import assemble_bvp, assemble_ivp, dense_solve, probe_equation_rows, residual

import numpy as np

DEFAULT_TOL = 1e-8


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def _fmt(v: float) -> str:
    # 17 significant digits round-trips any binary64 value
    return format(float(v), ".17g")


def _is_number(v) -> bool:
    """A finite int or float; json.load reads NaN and Infinity, and a bool is an int."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _numbers(values, field: str) -> list:
    """values if it is a list of finite numbers, else a ConfigError naming field."""
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ConfigError(field, "expected a list of finite numbers")
    return values


def _finite(field: str, v: float) -> float:
    """v if it is finite, else a ConfigError naming field."""
    if not _is_number(v):
        raise ConfigError(field, f"must be finite, got {v}")
    return v


def _require(cfg: dict, field: str, types) -> object:
    if field not in cfg:
        raise ConfigError(field, "missing")
    v = cfg[field]
    if isinstance(v, bool) or not isinstance(v, types):
        raise ConfigError(field, f"expected {types}, got {type(v).__name__}")
    return _finite(field, v) if isinstance(v, (int, float)) else v


def _coefficient(cfg: dict, field: str, a: float, lo: int, hi: int) -> GridFunction:
    """Constant or tabulated coefficient covering offsets [lo, hi] exactly."""
    spec = _require(cfg, field, (int, float, dict))
    if isinstance(spec, (int, float)):
        return GridFunction(Grid(a, lo, hi), np.full(hi - lo + 1, float(spec)))
    values = _numbers(spec.get("values"), f"{field}.values")
    start = spec.get("start", lo)
    if start != lo or len(values) != hi - lo + 1:
        raise ConfigError(
            field,
            f"must cover offsets [{lo}, {hi}] exactly (start={start}, {len(values)} values)",
        )
    return GridFunction(Grid(a, lo, hi), values)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "top-level value must be an object")
    return cfg


def build_operator(cfg: dict) -> FracOperator:
    a = float(_require(cfg, "a", (int, float)))
    b_off = _require(cfg, "b_offset", int)
    nu = float(_require(cfg, "nu", (int, float)))
    try:
        n = FracOrder.fractional(nu).N
    except ValueError as exc:
        raise ConfigError("nu", str(exc))
    if b_off < n + 1:
        raise ConfigError("b_offset", f"must be at least N+1 = {n + 1}")
    p = _coefficient(cfg, "p", a, n, b_off)
    if not np.all(p.values > 0):
        raise ConfigError("p", "must be strictly positive")
    q = _coefficient(cfg, "q", a, n + 1, b_off)
    return FracOperator(a, nu, p, q)


def build_forcing(cfg: dict, op: FracOperator) -> GridFunction:
    return _coefficient(cfg, "h", op.a, op.N + 1, op.b_offset)


def _ghost_closure(spec: dict | None) -> GhostClosure:
    if spec is None:
        return GhostClosure.zero()
    if not isinstance(spec, dict):
        raise ConfigError("problem.ghost", "expected an object")
    mode = spec.get("mode", "zero")
    if mode == "zero":
        return GhostClosure.zero()
    if mode == "explicit":
        return GhostClosure.explicit(*_numbers(spec.get("values", []), "problem.ghost.values"))
    raise ConfigError("problem.ghost.mode", f"unknown mode {mode!r}")


def build_initial_conditions(problem: dict, op: FracOperator) -> InitialConditions:
    a_vals = _numbers(problem.get("A"), "problem.A")
    if len(a_vals) != op.N + 1:
        raise ConfigError("problem.A", f"expected {op.N + 1} numbers")
    closure = _ghost_closure(problem.get("ghost"))
    try:
        closure.ghost_values(op.N - 1)  # a wrong explicit ghost count is a config error
        return InitialConditions(a_vals, closure)
    except ValueError as exc:
        raise ConfigError("problem.ghost", str(exc))


def build_boundary_spec(problem: dict, op: FracOperator) -> BoundarySpec:
    alpha = problem.get("alpha", [])
    if not isinstance(alpha, list):
        raise ConfigError("problem.alpha", "expected a list of rows")
    alpha = tuple(tuple(_numbers(row, "problem.alpha")) for row in alpha)
    left = tuple(_numbers(problem.get("A", []), "problem.A"))
    beta = tuple(_numbers(problem.get("beta", []), "problem.beta"))
    right = problem.get("B", 0.0)
    if not _is_number(right):
        raise ConfigError("problem.B", "expected a finite number")
    try:
        spec = BoundarySpec(alpha, left, beta, right)
    except ValueError as exc:
        raise ConfigError("problem", str(exc))
    if spec.N != op.N:
        raise ConfigError("problem.alpha", f"expected {op.N} rows for N = {op.N}, got {spec.N}")
    return spec


def _problem(cfg: dict, expected: str) -> dict:
    problem = _require(cfg, "problem", dict)
    if problem.get("type") != expected:
        raise ConfigError("problem.type", f"expected {expected!r}, got {problem.get('type')!r}")
    return problem


def _write_csv(out: str | None, header: Sequence[str], rows) -> None:
    try:
        fh = open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ConfigError("--out", str(exc))
    with fh as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)


def _solution_rows(x: GridFunction):
    base = x.grid.base
    for k in x.grid.offsets():
        yield (k, _fmt(base + k), _fmt(x.at(k)))


def cmd_monomial(args) -> int:
    _finite("--nu", args.nu)
    _finite("--a", args.a)
    rows = (
        (k, _fmt(args.a + k), _fmt(taylor_monomial(k, args.nu)))
        for k in range(args.lo, args.hi + 1)
    )
    _write_csv(args.out, ("offset", "t", "H"), rows)
    return 0


def cmd_cauchy(args) -> int:
    cfg = load_config(args.config)
    op = build_operator(cfg)
    cf = cauchy_function(op)
    rows = []
    for s in cf.s_offsets():
        col = cf.column(s)
        for k in col.grid.offsets():
            rows.append((k, _fmt(op.a + k), s, _fmt(op.a + s), _fmt(col.at(k))))
    _write_csv(args.out, ("t_offset", "t", "s_offset", "s", "x"), rows)
    return 0


def cmd_solve_ivp(args) -> int:
    cfg = load_config(args.config)
    op = build_operator(cfg)
    h = build_forcing(cfg, op)
    ic = build_initial_conditions(_problem(cfg, "ivp"), op)
    x = solve_ivp(op, h, ic)
    _write_csv(args.out, ("offset", "t", "x"), _solution_rows(x))
    return 0


def cmd_solve_bvp(args) -> int:
    cfg = load_config(args.config)
    op = build_operator(cfg)
    h = build_forcing(cfg, op)
    spec = build_boundary_spec(_problem(cfg, "bvp"), op)
    x = solve_bvp(op, h, spec)
    _write_csv(args.out, ("offset", "t", "x"), _solution_rows(x))
    return 0


def _greens_from_args(args):
    params = dict(kv.split("=", 1) for kv in args.params if "=" in kv)
    if args.config:
        cfg = load_config(args.config)
        problem = _problem(cfg, "greens")
        op = build_operator(cfg)
        if problem.get("conjugate", False):
            if not op.is_basic():
                raise ConfigError("problem.conjugate", "requires p == 1 and q == 0")
            return conjugate_greens_closed_form(op.a, op.b, op.nu)
        if op.N != 2:
            raise ConfigError("problem", "generic greens output needs N == 2 conjugate spec")
        return build_greens(op, BoundarySpec.conjugate(), homogeneous_basis(op))
    if not args.conjugate:
        raise ConfigError("<args>", "greens needs --config or --conjugate with a=, b=, nu=")
    names = ("a", "b", "nu")
    try:
        values = [float(params[k]) for k in names]
    except (KeyError, ValueError):
        raise ConfigError("<args>", "--conjugate needs a=<real> b=<real> nu=<real>")
    return conjugate_greens_closed_form(*map(_finite, names, values))


def cmd_greens(args) -> int:
    g = _greens_from_args(args)
    rows = []
    for t in range(g.t_lo, g.b_offset + 1):
        for s in range(g.s_lo, g.b_offset + 1):
            rows.append((
                t, _fmt(g.a + t), s, _fmt(g.a + s),
                _fmt(g.value(t, s)), g.branch_of(t, s),
            ))
    _write_csv(args.out, ("t_offset", "t", "s_offset", "s", "G", "branch"), rows)
    return 0


def _boundary_gap(x: GridFunction, spec: BoundarySpec, op: FracOperator) -> float:
    xs = x.values_on(op.a, -(op.N - 1), op.b_offset)
    return float(np.max(np.abs(boundary_rows(spec, op.b_offset) @ xs - spec.values)))


def _max_gap(x: GridFunction, y: GridFunction) -> float:
    return float(np.max(np.abs(x.values - y.values)))


def _verify_checks(cfg: dict):
    """Yield (name, measured, tolerance-scale) triples; the config is validated first."""
    op = build_operator(cfg)
    h = build_forcing(cfg, op)
    problem = _require(cfg, "problem", dict)
    kind = problem.get("type")
    if kind == "ivp":
        ic = build_initial_conditions(problem, op)
        dense_sys = assemble_ivp(op, h, ic)
    elif kind == "bvp":
        spec = build_boundary_spec(problem, op)
        dense_sys = assemble_bvp(op, h, spec, GhostClosure.zero())
    elif kind == "greens":
        if not op.is_basic() or op.N != 2:
            raise ConfigError("problem", "greens verification needs p == 1, q == 0, nu in (1,2)")
        dense_sys = assemble_ivp(op, h, InitialConditions.zeros(op.N))
    else:
        raise ConfigError("problem.type", f"unknown type {kind!r}")
    probe_gap = float(np.max(np.abs(probe_equation_rows(op) - dense_sys.matrix[2 * op.N:])))
    yield "probe-vs-symbolic-rows", probe_gap, 1e-10

    if kind == "ivp":
        x = solve_ivp(op, h, ic)
        yield "ivp-equation-residual", residual(op, x, h), None
        yield "ivp-oracle-agreement", _max_gap(x, dense_solve(dense_sys)), None
    elif kind == "bvp":
        x = solve_bvp(op, h, spec)
        yield "bvp-equation-residual", residual(op, x, h), None
        yield "bvp-boundary-residual", _boundary_gap(x, spec, op), None
        yield "bvp-oracle-agreement", _max_gap(x, dense_solve(dense_sys)), None
    else:
        spec = BoundarySpec.conjugate()
        basis = homogeneous_basis(op, analytic=True)
        built = build_greens(op, spec, basis)
        closed = conjugate_greens_closed_form(op.a, op.b, op.nu)
        yield "greens-closed-form-agreement", compare_greens(built, closed), 1e-10
        x = greens_solve(built, h)
        yield "greens-equation-residual", residual(op, x, h), None
        yield "greens-boundary-residual", _boundary_gap(x, spec, op), None
        yield "greens-vs-bvp-agreement", _max_gap(x, solve_bvp(op, h, spec, basis)), None


def cmd_verify(args) -> int:
    tol = DEFAULT_TOL
    env = os.environ.get("NABLA_GREEN_TOL")
    if env is not None:
        try:
            tol = float(env)
        except ValueError:
            tol = math.nan
        if not (math.isfinite(tol) and tol > 0):
            print(f"error: NABLA_GREEN_TOL={env!r} is not a finite number > 0", file=sys.stderr)
            return 1
    cfg = load_config(args.config)
    failed = None
    for idx, (name, measured, scale) in enumerate(_verify_checks(cfg)):
        limit = max(tol, scale) if scale is not None else tol
        ok = measured <= limit
        print(f"check {idx}: {name}: max residual {measured:.3e} "
              f"(tolerance {limit:.1e}) {'PASS' if ok else 'FAIL'}")
        if not ok and failed is None:
            failed = idx
    if failed is None:
        print("verify: all checks passed")
        return 0
    return 10 + failed


def _add_config(p, required=True):
    p.add_argument("--config", required=required, help="path to a JSON problem config")


def _add_out(p):
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


@functools.lru_cache(maxsize=None)  # built once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nablafrac",
        description="Discrete nabla fractional calculus solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monomial", help="print a Taylor monomial table")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--lo", type=int, default=0)
    p.add_argument("--hi", type=int, default=10)
    _add_out(p)
    p.set_defaults(func=cmd_monomial)

    p = sub.add_parser("cauchy", help="tabulate the Cauchy function columns")
    _add_config(p)
    _add_out(p)
    p.set_defaults(func=cmd_cauchy)

    p = sub.add_parser("solve-ivp", help="solve an initial value problem")
    _add_config(p)
    _add_out(p)
    p.set_defaults(func=cmd_solve_ivp)

    p = sub.add_parser("solve-bvp", help="solve an (N,1) boundary value problem")
    _add_config(p)
    _add_out(p)
    p.set_defaults(func=cmd_solve_bvp)

    p = sub.add_parser("greens", help="tabulate a Green's function")
    _add_config(p, required=False)
    p.add_argument("--conjugate", action="store_true",
                   help="closed-form (2,1) conjugate kernel; pass a=, b=, nu=")
    p.add_argument("params", nargs="*", help="key=value parameters (a=, b=, nu=)")
    _add_out(p)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("verify", help="run oracle cross-checks on a config")
    _add_config(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NearSingularError, DegenerateDenominatorError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, and the package's own input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
