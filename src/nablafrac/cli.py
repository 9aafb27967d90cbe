"""Command-line surface: JSON problem configs in, CSV tables out.

Subcommands: ``monomial``, ``cauchy``, ``solve-ivp``, ``solve-bvp``,
``greens``, ``verify``.  Exit codes, none of which ends in a traceback:
0 success; 1 an invalid config, argument or output path (every other
``ValueError`` the package raises for its input included), a problem too
big for memory, or a stdout closed before the output was written
(``... | head``); 2 singular/degenerate problem data; 10+k verification
check k failed (checks are numbered in the printed report).
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
    """An invalid config field, named in the message."""

    kind = "config field"

    def __init__(self, field: str, message: str):
        super().__init__(f"{self.kind} '{field}': {message}")


class ArgumentError(ConfigError):
    """An invalid command-line argument, named in the message."""

    kind = "argument"


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


def _finite(name: str, v: float) -> float:
    """v if it is finite, else an ArgumentError naming the argument."""
    if not _is_number(v):
        raise ArgumentError(name, f"must be finite, got {v}")
    return v


def _require(cfg: dict, field: str, types) -> object:
    if field not in cfg:
        raise ConfigError(field, "missing")
    v = cfg[field]
    if isinstance(v, bool) or not isinstance(v, types):
        raise ConfigError(field, f"expected {types}, got {type(v).__name__}")
    if isinstance(v, (int, float)) and not _is_number(v):
        raise ConfigError(field, f"must be finite, got {v}")
    return v


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
        raise ArgumentError("--config", str(exc))
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
        raise ArgumentError("--out", str(exc))
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


def _greens_basis(op: FracOperator):
    """The basis a greens config builds G over: analytic when p == 1 and q == 0."""
    return homogeneous_basis(op, analytic=op.is_basic())


_GREENS_PARAMS = ("a", "b", "nu")


def _greens_params(words: Sequence[str]) -> dict:
    """The key=value words as a dict; any other word is an ArgumentError."""
    params = {}
    for word in words:
        key, sep, value = word.partition("=")
        if not sep or key not in _GREENS_PARAMS or key in params:
            raise ArgumentError(word, "expected each of a=<real> b=<real> nu=<real> at most once")
        params[key] = value
    return params


def _greens_from_args(args):
    params = _greens_params(args.params)
    if args.config:
        if params:
            raise ArgumentError(args.params[0], "key=value parameters cannot be used with --config")
        cfg = load_config(args.config)
        problem = _problem(cfg, "greens")
        op = build_operator(cfg)
        if problem.get("conjugate", False):
            if not op.is_basic():
                raise ConfigError("problem.conjugate", "requires p == 1 and q == 0")
            return conjugate_greens_closed_form(op.a, op.b, op.nu)
        if op.N != 2:
            raise ConfigError("problem", "generic greens output needs N == 2 conjugate spec")
        return build_greens(op, BoundarySpec.conjugate(), _greens_basis(op))
    if not args.conjugate:
        raise ArgumentError("--conjugate", "greens needs it with a=, b=, nu=, or --config")
    try:
        values = [float(params[k]) for k in _GREENS_PARAMS]
    except (KeyError, ValueError):
        raise ArgumentError("--conjugate", "needs a=<real> b=<real> nu=<real>")
    return conjugate_greens_closed_form(*map(_finite, _GREENS_PARAMS, values))


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


def _absolute(value: float) -> tuple[float, str]:
    return value, f"max residual {value:.3e}"


def _ratio(num: float, den: float) -> float:
    """num / den, where 0/0 counts as 0 and a nonzero num over 0 as inf."""
    return num / den if den else math.inf if num else 0.0


def _scaled_residual(op: FracOperator, x: GridFunction, h: GridFunction,
                     eq_rows: np.ndarray) -> tuple[float, str]:
    """||Lx - h|| / (||L|| ||x|| + ||h||) in the inf-norm, then a report.

    ``eq_rows`` is L as the dense equation-row matrix, so ||L|| is its
    largest absolute row sum; x covers its columns and h its rows.
    """
    res = residual(op, x, h)
    size = np.abs(eq_rows).sum(axis=1).max() * np.abs(x.values).max() + np.abs(h.values).max()
    scaled = _ratio(res, float(size))
    return scaled, f"max residual {res:.3e}, scaled {scaled:.3e}"


def _relative_gap(x: GridFunction, ref: GridFunction) -> tuple[float, str]:
    """max|x - ref| over max|ref|, then a report of it and of max|x - ref|."""
    gap = float(np.max(np.abs(x.values - ref.values)))
    rel = _ratio(gap, float(np.max(np.abs(ref.values))))
    return rel, f"max gap {gap:.3e}, over max|x| {rel:.3e}"


def _verify_checks(cfg: dict):
    """Yield (name, measured, report, tolerance-scale) tuples.

    The verdict reads ``measured``: the equation residuals are scaled by
    ||L|| ||x|| + ||h||, and the agreement checks measure their gap
    relative to max|x| of the reference answer; ``report`` also gives the
    absolute value.  The config is validated before the first check.
    """
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
    eq_rows = dense_sys.matrix[2 * op.N:]
    probe_gap = float(np.max(np.abs(probe_equation_rows(op) - eq_rows)))
    yield "probe-vs-symbolic-rows", *_absolute(probe_gap), 1e-10

    if kind == "ivp":
        x = solve_ivp(op, h, ic)
        yield "ivp-equation-residual", *_scaled_residual(op, x, h, eq_rows), None
        yield "ivp-oracle-agreement", *_relative_gap(x, dense_solve(dense_sys)), None
    elif kind == "bvp":
        x = solve_bvp(op, h, spec)
        yield "bvp-equation-residual", *_scaled_residual(op, x, h, eq_rows), None
        yield "bvp-boundary-residual", *_absolute(_boundary_gap(x, spec, op)), None
        yield "bvp-oracle-agreement", *_relative_gap(x, dense_solve(dense_sys)), None
    else:
        spec = BoundarySpec.conjugate()
        basis = _greens_basis(op)
        built = build_greens(op, spec, basis)
        closed = conjugate_greens_closed_form(op.a, op.b, op.nu)
        yield "greens-closed-form-agreement", *_absolute(compare_greens(built, closed)), 1e-10
        x = greens_solve(built, h)
        yield "greens-equation-residual", *_scaled_residual(op, x, h, eq_rows), None
        yield "greens-boundary-residual", *_absolute(_boundary_gap(x, spec, op)), None
        yield "greens-vs-bvp-agreement", *_relative_gap(x, solve_bvp(op, h, spec, basis)), None


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
    for idx, (name, measured, report, scale) in enumerate(_verify_checks(cfg)):
        limit = max(tol, scale) if scale is not None else tol
        ok = measured <= limit
        print(f"check {idx}: {name}: {report} (tolerance {limit:.1e}) {'PASS' if ok else 'FAIL'}")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's "Note on SIGPIPE": the reader is gone, so point stdout at
        # devnull, where the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NearSingularError, DegenerateDenominatorError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, and the package's own input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: problem too big for memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
