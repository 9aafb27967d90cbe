"""Command-line surface: JSON problem configs in, CSV tables out.

Subcommands: ``monomial``, ``cauchy``, ``solve-ivp``, ``solve-bvp``,
``greens``, ``verify``.  Exit codes, none of which ends in a traceback:
0 success; 1 a usage error, an invalid config, argument or output path
(every other ``ValueError`` the package raises for its input included), a
problem too big for memory, or a stdout closed before the output was
written (``... | head``); 2 singular/degenerate problem data; 3 an answer
that outgrew float64 (an inf or a NaN, which is never printed); 10+k
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
from .errors import (DegenerateDenominatorError, NearSingularError, NonFiniteError,
                     SingularSystemError)
from .fraccalc import fractional_order_n
from .grid import Grid, GridFunction, constant_grid_function
from .ivp import InitialConditions, cauchy_function, homogeneous_basis, solve_ivp
from .greens import build_greens, compare_greens, conjugate_greens_closed_form, greens_solve
from .monomial import taylor_monomial
from .operator import FracOperator, GhostClosure
from .oracle import assemble_bvp, assemble_ivp, dense_solve, probe_equation_rows, residual

import numpy as np

DEFAULT_TOL = 1e-8
_FLOAT_MAX = sys.float_info.max

# What each value of a config object must be, by object and key: a JSON type (a
# key of _TYPES), another row of this table (an object holding only that row's
# keys), a tuple of these (any one; rows are told apart by their "type"), or a
# list of the strings it may be.  load_config checks each whole file against it.
_COEFFICIENT = ("number", "coefficient")
_FIELDS = {
    "root": {"a": "number", "b_offset": "integer", "nu": "number", "p": _COEFFICIENT,
             "q": _COEFFICIENT, "h": _COEFFICIENT, "problem": ("ivp", "bvp", "greens")},
    "coefficient": {"values": "numbers", "start": "integer"},
    "ghost": {"mode": ["zero", "explicit"], "values": "numbers"},
    "ivp": {"type": ["ivp"], "A": "numbers", "ghost": "ghost"},
    "bvp": {"type": ["bvp"], "alpha": "matrix", "A": "numbers", "beta": "numbers", "B": "number"},
    "greens": {"type": ["greens"], "conjugate": "bool"},
}


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
    """A finite int or float: json.load reads NaN and Infinity, type() refuses a bool,
    and an int too large for a float compares beyond _FLOAT_MAX exactly."""
    return type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX


# JSON type: (what it is, its check).  A list is checked entry by entry, by the
# one rule for a number, so no entry fares otherwise than it would alone.
_TYPES = {
    "number": ("a finite number", _is_number),
    "integer": ("an integer", lambda v: type(v) is int and _is_number(v)),
    "numbers": ("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "matrix": ("a list of lists of finite numbers",
               lambda v: isinstance(v, list) and all(map(_TYPES["numbers"][1], v))),
    "bool": ("true or false", lambda v: type(v) is bool),
}
_ENTRIES = {"numbers": "number", "matrix": "numbers"}  # the type of a list type's entries


def _found(value, spec=None, index: str = "") -> str:
    """value in JSON terms.  A value of one of spec's list types is shown by its
    first entry at fault and that entry's index, so no list is written out."""
    if isinstance(value, list) and spec in _ENTRIES:
        i = next(i for i, v in enumerate(value) if not _TYPES[_ENTRIES[spec]][1](v))
        return _found(value[i], _ENTRIES[spec], f"{index}[{i}]")
    text = ("an object" if isinstance(value, dict) else "a list" if isinstance(value, list)
            else repr(value) if isinstance(value, str)
            else "an integer too large for a float" if type(value) is int and not _is_number(value)
            else json.dumps(value))  # true, false, null, NaN, Infinity or a finite number
    return f"{text} at {index}" if index else text


def _read(value, path: str, spec) -> None:
    """Check value, at path in the config, and every value below it against spec
    (see _FIELDS); a ConfigError names the path of the first value at fault."""
    if isinstance(spec, list):
        if not (isinstance(value, str) and value in spec):
            raise ConfigError(path, f"expected {' or '.join(map(repr, spec))}, got {_found(value)}")
        return
    specs = spec if isinstance(spec, tuple) else (spec,)
    objects = [s for s in specs if s in _FIELDS]
    if objects and isinstance(value, dict):
        if len(objects) > 1:
            _read(value.get("type"), f"{path}.type", objects)
        row = _FIELDS[value["type"] if len(objects) > 1 else objects[0]]
        for key, v in value.items():
            at = f"{path}.{key}" if path else key
            if key not in row:
                raise ConfigError(at, f"unknown key; the object takes {', '.join(row)}")
            _read(v, at, row[key])
    elif not any(_TYPES[s][1](value) for s in specs if s in _TYPES):
        what = dict.fromkeys(_TYPES[s][0] if s in _TYPES else "an object" for s in specs)
        raise ConfigError(path, f"expected {' or '.join(what)}, got {_found(value, spec)}")


def _finite(name: str, v: float) -> float:
    """v if it is finite, else an ArgumentError naming the argument."""
    if not _is_number(v):
        raise ArgumentError(name, f"must be finite, got {v}")
    return v


def _require(obj: dict, path: str) -> object:
    """obj's value at the last key of path, else a ConfigError naming path."""
    key = path.rpartition(".")[2]
    if key not in obj:
        raise ConfigError(path, "missing")
    return obj[key]


def _coefficient(cfg: dict, field: str, grid: Grid) -> GridFunction:
    """Constant or tabulated coefficient covering grid's offsets exactly."""
    spec = _require(cfg, field)
    if not isinstance(spec, dict):
        return constant_grid_function(grid, spec)
    values = _require(spec, f"{field}.values")
    start = spec.get("start", grid.lo)
    if start != grid.lo or len(values) != len(grid):
        raise ConfigError(field, f"must cover offsets [{grid.lo}, {grid.hi}] exactly "
                                 f"(start={start}, {len(values)} values)")
    return GridFunction(grid, values)


def load_config(path: str) -> dict:
    """The config at path, with every value checked against _FIELDS."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ArgumentError("--config", str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise ConfigError("<json>", "nested too deeply to read")
    except ValueError as exc:  # not UTF-8, or an integer literal past Python's digit limit
        raise ConfigError("<json>", str(exc).partition(";")[0])  # drop the advice to raise it
    if not isinstance(cfg, dict):  # the file itself, which no key names
        raise ConfigError("<root>", f"must be an object, got {_found(cfg)}")
    _read(cfg, "", "root")
    return cfg


def build_operator(cfg: dict) -> FracOperator:
    a = float(_require(cfg, "a"))
    b_off = _require(cfg, "b_offset")
    nu = float(_require(cfg, "nu"))
    try:
        n = fractional_order_n(nu)
    except ValueError as exc:
        raise ConfigError("nu", str(exc))
    if b_off < n + 1:
        raise ConfigError("b_offset", f"must be at least N+1 = {n + 1}")
    p_grid, q_grid = FracOperator.coefficient_grids(a, nu, b_off)
    return FracOperator(a, nu, _coefficient(cfg, "p", p_grid), _coefficient(cfg, "q", q_grid))


def build_forcing(cfg: dict, op: FracOperator) -> GridFunction:
    return _coefficient(cfg, "h", op.rows)


def build_initial_conditions(problem: dict, op: FracOperator) -> InitialConditions:
    a_vals = _require(problem, "problem.A")
    if len(a_vals) != op.N + 1:
        raise ConfigError("problem.A", f"expected {op.N + 1} numbers")
    ghost = problem.get("ghost", {})
    explicit = ghost.get("mode") == "explicit"
    if "values" in ghost and not explicit:
        raise ConfigError("problem.ghost.values", 'only "mode": "explicit" takes values')
    closure = GhostClosure.explicit(*ghost.get("values", ())) if explicit else GhostClosure.zero()
    try:
        closure.ghost_values(op.N - 1)  # a wrong explicit ghost count is a config error
    except ValueError as exc:
        raise ConfigError("problem.ghost", str(exc))
    return InitialConditions(a_vals, closure)


def build_boundary_spec(problem: dict, op: FracOperator) -> BoundarySpec:
    try:
        spec = BoundarySpec(problem.get("alpha", ()), problem.get("A", ()),
                            problem.get("beta", ()), problem.get("B", 0.0))
    except ValueError as exc:
        raise ConfigError("problem", str(exc))
    if spec.N != op.N:
        raise ConfigError("problem.alpha", f"expected {op.N} rows for N = {op.N}, got {spec.N}")
    return spec


def _problem(cfg: dict, *kinds: str) -> tuple[str, dict]:
    """The problem's type, one of kinds, and its object."""
    problem = _require(cfg, "problem")
    _read(problem["type"], "problem.type", list(kinds))
    return problem["type"], problem


def _write_csv(out: str | None, header: Sequence[str], rows) -> None:
    try:
        fh = open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ArgumentError("--out", str(exc))
    with fh as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_monomial(args) -> int:
    _finite("--nu", args.nu)
    grid = Grid(_finite("--a", args.a), args.lo, args.hi)  # t = a + k must be exact
    rows = ((k, _fmt(grid.base + k), _fmt(taylor_monomial(k, args.nu))) for k in grid.offsets())
    _write_csv(args.out, ("offset", "t", "H"), rows)
    return 0


def cmd_cauchy(args) -> int:
    cfg = load_config(args.config)
    op = build_operator(cfg)
    cf = cauchy_function(op)
    rows = [(k, _fmt(op.a + k), s, _fmt(op.a + s), _fmt(col.at(k)))
            for s in cf.rows.offsets() for col in [cf.column(s)] for k in col.grid.offsets()]
    _write_csv(args.out, ("t_offset", "t", "s_offset", "s", "x"), rows)
    return 0


def cmd_solve(args) -> int:
    """solve-ivp or solve-bvp, on a config of the problem type the command names."""
    cfg = load_config(args.config)
    op = build_operator(cfg)
    h = build_forcing(cfg, op)
    kind, problem = _problem(cfg, args.command.removeprefix("solve-"))
    if kind == "ivp":
        x = solve_ivp(op, h, build_initial_conditions(problem, op))
    else:
        x = solve_bvp(op, h, build_boundary_spec(problem, op))
    rows = ((k, _fmt(x.grid.base + k), _fmt(x.at(k))) for k in x.grid.offsets())
    _write_csv(args.out, ("offset", "t", "x"), rows)
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
        if args.conjugate:
            raise ArgumentError("--conjugate", "cannot be used with --config")
        cfg = load_config(args.config)
        _, problem = _problem(cfg, "greens")
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
    a = g.grid.base
    rows = [(t, _fmt(a + t), s, _fmt(a + s), _fmt(g.value(t, s)), g.branch_of(t, s))
            for t in g.grid.offsets() for s in g.rows.offsets()]
    _write_csv(args.out, ("t_offset", "t", "s_offset", "s", "G", "branch"), rows)
    return 0


def _ratio(num: float, den: float) -> float:
    """num / den, where 0/0 counts as 0 and a nonzero num over 0 as inf."""
    return num / den if den else math.inf if num else 0.0


def _scaled(res: float, matrix: np.ndarray, x: np.ndarray, rhs) -> tuple[float, str]:
    """res / (||matrix|| ||x|| + ||rhs||) in the inf-norm, then a report of both;
    ||matrix|| is its largest absolute row sum, x covers its columns and rhs its rows."""
    size = np.abs(matrix).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
    scaled = _ratio(res, float(size))
    return scaled, f"max residual {res:.3e}, scaled {scaled:.3e}"


def _boundary_residual(x: GridFunction, spec: BoundarySpec, op: FracOperator) -> tuple[float, str]:
    """||Bx - c||, scaled, with B = boundary_rows and c the boundary values."""
    rows = boundary_rows(spec, op.b_offset)
    xs = x.values_on(op.grid)
    gap = float(np.max(np.abs(rows @ xs - spec.values)))
    return _scaled(gap, rows, xs, spec.values)


def _relative(gap: float, ref: np.ndarray, name: str = "x") -> tuple[float, str]:
    """gap over max|ref|, then a report of it and of gap."""
    rel = _ratio(gap, float(np.max(np.abs(ref))))
    return rel, f"max gap {gap:.3e}, over max|{name}| {rel:.3e}"


def _relative_gap(x: GridFunction, ref: GridFunction) -> tuple[float, str]:
    """max|x - ref| over max|ref|, then a report of it and of max|x - ref|."""
    return _relative(float(np.max(np.abs(x.values - ref.values))), ref.values)


def _oracle_gap(x: GridFunction, dense_sys) -> tuple[float, str, float]:
    """_relative_gap from the dense oracle's answer, with the oracle's cond_1; that
    answer may be off by about cond_1 * eps of max|x|, the check's allowance."""
    ref = dense_solve(dense_sys)
    rel, report = _relative_gap(x, ref)
    return rel, f"{report}, oracle cond1 {ref.cond:.3e}", ref.cond * np.finfo(float).eps


def _verify_checks(cfg: dict):
    """Yield (name, measured, report, allowance) tuples.

    The verdict reads ``measured``: the equation and boundary residuals
    are scaled by ||L|| ||x|| + ||h|| and ||B|| ||x|| + ||c||, with L
    the oracle's equation rows, and the agreement checks measure their
    gap relative to max|x| (max|G| for the closed form) of the reference
    answer; ``report`` also gives the absolute value.  A check passes
    when ``measured`` is at most the larger of DEFAULT_TOL and its
    allowance: the oracle's cond_1 * eps for the oracle agreement
    checks, 0 for the others.  The problem is built and solved before
    the first check, so that a refused solve prints no check line.
    """
    op = build_operator(cfg)
    h = build_forcing(cfg, op)
    kind, problem = _problem(cfg, "ivp", "bvp", "greens")
    if kind == "ivp":
        ic = build_initial_conditions(problem, op)
        x = solve_ivp(op, h, ic)
        dense_sys = assemble_ivp(op, h, ic)
    elif kind == "bvp":
        spec = build_boundary_spec(problem, op)
        x = solve_bvp(op, h, spec)
        dense_sys = assemble_bvp(op, h, spec, GhostClosure.zero())
    else:
        if not op.is_basic() or op.N != 2:
            raise ConfigError("problem", "greens verification needs p == 1, q == 0, nu in (1,2)")
        spec = BoundarySpec.conjugate()
        basis = _greens_basis(op)
        built = build_greens(op, spec, basis)
        x = greens_solve(built, h)
        x_bvp = solve_bvp(op, h, spec, basis)
        dense_sys = assemble_ivp(op, h, InitialConditions.zeros(op.N))
    eq_rows = dense_sys.matrix[2 * op.N:]

    probe_gap = float(np.max(np.abs(probe_equation_rows(op) - eq_rows)))
    yield "probe-vs-symbolic-rows", probe_gap, f"max residual {probe_gap:.3e}", 0.0
    if kind == "greens":
        closed = conjugate_greens_closed_form(op.a, op.b, op.nu)
        gap = compare_greens(built, closed)
        stated = closed.G[closed.branch != "u*"]  # the cells compare_greens reads
        yield "greens-closed-form-agreement", *_relative(gap, stated, "G"), 0.0
    res = residual(op, x, h)
    yield f"{kind}-equation-residual", *_scaled(res, eq_rows, x.values, h.values), 0.0
    if kind != "ivp":
        yield f"{kind}-boundary-residual", *_boundary_residual(x, spec, op), 0.0
    if kind == "greens":
        yield "greens-vs-bvp-agreement", *_relative_gap(x, x_bvp), 0.0
    else:
        yield f"{kind}-oracle-agreement", *_oracle_gap(x, dense_sys)


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    failed = None
    for idx, (name, measured, report, allowance) in enumerate(_verify_checks(cfg)):
        limit = max(DEFAULT_TOL, allowance)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: main reports it, one line, exit 1
        raise ValueError(message)


@functools.lru_cache(maxsize=None)  # built once per process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nablafrac", description="Discrete nabla fractional calculus solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monomial", help="print a Taylor monomial table")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--lo", type=int, default=0)
    p.add_argument("--hi", type=int, default=10)
    _add_out(p)
    p.set_defaults(func=cmd_monomial)

    for name, func, text in (
        ("cauchy", cmd_cauchy, "tabulate the Cauchy function columns"),
        ("solve-ivp", cmd_solve, "solve an initial value problem"),
        ("solve-bvp", cmd_solve, "solve an (N,1) boundary value problem"),
    ):
        p = sub.add_parser(name, help=text)
        _add_config(p)
        _add_out(p)
        p.set_defaults(func=func)

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
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # exit 3 reports an overflow, once
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
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, and the package's own input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: problem too big for memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
