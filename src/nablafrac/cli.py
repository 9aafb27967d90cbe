"""Command-line surface: JSON problem configs in, CSV tables out.

Subcommands: ``monomial``, ``cauchy``, ``solve-ivp``, ``solve-bvp``,
``greens``, ``verify``.  ``greens`` prints the (2,1) conjugate G, the
closed form when p == 1 and q == 0, else the bordered solve over the
numeric basis, and ``verify`` judges that same G through x = G h.  Exit
codes, none of which ends in a traceback:
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
from itertools import accumulate
from typing import Sequence

from .bvp import BoundarySpec, solve_bvp
from .errors import (DegenerateDenominatorError, NearSingularError, NonFiniteError,
                     SingularSystemError)
from .fraccalc import fractional_order_n
from .grid import Grid, GridFunction, constant_grid_function
from .ivp import InitialConditions, cauchy_function, homogeneous_basis, solve_ivp
from .greens import _BRANCHES, _regions, conjugate_greens_closed_form, greens_matrix
from .monomial import taylor_monomial
from .operator import FracOperator, GhostClosure, require_finite
from .oracle import assemble_bvp, assemble_ivp, dense_solve, probe_equation_rows

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
    "greens": {"type": ["greens"]},
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
    nu = _finite("--nu", args.nu)
    grid = Grid(_finite("--a", args.a), args.lo, args.hi)  # t = a + k must be exact
    m = max(grid.lo, 1)  # from H_nu(a+m) on, taylor_monomial's product runs row to row: O(hi)
    run = accumulate(range(m, grid.hi), lambda x, j: x * ((nu + j) / j),
                     initial=taylor_monomial(m, nu))
    h = (taylor_monomial(k, nu) if k < 1 or nu.is_integer() else next(run) for k in grid.offsets())
    rows = ((k, _fmt(grid.base + k), _fmt(v)) for k, v in zip(grid.offsets(), h))
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


def _conjugate_greens(op: FracOperator) -> np.ndarray:
    """The (2,1) conjugate G that ``greens`` prints and ``verify`` judges: the closed
    form when p == 1 and q == 0, else the bordered solve over the numeric basis."""
    if op.N != 2:
        raise ConfigError("nu", f"the (2,1) conjugate G needs nu in (1, 2), got {op.nu}")
    if op.is_basic():
        return conjugate_greens_closed_form(op.a, op.b, op.nu).G
    return greens_matrix(op, BoundarySpec.conjugate())


def cmd_greens(args) -> int:
    cfg = load_config(args.config)
    _problem(cfg, "greens")
    op = build_operator(cfg)
    g, branch = _conjugate_greens(op).tolist(), _BRANCHES[_regions(op.grid, op.rows)].tolist()
    ts, ss = ([(k, _fmt(op.a + k)) for k in r.offsets()] for r in (op.grid, op.rows))  # once each
    rows = [(*t, *s, _fmt(v), c) for t, gt, bt in zip(ts, g, branch) for s, v, c in zip(ss, gt, bt)]
    _write_csv(args.out, ("t_offset", "t", "s_offset", "s", "G", "branch"), rows)
    return 0


def _ratio(num: float, den: float) -> float:
    """num / den, where 0/0 counts as 0 and a nonzero num over 0 as inf."""
    return num / den if den else math.inf if num else 0.0


def _scaled(rows: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> tuple[float, str]:
    """||rows x - rhs|| / (||rows|| ||x|| + ||rhs||) in the inf-norm, then a report of
    both; ||rows|| is its largest absolute row sum."""
    res = float(np.max(np.abs(rows @ x - rhs)))
    size = np.abs(rows).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
    scaled = _ratio(res, float(size))
    return scaled, f"max residual {res:.3e}, scaled {scaled:.3e}"


def _relative(gap: float, ref: np.ndarray, name: str = "x") -> tuple[float, str]:
    """gap over max|ref|, then a report of it and of gap."""
    rel = _ratio(gap, float(np.max(np.abs(ref))))
    return rel, f"max gap {gap:.3e}, over max|{name}| {rel:.3e}"


def _verify_checks(cfg: dict):
    """Yield (name, measured, report, allowance) tuples.

    The residuals read the config's one dense oracle system (the BVP one,
    with the conjugate spec, for a greens config, whose x is G h with the
    G that ``greens`` prints), not the solvers' rows: ||Lx - h|| and
    ||Bx - c|| over its equation rows L and side rows B, scaled by
    ||L|| ||x|| + ||h|| and ||B|| ||x|| + ||c||.  One reference of the
    same ghost convention judges each answer: ``greens_matrix`` over the
    analytic basis a closed-form G, on its stated cells and relative to
    max|G|, and the oracle's answer every other x, relative to its max|x|;
    ``report`` also gives the absolute gap.  A check passes when
    ``measured`` is at most the larger of DEFAULT_TOL and its allowance:
    the oracle's cond_1 * eps for the oracle agreement checks, 0 for the
    others.  Everything but the oracle's answer is built and solved before
    the first check, so that a refused solve prints no check line.
    """
    op = build_operator(cfg)
    h = build_forcing(cfg, op)
    kind, problem = _problem(cfg, "ivp", "bvp", "greens")
    closed = kind == "greens" and op.is_basic()
    if kind == "ivp":
        ic = build_initial_conditions(problem, op)
        x = solve_ivp(op, h, ic)
        dense_sys = assemble_ivp(op, h, ic)
    else:
        if kind == "bvp":
            spec = build_boundary_spec(problem, op)
            x = solve_bvp(op, h, spec)
        else:
            spec, g = BoundarySpec.conjugate(), _conjugate_greens(op)
            x = GridFunction(op.grid, require_finite(op.grid, g @ h.values_on(op.rows)))
            if closed:
                g_ref = greens_matrix(op, spec, homogeneous_basis(op, analytic=True))
        dense_sys = assemble_bvp(op, h, spec, GhostClosure.zero())
    # the oracle's rows: N-1 ghost rows, the N+1 side rows, then the equation rows
    rows, rhs, xs = dense_sys.matrix, dense_sys.rhs, x.values
    side, eq = slice(op.N - 1, 2 * op.N), slice(2 * op.N, None)

    probe_gap = float(np.max(np.abs(probe_equation_rows(op) - rows[eq])))
    yield "probe-vs-symbolic-rows", probe_gap, f"max residual {probe_gap:.3e}", 0.0
    if closed:
        stated = _regions(op.grid, op.rows) > 0  # the cells compare_greens reads
        gap = float(np.max(np.abs(g_ref[stated] - g[stated])))
        yield "greens-closed-form-agreement", *_relative(gap, g[stated], "G"), 0.0
    yield f"{kind}-equation-residual", *_scaled(rows[eq], xs, rhs[eq]), 0.0
    if kind != "ivp":
        yield f"{kind}-boundary-residual", *_scaled(rows[side], xs, rhs[side]), 0.0
    if not closed:
        # the oracle's answer may be off by about cond_1 * eps of max|x|, the allowance
        ref = dense_solve(dense_sys)
        rel, report = _relative(float(np.max(np.abs(xs - ref.values))), ref.values)
        yield (f"{kind}-oracle-agreement", rel, f"{report}, oracle cond1 {ref.cond:.3e}",
               ref.cond * np.finfo(float).eps)


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


def _add_config(p):
    p.add_argument("--config", required=True, help="path to a JSON problem config")


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
        ("greens", cmd_greens, "tabulate a Green's function"),
    ):
        p = sub.add_parser(name, help=text)
        _add_config(p)
        _add_out(p)
        p.set_defaults(func=func)

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
