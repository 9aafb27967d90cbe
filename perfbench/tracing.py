"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces every public function of the ``nablafrac``
layer modules, in every module namespace that holds it (so
``nablafrac.ivp.taylor_monomial`` and ``nablafrac.bvp.gauss_solve`` are
wrapped where they are imported), with a wrapper that records a span.
``Tracer.uninstall`` puts the originals back; untraced runs never see a
wrapper.  Private helpers (``_caputo_at`` and friends) are not wrapped,
so their time is part of their caller's self time.

Two kinds of boundary are not recorded as one span per call:

* ``monomial`` functions are scalar kernels called 10^5 to 10^6 times
  per op.  Each call adds its duration to the enclosing span's
  ``leaf_ns`` and bumps the per-op counters ``monomial.calls``,
  ``monomial.loop_iters`` (the sum of the ``m`` arguments) and the set
  of distinct ``(m, mu)`` pairs.
* ``GridFunction`` construction is counted (objects and values copied),
  not timed.

A span's self time is its duration minus its child spans and its leaf
time.  Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import types
from array import array
from collections import Counter
from time import perf_counter_ns

import nablafrac
from nablafrac import bvp, cli, fraccalc, greens, grid, ivp, linalg, monomial, operator, oracle

LAYER_MODULES = (grid, monomial, fraccalc, operator, ivp, bvp, greens, oracle, linalg, cli)
LEAF_LAYER = "monomial"


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("nablafrac."):
        return None
    return mod.rsplit(".", 1)[1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.leaf_ns = array("q")
        self.raised = array("b")
        self.errors: Counter = Counter()  # layer -> spans of that layer left by an exception
        self.counts: Counter = Counter()  # summed over traced ops
        self._distinct: set = set()
        self._leaf_acc = [0, 0]  # monomial calls, loop iterations
        self._stack: list[int] = []
        self._op_id = -1
        self._last_exc: dict[str, BaseException] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._post_init = None

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.leaf_ns.append(0)
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _error(self, idx: int, layer: str, exc: BaseException) -> None:
        self.raised[idx] = 1
        # count an exception once per layer it passes through
        if self._last_exc.get(layer) is not exc:
            self._last_exc[layer] = exc
            self.errors[layer] += 1

    def begin_op(self, name: str) -> int:
        """Open the root span of one op; returns its span index."""
        self._op_id += 1
        self._distinct = set()
        return self._open(name)

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.counts["monomial.distinct"] += len(self._distinct)
        self.counts["monomial.calls"] += self._leaf_acc[0]
        self.counts["monomial.loop_iters"] += self._leaf_acc[1]
        self._leaf_acc[:] = [0, 0]

    @property
    def n_ops(self) -> int:
        return self._op_id + 1

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        flops = layer == "linalg"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flops:
                n = len(args[0])
                self.counts["linalg.elim_flops"] += 2.0 * n ** 3 / 3.0
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(idx, layer, exc)
                raise
            finally:
                self._close(idx)

        return wrapper

    def _leaf_wrapper(self, fn):
        # Kept lean: the wrapper's own cost lands in the caller's self time.
        stack, leaf_ns, acc = self._stack, self.leaf_ns, self._leaf_acc

        @functools.wraps(fn)
        def wrapper(m, nu):
            t0 = perf_counter_ns()
            out = fn(m, nu)
            leaf_ns[stack[-1]] += perf_counter_ns() - t0
            acc[0] += 1
            if m > 0:
                acc[1] += m
            self._distinct.add((m, nu))
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function in every namespace that holds it."""
        wrapped: dict[int, object] = {}
        for mod in (nablafrac,) + LAYER_MODULES:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                w = wrapped.get(id(obj))
                if w is None:
                    w = (self._leaf_wrapper(obj) if layer == LEAF_LAYER
                         else self._span_wrapper(obj, layer))
                    wrapped[id(obj)] = w
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, w)

        gf = grid.GridFunction
        self._post_init = gf.__post_init__
        orig, counts = self._post_init, self.counts

        def post_init(obj):
            orig(obj)
            counts["grid.gridfunctions"] += 1
            counts["grid.values_copied"] += len(obj.values)

        gf.__post_init__ = post_init

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
        if self._post_init is not None:
            grid.GridFunction.__post_init__ = self._post_init
            self._post_init = None

    # -- analysis --------------------------------------------------------
    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only), self_s, leaf_s."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "leaf_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (dur - child_ns[i] - self.leaf_ns[i]) * 1e-9
            row["leaf_s"] += self.leaf_ns[i] * 1e-9
            if not self._nested_in_same(i):
                row["total_s"] += dur * 1e-9
        return table

    def _nested_in_same(self, i: int) -> bool:
        nid = self.span_name[i]
        p = self.parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self) -> dict:
        """Every span as [name, start_ns, end_ns, parent, op, leaf_ns, raised]."""
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "leaf_ns", "raised"],
            "spans": [
                [self.names[self.span_name[i]], self.start[i], self.end[i],
                 self.parent[i], self.op[i], self.leaf_ns[i], self.raised[i]]
                for i in range(len(self.span_name))
            ],
            "counts": dict(self.counts),
            "errors": dict(self.errors),
        }


# (metric, unit, better).  Times and counts are per traced op.
PER_LAYER = (
    ("monomial.calls", "count/op", "lower"),
    ("monomial.loop_iters", "count/op", "lower"),
    ("monomial.distinct_frac", "ratio", "higher"),
    ("monomial.self_s", "s/op", "lower"),
    ("ivp.solve_ivp.self_s", "s/op", "lower"),
    ("ivp.solve_ivp.calls", "count/op", "lower"),
    ("ivp.cauchy_function.self_s", "s/op", "lower"),
    ("ivp.variation_of_constants.self_s", "s/op", "lower"),
    ("ivp.homogeneous_basis.total_s", "s/op", "lower"),
    ("bvp.solve_bvp.self_s", "s/op", "lower"),
    ("bvp.assemble_d.total_s", "s/op", "lower"),
    ("bvp.errors", "count/op", "lower"),
    ("linalg.gauss_solve.calls", "count/op", "lower"),
    ("linalg.gauss_solve.total_s", "s/op", "lower"),
    ("linalg.elim_flops", "flop/op", "lower"),
    ("linalg.errors", "count/op", "lower"),
    ("greens.build_greens.self_s", "s/op", "lower"),
    ("greens.closed_form.total_s", "s/op", "lower"),
    ("greens.greens_solve.total_s", "s/op", "lower"),
    ("greens.compare_greens.total_s", "s/op", "lower"),
    ("oracle.probe_equation_rows.self_s", "s/op", "lower"),
    ("oracle.assemble.total_s", "s/op", "lower"),
    ("oracle.dense_solve.self_s", "s/op", "lower"),
    ("oracle.residual.total_s", "s/op", "lower"),
    ("operator.apply.calls", "count/op", "lower"),
    ("operator.self_s", "s/op", "lower"),
    ("fraccalc.self_s", "s/op", "lower"),
    ("grid.gridfunctions", "count/op", "lower"),
    ("grid.values_copied", "count/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("cli.exit_nonzero", "count/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_COUNTED = ("monomial.calls", "monomial.loop_iters", "linalg.elim_flops",
            "grid.gridfunctions", "grid.values_copied")

# metric name -> span names it sums, where the metric name is not a span name
_SPAN_ALIASES = {
    "greens.closed_form": ("greens.conjugate_greens_closed_form",),
    "oracle.assemble": ("oracle.assemble_ivp", "oracle.assemble_bvp"),
}


def layer_metrics(tracer: Tracer, exit_nonzero: int, overhead_frac: float) -> dict[str, float]:
    """Values of every :data:`PER_LAYER` metric, per traced op."""
    n = max(tracer.n_ops, 1)
    table = tracer.span_table()
    counts = tracer.counts

    def span_sum(key: str, field: str) -> float:
        names = _SPAN_ALIASES.get(key, (key,))
        return sum(table.get(s, {}).get(field, 0.0) for s in names)

    def layer_self(layer: str) -> float:
        return sum(row["self_s"] for name, row in table.items()
                   if name.split(".", 1)[0] == layer)

    leaf_s = sum(row["leaf_s"] for row in table.values())
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer = name.split(".", 1)[0]
        if name == "monomial.distinct_frac":
            calls = counts["monomial.calls"]
            out[name] = counts["monomial.distinct"] / calls if calls else 0.0
            continue
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
            continue
        if name in _COUNTED:
            total = counts[name]
        elif name == "monomial.self_s":
            total = leaf_s
        elif name == "cli.exit_nonzero":
            total = exit_nonzero
        elif name.endswith(".errors"):
            total = tracer.errors[layer]
        elif name in ("operator.self_s", "fraccalc.self_s", "cli.self_s"):
            total = layer_self(layer)
        else:
            key, field = name.rsplit(".", 1)
            total = span_sum(key, field)
        out[name] = total / n
    return out
