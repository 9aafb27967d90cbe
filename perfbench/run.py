#!/usr/bin/env python3
"""nablafrac benchmark: seeded solve workloads in a closed loop.

    python3 perfbench/run.py --workload greens-conjugate --seed 1 --seconds 30 --trace 1

One process, one thread, one caller: each op starts when the previous
one has returned.  The runner builds the workload's problems from
``--seed`` (set-up), times ops round-robin over them for ``--seconds``,
then checks every answer against the dense oracle outside the timed
region.  It prints one line per metric (name, value, unit), a JSON
report line, and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the result carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced runs of each op and
carries the per-layer metrics (see ``tracing.py``).  The full report,
and the spans of a traced run, are written to ``perfbench/out/``.

Times are reported at the machine's nominal speed: a fixed pure-float
loop (:func:`reference_s`) runs between ops, and each op's wall time is
scaled by ``REF_NOMINAL_S`` over the mean of the loop times on either
side of it.  The raw wall times are kept in the report.

It imports ``nablafrac`` from ``src/`` next to this directory and exits
with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BENCHMARK.json gates the workloads on which no op fails.  bvp-variable and
# cli-verify-full run the inputs that hit the known defects (README.md).
WORKLOADS = ("ivp-horizon", "greens-conjugate", "cli-verify", "bvp-variable", "cli-verify-full")
SETUP_PROBES = 12  # set-up repeats in child processes, besides this process's own
TAIL_BEYOND = 10  # op_s_tail: highest percentile with this many samples beyond it

# The host's speed drifts by up to 30 % over seconds (other tenants); the
# reference loop measures that drift.  It allocates no containers, so it
# neither triggers nor pays for garbage collection.
REF_ITERS = 300_000
REF_NOMINAL_S = 0.035  # median reference_s() on a 2-vCPU Xeon, Python 3.11

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed and written to the report, but not in the result line: see README.
REPORTED_ONLY = (("fail_frac", "ratio"), ("scaled_err_max", "ratio"))


def prepare_env() -> None:
    """One BLAS/OpenMP thread, no tolerance override, library from src/."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NABLA_GREEN_TOL", None)
    sys.path.insert(0, str(SRC))


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }


def reference_s() -> float:
    """Wall time of a fixed pure-float loop: the machine's speed right now."""
    t0 = time.perf_counter()
    out = 1.0
    for j in range(1, REF_ITERS):
        out *= (0.5 + j) / j
    return time.perf_counter() - t0


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the library, build the problems, and run a tiny copy of each
    op so lazy imports and first-call costs land here, not in the timed
    loop.  Returns (problems, wall seconds, nominal seconds)."""
    ref_before = reference_s()
    t0 = time.perf_counter()
    import workloads  # imports nablafrac and numpy

    problems = workloads.build(workload, seed, workdir)
    warm = workdir / "warm"
    warm.mkdir()
    for p in workloads.build(workload, seed, warm, b=workloads.WARM_UP_SIZE):
        try:
            p.run()
        except ValueError:  # every nablafrac error is a ValueError
            pass
    wall = time.perf_counter() - t0
    return problems, wall, nominal(wall, ref_before, reference_s())


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(wall, nominal) set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["wall_s"], out["setup_s"]


class Record:
    """One op: problem index, wall and nominal seconds, answer key, error."""

    __slots__ = ("problem", "seconds", "nominal", "key", "error", "traced")

    def __init__(self, problem, seconds, key, error, traced):
        self.problem, self.seconds, self.key = problem, seconds, key
        self.error, self.traced = error, traced
        self.nominal = seconds


def run_op(problems, k: int, first: dict, tracer=None) -> Record:
    """Time one op.  Keeps the first answer of each problem for the checks."""
    p = problems[k]
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            answer = p.run()
        else:
            root = tracer.begin_op(f"op.{p.label}")
            try:
                answer = p.run()
            finally:
                tracer.end_op(root)
    except Exception as exc:  # the op failed: record it and go on
        seconds = time.perf_counter() - t0
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return Record(k, seconds, None, (type(exc).__name__, error), tracer is not None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = time.perf_counter() - t0
    first.setdefault(k, answer)
    return Record(k, seconds, p.key(answer), None, tracer is not None)


def timed_loop(problems, seconds: float, tracer=None):
    """Round-robin over the problems until ``seconds`` have passed, with the
    reference loop between ops.  With a tracer, each problem runs untraced
    and then traced."""
    records, first = [], {}
    refs = [reference_s()]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(problems)
        i += 1
        for t in ((None, tracer) if tracer is not None else (None,)):
            records.append(run_op(problems, k, first, t))
            refs.append(reference_s())
    for rec, before, after in zip(records, refs, refs[1:]):
        rec.nominal = nominal(rec.seconds, before, after)
    return records, first, refs


def judge(problems, records, first):
    """Check each problem's first answer once; compare every repeat bit for
    bit.  Returns (failures, unrepeatable, scaled_err_max).

    An op fails when it raised, when the CLI exited nonzero, when its
    answer misses a check, or when it differs from the first answer to
    the same input.  Only the last makes the run incorrect: a single
    check no longer stands for every run of that input.  Misses of the
    scaled tolerance are counted as failures with their reason.
    """
    verdict, scaled = {}, {}
    for k, answer in first.items():
        p = problems[k]
        checks = p.check(answer)
        reasons = [f"{name} {value:.3e} > {limit:.0e}"
                   for name, (value, limit) in checks.items() if not value <= limit]
        verdict[k] = (reasons, p.refused(answer))
        scaled[k] = checks.get("scaled_residual", (None,))[0]
    ref_key: dict[int, bytes] = {}
    failures, unrepeatable, errs = [], 0, []
    for rec in records:
        label = problems[rec.problem].label
        if rec.error is not None:
            failures.append({"problem": label, "reason": rec.error[0], "detail": rec.error[1]})
            continue
        if ref_key.setdefault(rec.problem, rec.key) != rec.key:
            unrepeatable += 1
            failures.append({"problem": label, "reason": "answer differs from the first run"})
            continue
        reasons, refused = verdict[rec.problem]
        if reasons:
            failures.append({"problem": label, "reason": "; ".join(reasons)})
        elif refused:
            failures.append({"problem": label, "reason": refused})
        elif scaled[rec.problem] is not None:
            errs.append(scaled[rec.problem])
    return failures, unrepeatable, (max(errs) if errs else None)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples above it.  Below 2 * TAIL_BEYOND samples no rank at or above
    the median qualifies, and the lower median is returned."""
    s = sorted(samples)
    n = len(s)
    k = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return s[k - 1], 100.0 * k / n


def op_stats(times: list[float]) -> dict:
    tail_value, tail_pct = tail(times)
    return {"ops_per_s": len(times) / sum(times), "op_s_p50": statistics.median(times),
            "op_s_tail": tail_value, "tail_percentile": tail_pct, "samples": len(times)}


def span_shares(tracer) -> dict:
    """Each span name's total and self time as a share of traced op time."""
    table = tracer.span_table()
    op_total = sum(row["total_s"] for name, row in table.items() if name.startswith("op."))
    return {name: {"total_share": row["total_s"] / op_total,
                   "self_share": row["self_s"] / op_total,
                   "calls": row["calls"]}
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
            if not name.startswith("op.")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nablafrac" / "__init__.py").is_file():
        print(f"error: no nablafrac sources under {SRC}", file=sys.stderr)
        return 2
    prepare_env()
    facts = machine_facts()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        problems, setup_wall, setup_nominal = set_up(args.workload, args.seed, workdir)
        import nablafrac
        import numpy

        if not Path(nablafrac.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported nablafrac from {nablafrac.__file__}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"wall_s": setup_wall, "setup_s": setup_nominal}))
            return 0
        facts["numpy"] = numpy.__version__
        setups = [(setup_wall, setup_nominal)] + [probe_setup(args.workload, args.seed)
                                                  for _ in range(SETUP_PROBES)]
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        records, first, refs = timed_loop(problems, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, unrepeatable, scaled_err_max = judge(problems, records, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in records if not r.traced]
    stats = op_stats([r.nominal for r in plain])
    e2e = {"setup_s": statistics.median(s for _, s in setups), **stats,
           "peak_rss_mb": peak_rss_mb, "fail_frac": len(failures) / len(records),
           "scaled_err_max": scaled_err_max}
    units = dict(END_TO_END + REPORTED_ONLY)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts,
              "tail": {"percentile": stats["tail_percentile"], "samples": stats["samples"]},
              "end_to_end": {m: {"value": e2e[m], "unit": u} for m, u in units.items()},
              "wall": {"setup_s": [w for w, _ in setups],
                       "op_s": [r.seconds for r in plain],
                       "reference_s": refs,
                       **{k: v for k, v in op_stats([r.seconds for r in plain]).items()
                          if k in ("ops_per_s", "op_s_p50", "op_s_tail")}},
              "failures": failures}
    if tracer is not None:
        traced = [r for r in records if r.traced]
        pairs = min(len(traced), len(plain))
        overhead = (sum(r.nominal for r in traced[:pairs])
                    / sum(r.nominal for r in plain[:pairs]) - 1.0)
        exit_nonzero = 0
        if args.workload.startswith("cli-verify"):
            exit_nonzero = sum(1 for r in traced if r.error is not None
                               or problems[r.problem].refused(first[r.problem]))
        layer = tracing.layer_metrics(tracer, exit_nonzero, overhead)
        report["per_layer"] = {m: {"value": layer[m], "unit": u} for m, u, _ in tracing.PER_LAYER}
        report["op_share"] = span_shares(tracer)
        result_metrics = report["per_layer"]
    else:
        result_metrics = {m: report["end_to_end"][m] for m, _ in END_TO_END}

    for section in ("end_to_end", "per_layer"):
        for name, m in report.get(section, {}).items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:38s} {value:>14s} {m['unit']}")
    print(f"{'op_s_tail percentile':38s} {stats['tail_percentile']:14.4g} "
          f"of {stats['samples']} ops")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-s{args.seed}-{'trace' if args.trace else 'plain'}"
    stem.with_suffix(".json").write_text(json.dumps(report))
    if tracer is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(report))
    print(json.dumps({"correct": unrepeatable == 0, "attempted": len(records),
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
