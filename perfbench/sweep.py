#!/usr/bin/env python3
"""Scaling sweep: one traced op of each kind at b - a in {20, 40, 80, 160, 320}.

    python3 perfbench/sweep.py --seed 0 --cap 30

Each op kind runs at nu = 1.5 (the workloads' problems at that order)
from the smallest size up.  Before each size the next op time is
predicted from the last two (or, after one size, with exponent 4); a
size predicted to take longer than ``--cap`` seconds is skipped with
every larger one, so the b^4 paths are cut instead of left to hang.
For every span name, and for the monomial leaf time, the sweep fits the
exponent of total time against b by least squares on the log-log
points above 1 ms, and gives the local exponent between the two largest
sizes run.  Not gated: it prints a table and writes
``perfbench/out/sweep-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

import run

SIZES = (20, 40, 80, 160, 320)
FLOOR_S = 1e-3


def fit_exponent(points: list[tuple[int, float]]) -> float | None:
    pts = [(math.log(b), math.log(t)) for b, t in points if t >= FLOOR_S]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=float, default=30.0, help="per-size time cap, seconds")
    args = parser.parse_args(argv)
    if not (run.SRC / "nablafrac" / "__init__.py").is_file():
        print(f"error: no nablafrac sources under {run.SRC}", file=sys.stderr)
        return 2
    run.prepare_env()
    import numpy as np

    import tracing
    import workloads

    kinds = {
        "ivp-horizon": lambda rng, b, wd: workloads.ivp_problem(rng, 1.5, b, False),
        "bvp-variable": lambda rng, b, wd: workloads.bvp_problem(rng, 1.5, b),
        "greens-conjugate": lambda rng, b, wd: workloads.greens_problem(rng, 1.5, b),
        "cli-verify": lambda rng, b, wd: workloads.verify_problem(rng, "ivp", 1.5, b, wd, 0),
    }
    workdir = run.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    result = {"machine": run.machine_facts(), "seed": args.seed, "cap_s": args.cap, "kinds": {}}
    try:
        for kind, make in kinds.items():
            measured: list[tuple[int, float, dict]] = []
            skipped = []
            for b in SIZES:
                if measured:
                    b1, t1, _ = measured[-1]
                    slope = 4.0
                    if len(measured) >= 2:
                        b0, t0, _ = measured[-2]
                        slope = math.log(t1 / t0) / math.log(b1 / b0)
                    predicted = t1 * (b / b1) ** slope
                    if predicted > args.cap:
                        skipped = [s for s in SIZES if s >= b]
                        print(f"{kind}: skip b >= {b} (predicted {predicted:.0f} s > cap)")
                        break
                problem = make(np.random.default_rng(args.seed), b, workdir)
                tracer = tracing.Tracer()
                first: dict = {}
                rec = run.run_op([problem], 0, first, tracer)
                table = tracer.span_table()
                table["monomial (leaf)"] = {"total_s": sum(r["leaf_s"] for r in table.values())}
                measured.append((b, rec.seconds, table))
                print(f"{kind}: b={b} op {rec.seconds:.3f} s"
                      + (f" ({rec.error[0]})" if rec.error else ""), flush=True)
            names = sorted({n for _, _, t in measured for n in t})
            series = {name: [(b, t[name]["total_s"]) for b, _, t in measured if name in t]
                      for name in names}
            series["op"] = [(b, s) for b, s, _ in measured]
            fits = {name: fit_exponent(pts) for name, pts in series.items()}
            local = {name: fit_exponent(pts[-2:]) for name, pts in series.items()}
            result["kinds"][kind] = {
                "sizes": [b for b, _, _ in measured], "skipped": skipped,
                "op_s": [s for _, s, _ in measured],
                "totals_s": {n: [t.get(n, {}).get("total_s") for _, _, t in measured]
                             for n in names},
                "exponent": fits,
                "last_exponent": local,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"\n{'kind':18s} {'span':38s} exponent  last two sizes")
    for kind, res in result["kinds"].items():
        top = sorted(((n, e) for n, e in res["exponent"].items() if e is not None),
                     key=lambda ne: -max(v or 0.0 for v in res["totals_s"].get(ne[0], [1.0])))
        for name, exp in top[:8]:
            last = res["last_exponent"][name]
            print(f"{kind:18s} {name:38s} {exp:8.2f}  {'-' if last is None else f'{last:.2f}'}")
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / f"sweep-s{args.seed}.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
