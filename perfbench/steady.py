"""Steadiness report: run the benchmark over several seeds and show the spread.

Usage:
  python3 perfbench/steady.py [--workloads twisted,pentagon,...] [--seeds 10]
                              [--first-seed 1] [--seconds 25] [--trace 0]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median across the seeds, next to the bound
BENCHMARK.json fixes for it.  The summary goes to
perfbench/out/steadiness-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failures = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=240)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += (not result["correct"]) or result["failed"] > 0 or proc.returncode != 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.4g}" for n, m in list(result["metrics"].items())[:6]), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name),
                          "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                             ("  within bound" if spread <= bound else "  OVER BOUND"))
            print(f"  {workload:<10} {name:<42} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}  bound {bound}{flag}")
        summary[workload] = {"failures": failures, "metrics": rows}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steadiness-trace{args.trace}.json"), "w") as fh:
        json.dump({"seeds": [args.first_seed, args.first_seed + args.seeds - 1], "seconds": args.seconds,
                   "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
