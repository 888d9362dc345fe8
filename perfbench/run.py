"""Cold-process CLI benchmark for mzv.

Usage:
  python3 perfbench/run.py --workload {twisted,pentagon,relations,numerics}
                           --seed N --seconds S --trace {0,1}

Every command runs in a fresh worker process (perfbench/worker.py), because
each CLI invocation pays its own cache fills (braid reduction tables, zeta
substitution tables, symbolic associators); a warm process would hide that
cost.  Load is one worker at a time.  A pass runs the workload's commands in
order; passes repeat until the next one would end after --seconds.

--trace 0 reports the end-to-end metrics, from untraced passes only:
  setup_s      median worker set-up (launch to mzv and numpy imported)
  run_s        median over passes of the summed command wall times
  frontier_s   median wall time of the workload's heaviest command
  peak_rss_mb  median over passes of the highest worker peak RSS
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of the traced ones (see tracer.py) and trace.overhead_ratio.

Every output is checked by an oracle (oracles.py); a wrong exit code, a
rejected output or a command past the cap is a failed command, never a
time.  error_rate = failed / attempted.  After the first pass every oracle
must reject corrupted copies of the real outputs (selftest.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record, with provenance, generated arguments and every
sample, goes to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import oracles
import selftest
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
COMMAND_CAP_S = 60.0   # a command past this is killed and counted as failed
HARD_LIMIT_S = 150.0   # no command starts past this, so a run ends within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "frontier_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "words.Word.calls": "count",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.invert.self_s": "s",
    "series.substitute.self_s": "s",
    "series.character_series.self_s": "s",
    "series.exp_log.self_s": "s",
    "symbols.mul.calls": "count",
    "symbols.mul.self_s": "s",
    "symbols.substitute.self_s": "s",
    "symbols.formal_derivative.self_s": "s",
    "ratfunc.ops.calls": "count",
    "ratfunc.ops.self_s": "s",
    "associator.solve_twisted.calls": "count",
    "associator.solve_twisted.distinct_ratio": "ratio",
    "associator.solve_twisted.self_s": "s",
    "associator.zeta_table.self_s": "s",
    "associator.canonicalize.self_s": "s",
    "braid.mul.calls": "count",
    "braid.mul.self_s": "s",
    "braid.reduce.self_s": "s",
    "braid.evaluate_series.self_s": "s",
    "shufflealg.generate.self_s": "s",
    "shufflealg.regularize.self_s": "s",
    "shufflealg.reduce.self_s": "s",
    "shufflealg.rows": "count",
    "shufflealg.columns": "count",
    "shufflealg.shuffle_words.calls": "count",
    "arch_eval.mzv_numeric.calls": "count",
    "arch_eval.mzv_numeric.self_s": "s",
    "arch_eval.polylog.self_s": "s",
    "padic_eval.polylog.calls": "count",
    "padic_eval.polylog.self_s": "s",
    "padics.ops.calls": "count",
    "serialize.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


# -- provenance -----------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "mzv")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".json")):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    return {"git_commit": _git_commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "loadavg_start": list(os.getloadavg()),
            "platform": platform.platform()}


# -- one command --------------------------------------------------------------


def _worker_env() -> dict:
    # ASSOCIATOR_* would change CLI defaults behind the benchmark's back.
    return {k: v for k, v in os.environ.items() if not k.startswith("ASSOCIATOR_")}


def run_command(cmd, cmd_dir: str, cap: float, trace: bool, spans: str | None, cmd_id: str) -> dict:
    """Run one command in a fresh worker; return its sample (times, exit, output path)."""
    out_path = os.path.join(cmd_dir, f"{cmd.name}.out")
    spec = {"group": cmd.group, "args": cmd.args, "stdout": out_path, "trace": trace,
            "stdin": os.path.join(cmd_dir, f"{cmd.stdin_from}.out") if cmd.stdin_from else None,
            "spans": spans, "cmd_id": cmd_id}
    sample = {"command": cmd.name, "traced": trace, "out": out_path}
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=cap,
                              env=_worker_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        sample.update(ok=False, error=f"killed at the {cap:.0f} s cap")
        return sample
    if proc.returncode != 0 or not proc.stdout.strip():
        sample.update(ok=False, error=f"worker exit {proc.returncode}: {proc.stderr.decode()[-400:]}")
        return sample
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    sample.update(setup_s=result["ready"] - launched, wall_s=result["wall_s"], exit=result["exit"],
                  rss_mb=result["rss_mb"], ok=result["exit"] == 0)
    if result["exit"] != 0:
        sample["error"] = f"exit code {result['exit']}: {proc.stderr.decode()[-400:]}"
    if "trace" in result:
        sample["layers"] = tracer.layer_metrics(result["trace"])
    return sample


class Checker:
    """Runs the oracle of each output once per distinct (command, bytes)."""

    def __init__(self):
        self._verdicts: dict[tuple, tuple[bool, object]] = {}

    def check(self, cmd, out: bytes, prior: dict[str, bytes]) -> tuple[bool, object]:
        key = (cmd.name, hashlib.sha256(out).hexdigest(),
               hashlib.sha256(prior.get(cmd.stdin_from or "", b"")).hexdigest())
        if key not in self._verdicts:
            try:
                self._verdicts[key] = (True, oracles.ORACLES[cmd.oracle](cmd, out, prior))
            except oracles.OracleError as exc:
                self._verdicts[key] = (False, str(exc))
            except Exception as exc:  # an output the oracle cannot even parse is wrong
                self._verdicts[key] = (False, f"{type(exc).__name__}: {exc}")
        return self._verdicts[key]


def run_pass(cmds, cmd_dir, trace, spans_dir, deadline, checker, tag) -> tuple[list[dict], dict[str, bytes]]:
    samples, outputs = [], {}
    for cmd in cmds:
        cap = min(COMMAND_CAP_S, deadline - time.monotonic())
        if cap < 1.0:
            samples.append({"command": cmd.name, "traced": trace, "ok": False,
                            "error": "not started: run time limit reached"})
            continue
        spans = os.path.join(spans_dir, f"{cmd.name}.json") if spans_dir else None
        s = run_command(cmd, cmd_dir, cap, trace, spans, f"{tag}/{cmd.name}")
        if s["ok"]:
            with open(s["out"], "rb") as fh:
                out = fh.read()
            ok, info = checker.check(cmd, out, outputs)
            outputs[cmd.name] = out
            s["ok"], s["oracle"] = ok, info
            if not ok:
                s["error"] = f"oracle {cmd.oracle}: {info}"
        samples.append(s)
    return samples, outputs


# -- metrics --------------------------------------------------------------------


def _quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list[list[dict]], frontier: str) -> dict:
    """Metrics over untraced passes; failed commands give no times."""
    setups = [s["setup_s"] for p in passes for s in p if "setup_s" in s]
    complete = [p for p in passes if all(s["ok"] for s in p)] or passes
    runs = [sum(s.get("wall_s", 0.0) for s in p) for p in complete]
    fronts = [s["wall_s"] for p in complete for s in p if s["command"] == frontier and "wall_s" in s]
    rss = [max(s.get("rss_mb", 0.0) for s in p) for p in complete]
    return {"setup_s": _quartiles(setups or [0.0]), "run_s": _quartiles(runs),
            "frontier_s": _quartiles(fronts or [0.0]), "peak_rss_mb": _quartiles(rss)}


def per_layer(traced: list[list[dict]], untraced: list[list[dict]]) -> dict:
    sums = []
    for p in traced:
        total: dict[str, float] = {}
        for s in p:
            for k, v in s.get("layers", {}).items():
                total[k] = total.get(k, 0) + v
        calls = total.get("associator.solve_twisted.calls", 0)
        total["associator.solve_twisted.distinct_ratio"] = (
            total.get("associator.solve_twisted.distinct", 0) / calls if calls else 0.0)
        sums.append(total)
    out = {name: _quartiles([t.get(name, 0) for t in sums])
           for name in PER_LAYER if name != "trace.overhead_ratio"}
    run_traced = statistics.median(sum(s.get("wall_s", 0.0) for s in p) for p in traced)
    run_plain = statistics.median(sum(s.get("wall_s", 0.0) for s in p) for p in untraced)
    out["trace.overhead_ratio"] = {"median": run_traced / run_plain, "q1": None, "q3": None,
                                   "n": f"{len(traced)} traced / {len(untraced)} untraced passes"}
    return out


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mzv", "cli.py")):
        print(f"perfbench: no mzv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    prov = provenance()
    cmds = workloads.commands(args.workload, args.seed)
    frontier = next(c.name for c in cmds if c.frontier)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, tag)
    cmd_dir, spans_dir = os.path.join(run_dir, "cmd"), os.path.join(run_dir, "spans")
    os.makedirs(cmd_dir, exist_ok=True)
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)

    checker = Checker()
    traced_passes: list[list[dict]] = []
    plain_passes: list[list[dict]] = []
    selftests: list[dict] = []
    while True:
        # --trace 1 alternates traced and untraced passes, starting traced.
        trace = bool(args.trace) and len(traced_passes) <= len(plain_passes)
        t0 = time.monotonic()
        spans = spans_dir if trace and not traced_passes else None
        samples, outputs = run_pass(cmds, cmd_dir, trace, spans, deadline, checker,
                                    f"{tag}/pass{len(traced_passes) + len(plain_passes)}")
        (traced_passes if trace else plain_passes).append(samples)
        if not selftests:
            selftests = selftest.run(cmds, outputs, checker.check)
        last = time.monotonic() - t0
        done = len(plain_passes) >= 1 and (not args.trace or len(traced_passes) >= 1)
        if done and time.monotonic() + last > started + args.seconds:
            break
        if time.monotonic() >= deadline:
            break

    all_samples = [s for p in traced_passes + plain_passes for s in p]
    attempted, failed = len(all_samples), sum(not s["ok"] for s in all_samples)
    passed = sum(t["passed"] for t in selftests)
    correct = failed == 0 and bool(selftests) and passed == len(selftests)

    e2e = end_to_end(plain_passes, frontier)
    metrics = e2e if not args.trace else per_layer(traced_passes, plain_passes)
    units = END_TO_END if not args.trace else PER_LAYER
    oracle_facts = {s["command"]: s.get("oracle") for s in all_samples if s["ok"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov,
        "commands": [{"name": c.name, "argv": c.argv(), "oracle": c.oracle, "frontier": c.frontier}
                     for c in cmds],
        "passes": {"untraced": plain_passes, "traced": traced_passes},
        "metrics": metrics, "end_to_end_untraced": e2e,
        "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "samples_per_command": {c.name: sum(s["command"] == c.name and s["ok"] for s in all_samples)
                                for c in cmds},
        "errors": [f"{s['command']}: {s['error']}" for s in all_samples if not s["ok"]],
        "oracle_facts": oracle_facts,
        "selftest": selftests,
        "elapsed_s": time.monotonic() - started,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"mzv perfbench  workload={args.workload} seed={args.seed} trace={args.trace}  "
          f"passes: {len(plain_passes)} untraced, {len(traced_passes)} traced  "
          f"commit {prov['git_commit'][:12]}  python {prov['python']}  nproc {prov['nproc']}")
    for c in cmds:
        print(f"  cmd  {c.argv()}{'   [frontier]' if c.frontier else ''}")
    for name, m in metrics.items():
        spread = "" if m["q1"] is None else f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        print(f"  {name:<42} {m['median']:<14.6g} {units[name]:<6} n={m['n']}{spread}")
    print(f"  {'error_rate':<42} {failed / attempted:<14.6g} {'ratio':<6} "
          f"{failed} failed / {attempted} attempted")
    print(f"  {'selftest':<42} {passed}/{len(selftests)} oracles accept the clean output and reject its corruption")
    for err in record["errors"][:10]:
        print(f"  FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name]["median"], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
