"""Run one mzv CLI command in a fresh interpreter and report its cost.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the click group (mzv, assoc, padic, sv, series), its
arguments, the file that receives the command's stdout, an optional file
fed to its stdin, and whether to trace.  The worker imports ``mzv.cli`` and
every module of the package before the command starts, so import cost is
set-up, not command time.  It prints one JSON line on its own stdout:

  ready   CLOCK_MONOTONIC time when the imports were done
  wall_s  wall time of the command itself (parse, compute, emit)
  exit    the command's exit code
  rss_mb  the worker's peak resident set size
  trace   per-name span aggregates (traced runs only)
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_all():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mzv
    import mzv.cli

    for info in pkgutil.iter_modules(mzv.__path__):
        importlib.import_module(f"mzv.{info.name}")
    return mzv


def main() -> int:
    spec = json.loads(sys.argv[1])
    mzv = _import_all()
    ready = time.monotonic()

    group = getattr(mzv.cli, spec["group"])
    run = group.main
    tracer = None
    if spec.get("trace"):
        import tracer as tracing  # perfbench/tracer.py: the script directory is on sys.path

        tracer = tracing.Tracer(spec["cmd_id"])
        tracing.install(tracer, mzv)
        run = tracer.wrap(tracing.ROOT, group.main)

    saved_stdin, saved_stdout = sys.stdin, sys.stdout
    stdin = open(spec["stdin"]) if spec.get("stdin") else open(os.devnull)
    out = open(spec["stdout"], "w")
    sys.stdin, sys.stdout = stdin, out
    code = 0
    start = time.monotonic()
    try:
        run(args=spec["args"], prog_name=spec["group"], standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a crash is a failed command, reported with its traceback
        traceback.print_exc()
        code = 3
    finally:
        out.flush()
        wall = time.monotonic() - start
        sys.stdin, sys.stdout = saved_stdin, saved_stdout
        out.close()
        stdin.close()

    result = {"ready": ready, "wall_s": wall, "exit": code,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
