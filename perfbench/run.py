"""Benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload np-stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in fresh interpreters
(perfbench/worker.py).  With --trace 0, SETUP_REPEATS of them only set up,
and one more sets up and then measures; `setup_s` is the median, over all
of them, of the time from starting the interpreter to its READY line, and
the last line printed holds the end-to-end metrics.  With --trace 1 a
single traced worker runs, and the last line holds its per-layer metrics.
The run's full report goes to perfbench/out/.  The exit code is 0 only when a result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 4
DEADLINE_S = 170


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns the process and
    the seconds it took to get there."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="np-stream, eu-stream or np-deep")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "npnas", "__init__.py")):
        print("error: no src/npnas here; run from the root of an npnas checkout",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if args.trace else "report"
    cmd += ["--report", os.path.join(
        OUT, f"{kind}-{args.workload}-seed{args.seed}.json")]
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    proc = None
    try:
        for _ in range(0 if args.trace else SETUP_REPEATS):
            proc, setup = _start(cmd + ["--setup-only"])
            proc.wait(timeout=max(1, deadline - time.monotonic()))
            setups.append(setup)
        proc, setup = _start(cmd)
        setups.append(setup)
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        setups.sort()
        result["metrics"]["setup_s"] = {"value": setups[len(setups) // 2],
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
