#!/usr/bin/env python3
"""Time the `npnas solve` path at two checkouts in alternating rounds.

    python scripts/paired.py PARENT CHANGE [--family np|eu|deep] [--pairs N]

PARENT and CHANGE are checkouts of this repository (directories that hold
src/npnas).  The input is built once, by PARENT's perfbench/workloads.py:
the texts of the benchmark's workload np-stream (family np, `np_stream()`),
eu-stream (eu, `eu_stream()`) or np-deep (deep, `np_deep()`), in the order
those functions build them.  Only that file of the benchmark is read.  One
worker process per checkout gets the same texts; it runs with
PYTHONHASHSEED=0 and that checkout's src first on its path.  A round
reads, decides and renders every text once, as `npnas solve` does for one
file, and its time is the sum of the per-file times.  After one warm-up round each, rounds alternate in ABBA order
(parent, change, change, parent, ...), so drift on a shared host falls on
both sides alike; pair k is the k-th timed round of each side.

It prints each side's median round time with its quartiles, and the median
and quartiles of the per-pair ratio change / parent.  It also times
`import npnas.cli`, which the benchmark's `setup_s` includes: each side's
src is byte-compiled first (stale or missing bytecode would be compiled
again on every import when PYTHONDONTWRITEBYTECODE is set), then one fresh
interpreter per pair and side imports it, in the same ABBA order, and each
side's median and quartiles are printed.  It exits 1 if the two sides'
verdicts or node totals differ.  Standard library only.
"""
import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys


def worker() -> None:
    """Serve one JSON request per line of stdin with one JSON line."""
    import gc
    import importlib.util
    import time

    import npnas
    from npnas import cli, eubridge
    from npnas.decider import decide
    from npnas.kernel import realize

    def solve(text: str, eu: bool):
        if eu:
            sig, p = eubridge.EU_SIGNATURE, eubridge.translate_eu(
                cli.parse_eu(text))
        else:
            sig, p = cli.parse_problem(text)
        r = decide(sig, p)
        lines = [f"result: {'sat' if r.sat else 'unsat'}"]
        if r.reason:
            lines.append(f"reason: {r.reason}")
        if r.sat:
            lines.extend(f"{x} = {realize(r.witness[x])}" for x in p.env)
        lines.append(f"stats: nodes={r.nodes} normal-forms={r.normal_forms}")
        print("\n".join(lines), file=sink)
        return r.sat, r.nodes

    sink = open(os.devnull, "w")
    texts: list[str] = []
    eu = False
    clock = time.perf_counter_ns
    for line in sys.stdin:
        req = json.loads(line)
        if req["do"] == "build":
            root = os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(npnas.__file__))))
            spec = importlib.util.spec_from_file_location(
                "workloads", os.path.join(root, "perfbench", "workloads.py"))
            workloads = importlib.util.module_from_spec(spec)
            sys.modules["workloads"] = workloads  # its dataclass looks here
            spec.loader.exec_module(workloads)
            build = {"np": workloads.np_stream, "eu": workloads.eu_stream,
                     "deep": workloads.np_deep}[req["family"]]
            reply = {"texts": [item.text for item in build()]}
        elif req["do"] == "load":
            texts, eu = req["texts"], req["family"] == "eu"
            reply = {}
        else:
            gc.collect()
            ns = nodes = 0
            verdicts = []
            for text in texts:
                t0 = clock()
                sat, n = solve(text, eu)
                ns += clock() - t0
                nodes += n
                verdicts.append("s" if sat else "u")
            reply = {"s": ns / 1e9, "nodes": nodes,
                     "verdicts": "".join(verdicts)}
        print(json.dumps(reply), flush=True)


IMPORT = ("import time; t0 = time.perf_counter(); import npnas.cli; "
          "print(time.perf_counter() - t0)")


class Side:
    """A worker process over one checkout."""

    def __init__(self, name: str, checkout: str):
        src = os.path.join(os.path.abspath(checkout), "src")
        if not os.path.isdir(os.path.join(src, "npnas")):
            sys.exit(f"{checkout}: no src/npnas there")
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
        self.name, self.src = name, src
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.seconds: list[float] = []
        self.import_seconds: list[float] = []
        self.results: set[tuple[int, str]] = set()

    def ask(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"{self.name}: the worker stopped")
        return json.loads(line)

    def round(self, timed: bool = True) -> None:
        r = self.ask(do="round")
        if timed:
            self.seconds.append(r["s"])
        self.results.add((r["nodes"], r["verdicts"]))

    def time_import(self) -> None:
        """Time `import npnas.cli` in a fresh interpreter."""
        done = subprocess.run([sys.executable, "-c", IMPORT], env=self.env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{self.name}: import npnas.cli failed\n{done.stderr}")
        self.import_seconds.append(float(done.stdout))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q1, q2, q3


def abba(parent: Side, change: Side, pairs: int):
    """The sides in ABBA order, pair by pair."""
    for k in range(pairs):
        yield from (parent, change) if k % 2 == 0 else (change, parent)


def print_sides(unit: str, scale: float, sides: dict[str, list[float]]):
    """Each side's median and quartiles, in `unit` (seconds times scale)."""
    print(f"{'side':8} {'median_' + unit:>9} {'q1_' + unit:>9} "
          f"{'q3_' + unit:>9}")
    for name, xs in sides.items():
        q1, q2, q3 = (x * scale for x in quartiles(xs))
        print(f"{name:8} {q2:9.4f} {q1:9.4f} {q3:9.4f}")


def main() -> int:
    if sys.argv[1:] == ["--worker"]:
        worker()
        return 0
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--family", choices=("np", "eu", "deep"), default="np")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    parent, change = Side("parent", args.parent), Side("change", args.change)
    try:
        texts = parent.ask(do="build", family=args.family)["texts"]
        for side in (parent, change):
            side.ask(do="load", family=args.family, texts=texts)
            side.round(timed=False)
        for side in abba(parent, change, args.pairs):
            side.round()
    finally:
        parent.close()
        change.close()
    for side in (parent, change):
        compileall.compile_dir(side.src, quiet=1)
    for side in abba(parent, change, args.pairs):
        side.time_import()

    print(f"family {args.family}: {len(texts)} files, {args.pairs} pairs "
          "in ABBA order, PYTHONHASHSEED=0")
    print_sides("s", 1, {side.name: side.seconds for side in (parent, change)})
    ratios = [c / p for p, c in zip(parent.seconds, change.seconds)]
    q1, q2, q3 = quartiles(ratios)
    wins = sum(r < 1 for r in ratios)
    print(f"ratio change/parent: median {q2:.3f}, quartiles {q1:.3f} "
          f"{q3:.3f}; change faster in {wins} of {len(ratios)} pairs")
    print("per pair: " + " ".join(f"{r:.3f}" for r in ratios))
    print("import npnas.cli, one fresh interpreter per pair and side, "
          "byte-compiled:")
    print_sides("ms", 1e3, {side.name: side.import_seconds
                            for side in (parent, change)})
    if parent.results != change.results or len(parent.results) != 1:
        print("verdicts or node totals differ:", file=sys.stderr)
        for side in (parent, change):
            for nodes, verdicts in side.results:
                print(f"  {side.name}: nodes {nodes}, "
                      f"{verdicts.count('s')} sat", file=sys.stderr)
        return 1
    ((nodes, verdicts),) = parent.results
    print(f"verdicts and nodes agree: {verdicts.count('s')} sat of "
          f"{len(verdicts)}, {nodes} nodes a round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
