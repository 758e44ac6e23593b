"""One workload in one fresh interpreter.

Started by run.py.  It builds the workload's inputs, prints READY, then
solves the whole input list in rounds until --seconds of timed solving have
passed, checks every answer outside the timed intervals, and prints one
JSON line with its results.  With --setup-only it exits right after READY.

Each problem takes the steps `npnas solve` takes for one file: parse,
translate (for .eu text), decide, and render the verdict and witness.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from npnas import cli, decider, eubridge  # noqa: E402
from npnas.kernel import realize  # noqa: E402
from npnas.oracle import brute_sat  # noqa: E402
from npnas.schematic import satisfies_all  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# np-stream: how many problems per run the brute-force oracle re-checks.
ORACLE_SAMPLE = 600


def render(p, r) -> str:
    """What `npnas solve` prints for the result r of problem p."""
    lines = [f"result: {'sat' if r.sat else 'unsat'}"]
    if r.reason:
        lines.append(f"reason: {r.reason}")
    if r.sat:
        lines.extend(f"{x} = {realize(r.witness[x])}" for x in p.env)
    lines.append(f"stats: nodes={r.nodes} normal-forms={r.normal_forms}")
    return "\n".join(lines)


def answer_ok(item, ep, p, r) -> bool:
    """The verdict matches the planted one, if any, and a sat witness
    checks: by satisfies_all, or for .eu input by the benchmark's own
    evaluator."""
    if item.expect is not None and r.sat != item.expect:
        return False
    if not r.sat:
        return True
    if item.eu:
        return checks.eu_witness_holds(ep, r.witness)
    return satisfies_all(r.witness, p)


def solve_round(items) -> dict:
    """Solve every item once, timing each from parse to rendered witness.
    Each answer is checked right after its timed interval, so the round
    keeps no parsed problem alive."""
    parse_problem, parse_eu = cli.parse_problem, cli.parse_eu
    translate_eu, decide = eubridge.translate_eu, decider.decide
    sig_eu = eubridge.EU_SIGNATURE
    clock = time.perf_counter_ns
    times, verdicts, nodes, wrong = [], [], [], set()
    raised: Counter = Counter()
    for i, item in enumerate(items):
        t0 = clock()
        try:
            if item.eu:
                ep = parse_eu(item.text)
                sig, p = sig_eu, translate_eu(ep)
            else:
                ep = None
                sig, p = parse_problem(item.text)
            r = decide(sig, p)
            render(p, r)
        except Exception as exc:  # counted as a failed solve, run goes on
            times.append(clock() - t0)
            raised[type(exc).__name__] += 1
            verdicts.append(None)
            nodes.append(0)
            continue
        times.append(clock() - t0)
        verdicts.append(r.sat)
        nodes.append(r.nodes)
        if not answer_ok(item, ep, p, r):
            wrong.add(i)
    return {"times": times, "verdicts": verdicts, "wrong": wrong,
            "raised": raised, "nodes": nodes}


def oracle_answers(workload: str, items, seed: int) -> dict[int, bool]:
    """Reference verdicts by brute force, by item position: every eu-stream
    item, a seeded sample of np-stream items where the oracle is exact."""
    if workload == "eu-stream":
        return {i: eubridge.eu_brute_sat(cli.parse_eu(item.text))
                for i, item in enumerate(items)}
    if workload != "np-stream":
        return {}
    sample = random.Random(f"oracle-{seed}").sample(range(len(items)),
                                                    ORACLE_SAMPLE)
    out = {}
    for i in sorted(sample):
        sig, p = cli.parse_problem(items[i].text)
        res = brute_sat(sig, p)
        if res.exact or res.sat:
            out[i] = res.sat
    return out


def measure(workload: str, seed: int, seconds: float, items,
            tracer: layers.Tracer | None) -> tuple[dict, dict]:
    """Solve items in rounds until `seconds` of timed solving have passed,
    then check the answers.  Returns the result line and the full report."""
    rounds = []          # per round: wall, nodes, layer metrics
    times = []           # every problem's time, over all rounds
    verdict_rounds = []  # per round: verdicts, positions of wrong answers
    raised: Counter = Counter()
    timed = 0.0
    while not rounds or timed < seconds:
        gc.collect()
        if tracer:
            tracer.reset()
        rnd = solve_round(items)
        wall = sum(rnd["times"]) / 1e9
        timed += wall
        times += rnd["times"]
        raised += rnd["raised"]
        verdict_rounds.append((rnd["verdicts"], rnd["wrong"]))
        rounds.append({"wall_s": wall, "nodes": sum(rnd["nodes"]),
                       "layers": tracer.metrics(wall) if tracer else None})
        last = [(item.label, t / 1e6, n, v) for item, t, n, v in zip(
            items, rnd["times"], rnd["nodes"], rnd["verdicts"])]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = oracle_answers(workload, items, seed)
    wrong = 0
    for verdicts, r_wrong in verdict_rounds:
        r_wrong.update(i for i, want in expected.items()
                       if verdicts[i] is not None and verdicts[i] != want)
        wrong += len(r_wrong)
    steady_nodes = len({r["nodes"] for r in rounds}) == 1
    failed = sum(raised.values()) + wrong

    # Round-level figures are averaged over the rounds and per-problem
    # percentiles are taken over all rounds' samples.  The host's speed
    # drifts between a few levels over seconds; a mean or a pooled
    # percentile moves smoothly with the share of time spent at each level,
    # where a median of a handful of rounds jumps between them.
    tail_q = stats.tail_percentile(len(items))
    if tracer:
        metrics = {name: (sum(r["layers"][name] for r in rounds) / len(rounds),
                          layers.UNITS[name])
                   for name in rounds[0]["layers"]}
    else:
        metrics = {
            "wall_s": (timed / len(rounds), "s"),
            "solve_ms_p50": (stats.percentile(times, 50) / 1e6, "ms"),
            "solve_ms_tail": (stats.percentile(times, tail_q) / 1e6, "ms"),
            "nodes": (rounds[0]["nodes"], "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "problems_per_round": len(items),
        "tail_percentile": tail_q,
        "oracle_checked": len(expected),
        "raised": dict(raised),
        "wrong": wrong,
        "steady_nodes": steady_nodes,
        "missing_layers": tracer.missing if tracer else [],
        "per_round": rounds,
        "last_round": last,   # label, ms, nodes, verdict (None: raised)
    }
    # A solve that raised has no answer to check and adds no nodes, so it
    # must make the run incorrect by itself.
    result = {
        "correct": failed == 0 and steady_nodes,
        "attempted": len(items) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--report", required=True,
                    help="write the per-round figures here as JSON")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    items = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    result, report = measure(args.workload, args.seed, args.seconds, items,
                             tracer)
    for name in report["missing_layers"]:
        print(f"trace: layer function {name} is missing; its metrics read 0",
              file=sys.stderr)
    if result["failed"] or not report["steady_nodes"]:
        print(f"raised {report['raised']}, wrong answers {report['wrong']}, "
              f"steady nodes {report['steady_nodes']}", file=sys.stderr)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
