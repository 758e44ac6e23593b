#!/usr/bin/env python3
"""Cross-check the decision procedure against the enumeration oracle on
randomized problems, and report verdict/witness statistics."""
import argparse
import random
import time

from npnas.decider import SolveOptions, decide
from npnas.oracle import brute_sat, random_problem
from npnas.schematic import satisfies_all


def run(cfg: argparse.Namespace) -> int:
    rng = random.Random(cfg.seed)
    opts = SolveOptions(strategy=cfg.strategy)
    stats = {"sat": 0, "unsat": 0, "inexact-skipped": 0, "nodes": 0}
    t0 = time.perf_counter()
    for i in range(cfg.count):
        sig, p = random_problem(rng, cfg.max_vars, cfg.max_constraints)
        r = decide(sig, p, opts)
        stats["nodes"] += r.nodes
        res = brute_sat(sig, p)
        if res.exact or res.sat:
            if res.sat != r.sat:
                print(f"DISAGREEMENT on instance {i}: "
                      f"oracle={res.sat} decide={r.sat}\n{p}")
                return 1
        else:
            stats["inexact-skipped"] += 1
        if r.sat:
            if not satisfies_all(r.witness, p):
                print(f"BAD WITNESS on instance {i}:\n{p}")
                return 1
            stats["sat"] += 1
        else:
            stats["unsat"] += 1
    dt = time.perf_counter() - t0
    print(f"{cfg.count} problems in {dt:.1f}s "
          f"({cfg.count / dt:.0f}/s), strategy={cfg.strategy}")
    for k, v in stats.items():
        print(f"  {k}: {v}")
    print("all verdicts agree; all witnesses check")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-vars", type=int, default=4)
    ap.add_argument("--max-constraints", type=int, default=3)
    ap.add_argument("--strategy", choices=("focused", "full"),
                    default="focused")
    return run(ap.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
