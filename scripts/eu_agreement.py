#!/usr/bin/env python3
"""Check that translating equivariant-unification problems preserves
satisfiability: compare the brute-force EU semantics against the decision
procedure run on the translated constraint problem.  Under the full
strategy a few instances expand tens of thousands of problems or more;
--budget skips an instance whose search expands more problems than that,
and the summary counts the skipped ones."""
import argparse
import random
import time

from npnas.decider import SolveOptions, decide
from npnas.errors import BudgetExhausted
from npnas.eubridge import EU_SIGNATURE, eu_brute_sat, translate_eu
from npnas.oracle import random_eu_problem


def run(cfg: argparse.Namespace) -> int:
    rng = random.Random(cfg.seed)
    opts = SolveOptions(strategy=cfg.strategy, budget=cfg.budget)
    sat = unsat = skipped = nodes = 0
    t0 = time.perf_counter()
    for i in range(cfg.count):
        p = random_eu_problem(rng)
        try:
            r = decide(EU_SIGNATURE, translate_eu(p), opts)
        except BudgetExhausted:
            skipped += 1
            continue
        nodes += r.nodes
        expected = eu_brute_sat(p)
        got = r.sat
        if expected != got:
            print(f"DISAGREEMENT on instance {i}: "
                  f"brute={expected} translated={got}\n{p}")
            return 1
        sat += expected
        unsat += not expected
    dt = time.perf_counter() - t0
    print(f"{cfg.count} EU problems in {dt:.1f}s "
          f"({cfg.count / dt:.0f}/s), strategy={cfg.strategy}: "
          f"sat={sat} unsat={unsat} budget-skipped={skipped} nodes={nodes}")
    print("translation preserves satisfiability on every decided instance")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--strategy", choices=("focused", "full"),
                    default="focused")
    ap.add_argument("--budget", type=int, default=None,
                    help="skip an instance after this many expanded problems")
    return run(ap.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
