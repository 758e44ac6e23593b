#!/usr/bin/env python3
"""Solve a fixed, seeded set of problems under both strategies and print
one line per solve: verdict, reason, nodes, normal forms and witness.

Every witness is re-checked against its problem.  Run it at two commits and
diff the outputs to see whether a change to the solver keeps its verdicts,
its node counts and its witnesses:

    PYTHONPATH=src python scripts/sweep.py > after.txt

The families: 1,200 `random_problem` at the defaults, 1,200 at six
variables and five constraints, and 600 translated `random_eu_problem`,
each family from its own `random.Random(7)`; budget 5,000 nodes a solve.
The `random_problem` families are rendered as problem files and read back
(`parse_problem(format_problem(sig, p))`), so the sweep covers the reader.
"""
import random
import sys

from npnas.cli import format_problem, parse_problem
from npnas.decider import SolveOptions, decide
from npnas.errors import BudgetExhausted
from npnas.eubridge import EU_SIGNATURE, translate_eu
from npnas.kernel import realize
from npnas.oracle import random_eu_problem, random_problem
from npnas.schematic import satisfies_all

BUDGET = 5000
STRATEGIES = ("focused", "full")


def families():
    rng = random.Random(7)
    for i in range(1200):
        yield ("np", i, *parse_problem(format_problem(*random_problem(rng))))
    rng = random.Random(7)
    for i in range(1200):
        yield ("np65", i,
               *parse_problem(format_problem(*random_problem(rng, 6, 5))))
    rng = random.Random(7)
    for i in range(600):
        yield ("eu", i, EU_SIGNATURE, translate_eu(random_eu_problem(rng)))


def main() -> int:
    bad = 0
    for family, i, sig, p in families():
        for strategy in STRATEGIES:
            head = f"{family} {i} {strategy}"
            try:
                r = decide(sig, p, SolveOptions(strategy=strategy,
                                                budget=BUDGET))
            except BudgetExhausted:
                print(f"{head} budget")
                continue
            line = (f"{head} {'sat' if r.sat else 'unsat'} {r.reason} "
                    f"nodes={r.nodes} nf={r.normal_forms}")
            if r.sat:
                line += " " + " ".join(
                    f"{x}={realize(r.witness[x])}" for x in sorted(p.env))
                if not satisfies_all(r.witness, p):
                    bad += 1
                    line += " BAD-WITNESS"
            print(line)
    print(f"bad witnesses: {bad}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
