#!/usr/bin/env python3
"""Solve a fixed, seeded set of problems and print one line per solve:
verdict, reason, nodes, normal forms and witness.

Every witness is re-checked against its problem, and every verdict is
compared with an oracle where one is cheap and exact: `brute_sat` for the
`np` family, where its answer is exact or sat, `relation_sat` (a search
over the paper's own relation, without the decider's shortcuts) for the
`np65` family, where it decides within its budget, and `eu_brute_sat` for
the `eu` family.  Run it at two commits and diff the outputs to see
whether a change to the solver keeps its verdicts, its node counts and its
witnesses:

    PYTHONPATH=src python scripts/sweep.py > after.txt

The node totals per family (over the solves within budget) and
the counts of bad witnesses and oracle disagreements go to stderr, and the
exit code is 1 when either count is not zero.

The families: 1,200 `random_problem` at the defaults, 1,200 at six
variables and five constraints, 600 translated `random_eu_problem`, and
300 problems over `MULTI_SIGNATURE` (family `ms`, compared with `brute_sat`
like `np`), each family from its own `random.Random(7)`; budget 5,000 nodes
a solve.  The `random_problem` and `ms` families are rendered as problem
files and read back (`parse_problem(format_problem(sig, p))`), so the sweep
covers the reader.
"""
import random
import sys
from collections import Counter

from npnas.cli import format_problem, parse_problem
from npnas.decider import SolveOptions, decide
from npnas.errors import BudgetExhausted
from npnas.eubridge import EU_SIGNATURE, eu_brute_sat, translate_eu
from npnas.kernel import (
    AbsT,
    DataSortT,
    NameSortT,
    TupleT,
    UNIT_T,
    make_signature,
    realize,
)
from npnas.oracle import (
    brute_sat,
    random_eu_problem,
    random_problem,
    random_term,
    relation_sat,
)
from npnas.schematic import Eq, Fresh, Problem, satisfies_all

BUDGET = 5000

# Two name sorts and three data sorts, so witnesses need inhabitants built
# through several sorts.  U, S and T become inhabited in rounds 1, 2 and 3,
# through `u`, `s1` and `b`; S's other constructor `a` needs T, which needs
# S, so building S through `a` would never end.  U is finite; S and T are
# recursive.
MULTI_SIGNATURE = make_signature(["A", "B"], ["S", "T", "U"], {
    "u": (UNIT_T, "U"),
    "v": (NameSortT("A"), "U"),
    "w": (TupleT((NameSortT("B"), NameSortT("A"))), "U"),
    "s1": (DataSortT("U"), "S"),
    "a": (DataSortT("T"), "S"),
    "t1": (DataSortT("S"), "T"),
    "b": (AbsT("A", DataSortT("S")), "T"),
})
MULTI_TYPES = (DataSortT("S"), DataSortT("T"), DataSortT("U"),
               AbsT("A", DataSortT("S")), AbsT("B", DataSortT("T")),
               TupleT((NameSortT("A"), DataSortT("U"))))


def multi_sort_problem(rng: random.Random) -> Problem:
    """Name variables of both sorts, one or two data variables and one to
    three constraints over MULTI_SIGNATURE."""
    env = {"a0": NameSortT("A"), "b0": NameSortT("B")}
    if rng.random() < 0.5:
        env["a1"] = NameSortT("A")
    for i in range(rng.randint(1, 2)):
        env[f"x{i}"] = rng.choice(MULTI_TYPES)
    names = [x for x, ty in env.items() if isinstance(ty, NameSortT)]
    cs = []
    for _ in range(rng.randint(1, 3)):
        ty = rng.choice(MULTI_TYPES + (NameSortT("A"),))
        if rng.random() < 0.4:
            cs.append(Fresh(rng.choice(names),
                            random_term(rng, MULTI_SIGNATURE, env, ty)))
        else:
            cs.append(Eq(random_term(rng, MULTI_SIGNATURE, env, ty),
                         random_term(rng, MULTI_SIGNATURE, env, ty)))
    return Problem(env, tuple(cs))


def families():
    """(family, index, signature, problem, the oracle's verdict or None)."""
    rng = random.Random(7)
    for i in range(1200):
        sig, p = parse_problem(format_problem(*random_problem(rng)))
        res = brute_sat(sig, p)
        yield "np", i, sig, p, res.sat if res.exact or res.sat else None
    rng = random.Random(7)
    for i in range(1200):
        # brute_sat would take about a minute over this family.
        sig, p = parse_problem(format_problem(*random_problem(rng, 6, 5)))
        yield "np65", i, sig, p, relation_sat(sig, p)
    rng = random.Random(7)
    for i in range(600):
        ep = random_eu_problem(rng)
        yield "eu", i, EU_SIGNATURE, translate_eu(ep), eu_brute_sat(ep)
    rng = random.Random(7)
    for i in range(300):
        sig, p = parse_problem(format_problem(MULTI_SIGNATURE,
                                              multi_sort_problem(rng)))
        res = brute_sat(sig, p)
        yield "ms", i, sig, p, res.sat if res.exact or res.sat else None


def main() -> int:
    bad = disagreements = 0
    nodes: Counter = Counter()
    for family, i, sig, p, expected in families():
        head = f"{family} {i}"
        try:
            r = decide(sig, p, SolveOptions(budget=BUDGET))
        except BudgetExhausted:
            print(f"{head} budget")
            continue
        nodes[family] += r.nodes
        line = (f"{head} {'sat' if r.sat else 'unsat'} {r.reason} "
                f"nodes={r.nodes} nf={r.normal_forms}")
        if r.sat:
            line += " " + " ".join(
                f"{x}={realize(r.witness[x])}" for x in sorted(p.env))
            if not satisfies_all(r.witness, p):
                bad += 1
                line += " BAD-WITNESS"
        if expected is not None and r.sat != expected:
            disagreements += 1
            print(f"{head}: the oracle says "
                  f"{'sat' if expected else 'unsat'}", file=sys.stderr)
        print(line)
    for family, total in nodes.items():
        print(f"nodes {family}: {total}", file=sys.stderr)
    print(f"bad witnesses: {bad}", file=sys.stderr)
    print(f"oracle disagreements: {disagreements}", file=sys.stderr)
    return 1 if bad or disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
