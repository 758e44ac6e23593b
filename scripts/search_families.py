#!/usr/bin/env python3
"""Verdict, nodes and seconds of the focused search on four families with
a size parameter n, one line per instance, then the totals.

    PYTHONPATH=src python scripts/search_families.py eu N [--seed S] [--count C]
    PYTHONPATH=src python scripts/search_families.py pigeonhole N
    PYTHONPATH=src python scripts/search_families.py deep N [--seed S] [--count C]
    PYTHONPATH=src python scripts/search_families.py sat N [--seed S] [--count C] [--ratio R]

eu: C scaled equivariant unification problems (default 20) drawn from
`random.Random(S)` (default S = N), translated by `translate_eu`.  Each has
two constants, N name variables, the permutation variables Q0 and Q1 and N
constraints.  A constraint is an equation with probability 0.7 and a
freshness constraint otherwise.  Each side is a swap with probability 0.35,
nested up to 2 deep, over operands that, like a swap's innermost target,
are a vertex under Q0 or Q1 with probability 0.6 and a bare vertex
otherwise.

pigeonhole: N pairwise-fresh names a_i, each with
`(eq <b_1..b_k>a_i <e_i1..e_ik>d_i)` and `(fresh a_i d_i)`, k = N - 1.  The
equation puts a_i at the binder of some b_j, and the freshness forbids it
to stay free, so N names would need N distinct binders out of N - 1: every
instance is unsat.  This pair of constraints is the membership gadget:
it holds iff a_i equals one of the b_j.

sat: C random 3-SAT formulas (default 10) drawn from `random.Random(S)`
(default S = N), each with N variables and round(R * N) clauses (default
R = 4.26, where random 3-SAT is hardest) of three distinct variables,
each negated with probability 1/2.  They are encoded through the
membership gadget over names T and F with `(fresh T F)`: variable i has
names p_i and n_i, each a member of (T, F), with `(fresh p_i n_i)`, so
x_i is true iff p_i = T; each clause makes T a member of its literals'
names, p_i for x_i and n_i for not x_i.  The problem is satisfiable iff
the formula is.

deep: C problems of the benchmark's np-deep workload (default 10): instance
i is `deep_problem(F, N, f"{S}/{i}")` from perfbench/workloads.py (default
S = N), with F = sat for even i and buried for odd i.  Both read
`<a>x = <b>T(f0)` and `<a>x = <b>T(f1)` with T nested N levels; sat is
solved by a = b, f0 = f1 and x = T(f0), and buried adds `(fresh f0 f1)`,
which makes it unsat although its first-order collapse unifies.  The
solver's walks recurse once or more per level, so this family runs in one
worker thread with a 512 MiB stack and a raised recursion limit.

Each eu and pigeonhole line shows the oracle's verdict: `eu_brute_sat` for
eu, and for pigeonhole `relation_sat`, a search over the paper's own
relation without the decider's shortcuts; `-` when its pool or node budget
is too small or it runs past ORACLE_SECONDS.  Each deep line shows the
planted verdict instead, and each sat line the verdict of a DPLL on the
formula, which reaches sizes no brute-force oracle does.  The columns are
the instance, the verdict, the nodes, the seconds of `decide` and the
seconds of those spent in `decider.extract_witness`.

A solve that expands more than BUDGET nodes prints `budget` and is left
out of the node total.  The exit code is 1 when a verdict disagrees with
an oracle, the planted answer or the DPLL.  Standard library only.
"""
import argparse
import os
import random
import signal
import sys
import threading
import time

from npnas import decider
from npnas.errors import BudgetExhausted, PoolTooLarge
from npnas.eubridge import (
    EU_SIGNATURE, EUEq, EUFresh, EUProblem, PSwap, PVar, Susp, Vertex,
    eu_brute_sat, translate_eu)
from npnas.kernel import NameSortT, make_signature
from npnas.oracle import relation_sat, small_signature
from npnas.schematic import Eq, Fresh, Problem, SAbs, Var

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from workloads import deep_problem  # noqa: E402  (the benchmark's np-deep)

BUDGET = 60_000
ORACLE_SECONDS = 2.0
VERDICT = {True: "sat", False: "unsat", None: "-"}
NAME = make_signature(["nm"], [], {})


def scaled_eu(rng: random.Random, n: int) -> EUProblem:
    names = ("c0", "c1")
    name_vars = tuple(f"A{i}" for i in range(n))
    perm_vars = ("Q0", "Q1")

    def simple():
        v = Vertex(rng.choice(names + name_vars))
        if rng.random() < 0.6:
            return Susp(PVar(rng.choice(perm_vars)), v)
        return v

    def nt(depth):
        if depth and rng.random() < 0.35:
            return Susp(PSwap(simple(), simple()), nt(depth - 1))
        return simple()

    cs = tuple((EUEq if rng.random() < 0.7 else EUFresh)(nt(2), nt(2))
               for _ in range(n))
    return EUProblem(names, name_vars, perm_vars, cs)


def member(env: dict, x: str, bs: list[str], g) -> tuple:
    """The membership gadget `(eq <bs>x <es>d)`, `(fresh x d)`, which holds
    iff x equals one of the binders bs; es and d are its own names e{g}_j
    and d{g}.  Declares every name it mentions in env."""
    es = [f"e{g}_{j}" for j in range(len(bs))]
    env.update((v, NameSortT("nm")) for v in (x, f"d{g}", *bs, *es))
    lhs, rhs = Var(x), Var(f"d{g}")
    for b, e in zip(reversed(bs), reversed(es)):
        lhs, rhs = SAbs(b, lhs), SAbs(e, rhs)
    return Eq(lhs, rhs), Fresh(x, Var(f"d{g}"))


def pigeonhole(n: int) -> Problem:
    bs = [f"b{j}" for j in range(n - 1)]
    env: dict = {}
    cs: list = []
    for i in range(n):
        cs += member(env, f"a{i}", bs, i)
    cs += (Fresh(f"a{i}", Var(f"a{j}")) for i in range(n) for j in range(i))
    return Problem(env, tuple(cs))


def random_3sat(rng: random.Random, n: int,
                ratio: float) -> list[tuple[int, ...]]:
    """round(ratio * n) clauses over variables 1..n; literal -v is not v."""
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3))
            for _ in range(round(ratio * n))]


def sat_problem(n: int, clauses: list[tuple[int, ...]]) -> Problem:
    env: dict = {}
    cs: list = [Fresh("T", Var("F"))]
    for i in range(1, n + 1):
        cs += member(env, f"p{i}", ["T", "F"], f"p{i}")
        cs += member(env, f"n{i}", ["T", "F"], f"n{i}")
        cs.append(Fresh(f"p{i}", Var(f"n{i}")))
    for k, clause in enumerate(clauses):
        names = [f"p{v}" if v > 0 else f"n{-v}" for v in clause]
        cs += member(env, "T", names, f"c{k}")
    return Problem(env, tuple(cs))


def dpll(clauses: list[tuple[int, ...]]) -> bool:
    """Whether the CNF formula is satisfiable: unit propagation, then a
    split on the first literal left."""
    while True:
        if not clauses:
            return True
        if () in clauses:
            return False
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, unit)
    lit = clauses[0][0]
    return dpll(_assign(clauses, lit)) or dpll(_assign(clauses, -lit))


def _assign(clauses: list[tuple[int, ...]], lit: int) -> list:
    return [tuple(x for x in c if x != -lit) for c in clauses if lit not in c]


class _OutOfTime(Exception):
    pass


def oracle(sig, p: Problem, ep: EUProblem | None):
    """The verdict of `eu_brute_sat` on ep, or else of `relation_sat` on p;
    None when it needs too large a pool or budget, or more than
    ORACLE_SECONDS."""
    def stop(signum, frame):
        raise _OutOfTime

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, ORACLE_SECONDS)
    try:
        return eu_brute_sat(ep) if ep is not None else relation_sat(sig, p)
    except (_OutOfTime, PoolTooLarge):
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("family", choices=("eu", "pigeonhole", "deep", "sat"))
    ap.add_argument("n", type=int)
    ap.add_argument("--seed", type=int,
                    help="eu, deep and sat only; default N")
    ap.add_argument("--count", type=int,
                    help="eu, deep and sat only; default 20 for eu, 10 for "
                         "deep and sat")
    ap.add_argument("--ratio", type=float, default=4.26,
                    help="sat only: clauses per variable; default 4.26")
    args = ap.parse_args()
    if args.family == "sat" and args.n < 3:
        ap.error("sat needs N >= 3: each clause has three distinct variables")

    # Cases (signature, problem, .eu problem or None, known verdict or None:
    # planted, or the DPLL's).
    seed = args.n if args.seed is None else args.seed
    if args.family == "eu":
        rng = random.Random(seed)
        eps = [scaled_eu(rng, args.n) for _ in range(args.count or 20)]
        return solve_all([(EU_SIGNATURE, translate_eu(ep), ep, None)
                          for ep in eps], "oracle")
    if args.family == "pigeonhole":
        return solve_all([(NAME, pigeonhole(args.n), None, False)], "oracle")
    if args.family == "sat":
        rng = random.Random(seed)
        fs = [random_3sat(rng, args.n, args.ratio)
              for _ in range(args.count or 10)]
        return solve_all([(NAME, sat_problem(args.n, f), None, dpll(f))
                          for f in fs], "dpll")

    def deep_family() -> int:
        sig = small_signature()
        return solve_all([
            (sig, deep_problem("buried" if i % 2 else "sat", args.n,
                               f"{seed}/{i}")[0], None, i % 2 == 0)
            for i in range(args.count or 10)], "planted")

    return run_in_big_stack(deep_family)


def run_in_big_stack(fn):
    """fn() in one worker thread with a 512 MiB stack and a raised
    recursion limit; its exception, if any, is re-raised here.  The limit
    and the stack size of new threads are process-wide, so both are put
    back before it returns."""
    out = []

    def body():
        sys.setrecursionlimit(200_000)
        try:
            out.append(fn())
        except BaseException as exc:
            out.append(exc)

    limit = sys.getrecursionlimit()
    size = threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=body)
    worker.start()
    threading.stack_size(size)
    worker.join()
    sys.setrecursionlimit(limit)
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def timed_decide(sig, p: Problem):
    """The result of the focused search (None over BUDGET), its seconds and
    the seconds of those spent in `decider.extract_witness`."""
    extract, spent = decider.extract_witness, [0.0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return extract(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    decider.extract_witness = timed
    t0 = time.perf_counter()
    try:
        r = decider.decide(sig, p, budget=BUDGET)
    except BudgetExhausted:
        r = None
    finally:
        decider.extract_witness = extract
    return r, time.perf_counter() - t0, spent[0]


def solve_all(cases, check: str) -> int:
    """Solve and print every case, each beside the oracle's verdict when
    check is "oracle" and else beside its known one, labelled check; 1 when
    a verdict disagrees with either, else 0."""
    wrong = nodes = over = 0
    seconds = witness = 0.0
    for i, (sig, p, ep, known) in enumerate(cases):
        r, dt, wt = timed_decide(sig, p)
        seconds += dt
        witness += wt
        if r is None:
            over += 1
            print(f"{i} budget - {dt:.3f} {wt:.3f}")
            continue
        nodes += r.nodes
        line = f"{i} {VERDICT[r.sat]} {r.nodes} {dt:.3f} {wt:.3f} "
        if check == "oracle":
            expected = oracle(sig, p, ep)
            line += f"oracle={VERDICT[expected]}"
        else:
            expected = None
            line += f"{check}={VERDICT[known]}"
        if expected not in (None, r.sat) or known not in (None, r.sat):
            wrong += 1
            line += " WRONG"
        print(line, flush=True)
    print(f"total: {nodes} nodes in {seconds:.2f} s ({witness:.2f} s in "
          f"extract_witness) over "
          f"{len(cases) - over} solves, {over} over budget, {wrong} wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
