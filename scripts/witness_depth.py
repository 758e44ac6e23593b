#!/usr/bin/env python3
"""Time witness extraction on deep satisfiable problems `<a>x = <b>T`.

For each depth d, T is a seeded term nested d levels over
`oracle.small_signature()`: each level is either (con L (abs cI .)) with
one of three binder variables c0..c2, or (con P (tuple . leaf)) in either
order, with leaf (con Z unit) or the variable y; the core is (con V f).
`decide` narrows x through all of T, so the witness holds values d levels
deep.  For each depth it prints the nodes the search expanded, the seconds
`decide` took and the seconds of that spent in `decider.extract_witness`:

    PYTHONPATH=src python scripts/witness_depth.py [DEPTH ...]

Depths default to 100 150 200 300.  The solver's walks recurse once or more
per level, so every solve runs in one worker thread with a 512 MiB stack and
a raised recursion limit.  Standard library only.
"""
import random
import sys
import threading
import time

from npnas import decider
from npnas.kernel import DataSortT, NameSortT
from npnas.oracle import small_signature
from npnas.schematic import Eq, Problem, SAbs, SApp, STuple, SUNIT, Var

DEPTHS = (100, 150, 200, 300)
SEED = 11
BINDERS = 3
NM = NameSortT("nm")
TM = DataSortT("tm")


def deep_problem(depth: int) -> Problem:
    rng = random.Random(f"{SEED}/{depth}")
    t = SApp("V", Var("f"))
    for _ in range(depth):
        if rng.random() < 0.5:
            t = SApp("L", SAbs(f"c{rng.randrange(BINDERS)}", t))
        else:
            leaf = rng.choice((SApp("Z", SUNIT), Var("y")))
            t = SApp("P", STuple((t, leaf) if rng.random() < 0.5 else (leaf, t)))
    env = {"a": NM, "b": NM, "f": NM, "x": TM, "y": TM}
    env.update((f"c{i}", NM) for i in range(BINDERS))
    return Problem(env, (Eq(SAbs("a", Var("x")), SAbs("b", t)),))


def measure(depth: int) -> tuple[int, float, float]:
    """Nodes, decide seconds and extract_witness seconds for one depth."""
    sig = small_signature()
    p = deep_problem(depth)
    spent = [0.0]
    extract = decider.extract_witness

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return extract(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    decider.extract_witness = timed
    try:
        t0 = time.perf_counter()
        result = decider.decide(sig, p)
        total = time.perf_counter() - t0
    finally:
        decider.extract_witness = extract
    if not result.sat:
        raise SystemExit(f"d={depth}: expected sat")
    return result.nodes, total, spent[0]


def main(depths) -> None:
    print(f"{'d':>5} {'nodes':>7} {'decide_s':>9} {'witness_s':>10}")
    for d in depths:
        nodes, total, witness = measure(d)
        print(f"{d:>5} {nodes:>7} {total:>9.3f} {witness:>10.3f}", flush=True)


def run_in_big_stack(fn, *args) -> None:
    failure = []

    def body():
        sys.setrecursionlimit(200_000)
        try:
            fn(*args)
        except BaseException as exc:  # re-raised in the main thread
            failure.append(exc)

    threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    if failure:
        raise failure[0]


if __name__ == "__main__":
    run_in_big_stack(main, [int(a) for a in sys.argv[1:]] or DEPTHS)
