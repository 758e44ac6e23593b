#!/usr/bin/env python3
"""Decide every small problem of a bounded scope and compare each verdict
with the brute-force oracle wherever its answer is exact.

    PYTHONPATH=src python scripts/exhaustive.py np SIZE [--constraints C]

np: every problem over `oracle.small_signature` with at most MAX_VARS
variables and at most C constraints (default 2), each an equation of two
terms or a freshness constraint `(fresh a t)`, with every term of size at
most SIZE.  A term's size counts one for each variable occurrence, unit,
constructor, tuple and abstraction with its binder, so `<c><c>x` has size
3.  The sides of an equation, and the target of a
freshness constraint, have one of the types in TYPES: a name, a term, and
a name or a term under one binder, or a name under two.  Variables take
the type of the place they first occur in.

Variables are named v0, v1, ... in order of first occurrence, left to
right, so each problem is built once and none of its renamings is.
Shadowing prefixes such as `<v0><v0>v1` fall inside the scope from SIZE 3.

Each problem is decided by `decide` and by `oracle.brute_sat` with values
up to BRUTE_SIZE and as many free names per sort as the problem has
variables.  A verdict is checked when the oracle's answer is exact: always
when it finds a solution, and for unsat when every variable's type is
finite.  The last line gives the number of problems, how many were
checked, how many of those are sat, and the disagreements; each
disagreement is printed with its problem, and the exit code is 1 when
there is one.  Standard library only.
"""
import argparse

from npnas.cli import format_problem
from npnas.decider import decide
from npnas.kernel import AbsT, DataSortT, NameSortT, TupleT, UnitT
from npnas.oracle import brute_sat, small_signature
from npnas.schematic import Eq, Fresh, Problem, SAbs, SApp, STuple, SUNIT, Var

NM = NameSortT("nm")
TM = DataSortT("tm")
TYPES = (NM, TM, AbsT("nm", NM), AbsT("nm", TM), AbsT("nm", AbsT("nm", NM)))
MAX_VARS = 3
BRUTE_SIZE = 5


def _var(ty, types: tuple):
    """Each variable a place of type ty can hold: one already typed ty in
    `types` (the variables so far, in order of first occurrence) or the
    next new one, up to MAX_VARS.  Yields (name, types after)."""
    for i, t in enumerate(types):
        if t == ty:
            yield f"v{i}", types
    if len(types) < MAX_VARS:
        yield f"v{len(types)}", types + (ty,)


def terms(sig, ty, size: int, types: tuple):
    """Every term of type ty and size at most `size` over `types`; yields
    (term, its size, types after)."""
    if size < 1:
        return
    for v, out in _var(ty, types):
        yield Var(v), 1, out
    if isinstance(ty, UnitT):
        yield SUNIT, 1, types
    elif isinstance(ty, AbsT):
        for b, mid in _var(NameSortT(ty.binder), types):
            for body, n, out in terms(sig, ty.body, size - 1, mid):
                yield SAbs(b, body), n + 1, out
    elif isinstance(ty, TupleT):
        for items, n, out in _items(sig, ty.items, size - 1, types):
            yield STuple(items), n + 1, out
    elif isinstance(ty, DataSortT):
        for con in sorted(sig.constructors):
            arg, res = sig.constructors[con]
            if res == ty.sort:
                for a, n, out in terms(sig, arg, size - 1, types):
                    yield SApp(con, a), n + 1, out


def _items(sig, tys: tuple, size: int, types: tuple):
    """Every tuple of terms typed `tys`, of total size at most `size`."""
    if not tys:
        yield (), 0, types
        return
    for a, n, mid in terms(sig, tys[0], size - (len(tys) - 1), types):
        for rest, m, out in _items(sig, tys[1:], size - n, mid):
            yield (a, *rest), n + m, out


def constraints(sig, size: int, types: tuple):
    """Every constraint within the scope; yields (constraint, types
    after)."""
    for ty in TYPES:
        for lhs, _, mid in terms(sig, ty, size, types):
            for rhs, _, out in terms(sig, ty, size, mid):
                yield Eq(lhs, rhs), out
    for a, mid in _var(NM, types):
        for ty in TYPES:
            for t, _, out in terms(sig, ty, size, mid):
                yield Fresh(a, t), out


def problems(sig, size: int, count: int):
    """Every problem of one to `count` constraints within the scope."""
    def go(cs: tuple, types: tuple):
        if cs:
            yield Problem({f"v{i}": t for i, t in enumerate(types)}, cs)
        if len(cs) < count:
            for c, out in constraints(sig, size, types):
                yield from go(cs + (c,), out)

    yield from go((), ())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scope", choices=["np"])
    ap.add_argument("size", type=int)
    ap.add_argument("--constraints", type=int, default=2)
    args = ap.parse_args()
    sig = small_signature()
    total = checked = sat = disagreements = 0
    for p in problems(sig, args.size, args.constraints):
        total += 1
        r = decide(sig, p)
        res = brute_sat(sig, p, max_size=BRUTE_SIZE, pool=len(p.env))
        if not res.exact:
            continue
        checked += 1
        sat += res.sat
        if r.sat != res.sat:
            disagreements += 1
            print(f"decide says {'sat' if r.sat else 'unsat'}, the oracle "
                  f"{'sat' if res.sat else 'unsat'}:\n"
                  + format_problem(sig, p))
    print(f"np {args.size}: {total} problems, {checked} checked ({sat} sat),"
          f" {disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
