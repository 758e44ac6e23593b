"""Answer checks that share no code with the solver's search.

`eu_holds` is the benchmark's own reading of an equivariant unification
problem: it evaluates name-terms on explicit atoms and computes swaps
directly, so it does not go through `eubridge.translate_eu`.
"""
from __future__ import annotations

from npnas.eubridge import EUEq, PIdent, PSwap, PVar, Vertex


class _NotAMap(Exception):
    """Two applications of one permutation variable to equal atoms were
    given different images."""


def eu_holds(p, vertex: dict, image: dict) -> bool:
    """Whether the atoms given to the vertices of p (`vertex[sym]`) and to
    each permutation-variable application (`image[(q, sym)]`) solve p.

    Constants must be pairwise distinct, and each permutation variable must
    map equal arguments to equal images and distinct arguments to distinct
    images, so that its images extend to a permutation of all atoms.
    """
    if len({vertex[c] for c in p.names}) != len(p.names):
        return False
    tables: dict[str, dict] = {}

    def value(nt):
        if isinstance(nt, Vertex):
            return vertex[nt.sym]
        perm = nt.perm
        if isinstance(perm, PIdent):
            return value(nt.target)
        if isinstance(perm, PVar):
            arg = vertex[nt.target.sym]
            img = image[(perm.sym, nt.target.sym)]
            if tables.setdefault(perm.sym, {}).setdefault(arg, img) != img:
                raise _NotAMap
            return img
        a, b, c = value(perm.a), value(perm.b), value(nt.target)
        return b if c == a else a if c == b else c

    try:
        holds = all((value(c.lhs) == value(c.rhs)) == isinstance(c, EUEq)
                    for c in p.constraints)
    except _NotAMap:
        return False
    injective = all(len(set(t.values())) == len(t) for t in tables.values())
    return holds and injective


def eu_sites(p) -> set[tuple[str, str]]:
    """Every (permutation variable, vertex) application in p."""
    out: set[tuple[str, str]] = set()

    def walk(nt):
        if isinstance(nt, Vertex):
            return
        if isinstance(nt.perm, PVar):
            out.add((nt.perm.sym, nt.target.sym))
        elif isinstance(nt.perm, PSwap):
            walk(nt.perm.a)
            walk(nt.perm.b)
        walk(nt.target)

    for c in p.constraints:
        walk(c.lhs)
        walk(c.rhs)
    return out


def eu_witness_holds(p, witness) -> bool:
    """Whether a solver witness for the translated problem, restricted to
    the EU symbols, solves p.  Vertex `v` is read from the variable `v` and
    the image of `v` under `q` from the variable `q.v`."""
    try:
        vertex = {v: witness[v].node for v in p.names + p.name_vars}
        image = {(q, v): witness[f"{q}.{v}"].node for q, v in eu_sites(p)}
    except KeyError:
        return False
    return eu_holds(p, vertex, image)
