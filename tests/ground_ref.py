"""Reference semantics of named ground trees: the paper's swapping
definitions, alpha-equivalence, freshness, typing and size, and the ground
inhabitant that `kernel.inhabitant` builds in nameless form.

The solver never works on named trees; the tests check `canonicalize`,
`realize` and `inhabitant` against these definitions.  Not a test module,
so pytest does not collect it.
"""
from __future__ import annotations

from dataclasses import dataclass

from npnas.errors import TypeMismatch, Uninhabited
from npnas.kernel import (
    AbsT,
    DataSortT,
    GAbs,
    GApp,
    GTuple,
    GUNIT,
    GUnit,
    GroundTree,
    Name,
    NameSortT,
    Signature,
    TupleT,
    Type,
    UnitT,
)


def free_names(g: GroundTree) -> frozenset[Name]:
    if isinstance(g, Name):
        return frozenset([g])
    if isinstance(g, GUnit):
        return frozenset()
    if isinstance(g, GTuple):
        out: frozenset[Name] = frozenset()
        for item in g.items:
            out |= free_names(item)
        return out
    if isinstance(g, GApp):
        return free_names(g.arg)
    return free_names(g.body) - {g.binder}


def check_tree(sig: Signature, g: GroundTree, ty: Type) -> None:
    """Raise TypeMismatch unless g is a tree of type ty over sig."""
    if isinstance(g, Name):
        if not (isinstance(ty, NameSortT) and ty.sort == g.sort):
            raise TypeMismatch(f"name {g} does not have type {ty}")
    elif isinstance(g, GUnit):
        if not isinstance(ty, UnitT):
            raise TypeMismatch(f"unit does not have type {ty}")
    elif isinstance(g, GTuple):
        if not (isinstance(ty, TupleT) and len(ty.items) == len(g.items)):
            raise TypeMismatch(f"tuple arity mismatch at type {ty}")
        for item, t in zip(g.items, ty.items):
            check_tree(sig, item, t)
    elif isinstance(g, GApp):
        if g.con not in sig.constructors:
            raise TypeMismatch(f"unknown constructor {g.con}")
        arg_ty, res = sig.constructors[g.con]
        if not (isinstance(ty, DataSortT) and ty.sort == res):
            raise TypeMismatch(f"{g.con} builds {res}, not {ty}")
        check_tree(sig, g.arg, arg_ty)
    else:
        if not (isinstance(ty, AbsT) and ty.binder == g.binder.sort):
            raise TypeMismatch(f"abstraction binder sort {g.binder.sort} does not fit {ty}")
        check_tree(sig, g.body, ty.body)


def tree_size(g: GroundTree) -> int:
    if isinstance(g, (Name, GUnit)):
        return 1
    if isinstance(g, GTuple):
        return 1 + sum(tree_size(item) for item in g.items)
    if isinstance(g, GApp):
        return 1 + tree_size(g.arg)
    return 2 + tree_size(g.body)


# ---------------------------------------------------------------------------
# Permutations

@dataclass(frozen=True)
class Permutation:
    """A finite list of name swaps, applied right-to-left."""
    swaps: tuple[tuple[Name, Name], ...] = ()

    def __post_init__(self):
        for a, b in self.swaps:
            if a.sort != b.sort:
                raise ValueError(f"swap ({a} {b}) pairs different sorts")

    def __call__(self, n: Name) -> Name:
        for a, b in reversed(self.swaps):
            if n == a:
                n = b
            elif n == b:
                n = a
        return n

    def inverse(self) -> "Permutation":
        return Permutation(tuple(reversed(self.swaps)))

    def then(self, other: "Permutation") -> "Permutation":
        """Composition: self applied first, then other."""
        return Permutation(other.swaps + self.swaps)


IDENTITY = Permutation()


def swap(a: Name, b: Name) -> Permutation:
    return Permutation(((a, b),))


def perm_apply(pi: Permutation, g: GroundTree) -> GroundTree:
    """Rename every name occurrence in g, binders included."""
    if isinstance(g, Name):
        return pi(g)
    if isinstance(g, GUnit):
        return g
    if isinstance(g, GTuple):
        return GTuple(tuple(perm_apply(pi, item) for item in g.items))
    if isinstance(g, GApp):
        return GApp(g.con, perm_apply(pi, g.arg))
    return GAbs(pi(g.binder), perm_apply(pi, g.body))


# ---------------------------------------------------------------------------
# Alpha-equivalence and freshness (the ground-tree rules)

def fresh_name(n: Name, g: GroundTree) -> bool:
    """True iff n is not free in g."""
    if isinstance(g, Name):
        return n != g
    if isinstance(g, GUnit):
        return True
    if isinstance(g, GTuple):
        return all(fresh_name(n, item) for item in g.items)
    if isinstance(g, GApp):
        return fresh_name(n, g.arg)
    if g.binder == n:
        return True
    return fresh_name(n, g.body)


def alpha_eq(g1: GroundTree, g2: GroundTree) -> bool:
    """Structural alpha-equivalence; distinct binders go through a swap with
    the usual freshness side-condition."""
    if isinstance(g1, Name) and isinstance(g2, Name):
        return g1 == g2
    if isinstance(g1, GUnit) and isinstance(g2, GUnit):
        return True
    if isinstance(g1, GTuple) and isinstance(g2, GTuple):
        return len(g1.items) == len(g2.items) and all(
            alpha_eq(a, b) for a, b in zip(g1.items, g2.items))
    if isinstance(g1, GApp) and isinstance(g2, GApp):
        return g1.con == g2.con and alpha_eq(g1.arg, g2.arg)
    if isinstance(g1, GAbs) and isinstance(g2, GAbs):
        if g1.binder.sort != g2.binder.sort:
            return False
        if g1.binder == g2.binder:
            return alpha_eq(g1.body, g2.body)
        if not fresh_name(g1.binder, g2.body):
            return False
        return alpha_eq(g1.body, perm_apply(swap(g1.binder, g2.binder), g2.body))
    return False


# ---------------------------------------------------------------------------
# Inhabitants

def ref_inhabitant(sig: Signature, ty: Type, start_index: int = 0) -> GroundTree:
    """Some ground tree of type ty: every name and every binder of sort s is
    the name of s at start_index."""
    def go(t: Type) -> GroundTree:
        if isinstance(t, NameSortT):
            return Name(t.sort, start_index)
        if isinstance(t, UnitT):
            return GUNIT
        if isinstance(t, AbsT):
            return GAbs(Name(t.binder, start_index), go(t.body))
        if isinstance(t, TupleT):
            return GTuple(tuple(go(item) for item in t.items))
        if t.sort not in sig.builders:
            raise Uninhabited(t)
        con = sig.builders[t.sort]
        return GApp(con, go(sig.arg_type(con)))

    return go(ty)
