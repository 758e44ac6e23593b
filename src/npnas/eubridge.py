"""Equivariant unification over names, and its reduction to constraint
problems.

A name-term is a vertex (a name constant or a name variable) under a
suspended permutation: the identity, a permutation variable, or a swap of
two name-terms.  Constraints equate name-terms or demand they differ
(freshness between names is exactly inequality).

The reduction introduces one solver variable per vertex and one per
(permutation variable, vertex) application, plus temporaries for swap
results.  An application of Q to v is named Q.v and the K-th temporary _wK,
with primes added while a declared symbol or an earlier generated variable
has the name.  Two gadget equations do the semantic work:

* swap gadget   <x><y>w = <y><x>u    forces  u = (x y)(w)
* bijection gadget  <x><y>(x,y) = <x'><y'>(x',y')  forces  x=y iff x'=y'

The bijection gadgets make each permutation variable's images follow the
equality pattern of its arguments, which is exactly what is needed for the
finite image map to extend to a permutation of all names.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

from .errors import PhaseTwoViolation, PoolTooLarge, UndeclaredSymbol, ValidationError
from .kernel import NameSortT, make_signature
from .schematic import Eq, Fresh, Problem, SAbs, STuple, Var

ATOM_SORT = "atom"

EU_SIGNATURE = make_signature([ATOM_SORT], [], {})


# ---------------------------------------------------------------------------
# Syntax

@dataclass(frozen=True)
class Vertex:
    sym: str

    def __str__(self):
        return self.sym


@dataclass(frozen=True)
class PIdent:
    def __str__(self):
        return "id"


@dataclass(frozen=True)
class PVar:
    sym: str

    def __str__(self):
        return self.sym


@dataclass(frozen=True)
class PSwap:
    a: "NameTerm"
    b: "NameTerm"

    def __str__(self):
        return f"(swap {self.a} {self.b})"


Perm = Union[PIdent, PVar, PSwap]


@dataclass(frozen=True)
class Susp:
    perm: Perm
    target: "NameTerm"

    def __str__(self):
        return f"(app {self.perm} {self.target})"


NameTerm = Union[Vertex, Susp]


@dataclass(frozen=True)
class EUEq:
    lhs: NameTerm
    rhs: NameTerm

    def __str__(self):
        return f"(eq {self.lhs} {self.rhs})"


@dataclass(frozen=True)
class EUFresh:
    lhs: NameTerm
    rhs: NameTerm

    def __str__(self):
        return f"(fresh {self.lhs} {self.rhs})"


EUConstraint = Union[EUEq, EUFresh]


@dataclass(frozen=True)
class EUProblem:
    names: tuple[str, ...]       # constants, denoting pairwise distinct names
    name_vars: tuple[str, ...]
    perm_vars: tuple[str, ...]
    constraints: tuple[EUConstraint, ...]


def validate_eu(p: EUProblem) -> None:
    declared: set[str] = set()
    for sym in (*p.names, *p.name_vars, *p.perm_vars):
        if sym in declared:
            raise ValidationError(f"duplicate symbol declaration: {sym}")
        declared.add(sym)
    verts = set(p.names) | set(p.name_vars)
    # Name-terms in prefix order, left to right: the last item is next.
    todo = [nt for c in reversed(p.constraints) for nt in (c.rhs, c.lhs)]
    while todo:
        nt = todo.pop()
        if isinstance(nt, Vertex):
            if nt.sym not in verts:
                raise UndeclaredSymbol(f"undeclared vertex {nt.sym}")
            continue
        perm = nt.perm
        if isinstance(perm, PVar) and perm.sym not in p.perm_vars:
            raise UndeclaredSymbol(f"undeclared permutation variable {perm.sym}")
        todo.append(nt.target)
        if isinstance(perm, PSwap):
            todo += (perm.b, perm.a)
        elif not isinstance(nt.target, Vertex):  # id and Q act on vertices only
            raise PhaseTwoViolation(
                f"suspension target must be a vertex: {nt}")


# ---------------------------------------------------------------------------
# Translation

def pvvar(q: str, v: str) -> str:
    return f"{q}.{v}"


def swap_gadget(x: str, y: str, u: str, w: str) -> Eq:
    """Satisfied exactly when the value of u is the value of w with the
    values of x and y swapped."""
    return Eq(SAbs(x, SAbs(y, Var(w))), SAbs(y, SAbs(x, Var(u))))


def bij_gadget(x: str, y: str, x2: str, y2: str) -> Eq:
    """Satisfied exactly when (x = y) iff (x2 = y2)."""
    return Eq(SAbs(x, SAbs(y, STuple((Var(x), Var(y))))),
              SAbs(x2, SAbs(y2, STuple((Var(x2), Var(y2))))))


@dataclass
class _Translator:
    taken: set[str]                  # every declared or generated symbol
    env: dict[str, NameSortT]
    out: list = field(default_factory=list)
    images: dict[str, dict[str, str]] = field(default_factory=dict)
    temps: int = 0

    def generate(self, x: str) -> str:
        """A new solver variable: x, primed until no symbol has the name."""
        while x in self.taken:
            x += "'"
        self.taken.add(x)
        self.env[x] = NameSortT(ATOM_SORT)
        return x

    def trans(self, nt: NameTerm) -> str:
        """The solver variable whose value is nt's.  A swap's operands and
        target are translated left to right before its gadget is emitted;
        the walk keeps an explicit stack, so nesting depth is unbounded."""
        todo: list[NameTerm | None] = [nt]  # None: emit the next swap gadget
        done: list[str] = []                # translated operands, in order
        while todo:
            nt = todo.pop()
            if nt is None:
                w = done.pop()
                y = done.pop()
                x = done.pop()
                u = self.generate(f"_w{self.temps}")
                self.temps += 1
                self.out.append(swap_gadget(x, y, u, w))
                done.append(u)
                continue
            if isinstance(nt, Vertex):
                done.append(nt.sym)
                continue
            perm = nt.perm
            if isinstance(perm, PIdent):
                done.append(nt.target.sym)
            elif isinstance(perm, PVar):
                v = nt.target.sym
                sites = self.images.setdefault(perm.sym, {})
                if v not in sites:
                    sites[v] = self.generate(pvvar(perm.sym, v))
                done.append(sites[v])
            else:
                todo += (None, nt.target, perm.b, perm.a)
        return done.pop()


def translate_eu(p: EUProblem) -> Problem:
    """The constraint problem equisatisfiable with the equivariant
    unification problem p; its witnesses restrict to solutions of p."""
    validate_eu(p)
    vertices = p.names + p.name_vars
    tr = _Translator({*vertices, *p.perm_vars},
                     {v: NameSortT(ATOM_SORT) for v in vertices})
    for c in p.constraints:
        lhs = tr.trans(c.lhs)
        rhs = tr.trans(c.rhs)
        if isinstance(c, EUEq):
            tr.out.append(Eq(Var(lhs), Var(rhs)))
        else:
            tr.out.append(Fresh(lhs, Var(rhs)))
    # Declared name constants denote pairwise distinct names.
    for a, b in itertools.combinations(p.names, 2):
        tr.out.append(Fresh(a, Var(b)))
    # Each permutation variable must act injectively and be well defined,
    # i.e. its images must mirror the equality pattern of its arguments.
    for q in p.perm_vars:
        sites = tr.images.get(q, {})
        for (v, x), (v2, x2) in itertools.combinations(sites.items(), 2):
            tr.out.append(bij_gadget(v, v2, x, x2))
    return Problem(tr.env, tuple(tr.out))


# ---------------------------------------------------------------------------
# Brute-force reference semantics

POOL_GUARD = 24


def _application_count(c: EUConstraint) -> int:
    def count_nt(nt: NameTerm) -> int:
        if isinstance(nt, Vertex):
            return 0
        perm = nt.perm
        inner = count_nt(nt.target)
        if isinstance(perm, PSwap):
            return 1 + inner + count_nt(perm.a) + count_nt(perm.b)
        return 1 + inner

    return count_nt(c.lhs) + count_nt(c.rhs)


def eu_brute_sat(p: EUProblem, pool: int | None = None) -> bool:
    """Decide the equivariant unification problem by exhaustive search.

    Constants take fixed distinct atoms; name variables range over the
    first (constants + name variables) atoms, which is enough by
    equivariance; permutation variables are built lazily as injective
    partial maps over a pool wide enough to hold every intermediate image.
    Constraints are checked fewest suspensions first, so one that fails
    outright is met before the image choices of the others multiply.
    """
    validate_eu(p)
    small = len(p.names) + len(p.name_vars)
    if pool is None:
        pool = small + sum(map(_application_count, p.constraints)) + 1
    if pool > POOL_GUARD:
        raise PoolTooLarge(f"pool of {pool} atoms exceeds the guard {POOL_GUARD}")
    atoms = range(max(pool, small))

    def eval_nt(nt, val, perms):
        """Yield (atom, perms') for every way to evaluate nt; perms maps a
        permutation variable to an injective dict atom -> atom."""
        if isinstance(nt, Vertex):
            yield val[nt.sym], perms
            return
        perm = nt.perm
        if isinstance(perm, PIdent):
            yield val[nt.target.sym], perms
            return
        if isinstance(perm, PVar):
            arg = val[nt.target.sym]
            table = perms.get(perm.sym, {})
            if arg in table:
                yield table[arg], perms
                return
            used = set(table.values())
            for img in atoms:
                if img in used:
                    continue
                table2 = dict(table)
                table2[arg] = img
                perms2 = dict(perms)
                perms2[perm.sym] = table2
                yield img, perms2
            return
        for a, perms1 in eval_nt(perm.a, val, perms):
            for b, perms2 in eval_nt(perm.b, val, perms1):
                for c, perms3 in eval_nt(nt.target, val, perms2):
                    if c == a:
                        yield b, perms3
                    elif c == b:
                        yield a, perms3
                    else:
                        yield c, perms3

    constraints = sorted(p.constraints, key=_application_count)

    def check(i, val, perms) -> bool:
        if i == len(constraints):
            return True
        c = constraints[i]
        for lv, perms1 in eval_nt(c.lhs, val, perms):
            for rv, perms2 in eval_nt(c.rhs, val, perms1):
                ok = (lv == rv) if isinstance(c, EUEq) else (lv != rv)
                if ok and check(i + 1, val, perms2):
                    return True
        return False

    base = {a: i for i, a in enumerate(p.names)}
    for choice in itertools.product(range(small), repeat=len(p.name_vars)):
        val = dict(base)
        val.update(zip(p.name_vars, choice))
        if check(0, val, {}):
            return True
    return False
