"""First-order reduction.

Collapsing every name to the unit value and every abstraction to a pair
whose first component is unit turns a problem into ordinary first-order
unification (freshness constraints disappear).  Two facts drive the
decision procedure:

* if the collapsed problem is unsatisfiable, so is the original;
* if the collapsed problem has a solution W, the rewrite relation on the
  original problem strongly normalises, witnessed by a measure indexed
  by W that every step decreases.
"""
from __future__ import annotations

from collections import Counter

from .kernel import (
    AbsT,
    AlphaTree,
    AApp,
    ATuple,
    AUnit,
    DataSortT,
    NameSortT,
    Signature,
    TupleT,
    Type,
    UNIT_T,
    UnitT,
    inhabitant,
)
from .schematic import (
    Env,
    Eq,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUNIT,
    SUnit,
    Term,
    Var,
    atree_size,
    constraint_size,
)

# ---------------------------------------------------------------------------
# The collapse

def fl_type(ty: Type) -> Type:
    if isinstance(ty, NameSortT):
        return UNIT_T
    if isinstance(ty, (UnitT, DataSortT)):
        return ty
    if isinstance(ty, AbsT):
        return TupleT((UNIT_T, fl_type(ty.body)))
    return TupleT(tuple(fl_type(t) for t in ty.items))


def fl_signature(sig: Signature) -> Signature:
    cons = {k: (fl_type(arg), res) for k, (arg, res) in sig.constructors.items()}
    return Signature(frozenset(), sig.data_sorts, cons)


def fl_env(env: Env) -> dict[str, Type]:
    return {x: fl_type(ty) for x, ty in env.items()
            if not isinstance(ty, NameSortT)}


def fl_term(env: Env, t: Term) -> Term:
    if isinstance(t, Var):
        return SUNIT if isinstance(env[t.name], NameSortT) else t
    if isinstance(t, SUnit):
        return t
    if isinstance(t, STuple):
        return STuple(tuple(fl_term(env, item) for item in t.items))
    if isinstance(t, SApp):
        return SApp(t.con, fl_term(env, t.arg))
    return STuple((SUNIT, fl_term(env, t.body)))


def fl_equations(p: Problem) -> tuple[tuple[Term, Term], ...]:
    out = []
    for c in p.constraints:
        if isinstance(c, Eq):
            out.append((fl_term(p.env, c.lhs), fl_term(p.env, c.rhs)))
    return tuple(out)


# ---------------------------------------------------------------------------
# First-order unification (terms contain no abstractions)

def _walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def _occurs(x: str, t: Term, subst: dict[str, Term]) -> bool:
    t = _walk(t, subst)
    if isinstance(t, Var):
        return t.name == x
    if isinstance(t, STuple):
        return any(_occurs(x, item, subst) for item in t.items)
    if isinstance(t, SApp):
        return _occurs(x, t.arg, subst)
    return False


def fo_unify(pairs) -> dict[str, Term] | None:
    """Most general unifier as a triangular substitution, or None."""
    subst: dict[str, Term] = {}
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        a = _walk(a, subst)
        b = _walk(b, subst)
        if a == b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if not isinstance(a, Var):
                a, b = b, a
            if _occurs(a.name, b, subst):
                return None
            subst[a.name] = b
            continue
        if isinstance(a, STuple) and isinstance(b, STuple) \
                and len(a.items) == len(b.items):
            stack.extend(zip(a.items, b.items))
            continue
        if isinstance(a, SApp) and isinstance(b, SApp) and a.con == b.con:
            stack.append((a.arg, b.arg))
            continue
        return None
    return subst


def fo_sat(sig: Signature, p: Problem) -> bool:
    return fo_unify(fl_equations(p)) is not None


# ---------------------------------------------------------------------------
# Grounding a unifier into a collapsed-signature valuation

def _resolve(t: Term, subst: dict[str, Term]) -> Term:
    t = _walk(t, subst)
    if isinstance(t, STuple):
        return STuple(tuple(_resolve(item, subst) for item in t.items))
    if isinstance(t, SApp):
        return SApp(t.con, _resolve(t.arg, subst))
    return t


def _ground_node(flsig: Signature, env: Env, t: Term):
    if isinstance(t, Var):
        return inhabitant(flsig, env[t.name]).node
    if isinstance(t, SUnit):
        return AUnit()
    if isinstance(t, STuple):
        return ATuple(tuple(_ground_node(flsig, env, item) for item in t.items))
    assert isinstance(t, SApp)
    return AApp(t.con, _ground_node(flsig, env, t.arg))


def fl_problem(sig: Signature, p: Problem) -> tuple[Signature, Problem]:
    """The reduced signature and problem (equality constraints only)."""
    flsig = fl_signature(sig)
    cs = tuple(Eq(l, r) for l, r in fl_equations(p))
    return flsig, Problem(fl_env(p.env), cs)


def fo_solution(sig: Signature, p: Problem) -> dict[str, AlphaTree] | None:
    """A ground solution of the collapsed problem, defined on every
    non-name-sort variable of the environment; None when unsatisfiable."""
    subst = fo_unify(fl_equations(p))
    if subst is None:
        return None
    flsig = fl_signature(sig)
    env = fl_env(p.env)
    return {x: AlphaTree(_ground_node(flsig, env, _resolve(Var(x), subst)))
            for x in env}


# ---------------------------------------------------------------------------
# The termination measure

def _count_occurrences(t: Term, acc: Counter) -> None:
    if isinstance(t, Var):
        acc[t.name] += 1
    elif isinstance(t, STuple):
        for item in t.items:
            _count_occurrences(item, acc)
    elif isinstance(t, SApp):
        _count_occurrences(t.arg, acc)
    elif isinstance(t, SAbs):
        acc[t.binder] += 1
        _count_occurrences(t.body, acc)


def occurrences(p: Problem) -> Counter:
    acc: Counter = Counter()
    for c in p.constraints:
        if isinstance(c, Eq):
            _count_occurrences(c.lhs, acc)
            _count_occurrences(c.rhs, acc)
        else:
            acc[c.var] += 1
            _count_occurrences(c.target, acc)
    return acc


def _solved_vars(p: Problem, occ: Counter) -> set[str]:
    """Variables with exactly one occurrence, sitting as one whole side of
    a top-level equation."""
    out = set()
    for c in p.constraints:
        if not isinstance(c, Eq):
            continue
        for side in (c.lhs, c.rhs):
            if isinstance(side, Var) and occ[side.name] == 1:
                out.add(side.name)
    return out


def measure(sig: Signature, p: Problem,
            W: dict[str, AlphaTree]) -> tuple[Counter, Counter]:
    """The pair (unsolved-variable sizes, constraint sizes), both as
    multisets; steps decrease it lexicographically under the multiset
    extension of < on naturals."""
    occ = occurrences(p)
    solved = _solved_vars(p, occ)
    mu1: Counter = Counter()
    for x in occ:
        if x in solved:
            continue
        ty = p.env[x]
        if isinstance(ty, NameSortT):
            mu1[1] += 1
        else:
            mu1[atree_size(W[x])] += 1
    mu2: Counter = Counter()
    for c in p.constraints:
        mu2[constraint_size(p.env, W, c)] += 1
    return mu1, mu2


def multiset_less(a: Counter, b: Counter) -> bool:
    """Dershowitz-Manna order on finite multisets of naturals."""
    extra_a = a - b
    extra_b = b - a
    if not extra_b:
        return False
    if not extra_a:
        return True
    return max(extra_a) < max(extra_b)


def measure_less(m_after, m_before) -> bool:
    a1, a2 = m_after
    b1, b2 = m_before
    if multiset_less(a1, b1):
        return True
    if a1 == b1:
        return multiset_less(a2, b2)
    return False
