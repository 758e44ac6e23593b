"""The paper's termination measure, for checking that rewrite steps
decrease it: a ground solution W of the first-order collapse, term and
constraint sizes relative to W, and the measure with its multiset order.

The solver never computes the measure; the tests check on sampled steps
that `rewrite.expand` and the search's one-step shortcuts decrease it.
Not a test module, so pytest does not collect it.
"""
from __future__ import annotations

from collections import Counter

from npnas.errors import MissingVariable
from npnas.foreduce import _walk, fl_env, fl_equations, fl_signature, fo_unify
from npnas.kernel import (
    AApp, ATuple, AUnit, AlphaTree, NameSortT, Signature, inhabitant)
from npnas.schematic import (
    Constraint, Env, Eq, Problem, SAbs, SApp, STuple, SUnit, Term, Valuation,
    Var, atree_size)

# ---------------------------------------------------------------------------
# A ground solution of the collapse

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
# Sizes relative to a valuation

def term_size(env: Env, W: Valuation, t: Term) -> int:
    """Term size relative to a valuation: variables of name sort count 1,
    any other variable counts the size of its value under W."""
    if isinstance(t, Var):
        ty = env.get(t.name)
        if isinstance(ty, NameSortT):
            return 1
        if t.name not in W:
            raise MissingVariable(f"valuation lacks {t.name}")
        return atree_size(W[t.name])
    if isinstance(t, SUnit):
        return 1
    if isinstance(t, STuple):
        return 1 + sum(term_size(env, W, item) for item in t.items)
    if isinstance(t, SApp):
        return 1 + term_size(env, W, t.arg)
    return 2 + term_size(env, W, t.body)


def constraint_size(env: Env, W: Valuation, c: Constraint) -> int:
    if isinstance(c, Eq):
        return term_size(env, W, c.lhs) + term_size(env, W, c.rhs)
    return term_size(env, W, c.target)


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
