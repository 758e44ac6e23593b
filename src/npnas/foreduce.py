"""First-order reduction.

Collapsing every name to the unit value and every abstraction to a pair
whose first component is unit turns a problem into ordinary first-order
unification (freshness constraints disappear).  Two facts drive the
decision procedure:

* if the collapsed problem is unsatisfiable, so is the original;
* if the collapsed problem has a solution W, the rewrite relation on the
  original problem strongly normalises, witnessed by a measure indexed
  by W that every step decreases.  The tests compute W and the measure
  and check the decrease on sampled steps.
"""
from __future__ import annotations

from .kernel import (
    AbsT,
    DataSortT,
    NameSortT,
    Signature,
    TupleT,
    Type,
    UNIT_T,
    UnitT,
)
from .schematic import (
    Env,
    Eq,
    Problem,
    SApp,
    STuple,
    SUNIT,
    SUnit,
    Term,
    Var,
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
    """Whether x, unbound in subst, occurs in t under subst.  Reads each
    term's `vars` and follows each variable subst binds once, with an
    explicit stack, so no depth of t or of subst recurses."""
    stack = [t]
    followed: set[str] = set()
    while stack:
        vs = stack.pop().vars
        if x in vs:
            return True
        for v in vs:
            if v in subst and v not in followed:
                followed.add(v)
                stack.append(subst[v])
    return False


def fo_unify(pairs) -> dict[str, Term] | None:
    """Most general unifier as a triangular substitution, or None."""
    subst: dict[str, Term] = {}
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        # Equal sides are decomposed like any others: comparing them whole
        # at every step would cost time quadratic in their depth.
        if a is not b:
            a, b = _walk(a, subst), _walk(b, subst)
        if a is b or (isinstance(a, SUnit) and isinstance(b, SUnit)):
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if not isinstance(a, Var):
                a, b = b, a
            if isinstance(b, Var) and b.name == a.name:
                continue
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
# The collapsed problem

def fl_problem(sig: Signature, p: Problem) -> tuple[Signature, Problem]:
    """The reduced signature and problem (equality constraints only)."""
    flsig = fl_signature(sig)
    cs = tuple(Eq(l, r) for l, r in fl_equations(p))
    return flsig, Problem(fl_env(p.env), cs)
