"""The constraint transformation rules.

A constraint is either in normal form (one of four solved shapes or four
clash shapes) or exactly one rule applies to it, possibly with several
branches.  `statuses` is the one classifier: it labels every constraint of
a problem with its normal form, or None when a rule applies, in one pass.
`expand` computes the branch problems for one constraint; `successors`
gives a whole problem's successor set, the branches of its first reducible
constraint.
"""
from __future__ import annotations

from collections.abc import Container
from functools import cache

from .errors import InvalidSelection, NarrowOnVariable
from .kernel import AbsT, NameSortT, Signature, TupleT, Type
from .schematic import (
    CLASH_ABS_OCCURS,
    CLASH_CON,
    CLASH_OCCURS,
    CLASH_SELF_FRESH,
    Constraint,
    Env,
    Eq,
    Fresh,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUNIT,
    SUnit,
    Term,
    Var,
    subst_constraint,
    wrap_abs,
)

# Normal-form labels.
SOLVED_FRESH = "solved-fresh"            # fresh(x, y), never reducible
SOLVED_ASSIGN = "solved-assign"          # eq(x, t), x isolated
SOLVED_ABS_PAIR = "solved-abs-pair"      # eq(<xs>x, <ys>y), distinct bodies
SOLVED_ABS_SAME = "solved-abs-same"      # eq(<xs>x, <ys>x)
# The CLASH_* labels are each constraint's `clash`, set when it is built.

SOLVED_FORMS = frozenset(
    {SOLVED_FRESH, SOLVED_ASSIGN, SOLVED_ABS_PAIR, SOLVED_ABS_SAME})
CLASH_FORMS = frozenset(
    {CLASH_SELF_FRESH, CLASH_CON, CLASH_OCCURS, CLASH_ABS_OCCURS})


def has_clash(p: Problem) -> bool:
    """Whether a constraint of p has a clash shape.  Clashes do not depend
    on the environment or the other constraints, and a problem holding one
    can never reach a solved form."""
    return any(c.clash for c in p.constraints)


def _classify(env: Env, c: Constraint, in_rest) -> str | None:
    """Normal-form label of c, or None when some rule still applies to it;
    in_rest tells whether a variable occurs in the other constraints."""
    if c.clash is not None:
        return c.clash
    if isinstance(c, Fresh):
        core = c.core
        if not isinstance(core, Var) or c.prefix:
            return None
        ty = env[core.name]
        if isinstance(ty, NameSortT) and ty != env[c.var]:
            return None  # different name sorts: the constraint is vacuous
        return SOLVED_FRESH

    xs, bl, ys, br = c.split
    k = len(xs)
    if isinstance(bl, Var) and isinstance(br, Var):
        if k == 0:
            if bl.name == br.name:
                return None  # trivial equation, dropped by a rule
            if in_rest(bl.name) and in_rest(br.name):
                return None  # substitution applies
            return SOLVED_ASSIGN
        if isinstance(env[bl.name], NameSortT):
            return None  # binder-comparison branching applies
        return SOLVED_ABS_SAME if bl.name == br.name else SOLVED_ABS_PAIR
    if isinstance(bl, Var) or isinstance(br, Var):
        x = bl if isinstance(bl, Var) else br
        if k > 0 or in_rest(x.name):
            return None  # narrowing or substitution applies
        return SOLVED_ASSIGN
    return None


@cache
def _v(name: str) -> Var:
    return Var(name)


@cache
def _f(x: str, y: str) -> Fresh:
    return Fresh(x, _v(y))


@cache
def _e(x: str, y: str) -> Eq:
    return Eq(_v(x), _v(y))


def fresh_vars(taken: Container[str], count: int) -> tuple[str, ...]:
    """Deterministic fresh variable names: the lowest-numbered _vK names
    not already taken."""
    out: list[str] = []
    k = 0
    while len(out) < count:
        cand = f"_v{k}"
        if cand not in taken:
            out.append(cand)
        k += 1
    return tuple(out)


def narrow(sig: Signature, ty: Type, shape: Term,
           taken: Container[str]) -> tuple[dict[str, Type], Term]:
    """A one-layer pattern of type ty matching the head shape of `shape`,
    with fresh variables underneath."""
    if isinstance(shape, Var):
        raise NarrowOnVariable("narrowing against a bare variable")
    if isinstance(shape, SUnit):
        return {}, SUNIT
    if isinstance(shape, SApp):
        (v,) = fresh_vars(taken, 1)
        return {v: sig.arg_type(shape.con)}, SApp(shape.con, Var(v))
    if isinstance(shape, STuple):
        assert isinstance(ty, TupleT)
        vs = fresh_vars(taken, len(shape.items))
        return dict(zip(vs, ty.items)), STuple(tuple(Var(v) for v in vs))
    assert isinstance(ty, AbsT)
    binder, body = fresh_vars(taken, 2)
    return {binder: NameSortT(ty.binder), body: ty.body}, SAbs(binder, Var(body))


def _replace(p: Problem, i: int, new: list[Constraint]) -> Problem:
    return Problem(p.env, p.constraints[:i] + tuple(new) + p.constraints[i + 1:])


def _subst_rest(p: Problem, i: int, keep: list[Constraint],
                x: str, t: Term, env: Env | None = None) -> Problem:
    before = tuple(subst_constraint(c, x, t) for c in p.constraints[:i])
    after = tuple(subst_constraint(c, x, t) for c in p.constraints[i + 1:])
    return Problem(env if env is not None else p.env,
                   before + tuple(keep) + after)


def _expand_fresh(p: Problem, i: int, c: Fresh) -> tuple[Problem, ...]:
    env = p.env
    ys, core = c.prefix, c.core
    x = c.var
    if isinstance(core, SUnit):
        return (_replace(p, i, []),)
    if isinstance(core, SApp):
        return (_replace(p, i, [Fresh(x, wrap_abs(ys, core.arg))]),)
    if isinstance(core, STuple):
        return (_replace(
            p, i, [Fresh(x, wrap_abs(ys, item)) for item in core.items]),)
    assert isinstance(core, Var)
    if not ys:
        # Distinct name sorts: the freshness holds vacuously.
        assert env[core.name] != env[x]
        return (_replace(p, i, []),)
    # Branch on which binder (if any) the name x coincides with.
    branches: list[Problem] = []
    for j, yj in enumerate(ys):
        if env[yj] != env[x]:
            continue
        new: list[Constraint] = [_f(x, y) for y in ys[:j]]
        new.append(_e(x, yj))
        branches.append(_replace(p, i, new))
    final: list[Constraint] = [_f(x, y) for y in ys]
    final.append(Fresh(x, core))
    branches.append(_replace(p, i, final))
    return tuple(branches)


def _expand_eq(sig: Signature, p: Problem, i: int, c: Eq) -> tuple[Problem, ...]:
    env = p.env
    xs, bl, ys, br = c.split
    k = len(xs)

    if isinstance(bl, Var) and isinstance(br, Var):
        if k == 0:
            if bl == br:
                return (_replace(p, i, []),)
            # Either variable may be eliminated; enumerate both orientations.
            return (_subst_rest(p, i, [c], bl.name, br),
                    _subst_rest(p, i, [c], br.name, bl))
        xv, yv = bl.name, br.name
        assert isinstance(env[xv], NameSortT)
        # Branch on the innermost binder equal to the body name, if any.
        branches: list[Problem] = []
        for j in range(k - 1, -1, -1):
            if env[xs[j]] != env[xv]:
                continue
            new: list[Constraint] = [_f(xv, xs[m])
                                     for m in range(k - 1, j, -1)]
            new.append(_e(xv, xs[j]))
            new.extend(_f(yv, ys[m]) for m in range(k - 1, j, -1))
            new.append(_e(yv, ys[j]))
            branches.append(_replace(p, i, new))
        final: list[Constraint] = [_f(xv, xs[m])
                                   for m in range(k - 1, -1, -1)]
        final.extend(_f(yv, ys[m]) for m in range(k - 1, -1, -1))
        final.append(_e(xv, yv))
        branches.append(_replace(p, i, final))
        return tuple(branches)

    if isinstance(bl, Var) or isinstance(br, Var):
        x = bl if isinstance(bl, Var) else br
        t = br if isinstance(bl, Var) else bl
        if k == 0:
            return (_subst_rest(p, i, [c], x.name, t),)
        # Narrow x to the head shape of t, then revisit the equation.
        delta, pattern = narrow(sig, env[x.name], t, env)
        new_env = dict(env)
        new_env.update(delta)
        keep = [Eq(Var(x.name), pattern),
                subst_constraint(c, x.name, pattern)]
        return (_subst_rest(p, i, keep, x.name, pattern, env=new_env),)

    if isinstance(bl, SUnit):
        assert isinstance(br, SUnit)
        return (_replace(p, i, []),)
    if isinstance(bl, SApp):
        assert isinstance(br, SApp) and bl.con == br.con
        return (_replace(
            p, i, [Eq(wrap_abs(xs, bl.arg), wrap_abs(ys, br.arg))]),)
    assert isinstance(bl, STuple) and isinstance(br, STuple)
    assert len(bl.items) == len(br.items)
    return (_replace(p, i, [Eq(wrap_abs(xs, a), wrap_abs(ys, b))
                            for a, b in zip(bl.items, br.items)]),)


def expand(sig: Signature, p: Problem, i: int,
           verify: bool = True) -> tuple[Problem, ...]:
    """Branch problems obtained by applying the one applicable rule to
    constraint i.  Raises InvalidSelection if that constraint is normal."""
    c = p.constraints[i]
    if verify and statuses(p)[i] is not None:
        raise InvalidSelection(f"constraint {i} is in normal form: {c}")
    if isinstance(c, Fresh):
        return _expand_fresh(p, i, c)
    return _expand_eq(sig, p, i, c)


def shared_vars(p: Problem) -> frozenset[str]:
    """The variables that occur in at least two of p's constraints: in the
    rest, for any one constraint that mentions them."""
    seen: set[str] = set()
    shared: set[str] = set()
    for c in p.constraints:
        shared |= seen & c.vars
        seen |= c.vars
    return frozenset(shared)


def statuses(p: Problem, shared: frozenset[str] | None = None
             ) -> tuple[str | None, ...]:
    """Normal-form labels of all constraints, computed in one pass.  A
    variable counts as occurring in the rest of p only when another of p's
    constraints holds it; `shared`, when given, is `shared_vars(p)`."""
    env = p.env
    in_rest = (shared_vars(p) if shared is None else shared).__contains__
    return tuple(_classify(env, c, in_rest) for c in p.constraints)


def successors(sig: Signature, p: Problem) -> tuple[Problem, ...]:
    """Successor set of p, empty iff p is terminal: the branches of its
    first reducible constraint (complete, since every rule's branch set
    preserves satisfiability).  This is the paper's relation; the decider's
    search shortcuts over it live in `decider`.
    """
    i = next((i for i, s in enumerate(statuses(p)) if s is None), None)
    return () if i is None else expand(sig, p, i, verify=False)
