"""Randomized algebraic properties of the ground-tree kernel, and
metamorphic properties of the decision procedure."""
import random
from functools import reduce

from hypothesis import given, settings, strategies as st

from npnas.kernel import (
    GAbs,
    GApp,
    GTuple,
    GUNIT,
    IDENTITY,
    Name,
    alpha_eq,
    canonicalize,
    free_names,
    perm_apply,
    realize,
    swap,
)
from npnas.decider import decide
from npnas.oracle import random_problem
from npnas.schematic import (
    Eq, Fresh, Problem, SAbs, SApp, STuple, Var, satisfies_all)

names = st.integers(0, 3).map(lambda i: Name("nm", i))

trees = st.recursive(
    st.one_of(
        st.just(GApp("Z", GUNIT)),
        names.map(lambda a: GApp("V", a)),
    ),
    lambda sub: st.one_of(
        st.tuples(names, sub).map(lambda p: GApp("L", GAbs(*p))),
        st.tuples(sub, sub).map(lambda p: GApp("P", GTuple(p))),
    ),
    max_leaves=8,
)

perms = st.lists(st.tuples(names, names), max_size=3).map(
    lambda ps: reduce(lambda acc, ab: acc.then(swap(*ab)), ps, IDENTITY))


@given(trees, names)
def test_renamed_binder_is_alpha_equivalent(g, b):
    g2 = GApp("L", GAbs(b, g))
    fresh = Name("nm", max((n.index for n in free_names(g2)), default=-1) + 1)
    renamed = GApp("L", GAbs(fresh, perm_apply(swap(b, fresh), g)))
    assert alpha_eq(g2, renamed)


@given(perms, trees)
def test_permutation_action_respects_alpha_classes(pi, g):
    assert alpha_eq(g, perm_apply(pi.inverse(), perm_apply(pi, g)))
    assert canonicalize(perm_apply(pi, g)) == canonicalize(
        perm_apply(pi, realize(canonicalize(g))))


@given(trees)
@settings(max_examples=200)
def test_canonicalize_realize_round_trip(g):
    assert alpha_eq(realize(canonicalize(g)), g)


@given(trees, perms)
def test_free_names_are_equivariant(g, pi):
    assert free_names(perm_apply(pi, g)) == {pi(a) for a in free_names(g)}


def _rename(t, m):
    if isinstance(t, Var):
        return Var(m[t.name])
    if isinstance(t, SAbs):
        return SAbs(m[t.binder], _rename(t.body, m))
    if isinstance(t, SApp):
        return SApp(t.con, _rename(t.arg, m))
    if isinstance(t, STuple):
        return STuple(tuple(_rename(item, m) for item in t.items))
    return t


def _rename_constraint(c, m):
    if isinstance(c, Eq):
        return Eq(_rename(c.lhs, m), _rename(c.rhs, m))
    return Fresh(m[c.var], _rename(c.target, m))


@given(st.integers(0, 2**32), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_verdict_ignores_names_order_and_duplicates(seed, rnd):
    # Renaming to the `_vK` names that narrowing generates, shuffling the
    # constraints and duplicating one leave a problem equisatisfiable.
    sig, p = random_problem(random.Random(seed), 6, 5)
    names = list(p.env)
    rnd.shuffle(names)
    m = {x: f"_v{k}" for k, x in enumerate(names)}
    cs = [_rename_constraint(c, m) for c in p.constraints]
    cs.append(rnd.choice(cs))
    rnd.shuffle(cs)
    q = Problem({m[x]: ty for x, ty in p.env.items()}, tuple(cs))
    r = decide(sig, q)
    assert r.sat == decide(sig, p).sat
    if r.sat:
        assert satisfies_all(r.witness, q)
