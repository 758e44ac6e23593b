import random

import pytest
from hypothesis import example, given, settings, strategies as st

from npnas.errors import (
    IllFormedProblem,
    IllegalBinderSubstitution,
    MissingVariable,
    NonNameBinder,
    TypeMismatch,
    UnboundVariable,
)
from npnas.kernel import (
    AAbs,
    AApp,
    ABound,
    AbsT,
    AlphaTree,
    ATuple,
    DataSortT,
    GAbs,
    GApp,
    GTuple,
    GUNIT,
    Name,
    NameSortT,
    TupleT,
    UNIT_T,
    canonicalize,
    realize,
)
from npnas.schematic import (
    Eq,
    Fresh,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUNIT,
    Var,
    atree_size,
    check_problem,
    infer_type,
    instantiate,
    satisfies,
    satisfies_all,
    subst_constraint,
    subst_term,
    wrap_abs,
)
from npnas.oracle import small_signature

from conftest import random_gtree
from ground_ref import tree_size
from termination_ref import constraint_size, term_size

NM = NameSortT("nm")
TM = DataSortT("tm")


@pytest.fixture
def env():
    return {"a": NM, "b": NM, "x": TM, "f": AbsT("nm", TM)}


# ---------------------------------------------------------------------------
# Typing

def test_infer_type_basic(sig, env):
    assert infer_type(sig, env, Var("x")) == TM
    assert infer_type(sig, env, SUNIT) == UNIT_T
    assert infer_type(sig, env, SAbs("a", Var("x"))) == AbsT("nm", TM)
    assert infer_type(sig, env, STuple((Var("a"), Var("x")))) == TupleT((NM, TM))
    assert infer_type(sig, env, SApp("V", Var("a"))) == TM


def test_infer_type_errors(sig, env):
    with pytest.raises(UnboundVariable):
        infer_type(sig, env, Var("zz"))
    with pytest.raises(NonNameBinder):
        infer_type(sig, env, SAbs("x", Var("a")))
    with pytest.raises(TypeMismatch):
        infer_type(sig, env, SApp("V", Var("x")))
    with pytest.raises(TypeMismatch):
        infer_type(sig, env, SApp("Missing", Var("x")))


def test_check_problem_wraps_type_errors(sig, env):
    bad = Problem(env, (Eq(Var("a"), Var("x")),))
    with pytest.raises(IllFormedProblem):
        check_problem(sig, bad)
    with pytest.raises(IllFormedProblem):
        check_problem(sig, Problem(env, (Fresh("x", Var("a")),)))


# ---------------------------------------------------------------------------
# Variables and substitution

def test_term_vars_includes_binders():
    t = SAbs("a", STuple((Var("x"), SUNIT)))
    assert t.vars == {"a", "x"}
    assert Fresh("b", t).vars == {"a", "b", "x"}
    # A fact set when the value is built is not part of its identity.
    assert repr(Var("x")) == "Var(name='x')"
    assert "vars" not in repr(Fresh("b", t))


def test_subst_term_is_capturing():
    t = SAbs("a", Var("x"))
    assert subst_term(t, "x", Var("a")) == SAbs("a", Var("a"))


def test_subst_term_renames_binder_variables():
    t = SAbs("a", Var("a"))
    assert subst_term(t, "a", Var("b")) == SAbs("b", Var("b"))


def test_subst_rejects_compound_in_binder_position():
    with pytest.raises(IllegalBinderSubstitution):
        subst_term(SAbs("a", SUNIT), "a", SUNIT)
    with pytest.raises(IllegalBinderSubstitution):
        subst_constraint(Fresh("a", SUNIT), "a", STuple((SUNIT, SUNIT)))
    # The variable occurs only as a binder, below a compound term.
    nested = SApp("K", STuple((Var("y"), SAbs("a", SUNIT))))
    with pytest.raises(IllegalBinderSubstitution):
        subst_term(nested, "a", SUNIT)
    with pytest.raises(IllegalBinderSubstitution):
        subst_constraint(Eq(Var("y"), nested), "a", SApp("K", Var("b")))


def test_subst_returns_untouched_terms_themselves():
    r = SApp("K", Var("y"))
    t = SAbs("a", STuple((Var("z"), SUNIT)))
    assert subst_term(t, "x", r) is t
    a, b = SApp("K", Var("x")), SAbs("a", Var("z"))
    got = subst_term(STuple((a, b)), "x", r)
    assert got == STuple((SApp("K", r), b))
    assert got.items[1] is b


def test_subst_returns_untouched_constraints_themselves():
    r = SApp("K", Var("y"))
    for c in (Eq(Var("z"), SAbs("a", Var("z"))), Fresh("a", Var("z"))):
        assert subst_constraint(c, "x", r) is c


# ---------------------------------------------------------------------------
# Instantiation and satisfaction

def n(i):
    return AlphaTree(Name("nm", i))


def test_instantiate_capture_semantics():
    # <a>b with both variables at the same name yields a bound body.
    V = {"a": n(0), "b": n(0)}
    got = instantiate(V, SAbs("a", Var("b")))
    assert got == canonicalize(GAbs(Name("nm", 0), Name("nm", 0)))
    # ... and with distinct names the body stays free.
    V2 = {"a": n(0), "b": n(1)}
    got2 = instantiate(V2, SAbs("a", Var("b")))
    assert got2 == canonicalize(GAbs(Name("nm", 0), Name("nm", 1)))


def ref_ground(V, t):
    """The reference semantics of instantiation: a ground tree with every
    variable's value realized, so that canonicalize(ref_ground(V, t)) is
    the alpha-tree t denotes, capture included."""
    if isinstance(t, Var):
        if t.name not in V:
            raise MissingVariable(t.name)
        return realize(V[t.name])
    if t == SUNIT:
        return GUNIT
    if isinstance(t, STuple):
        return GTuple(tuple(ref_ground(V, item) for item in t.items))
    if isinstance(t, SApp):
        return GApp(t.con, ref_ground(V, t.arg))
    if t.binder not in V:
        raise MissingVariable(t.binder)
    return GAbs(V[t.binder].name(), ref_ground(V, t.body))


# Two names, so binders often share a name (shadowing) and values often have
# a free name that an enclosing binder maps to (capture).  x's value is an
# abstraction, so a captured name is often free below a binder of the value.
# Binders are mostly a and b; c is often unset or not a name.
pool = st.sampled_from([Name("nm", 0), Name("nm", 1)])
gtrees = st.recursive(
    pool,
    lambda sub: st.one_of(
        st.tuples(pool, sub).map(lambda p: GAbs(*p)),
        st.tuples(sub, sub).map(GTuple),
        sub.map(lambda g: GApp("L", g))),
    max_leaves=6)
values = st.one_of(gtrees.map(canonicalize), pool.map(AlphaTree))
valuations = st.fixed_dictionaries(
    {"a": pool.map(AlphaTree), "b": pool.map(AlphaTree),
     "x": st.tuples(pool, gtrees).map(lambda p: canonicalize(GAbs(*p))),
     "y": values},
    optional={"c": values})
binder_vars = st.sampled_from("aaabbbc")
prefixed_vars = st.tuples(st.lists(binder_vars, max_size=3),
                          st.sampled_from("abcxxxy")).map(
    lambda p: wrap_abs(tuple(p[0]), Var(p[1])))
terms = st.recursive(
    prefixed_vars,
    lambda sub: st.one_of(
        st.tuples(binder_vars, sub).map(lambda p: SAbs(*p)),
        sub.map(lambda t: SApp("L", t)),
        st.tuples(sub, sub).map(STuple)),
    max_leaves=6)


def _outcome(f):
    try:
        return f()
    except (MissingVariable, TypeMismatch) as exc:
        return type(exc)


@given(valuations, terms)
@settings(max_examples=400)
@example({"a": n(0), "b": n(0), "x": canonicalize(Name("nm", 0)),
          "y": n(1)},
         SAbs("a", SAbs("b", STuple((Var("x"), Var("y"))))))
@example({"a": n(0), "b": n(1),
          "x": canonicalize(GApp("L", GAbs(Name("nm", 1), GTuple(
              (Name("nm", 1), Name("nm", 0)))))),
          "y": n(1)},
         SAbs("a", SAbs("b", SAbs("a", Var("x")))))
def test_instantiate_agrees_with_grounding(V, t):
    got = _outcome(lambda: instantiate(V, t))
    assert got == _outcome(lambda: canonicalize(ref_ground(V, t)))


def test_instantiate_binds_captured_names_to_the_innermost_binder():
    # <a><b>x, a and b both n0, x = (L <n1>(n1, n0)): the free n0 of x is
    # bound by b, one binder inside x's own and none between b and x.
    V = {"a": n(0), "b": n(0), "x": canonicalize(GApp("L", GAbs(
        Name("nm", 1), GTuple((Name("nm", 1), Name("nm", 0))))))}
    got = instantiate(V, SAbs("a", SAbs("b", Var("x"))))
    body = AApp("L", AAbs("nm", ATuple((ABound(0), ABound(1)))))
    assert got.node == AAbs("nm", AAbs("nm", body))
    # A value without captured names is used as it is.
    V["x"] = canonicalize(GApp("V", Name("nm", 1)))
    assert instantiate(V, SAbs("a", Var("x"))).node.body is V["x"].node


@pytest.mark.parametrize("t, V, error", [
    (SAbs("a", SUNIT), {}, MissingVariable),
    (SAbs("a", Var("x")), {"a": n(0)}, MissingVariable),
    (STuple((Var("a"), SAbs("a", Var("z")))), {"a": n(0)}, MissingVariable),
    (SAbs("a", SAbs("x", SUNIT)),
     {"a": n(0), "x": canonicalize(GApp("Z", GUNIT))}, TypeMismatch),
    # The binder is looked up before the body.
    (SAbs("x", Var("z")), {"x": canonicalize(GUNIT)}, TypeMismatch),
], ids=["binder unset", "variable unset under a binder",
        "variable unset after an item", "non-name binder under a binder",
        "non-name binder before an unset body"])
def test_instantiate_errors(t, V, error):
    with pytest.raises(error):
        instantiate(V, t)


def test_instantiate_requires_name_for_binder():
    V = {"x": canonicalize(GApp("Z", GUNIT))}
    with pytest.raises(TypeMismatch):
        instantiate(V, SAbs("x", SUNIT))


def test_instantiate_missing_variable():
    with pytest.raises(MissingVariable):
        instantiate({}, Var("x"))


def test_satisfies_eq_and_fresh():
    V = {"a": n(0), "b": n(1)}
    assert satisfies(V, Fresh("a", Var("b")))
    assert not satisfies(V, Fresh("a", Var("a")))
    assert satisfies(V, Eq(Var("a"), Var("a")))
    assert not satisfies(V, Eq(Var("a"), Var("b")))


def test_satisfies_fresh_ignores_bound_occurrences():
    V = {"a": n(0), "b": n(0)}
    # <a>b binds the occurrence when a and b coincide.
    assert satisfies(V, Fresh("a", SAbs("a", Var("b"))))


def test_satisfies_all_order_irrelevant():
    V = {"a": n(0), "b": n(1)}
    p = Problem({"a": NM, "b": NM},
                (Fresh("a", Var("b")), Eq(Var("a"), Var("a"))))
    assert satisfies_all(V, p)


# ---------------------------------------------------------------------------
# Sizes

def test_tree_size_equations():
    rng = random.Random(5)
    for _ in range(100):
        g = random_gtree(rng)
        assert tree_size(g) == atree_size(canonicalize(g))


def test_term_size_counts_name_variables_as_one(sig):
    env = {"a": NM, "x": TM}
    W = {"x": canonicalize(GApp("P", GTuple((GApp("Z", GUNIT),
                                             GApp("Z", GUNIT)))))}
    assert term_size(env, W, Var("a")) == 1
    assert term_size(env, W, Var("x")) == atree_size(W["x"])
    assert term_size(env, W, SAbs("a", Var("x"))) == 2 + atree_size(W["x"])
    c = Eq(Var("x"), Var("x"))
    assert constraint_size(env, W, c) == 2 * atree_size(W["x"])
