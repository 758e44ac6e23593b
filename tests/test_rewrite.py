import random
import sys

import pytest

from npnas.errors import InvalidSelection
from npnas.kernel import (
    AAbs, AApp, ABound, ATuple, AbsT, AlphaTree, DataSortT, Name, NameSortT)
from npnas.oracle import brute_sat, random_problem
from npnas.rewrite import (
    CLASH_ABS_OCCURS,
    CLASH_CON,
    CLASH_OCCURS,
    CLASH_SELF_FRESH,
    SOLVED_ABS_PAIR,
    SOLVED_ABS_SAME,
    SOLVED_ASSIGN,
    SOLVED_FORMS,
    SOLVED_FRESH,
    expand,
    fresh_vars,
    has_clash,
    narrow,
    shared_vars,
    statuses,
    successors,
)
from npnas.schematic import (
    Eq, Fresh, Problem, SAbs, SApp, STuple, SUNIT, Var, subst_term)

NM = NameSortT("nm")
TM = DataSortT("tm")


def prob(env, *cs):
    return Problem(env, tuple(cs))


# ---------------------------------------------------------------------------
# Classification

def test_solved_forms():
    env = {"a": NM, "b": NM, "x": TM, "y": TM}
    assert statuses(prob(env, Fresh("a", Var("b"))))[0] == SOLVED_FRESH
    assert statuses(prob(env, Eq(Var("x"), SApp("Z", SUNIT))))[0] == SOLVED_ASSIGN
    assert statuses(prob(env, Eq(SAbs("a", Var("x")),
                                 SAbs("b", Var("y")))))[0] == SOLVED_ABS_PAIR
    assert statuses(prob(env, Eq(SAbs("a", Var("x")),
                                 SAbs("b", Var("x")))))[0] == SOLVED_ABS_SAME


def test_clash_forms():
    env = {"a": NM, "b": NM, "x": TM, "y": TM}
    assert statuses(prob(env, Fresh("a", Var("a"))))[0] == CLASH_SELF_FRESH
    assert statuses(prob(env, Eq(SApp("Z", SUNIT),
                                 SApp("V", Var("a")))))[0] == CLASH_CON
    # a variable not occurring on the other side is not an occurs clash
    assert statuses(prob(env, Eq(Var("x"), SApp("V", Var("a")))))[0] == SOLVED_ASSIGN
    assert statuses(prob(env,
                         Eq(Var("x"), SApp("P", STuple((Var("x"), Var("y"))))),
                         ))[0] == CLASH_OCCURS
    assert statuses(prob(env,
                         Eq(SAbs("a", Var("x")),
                            SAbs("b", SApp("P", STuple((Var("x"), Var("y"))))))
                         ))[0] == CLASH_ABS_OCCURS


def test_has_clash_matches_classification():
    rng = random.Random(21)
    for _ in range(200):
        _, p = random_problem(rng)
        st = statuses(p)
        from npnas.rewrite import CLASH_FORMS
        assert has_clash(p) == any(s in CLASH_FORMS for s in st)


def test_assign_only_when_variable_isolated():
    env = {"x": TM, "y": TM}
    c = Eq(Var("x"), SApp("Z", SUNIT))
    # x occurs in another constraint: substitution applies instead.
    assert statuses(prob(env, c, Eq(Var("x"), Var("y"))))[0] is None
    assert statuses(prob(env, c, Eq(Var("y"), Var("y"))))[0] == SOLVED_ASSIGN


def test_fresh_on_other_name_sort_reduces_to_nothing():
    from npnas.kernel import make_signature
    sig2 = make_signature({"A", "B"}, set(), {})
    env = {"a": NameSortT("A"), "b": NameSortT("B")}
    c = Fresh("a", Var("b"))
    assert statuses(prob(env, c))[0] is None
    (q,) = expand(sig2, prob(env, c), 0)
    assert q.constraints == ()


def _deep_term(leaf, depth=5000):
    t = leaf
    for i in range(depth):
        t = (SApp("L", SAbs("a", t)) if i % 2
             else SApp("P", STuple((t, SUNIT))))
    return t


def test_deep_problem_is_classified_without_recursion():
    # Variables and free names are set when a node is built, so the checks
    # that read them walk nothing, at the interpreter's default limit.
    env = {"a": NM, "x": TM, "y": TM}
    t = _deep_term(Var("y"))
    p = prob(env, Eq(Var("x"), t), Fresh("a", Var("x")))
    occurs = prob(env, Eq(Var("x"), _deep_term(Var("x"))))
    node = Name("nm", 0)
    for _ in range(5000):
        node = AApp("L", AAbs("nm", ATuple((node, ABound(0)))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert not has_clash(p) and has_clash(occurs)
        assert statuses(p) == (None, SOLVED_FRESH)
        assert statuses(occurs) == (CLASH_OCCURS,)
        assert shared_vars(p) == {"a", "x"}
        assert subst_term(t, "x", SUNIT) is t
        assert AlphaTree(node).free_names() == {Name("nm", 0)}
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Expansion

def test_expand_rejects_normal_constraints(sig):
    env = {"a": NM, "b": NM}
    p = prob(env, Fresh("a", Var("b")))
    with pytest.raises(InvalidSelection):
        expand(sig, p, 0)


def test_freshness_decomposition(sig):
    env = {"a": NM, "x": TM, "y": TM}
    (q,) = expand(sig, prob(env, Fresh("a", SUNIT)), 0)
    assert q.constraints == ()
    (q,) = expand(sig, prob(env, Fresh("a", SApp("P", STuple((Var("x"), Var("y")))))), 0)
    (q2,) = expand(sig, q, 0)
    assert q2.constraints == (Fresh("a", Var("x")), Fresh("a", Var("y")))


def test_fresh_under_binders_branches_per_matching_binder(sig):
    env = {"a": NM, "b": NM, "c": NM}
    p = prob(env, Fresh("a", SAbs("b", SAbs("c", Var("a")))))
    branches = expand(sig, p, 0)
    # one branch per binder of the same sort, plus the all-fresh branch
    assert len(branches) == 3
    # outermost binder first: branch 0 equates a with b
    assert Eq(Var("a"), Var("b")) in branches[0].constraints
    assert Eq(Var("a"), Var("c")) in branches[1].constraints
    final = branches[2].constraints
    assert Fresh("a", Var("b")) in final and Fresh("a", Var("c")) in final


def test_eq_decomposition_under_prefix(sig):
    env = {"a": NM, "b": NM, "x": TM, "y": TM}
    p = prob(env, Eq(SAbs("a", SApp("V", Var("a"))), SAbs("b", SApp("V", Var("b")))))
    (q,) = expand(sig, p, 0)
    assert q.constraints == (Eq(SAbs("a", Var("a")), SAbs("b", Var("b"))),)


def test_trivial_equation_dropped(sig):
    env = {"x": TM}
    (q,) = expand(sig, prob(env, Eq(Var("x"), Var("x"))), 0)
    assert q.constraints == ()


def test_variable_elimination_enumerates_both_orientations(sig):
    env = {"x": TM, "y": TM, "z": TM}
    p = prob(env, Eq(Var("x"), Var("y")),
             Eq(Var("x"), Var("z")), Eq(Var("y"), Var("z")))
    qs = expand(sig, p, 0)
    assert len(qs) == 2
    # one branch substitutes x := y, the other y := x; the equation is kept
    texts = {str(q) for q in qs}
    assert "(eq x y); (eq y z); (eq y z)" in texts
    assert "(eq x y); (eq x z); (eq x z)" in texts


def test_substitution_when_variable_occurs_elsewhere(sig):
    env = {"x": TM, "y": TM}
    p = prob(env, Eq(Var("x"), SApp("Z", SUNIT)), Eq(Var("x"), Var("y")))
    # x = Z unit with x also elsewhere: substitution, not narrowing
    qs = expand(sig, p, 0)
    assert len(qs) == 1
    assert str(qs[0]) == "(eq x (con Z unit)); (eq (con Z unit) y)"


def test_narrowing_under_binders(sig):
    env = {"a": NM, "x": TM}
    p = prob(env, Eq(SAbs("a", Var("x")), SAbs("a", SApp("Z", SUNIT))))
    (q,) = expand(sig, p, 0)
    # x is narrowed to a Z-pattern and the equation revisited
    assert "_v0" in q.env
    assert q.env["_v0"] == sig.arg_type("Z")
    assert q.constraints[0] == Eq(Var("x"), SApp("Z", Var("_v0")))


def test_binder_comparison_branches_innermost_first():
    from npnas.kernel import make_signature
    sig2 = make_signature({"A"}, set(), {})
    env = {"u": NameSortT("A"), "v": NameSortT("A"),
           "p": NameSortT("A"), "q": NameSortT("A")}
    p = prob(env, Eq(SAbs("u", SAbs("v", Var("p"))),
                     SAbs("v", SAbs("u", Var("q")))),
             Fresh("p", Var("q")))
    branches = expand(sig2, p, 0)
    # two binder positions plus the both-fresh branch
    assert len(branches) == 3
    # innermost first: branch 0 equates the bodies with the inner binders
    assert Eq(Var("p"), Var("v")) in branches[0].constraints
    assert Eq(Var("q"), Var("u")) in branches[0].constraints


# ---------------------------------------------------------------------------
# Successor sets

def test_successors_empty_iff_terminal(sig):
    rng = random.Random(22)
    for _ in range(150):
        _, p = random_problem(rng)
        assert (successors(sig, p) == ()) == all(
            s is not None for s in statuses(p))


def test_solved_implies_terminal(sig):
    env = {"a": NM, "b": NM}
    p = prob(env, Fresh("a", Var("b")))
    st = statuses(p)
    assert all(s in SOLVED_FORMS for s in st) and all(s is not None for s in st)
    st = statuses(prob(env, Fresh("a", Var("a"))))
    assert all(s is not None for s in st) and not all(s in SOLVED_FORMS for s in st)


def test_fresh_vars_skip_taken():
    assert fresh_vars(frozenset({"_v0", "_v2"}), 2) == ("_v1", "_v3")


def test_step_preserves_satisfiability(sig):
    # SAT(p) iff SAT of some successor, against the exhaustive oracle.
    rng = random.Random(24)
    done = 0
    while done < 60:
        _, p = random_problem(rng)
        succ = successors(sig, p)
        if not succ:
            continue
        res = brute_sat(sig, p)
        if not (res.exact or res.sat):
            continue
        succ_sat = []
        for q in succ:
            r = brute_sat(sig, q)
            if not (r.exact or r.sat):
                break
            succ_sat.append(r.sat)
        else:
            assert res.sat == any(succ_sat)
            done += 1
