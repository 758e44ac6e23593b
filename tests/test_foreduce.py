import random

from npnas.foreduce import (
    fl_env,
    fl_problem,
    fl_term,
    fl_type,
    fo_sat,
    fo_unify,
)
from npnas.kernel import AbsT, DataSortT, NameSortT, TupleT, UNIT_T
from npnas.oracle import random_problem
from npnas.rewrite import successors
from npnas.schematic import (
    Eq,
    Fresh,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUNIT,
    Var,
    satisfies_all,
)
from collections import Counter

from termination_ref import (
    fo_solution, measure, measure_less, multiset_less, occurrences)

NM = NameSortT("nm")
TM = DataSortT("tm")


# ---------------------------------------------------------------------------
# The collapse

def test_fl_type_shapes():
    assert fl_type(NM) == UNIT_T
    assert fl_type(TM) == TM
    assert fl_type(AbsT("nm", TM)) == TupleT((UNIT_T, TM))
    assert fl_type(TupleT((NM, TM))) == TupleT((UNIT_T, TM))


def test_fl_term_collapses_names_and_binders():
    env = {"a": NM, "x": TM}
    assert fl_term(env, Var("a")) == SUNIT
    assert fl_term(env, Var("x")) == Var("x")
    assert fl_term(env, SAbs("a", Var("x"))) == STuple((SUNIT, Var("x")))


def test_fl_env_drops_name_variables():
    env = {"a": NM, "x": TM}
    assert fl_env(env) == {"x": TM}


def test_fl_problem_drops_freshness(sig):
    p = Problem({"a": NM, "x": TM},
                (Fresh("a", Var("x")), Eq(Var("x"), SApp("Z", SUNIT))))
    _, flp = fl_problem(sig, p)
    assert len(flp.constraints) == 1


# ---------------------------------------------------------------------------
# First-order unification

def test_fo_unify_simple():
    s = fo_unify([(Var("x"), SApp("Z", SUNIT))])
    assert s == {"x": SApp("Z", SUNIT)}


def test_fo_unify_occurs_check():
    assert fo_unify([(Var("x"), SApp("S", Var("x")))]) is None


def test_fo_unify_constructor_clash():
    assert fo_unify([(SApp("Z", SUNIT), SApp("S", Var("x")))]) is None


def test_fo_unify_through_chains():
    s = fo_unify([(Var("x"), Var("y")), (Var("y"), SApp("Z", SUNIT))])
    assert s is not None
    # indirect occurs failure through the chain
    assert fo_unify([(Var("x"), Var("y")),
                     (Var("y"), SApp("S", Var("x")))]) is None


def test_fo_solution_satisfies_collapsed_problem(sig):
    rng = random.Random(31)
    done = 0
    while done < 80:
        _, p = random_problem(rng)
        W = fo_solution(sig, p)
        if W is None:
            assert not fo_sat(sig, p)
            continue
        flsig, flp = fl_problem(sig, p)
        assert satisfies_all(W, flp)
        done += 1


def test_divergent_pair_is_fo_unsat(sig):
    env = {"a": NM, "b": NM, "x": TM, "y": TM}
    p = Problem(env, (
        Eq(SAbs("a", Var("x")), SAbs("b", SApp("L", SAbs("a", Var("y"))))),
        Eq(SAbs("b", Var("y")), SAbs("a", SApp("L", SAbs("b", Var("x")))))))
    assert not fo_sat(sig, p)


# ---------------------------------------------------------------------------
# Occurrence counting

def test_occurrences_count_binders_and_fresh_subjects():
    p = Problem({}, (Fresh("a", SAbs("a", Var("x"))),
                     Eq(Var("x"), Var("x"))))
    occ = occurrences(p)
    assert occ["a"] == 2    # subject + binder
    assert occ["x"] == 3


# ---------------------------------------------------------------------------
# Multiset ordering

def m(*xs):
    return Counter(xs)


def test_multiset_less_basics():
    assert multiset_less(m(1), m(2))
    assert multiset_less(m(), m(1))
    assert multiset_less(m(1, 1, 1), m(2))        # replace big by many small
    assert not multiset_less(m(2), m(1, 1, 1))
    assert not multiset_less(m(1), m(1))          # irreflexive
    assert multiset_less(m(3, 1), m(3, 2))        # common part removed


def test_measure_less_is_lexicographic():
    assert measure_less((m(1), m(9, 9)), (m(2), m()))
    assert measure_less((m(1), m(3)), (m(1), m(4)))
    assert not measure_less((m(1), m(4)), (m(1), m(4)))


def test_measure_decreases_along_steps(sig):
    rng = random.Random(32)
    done = 0
    while done < 80:
        _, p = random_problem(rng)
        if not fo_sat(sig, p):
            continue
        W = fo_solution(sig, p)
        before = measure(sig, p, W)
        stepped = False
        for q in successors(sig, p):
            if not fo_sat(sig, q):
                continue
            Wq = fo_solution(sig, q)
            assert measure_less(measure(sig, q, Wq), before), (p, q)
            stepped = True
        if stepped:
            done += 1
