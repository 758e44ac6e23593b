import gc
import random
import weakref

import pytest

from npnas import decider
from npnas.decider import SolveOptions, _canonical_key, decide, extract_witness
from npnas.errors import BudgetExhausted, IllFormedProblem, NotSolved
from npnas.kernel import AlphaTree, DataSortT, Name, NameSortT, make_signature
from npnas.oracle import brute_sat, random_problem
from npnas.schematic import Eq, Fresh, Problem, SAbs, SApp, SUNIT, Var, satisfies_all

NM = NameSortT("nm")
TM = DataSortT("tm")


def test_sat_with_witness(sig):
    p = Problem({"a": NM, "x": TM}, (Eq(Var("x"), SApp("V", Var("a"))),))
    r = decide(sig, p)
    assert r.sat and r.reason is None
    assert satisfies_all(r.witness, p)
    assert set(r.witness) == {"a", "x"}


def test_unsat_by_first_order_collapse(sig):
    p = Problem({"x": TM}, (Eq(Var("x"), SApp("L", SAbs("a", Var("x")))),))
    # binder variable must be declared for the problem to be well formed
    p = Problem({"a": NM, "x": TM}, p.constraints)
    r = decide(sig, p)
    assert not r.sat and r.reason == "fo-reduction" and r.nodes == 0


def test_unsat_by_exhaustion(sig):
    p = Problem({"a": NM, "b": NM},
                (Eq(SAbs("a", Var("b")), SAbs("b", Var("a"))),
                 Fresh("a", Var("b"))))
    r = decide(sig, p)
    assert not r.sat and r.reason == "exhausted-normal-forms"
    assert r.normal_forms >= 1


def test_ill_formed_problem_rejected(sig):
    with pytest.raises(IllFormedProblem):
        decide(sig, Problem({"a": NM}, (Eq(Var("a"), Var("zz")),)))


def test_budget_exhaustion(sig):
    p = Problem({"a": NM, "b": NM, "x": TM, "y": TM},
                (Eq(SAbs("a", Var("x")), SAbs("b", Var("y"))),
                 Eq(Var("x"), SApp("V", Var("a"))),
                 Eq(Var("y"), SApp("V", Var("b")))))
    with pytest.raises(BudgetExhausted):
        decide(sig, p, SolveOptions(budget=0))


def test_strategies_and_memoization_agree(sig):
    rng = random.Random(41)
    for _ in range(60):
        _, p = random_problem(rng)
        verdicts = {
            decide(sig, p, SolveOptions(strategy=s, memoize=m)).sat
            for s in ("focused", "full")
            for m in (True, False)
        }
        assert len(verdicts) == 1, p


def test_witnesses_always_satisfy(sig):
    rng = random.Random(42)
    sats = 0
    for _ in range(120):
        _, p = random_problem(rng)
        r = decide(sig, p)
        if r.sat:
            assert satisfies_all(r.witness, p)
            sats += 1
    assert sats > 10


def test_agrees_with_oracle(sig):
    rng = random.Random(43)
    for _ in range(120):
        _, p = random_problem(rng)
        res = brute_sat(sig, p)
        r = decide(sig, p)
        if res.sat or res.exact:
            assert res.sat == r.sat, p


# ---------------------------------------------------------------------------
# Witness extraction

def test_extract_witness_requires_solved(sig):
    p = Problem({"x": TM}, (Eq(Var("x"), Var("x")),))
    with pytest.raises(NotSolved):
        extract_witness(sig, p)


def test_search_rejects_a_witness_that_fails(sig, monkeypatch):
    # The re-check must not be an assert, which `python -O` strips.
    p = Problem({"a": NM, "b": NM}, (Fresh("a", Var("b")),))
    same = AlphaTree(Name("nm", 0))
    monkeypatch.setattr(decider, "extract_witness",
                        lambda sig, q: {"a": same, "b": same})
    with pytest.raises(NotSolved):
        decide(sig, p)


def test_extract_witness_on_solved_forms(sig):
    env = {"a": NM, "b": NM, "x": TM, "y": TM}
    p = Problem(env, (Fresh("a", Var("b")),
                      Eq(SAbs("a", Var("x")), SAbs("b", Var("y"))),))
    V = extract_witness(sig, p)
    assert satisfies_all(V, p)
    # abs-pair bodies share their value
    assert V["x"] == V["y"]
    # distinct name variables receive distinct pool names
    assert V["a"] != V["b"]


def test_shared_values_avoid_the_name_pool(sig):
    env = {"u": NM, "v": NM, "p": TM, "q": TM}
    p = Problem(env, (Eq(SAbs("u", Var("p")), SAbs("v", Var("q"))),
                      Fresh("u", Var("v"))))
    V = extract_witness(sig, p)
    assert satisfies_all(V, p)
    assert V["p"] == V["q"]
    # values of shared data variables keep their free names off the pool
    # handed to name variables
    pool_names = {V["u"].name(), V["v"].name()}
    assert not (V["p"].free_names() & pool_names)


# ---------------------------------------------------------------------------
# Search state

def test_search_keeps_no_input_alive(sig):
    # Memoised facts live on the constraints themselves, so once the caller
    # drops the problem and the result nothing else holds its constraints.
    c = Eq(Var("x"), SApp("V", Var("a")))
    p = Problem({"a": NM, "b": NM, "x": TM}, (c, Fresh("a", Var("b"))))
    ref = weakref.ref(c)
    r = decide(sig, p)
    assert r.sat
    del c, p, r
    gc.collect()
    assert ref() is None


def test_memo_key_is_structural():
    # Both render as "(eq a b c)"; the key must still tell them apart.
    p = Problem({}, (Eq(Var("a b"), Var("c")),))
    q = Problem({}, (Eq(Var("a"), Var("b c")),))
    assert str(p) == str(q)
    assert _canonical_key(p) != _canonical_key(q)
    swapped = Problem({}, (Fresh("a", Var("b")), Eq(Var("x"), Var("y"))))
    assert _canonical_key(swapped) == _canonical_key(
        Problem({}, swapped.constraints[::-1]))
