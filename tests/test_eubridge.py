import itertools
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from npnas import eubridge
from npnas.cli import parse_eu
from npnas.decider import decide
from npnas.errors import PhaseTwoViolation, PoolTooLarge, UndeclaredSymbol, ValidationError
from npnas.eubridge import (
    ATOM_SORT,
    EU_SIGNATURE,
    EUEq,
    EUFresh,
    EUProblem,
    PIdent,
    PSwap,
    PVar,
    Susp,
    Vertex,
    bij_gadget,
    eu_brute_sat,
    pvvar,
    swap_gadget,
    translate_eu,
    validate_eu,
)
from npnas.kernel import AlphaTree, Name
from npnas.oracle import random_eu_problem
from npnas.schematic import satisfies


def ap(q, v):
    return Susp(PVar(q), Vertex(v))


# ---------------------------------------------------------------------------
# Validation

def test_validate_rejects_duplicates():
    with pytest.raises(ValidationError):
        validate_eu(EUProblem(("a",), ("a",), (), ()))


def test_validate_rejects_undeclared_symbols():
    p = EUProblem((), ("A",), (), (EUEq(Vertex("A"), Vertex("B")),))
    with pytest.raises(UndeclaredSymbol):
        validate_eu(p)
    p2 = EUProblem((), ("A",), (), (EUEq(ap("Q", "A"), Vertex("A")),))
    with pytest.raises(UndeclaredSymbol):
        validate_eu(p2)


def test_validate_rejects_nested_suspension_targets():
    # a permutation variable applied to a non-vertex is outside the fragment
    p = EUProblem((), ("A",), ("Q",),
                  (EUEq(Susp(PVar("Q"), ap("Q", "A")), Vertex("A")),))
    with pytest.raises(PhaseTwoViolation):
        validate_eu(p)


def test_validate_allows_swaps_of_compound_terms():
    p = EUProblem((), ("A", "B"), ("Q",),
                  (EUEq(Susp(PSwap(ap("Q", "A"), ap("Q", "B")), ap("Q", "A")),
                        Vertex("B")),))
    validate_eu(p)


# ---------------------------------------------------------------------------
# Gadget contracts

def atoms(*idx):
    return tuple(AlphaTree(Name(ATOM_SORT, i)) for i in idx)


def test_swap_gadget_contract_exhaustive():
    c = swap_gadget("x", "y", "u", "w")
    for xs in itertools.product(range(3), repeat=4):
        x, y, u, w = xs
        V = dict(zip(("x", "y", "u", "w"), atoms(*xs)))
        expected_u = w if w not in (x, y) else (y if w == x else x)
        assert satisfies(V, c) == (u == expected_u), xs


def test_bij_gadget_contract_exhaustive():
    c = bij_gadget("x", "y", "x2", "y2")
    for xs in itertools.product(range(3), repeat=4):
        x, y, x2, y2 = xs
        V = dict(zip(("x", "y", "x2", "y2"), atoms(*xs)))
        assert satisfies(V, c) == ((x == y) == (x2 == y2)), xs


# ---------------------------------------------------------------------------
# Translation

def test_translation_declares_constants_and_vars():
    p = EUProblem(("c0", "c1"), ("A",), (),
                  (EUEq(Vertex("A"), Vertex("c0")),))
    tp = translate_eu(p)
    assert set(tp.env) == {"c0", "c1", "A"}
    # declared constants denote distinct names
    assert any(str(c) == "(fresh c0 c1)" for c in tp.constraints)


def test_translation_shares_application_variables():
    p = EUProblem((), ("A",), ("Q",),
                  (EUEq(ap("Q", "A"), ap("Q", "A")),))
    tp = translate_eu(p)
    assert pvvar("Q", "A") in tp.env
    # a single site: no bijection gadget needed
    assert len(tp.constraints) == 1


def test_translation_adds_bijection_gadgets_per_site_pair():
    p = EUProblem((), ("A", "B", "C"), ("Q",),
                  (EUEq(ap("Q", "A"), Vertex("B")),
                   EUEq(ap("Q", "B"), Vertex("C")),
                   EUEq(ap("Q", "C"), Vertex("A"))))
    tp = translate_eu(p)
    gadgets = [c for c in tp.constraints if "(tuple" in str(c)]
    assert len(gadgets) == 3  # one per unordered pair of sites


@pytest.mark.parametrize("text", [
    # a swap temporary named like the declared _w0
    "(eu (names) (name-vars A B C _w0) (perm-vars) (constraints"
    " (eq (app (swap A B) A) C) (fresh A B) (fresh _w0 B)))",
    # the image of Q at A named like the declared Q.A
    "(eu (names) (name-vars A B Q.A) (perm-vars Q) (constraints"
    " (eq (app Q A) B) (fresh Q.A B)))",
    # Q at A.B and Q.A at B both named Q.A.B
    "(eu (names) (name-vars A.B B C) (perm-vars Q Q.A) (constraints"
    " (eq (app Q A.B) C) (fresh (app Q.A B) C)))",
], ids=["temporary", "image", "two-images"])
def test_generated_names_avoid_taken_ones(text):
    p = parse_eu(text)
    assert decide(EU_SIGNATURE, translate_eu(p)).sat == eu_brute_sat(p)


def _recursive_trans(self, nt):
    """`_Translator.trans` as a recursive walk: the reference for the
    explicit-stack walk."""
    if isinstance(nt, Vertex):
        return nt.sym
    perm = nt.perm
    if isinstance(perm, PIdent):
        return nt.target.sym
    if isinstance(perm, PVar):
        v = nt.target.sym
        sites = self.images.setdefault(perm.sym, {})
        if v not in sites:
            sites[v] = self.generate(pvvar(perm.sym, v))
        return sites[v]
    x = _recursive_trans(self, perm.a)
    y = _recursive_trans(self, perm.b)
    w = _recursive_trans(self, nt.target)
    u = self.generate(f"_w{self.temps}")
    self.temps += 1
    self.out.append(swap_gadget(x, y, u, w))
    return u


def _reference_translation(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eubridge._Translator, "trans", _recursive_trans)
        return translate_eu(p)


_VERTICES = st.sampled_from(("c0", "c1", "A0", "A1")).map(Vertex)
_SIMPLE_NT = (_VERTICES
              | st.builds(Susp, st.sampled_from((PVar("Q0"), PVar("Q1"),
                                                 PIdent())), _VERTICES))
# Swaps whose operands and targets are swaps in turn.
_NESTED_NT = st.recursive(
    _SIMPLE_NT,
    lambda inner: st.builds(lambda a, b, t: Susp(PSwap(a, b), t),
                            inner, inner, inner),
    max_leaves=12)
_NESTED_EU = st.builds(
    lambda cs: EUProblem(("c0", "c1"), ("A0", "A1"), ("Q0", "Q1"), tuple(cs)),
    st.lists(st.builds(lambda ctor, a, b: ctor(a, b),
                       st.sampled_from((EUEq, EUFresh)), _NESTED_NT, _NESTED_NT),
             min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_translation_matches_the_recursive_walk(seed):
    p = random_eu_problem(random.Random(seed))
    assert translate_eu(p) == _reference_translation(p)


@settings(max_examples=200, deadline=None)
@given(_NESTED_EU)
def test_translation_of_nested_swaps_matches_the_recursive_walk(p):
    assert translate_eu(p) == _reference_translation(p)


# ---------------------------------------------------------------------------
# Brute-force semantics

def test_distinct_constants_unequal():
    p = EUProblem(("c0", "c1"), (), (), (EUEq(Vertex("c0"), Vertex("c1")),))
    assert not eu_brute_sat(p)
    p2 = EUProblem(("c0", "c1"), (), (), (EUFresh(Vertex("c0"), Vertex("c1")),))
    assert eu_brute_sat(p2)


def test_variable_can_match_constant():
    p = EUProblem(("c0",), ("A",), (), (EUEq(Vertex("A"), Vertex("c0")),))
    assert eu_brute_sat(p)


def test_swap_semantics():
    # (A B)·A = B always holds
    p = EUProblem((), ("A", "B"), (),
                  (EUEq(Susp(PSwap(Vertex("A"), Vertex("B")), Vertex("A")),
                        Vertex("B")),))
    assert eu_brute_sat(p)
    # (A B)·A # B never holds
    p2 = EUProblem((), ("A", "B"), (),
                   (EUFresh(Susp(PSwap(Vertex("A"), Vertex("B")), Vertex("A")),
                            Vertex("B")),))
    assert not eu_brute_sat(p2)


def test_permutation_variables_are_injective():
    # Q A = Q B forces A = B, so adding A # B is unsatisfiable.
    p = EUProblem((), ("A", "B"), ("Q",),
                  (EUEq(ap("Q", "A"), ap("Q", "B")),
                   EUFresh(Vertex("A"), Vertex("B"))))
    assert not eu_brute_sat(p)


def test_pool_guard():
    p = EUProblem((), ("A",), (), (EUEq(Vertex("A"), Vertex("A")),))
    with pytest.raises(PoolTooLarge):
        eu_brute_sat(p, pool=100)


# `scripts/search_families.py eu 5 --seed 105 --count 30`, instance 23: its
# pool is the guard's 24 atoms, and its third constraint fails outright.
EARLY_CLASH = (
    "(eu (names c0 c1) (name-vars A0 A1 A2 A3 A4) (perm-vars Q0 Q1)"
    " (constraints"
    " (eq (app (swap A4 (app Q0 c0)) (app (swap (app Q0 A2) A0) (app Q1 A3)))"
    "     (app Q1 c1))"
    " (fresh (app Q0 c0) (app (swap (app Q1 c0) c1) (app Q0 c1)))"
    " (eq c0 c1)"
    " (eq (app Q0 c0) (app Q1 c1))"
    " (eq (app (swap (app Q0 A2) (app Q1 c0)) (app Q1 A3)) A3)))")


class _OutOfTime(Exception):
    pass


def test_brute_force_meets_an_outright_clash_first():
    # Checked in input order, every image choice of the first two
    # constraints comes before (eq c0 c1): minutes of work.
    def stop(signum, frame):
        raise _OutOfTime

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        assert not eu_brute_sat(parse_eu(EARLY_CLASH))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Encoding correctness on random instances

def test_translation_preserves_satisfiability():
    rng = random.Random(51)
    for _ in range(60):
        p = random_eu_problem(rng)
        expected = eu_brute_sat(p)
        got = decide(EU_SIGNATURE, translate_eu(p)).sat
        assert expected == got, p
