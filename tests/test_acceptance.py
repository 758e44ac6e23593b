"""End-to-end acceptance checks.

Each test prints a single `criterion N: pass` line on success; a failure
shows up as the usual pytest failure for that criterion.
"""
import random
import time

from npnas.decider import decide
from npnas.eubridge import EU_SIGNATURE, eu_brute_sat, translate_eu
from npnas.foreduce import fo_sat
from npnas.kernel import NameSortT, Name, canonicalize, make_signature
from npnas.cli import parse_eu, parse_problem
from npnas.oracle import (
    brute_sat, random_eu_problem, random_problem, relation_sat)
from npnas.rewrite import successors
from npnas.schematic import (
    Eq,
    Fresh,
    Problem,
    SAbs,
    Var,
    satisfies,
    satisfies_all,
)

from conftest import random_gtree
from ground_ref import alpha_eq, perm_apply, swap, tree_size
from termination_ref import fo_solution, measure, measure_less


def report(n: int):
    print(f"criterion {n}: pass")


def test_criterion_1_swap_pair():
    sig = make_signature({"A"}, set(), {})
    env = {"x": NameSortT("A"), "y": NameSortT("A")}
    p = Problem(env, (Eq(SAbs("x", Var("y")), SAbs("y", Var("x"))),))

    t0 = time.perf_counter()
    r = decide(sig, p)
    assert time.perf_counter() - t0 < 0.1
    assert r.sat
    assert r.witness["x"] == r.witness["y"]
    assert satisfies_all(r.witness, p)

    p2 = Problem(env, p.constraints + (Fresh("x", Var("y")),))
    t0 = time.perf_counter()
    r2 = decide(sig, p2)
    assert time.perf_counter() - t0 < 0.1
    assert not r2.sat
    report(1)


def test_criterion_2_divergence_guard():
    text = open("problems/nat-divergence.np").read()
    sig, p = parse_problem(text)
    t0 = time.perf_counter()
    r = decide(sig, p)
    assert time.perf_counter() - t0 < 0.1
    assert not r.sat
    assert r.reason == "fo-reduction"
    assert r.nodes == 0
    report(2)


def test_criterion_3_translated_eu_example():
    ep = parse_eu(open("problems/ex67.eu").read())
    tp = translate_eu(ep)
    assert len(tp.constraints) == 5
    assert len(tp.env) == 7

    t0 = time.perf_counter()
    r = decide(EU_SIGNATURE, tp)
    # The paper's relation, searched without shortcuts, refutes it in 88
    # nodes.
    by_relation = relation_sat(EU_SIGNATURE, tp, budget=88)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert not r.sat and by_relation is False
    assert r.nodes > 0 and r.normal_forms > 0  # finite, reported
    report(3)


def test_criterion_4_encoding_correctness():
    rng = random.Random(104)
    t0 = time.perf_counter()
    for i in range(200):
        ep = random_eu_problem(rng)
        expected = eu_brute_sat(ep)
        got = decide(EU_SIGNATURE, translate_eu(ep)).sat
        assert expected == got, (i, ep)
    assert time.perf_counter() - t0 < 60
    report(4)


def test_criterion_5_solver_oracle_agreement():
    rng = random.Random(105)
    t0 = time.perf_counter()
    for i in range(200):
        sig, p = random_problem(rng)
        res = brute_sat(sig, p)
        r = decide(sig, p)
        if res.exact or res.sat:
            assert res.sat == r.sat, (i, p)
        if r.sat:
            assert satisfies_all(r.witness, p), (i, p)
    assert time.perf_counter() - t0 < 120
    report(5)


def test_criterion_6_per_step_soundness_completeness():
    rng = random.Random(106)
    done = 0
    while done < 500:
        sig, p = random_problem(rng)
        succ = successors(sig, p)
        if not succ:
            continue
        sat_p = decide(sig, p).sat
        sat_succ = any(decide(sig, q).sat for q in succ)
        assert sat_p == sat_succ, p
        done += 1
    report(6)


def test_criterion_7_measure_decrease():
    rng = random.Random(107)
    done = 0
    while done < 200:
        sig, p = random_problem(rng)
        if not fo_sat(sig, p):
            continue
        W = fo_solution(sig, p)
        before = measure(sig, p, W)
        stepped = False
        for q in successors(sig, p):
            if not fo_sat(sig, q):
                continue
            W2 = fo_solution(sig, q)
            assert measure_less(measure(sig, q, W2), before), (p, q)
            stepped = True
        if stepped:
            done += 1
    report(7)


def test_criterion_8_gadget_contracts():
    import itertools

    from npnas.eubridge import ATOM_SORT, bij_gadget, swap_gadget
    from npnas.kernel import AlphaTree

    def atom(i):
        return AlphaTree(Name(ATOM_SORT, i))

    swap_c = swap_gadget("x", "y", "u", "w")
    count = 0
    for x, y, u, w in itertools.product(range(3), repeat=4):
        V = {"x": atom(x), "y": atom(y), "u": atom(u), "w": atom(w)}
        expected_u = w if w not in (x, y) else (y if w == x else x)
        assert satisfies(V, swap_c) == (u == expected_u)
        count += 1
    assert count == 81

    bij_c = bij_gadget("x", "y", "x2", "y2")
    count = 0
    for x, y, x2, y2 in itertools.product(range(3), repeat=4):
        V = {"x": atom(x), "y": atom(y), "x2": atom(x2), "y2": atom(y2)}
        assert satisfies(V, bij_c) == ((x == y) == (x2 == y2))
        count += 1
    assert count == 81
    report(8)


def test_criterion_9_kernel_algebra():
    rng = random.Random(109)

    # equivalence relation + equivariance + canonical-form coincidence
    pairs = 0
    trees = [random_gtree(rng) for _ in range(60)]
    while pairs < 1000:
        g1 = rng.choice(trees) if rng.random() < 0.5 else random_gtree(rng)
        g2 = rng.choice(trees) if rng.random() < 0.7 else random_gtree(rng)
        e = alpha_eq(g1, g2)
        assert alpha_eq(g1, g1) and alpha_eq(g2, g2)          # reflexive
        assert e == alpha_eq(g2, g1)                          # symmetric
        g3 = rng.choice(trees)
        if e and alpha_eq(g2, g3):                            # transitive
            assert alpha_eq(g1, g3)
        pi = swap(Name("nm", rng.randrange(3)), Name("nm", rng.randrange(3)))
        assert e == alpha_eq(perm_apply(pi, g1), perm_apply(pi, g2))
        assert e == (canonicalize(g1) == canonicalize(g2))
        pairs += 1

    # size equations
    from npnas.kernel import GAbs, GApp, GTuple, GUnit, Name as KName

    def size_by_equations(g):
        if isinstance(g, (KName, GUnit)):
            return 1
        if isinstance(g, GTuple):
            return 1 + sum(size_by_equations(i) for i in g.items)
        if isinstance(g, GApp):
            return 1 + size_by_equations(g.arg)
        return 2 + size_by_equations(g.body)

    for _ in range(100):
        g = random_gtree(rng)
        assert tree_size(g) == size_by_equations(g)
    report(9)
