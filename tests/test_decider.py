import gc
import importlib.util
import itertools
import random
import sys
import weakref
from pathlib import Path

import pytest

from npnas import decider, foreduce, kernel, oracle, rewrite, schematic
from npnas.cli import parse_eu, parse_problem
from npnas.decider import SolveOptions, decide, extract_witness
from npnas.errors import (
    BudgetExhausted, IllFormedProblem, NotSolved)
from npnas.eubridge import EU_SIGNATURE, translate_eu
from npnas.kernel import UNIT_T, AlphaTree, DataSortT, Name, NameSortT, make_signature
from npnas.oracle import (
    brute_sat, random_eu_problem, random_problem, relation_sat)
from npnas.rewrite import (
    SOLVED_ASSIGN, expand, statuses)
from npnas.schematic import (
    Eq, Fresh, Problem, SAbs, SApp, STuple, SUNIT, Var, satisfies_all)

from termination_ref import fo_solution, measure, measure_less

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


def test_strategies_agree(sig):
    # The decider's search and a plain search of the paper's relation.
    rng = random.Random(41)
    for _ in range(60):
        _, p = random_problem(rng)
        assert decide(sig, p).sat == relation_sat(sig, p), p


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
    for p in (Problem({"x": TM}, (Eq(Var("x"), Var("x")),)),
              Problem({"a": NM}, (Fresh("a", Var("a")),))):
        with pytest.raises(NotSolved):
            extract_witness(sig, p)


def test_search_rejects_a_witness_that_fails(sig, monkeypatch):
    # The re-check must not be an assert, which `python -O` strips.
    p = Problem({"a": NM, "b": NM}, (Fresh("a", Var("b")),))
    same = AlphaTree(Name("nm", 0))
    monkeypatch.setattr(decider, "extract_witness",
                        lambda sig, q, store: {"a": same, "b": same})
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


def test_extract_witness_fills_the_store_in_reverse(sig):
    # The first pair's t mentions the second pair's x, so x is computed
    # after y; the solved problem itself is empty.
    env = {"a": NM, "x": TM, "y": TM}
    t_x = SApp("L", SAbs("a", Var("y")))
    t_y = SApp("V", Var("a"))
    V = extract_witness(sig, Problem(env, ()), (("x", t_x), ("y", t_y)))
    assert satisfies_all(V, Problem(env, (Eq(Var("x"), t_x),
                                          Eq(Var("y"), t_y))))


def test_deep_sat_search_never_realizes(sig, monkeypatch):
    # Values are built in nameless form; realize only prints them.
    def refuse(*args):
        raise AssertionError("realize called while deciding")

    for module in (kernel, schematic, decider, rewrite, foreduce, oracle):
        if hasattr(module, "realize"):
            monkeypatch.setattr(module, "realize", refuse)
    t = SApp("V", Var("f"))
    for i in range(60):
        t = (SApp("L", SAbs(f"c{i % 3}", t)) if i % 2
             else SApp("P", STuple((t, Var("y")))))
    env = {"a": NM, "b": NM, "f": NM, "c0": NM, "c1": NM, "c2": NM,
           "x": TM, "y": TM}
    p = Problem(env, (Eq(SAbs("a", Var("x")), SAbs("b", t)),))
    r = decide(sig, p)
    assert r.sat and satisfies_all(r.witness, p)
    # x's value holds the 60 levels and the core (con V f).
    assert _constructor_depth(r.witness["x"].node) == 61


def _constructor_depth(node):
    """The most constructor applications on one path down an alpha-tree
    node."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, kernel.AApp):
            depth += 1
            stack.append((node.arg, depth))
        elif isinstance(node, kernel.ATuple):
            stack.extend((item, depth) for item in node.items)
        elif isinstance(node, kernel.AAbs):
            stack.append((node.body, depth))
        deepest = max(deepest, depth)
    return deepest


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
    # The search caches nothing beyond a call: once the caller drops the
    # problem and the result, nothing else holds its constraints.
    c = Eq(Var("x"), SApp("V", Var("a")))
    p = Problem({"a": NM, "b": NM, "x": TM}, (c, Fresh("a", Var("b"))))
    ref = weakref.ref(c)
    r = decide(sig, p)
    assert r.sat
    del c, p, r
    gc.collect()
    assert ref() is None


def _deep_term(depth):
    """`depth` constructor levels, alternating L over an abstraction and P
    over a pair, around the name b."""
    t = SApp("V", Var("b"))
    for i in range(depth):
        t = (SApp("L", SAbs("b", t)) if i % 2 == 0
             else SApp("P", STuple((t, SApp("Z", SUNIT)))))
    return t


def test_solved_equations_leave_the_search_state(sig, monkeypatch):
    # Each `<a>x_i = <b>(con L (abs c x_i+1))` narrows x_i, and narrowing
    # keeps `eq x_i skeleton`, solved at once; it moves to the store
    # instead of being substituted into again at every later step.  The
    # leaf it leaves narrows again once x_i+1 is narrowed.
    n = 20
    env = {"a": NM, "b": NM, "c": NM}
    env.update((f"x{i}", TM) for i in range(n + 1))
    p = Problem(env, tuple(
        Eq(SAbs("a", Var(f"x{i}")),
           SAbs("b", SApp("L", SAbs("c", Var(f"x{i + 1}")))))
        for i in range(n)))
    expanded = []
    moves = []
    branches, settle = decider._branches, decider._settle

    def record(s, q, i):
        expanded.append(q)
        return branches(s, q, i)

    def record_moves(*args):
        out = settle(*args)
        moves.append(len(out[1]))
        return out

    monkeypatch.setattr(decider, "_branches", record)
    monkeypatch.setattr(decider, "_settle", record_moves)
    r = decide(sig, p)
    assert r.sat and satisfies_all(r.witness, p)
    assert len(expanded) > 100 and sum(map(bool, moves)) > 100
    for q in expanded:
        assert SOLVED_ASSIGN not in statuses(q), q
    assert max(len(q.constraints) for q in expanded) <= n


def test_a_swap_chain_keeps_no_repeated_freshness(monkeypatch):
    # The branch tried first keeps each gadget's name apart from its
    # binders and leaves two `fresh` constraints, which every later `eq x y`
    # of the chain rewrites into copies of the same ones.  With the repeats
    # kept, the largest state expanded here held 241 constraints.
    nt = "B"
    for _ in range(60):
        nt = f"(app (swap A c) {nt})"
    p = translate_eu(parse_eu(
        f"(eu (names c) (name-vars A B) (perm-vars) (constraints (eq B {nt})))"))
    expanded = []
    branches = decider._branches

    def record(s, q, i):
        expanded.append(q)
        return branches(s, q, i)

    monkeypatch.setattr(decider, "_branches", record)
    r = decide(EU_SIGNATURE, p)
    assert r.sat and r.nodes == 121
    for q in expanded:
        fresh = [c for c, s in zip(q.constraints, statuses(q))
                 if s == rewrite.SOLVED_FRESH]
        assert len(fresh) == len(set(fresh)), q
    assert max(len(q.constraints) for q in expanded) <= len(p.constraints) + 3


# ---------------------------------------------------------------------------
# Search shortcuts

def _reducible(q):
    return tuple(i for i, s in enumerate(statuses(q)) if s is None)


def _search_states(sig, p, limit=40):
    """Up to `limit` problems reachable from p, breadth first."""
    states, frontier = [], [p]
    while frontier and len(states) < limit:
        q = frontier.pop(0)
        states.append(q)
        frontier.extend(k for i in _reducible(q) for k in expand(sig, q, i))
    return states


def _sampled_states():
    rng = random.Random(44)
    for _ in range(60):
        sig, p = random_problem(rng)
        yield from ((sig, q) for q in _search_states(sig, p))
    rng = random.Random(45)
    for _ in range(20):
        p = translate_eu(random_eu_problem(rng))
        yield from ((EU_SIGNATURE, q) for q in _search_states(EU_SIGNATURE, p))


def test_committed_orientation_is_one_of_expands_branches(sig):
    env = {"x": TM, "y": TM, "z": TM}
    # `eq x x` is dropped, not substituted: x:=x would return the problem.
    for c in (Eq(Var("x"), Var("y")), Eq(Var("x"), Var("x"))):
        p = Problem(env, (c, Eq(Var("x"), Var("z")), Eq(Var("y"), Var("z"))))
        (kid,) = decider._branches(sig, p, 0)
        assert kid in expand(sig, p, 0) and kid != p
    committed = 0
    for s, q in _sampled_states():
        for i in _reducible(q):
            c = q.constraints[i]
            if isinstance(c, Eq) and isinstance(c.lhs, Var) and isinstance(c.rhs, Var):
                (kid,) = decider._branches(s, q, i)
                assert kid in expand(s, q, i)
                committed += 1
    assert committed > 100


def test_single_branch_predicate_matches_the_branch_count():
    counts = {True: 0, False: 0}
    for s, q in _sampled_states():
        for i in _reducible(q):
            branching = len(decider._branches(s, q, i)) > 1
            assert decider._branching(q.env, q.constraints[i]) == branching, (q, i)
            counts[branching] += 1
    assert min(counts.values()) > 100, counts


def test_binders_of_another_sort_do_not_branch():
    nn = NameSortT("nn")
    two = make_signature(["nm", "nn"], ["tm"], {"Z": (UNIT_T, "tm")})
    env = {"a": NM, "b": nn, "c": nn, "x": NM, "y": NM}
    for c in (Fresh("a", SAbs("b", Var("x"))),
              Eq(SAbs("b", Var("x")), SAbs("c", Var("y")))):
        p = Problem(env, (c,))
        assert _reducible(p) == (0,)
        assert len(expand(two, p, 0)) == 1
        assert not decider._branching(env, c)


def test_committed_choice_shrinks_the_eu_search():
    # Seed 51's instance 21 needed 35,033 nodes while the search enumerated
    # both orientations of every name equation.
    rng = random.Random(51)
    p = [random_eu_problem(rng) for _ in range(22)][21]
    assert decide(EU_SIGNATURE, translate_eu(p), SolveOptions(budget=500)).sat


def _ex67():
    ex67 = Path(__file__).parent.parent / "problems" / "ex67.eu"
    return translate_eu(parse_eu(ex67.read_text()))


def test_ex67_focused_search_is_small():
    r = decide(EU_SIGNATURE, _ex67())
    assert not r.sat and r.nodes <= 20


# ---------------------------------------------------------------------------
# Backjumping

def _chronological(sig, p):
    """The focused search without backjumping or forward checking: every
    branch of every branching node is tried, last first, at the constraint
    the decider's own selection picks.  The solved name freshness that
    `_settle` sets aside goes back at the end of the state before it
    branches, so no pair is kept beside it.  Returns the verdict and the
    number of nodes expanded."""
    stack = [p]
    nodes = 0
    while stack:
        q = stack.pop()
        q, _, st, tags, pairs = decider._settle(
            q, (0,) * len(q.constraints), {})
        if st is None:
            continue
        idx = [i for i, s in enumerate(st) if s is None]
        if not idx:
            return True, nodes
        nodes += 1
        i, _ = decider._select(q, idx, pairs, tags, 0)
        q = Problem(q.env, q.constraints + tuple(
            Fresh(a, Var(b)) for a, b in pairs))
        stack.extend(decider._branches(sig, q, i))
    return False, nodes


def _instances():
    rng = random.Random(48)
    for _ in range(150):
        yield random_problem(rng)
    for _ in range(150):
        yield random_problem(rng, 6, 5)
    rng = random.Random(49)
    for _ in range(150):
        yield EU_SIGNATURE, translate_eu(random_eu_problem(rng))


def test_backjumping_prunes_the_chronological_search():
    fewer = 0
    for sig, p in _instances():
        if not foreduce.fo_sat(sig, p):
            continue
        sat, nodes = _chronological(sig, p)
        r = decide(sig, p)
        assert r.sat == sat and r.nodes <= nodes, p
        fewer += r.nodes < nodes
    assert fewer > 5


def test_focused_and_full_verdicts_agree():
    # The focused search against the paper's full relation, searched by
    # relation_sat without any of the shortcuts: not the committed
    # orientation, the order, the backjumping, the store, the dropped
    # repeats or the one step to the leaves.
    decided = 0
    for sig, p in _instances():
        expected = relation_sat(sig, p)
        if expected is None:
            continue
        assert decide(sig, p).sat == expected, p
        decided += 1
    assert decided >= 440


def test_a_refuted_branching_node_skips_the_siblings_above_it(sig):
    # Two branching freshness constraints come first, then pigeonhole 3 over
    # two binders, which fails whatever the first two chose.  Every one of
    # them starts with two live branches, so the first two are chosen first
    # and pigeonhole's first choice sits two levels deep.  Its failure
    # rests on no earlier choice, so the search stops there instead of
    # retrying it under the other three combinations (3 + 4 * 5 nodes).
    ph = _search_families().pigeonhole(3)
    env = {v: NM for v in "abc"} | ph.env
    p = Problem(env, (Fresh("a", SAbs("b", Var("c"))),
                      Fresh("b", SAbs("c", Var("a"))), *ph.constraints))
    alone = decide(sig, ph)
    assert not alone.sat and alone.nodes == 5
    r = decide(sig, p)
    assert not r.sat and r.nodes == 2 + alone.nodes
    assert _chronological(sig, p) == (False, 19)
    assert relation_sat(sig, p) is False


def _substitution(q, i, kid):
    """The (variable, term) that successor kid of q for constraint i
    substitutes in the rest, or None when the rule substitutes nothing."""
    c = q.constraints[i]
    if isinstance(c, Fresh):
        return None
    xs, bl, _, br = c.split
    if isinstance(bl, Var) and isinstance(br, Var):
        # Only `eq x y` without binders substitutes: x:=y, its committed
        # orientation.
        return None if xs or bl == br else (bl.name, br)
    if not isinstance(bl, Var) and not isinstance(br, Var):
        return None
    x, t = (bl, br) if isinstance(bl, Var) else (br, bl)
    if not xs:
        return x.name, t
    return x.name, kid.constraints[i].rhs  # narrowing keeps `eq x pattern`


def test_every_successor_replaces_one_constraint_by_a_block():
    # The search's tags rest on this alignment: a successor for constraint
    # i holds q's other constraints in order, each as it is or rewritten by
    # the rule's substitution, with i's block in between.
    kept = rewritten = 0
    for s, q in _sampled_states():
        n = len(q.constraints)
        for i in _reducible(q):
            for kid in decider._branches(s, q, i):
                m = len(kid.constraints) - n + 1
                assert m >= 0, (q, i)
                sub = _substitution(q, i, kid)
                olds = q.constraints[:i] + q.constraints[i + 1:]
                news = kid.constraints[:i] + kid.constraints[i + m:]
                for old, new in zip(olds, news):
                    if new is old:
                        kept += 1
                        continue
                    assert sub is not None and sub[0] in old.vars, (q, i)
                    assert new == schematic.subst_constraint(old, *sub)
                    rewritten += 1
    assert kept > 1000 and rewritten > 100, (kept, rewritten)


# ---------------------------------------------------------------------------
# Solved name freshness beside the state

def test_a_renamed_pair_that_becomes_self_freshness_is_a_dead_end(sig):
    # `fresh a b` leaves the state as a pair; `eq a b` is then solved and
    # goes to the store as a:=b, which takes the pair to the clash `fresh b
    # b`, whichever comes first.
    env = {"a": NM, "b": NM}
    for cs in ((Fresh("a", Var("b")), Eq(Var("a"), Var("b"))),
               (Eq(Var("a"), Var("b")), Fresh("a", Var("b")))):
        r = decide(sig, Problem(env, cs))
        assert not r.sat and r.nodes == 0 and r.normal_forms == 1


def test_a_name_held_only_by_pairs_goes_to_the_store(sig):
    # `eq a b` holds a and b, which the pairs hold too; they are not
    # occurrences, so the equation is solved without a substitution node,
    # and the pairs that hold a are rewritten a:=b.
    env = {v: NM for v in "abcd"} | {"x": TM, "y": TM}
    p = Problem(env, (Fresh("a", Var("c")), Fresh("b", Var("d")),
                      Eq(Var("a"), Var("b")), Eq(Var("x"), Var("y"))))
    r = decide(sig, p)
    assert r.sat and r.nodes == 0 and satisfies_all(r.witness, p)
    # A rewritten pair that becomes `fresh c c` ends the branch.
    p = Problem(env, (Fresh("a", Var("c")), Eq(Var("x"), Var("y")),
                      Eq(Var("a"), Var("c"))))
    r = decide(sig, p)
    assert not r.sat and r.reason == "exhausted-normal-forms"
    assert r.nodes == 0 and r.normal_forms == 1
    assert relation_sat(sig, p) is False


def test_a_pair_and_a_term_substitution_unsat(sig):
    # `fresh a0 a1` is set aside as a pair, and the single-branch step that
    # follows substitutes x1 by a term, not by a variable: only an `eq x y`
    # between name variables rewrites the pairs.
    env = {"a0": NM, "a1": NM, "x0": kernel.AbsT("nm", TM), "x1": TM}
    p = Problem(env, (Fresh("a1", Var("x1")),
                      Eq(Var("x1"), SApp("V", Var("a1"))),
                      Fresh("a0", Var("a1"))))
    r = decide(sig, p)
    assert not r.sat and r.reason == "exhausted-normal-forms"
    assert r.nodes == 2
    assert relation_sat(sig, p) is False


def test_a_pair_and_a_term_substitution_sat(sig):
    # As above, with x0 substituted by a term in a state that is sat.
    env = {"a0": NM, "a1": NM, "x0": TM}
    t = SApp("L", SAbs("a1", Var("x0")))
    p = Problem(env, (Eq(Var("x0"), SApp("L", SAbs("a0", SApp("Z", SUNIT)))),
                      Fresh("a0", Var("a1")),
                      Eq(t, t)))
    r = decide(sig, p)
    assert r.sat and r.nodes == 2 and satisfies_all(r.witness, p)
    res = brute_sat(sig, p)
    assert res.exact and res.sat


def _record_pairs(monkeypatch):
    """Record, at every state the search labels, the state, its labels, the
    pairs beside it and the path's store, as `_settle` leaves them."""
    seen = []
    stores = {}  # id(kid) -> (kid, the store of the state it came from)
    settle, branches = decider._settle, decider._branches

    def record(q, tags, pairs):
        out = settle(q, tags, pairs)
        store = stores.get(id(q), (q, ()))[1] + out[1]
        seen.append((out[0], out[2], out[4], store))
        return out

    def record_branches(s, q, i):
        kids = branches(s, q, i)
        for kid in kids:
            stores[id(kid)] = (kid, seen[-1][3])
        return kids

    monkeypatch.setattr(decider, "_settle", record)
    monkeypatch.setattr(decider, "_branches", record_branches)
    return seen


def test_pairs_are_not_occurrences(monkeypatch):
    # The labels are the state's own, without the pairs beside it; a pair
    # holds two name variables, and none that has gone to the store.
    seen = _record_pairs(monkeypatch)
    beside = 0
    for s, p in itertools.chain(_sampled_states(), _instances()):
        decide(s, p)
        for q, st, pairs, store in seen:
            if st is not None:
                assert st == statuses(q), q
            stored = {x for x, _ in store}
            for pair in pairs:
                assert all(isinstance(q.env[v], NameSortT) for v in pair)
                assert not stored & set(pair), (q, pairs, store)
            beside += bool(pairs)
        seen.clear()
    assert beside > 1000, beside


def test_every_sat_witness_satisfies_every_pair(monkeypatch):
    seen = _record_pairs(monkeypatch)
    witnesses = []
    extract = decider.extract_witness

    def record(sig, q, store=()):
        witnesses.append(extract(sig, q, store))
        return witnesses[-1]

    monkeypatch.setattr(decider, "extract_witness", record)
    checked = 0
    for s, p in _instances():
        if decide(s, p).sat:
            (V,) = witnesses
            # The solved state is the last one labelled.
            for a, b in seen[-1][2]:
                assert schematic.satisfies(V, Fresh(a, Var(b))), (p, a, b)
                checked += 1
        seen.clear()
        witnesses.clear()
    assert checked > 100, checked


# ---------------------------------------------------------------------------
# Forward checking

def _search_families():
    path = Path(__file__).parent.parent / "scripts" / "search_families.py"
    spec = importlib.util.spec_from_file_location("search_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_binder_choice_refuted_by_a_pair_is_not_built():
    # `fresh x y` is a pair before the swap pair branches, and both of the
    # swap pair's branches equate x and y, so the branching node fails at
    # once with two dead ends: 3 nodes without the check.
    path = Path(__file__).parent.parent / "problems" / "swap-pair-fresh.np"
    r = decide(*parse_problem(path.read_text()))
    assert not r.sat and r.nodes == 1 and r.normal_forms == 2


@pytest.mark.parametrize("n, nodes", [(3, 5), (4, 16), (5, 65)])
def test_pigeonhole_takes_fewer_nodes(n, nodes):
    # 20, 80 and 390 nodes without forward checking.
    families = _search_families()
    r = decide(families.NAME, families.pigeonhole(n))
    assert not r.sat and r.nodes == nodes


def test_a_binder_choice_refuted_by_its_own_block_is_not_built(sig):
    # `<x>y = <y>x`: the branch tried first keeps each body apart from its
    # binder, so its block holds `eq y x` beside `fresh y x` and `fresh x
    # y`; it is skipped (4 nodes without it).
    path = Path(__file__).parent.parent / "problems" / "swap-pair.np"
    r = decide(*parse_problem(path.read_text()))
    assert r.sat and r.nodes == 3
    # A buried deep instance binds c0..c2 again and again along its term;
    # the binder choices a repeated binder shadows are skipped (199 nodes
    # without it).
    families = _search_families()
    p, _ = families.deep_problem("buried", 200, "200/1")
    limit = sys.getrecursionlimit()
    r = families.run_in_big_stack(lambda: decide(sig, p))
    assert not r.sat and r.nodes == 12
    assert sys.getrecursionlimit() == limit


def _per_block_conflict(block, pairs, base):
    """The forward check read off one block: the smallest `tag | base` of a
    `fresh a b` or `fresh b a` that an `eq a b` between variables of the
    block contradicts, with the block's own freshness at tag 0 and the
    pairs at theirs; None when there is none or the block holds a clash."""
    if any(c.clash for c in block):
        return None
    own = {(c.var, c.target.name) for c in block
           if isinstance(c, Fresh) and isinstance(c.target, Var)}
    conflict = None
    for c in block:
        if isinstance(c, Eq) and isinstance(c.lhs, Var) \
                and isinstance(c.rhs, Var):
            a, b = c.lhs.name, c.rhs.name
            for ab in ((a, b), (b, a)):
                t = 0 if ab in own else pairs.get(ab)
                if t is not None and (conflict is None or t | base < conflict):
                    conflict = t | base
    return conflict


def test_every_skipped_branch_is_unsat_with_its_pairs(monkeypatch):
    # At every branching node the conflicts the selection hands over equal
    # those read off each kid's block; a skipped kid with its pairs put
    # back as `fresh` constraints must be unsat.
    select = decider._select
    sig: list = []
    skipped = []
    alone = 0  # skips the block's own freshness explains without the pairs

    def record_select(q, idx, pairs, tags, level):
        nonlocal alone
        i, conflicts = select(q, idx, pairs, tags, level)
        if conflicts is None:
            return i, conflicts
        (s,) = sig
        kids = decider._branches(s, q, i)
        base = tags[i] | 1 << level
        assert len(conflicts) == len(kids) > 1, (q, i)
        for kid, conflict in zip(kids, conflicts):
            block = kid.constraints[i:i + len(kid.constraints)
                                    - len(q.constraints) + 1]
            assert conflict == _per_block_conflict(block, pairs, base), \
                (q, i, kid, pairs)
            if conflict is not None:
                alone += _per_block_conflict(block, {}, base) is not None
                skipped.append((s, Problem(kid.env, kid.constraints + tuple(
                    Fresh(a, Var(b)) for a, b in pairs))))
        return i, conflicts

    monkeypatch.setattr(decider, "_select", record_select)
    for s, p in _instances():
        sig[:] = [s]
        decide(s, p)
    monkeypatch.undo()
    assert alone > 30 and len(skipped) - alone > 150, (alone, len(skipped))
    for s, p in skipped:
        sat = relation_sat(s, p)
        if sat is None:
            res = brute_sat(s, p, pool=len(p.env))
            assert res.exact
            sat = res.sat
        assert sat is False, p


def _fail_first(sig, q, idx, pairs):
    """The constraint the search should expand, read off the kids'
    blocks: the first single-branch one of idx; otherwise the first
    branching one with at most one live branch (one whose block forward
    checking does not refute), or else the first with the fewest."""
    n = len(q.constraints)
    live = {}
    for i in idx:
        kids = decider._branches(sig, q, i)
        if len(kids) == 1:
            return i
        live[i] = sum(_per_block_conflict(
            kid.constraints[i:i + len(kid.constraints) - n + 1], pairs, 0)
            is None for kid in kids)
    fewest = min(live.values())
    return next(i for i in idx if live[i] <= max(fewest, 1))


def test_the_search_branches_where_the_fewest_branches_stay_live(monkeypatch):
    # At the search's own nodes, with their pairs, and at states that
    # `expand` reaches.
    select = decider._select
    nodes = []
    sig: list = []

    def record_select(q, idx, pairs, tags, level):
        out = select(q, idx, pairs, tags, level)
        nodes.append((*sig, q, idx, pairs, out[0]))
        return out

    monkeypatch.setattr(decider, "_select", record_select)
    for s, p in _instances():
        sig[:] = [s]
        decide(s, p)
    monkeypatch.undo()
    for s, q in _sampled_states():
        idx = list(_reducible(q))
        if idx:
            nodes.append((s, q, idx, {}, select(
                q, idx, {}, (0,) * len(q.constraints), 0)[0]))
    moved = 0  # branching nodes that skip the first reducible constraint
    for s, q, idx, pairs, i in nodes:
        assert i == _fail_first(s, q, idx, pairs), (q, idx, pairs)
        moved += i != idx[0] and decider._branching(q.env, q.constraints[i])
    assert len(nodes) > 2500 and moved > 60, (len(nodes), moved)


# ---------------------------------------------------------------------------
# Narrowing and decomposition to the leaves in one step

def _fused_rule(q, j, st):
    """'decompose', 'narrow' or 'fresh' when the search takes constraint j
    of q to its leaves in one step, else None; with the variable narrowed."""
    c = q.constraints[j]
    if st[j] is not None:
        return None, None
    if isinstance(c, Fresh):
        _, core = schematic.abs_prefix(c.target)
        return ("fresh" if not isinstance(core, Var) else None), None
    xs, bl, _, br = c.split
    if not isinstance(bl, Var) and not isinstance(br, Var):
        return "decompose", None
    if isinstance(bl, Var) != isinstance(br, Var) and xs:
        return "narrow", (bl if isinstance(bl, Var) else br).name
    return None, None


def _single_steps(sig, q, i):
    """q after `expand` applies to constraint i and then to its descendants,
    the block that stands for i, while one of them decomposes or narrows a
    variable these steps introduced.  Returns the problem and the variables
    introduced."""
    introduced = set()
    lo, hi, j = i, i + 1, i
    while j is not None:
        (kid,) = expand(sig, q, j)
        hi += len(kid.constraints) - len(q.constraints)
        introduced |= kid.env.keys() - q.env.keys()
        q = kid
        st = statuses(q)
        j = None
        for k in range(lo, hi):
            rule, x = _fused_rule(q, k, st)
            if rule in ("decompose", "fresh") or x in introduced:
                j = k
                break
    return q, introduced


def _scan(c):
    """c's tokens in prefix order, each with whether it is a variable: a
    tag per node, followed by its variable, constructor or arity."""
    if isinstance(c, Eq):
        yield "eq", False
        stack = [c.rhs, c.lhs]
    else:
        yield from (("fresh", False), (c.var, True))
        stack = [c.target]
    while stack:  # no recursion: the terms may be thousands of levels deep
        t = stack.pop()
        if isinstance(t, Var):
            yield from (("var", False), (t.name, True))
        elif isinstance(t, SApp):
            yield from (("con", False), (t.con, False))
            stack.append(t.arg)
        elif isinstance(t, STuple):
            yield from (("tuple", False), (len(t.items), False))
            stack.extend(reversed(t.items))
        elif isinstance(t, SAbs):
            yield from (("abs", False), (t.binder, True))
            stack.append(t.body)
        else:
            yield "unit", False


def _renamed(q, old):
    """q's constraints as one token sequence, each variable not in `old`
    renamed by its first occurrence, and the renamed variables' types in
    that order."""
    names = {}
    out = []
    for c in q.constraints:
        for tok, is_var in _scan(c):
            if is_var and tok not in old:
                tok = names.setdefault(tok, f"#{len(names)}")
            out.append(tok)
    return out, [q.env[x] for x in names]


def _np_deep_shaped(rng, depth, buried):
    """np-deep's shape: `<a>x = <b>T(f0)` and `<a>x = <b>T(f1)`, with T
    `depth` levels of (con L (abs cI .)) or (con P (tuple . leaf)), leaf
    (con Z unit) or y, in either order; buried adds `fresh f0 f1`."""
    ts = [SApp("V", Var("f0")), SApp("V", Var("f1"))]
    for _ in range(depth):
        if rng.random() < 0.5:
            c = f"c{rng.randrange(3)}"
            ts = [SApp("L", SAbs(c, t)) for t in ts]
        else:
            leaf = rng.choice((SApp("Z", SUNIT), Var("y")))
            left = rng.random() < 0.5
            ts = [SApp("P", STuple((t, leaf) if left else (leaf, t)))
                  for t in ts]
    env = {v: NM for v in ("a", "b", "f0", "f1", "c0", "c1", "c2")}
    env.update(x=TM, y=TM)
    cs = [Eq(SAbs("a", Var("x")), SAbs("b", t)) for t in ts]
    if buried:
        cs.append(Fresh("f0", Var("f1")))
    return Problem(env, tuple(cs))


def _deep_shaped_states():
    sig = oracle.small_signature()
    rng = random.Random(52)
    for depth in range(1, 7):
        for buried in (False, True):
            for _ in range(3):
                p = _np_deep_shaped(rng, depth, buried)
                yield from ((sig, q) for q in _search_states(sig, p))


def _fused_steps():
    """(sig, q, i, rule) for every constraint of the sampled and
    np-deep-shaped states that the search takes to its leaves in one
    step."""
    for s, q in itertools.chain(_sampled_states(), _deep_shaped_states()):
        st = statuses(q)
        for i in range(len(st)):
            rule, _ = _fused_rule(q, i, st)
            if rule is not None:
                yield s, q, i, rule


def test_one_step_to_the_leaves_composes_expands_steps():
    counts = {"decompose": 0, "narrow": 0, "fresh": 0, "chained": 0}
    for s, q, i, rule in _fused_steps():
        (fused,) = decider._branches(s, q, i)
        ref, introduced = _single_steps(s, q, i)
        # Each single narrowing keeps `eq v pattern`; the one step keeps
        # only the first variable's, and v occurs nowhere else.
        kept = tuple(c for c in ref.constraints
                     if not (isinstance(c, Eq) and isinstance(c.lhs, Var)
                             and c.lhs.name in introduced))
        assert (_renamed(fused, q.env)
                == _renamed(Problem(ref.env, kept), q.env)), (q, i)
        counts[rule] += 1
        counts["chained"] += len(fused.constraints) != len(
            expand(s, q, i)[0].constraints)
    assert min(counts.values()) > 100, counts


def test_one_step_to_the_leaves_decreases_the_measure():
    stepped = {"decompose": 0, "narrow": 0, "fresh": 0}
    for s, q, i, rule in _fused_steps():
        if not foreduce.fo_sat(s, q):
            continue
        (kid,) = decider._branches(s, q, i)
        assert foreduce.fo_sat(s, kid), (q, i)
        before = measure(s, q, fo_solution(s, q))
        after = measure(s, kid, fo_solution(s, kid))
        assert measure_less(after, before), (q, i)
        stepped[rule] += 1
    assert sum(stepped.values()) > 200 and stepped["fresh"] > 100, stepped


def test_a_deep_skeleton_is_built_without_recursion(sig):
    # 3,000 levels: 1,500 binders and the core's variable get fresh
    # variables, and the kept equation leaves one leaf, the core's.
    t = _deep_term(3000)
    p = Problem({"a": NM, "b": NM, "x": TM},
                (Eq(SAbs("a", Var("x")), SAbs("b", t)),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        (kid,) = decider._branches(sig, p, 0)
        keep, leaf = kid.constraints
        shape = [(v, "?" if v else tok) for tok, v in _scan(Eq(Var("x"), t))]
        assert [(v, "?" if v else tok) for tok, v in _scan(keep)] == shape
        names = [tok for tok, v in _scan(keep) if v][1:]
        assert len(set(names)) == len(names) == 1501
        assert all(kid.env[v] == NM and v not in p.env for v in names)
        xs, core = schematic.abs_prefix(leaf.lhs)
        ys, _ = schematic.abs_prefix(leaf.rhs)
        assert len(xs) == len(ys) == 1501 and isinstance(core, Var)
    finally:
        sys.setrecursionlimit(limit)


def test_a_deep_freshness_decomposes_without_recursion(sig):
    # 3,000 levels: the one leaf is the core's name under the 1,500
    # binders above it, and the units beside the pairs drop out.
    p = Problem({"a": NM, "b": NM}, (Fresh("a", _deep_term(3000)),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        (kid,) = decider._branches(sig, p, 0)
        (leaf,) = kid.constraints
        ys, core = schematic.abs_prefix(leaf.target)
        assert leaf.var == "a" and ys == ("b",) * 1500 and core == Var("b")
    finally:
        sys.setrecursionlimit(limit)


def test_a_deep_freshness_takes_the_same_nodes_at_every_depth(sig):
    # One step takes `fresh a T` to its leaf, whatever T's depth, and the
    # unrelated equations take the same steps beside it.
    def nodes(depth):
        env = {"a": NM, "b": NM}
        cs = [Fresh("a", _deep_term(depth))]
        for i in range(20):
            env[f"c{i}"] = env[f"e{i}"] = NM
            cs.append(Eq(SApp("V", Var(f"c{i}")), SApp("V", Var(f"e{i}"))))
        r = decide(sig, Problem(env, tuple(cs)))
        assert r.sat
        return r.nodes
    assert nodes(50) == nodes(100) == nodes(200)


# ---------------------------------------------------------------------------
# The benchmark's inputs

def _bench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file and only read."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclass
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_input_gets_a_checked_answer(monkeypatch):
    # Each item of the three workloads once, in process: the planted
    # verdict where there is one, and every sat witness re-checked.
    workloads = _bench_workloads(monkeypatch)
    solved = 0
    for build in (workloads.np_stream, workloads.eu_stream,
                  workloads.np_deep):
        for item in build():
            if item.eu:
                s, p = EU_SIGNATURE, translate_eu(parse_eu(item.text))
            else:
                s, p = parse_problem(item.text)
            r = decide(s, p)
            assert item.expect is None or r.sat == item.expect, item.label
            assert not r.sat or satisfies_all(r.witness, p), item.label
            solved += 1
    assert solved == 4340
