import itertools
import random

from npnas import cli
from npnas.decider import decide
from npnas.eubridge import EU_SIGNATURE, eu_brute_sat, translate_eu
from npnas.oracle import random_eu_problem

import checks
import workloads


def eu_sat_by_evaluator(p) -> bool:
    """Brute force over explicit atoms, judged by checks.eu_holds alone.
    Vertices range over as many atoms as there are vertices (enough by
    equivariance); images may also take one fresh atom per application."""
    small = len(p.names) + len(p.name_vars)
    sites = sorted(checks.eu_sites(p))
    atoms = range(small + len(sites))
    for choice in itertools.product(range(small), repeat=len(p.name_vars)):
        vertex = dict(zip(p.names, range(len(p.names))))
        vertex.update(zip(p.name_vars, choice))
        for images in itertools.product(atoms, repeat=len(sites)):
            if checks.eu_holds(p, vertex, dict(zip(sites, images))):
                return True
    return False


def sample(seed=7, count=300, max_sites=3):
    rng = random.Random(seed)
    out = [random_eu_problem(rng) for _ in range(count)]
    return [p for p in out if len(checks.eu_sites(p)) <= max_sites]


def test_evaluator_agrees_with_eu_brute_sat():
    problems = sample()
    verdicts = [eu_brute_sat(p) for p in problems]
    assert len(problems) >= 150 and any(verdicts) and not all(verdicts)
    for p, want in zip(problems, verdicts):
        assert eu_sat_by_evaluator(p) == want, p


def test_solver_witnesses_pass_the_evaluator():
    for p in sample(seed=8, count=150):
        r = decide(EU_SIGNATURE, translate_eu(p))
        if r.sat:
            assert checks.eu_witness_holds(p, r.witness), p


def test_evaluator_rejects_a_non_injective_permutation():
    p = cli.parse_eu("(eu (name-vars A B) (perm-vars Q)"
                     " (constraints (fresh A B)))")
    assert checks.eu_holds(p, {"A": 0, "B": 1}, {})
    p = cli.parse_eu("(eu (name-vars A B) (perm-vars Q)"
                     " (constraints (fresh A B) (eq (app Q A) (app Q B))))")
    images = {("Q", "A"): 2, ("Q", "B"): 2}
    assert not checks.eu_holds(p, {"A": 0, "B": 1}, images)
    assert checks.eu_holds(p, {"A": 0, "B": 0}, images) is False  # fresh A B
    assert not eu_sat_by_evaluator(p) and not eu_brute_sat(p)


def test_evaluator_computes_swaps():
    p = cli.parse_eu("(eu (names a b) (name-vars X)"
                     " (constraints (eq (app (swap a b) a) X)))")
    assert checks.eu_holds(p, {"a": 0, "b": 1, "X": 1}, {})
    assert not checks.eu_holds(p, {"a": 0, "b": 1, "X": 0}, {})
    assert not checks.eu_holds(p, {"a": 0, "b": 0, "X": 0}, {})  # a != b


def test_eu_text_round_trips():
    rng = random.Random(workloads.EU_STREAM_SEED)
    for _ in range(200):
        p = random_eu_problem(rng)
        assert cli.parse_eu(workloads.render_eu(p)) == p
