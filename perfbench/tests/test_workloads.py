import importlib
import json
import os

import pytest

from npnas import cli, decider
from npnas.foreduce import fo_sat
from npnas.oracle import brute_sat, small_signature
from npnas.schematic import (Fresh, Problem, atree_size, check_problem,
                             satisfies_all)

import layers
import workloads

SIG = small_signature()


@pytest.mark.parametrize("family, depth, seed", list(workloads.np_deep_plan()))
def test_np_deep_items_are_what_they_claim(family, depth, seed):
    p, planted = workloads.deep_problem(family, depth, seed)
    check_problem(SIG, p)
    assert fo_sat(SIG, p) == (family != "collapse")
    if family == "sat":
        assert satisfies_all(planted, p)


# Shapes whose valuation space stays under brute_sat's guard.
SMALL_SHAPES = [(1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (2, 7)]


@pytest.mark.parametrize("depth, k", SMALL_SHAPES)
def test_brute_force_confirms_planted_answers_at_small_depths(depth, k):
    seed = f"test/{depth}/{k}"
    sat, planted = workloads.deep_problem("sat", depth, seed)
    size = atree_size(planted["x"])   # large enough to reach the witness
    assert brute_sat(SIG, sat, max_size=size, pool=3).sat
    buried, _ = workloads.deep_problem("buried", depth, seed)
    assert not brute_sat(SIG, buried, max_size=size, pool=3).sat
    # Without its (fresh f0 f1) the buried problem is the sat one.
    rest = tuple(c for c in buried.constraints if not isinstance(c, Fresh))
    assert Problem(buried.env, rest) == sat


def test_np_deep_text_parses_back_to_the_problem():
    items = workloads.np_deep()
    for item, (family, depth, seed) in zip(items, workloads.np_deep_plan()):
        assert cli.parse_problem(item.text)[1] == \
            workloads.deep_problem(family, depth, seed)[0]
        assert item.expect == (family == "sat")


def test_seed_only_rotates_the_draw():
    a = workloads.build("eu-stream", 1)
    b = workloads.build("eu-stream", 2)
    assert a == workloads.build("eu-stream", 1) and a != b
    k = b.index(a[0])
    assert b[k:] + b[:k] == a


def test_benchmark_json_lists_the_metrics_the_worker_reports():
    path = os.path.join(os.path.dirname(workloads.__file__), "..",
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert list(layers.Tracer().metrics(0.0)) == \
        [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "solve_ms_p50", "solve_ms_tail", "nodes",
        "peak_rss_mb"}


SWAP_PAIR = """(signature (name-sort A))
(vars (x (name A)) (y (name A)))
(constraints (eq (abs x y) (abs y x)))"""


def test_tracer_reports_a_missing_layer_and_times_the_rest(monkeypatch):
    for _, module, attr in layers.LAYERS:
        module = importlib.import_module(f"npnas.{module}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (
        ("gone", "decider", "no_such_function"),))
    tracer = layers.Tracer()
    tracer.install()
    sig, p = cli.parse_problem(SWAP_PAIR)
    r = decider.decide(sig, p)
    m = tracer.metrics(0.0)
    assert tracer.missing == ["decider.no_such_function"]
    assert m["rewrite.has_clash_calls"] > 0 and m["decider.decide_ms"] > 0
    assert m["decider.normal_forms"] == r.normal_forms
    assert m["rewrite.expand_calls"] == r.nodes
    assert 0 <= m["decider.self_ms"] <= m["decider.decide_ms"]
