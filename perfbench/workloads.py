"""The benchmark's inputs: three fixed draws, rendered as problem-file text.

Each workload is a list of `Item`s built from the benchmark's own seeds, so
every run solves the same problems and `nodes` repeats exactly.  The run's
`--seed` only fixes the order in which the items are handed to the solver
(and, for `np-stream`, which items the brute-force oracle re-checks).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from npnas import cli
from npnas.kernel import (AlphaTree, DataSortT, GApp, GUNIT, Name, NameSortT,
                          canonicalize)
from npnas.oracle import random_eu_problem, random_problem, small_signature
from npnas.schematic import (Eq, Fresh, Problem, SAbs, SApp, STuple, SUNIT, Var,
                             instantiate)

# np-stream: a prefix of oracle.random_problem at its default parameters.
NP_STREAM_SEED = 1
NP_STREAM_COUNT = 4000

# eu-stream: a prefix of oracle.random_eu_problem, not filtered by solve time.
# It holds two heavy-tail instances (11,234 and 16,464 nodes).
EU_STREAM_SEED = 10
EU_STREAM_COUNT = 300

# np-deep: (family, depths) pairs; each depth is one problem.
NP_DEEP_SEED = 3
NP_DEEP_PLAN = (
    ("sat", tuple(range(10, 21)) * 2),
    ("buried", (10, 10, 11, 11, 12, 12)),
    ("collapse", tuple(range(10, 34, 2))),
)
NP_DEEP_BINDERS = 3     # binder variables c0..c2 reused along the deep term

ORDER_SEED = 0


@dataclass(frozen=True)
class Item:
    text: str
    eu: bool = False
    expect: bool | None = None     # verdict known by construction
    label: str = ""


def np_stream() -> list[Item]:
    rng = random.Random(NP_STREAM_SEED)
    return [Item(cli.format_problem(*random_problem(rng)), label=f"np{i}")
            for i in range(NP_STREAM_COUNT)]


def render_eu(p) -> str:
    """The `.eu` file text of an equivariant unification problem."""
    lines = [f"(eu (names {' '.join(p.names)})",
             f"    (name-vars {' '.join(p.name_vars)})",
             f"    (perm-vars {' '.join(p.perm_vars)})",
             "    (constraints"]
    lines.extend(f"      {c}" for c in p.constraints)
    return "\n".join(lines) + "))\n"


def eu_stream() -> list[Item]:
    rng = random.Random(EU_STREAM_SEED)
    return [Item(render_eu(random_eu_problem(rng)), eu=True, label=f"eu{i}")
            for i in range(EU_STREAM_COUNT)]


# ---------------------------------------------------------------------------
# np-deep: a variable under a binder against a term nested `depth` levels.

NM = NameSortT("nm")
TM = DataSortT("tm")


def _deep_shape(rng: random.Random, depth: int) -> list[tuple]:
    """Layers from the core outwards: ("L", binder) wraps the term in
    (con L (abs binder .)), ("P", leaf, left) pairs it with a small leaf."""
    shape = []
    for _ in range(depth):
        if rng.random() < 0.5:
            shape.append(("L", f"c{rng.randrange(NP_DEEP_BINDERS)}"))
        else:
            leaf = rng.choice((SApp("Z", SUNIT), Var("y")))
            shape.append(("P", leaf, rng.random() < 0.5))
    return shape


def _wrap(shape: list[tuple], core) -> object:
    t = core
    for layer in shape:
        if layer[0] == "L":
            t = SApp("L", SAbs(layer[1], t))
        else:
            pair = (t, layer[1]) if layer[2] else (layer[1], t)
            t = SApp("P", STuple(pair))
    return t


def deep_problem(family: str, depth: int, seed):
    """One np-deep problem and its planted valuation.

    Both equations read <a>x = <b>T with T nested `depth` levels and ending
    in (con V f0) and (con V f1) respectively:
    * sat: a = b, f0 = f1 and x = T is a solution (returned as `planted`);
    * buried: adds (fresh f0 f1).  Both equations force T(f0) = T(f1) under
      the same binders, so f0 and f1 would have to be equal: unsat, yet the
      first-order collapse (names erased) still unifies;
    * collapse: the second core is (con Z unit), a constructor clash the
      collapse refutes before any search.
    The unsat families come with no planted valuation (None).
    """
    shape = _deep_shape(random.Random(seed), depth)
    lhs = SAbs("a", Var("x"))
    t0 = _wrap(shape, SApp("V", Var("f0")))
    core1 = SApp("Z", SUNIT) if family == "collapse" else SApp("V", Var("f1"))
    cs = [Eq(lhs, SAbs("b", t0)), Eq(lhs, SAbs("b", _wrap(shape, core1)))]
    if family == "buried":
        cs.append(Fresh("f0", Var("f1")))
    env = {"a": NM, "b": NM, "f0": NM, "f1": NM, "x": TM}
    env.update((layer[1], NM) for layer in shape if layer[0] == "L")
    if any(layer[0] == "P" and layer[1] == Var("y") for layer in shape):
        env["y"] = TM
    p = Problem(env, tuple(cs))
    if family != "sat":
        return p, None
    planted = {"a": AlphaTree(Name("nm", 0)), "b": AlphaTree(Name("nm", 0)),
               "f0": AlphaTree(Name("nm", 1)), "f1": AlphaTree(Name("nm", 1))}
    for i in range(NP_DEEP_BINDERS):
        if f"c{i}" in env:
            planted[f"c{i}"] = AlphaTree(Name("nm", 2 + i))
    if "y" in env:
        planted["y"] = canonicalize(GApp("Z", GUNIT))
    planted["x"] = instantiate(planted, t0)
    return p, planted


def np_deep_plan():
    """(family, depth, shape seed) of every np-deep problem."""
    for family, depths in NP_DEEP_PLAN:
        for k, depth in enumerate(depths):
            yield family, depth, f"{NP_DEEP_SEED}/{family}/{k}"


def np_deep() -> list[Item]:
    sig = small_signature()
    items = []
    for family, depth, seed in np_deep_plan():
        p, _ = deep_problem(family, depth, seed)
        items.append(Item(cli.format_problem(sig, p), expect=family == "sat",
                          label=f"{seed}/d{depth}"))
    return items


BUILDERS = {"np-stream": np_stream, "eu-stream": eu_stream, "np-deep": np_deep}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items, shuffled once by the benchmark's own seed and
    then rotated by the run's seed.  Rounds repeat the list, so every seed
    gives each item the same predecessor (the solve after a heavy search
    pays for tearing down its memo tables) except for the very first."""
    items = BUILDERS[workload]()
    random.Random(ORDER_SEED).shuffle(items)
    k = random.Random(seed).randrange(len(items))
    return items[k:] + items[:k]
