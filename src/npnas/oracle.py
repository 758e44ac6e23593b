"""Reference semantics and random problem generators.

The brute-force oracle enumerates candidate alpha-trees for every variable up to a
size bound, with free names drawn from a fixed pool, and tests every
valuation.  A positive answer is always trustworthy.  A negative answer is
only a proof of unsatisfiability when the bounds are known to cover the
whole search space, which the oracle certifies for problems whose
variable types are finite (no recursive data sorts involved).

`relation_sat` decides by the paper's own rewrite relation instead, with
none of the decider's search shortcuts, as a cross-check on them.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import SearchSpaceTooLarge
from .foreduce import fo_sat
from .kernel import (
    AAbs,
    AApp,
    ABound,
    ATuple,
    AUnit,
    AbsT,
    AlphaTree,
    DataSortT,
    Name,
    NameSortT,
    Signature,
    TupleT,
    Type,
    UNIT_T,
    UnitT,
)
from .schematic import (
    Constraint,
    Eq,
    Fresh,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUNIT,
    Term,
    Valuation,
    Var,
    atree_size,
    satisfies_all,
)
from .rewrite import has_clash, statuses, successors
from . import eubridge

# ---------------------------------------------------------------------------
# Alpha-tree enumeration

def enumerate_atrees(sig: Signature, ty: Type, max_size: int,
                     pool: int) -> list[AlphaTree]:
    """All canonical alpha-trees of type ty with size at most max_size and
    free names among the first `pool` names of each sort."""

    def enum(t: Type, budget: int, ctx: tuple[str, ...]):
        if budget <= 0:
            return
        if isinstance(t, NameSortT):
            for i in range(pool):
                yield Name(t.sort, i)
            for depth, s in enumerate(reversed(ctx)):
                if s == t.sort:
                    yield ABound(depth)
        elif isinstance(t, UnitT):
            yield AUnit()
        elif isinstance(t, AbsT):
            for body in enum(t.body, budget - 2, ctx + (t.binder,)):
                yield AAbs(t.binder, body)
        elif isinstance(t, TupleT):
            for items in _enum_tuple(t.items, budget - 1, ctx):
                yield ATuple(items)
        else:
            for con in sorted(sig.constructors):
                arg, res = sig.constructors[con]
                if res != t.sort:
                    continue
                for a in enum(arg, budget - 1, ctx):
                    yield AApp(con, a)

    def _enum_tuple(items, budget: int, ctx):
        if not items:
            if budget >= 0:
                yield ()
            return
        head, rest = items[0], items[1:]
        # Leave at least one size unit for each remaining component.
        for h in enum(head, budget - len(rest), ctx):
            hsize = atree_size(AlphaTree(h))
            for tail in _enum_tuple(rest, budget - hsize, ctx):
                yield (h,) + tail

    return [AlphaTree(node) for node in enum(ty, max_size, ())]


# ---------------------------------------------------------------------------
# Exactness certificates

def _data_deps(sig: Signature) -> dict[str, set[str]]:
    deps: dict[str, set[str]] = {d: set() for d in sig.data_sorts}
    for con, (_, res) in sig.constructors.items():
        deps[res] |= sig.arg_sorts[con][1]
    return deps


def finite_sorts(sig: Signature) -> frozenset[str]:
    """Data sorts with finitely many alpha-trees over any fixed name pool:
    those not reachable from themselves through constructor arguments."""
    deps = _data_deps(sig)
    reach: dict[str, set[str]] = {}
    for d in deps:
        seen: set[str] = set()
        frontier = set(deps[d])
        while frontier:
            s = frontier.pop()
            if s in seen:
                continue
            seen.add(s)
            frontier |= deps.get(s, set())
        reach[d] = seen
    cyclic = {d for d in deps if d in reach[d]}
    # A sort is also infinite if it reaches a cyclic sort.
    return frozenset(d for d in deps
                     if d not in cyclic and not (reach[d] & cyclic))


def type_bounds(sig: Signature, ty: Type) -> tuple[int, int] | None:
    """(max tree size, max name-leaf count) over all trees of a finite
    type, or None when the type has unboundedly large trees."""
    fin = finite_sorts(sig)

    def go(t: Type) -> tuple[int, int] | None:
        if isinstance(t, (NameSortT,)):
            return 1, 1
        if isinstance(t, UnitT):
            return 1, 0
        if isinstance(t, AbsT):
            b = go(t.body)
            return None if b is None else (2 + b[0], b[1])
        if isinstance(t, TupleT):
            size, leaves = 1, 0
            for item in t.items:
                b = go(item)
                if b is None:
                    return None
                size += b[0]
                leaves += b[1]
            return size, leaves
        if t.sort not in fin:
            return None
        size, leaves = 0, 0
        for con, (arg, res) in sig.constructors.items():
            if res != t.sort:
                continue
            b = go(arg)
            assert b is not None
            size = max(size, 1 + b[0])
            leaves = max(leaves, b[1])
        return size, leaves

    return go(ty)


# ---------------------------------------------------------------------------
# The oracle

@dataclass(frozen=True)
class OracleResult:
    sat: bool
    exact: bool                  # the verdict covers all valuations
    witness: Valuation | None = None
    checked: int = 0


def brute_sat(sig: Signature, p: Problem, max_size: int = 5, pool: int = 3,
              guard: int = 2_000_000) -> OracleResult:
    candidates = {}
    space = 1
    for x, ty in p.env.items():
        candidates[x] = enumerate_atrees(sig, ty, max_size, pool)
        space *= len(candidates[x])
        if space > guard:
            raise SearchSpaceTooLarge(
                f"more than {guard} candidate valuations")

    names = sorted(p.env)
    checked = 0
    for values in itertools.product(*(candidates[x] for x in names)):
        V = dict(zip(names, values))
        checked += 1
        if satisfies_all(V, p):
            return OracleResult(sat=True, exact=True, witness=V,
                                checked=checked)

    bounds = [type_bounds(sig, ty) for ty in p.env.values()]
    exact = (None not in bounds
             and max_size >= max((b[0] for b in bounds), default=0)
             and pool >= sum(b[1] for b in bounds))
    return OracleResult(sat=False, exact=exact, checked=checked)


def relation_sat(sig: Signature, p: Problem,
                 budget: int = 20_000) -> bool | None:
    """Whether p is satisfiable, by a depth-first search over
    `rewrite.successors`, in their order, once the first-order collapse
    succeeds: a state with a clash is a dead end, and one whose constraints
    are all solved answers sat.  None when more than `budget` states need
    successors."""
    if not fo_sat(sig, p):
        return False
    stack = [p]
    while stack:
        q = stack.pop()
        if has_clash(q):
            continue
        if None not in statuses(q):
            return True
        budget -= 1
        if budget < 0:
            return None
        stack.extend(reversed(successors(sig, q)))
    return False


# ---------------------------------------------------------------------------
# Random generators

def small_signature() -> Signature:
    """One name sort and one recursive data sort, rich enough to exercise
    every rule."""
    from .kernel import make_signature

    nat_like = {
        "Z": (UNIT_T, "tm"),
        "V": (NameSortT("nm"), "tm"),
        "L": (AbsT("nm", DataSortT("tm")), "tm"),
        "P": (TupleT((DataSortT("tm"), DataSortT("tm"))), "tm"),
    }
    return make_signature(["nm"], ["tm"], nat_like)


def random_type(rng: random.Random, depth: int = 2) -> Type:
    opts = ["name", "data", "unit"]
    if depth > 0:
        opts += ["abs", "pair"]
    match rng.choice(opts):
        case "name":
            return NameSortT("nm")
        case "data":
            return DataSortT("tm")
        case "unit":
            return UNIT_T
        case "abs":
            return AbsT("nm", random_type(rng, depth - 1))
        case _:
            return TupleT((random_type(rng, depth - 1),
                           random_type(rng, depth - 1)))


def random_term(rng: random.Random, sig: Signature, env: dict[str, Type],
                ty: Type, depth: int = 3) -> Term:
    """A random well-typed term over env, preferring variables when the
    depth budget runs out."""
    matching = [x for x, t in env.items() if t == ty]
    if matching and (depth <= 0 or rng.random() < 0.4):
        return Var(rng.choice(matching))
    if isinstance(ty, NameSortT):
        if matching:
            return Var(rng.choice(matching))
        raise ValueError("no variable of the required name sort")
    if isinstance(ty, UnitT):
        return SUNIT
    if isinstance(ty, AbsT):
        binders = [x for x, t in env.items()
                   if t == NameSortT(ty.binder)]
        if not binders:
            raise ValueError("no binder variable available")
        return SAbs(rng.choice(binders),
                    random_term(rng, sig, env, ty.body, depth - 1))
    if isinstance(ty, TupleT):
        return STuple(tuple(random_term(rng, sig, env, item, depth - 1)
                            for item in ty.items))
    cons = [con for con, (arg, res) in sig.constructors.items()
            if res == ty.sort]
    if depth <= 0:
        cons = [c for c in cons if c == "Z"] or cons
    con = rng.choice(sorted(cons))
    return SApp(con, random_term(rng, sig, env, sig.arg_type(con), depth - 1))


def random_problem(rng: random.Random, max_vars: int = 4,
                   max_constraints: int = 3) -> tuple[Signature, Problem]:
    sig = small_signature()
    n_names = rng.randint(1, max(1, max_vars - 1))
    n_data = rng.randint(0, max_vars - n_names)
    env: dict[str, Type] = {}
    for i in range(n_names):
        env[f"a{i}"] = NameSortT("nm")
    for i in range(n_data):
        env[f"x{i}"] = rng.choice(
            [DataSortT("tm"), AbsT("nm", DataSortT("tm")),
             AbsT("nm", NameSortT("nm"))])
    cs: list[Constraint] = []
    for _ in range(rng.randint(1, max_constraints)):
        if rng.random() < 0.4:
            subject = f"a{rng.randrange(n_names)}"
            ty = random_type(rng, 1)
            try:
                cs.append(Fresh(subject, random_term(rng, sig, env, ty)))
            except ValueError:
                cs.append(Fresh(subject, Var(subject)))
        else:
            ty = random_type(rng, 1)
            try:
                lhs = random_term(rng, sig, env, ty)
                rhs = random_term(rng, sig, env, ty)
            except ValueError:
                lhs = Var(f"a{rng.randrange(n_names)}")
                rhs = Var(f"a{rng.randrange(n_names)}")
            cs.append(Eq(lhs, rhs))
    return sig, Problem(env, tuple(cs))


def random_eu_problem(rng: random.Random) -> eubridge.EUProblem:
    """Small equivariant unification instances: at most 2 constants,
    3 name variables, 2 permutation variables, 3 constraints, and one
    level of swap nesting."""
    names = tuple(f"c{i}" for i in range(rng.randint(0, 2)))
    name_vars = tuple(f"A{i}" for i in range(rng.randint(1, 3)))
    perm_vars = tuple(f"Q{i}" for i in range(rng.randint(0, 2)))

    def vertex():
        return eubridge.Vertex(rng.choice(names + name_vars))

    def simple_nt():
        if perm_vars and rng.random() < 0.5:
            return eubridge.Susp(eubridge.PVar(rng.choice(perm_vars)), vertex())
        if rng.random() < 0.2:
            return eubridge.Susp(eubridge.PIdent(), vertex())
        return vertex()

    def nt(allow_swap=True):
        if allow_swap and rng.random() < 0.35:
            return eubridge.Susp(
                eubridge.PSwap(simple_nt(), simple_nt()), nt(False))
        return simple_nt()

    cs = []
    for _ in range(rng.randint(1, 3)):
        ctor = eubridge.EUEq if rng.random() < 0.6 else eubridge.EUFresh
        cs.append(ctor(nt(), nt()))
    return eubridge.EUProblem(names, name_vars, perm_vars, tuple(cs))
