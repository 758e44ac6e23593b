"""The satisfiability decision procedure.

A problem is first collapsed to first-order unification; failure there is
already unsatisfiability.  Success guarantees the rewrite relation is
strongly normalising, so exhaustive search over successor sets terminates:
the problem is satisfiable iff some reachable terminal problem consists of
solved constraints only, and a solved problem yields a concrete witness.

The search departs from the paper's relation (`rewrite.expand`,
`successors`) in three ways.  The two shortcuts are sound because every
rule's branch set preserves satisfiability: one reducible constraint's
branches are a complete choice, and the search terminates under any
selection once the collapse succeeds.

- Committed orientation: of the two branches of `eq x y` (substitute x:=y or
  y:=x in the rest, keeping the equation), only the first is explored.  Each
  is equisatisfiable with the parent on its own, since it substitutes along
  an equation that stays in the problem.
- Single-branch first: under the focused strategy the first reducible
  constraint whose rule has one branch is expanded before any that branches,
  as unit propagation comes before branching in DPLL.  Only a name compared
  with a binder prefix branches: freshness under binders, or an equation of
  two prefixed variables.
- No memo under focused: only the full strategy, which interleaves the
  rules of independent constraints, reaches one state by several paths and
  skips states already seen.  The focused search's old memo hits all came
  from the two orientations of `eq x y` meeting again.  Termination and
  completeness never rely on the memo, as the relation is strongly
  normalising and finitely branching.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExhausted, NotSolved
from .foreduce import fo_sat, occurrences
from .kernel import AlphaTree, Name, NameSortT, Signature, canonicalize, inhabitant
from .rewrite import (
    SOLVED_ABS_PAIR,
    SOLVED_ABS_SAME,
    SOLVED_ASSIGN,
    SOLVED_FORMS,
    _split_eq,
    _subst_rest,
    expand,
    has_clash,
    statuses,
)
from .schematic import (
    Constraint,
    Env,
    Eq,
    Fresh,
    Problem,
    SApp,
    STuple,
    SUnit,
    Valuation,
    Var,
    abs_prefix,
    check_problem,
    instantiate,
    memo_on_object,
    satisfies_all,
)


@dataclass(frozen=True)
class SolveOptions:
    strategy: str = "focused"     # "focused" or "full"
    budget: int | None = None     # max problems expanded


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    reason: str | None = None     # "fo-reduction" | "exhausted-normal-forms"
    witness: Valuation | None = None
    nodes: int = 0                # problems whose successors were computed
    normal_forms: int = 0         # terminal problems encountered


@memo_on_object
def _tokens(c: Constraint) -> tuple:
    """c's tokens in prefix order: a tag per node followed by its name or,
    for a tuple, its arity.  Each tag fixes how many tokens follow it, so
    distinct constraints never share a token sequence."""
    if isinstance(c, Eq):
        out: list = ["eq"]
        stack = [c.rhs, c.lhs]
    else:
        out = ["fresh", c.var]
        stack = [c.target]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out += ("var", t.name)
        elif isinstance(t, SApp):
            out += ("con", t.con)
            stack.append(t.arg)
        elif isinstance(t, STuple):
            out += ("tuple", len(t.items))
            stack.extend(reversed(t.items))
        elif isinstance(t, SUnit):
            out.append("unit")
        else:
            out += ("abs", t.binder)
            stack.append(t.body)
    return tuple(out)


def _canonical_key(p: Problem) -> tuple:
    """Key problems by their multiset of constraints, compared structurally,
    so that the full strategy explores converging branches once.

    Within one search the constraints pin down every type that matters
    (variables introduced by narrowing stay pinned by their pattern
    equations), so the environment needs no separate fingerprint.
    """
    return tuple(sorted(map(_tokens, p.constraints)))


def _branching(env: Env, c: Constraint) -> bool:
    """Whether the search gets more than one branch from reducible c: a name
    compared with a binder prefix branches on each binder of its sort."""
    if isinstance(c, Fresh):
        ys, core = abs_prefix(c.target)
        x = c.var
    else:
        ys, bl, _, core = _split_eq(c)
        if not isinstance(bl, Var):
            return False
        x = bl.name
    return isinstance(core, Var) and any(env[y] == env[x] for y in ys)


def _branches(sig: Signature, q: Problem, i: int) -> tuple[Problem, ...]:
    """The branches the search explores for reducible constraint i: all of
    `expand`'s, but only the first orientation of `eq x y` (x ≠ y: `expand`
    drops `eq x x`)."""
    c = q.constraints[i]
    if (isinstance(c, Eq) and isinstance(c.lhs, Var)
            and isinstance(c.rhs, Var) and c.lhs != c.rhs):
        return (_subst_rest(q, i, [c], c.lhs.name, c.rhs),)
    return expand(sig, q, i, verify=False)


def decide(sig: Signature, p: Problem,
           options: SolveOptions = SolveOptions()) -> SolveResult:
    check_problem(sig, p)
    if not fo_sat(sig, p):
        return SolveResult(sat=False, reason="fo-reduction")
    return _search(sig, p, options)


def _search(sig: Signature, p: Problem,
            options: SolveOptions) -> SolveResult:
    seen: set = set()
    stack = [p]
    nodes = 0
    dead_ends = 0
    while stack:
        q = stack.pop()
        if has_clash(q):
            # A clash constraint never goes away, so no descendant of q is
            # solved; count each encounter with such a branch as a dead end.
            dead_ends += 1
            continue
        if options.strategy == "full":
            k = _canonical_key(q)
            if k in seen:
                continue
            seen.add(k)
        st = statuses(sig, q)
        idx = [i for i, s in enumerate(st) if s is None]
        if not idx:
            V = extract_witness(sig, q)
            V = {x: V[x] for x in p.env}
            if not satisfies_all(V, p):
                raise NotSolved("witness fails the input problem")
            return SolveResult(sat=True, witness=V, nodes=nodes,
                               normal_forms=dead_ends + 1)
        nodes += 1
        if options.budget is not None and nodes > options.budget:
            raise BudgetExhausted(f"expanded more than {options.budget} problems")
        if options.strategy == "focused":
            i = next((i for i in idx if not _branching(q.env, q.constraints[i])),
                     idx[0])
            kids = _branches(sig, q, i)
        else:
            kids = tuple(r for i in idx for r in _branches(sig, q, i))
        stack.extend(reversed(kids))
    return SolveResult(sat=False, reason="exhausted-normal-forms",
                       nodes=nodes, normal_forms=dead_ends)


# ---------------------------------------------------------------------------
# Witness extraction from a solved problem

def extract_witness(sig: Signature, p: Problem) -> Valuation:
    """A valuation over dom(env) satisfying a solved problem.

    Plan: variables isolated on one side of an equation are computed last
    from the other side; every remaining name variable gets its own name
    from a small pool; variables equated under binder prefixes share a
    value whose free names lie above the pool, which also settles every
    freshness constraint.
    """
    labels = statuses(sig, p)
    if not all(s in SOLVED_FORMS for s in labels):
        raise NotSolved(f"not a solved problem: {p}")
    env = p.env
    occ = occurrences(p)

    # Isolated equation sides, to be back-filled at the end.
    eliminated: list[tuple[str, object]] = []
    elim_set: set[str] = set()
    for c, s in zip(p.constraints, labels):
        if s != SOLVED_ASSIGN:
            continue
        assert isinstance(c, Eq)
        if isinstance(c.lhs, Var) and occ[c.lhs.name] == 1:
            eliminated.append((c.lhs.name, c.rhs))
            elim_set.add(c.lhs.name)
        else:
            assert isinstance(c.rhs, Var) and occ[c.rhs.name] == 1
            eliminated.append((c.rhs.name, c.lhs))
            elim_set.add(c.rhs.name)

    # Group the body variables of prefixed variable-variable equations.
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, s in zip(p.constraints, labels):
        if s in (SOLVED_ABS_PAIR, SOLVED_ABS_SAME):
            assert isinstance(c, Eq)
            t = c.lhs
            while not isinstance(t, Var):
                t = t.body
            u = c.rhs
            while not isinstance(u, Var):
                u = u.body
            parent[find(t.name)] = find(u.name)

    V: dict[str, AlphaTree] = {}
    pool: dict[str, int] = {}
    start = len(env)  # free names of shared values stay above the pool
    class_value: dict[str, AlphaTree] = {}
    for x in sorted(env):
        if x in elim_set:
            continue
        ty = env[x]
        if isinstance(ty, NameSortT):
            i = pool.get(ty.sort, 0)
            pool[ty.sort] = i + 1
            V[x] = AlphaTree(Name(ty.sort, i))
        else:
            root = find(x)
            if root not in class_value:
                class_value[root] = canonicalize(inhabitant(sig, ty, start))
            V[x] = class_value[root]

    for x, t in eliminated:
        V[x] = instantiate(V, t)

    if not satisfies_all(V, p):
        raise NotSolved("extracted valuation fails the solved problem")
    return V
