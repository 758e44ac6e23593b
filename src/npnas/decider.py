"""The satisfiability decision procedure.

A problem is first collapsed to first-order unification; failure there is
already unsatisfiability.  Success guarantees the rewrite relation is
strongly normalising, so exhaustive search over successor sets terminates:
the problem is satisfiable iff some reachable terminal problem consists of
solved constraints only, and a solved problem yields a concrete witness.

The search departs from the paper's relation (`rewrite.expand`,
`successors`) in six ways.  Committed orientation and the selection rest
on the paper's result that every rule's branch set preserves
satisfiability: one reducible constraint's branches are a complete choice,
and the search terminates under any selection once the collapse succeeds.
The search keeps no memo of states seen: termination and completeness rest
on the relation being strongly normalising and finitely branching, not on
skipping a state reached twice.

- Committed orientation: of the two branches of `eq x y` (substitute x:=y or
  y:=x in the rest, keeping the equation), only the first is explored.  Each
  is equisatisfiable with the parent on its own, since it substitutes along
  an equation that stays in the problem.
- Selection, single-branch first and then fail-first: a reducible
  constraint whose rule has one branch goes before any that branches (only
  a name compared with a binder prefix branches: freshness under binders,
  or an equation of two prefixed variables).  Of those that branch, the
  one that forward checking (below) leaves the fewest live branches goes
  first, the first on a tie, and the scan stops at one with none, which
  fails the node at once: fail-first (Haralick and Elliott, AIJ 1980), with
  DPLL's unit rule as its one-live-branch case (Davis, Logemann and
  Loveland, CACM 1962).  Any selection is complete, since
  each reducible constraint's branches are a complete choice, and the tags
  and backjumping below read only the constraint chosen.
- Solved constraints set aside: each round labels the state once, takes
  three kinds of solved constraint out of it and the steps that substitute
  nothing in place, and labels again after a round that changed anything.
  - In place: a reducible `eq x x` is dropped, an equation whose sides have
    the same constructor, tuple or unit head goes to its leaves (unit pairs
    drop out and a constructor mismatch stays as a clash), and a freshness
    `fresh x t` whose core is not a variable goes to its leaves as the walk
    of `eq t t` does: every leaf is a variable v of t outside a binder
    position, under the binders above v, and becomes `fresh x <prefix>v`,
    in left-to-right order.  Each leaf takes the tag of the constraint it
    replaces, and a leaf that is a clash ends the branch with its tag.
    Each step is one of `expand`'s single-branch rules or a chain of them
    while they decompose: `a # <ys>K(t)` holds iff `a # <ys>t` does, a
    tuple's freshness is the conjunction of its items', and a unit's
    always holds.  Each is an equivalence and decreases the
    paper's termination measure, and it substitutes nothing, so the other
    constraints and their tags stay as they are and the leaves take the
    tag(i) | 0 that a single-branch node's block would (Martelli and
    Montanari apply such steps at once in the same way).
  - The store: every solved `eq x t` (x isolated) leaves the state as a
    pair (x, t).  x occurs nowhere else, rules substitute only variables
    that occur in the rest, and narrowing adds only fresh names, so x never
    returns: the state is equisatisfiable with what remains.  Each t
    mentions only variables still present or stored later, so the witness
    fills the store in reverse order.  This is the triangular form of a
    unifier (Martelli and Montanari, TOPLAS 1982).
  - The pairs beside the store: every solved `fresh a b` whose target b is
    a name variable leaves the state for a per-path dict of pairs (a, b),
    each with its tag; a pair already there keeps its tag.  No rule applies
    to a pair again, and its variables are not occurrences in the state.
    A name variable x leaves the state only through the store, and a name
    sort's only terms are variables, so x goes there as (x, y) with y a
    name variable.  Then the pairs that hold x are rewritten x:=y, each
    adding the equation's tag as a rewritten constraint does.  Each
    rewritten pair is equivalent to the one it replaces, since x = y, and
    no pair holds a variable of the store.  A rewritten pair stays solved
    or becomes the clash `fresh y y`, which ends the branch with its tag.
    So the state with its pairs is equisatisfiable with the state they
    were set aside from, and every tag still names levels its constraint
    rests on; the search reads the pairs again only when one of their
    variables leaves the state, as Chaff looks at a clause again only when
    one of its watched variables changes (Moskewicz et al., DAC 2001).
    The witness is checked against the pairs with the rest of the solved
    state.
  - No repeats: of several copies of a solved `fresh x y` only the first
    stays, with its tag: in the state when y is a data variable, and among
    the pairs when y is a name variable.  A conjunction holds with or
    without a repeat, a repeat labels nothing else differently, and either
    copy's tag justifies the one kept.  Without this, the branch tried
    first leaves each swap gadget of a chain two `fresh` constraints that
    every later `eq x y` rewrites into copies of the same ones, and every
    pending sibling keeps its own.  A solved `fresh x y` with y a data
    variable stays in place: narrowing y makes it reducible again, and its
    position decides the selection.
- Least commitment and backjumping: a branching node's successors are
  tried last first, so the branch that keeps the name apart from every
  binder goes first and the binder equalities follow in the reverse of
  `expand`'s order.  Every constraint carries a tag, the set of branching
  levels its derivation used: input constraints have none, the block that
  replaces constraint i takes i's tag plus the node's own level when the
  node branches, and a constraint that i's substitution rewrites adds i's
  tag to its own.  A dead end's conflict is the smallest tag among
  its clash constraints.  The search jumps back to the highest level in it
  and skips the untried siblings of every deeper level; a node whose
  branches all failed fails with the union of their conflicts minus its
  own level (Prosser, Comput. Intell. 1993).  This is sound: a constraint
  tagged S follows from the input and the choices at the levels in S, with
  narrowing's fresh variables read existentially.  A clash constraint has
  no solution, so the input with the choices in S is unsatisfiable, and
  every sibling below the highest level in S keeps those choices, so it
  fails too.  Backjumping only prunes the chronological search in this
  order, so it never expands more nodes than that search.
- Forward checking: a branch whose block holds `eq a b` between variables
  while the pairs or the block itself hold `fresh a b` or `fresh b a` is
  not pushed (Haralick and Elliott, AIJ 1980).  It counts as a dead end,
  its conflict joins the node's, and a node whose branches all go so fails
  at once.  The conflict is tag(i) | own when the block refutes itself, as
  when a repeated binder shadows the one chosen, and otherwise the
  smallest such pair tag | tag(i) | own.  This is sound: the branch, with
  the pair if one is read, entails `eq a b` and `fresh a b`, which no
  valuation meets; every constraint of the block rests on the levels in
  tag(i) | own, and the pair on those in its tag, so that set is a valid
  conflict, and backjumping stays sound with any valid conflict.  A block
  holding a clash is pushed as before, so no pair tag widens its conflict.
- Narrowing to the skeleton: a reducible `<xs>x = <ys>t` with xs non-empty
  maps x to t's whole constructor skeleton in one step, with its own fresh
  variable for each variable and each binder of t.  The step keeps `eq x
  skeleton` and the equation with x replaced, and substitutes x in the
  rest; the next `_settle` takes that equation to its leaves in place.  It
  is a chain of `expand`'s narrowing steps, one for x and one for each
  variable a step introduced over a node of the skeleton, with the
  decompositions that "In place" argues between them.  It leaves out the
  `eq v pattern` that each later narrowing keeps, since v occurs nowhere
  else, as for the store.  Each narrowing is an equivalence, with the
  fresh variables read existentially, and decreases the paper's
  termination measure, so the chain does both.  The block keeps q's other
  constraints in order, each kept or rewritten by x's substitution, as the
  tags need.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import BudgetExhausted, NotSolved
from .foreduce import fo_sat
from .kernel import AlphaTree, Name, NameSortT, Signature, Type, inhabitant
from .rewrite import (
    SOLVED_ASSIGN,
    SOLVED_FORMS,
    SOLVED_FRESH,
    _f,
    _subst_rest,
    expand,
    fresh_vars,
    has_clash,
    shared_vars,
    statuses,
)
from .schematic import (
    Constraint,
    Env,
    Eq,
    Fresh,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUnit,
    Term,
    Valuation,
    Var,
    check_problem,
    instantiate,
    satisfies_all,
    subst_constraint,
)


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    reason: str | None = None     # "fo-reduction" | "exhausted-normal-forms"
    witness: Valuation | None = None
    nodes: int = 0                # problems whose successors were computed;
                                  # `_settle`'s in-place steps are not nodes
    normal_forms: int = 0         # terminal problems encountered, and
                                  # branches forward checking skips; the
                                  # siblings backjumping skips are not


def _branching(env: Env, c: Constraint) -> bool:
    """Whether the search gets more than one branch from reducible c: a name
    compared with a binder prefix branches on each binder of its sort."""
    if isinstance(c, Fresh):
        ys, core = c.prefix, c.core
        x = c.var
    else:
        ys, bl, _, core = c.split
        if not isinstance(bl, Var):
            return False
        x = bl.name
    return isinstance(core, Var) and any(env[y] == env[x] for y in ys)


def _branches(sig: Signature, q: Problem, i: int) -> tuple[Problem, ...]:
    """The branches the search explores for reducible constraint i: all of
    `expand`'s, but only the first orientation of `eq x y` (x ≠ y: `expand`
    drops `eq x x`), and narrowing to the whole skeleton in one step."""
    c = q.constraints[i]
    if isinstance(c, Eq):
        xs, bl, _, br = c.split
        if isinstance(bl, Var) and isinstance(br, Var):
            if not xs and bl.name != br.name:
                return (_subst_rest(q, i, [c], bl.name, br),)
        elif xs and (isinstance(bl, Var) or isinstance(br, Var)):
            x, t = (bl, br) if isinstance(bl, Var) else (br, bl)
            return (_narrow_to_skeleton(q, i, x, t),)
    return expand(sig, q, i, verify=False)


def _wrap(prefix: tuple | None, core: Term) -> Term:
    """core under the binders of `prefix`, a linked list (binder, outer)
    that starts with the innermost binder."""
    while prefix is not None:
        binder, prefix = prefix
        core = SAbs(binder, core)
    return core


def _leaves(lhs: Term, rhs: Term) -> Iterator[tuple]:
    """The leaf pairs (xs, l, ys, r), in left-to-right order, left when
    `eq lhs rhs` is decomposed wherever both sides have the same
    constructor, tuple or unit head: a pair of units drops out, and a pair
    of distinct constructors is a leaf.  xs and ys are the binder prefixes
    above l and r, as linked lists for `_wrap`."""
    stack: list[tuple] = [(None, lhs, None, rhs)]
    while stack:
        xs, l, ys, r = stack.pop()
        while isinstance(l, SAbs) and isinstance(r, SAbs):
            xs, l = (l.binder, xs), l.body
            ys, r = (r.binder, ys), r.body
        if isinstance(l, SApp) and isinstance(r, SApp) and l.con == r.con:
            stack.append((xs, l.arg, ys, r.arg))
        elif isinstance(l, STuple) and isinstance(r, STuple):
            stack.extend((xs, a, ys, b) for a, b in
                         zip(reversed(l.items), reversed(r.items)))
        elif not (isinstance(l, SUnit) and isinstance(r, SUnit)):
            yield xs, l, ys, r


def _narrow_to_skeleton(q: Problem, i: int, x: Var, t: Term) -> Problem:
    """Narrowing of x in reducible constraint i, `<xs>x = <ys>t` with xs
    non-empty, carried through all of t: x becomes t's constructor
    skeleton, with its own fresh variable for each variable and each binder
    of t, each typed as the variable or binder it stands for.  The block
    keeps `eq x skeleton` and constraint i with x replaced, which the next
    `_settle` takes to its leaves; x is replaced in the rest."""
    env = q.env
    nodes: list[Term] = []  # t's nodes in pre-order
    stack: list[Term] = [t]
    while stack:
        u = stack.pop()
        nodes.append(u)
        if isinstance(u, SApp):
            stack.append(u.arg)
        elif isinstance(u, STuple):
            stack.extend(reversed(u.items))
        elif isinstance(u, SAbs):
            stack.append(u.body)
    count = sum(isinstance(u, (Var, SAbs)) for u in nodes)
    fresh = list(fresh_vars(env, count))
    new_env = dict(env)
    # In reverse pre-order children come before their parent, first child
    # on top, and the fresh names are taken from the end.
    built: list[Term] = []
    for u in reversed(nodes):
        if isinstance(u, Var):
            v = fresh.pop()
            new_env[v] = env[u.name]
            built.append(Var(v))
        elif isinstance(u, SAbs):
            v = fresh.pop()
            new_env[v] = env[u.binder]
            built.append(SAbs(v, built.pop()))
        elif isinstance(u, SApp):
            built.append(SApp(u.con, built.pop()))
        elif isinstance(u, SUnit):
            built.append(u)
        else:
            built.append(STuple(tuple(built.pop() for _ in u.items)))
    (skeleton,) = built
    kept = subst_constraint(q.constraints[i], x.name, skeleton)
    return _subst_rest(q, i, [Eq(x, skeleton), kept], x.name, skeleton,
                       env=new_env)


def _in_place(c: Constraint) -> list[Constraint] | None:
    """What replaces reducible c when its rule has one branch and
    substitutes nothing: nothing for `eq x x`, and the `_leaves` of an
    equation whose sides have the same head, each wrapped in its binders;
    None when another rule applies.  A freshness `fresh x t` whose core is
    not a variable decomposes as the walk of `eq t t` does: every leaf is a
    variable pair, and becomes `fresh x <prefix>v`."""
    if isinstance(c, Fresh):
        if isinstance(c.core, Var):
            return None
        t = c.target
        return [Fresh(c.var, _wrap(ys, v)) for _, _, ys, v in _leaves(t, t)]
    xs, bl, _, br = c.split
    if not isinstance(bl, Var) and not isinstance(br, Var):
        return [Eq(_wrap(lp, l), _wrap(rp, r))
                for lp, l, rp, r in _leaves(c.lhs, c.rhs)]
    return [] if not xs and bl == br else None


def _settle(q: Problem, tags: tuple[int, ...], pairs: dict):
    """Set q's solved constraints aside and take the steps that substitute
    nothing in place.  Each round labels q once, replaces each reducible
    constraint that `_in_place` rewrites by what it returns, each with its
    tag, moves every solved `eq x t` (x isolated) to the store, joins every
    solved `fresh a b` with b a name variable to `pairs`, a dict (a, b) ->
    tag (a new dict when one joins or is rewritten; a pair already there
    keeps its tag), and keeps only the first of the copies of a solved
    `fresh x y` with y a data variable.  When a moved x is a name variable,
    t is one too, and the pairs that hold x are rewritten x:=t, each adding
    the equation's tag.  A round that changed anything labels again.
    Returns what remains, the (x, t) pairs in the order they moved, the
    labels and the tags of what remains, and the pairs; the moved pairs
    drop their tags.  The labels are None when q holds a clash, when a
    leaf is one, or when a rewritten pair becomes `fresh y y`, which then
    joins what remains with its tag."""
    if has_clash(q):
        return q, (), None, tags, pairs
    env = q.env
    moved: list[tuple[str, Term]] = []
    copied = False
    while True:
        shared = shared_vars(q)
        st = statuses(q, shared)
        cs = q.constraints
        out: list[Constraint] = []
        out_tags: list[int] = []
        seen: set = set()
        clashes: list[tuple[Fresh, int]] = []
        kept = 0
        clash = False
        for c, s, tag in zip(cs, st, tags):
            if s is None:
                leaves = _in_place(c)
                if leaves is not None:
                    out += leaves
                    out_tags += [tag] * len(leaves)
                    clash = clash or any(leaf.clash for leaf in leaves)
                    continue
            elif s == SOLVED_ASSIGN:
                if isinstance(c.lhs, Var) and c.lhs.name not in shared:
                    x, t = c.lhs.name, c.rhs
                else:
                    x, t = c.rhs.name, c.lhs
                moved.append((x, t))
                if pairs and isinstance(env[x], NameSortT):
                    pairs, found = _rewrite_pairs(pairs, x, t.name, tag)
                    copied = True
                    clashes += found
                continue
            elif s == SOLVED_FRESH:
                key = (c.var, c.core.name)
                if isinstance(env[key[1]], NameSortT):
                    if not copied:
                        pairs, copied = dict(pairs), True
                    pairs.setdefault(key, tag)
                    continue
                if key in seen:
                    continue
                seen.add(key)
            out.append(c)
            out_tags.append(tag)
            kept += 1
        if kept == len(cs):
            break
        q = Problem(env, tuple(out) + tuple(f for f, _ in clashes))
        tags = tuple(out_tags) + tuple(t for _, t in clashes)
        if clash or clashes:
            return q, tuple(moved), None, tags, pairs
    return q, tuple(moved), st, tags, pairs


def _rewrite_pairs(pairs: dict, x: str, y: str, tag: int):
    """The pairs after x := y, a name variable for another: each pair that
    holds x is rewritten and adds `tag` to its own; the first copy of a
    pair keeps its tag.  Returns the pairs and the `fresh y y` clashes left,
    each with its tag."""
    out: dict = {}
    clashes: list[tuple[Fresh, int]] = []
    for (a, b), t in pairs.items():
        if x == a or x == b:
            a = y if a == x else a
            b = y if b == x else b
            t |= tag
            if a == b:
                clashes.append((_f(a, b), t))
                continue
        out.setdefault((a, b), t)
    return out, clashes


def _block_conflicts(env: Env, c: Constraint, pairs: dict,
                     base: int) -> list[int | None]:
    """For each branch of branching constraint c, `<xs>xv = <ys>yv`, in
    `expand`'s order: the smallest `tag | base` of a `fresh a b` or `fresh b
    a` that an `eq a b` of its block contradicts, with a pair's tag or 0 for
    the block's own; None if there is none or the block holds a clash.
    Choosing binders x and y puts `eq xv x` and `eq yv y` in its block and
    `fresh xv x` and `fresh yv y` in every later one; the last holds `eq xv
    yv`."""
    if isinstance(c, Fresh):
        # `fresh x <ys>v` chooses as `<zs>x = <zs>x` does, zs = ys reversed;
        # that equation's last block holds `eq x x`, which meets nothing.
        xv = yv = c.var
        choices = zip(c.prefix, c.prefix)
    else:
        xs, xv, ys, yv = c.split
        xv, yv = xv.name, yv.name
        choices = zip(xs[::-1], ys[::-1])
    sort = env[xv].sort  # binders and xv are name variables
    known = dict(pairs)  # (a, b) -> the tag of `fresh a b`
    out: list[int | None] = []
    clash = False        # whether the block holds a `fresh a a`
    for x, y in [*choices, (yv, xv)]:
        if env[x].sort != sort:
            continue
        conflict = None
        for t in () if clash else (known.get((xv, x)), known.get((x, xv)),
                                   known.get((yv, y)), known.get((y, yv))):
            if t is not None and (conflict is None or t | base < conflict):
                conflict = t | base
        out.append(conflict)
        known[xv, x] = known[yv, y] = 0
        clash = clash or xv == x or yv == y
    return out


def _select(q: Problem, idx: list[int], pairs: dict, tags: tuple[int, ...],
            level: int) -> tuple[int, list[int | None] | None]:
    """The reducible constraint to expand at a node of branching level
    `level`, with its branches' `_block_conflicts`, or None when it has one
    branch: the first single-branch one of idx, or else the first branching
    one with the fewest live branches, stopping at one with none."""
    env, cs = q.env, q.constraints
    for i in idx:
        if not _branching(env, cs[i]):
            return i, None
    best = None
    for i in idx:
        checked = _block_conflicts(env, cs[i], pairs, tags[i] | 1 << level)
        live = checked.count(None)
        if best is None or live < best[0]:
            best = live, i, checked
            if not live:
                break
    return best[1:]


def _kid_tags(q: Problem, tags: tuple[int, ...], i: int, kid: Problem,
              own: int) -> tuple[int, ...]:
    """The tags of a successor of q for constraint i: q's constraints with
    position i replaced by a block, and each other one kept as it is or
    rewritten.  The block takes tag(i) | own; a rewritten constraint adds
    tag(i) to its own tag."""
    ti = tags[i]
    n = len(q.constraints)
    m = len(kid.constraints) - n + 1
    block = (ti | own,) * m
    if not ti:
        return tags[:i] + block + tags[i + 1:]
    old, new = q.constraints, kid.constraints
    return (tuple(t if a is b else t | ti
                  for a, b, t in zip(old[:i], new, tags))
            + block
            + tuple(t if a is b else t | ti
                    for a, b, t in zip(old[i + 1:], new[i + m:],
                                       tags[i + 1:])))


def _backjump(stack: list, conflicts: list[int], conflict: int) -> None:
    """Fail the current branch with `conflict`, the branching levels whose
    choices (with the input) are unsatisfiable.  Skips the untried siblings
    of every level deeper than its highest one.  A branching node left with no
    sibling to try fails in turn, with the union of its branches' conflicts
    minus its own level.  An empty conflict refutes the input: the stack
    is emptied."""
    while conflict:
        h = conflict.bit_length() - 1
        conflicts[h] |= conflict
        while stack and stack[-1][-1] > h + 1:
            stack.pop()
        if stack and stack[-1][-1] == h + 1:
            del conflicts[h + 1:]
            return
        conflict = conflicts[h] ^ (1 << h)
        del conflicts[h:]
    stack.clear()


def decide(sig: Signature, p: Problem,
           budget: int | None = None) -> SolveResult:
    """p's verdict; BudgetExhausted past `budget` search nodes."""
    check_problem(sig, p)
    if not fo_sat(sig, p):
        return SolveResult(sat=False, reason="fo-reduction")
    return _search(sig, p, budget)


def _search(sig: Signature, p: Problem, budget: int | None) -> SolveResult:
    # Entries (problem, store, pairs, tags, level): pairs holds the solved
    # name freshness set aside, tags holds each constraint's mask of the
    # branching levels it rests on, and level counts the path's branching
    # nodes.  conflicts[l] joins the conflicts of level l's failed branches.
    stack: list[tuple] = [(p, (), {}, (0,) * len(p.constraints), 0)]
    conflicts: list[int] = []
    nodes = 0
    dead_ends = 0
    while stack:
        q, store, pairs, tags, level = stack.pop()
        q, moved, st, tags, pairs = _settle(q, tags, pairs)
        if st is None:
            # A clash constraint never goes away, so no descendant of q is
            # solved; count each encounter with such a branch as a dead end.
            dead_ends += 1
            _backjump(stack, conflicts, min(
                t for c, t in zip(q.constraints, tags) if c.clash))
            continue
        store += moved
        idx = [i for i, s in enumerate(st) if s is None]
        if not idx:
            if pairs:
                q = Problem(q.env, q.constraints + tuple(
                    _f(a, b) for a, b in pairs))
            V = extract_witness(sig, q, store)
            V = {x: V[x] for x in p.env}
            if not satisfies_all(V, p):
                raise NotSolved("witness fails the input problem")
            return SolveResult(sat=True, witness=V, nodes=nodes,
                               normal_forms=dead_ends + 1)
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExhausted(f"expanded more than {budget} problems")
        i, checked = _select(q, idx, pairs, tags, level)
        kids = _branches(sig, q, i)
        if checked is None:
            (kid,) = kids
            stack.append((kid, store, pairs, _kid_tags(q, tags, i, kid, 0),
                          level))
            continue
        # Last branch first: the name kept apart from every binder.
        conflicts.append(0)
        own = 1 << level
        pushed = len(stack)
        for kid, conflict in zip(kids, checked):
            if conflict is None:
                stack.append((kid, store, pairs,
                              _kid_tags(q, tags, i, kid, own), level + 1))
            else:
                dead_ends += 1
                conflicts[level] |= conflict
        if len(stack) == pushed:
            _backjump(stack, conflicts, conflicts[level])
    return SolveResult(sat=False, reason="exhausted-normal-forms",
                       nodes=nodes, normal_forms=dead_ends)


# ---------------------------------------------------------------------------
# Witness extraction from a solved problem

def extract_witness(sig: Signature, p: Problem,
                    store: tuple[tuple[str, Term], ...] = ()) -> Valuation:
    """A valuation over dom(env) satisfying a solved problem p and the
    store of pairs (x, t) the search moved out of it.

    Plan: p's own solved `eq x t` (x isolated) join the end of the store,
    as in the search; every name variable gets its own name from a small
    pool; every other variable gets one value per type, whose free names lie
    above the pool, which settles the equations under binder prefixes and
    every freshness constraint; last, the store is filled in reverse order,
    each x from its t.
    """
    if not SOLVED_FORMS.issuperset(statuses(p)):
        raise NotSolved(f"not a solved problem: {p}")
    _, moved, _, _, _ = _settle(p, (0,) * len(p.constraints), {})
    env = p.env
    V: dict[str, AlphaTree] = {}
    pool: dict[str, int] = {}
    start = len(env)  # free names of shared values stay above the pool
    values: dict[Type, AlphaTree] = {}  # one value per type
    for x in sorted(env):
        ty = env[x]
        if isinstance(ty, NameSortT):
            i = pool.get(ty.sort, 0)
            pool[ty.sort] = i + 1
            V[x] = AlphaTree(Name(ty.sort, i))
        elif ty in values:
            V[x] = values[ty]
        else:
            V[x] = values[ty] = inhabitant(sig, ty, start)
    for x, t in reversed(store + moved):
        V[x] = instantiate(V, t)

    if not satisfies_all(V, p):
        raise NotSolved("extracted valuation fails the solved problem")
    return V
