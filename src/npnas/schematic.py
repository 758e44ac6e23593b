"""Schematic terms, equality/freshness constraints and problems.

A problem is a typing environment for its variables together with an
ordered sequence of constraints.  Variables range over alpha-trees, and a
valuation assigns one to each variable; instantiation of an abstraction
whose binder variable maps to a name is possibly capturing.
"""
from __future__ import annotations

from typing import Mapping, Union

from .errors import (
    IllegalBinderSubstitution,
    IllFormedProblem,
    MissingVariable,
    NonNameBinder,
    TypeMismatch,
    UnboundVariable,
)
from .kernel import (
    AAbs,
    ABound,
    AbsT,
    AlphaTree,
    AApp,
    ANode,
    ATuple,
    AUNIT,
    AUnit,
    DataSortT,
    Name,
    NameSortT,
    Signature,
    TupleT,
    Type,
    UNIT_T,
    Value,
    type_sorts,
)

# ---------------------------------------------------------------------------
# Terms (each term and constraint carries `vars`: its variables, binders too)

class Var(Value):
    _fields = ("name",)
    __slots__ = _fields + ("vars",)

    def __init__(self, name: str):
        self.name = name
        self.vars = frozenset((name,))

    def __str__(self):
        return self.name


class SUnit(Value):
    __slots__ = ()
    vars = frozenset()

    def __str__(self):
        return "unit"


class STuple(Value):
    _fields = ("items",)
    __slots__ = _fields + ("vars",)

    def __init__(self, items: tuple[Term, ...]):
        self.items = items
        self.vars = frozenset().union(*[t.vars for t in items])

    def __str__(self):
        return "(tuple " + " ".join(str(t) for t in self.items) + ")"


class SApp(Value):
    _fields = ("con", "arg")
    __slots__ = _fields + ("vars",)

    def __init__(self, con: str, arg: Term):
        self.con = con
        self.arg = arg
        self.vars = arg.vars

    def __str__(self):
        return f"(con {self.con} {self.arg})"


class SAbs(Value):
    """Abstraction; the binder position only ever holds a variable."""
    _fields = ("binder", "body")
    __slots__ = _fields + ("vars",)

    def __init__(self, binder: str, body: Term):
        self.binder = binder
        self.body = body
        self.vars = body.vars | {binder}

    def __str__(self):
        return f"(abs {self.binder} {self.body})"


Term = Union[Var, SUnit, STuple, SApp, SAbs]

SUNIT = SUnit()


def abs_prefix(t: Term) -> tuple[tuple[str, ...], Term]:
    """Split off the maximal abstraction prefix: ⟨x1..xk⟩core."""
    prefix: list[str] = []
    while isinstance(t, SAbs):
        prefix.append(t.binder)
        t = t.body
    return tuple(prefix), t


def wrap_abs(binders: tuple[str, ...], core: Term) -> Term:
    for x in reversed(binders):
        core = SAbs(x, core)
    return core


# ---------------------------------------------------------------------------
# Constraints and problems.  A constraint also carries the facts the rules
# read: an equation's `split`, a freshness constraint's `prefix` and `core`,
# and the `clash` shape of either.  Constraints and problems take weak
# references.

# Clash labels: a constraint of one of these shapes has no solution.
CLASH_SELF_FRESH = "clash-self-fresh"    # fresh(x, x)
CLASH_CON = "clash-con"                  # distinct constructors
CLASH_OCCURS = "clash-occurs"            # eq(x, t), x inside t
CLASH_ABS_OCCURS = "clash-abs-occurs"    # occurs failure under binders


class Eq(Value):
    """`split` is (xs, bl, ys, br): both abstraction prefixes cut at the
    shorter length, so the surplus binders of the longer side stay on its
    body."""
    _fields = ("lhs", "rhs")
    __slots__ = _fields + ("vars", "split", "clash", "__weakref__")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs
        self.vars = lhs.vars | rhs.vars
        xs = ys = ()
        if lhs.__class__ is SAbs and rhs.__class__ is SAbs:
            xs, ys = [], []
            while lhs.__class__ is SAbs and rhs.__class__ is SAbs:
                xs.append(lhs.binder)
                ys.append(rhs.binder)
                lhs, rhs = lhs.body, rhs.body
            xs, ys = tuple(xs), tuple(ys)
        self.split = xs, lhs, ys, rhs
        self.clash = None
        if isinstance(lhs, Var) != isinstance(rhs, Var):
            x, t = (lhs, rhs) if isinstance(lhs, Var) else (rhs, lhs)
            if x.name in t.vars:
                self.clash = CLASH_ABS_OCCURS if xs else CLASH_OCCURS
        elif (isinstance(lhs, SApp) and isinstance(rhs, SApp)
              and lhs.con != rhs.con):
            self.clash = CLASH_CON

    def __str__(self):
        return f"(eq {self.lhs} {self.rhs})"


class Fresh(Value):
    """The value of var (a name) must not occur free in the target's value.
    `prefix` and `core` are `abs_prefix(target)`."""
    _fields = ("var", "target")
    __slots__ = _fields + ("vars", "prefix", "core", "clash", "__weakref__")

    def __init__(self, var: str, target: Term):
        self.var = var
        self.target = target
        self.vars = target.vars | {var}
        self.prefix, self.core = (abs_prefix(target)
                                  if target.__class__ is SAbs else ((), target))
        self.clash = (CLASH_SELF_FRESH
                      if isinstance(target, Var) and target.name == var
                      else None)

    def __str__(self):
        return f"(fresh {self.var} {self.target})"


Constraint = Union[Eq, Fresh]


Env = Mapping[str, Type]


class Problem(Value):
    _fields = ("env", "constraints")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, env: Mapping[str, Type],
                 constraints: tuple[Constraint, ...]):
        self.env = env
        self.constraints = constraints

    __hash__ = None  # env is a mapping

    def __str__(self):
        return "; ".join(str(c) for c in self.constraints) or "(empty)"


# ---------------------------------------------------------------------------
# Typechecking

def infer_type(sig: Signature, env: Env, t: Term) -> Type:
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(f"variable {t.name} not declared")
        return env[t.name]
    if isinstance(t, SUnit):
        return UNIT_T
    if isinstance(t, STuple):
        return TupleT(tuple(infer_type(sig, env, item) for item in t.items))
    if isinstance(t, SApp):
        if t.con not in sig.constructors:
            raise TypeMismatch(f"unknown constructor {t.con}")
        arg_ty, res = sig.constructors[t.con]
        got = infer_type(sig, env, t.arg)
        if got != arg_ty:
            raise TypeMismatch(f"{t.con} expects {arg_ty}, got {got}")
        return DataSortT(res)
    binder_ty = env.get(t.binder)
    if binder_ty is None:
        raise UnboundVariable(f"binder variable {t.binder} not declared")
    if not isinstance(binder_ty, NameSortT):
        raise NonNameBinder(f"binder variable {t.binder} has type {binder_ty}")
    return AbsT(binder_ty.sort, infer_type(sig, env, t.body))


def check_constraint(sig: Signature, env: Env, c: Constraint) -> None:
    if isinstance(c, Eq):
        lt = infer_type(sig, env, c.lhs)
        rt = infer_type(sig, env, c.rhs)
        if lt != rt:
            raise TypeMismatch(f"equation sides have types {lt} and {rt}")
    else:
        vt = env.get(c.var)
        if vt is None:
            raise UnboundVariable(f"variable {c.var} not declared")
        if not isinstance(vt, NameSortT):
            raise TypeMismatch(f"freshness subject {c.var} has non-name type {vt}")
        infer_type(sig, env, c.target)


def check_problem(sig: Signature, p: Problem) -> None:
    for x, ty in p.env.items():
        names, datas = type_sorts(ty)
        if not names <= sig.name_sorts:
            raise IllFormedProblem(f"{x} uses undeclared name sort "
                                   f"{min(names - sig.name_sorts)}")
        if not datas <= sig.data_sorts:
            raise IllFormedProblem(f"{x} uses undeclared data sort "
                                   f"{min(datas - sig.data_sorts)}")
    try:
        for c in p.constraints:
            check_constraint(sig, p.env, c)
    except (TypeMismatch, UnboundVariable, NonNameBinder) as exc:
        raise IllFormedProblem(str(exc)) from exc


# ---------------------------------------------------------------------------
# Substitution (capturing)

def subst_term(t: Term, x: str, r: Term) -> Term:
    """Replace every occurrence of x in t by r, without renaming binders.

    Binder positions only accept variables, so substituting a compound term
    for a variable that occurs as a binder is rejected.  Subterms without x
    are returned themselves, so they keep their facts.
    """
    if x not in t.vars:
        return t
    if isinstance(t, Var):
        return r
    if isinstance(t, STuple):
        return STuple(tuple(subst_term(item, x, r) for item in t.items))
    if isinstance(t, SApp):
        return SApp(t.con, subst_term(t.arg, x, r))
    binder = t.binder
    if binder == x:
        if not isinstance(r, Var):
            raise IllegalBinderSubstitution(
                f"cannot place {r} in the binder position held by {x}")
        binder = r.name
    return SAbs(binder, subst_term(t.body, x, r))


def subst_constraint(c: Constraint, x: str, r: Term) -> Constraint:
    if x not in c.vars:
        return c
    if isinstance(c, Eq):
        return Eq(subst_term(c.lhs, x, r), subst_term(c.rhs, x, r))
    var = c.var
    if var == x:
        if not isinstance(r, Var):
            raise IllegalBinderSubstitution(
                f"cannot place {r} in the name position held by {x}")
        var = r.name
    return Fresh(var, subst_term(c.target, x, r))


# ---------------------------------------------------------------------------
# Instantiation and satisfaction

Valuation = Mapping[str, AlphaTree]


def instantiate(V: Valuation, t: Term) -> AlphaTree:
    """The alpha-tree denoted by t under V (capture is intended: the binder
    of an abstraction is whatever name V assigns the binder variable).

    Built straight in nameless form: a variable's value is taken as it is,
    except that its free names bound by an enclosing abstraction of t
    become bound occurrences of the innermost such abstraction."""
    return AlphaTree(_instantiate(V, t, []))


def _instantiate(V: Valuation, t: Term, binders: list[Name]) -> ANode:
    """t's node under V, below abstractions binding `binders` (innermost
    last)."""
    if isinstance(t, Var):
        if t.name not in V:
            raise MissingVariable(f"valuation lacks {t.name}")
        node = V[t.name].node
        if not binders:
            return node
        free = node.names
        captured: dict[Name, int] = {}
        for distance, n in enumerate(reversed(binders)):
            if n in free:
                captured.setdefault(n, distance)
        return _capture(node, captured, 0) if captured else node
    if isinstance(t, SUnit):
        return AUNIT
    if isinstance(t, STuple):
        return ATuple(tuple(_instantiate(V, item, binders) for item in t.items))
    if isinstance(t, SApp):
        return AApp(t.con, _instantiate(V, t.arg, binders))
    if t.binder not in V:
        raise MissingVariable(f"valuation lacks {t.binder}")
    binder = V[t.binder].name()  # raises TypeMismatch on non-name values
    binders.append(binder)
    body = _instantiate(V, t.body, binders)
    binders.pop()
    return AAbs(binder.sort, body)


def _capture(node: ANode, captured: Mapping[Name, int], depth: int) -> ANode:
    """node, which lies `depth` binders inside a variable's value, with
    each free name n in `captured` bound by the binder captured[n] places
    outside that value.  Subtrees without a captured name are returned
    themselves."""
    if isinstance(node, Name):
        outer = captured.get(node)
        return node if outer is None else ABound(depth + outer)
    if captured.keys().isdisjoint(node.names):
        return node
    if isinstance(node, ATuple):
        return ATuple(tuple(_capture(item, captured, depth)
                            for item in node.items))
    if isinstance(node, AApp):
        return AApp(node.con, _capture(node.arg, captured, depth))
    return AAbs(node.sort, _capture(node.body, captured, depth + 1))


def satisfies(V: Valuation, c: Constraint) -> bool:
    if isinstance(c, Eq):
        return instantiate(V, c.lhs) == instantiate(V, c.rhs)
    if c.var not in V:
        raise MissingVariable(f"valuation lacks {c.var}")
    return V[c.var].name() not in instantiate(V, c.target).free_names()


def satisfies_all(V: Valuation, p: Problem) -> bool:
    return all(satisfies(V, c) for c in p.constraints)


# ---------------------------------------------------------------------------
# Sizes

def atree_size(a: AlphaTree) -> int:
    def go(node) -> int:
        if isinstance(node, (Name, ABound, AUnit)):
            return 1
        if isinstance(node, ATuple):
            return 1 + sum(go(item) for item in node.items)
        if isinstance(node, AApp):
            return 1 + go(node.arg)
        return 2 + go(node.body)

    return go(a.node)
