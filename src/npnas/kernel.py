"""Nominal signatures, types, and the nameless alpha-trees the solver works
on, with a witness's named ground tree for printing it.

An alpha-tree is the canonical representative of an alpha-equivalence
class: a bound name is the distance to its binder and free names stay
explicit, so two trees are alpha-equivalent iff their alpha-trees are
equal.  `canonicalize` and `realize` convert between the two forms.

All values here are immutable and all operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Mapping, Union

from .errors import TypeMismatch, UndeclaredSort, Uninhabited, ValidationError

# ---------------------------------------------------------------------------
# Facts of immutable values

# A field set in __post_init__, when the value is built; not in ==, hash or repr.
derived = partial(field, init=False, repr=False, compare=False)


def memo_on_object(fn):
    """Memoise a one-argument function on immutable values by storing the
    result in the argument's own __dict__, so it lives and dies with the
    object.  It holds the rule-level facts `rewrite._split_eq`,
    `clash_kind` and `shared_vars`."""
    key = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def wrapped(obj):
        try:  # in a search most calls are hits, where try is cheapest
            return obj.__dict__[key]
        except KeyError:
            v = obj.__dict__[key] = fn(obj)
            return v

    return wrapped


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class NameSortT:
    """Type of bindable names of a given sort."""
    sort: str

    def __str__(self):
        return f"(name {self.sort})"


@dataclass(frozen=True)
class DataSortT:
    sort: str

    def __str__(self):
        return f"(data {self.sort})"


@dataclass(frozen=True)
class UnitT:
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class AbsT:
    """Abstraction type: binder is always a name sort."""
    binder: str
    body: "Type"

    def __str__(self):
        return f"(abs (name {self.binder}) {self.body})"


@dataclass(frozen=True)
class TupleT:
    items: tuple["Type", ...]  # length >= 2

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple types need at least two components")

    def __str__(self):
        return "(pair " + " ".join(str(t) for t in self.items) + ")"


Type = Union[NameSortT, DataSortT, UnitT, AbsT, TupleT]

UNIT_T = UnitT()


# ---------------------------------------------------------------------------
# Signatures

@dataclass(frozen=True)
class Signature:
    """Name sorts, data sorts and constructors of the object language."""
    name_sorts: frozenset[str]
    data_sorts: frozenset[str]
    constructors: Mapping[str, tuple[Type, str]]  # K -> (arg type, result sort)
    arg_sorts: Mapping[str, tuple[set[str], set[str]]] = derived()  # K -> type_sorts(arg)
    builders: Mapping[str, str] = derived()  # data sort -> K building its inhabitant

    def __post_init__(self):  # one type_sorts walk per constructor
        object.__setattr__(self, "arg_sorts", {
            con: type_sorts(arg) for con, (arg, _) in self.constructors.items()})
        object.__setattr__(self, "builders", _builders(self))

    def arg_type(self, con: str) -> Type:
        return self.constructors[con][0]


def make_signature(name_sorts, data_sorts, constructors) -> Signature:
    """Build and validate a signature; every type must be inhabited."""
    sig = Signature(frozenset(name_sorts), frozenset(data_sorts), dict(constructors))
    validate_signature(sig)
    return sig


def type_sorts(ty: Type) -> tuple[set[str], set[str]]:
    """The name sorts and the data sorts that ty mentions."""
    names: set[str] = set()
    datas: set[str] = set()
    todo = [ty]
    for t in todo:  # todo grows as the walk goes down
        if isinstance(t, NameSortT):
            names.add(t.sort)
        elif isinstance(t, DataSortT):
            datas.add(t.sort)
        elif isinstance(t, AbsT):
            names.add(t.binder)
            todo.append(t.body)
        elif isinstance(t, TupleT):
            todo.extend(t.items)
    return names, datas


def validate_signature(sig: Signature) -> None:
    overlap = sig.name_sorts & sig.data_sorts
    if overlap:
        raise ValidationError(f"sorts declared as both name and data: {sorted(overlap)}")
    for con, (_, res) in sig.constructors.items():
        if res not in sig.data_sorts:
            raise UndeclaredSort(con, f"constructor {con} targets undeclared data sort {res}")
        names, datas = sig.arg_sorts[con]
        if not names <= sig.name_sorts:
            raise UndeclaredSort(con, f"constructor {con} uses undeclared name sorts {sorted(names - sig.name_sorts)}")
        if not datas <= sig.data_sorts:
            raise UndeclaredSort(con, f"constructor {con} uses undeclared data sorts {sorted(datas - sig.data_sorts)}")
    # Standing assumption: every type over the signature has a ground tree,
    # which holds iff every data sort does.
    for d in sorted(sig.data_sorts):
        if d not in sig.builders:
            raise Uninhabited(DataSortT(d))


# ---------------------------------------------------------------------------
# Names and ground trees (the named form of a witness)

@dataclass(frozen=True)
class Name:
    """A permutative name: (sort, index) out of a countable per-sort pool."""
    sort: str
    index: int

    @property
    def names(self) -> frozenset[Name]:  # as an alpha-tree node
        return frozenset((self,))

    def __str__(self):
        return f"n{self.index}@{self.sort}"


@dataclass(frozen=True)
class GUnit:
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class GTuple:
    items: tuple["GroundTree", ...]

    def __str__(self):
        return "(tuple " + " ".join(str(g) for g in self.items) + ")"


@dataclass(frozen=True)
class GApp:
    con: str
    arg: "GroundTree"

    def __str__(self):
        return f"(con {self.con} {self.arg})"


@dataclass(frozen=True)
class GAbs:
    binder: Name
    body: "GroundTree"

    def __str__(self):
        return f"(abs {self.binder} {self.body})"


GroundTree = Union[Name, GUnit, GTuple, GApp, GAbs]

GUNIT = GUnit()


# ---------------------------------------------------------------------------
# Canonical alpha-tree representatives

@dataclass(frozen=True)
class ABound:
    """Bound occurrence: number of binders between it and its binder."""
    depth: int
    names = frozenset()


@dataclass(frozen=True)
class AUnit:
    names = frozenset()


# Free names: a binder is nameless, so an AAbs has those of its body.

@dataclass(frozen=True)
class ATuple:
    items: tuple["ANode", ...]
    names: frozenset[Name] = derived()

    def __post_init__(self):
        object.__setattr__(self, "names", frozenset().union(*[a.names for a in self.items]))


@dataclass(frozen=True)
class AApp:
    con: str
    arg: "ANode"
    names: frozenset[Name] = derived()

    def __post_init__(self):
        object.__setattr__(self, "names", self.arg.names)


@dataclass(frozen=True)
class AAbs:
    sort: str
    body: "ANode"
    names: frozenset[Name] = derived()

    def __post_init__(self):
        object.__setattr__(self, "names", self.body.names)


ANode = Union[Name, ABound, AUnit, ATuple, AApp, AAbs]

AUNIT = AUnit()


@dataclass(frozen=True)
class AlphaTree:
    """Canonical representative of an alpha-equivalence class: bound names
    replaced by binder distances, free names kept explicit."""
    node: ANode

    def free_names(self) -> frozenset[Name]:
        return self.node.names

    def is_name(self) -> bool:
        return isinstance(self.node, Name)

    def name(self) -> Name:
        if not isinstance(self.node, Name):
            raise TypeMismatch("alpha-tree is not a bare name")
        return self.node


def canonicalize(g: GroundTree) -> AlphaTree:
    """Canonical nameless-binder form; structural equality of results
    coincides with alpha-equivalence of the inputs."""
    return AlphaTree(_canon(g, []))


def _canon(g: GroundTree, binders: list[Name]) -> ANode:
    if isinstance(g, Name):
        for depth, binder in enumerate(reversed(binders)):
            if binder == g:
                return ABound(depth)
        return g
    if isinstance(g, GUnit):
        return AUNIT
    if isinstance(g, GTuple):
        return ATuple(tuple(_canon(item, binders) for item in g.items))
    if isinstance(g, GApp):
        return AApp(g.con, _canon(g.arg, binders))
    binders.append(g.binder)
    body = _canon(g.body, binders)
    binders.pop()
    return AAbs(g.binder.sort, body)


def realize(a: AlphaTree) -> GroundTree:
    """Pick a ground representative; binder names are drawn above every
    free-name index at the relevant sort."""
    if isinstance(a.node, Name):  # a bare name is its own representative
        return a.node
    counter: dict[str, int] = {}
    for n in a.free_names():
        counter[n.sort] = max(counter.get(n.sort, 0), n.index + 1)

    def go(node: ANode, binders: list[Name]) -> GroundTree:
        if isinstance(node, Name):
            return node
        if isinstance(node, ABound):
            return binders[-1 - node.depth]
        if isinstance(node, AUnit):
            return GUNIT
        if isinstance(node, ATuple):
            return GTuple(tuple(go(item, binders) for item in node.items))
        if isinstance(node, AApp):
            return GApp(node.con, go(node.arg, binders))
        idx = counter.get(node.sort, 0)
        counter[node.sort] = idx + 1
        binder = Name(node.sort, idx)
        binders.append(binder)
        body = go(node.body, binders)
        binders.pop()
        return GAbs(binder, body)

    return go(a.node, [])


# ---------------------------------------------------------------------------
# Inhabitants

def _builders(sig: Signature) -> dict[str, str]:
    """Data sort -> the constructor that builds its inhabitant; a sort
    without ground trees has no entry.  Built once, with the signature.

    A sort's rank is the round in which it becomes inhabited, and a round
    reads only the sorts of earlier rounds.  So a builder's argument
    mentions only sorts of lower rank, and building never returns to a sort
    it is building.  The constructors that qualify in a sort's round are
    those whose argument has the least rank (the highest rank among its data
    sorts); the first by name builds it.
    """
    builders: dict[str, str] = {}
    todo = sorted(sig.constructors.items())
    while todo:
        found: dict[str, str] = {}
        for con, (_, res) in todo:
            if res not in found and sig.arg_sorts[con][1] <= builders.keys():
                found[res] = con
        if not found:
            break
        builders.update(found)
        todo = [item for item in todo if item[1][1] not in found]
    return builders


def inhabitant(sig: Signature, ty: Type, start_index: int = 0) -> AlphaTree:
    """Some alpha-tree of type ty; its free names have index start_index.

    Every name of sort s is the one name of s at that index, so under an
    abstraction over s it is bound by the innermost such binder.  Raises
    Uninhabited when the signature violates the standing assumption
    (make_signature already rejects such signatures up front).
    """
    builders = sig.builders
    binders: list[str] = []  # sorts of the enclosing abstractions

    def go(t: Type) -> ANode:
        if isinstance(t, NameSortT):
            for depth, sort in enumerate(reversed(binders)):
                if sort == t.sort:
                    return ABound(depth)
            return Name(t.sort, start_index)
        if isinstance(t, UnitT):
            return AUNIT
        if isinstance(t, AbsT):
            binders.append(t.binder)
            body = go(t.body)
            binders.pop()
            return AAbs(t.binder, body)
        if isinstance(t, TupleT):
            return ATuple(tuple(go(item) for item in t.items))
        if t.sort not in builders:
            raise Uninhabited(t)
        con = builders[t.sort]
        return AApp(con, go(sig.arg_type(con)))

    return AlphaTree(go(ty))
