"""Nominal signatures, types, and the nameless alpha-trees the solver works
on, with a witness's named ground tree for printing it.

An alpha-tree is the canonical representative of an alpha-equivalence
class: a bound name is the distance to its binder and free names stay
explicit, so two trees are alpha-equivalent iff their alpha-trees are
equal.  `canonicalize` and `realize` convert between the two forms.

All operations are pure functions, and all values are immutable by
convention.  Each value is a slotted class whose `__init__` sets its
fields and its facts: the free `names` of an alpha-tree node, the `vars`
of a term or constraint, and the rule facts of a constraint (an
equation's `split`, a freshness constraint's `prefix` and `core`, and the
`clash` shape of either).  Nothing assigns a field after `__init__`, and
the facts rely on that.  `==` and `hash` are written once, in `Value`,
and read the fields alone, never the facts.  `AlphaTree` compares its
node trees with an explicit stack, so trees of any depth compare.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Mapping, Union

from .errors import TypeMismatch, UndeclaredSort, Uninhabited, ValidationError

# ---------------------------------------------------------------------------
# Values

class Value:
    """Base of the value classes: `==`, `hash` and a dataclass-style repr,
    all read from `_fields`.

    Each subclass lists its fields in `_fields` and its `__slots__`, and
    writes its own `__init__`.  `==` tests identity first, then the class
    and the fields, as a frozen dataclass would; a class without fields
    compares by class alone.  `_key` reads a value's fields: the one field,
    a tuple of several, or () when there are none."""
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = (attrgetter(*cls._fields) if cls._fields
                    else staticmethod(lambda v: ()))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


# ---------------------------------------------------------------------------
# Types

class NameSortT(Value):
    """Type of bindable names of a given sort."""
    __slots__ = _fields = ("sort",)

    def __init__(self, sort: str):
        self.sort = sort

    def __str__(self):
        return f"(name {self.sort})"


class DataSortT(Value):
    __slots__ = _fields = ("sort",)

    def __init__(self, sort: str):
        self.sort = sort

    def __str__(self):
        return f"(data {self.sort})"


class UnitT(Value):
    __slots__ = ()

    def __str__(self):
        return "unit"


class AbsT(Value):
    """Abstraction type: binder is always a name sort."""
    __slots__ = _fields = ("binder", "body")

    def __init__(self, binder: str, body: Type):
        self.binder = binder
        self.body = body

    def __str__(self):
        return f"(abs (name {self.binder}) {self.body})"


class TupleT(Value):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[Type, ...]):
        if len(items) < 2:
            raise ValueError("tuple types need at least two components")
        self.items = items

    def __str__(self):
        return "(pair " + " ".join(str(t) for t in self.items) + ")"


Type = Union[NameSortT, DataSortT, UnitT, AbsT, TupleT]

UNIT_T = UnitT()


# ---------------------------------------------------------------------------
# Signatures

class Signature(Value):
    """Name sorts, data sorts and constructors of the object language.

    `arg_sorts` (K -> type_sorts of K's argument, one walk per constructor)
    and `builders` (data sort -> K building its inhabitant) are its facts."""
    _fields = ("name_sorts", "data_sorts", "constructors")
    __slots__ = _fields + ("arg_sorts", "builders")

    def __init__(self, name_sorts: frozenset[str], data_sorts: frozenset[str],
                 constructors: Mapping[str, tuple[Type, str]]):
        self.name_sorts = name_sorts
        self.data_sorts = data_sorts
        self.constructors = constructors  # K -> (arg type, result sort)
        self.arg_sorts = {con: type_sorts(arg)
                          for con, (arg, _) in constructors.items()}
        self.builders = _builders(self)

    __hash__ = None  # constructors is a mapping

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

class Name(Value):
    """A permutative name: (sort, index) out of a countable per-sort pool.
    As an alpha-tree node its free `names` are itself."""
    _fields = ("sort", "index")
    __slots__ = _fields + ("names",)

    def __init__(self, sort: str, index: int):
        self.sort = sort
        self.index = index
        self.names = frozenset((self,))

    def __str__(self):
        return f"n{self.index}@{self.sort}"


class GUnit(Value):
    __slots__ = ()

    def __str__(self):
        return "unit"


class GTuple(Value):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[GroundTree, ...]):
        self.items = items

    def __str__(self):
        return _render(self)


class GApp(Value):
    __slots__ = _fields = ("con", "arg")

    def __init__(self, con: str, arg: GroundTree):
        self.con = con
        self.arg = arg

    def __str__(self):
        return _render(self)


class GAbs(Value):
    __slots__ = _fields = ("binder", "body")

    def __init__(self, binder: Name, body: GroundTree):
        self.binder = binder
        self.body = body

    def __str__(self):
        return _render(self)


GroundTree = Union[Name, GUnit, GTuple, GApp, GAbs]

GUNIT = GUnit()


def _render(g: GroundTree) -> str:
    """The printed form of ground tree g.  The walk keeps an explicit stack
    of subtrees and the text around them, so a witness of any depth
    prints."""
    out: list[str] = []
    todo: list = [g]
    while todo:
        g = todo.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, GApp):
            todo += (")", g.arg, f"(con {g.con} ")
        elif isinstance(g, GAbs):
            todo += (")", g.body, f"(abs {g.binder} ")
        elif isinstance(g, GTuple):
            todo.append(")")
            for item in reversed(g.items[1:]):
                todo += (item, " ")
            todo += (g.items[0], "(tuple ")
        else:
            out.append(str(g))
    return "".join(out)


# ---------------------------------------------------------------------------
# Canonical alpha-tree representatives (each node carries `names`, its
# free names; a binder is nameless, so an AAbs has those of its body)

class ABound(Value):
    """Bound occurrence: number of binders between it and its binder."""
    __slots__ = _fields = ("depth",)
    names = frozenset()

    def __init__(self, depth: int):
        self.depth = depth


class AUnit(Value):
    __slots__ = ()
    names = frozenset()


class ATuple(Value):
    _fields = ("items",)
    __slots__ = _fields + ("names",)

    def __init__(self, items: tuple[ANode, ...]):
        self.items = items
        self.names = frozenset().union(*[a.names for a in items])


class AApp(Value):
    _fields = ("con", "arg")
    __slots__ = _fields + ("names",)

    def __init__(self, con: str, arg: ANode):
        self.con = con
        self.arg = arg
        self.names = arg.names


class AAbs(Value):
    _fields = ("sort", "body")
    __slots__ = _fields + ("names",)

    def __init__(self, sort: str, body: ANode):
        self.sort = sort
        self.body = body
        self.names = body.names


ANode = Union[Name, ABound, AUnit, ATuple, AApp, AAbs]

AUNIT = AUnit()


class AlphaTree(Value):
    """Canonical representative of an alpha-equivalence class: bound names
    replaced by binder distances, free names kept explicit.

    `==` is `Value`'s, walked with an explicit stack over the node trees,
    so two trees of any depth compare; the hash is `Value`'s."""
    __slots__ = _fields = ("node",)

    def __init__(self, node: ANode):
        self.node = node

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self.node, other.node)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            cls = a.__class__
            if b.__class__ is not cls:
                return False
            if cls is AApp:
                if a.con != b.con:
                    return False
                todo.append((a.arg, b.arg))
            elif cls is AAbs:
                if a.sort != b.sort:
                    return False
                todo.append((a.body, b.body))
            elif cls is ATuple:
                if len(a.items) != len(b.items):
                    return False
                todo += zip(a.items, b.items)
            elif a != b:  # a leaf: Name, ABound or AUnit
                return False
        return True

    __hash__ = Value.__hash__

    def free_names(self) -> frozenset[Name]:
        return self.node.names

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
    # todo holds the nodes still to visit and, under each compound one,
    # the step (class, data) that builds its tree from those its children
    # left on `built`.  Nodes are visited in pre-order, so binders are
    # numbered in the order a left-to-right walk meets them.
    binders: list[Name] = []
    built: list[GroundTree] = []
    todo: list = [a.node]
    while todo:
        node = todo.pop()
        if isinstance(node, Name):
            built.append(node)
        elif isinstance(node, ABound):
            built.append(binders[-1 - node.depth])
        elif isinstance(node, AUnit):
            built.append(GUNIT)
        elif isinstance(node, ATuple):
            todo.append((GTuple, len(node.items)))
            todo.extend(reversed(node.items))
        elif isinstance(node, AApp):
            todo += ((GApp, node.con), node.arg)
        elif isinstance(node, AAbs):
            idx = counter.get(node.sort, 0)
            counter[node.sort] = idx + 1
            binders.append(Name(node.sort, idx))
            todo += ((GAbs, binders[-1]), node.body)
        else:
            cls, data = node
            if cls is GTuple:
                items = tuple(built[len(built) - data:])
                del built[len(built) - data:]
                built.append(GTuple(items))
            elif cls is GApp:
                built.append(GApp(data, built.pop()))
            else:  # the body is built: its binder leaves scope
                built.append(GAbs(data, built.pop()))
                binders.pop()
    (g,) = built
    return g


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
