"""Randomized algebraic properties of the ground-tree kernel, metamorphic
properties of the decision procedure, and properties of the reader."""
import contextlib
import inspect
import io
import random
import re
import sys
import tempfile
from functools import cache, reduce
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from npnas.kernel import GAbs, GApp, GTuple, GUNIT, Name, canonicalize, realize
from npnas import eubridge
from npnas.cli import (
    _position, _tokens, format_problem, main, parse_eu, parse_problem)
from npnas.decider import decide
from npnas.errors import NpnasError, SourceSyntaxError
from npnas.kernel import (
    AApp, ABound, AbsT, ATuple, AUnit, DataSortT, NameSortT, Signature,
    TupleT, UNIT_T, Value, make_signature)
from npnas.oracle import (
    random_eu_problem, random_problem, random_term, random_type,
    small_signature)
from npnas.schematic import (
    CLASH_ABS_OCCURS, CLASH_CON, CLASH_OCCURS, CLASH_SELF_FRESH, Eq, Fresh,
    Problem, SAbs, SApp, STuple, SUNIT, SUnit, Var, satisfies_all,
    subst_term)

from ground_ref import IDENTITY, alpha_eq, free_names, perm_apply, swap

names = st.integers(0, 3).map(lambda i: Name("nm", i))

trees = st.recursive(
    st.one_of(
        st.just(GApp("Z", GUNIT)),
        names.map(lambda a: GApp("V", a)),
    ),
    lambda sub: st.one_of(
        st.tuples(names, sub).map(lambda p: GApp("L", GAbs(*p))),
        st.tuples(sub, sub).map(lambda p: GApp("P", GTuple(p))),
    ),
    max_leaves=8,
)

perms = st.lists(st.tuples(names, names), max_size=3).map(
    lambda ps: reduce(lambda acc, ab: acc.then(swap(*ab)), ps, IDENTITY))


@given(trees, names)
def test_renamed_binder_is_alpha_equivalent(g, b):
    g2 = GApp("L", GAbs(b, g))
    fresh = Name("nm", max((n.index for n in free_names(g2)), default=-1) + 1)
    renamed = GApp("L", GAbs(fresh, perm_apply(swap(b, fresh), g)))
    assert alpha_eq(g2, renamed)


@given(perms, trees)
def test_permutation_action_respects_alpha_classes(pi, g):
    assert alpha_eq(g, perm_apply(pi.inverse(), perm_apply(pi, g)))
    assert canonicalize(perm_apply(pi, g)) == canonicalize(
        perm_apply(pi, realize(canonicalize(g))))


@given(trees)
@settings(max_examples=200)
def test_canonicalize_realize_round_trip(g):
    assert alpha_eq(realize(canonicalize(g)), g)


@given(trees, perms)
def test_free_names_are_equivariant(g, pi):
    assert free_names(perm_apply(pi, g)) == {pi(a) for a in free_names(g)}


@given(trees)
def test_alpha_tree_free_names_are_the_ground_tree_free_names(g):
    assert canonicalize(g).free_names() == free_names(g)


def reference_vars(t) -> frozenset[str]:
    """The variables of t by the recursive walk that once computed them."""
    if isinstance(t, Var):
        return frozenset([t.name])
    if isinstance(t, SUnit):
        return frozenset()
    if isinstance(t, STuple):
        out: frozenset[str] = frozenset()
        for item in t.items:
            out |= reference_vars(item)
        return out
    if isinstance(t, SApp):
        return reference_vars(t.arg)
    return reference_vars(t.body) | {t.binder}


_VARS_ENV = {"a": NameSortT("nm"), "b": NameSortT("nm"),
             "x": DataSortT("tm"), "y": AbsT("nm", DataSortT("tm"))}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_vars_are_the_reference_walk(seed):
    rng = random.Random(seed)
    sig = small_signature()
    ty = random_type(rng)
    lhs, rhs = (random_term(rng, sig, _VARS_ENV, ty, depth=4)
                for _ in range(2))
    renamed = subst_term(lhs, "a", Var("b"))
    for t in (lhs, rhs, renamed):
        assert t.vars == reference_vars(t)
    assert Eq(lhs, rhs).vars == reference_vars(lhs) | reference_vars(rhs)
    assert Fresh("a", rhs).vars == reference_vars(rhs) | {"a"}


def reference_prefix(t) -> tuple:
    """t's whole abstraction prefix and the body under it."""
    binders = []
    while isinstance(t, SAbs):
        binders.append(t.binder)
        t = t.body
    return tuple(binders), t


def reference_split(c: Eq) -> tuple:
    """An equation's split by the walk that once computed it: both whole
    prefixes are read off and cut at the shorter length, and the surplus
    binders are wrapped back around their body."""
    (xs, cl), (ys, cr) = reference_prefix(c.lhs), reference_prefix(c.rhs)
    k = min(len(xs), len(ys))
    for b in reversed(xs[k:]):
        cl = SAbs(b, cl)
    for b in reversed(ys[k:]):
        cr = SAbs(b, cr)
    return xs[:k], cl, ys[:k], cr


def reference_clash(c) -> str | None:
    """The clash shape of c, read from its reference split."""
    if isinstance(c, Fresh):
        return CLASH_SELF_FRESH if c.target == Var(c.var) else None
    xs, bl, _, br = reference_split(c)
    if isinstance(bl, Var) != isinstance(br, Var):
        x, t = (bl, br) if isinstance(bl, Var) else (br, bl)
        if x.name in reference_vars(t):
            return CLASH_ABS_OCCURS if xs else CLASH_OCCURS
    elif (isinstance(bl, SApp) and isinstance(br, SApp)
          and bl.con != br.con):
        return CLASH_CON
    return None


def reference_names(node) -> frozenset[Name]:
    """The free names of an alpha-tree node by a recursive walk."""
    if isinstance(node, Name):
        return frozenset([node])
    if isinstance(node, (ABound, AUnit)):
        return frozenset()
    if isinstance(node, ATuple):
        return frozenset().union(*map(reference_names, node.items))
    if isinstance(node, AApp):
        return reference_names(node.arg)
    return reference_names(node.body)


@cache
def _params(cls) -> tuple[str, ...]:
    return tuple(inspect.signature(cls).parameters)


def _fields(v) -> dict:
    """v's constructor arguments, read back from the attributes they set."""
    return {k: getattr(v, k) for k in _params(type(v))}


def _walk(v):
    """v and every value in its fields, their items and an env's types."""
    todo = [v]
    for v in todo:
        yield v
        for f in _fields(v).values():
            parts = (f.values() if isinstance(f, dict)
                     else f if isinstance(f, tuple) else (f,))
            todo.extend(x for x in parts if isinstance(x, Value))


_VALUE_CLASSES = Value.__subclasses__()


@given(st.integers(0, 2**32 - 1), trees)
@settings(max_examples=150)
def test_values_keep_the_value_contract(seed, g):
    rng = random.Random(seed)
    sig = small_signature()
    ty = random_type(rng)
    lhs, rhs = (random_term(rng, sig, _VARS_ENV, ty, depth=4)
                for _ in range(2))
    p = Problem(dict(_VARS_ENV), (Eq(lhs, rhs), Eq(rhs, lhs),
                                  Fresh("a", lhs), Fresh("a", rhs)))
    values = [*_walk(ty), *_walk(p), *_walk(canonicalize(g)), *_walk(g)]
    for v in values:
        cls = type(v)
        # A copy rebuilt from the fields by keyword is the same value.
        copy = cls(**_fields(v))
        assert copy == v and not copy != v
        # A copy with one field taken from another value of the class is
        # another value when that field differs.
        for f, old in _fields(v).items():
            new = next((getattr(w, f) for w in values if type(w) is cls
                        and getattr(w, f) != old), None)
            if new is not None:
                changed = cls(**{**_fields(v), f: new})
                assert changed != v and v != changed
        if isinstance(v, Problem):
            with pytest.raises(TypeError):
                hash(v)
        else:
            assert hash(copy) == hash(v)
        # Equal fields in another class make another value.
        for other in _VALUE_CLASSES:
            if other is cls or len(_params(other)) != len(_params(cls)):
                continue
            try:
                twin = other(*_fields(v).values())
            except (AttributeError, TypeError, ValueError):
                continue  # the fields do not fit that class
            assert twin != v and v != twin
        # The facts set in __init__ are the reference walks.
        if isinstance(v, Eq):
            assert v.vars == reference_vars(v.lhs) | reference_vars(v.rhs)
            assert v.split == reference_split(v)
        elif isinstance(v, Fresh):
            assert v.vars == reference_vars(v.target) | {v.var}
            assert (v.prefix, v.core) == reference_prefix(v.target)
        if isinstance(v, (Eq, Fresh)):
            assert v.clash == reference_clash(v)
        elif hasattr(v, "vars"):
            assert v.vars == reference_vars(v)
        if hasattr(v, "names"):
            assert v.names == reference_names(v)
        # No value has a __dict__; constraints and problems take weak
        # references.
        assert not hasattr(v, "__dict__")
        assert hasattr(v, "__weakref__") == isinstance(v, (Eq, Fresh, Problem))
    # `==` and `hash` read `_fields`, so they are the constructor's
    # parameters.
    for cls in _VALUE_CLASSES:
        assert cls._fields == _params(cls), cls
    assert NameSortT("nm") != DataSortT("nm")
    assert SApp("L", lhs) != SAbs("L", lhs)
    copy = Signature(**_fields(sig))
    assert copy == sig and copy.builders == sig.builders
    with pytest.raises(TypeError):
        hash(sig)


def _rename(t, m):
    if isinstance(t, Var):
        return Var(m[t.name])
    if isinstance(t, SAbs):
        return SAbs(m[t.binder], _rename(t.body, m))
    if isinstance(t, SApp):
        return SApp(t.con, _rename(t.arg, m))
    if isinstance(t, STuple):
        return STuple(tuple(_rename(item, m) for item in t.items))
    return t


def _rename_constraint(c, m):
    if isinstance(c, Eq):
        return Eq(_rename(c.lhs, m), _rename(c.rhs, m))
    return Fresh(m[c.var], _rename(c.target, m))


@given(st.integers(0, 2**32), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_verdict_ignores_names_order_and_duplicates(seed, rnd):
    # Renaming to the `_vK` names that narrowing generates, shuffling the
    # constraints and duplicating one leave a problem equisatisfiable.
    sig, p = random_problem(random.Random(seed), 6, 5)
    names = list(p.env)
    rnd.shuffle(names)
    m = {x: f"_v{k}" for k, x in enumerate(names)}
    cs = [_rename_constraint(c, m) for c in p.constraints]
    cs.append(rnd.choice(cs))
    rnd.shuffle(cs)
    q = Problem({m[x]: ty for x, ty in p.env.items()}, tuple(cs))
    r = decide(sig, q)
    assert r.sat == decide(sig, p).sat
    if r.sat:
        assert satisfies_all(r.witness, q)


# ---------------------------------------------------------------------------
# The reader

def _reference_tokens(text):
    """(token, offset) for each parenthesis and atom of text, by a scan
    character by character: only space, tab, CR and newline separate atoms,
    and `;` starts a comment that runs to the end of its line."""
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            out.append((text[i:j], i))
            i = j
    return out


def _line_col(text, offset):
    """1-based line and column; a tab or CR is one column like any other."""
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


def _bracket_error(text):
    """The first ')' with nothing open, or else the innermost '(' left
    open, as (message, (line, column)); None if the brackets balance."""
    opens = []
    for tok, at in _reference_tokens(text):
        if tok == "(":
            opens.append(at)
        elif tok == ")" and not opens:
            return "unmatched ')'", _line_col(text, at)
        elif tok == ")":
            opens.pop()
    return ("unclosed '('", _line_col(text, opens[-1])) if opens else None


def _error(exc):
    return str(exc).split(": ", 1)[1], (exc.line, exc.column)


# Parentheses, atoms, comments, every separator, and a form feed and a
# non-ASCII letter, which are parts of atoms.
_reader_texts = st.text(alphabet="()ab; \t\r\n\x0c xé", max_size=60)


@given(_reader_texts)
@settings(max_examples=500)
def test_reader_positions_match_token_offsets(text):
    reference = _reference_tokens(text)
    assert _tokens(text) == [tok for tok, _ in reference]
    assert [_position(text, i) for i in range(len(reference))] == [
        _line_col(text, at) for _, at in reference]
    error = _bracket_error(text)
    for parse in (parse_problem, parse_eu):
        try:
            parse(text)
        except SourceSyntaxError as exc:
            assert error is None or _error(exc) == error
        except NpnasError:
            assert error is None
        else:
            assert error is None


# Every separator str.split() knows besides space, tab, CR and LF: those
# are parts of atoms, as is any other character that is not `;`.
@given(st.text(alphabet="()a; \t\r\n\x0b\x0c\x1c\x1f\x85\xa0\u2028é",
               max_size=40))
@settings(max_examples=300)
def test_tokens_match_the_reference_scan(text):
    assert _tokens(text) == [tok for tok, _ in _reference_tokens(text)]


def _valid_texts():
    rng = random.Random(48)
    texts = [format_problem(*random_problem(rng)) for _ in range(20)]
    for _ in range(20):
        p = random_eu_problem(rng)
        texts.append(f"(eu (names {' '.join(p.names)}) "
                     f"(name-vars {' '.join(p.name_vars)}) "
                     f"(perm-vars {' '.join(p.perm_vars)}) "
                     f"(constraints {' '.join(map(str, p.constraints))}))")
    return texts


_VALID = _valid_texts()
_WORDS = ("(", ")", "()", "signature", "name-sort", "data-sort", "con",
          "vars", "constraints", "name", "data", "abs", "pair", "unit",
          "tuple", "eq", "fresh", "eu", "names", "name-vars", "perm-vars",
          "app", "swap", "id", "nm", "tm", "L", "Z", "a0", "x0", "A0", "c0",
          "Q")


@st.composite
def _edited(draw):
    """A valid .np or .eu text with up to three tokens deleted, replaced or
    inserted."""
    toks = re.findall(r"[()]|[^\s()]+", draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        toks[i:i + draw(st.integers(0, 1))] = draw(
            st.sampled_from(([], [draw(st.sampled_from(_WORDS))])))
    return " ".join(toks)


# Arbitrary text, words of both formats, and edited valid files, which get
# past the reader to the checks behind it.  Nesting past the recursion limit
# is a resource limit (exit 3), tested in tests/test_cli.py.
_texts = st.one_of(
    st.text(max_size=80),
    _reader_texts,
    st.lists(st.sampled_from(_WORDS + (";", "\n")), max_size=40).map(" ".join),
    _edited())


@given(_texts)
@settings(max_examples=250, deadline=None)
def test_arbitrary_text_is_accepted_or_an_input_error(text):
    for parse in (parse_problem, parse_eu):
        try:
            parse(text)
        except NpnasError:
            pass
    with tempfile.TemporaryDirectory() as d:
        for name in ("input.np", "input.eu"):
            path = Path(d) / name
            path.write_text(text, encoding="utf-8", newline="")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", str(path)])
            assert code in (0, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# The reference reader: the two-pass reader the command line had before it
# read in one pass.  It builds a tree of atoms and lists first, then walks
# the tree recursively.

_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _ref_position(text, index):
    """Line and column of token `index` of text, comments counted."""
    at = next(islice(_TOKEN.finditer(text), index, None)).start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class Atom:
    def __init__(self, value, index, text):
        self.value, self.index, self.text = value, index, text

    def error(self, message):
        return SourceSyntaxError(message, *_ref_position(self.text, self.index))


class SList(Atom):
    def __init__(self, items, index, text):
        self.items, self.index, self.text = items, index, text


def parse_sexprs(text):
    stack, opens, top = [], [], []
    for i, tok in enumerate(_TOKEN.findall(text)):
        if tok == "(":
            stack.append(top)
            opens.append(i)
            top = []
        elif tok == ")":
            if not stack:
                raise SourceSyntaxError("unmatched ')'",
                                        *_ref_position(text, i))
            done = SList(tuple(top), opens.pop(), text)
            top = stack.pop()
            top.append(done)
        elif tok[0] != ";":
            top.append(Atom(tok, i, text))
    if stack:
        raise SourceSyntaxError("unclosed '('",
                                *_ref_position(text, opens[-1]))
    return top


def _want_atom(sx, what):
    if isinstance(sx, SList):
        raise sx.error(f"expected {what}")
    return sx.value


def _want_list(sx, what):
    if not isinstance(sx, SList):
        raise sx.error(f"expected {what}")
    return sx


def _head(sx):
    if not sx.items or isinstance(sx.items[0], SList):
        raise sx.error("expected a keyword after '('")
    return sx.items[0].value


def ref_parse_type(sx):
    if not isinstance(sx, SList):
        if sx.value == "unit":
            return UNIT_T
        raise sx.error(f"unknown type {sx.value}")
    match _head(sx), len(sx.items):
        case "name", 2:
            return NameSortT(_want_atom(sx.items[1], "a sort name"))
        case "data", 2:
            return DataSortT(_want_atom(sx.items[1], "a sort name"))
        case "abs", 3:
            binder = _want_list(sx.items[1], "(name SYM)")
            if _head(binder) != "name" or len(binder.items) != 2:
                raise binder.error("binder type must be (name SYM)")
            return AbsT(_want_atom(binder.items[1], "a sort name"),
                        ref_parse_type(sx.items[2]))
        case "pair", n if n >= 3:
            return TupleT(tuple(ref_parse_type(t) for t in sx.items[1:]))
    raise sx.error("malformed type")


def ref_parse_term(sx):
    if not isinstance(sx, SList):
        return SUNIT if sx.value == "unit" else Var(sx.value)
    match _head(sx), len(sx.items):
        case "abs", 3:
            return SAbs(_want_atom(sx.items[1], "a binder variable"),
                        ref_parse_term(sx.items[2]))
        case "con", 3:
            return SApp(_want_atom(sx.items[1], "a constructor name"),
                        ref_parse_term(sx.items[2]))
        case "tuple", n if n >= 3:
            return STuple(tuple(ref_parse_term(t) for t in sx.items[1:]))
    raise sx.error("malformed term")


def _ref_constraint(sx):
    sx = _want_list(sx, "a constraint")
    match _head(sx), len(sx.items):
        case "eq", 3:
            return Eq(ref_parse_term(sx.items[1]), ref_parse_term(sx.items[2]))
        case "fresh", 3:
            return Fresh(_want_atom(sx.items[1], "a variable"),
                         ref_parse_term(sx.items[2]))
    raise sx.error("malformed constraint")


def _declare_sort(sorts, others, item, what):
    sort = _want_atom(item.items[1], "a sort name")
    if sort in sorts:
        raise item.error(f"{what} {sort} declared twice")
    if sort in others:
        raise item.error(f"sort {sort} declared as both name sort and data sort")
    sorts.append(sort)


def ref_parse_problem(text):
    name_sorts, data_sorts, cons, env, constraints = [], [], {}, {}, []
    seen = set()
    for form in parse_sexprs(text):
        form = _want_list(form, "a top-level form")
        match _head(form):
            case "signature":
                for item in form.items[1:]:
                    item = _want_list(item, "a signature entry")
                    match _head(item), len(item.items):
                        case "name-sort", 2:
                            _declare_sort(name_sorts, data_sorts, item,
                                          "name sort")
                        case "data-sort", 2:
                            _declare_sort(data_sorts, name_sorts, item,
                                          "data sort")
                        case "con", 4:
                            k = _want_atom(item.items[1], "a constructor name")
                            if k in cons:
                                raise item.error(f"constructor {k} declared twice")
                            cons[k] = (ref_parse_type(item.items[2]),
                                       _want_atom(item.items[3], "a sort name"))
                        case _:
                            raise item.error("malformed signature entry")
            case "vars":
                for item in form.items[1:]:
                    item = _want_list(item, "a variable declaration")
                    if len(item.items) != 2:
                        raise item.error("expected (SYM TYPE)")
                    x = _want_atom(item.items[0], "a variable")
                    if x == "unit":
                        raise item.error("unit is a term, not a variable name")
                    if x in env:
                        raise item.error(f"variable {x} declared twice")
                    env[x] = ref_parse_type(item.items[1])
            case "constraints":
                constraints.extend(map(_ref_constraint, form.items[1:]))
            case other:
                raise form.error(f"unknown form {other}")
        seen.add(form.items[0].value)
    if len(seen) < 3:
        raise SourceSyntaxError(
            "a problem needs signature, vars and constraints forms", 1, 1)
    return (make_signature(name_sorts, data_sorts, cons),
            Problem(env, tuple(constraints)))


def _ref_nt(sx):
    if not isinstance(sx, SList):
        return eubridge.Vertex(sx.value)
    if _head(sx) == "app" and len(sx.items) == 3:
        return eubridge.Susp(_ref_perm(sx.items[1]), _ref_nt(sx.items[2]))
    raise sx.error("malformed name-term")


def _ref_perm(sx):
    if not isinstance(sx, SList):
        return eubridge.PIdent() if sx.value == "id" else eubridge.PVar(sx.value)
    if _head(sx) == "swap" and len(sx.items) == 3:
        return eubridge.PSwap(_ref_nt(sx.items[1]), _ref_nt(sx.items[2]))
    raise sx.error("malformed permutation")


def ref_parse_eu(text):
    forms = parse_sexprs(text)
    if len(forms) != 1:
        raise SourceSyntaxError("expected a single (eu ...) form", 1, 1)
    form = _want_list(forms[0], "(eu ...)")
    if _head(form) != "eu":
        raise form.error("expected (eu ...)")
    sections = {"names": [], "name-vars": [], "perm-vars": []}
    constraints = []
    for part in form.items[1:]:
        part = _want_list(part, "an eu section")
        match _head(part):
            case "names" | "name-vars" | "perm-vars" as name:
                what = "a name" if name == "names" else "a variable"
                sections[name] += [_want_atom(a, what) for a in part.items[1:]]
            case "constraints":
                for c in part.items[1:]:
                    c = _want_list(c, "a constraint")
                    match _head(c), len(c.items):
                        case "eq", 3:
                            constraints.append(eubridge.EUEq(
                                _ref_nt(c.items[1]), _ref_nt(c.items[2])))
                        case "fresh", 3:
                            constraints.append(eubridge.EUFresh(
                                _ref_nt(c.items[1]), _ref_nt(c.items[2])))
                        case _:
                            raise c.error("malformed constraint")
            case other:
                raise part.error(f"unknown eu section {other}")
    p = eubridge.EUProblem(*map(tuple, sections.values()), tuple(constraints))
    eubridge.validate_eu(p)
    return p


# Errors the reader must report as the reference does, message, line and
# column alike.  The reference sees a form's length before its items, so
# where it calls a form of the wrong length malformed, the one-pass reader
# may find a declaration error inside it first.
_EXACT = re.compile(r"^(unmatched|unclosed|.* declared (twice|as both)"
                    r"|unit is a term)")
_DECLARATIONS = (
    "(signature (name-sort A) (data-sort D))\n"
    "(vars (x (name A))\n      (x (data D)))\n(constraints)",
    "(signature (data-sort D)\n  (con K unit D)\n  (con K (data D) D))\n"
    "(vars)\n(constraints)",
    "(signature (name-sort A) (data-sort D) (con K unit D)\n"
    "  (name-sort A))\n(vars)\n(constraints)",
    "(signature (name-sort A)\n  (data-sort A) (con K unit A))\n"
    "(vars)\n(constraints)",
    "(signature (name-sort A))\n(vars (y (name A))\n      (unit (name A)))\n"
    "(constraints)",
    "(signature (name-sort A) (con K unit A)) (vars) (constraints)",
)


def _outcome(parse, text):
    try:
        return parse(text)
    except NpnasError as exc:
        return exc


def _agrees_with_reference(text):
    for ref, new in ((ref_parse_problem, parse_problem),
                     (ref_parse_eu, parse_eu)):
        want, got = _outcome(ref, text), _outcome(new, text)
        if not isinstance(want, NpnasError):
            # Only the .eu reader's rules against declaring unit, and id as
            # a permutation variable, are new.
            if (isinstance(got, SourceSyntaxError)
                    and "unit cannot be" in str(got)):
                assert "unit" in (*want.names, *want.name_vars,
                                  *want.perm_vars)
            elif (isinstance(got, SourceSyntaxError)
                    and "id cannot be" in str(got)):
                assert "id" in want.perm_vars
            else:
                assert got == want
        elif isinstance(want, SourceSyntaxError) and _EXACT.match(
                _error(want)[0]):
            assert isinstance(got, SourceSyntaxError)
            assert _error(got) == _error(want)
        else:
            assert isinstance(got, NpnasError)


@given(_texts)
@settings(max_examples=500, deadline=None)
def test_reader_agrees_with_the_reference(text):
    _agrees_with_reference(text)


def _shapes():
    """Small problems with each form of the grammar well and badly shaped."""
    np = ("(signature (name-sort A) (data-sort D) (con K unit D) {sig})\n"
          "(vars (a (name A)) (x (data D)) {vars})\n(constraints {cs})")
    types = ("unit", "bar", "(name A)", "(name)", "(name A B)", "(name (A))",
             "(data D)", "(pair unit)", "(pair)", "(pair unit (name A))",
             "(abs (name A) unit)", "(abs (name A))", "(abs (name A) unit unit)",
             "(abs (data A) unit)", "(abs A unit)", "(abs (name) unit)",
             "(abs (name A B) unit)", "(abs ((name A)) unit)", "(foo)", "()",
             "(())")
    terms = ("x", "unit", "(tuple x x)", "(tuple x)", "(tuple)", "(abs a x)",
             "(abs a)", "(abs a x x)", "(abs (a) x)", "(abs unit x)",
             "(con K unit)", "(con K)", "(con K unit unit)", "(con (K) unit)",
             "(foo x)", "()", "(unit)")
    constraints = ("(eq x)", "(eq)", "(eq x x x)", "(fresh a)", "(fresh a x)",
                   "(fresh (a) x)", "(fresh a x x)", "(neq x x)", "()", "x")
    entries = ("(name-sort)", "(name-sort B C)", "(data-sort (B))",
               "(con L unit)", "(con L unit D E)", "(con (L) unit D)",
               "(con L unit (D))", "(foo)", "x")
    declarations = ("(y)", "(y unit unit)", "((y) unit)", "y")
    texts = [np.format(sig="", vars=f"(y {ty})", cs="") for ty in types]
    texts += [np.format(sig="", vars="", cs=f"(eq x {t})") for t in terms]
    texts += [np.format(sig="", vars="", cs=c) for c in constraints]
    texts += [np.format(sig=e, vars="", cs="") for e in entries]
    texts += [np.format(sig="", vars=d, cs="") for d in declarations]
    eu = "(eu (names c) (name-vars A B) (perm-vars Q) (constraints {}))"
    name_terms = ("A", "(app id A)", "(app Q A)", "(app)", "(app Q)",
                  "(app id A B)", "(app (swap A B) c)", "(app (swap A) c)",
                  "(app (swap A B c) c)", "(app (app id A) B)", "(swap A B)",
                  "(app (swap (app Q A) B) c)", "(app Q (app Q A))", "(foo)",
                  "()")
    texts += [eu.format(f"(eq A {nt})") for nt in name_terms]
    texts += [eu.format(c) for c in constraints]
    texts.append("(eu (names a b) (name-vars) (perm-vars id)"
                 " (constraints (eq (app id a) b)))")
    return texts


_SHAPED = _DECLARATIONS + tuple(_shapes())


@pytest.mark.parametrize("text", _SHAPED,
                         ids=[f"text{i}" for i in range(len(_SHAPED))])
def test_shaped_forms_read_as_the_reference_reads_them(text):
    _agrees_with_reference(text)


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "problems").iterdir()),
    ids=lambda path: path.name)
def test_problem_files_read_as_the_reference_reads_them(path):
    text = path.read_text(encoding="utf-8")
    _agrees_with_reference(text)
    parse = parse_eu if path.suffix == ".eu" else parse_problem
    assert not isinstance(_outcome(parse, text), NpnasError)


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_formatted_problem_reads_back(seed):
    sig, p = random_problem(random.Random(seed), 6, 5)
    assert parse_problem(format_problem(sig, p)) == (sig, p)


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_translated_eu_problem_reads_back(seed):
    p = eubridge.translate_eu(random_eu_problem(random.Random(seed)))
    text = format_problem(eubridge.EU_SIGNATURE, p)
    assert parse_problem(text) == (eubridge.EU_SIGNATURE, p)


# ---------------------------------------------------------------------------
# Deep and wide problems through the command line

_SIGNATURE = ("(signature (name-sort nm) (data-sort tm)\n"
              "  (con Z unit tm) (con V (name nm) tm)\n"
              "  (con L (abs (name nm) (data tm)) tm)\n"
              "  (con P (pair (data tm) (data tm)) tm))\n"
              "(vars (a (name nm)) (b (name nm)) (x (data tm)) (y (data tm)))\n")
_LEAVES = ("x", "y", "(con V a)", "(con V b)", "(con Z unit)")


def _term(depth, leaf):
    """`depth` levels alternating L over an abstraction and P over a pair."""
    t = _LEAVES[leaf]
    for i in range(depth):
        t = (f"(con L (abs b {t}))" if i % 2 == 0
             else f"(con P (tuple {t} (con Z unit)))")
    return t


def _constraint(kind, var, depth, leaf):
    t = _term(depth, leaf)
    return (f"(eq {'xy'[var]} {t})", f"(fresh {'ab'[var]} {t})",
            f"(eq (abs a {'xy'[var]}) (abs b {t}))")[kind]


_shape = st.tuples(st.integers(0, 2), st.integers(0, 1))
# One constraint with a term up to 400 levels deep, or up to 60 shallow ones.
_deep_or_wide = st.one_of(
    st.tuples(_shape, st.integers(0, 400), st.integers(0, 4)).map(lambda c: [c]),
    st.lists(st.tuples(_shape, st.integers(0, 3), st.integers(0, 4)),
             min_size=1, max_size=60))


@given(_deep_or_wide)
@settings(max_examples=20, deadline=None)
def test_deep_or_wide_problem_gets_an_exit_code(cs):
    text = _SIGNATURE + "(constraints\n" + "\n".join(
        _constraint(kind, var, depth, leaf)
        for (kind, var), depth, leaf in cs) + ")\n"
    # Hypothesis raises the recursion limit while a test runs; the command
    # runs under the interpreter's default, as `npnas solve` does.
    limit = sys.getrecursionlimit()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.np"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        sys.setrecursionlimit(1000)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["solve", "--budget", "2000", str(path)])
        finally:
            sys.setrecursionlimit(limit)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
