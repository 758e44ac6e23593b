"""Randomized algebraic properties of the ground-tree kernel, metamorphic
properties of the decision procedure, and properties of the reader."""
import contextlib
import io
import random
import re
import sys
import tempfile
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from npnas.kernel import (
    GAbs,
    GApp,
    GTuple,
    GUNIT,
    IDENTITY,
    Name,
    alpha_eq,
    canonicalize,
    free_names,
    perm_apply,
    realize,
    swap,
)
from npnas.cli import (
    Atom, SList, format_problem, main, parse_eu, parse_problem, parse_sexprs)
from npnas.decider import decide
from npnas.errors import NpnasError, SourceSyntaxError
from npnas.oracle import random_eu_problem, random_problem
from npnas.schematic import (
    Eq, Fresh, Problem, SAbs, SApp, STuple, Var, satisfies_all)

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


def _position(text, offset):
    """1-based line and column; a tab or CR is one column like any other."""
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


def _preorder(forms):
    """Each node of forms in the order of its first token."""
    stack = list(reversed(forms))
    while stack:
        sx = stack.pop()
        yield sx
        if isinstance(sx, SList):
            stack.extend(reversed(sx.items))


# Parentheses, atoms, comments, every separator, and a form feed and a
# non-ASCII letter, which are parts of atoms.
_reader_texts = st.text(alphabet="()ab; \t\r\n\x0c xé", max_size=60)


@given(_reader_texts)
@settings(max_examples=500)
def test_reader_positions_match_token_offsets(text):
    expected, opens, error = [], [], None
    for tok, at in _reference_tokens(text):
        if tok == ")":
            if not opens:
                error = ("unmatched ')'", _position(text, at))
                break
            opens.pop()
            continue
        if tok == "(":
            opens.append(at)
        expected.append((tok, _position(text, at)))
    if error is None and opens:
        error = ("unclosed '('", _position(text, opens[-1]))
    if error is not None:
        with pytest.raises(SourceSyntaxError) as e:
            parse_sexprs(text)
        assert (str(e.value).split(": ", 1)[1],
                (e.value.line, e.value.column)) == error
        return
    got = [(sx.value if isinstance(sx, Atom) else "(", (sx.line, sx.col))
           for sx in _preorder(parse_sexprs(text))]
    assert got == expected


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
