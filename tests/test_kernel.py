import ast
import pathlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from npnas import kernel
from npnas.errors import TypeMismatch, Uninhabited, ValidationError
from npnas.kernel import (
    AAbs,
    AApp,
    ABound,
    AbsT,
    AlphaTree,
    ATuple,
    AUNIT,
    DataSortT,
    GAbs,
    GApp,
    GTuple,
    GUNIT,
    Name,
    NameSortT,
    TupleT,
    UNIT_T,
    canonicalize,
    inhabitant,
    make_signature,
    realize,
)
from npnas.oracle import random_type, small_signature

from conftest import random_gtree
from ground_ref import (
    alpha_eq, check_tree, free_names, fresh_name, perm_apply, ref_inhabitant,
    swap)

a0, a1, a2 = Name("A", 0), Name("A", 1), Name("A", 2)


# ---------------------------------------------------------------------------
# Signatures

def test_signature_rejects_overlapping_sorts():
    with pytest.raises(ValidationError):
        make_signature({"s"}, {"s"}, {})


def test_signature_rejects_undeclared_result_sort():
    with pytest.raises(ValidationError):
        make_signature(set(), set(), {"K": (UNIT_T, "nowhere")})


def test_signature_rejects_uninhabited_data_sort():
    # The only constructor of d needs a d: no ground tree exists.
    with pytest.raises(Uninhabited):
        make_signature(set(), {"d"}, {"K": (DataSortT("d"), "d")})


def test_signature_accepts_mutual_recursion_with_base_case():
    sig = make_signature(set(), {"d", "e"}, {
        "Base": (UNIT_T, "d"),
        "D2E": (DataSortT("d"), "e"),
        "E2D": (DataSortT("e"), "d"),
    })
    assert sig.arg_type("D2E") == DataSortT("d")


# ---------------------------------------------------------------------------
# Permutations

def test_swap_requires_matching_sorts():
    with pytest.raises(ValueError):
        swap(Name("A", 0), Name("B", 0))


def test_permutation_application_and_inverse():
    pi = swap(a0, a1).then(swap(a1, a2))
    for n in (a0, a1, a2, Name("A", 7)):
        assert pi.inverse()(pi(n)) == n
    # right-to-left: the swap (a0 a1) acts first
    assert pi(a0) == a2
    assert pi(a1) == a0
    assert pi(a2) == a1


def test_perm_apply_renames_binders_too():
    g = GAbs(a0, GTuple((a0, a1)))
    out = perm_apply(swap(a0, a1), g)
    assert out == GAbs(a1, GTuple((a1, a0)))


# ---------------------------------------------------------------------------
# Freshness and alpha-equivalence

def test_fresh_name_ignores_bound_occurrences():
    g = GAbs(a0, a0)
    assert fresh_name(a0, g)
    assert not fresh_name(a0, GTuple((g, a0)))


def test_alpha_eq_renames_binders():
    assert alpha_eq(GAbs(a0, a0), GAbs(a1, a1))
    assert alpha_eq(GAbs(a0, a2), GAbs(a1, a2))


def test_alpha_eq_respects_capture():
    # <a0>a1 and <a1>a1 differ: the second body is bound.
    assert not alpha_eq(GAbs(a0, a1), GAbs(a1, a1))


def test_alpha_eq_distinguishes_free_names():
    assert not alpha_eq(a0, a1)


def test_alpha_eq_needs_matching_binder_sorts():
    assert not alpha_eq(GAbs(a0, GUNIT), GAbs(Name("B", 0), GUNIT))


# ---------------------------------------------------------------------------
# Canonical forms

def test_canonicalize_coincides_with_alpha_eq():
    rng = random.Random(11)
    for _ in range(300):
        g1 = random_gtree(rng)
        g2 = random_gtree(rng)
        assert alpha_eq(g1, g2) == (canonicalize(g1) == canonicalize(g2))


def test_realize_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        g = random_gtree(rng)
        a = canonicalize(g)
        assert alpha_eq(realize(a), g)
        assert canonicalize(realize(a)) == a


def test_free_names_agree_between_representations():
    rng = random.Random(13)
    for _ in range(100):
        g = random_gtree(rng)
        assert canonicalize(g).free_names() == free_names(g)


def test_alpha_tree_name_accessors():
    t = AlphaTree(a0)
    assert t.is_name() and t.name() == a0
    with pytest.raises(TypeMismatch):
        canonicalize(GUNIT).name()


def _deep_node(depth: int, leaf):
    """`depth` levels, alternating L over an abstraction and P over a pair,
    around leaf; each call builds its own nodes."""
    node = AApp("V", leaf)
    for i in range(depth):
        node = (AApp("L", AAbs("A", node)) if i % 2 == 0
                else AApp("P", ATuple((node, AApp("Z", AUNIT)))))
    return node


def test_deep_alpha_trees_compare():
    # AlphaTree's `==` walks with an explicit stack, so depth is no limit.
    deep = AlphaTree(_deep_node(10_000, a0))
    assert deep == AlphaTree(_deep_node(10_000, a0))
    for leaf in (a1, ABound(0)):
        other = AlphaTree(_deep_node(10_000, leaf))
        assert deep != other and not deep == other


def test_only_value_and_alpha_tree_define_equality():
    # `==` and `hash` are written once, in Value; AlphaTree only walks its
    # nodes with a stack.  `__hash__ = None` marks a value with a mapping.
    package = pathlib.Path(kernel.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or cls.name in (
                    "Value", "AlphaTree"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign) and not (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is None):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}: {cls.name}.{name}" for name in names
                          if name in ("__eq__", "__hash__")]
    assert not found, found


# ---------------------------------------------------------------------------
# Inhabitants

def test_inhabitant_typechecks():
    sig = small_signature()
    for ty in (DataSortT("tm"), AbsT("nm", DataSortT("tm")),
               TupleT((NameSortT("nm"), DataSortT("tm")))):
        check_tree(sig, realize(inhabitant(sig, ty)), ty)


@st.composite
def inhabited_signatures(draw):
    """A signature over 1-2 name sorts and 1-4 data sorts with 1-6
    constructors; make_signature must accept it."""
    names = [f"N{i}" for i in range(draw(st.integers(1, 2)))]
    datas = [f"D{i}" for i in range(draw(st.integers(1, 4)))]
    # Data sorts are drawn twice as often as the other leaves: loops in
    # building an inhabitant come from arguments that mention data sorts.
    data = st.sampled_from(datas).map(DataSortT)
    leaves = st.one_of(data, st.just(UNIT_T),
                       st.sampled_from(names).map(NameSortT), data)
    types = st.recursive(leaves, lambda inner: st.one_of(
        st.builds(AbsT, st.sampled_from(names), inner),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda items: TupleT(tuple(items)))), max_leaves=4)
    n = draw(st.integers(len(datas), 6))
    # Every data sort gets a constructor; the names are in a drawn order, so
    # the first by name need not be the first declared.
    results = datas + draw(st.lists(st.sampled_from(datas),
                                    min_size=n - len(datas),
                                    max_size=n - len(datas)))
    cons = draw(st.permutations([f"k{i}" for i in range(n)]))
    constructors = {k: (draw(types), res) for k, res in zip(cons, results)}
    try:
        return make_signature(names, datas, constructors)
    except Uninhabited:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(inhabited_signatures())
def test_every_data_sort_has_a_checked_inhabitant(sig):
    for d in sorted(sig.data_sorts):
        check_tree(sig, realize(inhabitant(sig, DataSortT(d))), DataSortT(d))


def test_inhabitant_reuses_the_signature_builder_table(monkeypatch):
    # make_signature builds the table; inhabitant walks no constructor again.
    sig = small_signature()
    monkeypatch.setattr(kernel, "type_sorts", None)
    for _ in range(2):
        check_tree(sig, realize(inhabitant(sig, DataSortT("tm"))), DataSortT("tm"))


def test_make_signature_walks_each_constructor_once(monkeypatch):
    walked = []
    walk = kernel.type_sorts

    def counting(ty):
        walked.append(ty)
        return walk(ty)

    monkeypatch.setattr(kernel, "type_sorts", counting)
    sig = small_signature()
    assert sorted(map(str, walked)) == sorted(
        str(arg) for arg, _ in sig.constructors.values())


def test_inhabitant_start_index_bounds_free_names():
    sig = small_signature()
    a = inhabitant(sig, TupleT((NameSortT("nm"), NameSortT("nm"))), 5)
    assert all(n.index >= 5 for n in a.free_names())


# A second name sort ob: K's argument binds an ob name across an nm binder,
# and a binder of one sort never captures a name of the other.
TWO_NAME_SORTS = make_signature(["nm", "ob"], ["tm", "d"], {
    "Z": (UNIT_T, "tm"),
    "K": (AbsT("ob", TupleT((NameSortT("nm"), NameSortT("ob"),
                             AbsT("nm", TupleT((NameSortT("ob"),
                                                DataSortT("tm"))))))), "d"),
})


def _two_sorted(rng, ty):
    """ty with each name sort and data sort redrawn from TWO_NAME_SORTS."""
    if isinstance(ty, NameSortT):
        return NameSortT(rng.choice(("nm", "ob")))
    if isinstance(ty, DataSortT):
        return DataSortT(rng.choice(("tm", "d")))
    if isinstance(ty, AbsT):
        return AbsT(rng.choice(("nm", "ob")), _two_sorted(rng, ty.body))
    if isinstance(ty, TupleT):
        return TupleT(tuple(_two_sorted(rng, t) for t in ty.items))
    return ty


@pytest.mark.parametrize("two_sorts", [False, True])
def test_inhabitant_is_the_canonical_reference_inhabitant(two_sorts):
    sig = TWO_NAME_SORTS if two_sorts else small_signature()
    rng = random.Random(17)
    for _ in range(400):
        ty = random_type(rng, rng.choice((3, 4)))
        if two_sorts:
            ty = _two_sorted(rng, ty)
        for k in (0, 1, 3):
            a = inhabitant(sig, ty, k)
            assert a == canonicalize(ref_inhabitant(sig, ty, k)), (ty, k)
            check_tree(sig, realize(a), ty)


def test_check_tree_rejects_wrong_constructor_sort():
    sig = small_signature()
    with pytest.raises(TypeMismatch):
        check_tree(sig, GApp("Z", GUNIT), NameSortT("nm"))
