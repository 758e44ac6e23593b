import pathlib
import re

import pytest

from npnas.cli import (
    _position,
    _tokens,
    format_problem,
    main,
    parse_eu,
    parse_problem,
)
from npnas.decider import decide
from npnas.errors import IllFormedProblem, SourceSyntaxError, ValidationError
from npnas.kernel import (
    AbsT,
    DataSortT,
    NameSortT,
    TupleT,
    UNIT_T,
    realize,
)
from npnas.schematic import (
    SAbs,
    SApp,
    STuple,
    SUNIT,
    Var,
    check_problem,
    satisfies_all,
)

from ground_ref import check_tree

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


# ---------------------------------------------------------------------------
# Parsing

def test_sexpr_positions_in_errors():
    # Bracket errors come before any other error, in both formats.
    for parse in (parse_problem, parse_eu):
        with pytest.raises(SourceSyntaxError, match="unclosed") as e:
            parse("(a\n  (b)")
        assert e.value.line == 1 and e.value.column == 1
        with pytest.raises(SourceSyntaxError, match="unmatched") as e2:
            parse("(a))")
        assert e2.value.line == 1 and e2.value.column == 4


def test_sexpr_positions_after_tabs_returns_and_comments():
    # A tab and a carriage return each count as one column.
    text = "(a\tb) ; trailing\r\n"
    assert [_position(text, i) for i in (1, 2)] == [(1, 2), (1, 4)]
    with pytest.raises(SourceSyntaxError, match="unmatched") as e:
        parse_problem("(a\tb) ; trailing\r\n\t\r )")
    assert e.value.line == 2 and e.value.column == 4


def test_sexpr_comments_ignored():
    assert _tokens("; comment\n(a b) ; trailing\n") == ["(", "a", "b", ")"]


def _read_type(text):
    sig, p = parse_problem(f"(signature) (vars (x {text})) (constraints)")
    return p.env["x"]


def _read_term(text):
    sig, p = parse_problem(f"(signature) (vars) (constraints (eq {text} x))")
    return p.constraints[0].lhs


def test_parse_type_round_trip():
    for text, ty in [
        ("unit", UNIT_T),
        ("(name A)", NameSortT("A")),
        ("(abs (name A) unit)", AbsT("A", UNIT_T)),
        ("(pair unit (name A))", TupleT((UNIT_T, NameSortT("A")))),
    ]:
        assert _read_type(text) == ty
        assert _read_type(str(ty)) == ty


def test_parse_term_round_trip():
    for text, t in [
        ("x", Var("x")),
        ("unit", SUNIT),
        ("(abs a x)", SAbs("a", Var("x"))),
        ("(con K unit)", SApp("K", SUNIT)),
        ("(tuple x unit)", STuple((Var("x"), SUNIT))),
    ]:
        assert _read_term(text) == t
        assert _read_term(str(t)) == t


def test_problem_files_round_trip():
    for path in PROBLEMS.glob("*.np"):
        sig, p = parse_problem(path.read_text())
        sig2, p2 = parse_problem(format_problem(sig, p))
        assert sig2 == sig
        assert p2 == p


def test_parse_problem_requires_all_sections():
    with pytest.raises(SourceSyntaxError):
        parse_problem("(signature (name-sort A)) (vars)")


def test_parse_eu_file():
    p = parse_eu((PROBLEMS / "ex67.eu").read_text())
    assert p.name_vars == ("A", "B")
    assert p.perm_vars == ("Q", "Qp")
    assert len(p.constraints) == 2


def test_parse_eu_joins_repeated_sections():
    p = parse_eu("(eu (names) (name-vars A B) (perm-vars) (name-vars C)\n"
                 "    (perm-vars Q) (names c) (constraints (fresh C C)))")
    assert p.names == ("c",)
    assert p.name_vars == ("A", "B", "C")
    assert p.perm_vars == ("Q",)
    # A symbol that two sections declare is a duplicate declaration.
    with pytest.raises(ValidationError, match="duplicate symbol"):
        parse_eu("(eu (name-vars A) (perm-vars) (name-vars A)\n"
                 "    (constraints (eq A A)))")


# ---------------------------------------------------------------------------
# Commands and exit codes

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_readme_transcripts_match_the_cli(capsys, monkeypatch):
    # Each ```text block of the README that starts with `$ npnas ...` shows
    # that command's whole output, run from the root of the repository.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```text\n\$ npnas ([^\n]*)\n(.*?)```", readme, re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    for command, shown in blocks:
        _, out, _ = run(capsys, *command.split())
        assert out == shown, command


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", str(PROBLEMS / "swap-pair.np"))
    assert code == 0 and out.strip() == "ok"
    code, _, _ = run(capsys, "check", str(PROBLEMS / "ex67.eu"))
    assert code == 0


def test_solve_sat(capsys):
    code, out, _ = run(capsys, "solve", str(PROBLEMS / "swap-pair.np"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "result: sat"
    assert any(line.startswith("x = ") for line in lines)
    assert any(line.startswith("stats: nodes=") for line in lines)


def test_solve_unsat(capsys):
    code, out, _ = run(capsys, "solve", str(PROBLEMS / "swap-pair-fresh.np"))
    assert code == 1
    assert "result: unsat" in out
    assert "reason: exhausted-normal-forms" in out


def test_solve_fo_unsat(capsys):
    code, out, _ = run(capsys, "solve", str(PROBLEMS / "nat-divergence.np"))
    assert code == 1
    assert "reason: fo-reduction" in out
    assert "nodes=0" in out


def test_fo_command_prints_reduced_problem(capsys):
    code, out, _ = run(capsys, "fo", str(PROBLEMS / "nat-divergence.np"))
    assert code == 1
    assert "(signature" in out
    assert "(tuple unit" in out       # collapsed abstraction
    assert "result: unsat" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", str(PROBLEMS / "swap-pair.np"))
    assert code == 0
    assert "result: sat" in out
    assert "exact: true" in out


def test_translate_and_solve(tmp_path, capsys):
    out_file = tmp_path / "out.np"
    code, _, _ = run(capsys, "translate-eu", str(PROBLEMS / "ex67.eu"),
                     "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(out_file))
    assert code == 1
    assert "result: unsat" in out


def test_eu_oracle_command(capsys):
    code, out, _ = run(capsys, "eu-oracle", str(PROBLEMS / "ex67.eu"))
    assert code == 1
    assert "result: unsat" in out


@pytest.mark.parametrize("command", ["solve", "fo", "oracle"])
def test_eu_file_is_pointed_to_the_eu_commands(capsys, command):
    path = str(PROBLEMS / "ex67.eu")
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err == (f"error: {path}: .eu files go through translate-eu "
                   "or eu-oracle\n")


def test_solve_has_no_strategy_option(capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", "--strategy", "full", str(PROBLEMS / "swap-pair.np")])
    assert e.value.code == 2
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.np")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command, suffix", [
    ("check", ".np"), ("check", ".eu"), ("solve", ".np"), ("fo", ".np"),
    ("oracle", ".np"), ("translate-eu", ".eu"), ("eu-oracle", ".eu")])
def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, command,
                                              suffix):
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(b"\xff\xfe(")
    code, out, err = run(capsys, command, str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: not UTF-8 text\n"


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    for name, commands in (("swap-pair.np", ("check", "solve")),
                           ("ex67.eu", ("check", "translate-eu"))):
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + (PROBLEMS / name).read_bytes())
        for command in commands:
            want = run(capsys, command, str(PROBLEMS / name))
            assert run(capsys, command, str(marked)) == want
            assert want[0] == 0 and want[2] == ""


def test_syntax_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.np"
    bad.write_text("(signature (name-sort A)")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("(signature (name-sort A) (data-sort D))\n"
     "(vars (x (name A))\n      (x (data D)))\n(constraints)",
     "3:7: variable x declared twice"),
    ("(signature (data-sort D)\n  (con K unit D)\n  (con K (data D) D))\n"
     "(vars)\n(constraints)",
     "3:3: constructor K declared twice"),
    ("(signature (name-sort A) (data-sort D) (con K unit D)\n"
     "  (name-sort A))\n(vars)\n(constraints)",
     "2:3: name sort A declared twice"),
    ("(signature (data-sort D) (con K unit D)\n"
     "  (data-sort D))\n(vars)\n(constraints)",
     "2:3: data sort D declared twice"),
], ids=["variable", "constructor", "name sort", "data sort"])
def test_duplicate_declaration_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "dup.np"
    path.write_text(text)
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert message in err


@pytest.mark.parametrize("text, message", [
    ("(signature (name-sort A))\n"
     "(vars (y (name A))\n      (unit (name A)))\n"
     "(constraints (eq (abs unit y) (abs y unit)))",
     "3:7: unit is a term, not a variable name"),
    ("(signature (name-sort A)\n  (data-sort A) (con K unit A))\n"
     "(vars)\n(constraints)",
     "2:3: sort A declared as both name sort and data sort"),
    ("(signature (data-sort A) (con K unit A)\n  (name-sort A))\n"
     "(vars)\n(constraints)",
     "2:3: sort A declared as both name sort and data sort"),
], ids=["unit variable", "name then data sort", "data then name sort"])
def test_bad_declaration_is_reported_where_it_is(tmp_path, capsys, text,
                                                 message):
    path = tmp_path / "bad.np"
    path.write_text(text)
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("(signature (name-sort A) (con K unit A)) (vars) (constraints)",
     "1:26: constructor K targets undeclared data sort A"),
    ("(signature (data-sort D)\n  (con K (pair (name B) (data D)) D))\n"
     "(vars)\n(constraints)",
     "2:3: constructor K uses undeclared name sorts ['B']"),
    ("(signature (data-sort D) (con Z unit D)\n"
     "  (con K (abs (name nm) (data E)) D) (name-sort nm))\n"
     "(vars)\n(constraints)",
     "2:3: constructor K uses undeclared data sorts ['E']"),
], ids=["target", "name sort", "data sort"])
def test_constructor_sort_error_is_reported_where_it_is(tmp_path, capsys,
                                                        text, message):
    path = tmp_path / "bad.np"
    path.write_text(text)
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_sorts_may_be_declared_after_their_constructors():
    sig, _ = parse_problem("(signature (con S (data N) N) (con Z unit N))\n"
                           "(vars) (signature (data-sort N)) (constraints)")
    assert sig.data_sorts == {"N"} and set(sig.constructors) == {"S", "Z"}


def test_translate_eu_output_reads_back(tmp_path, capsys):
    # The translation keeps declared names as variable names, and the .np
    # reader reads `unit` as a term, so `.eu` files may not declare it.
    path = tmp_path / "unit.eu"
    path.write_text("(eu (names unit) (name-vars v) (perm-vars) "
                    "(constraints (eq v unit)))")
    for command in ("check", "translate-eu"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == "error: 1:12: unit cannot be a name\n"
    path.write_text("(eu (names u) (name-vars unit) (perm-vars) "
                    "(constraints (eq unit u)))")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and err == "error: 1:26: unit cannot be a variable\n"


def test_id_cannot_be_a_permutation_variable(tmp_path, capsys):
    # In a permutation position `id` reads as the identity, so a variable of
    # that name would be read as the identity wherever it is applied.
    path = tmp_path / "id.eu"
    path.write_text("(eu (names a b) (name-vars) (perm-vars id)\n"
                    "    (constraints (eq (app id a) b)))")
    for command in ("check", "translate-eu"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == "error: 1:40: id cannot be a permutation variable\n"
    # It is an ordinary symbol elsewhere.
    path.write_text("(eu (names id) (name-vars A) (perm-vars Q)\n"
                    "    (constraints (eq (app Q A) id)))")
    assert run(capsys, "check", str(path)) == (0, "ok\n", "")


def test_duplicate_eu_symbol_is_named(tmp_path, capsys):
    path = tmp_path / "dup.eu"
    path.write_text("(eu (names a) (name-vars B a) (perm-vars) (constraints))")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == "error: duplicate symbol declaration: a\n"


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(PROBLEMS / "swap-pair-fresh.np"),
                       "--budget", "0")
    assert code == 3


def test_oracle_without_exactness_is_a_resource_limit(capsys):
    # Size 0 admits no candidate, so nothing is found and nothing is proved.
    code, out, _ = run(capsys, "oracle", "--size", "0",
                       str(PROBLEMS / "swap-pair.np"))
    assert code == 3
    assert out == "result: unsat\nexact: false\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--budget", "-1"),
    ("oracle", "--size", "-3"),
    ("oracle", "--pool", "-1"),
])
def test_negative_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main([*argv, str(PROBLEMS / "swap-pair.np")])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert f"{argv[1]}: expected a whole number of at least 0" in out.err


# An equal tie between the constructors of S: `a` comes first by name, but T
# is built through S, so `a` cannot build S's inhabitant.
MUTUAL_SORTS = ("(signature (data-sort U) (data-sort S) (data-sort T)\n"
                "  (con u unit U) (con s1 (data U) S) (con t1 (data S) T)\n"
                "  (con a (data T) S))\n"
                "(vars (x (data S)))\n(constraints (eq x x))\n")


def test_inhabitant_of_mutually_recursive_sorts(tmp_path, capsys):
    sig, p = parse_problem(MUTUAL_SORTS)
    r = decide(sig, p)
    assert r.sat and satisfies_all(r.witness, p)
    check_tree(sig, realize(r.witness["x"]), DataSortT("S"))
    path = tmp_path / "mutual.np"
    path.write_text(MUTUAL_SORTS)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and "x = (con s1 (con u unit))\n" in out


@pytest.mark.parametrize("decls, message", [
    ("(x (data Q))", "x uses undeclared data sort Q"),
    ("(x (abs (name B) unit)) (y (pair (name Z) unit))",
     "x uses undeclared name sort B"),
    ("(y (pair (name Z) unit))", "y uses undeclared name sort Z"),
    ("(z (pair unit (abs (name nm) (data Q))))",
     "z uses undeclared data sort Q"),
], ids=["data", "binder", "pair", "nested data"])
def test_undeclared_sort_in_variable_type(tmp_path, capsys, decls, message):
    text = ("(signature (name-sort nm) (data-sort tm) (con K unit tm))\n"
            f"(vars {decls})\n(constraints)\n")
    sig, p = parse_problem(text)
    with pytest.raises(IllFormedProblem, match=re.escape(message)):
        check_problem(sig, p)
    path = tmp_path / "undeclared.np"
    path.write_text(text)
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def _deep_term(depth: int) -> str:
    """`depth` constructor levels, alternating L over an abstraction and P
    over a pair, around the name b."""
    t = "(con V b)"
    for i in range(depth):
        t = (f"(con L (abs b {t}))" if i % 2 == 0
             else f"(con P (tuple {t} (con Z unit)))")
    return t


DEEP_SIGNATURE = ("(signature (name-sort nm) (data-sort tm)\n"
                  "  (con Z unit tm) (con V (name nm) tm)\n"
                  "  (con L (abs (name nm) (data tm)) tm)\n"
                  "  (con P (pair (data tm) (data tm)) tm))\n")


def test_solve_deep_equation_is_a_resource_limit(tmp_path, capsys):
    # The type check (`infer_type`, in `check_problem`) recurses once per
    # level and overflows first.  The report is written only once it is
    # rendered, so none of it reaches stdout.
    path = tmp_path / "deep-eq.np"
    path.write_text(DEEP_SIGNATURE + "(vars (b (name nm)) (x (data tm)))\n"
                    f"(constraints (eq x {_deep_term(400)}))\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3 and out == ""
    assert err == "error: input nested too deeply\n"


def test_solve_prints_a_deep_witness(tmp_path, capsys):
    # `realize`, the ground trees' printing and the re-check's comparison of
    # alpha-trees walk with explicit stacks.
    path = tmp_path / "deep-eq.np"
    path.write_text(DEEP_SIGNATURE + "(vars (b (name nm)) (x (data tm)))\n"
                    f"(constraints (eq x {_deep_term(200)}))\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    # x is the term itself, its binders named n0@nm outermost to n99@nm.
    t = "(con V n99@nm)"
    for i in range(200):
        t = (f"(con L (abs n{99 - i // 2}@nm {t}))" if i % 2 == 0
             else f"(con P (tuple {t} (con Z unit)))")
    head, b, x, stats = out.splitlines()
    assert (head, b, x) == ("result: sat", "b = n0@nm", f"x = {t}")
    assert stats.startswith("stats: ")


def test_solve_deep_equation_without_witness(tmp_path, capsys):
    # Without the witness printed, the search and the re-check decide it.
    path = tmp_path / "deep-eq.np"
    path.write_text(DEEP_SIGNATURE + "(vars (b (name nm)) (x (data tm)))\n"
                    f"(constraints (eq x {_deep_term(180)}))\n")
    code, out, err = run(capsys, "solve", "--no-witness", str(path))
    assert code == 0 and err == ""
    assert out.startswith("result: sat\nstats: ")


def test_deep_numeral_is_a_resource_limit(tmp_path, capsys):
    numeral = "(con Z unit)"
    for _ in range(3000):
        numeral = f"(con S {numeral})"
    path = tmp_path / "numeral.np"
    path.write_text("(signature (data-sort nat)\n"
                    "  (con Z unit nat) (con S (data nat) nat))\n"
                    "(vars (x (data nat)))\n"
                    f"(constraints (eq x {numeral}))\n")
    for command in ("check", "solve"):
        code, _, err = run(capsys, command, str(path))
        assert code == 3 and err == "error: input nested too deeply\n"


def test_solve_deep_term(tmp_path, capsys):
    # Rendering the constraint recurses once per level; the search must not.
    # (The constraint is a freshness, so the witness it prints is names only;
    # an equation's witness is as deep as the term, see the tests above.)
    text = (DEEP_SIGNATURE + "(vars (a (name nm)) (b (name nm)))\n"
            f"(constraints (fresh a {_deep_term(150)}))\n")
    sig, p = parse_problem(text)
    r = decide(sig, p)
    assert r.sat and satisfies_all(r.witness, p)
    path = tmp_path / "deep.np"
    path.write_text(text)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and out.startswith("result: sat")


def test_reader_has_no_nesting_limit():
    # Only the checks behind the reader recurse; they turn the numeral of
    # test_deep_numeral_is_a_resource_limit into exit 3.
    numeral = "(con Z unit)"
    for _ in range(3000):
        numeral = f"(con S {numeral})"
    ty = "unit"
    for _ in range(3000):
        ty = f"(abs (name nm) (pair unit {ty}))"
    _, p = parse_problem("(signature (name-sort nm) (data-sort nat)\n"
                         "  (con Z unit nat) (con S (data nat) nat))\n"
                         f"(vars (x (data nat)) (y {ty}))\n"
                         f"(constraints (eq x {numeral}))\n")
    t, depth = p.constraints[0].rhs, 0
    while isinstance(t, SApp) and t.con == "S":
        t, depth = t.arg, depth + 1
    assert depth == 3000 and t == SApp("Z", SUNIT)
    ty, depth = p.env["y"], 0
    while isinstance(ty, AbsT):
        assert ty.binder == "nm" and ty.body.items[0] == UNIT_T
        ty, depth = ty.body.items[1], depth + 1
    assert depth == 3000 and ty == UNIT_T


def _deep_eu(bottom: str) -> str:
    """A `.eu` file whose name-term nests 3,000 swaps around `bottom`."""
    nt = bottom
    for _ in range(3000):
        nt = f"(app (swap A c) {nt})"
    return ("(eu (names c) (name-vars A B) (perm-vars)\n"
            f"    (constraints (eq B {nt})))\n")


def test_check_reads_a_deep_eu_name_term(tmp_path, capsys):
    path = tmp_path / "deep.eu"
    path.write_text(_deep_eu("B"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out == "ok\n"
    path.write_text(_deep_eu("D"))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and err == "error: undeclared vertex D\n"


def test_translate_eu_writes_a_deep_eu_name_term(tmp_path, capsys):
    path = tmp_path / "deep.eu"
    path.write_text(_deep_eu("B"))
    code, out, _ = run(capsys, "translate-eu", str(path))
    assert code == 0
    # One swap gadget `(eq (abs A (abs c w)) (abs c (abs A u)))` per level.
    assert out.count("(eq (abs A (abs c ") == 3000
