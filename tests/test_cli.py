import pathlib
import re

import pytest

from npnas.cli import (
    format_problem,
    main,
    parse_eu,
    parse_problem,
    parse_sexprs,
    parse_term,
    parse_type,
)
from npnas.decider import decide
from npnas.errors import IllFormedProblem, SourceSyntaxError, ValidationError
from npnas.kernel import (
    AbsT,
    DataSortT,
    NameSortT,
    TupleT,
    UNIT_T,
    check_tree,
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

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


# ---------------------------------------------------------------------------
# Parsing

def test_sexpr_positions_in_errors():
    with pytest.raises(SourceSyntaxError) as e:
        parse_sexprs("(a\n  (b)")
    assert e.value.line == 1 and e.value.column == 1
    with pytest.raises(SourceSyntaxError) as e2:
        parse_sexprs("(a))")
    assert e2.value.line == 1 and e2.value.column == 4


def test_sexpr_positions_after_tabs_returns_and_comments():
    # A tab and a carriage return each count as one column.
    (form,) = parse_sexprs("(a\tb) ; trailing\r\n")
    assert [(x.line, x.col) for x in form.items] == [(1, 2), (1, 4)]
    with pytest.raises(SourceSyntaxError) as e:
        parse_sexprs("(a\tb) ; trailing\r\n\t\r )")
    assert e.value.line == 2 and e.value.column == 4


def test_sexpr_comments_ignored():
    forms = parse_sexprs("; comment\n(a b) ; trailing\n")
    assert len(forms) == 1


def test_parse_type_round_trip():
    for text, ty in [
        ("unit", UNIT_T),
        ("(name A)", NameSortT("A")),
        ("(abs (name A) unit)", AbsT("A", UNIT_T)),
        ("(pair unit (name A))", TupleT((UNIT_T, NameSortT("A")))),
    ]:
        (sx,) = parse_sexprs(text)
        assert parse_type(sx) == ty
        (sx2,) = parse_sexprs(str(ty))
        assert parse_type(sx2) == ty


def test_parse_term_round_trip():
    for text, t in [
        ("x", Var("x")),
        ("unit", SUNIT),
        ("(abs a x)", SAbs("a", Var("x"))),
        ("(con K unit)", SApp("K", SUNIT)),
        ("(tuple x unit)", STuple((Var("x"), SUNIT))),
    ]:
        (sx,) = parse_sexprs(text)
        assert parse_term(sx) == t
        (sx2,) = parse_sexprs(str(t))
        assert parse_term(sx2) == t


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


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.np")
    assert code == 2
    assert "error:" in err


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
    # Comparing alpha-trees in the witness re-check recurses once per level.
    path = tmp_path / "deep-eq.np"
    path.write_text(DEEP_SIGNATURE + "(vars (b (name nm)) (x (data tm)))\n"
                    f"(constraints (eq x {_deep_term(160)}))\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3 and out == ""
    assert err == "error: input nested too deeply\n"


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
    # (An equation this deep still exhausts the stack when the witness is
    # re-checked by comparing alpha-trees, so the constraint is a freshness.)
    text = (DEEP_SIGNATURE + "(vars (a (name nm)) (b (name nm)))\n"
            f"(constraints (fresh a {_deep_term(150)}))\n")
    sig, p = parse_problem(text)
    r = decide(sig, p)
    assert r.sat and satisfies_all(r.witness, p)
    path = tmp_path / "deep.np"
    path.write_text(text)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and out.startswith("result: sat")
