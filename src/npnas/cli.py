"""Command-line interface.

Problems are written as s-expressions; `;` starts a line comment.

  (signature (name-sort SYM)* (data-sort SYM)* (con SYM TYPE SYM)*)
  (vars (SYM TYPE)*)
  (constraints ((eq TERM TERM) | (fresh SYM TERM))*)

with TYPE ::= (name SYM) | (data SYM) | unit | (abs (name SYM) TYPE)
            | (pair TYPE TYPE+)
and  TERM ::= SYM | unit | (abs SYM TERM) | (con SYM TERM)
            | (tuple TERM TERM+)

Equivariant unification inputs use

  (eu (names SYM*) (name-vars SYM*) (perm-vars SYM*)
      (constraints ((eq NT NT) | (fresh NT NT))*))

with NT ::= SYM | (app id SYM) | (app PERM NT) and PERM ::= SYM
          | (swap NT NT).

Exit codes: 0 satisfiable (or plain success), 1 unsatisfiable, 2 usage or
validation errors, 3 exhausted budgets and guards, an oracle that found no
witness within bounds too small to decide the problem, or input nested too
deeply for the interpreter's recursion limit, 4 internal errors (a witness
that fails its re-check, or any other unexpected exception).
"""
from __future__ import annotations

import argparse
import re
import sys
import traceback

from . import eubridge
from .decider import decide
from .errors import (BudgetExhausted, NotSolved, NpnasError, PoolTooLarge,
                     SearchSpaceTooLarge, SourceSyntaxError, UndeclaredSort,
                     ValidationError)
from .foreduce import fl_problem, fo_sat
from .kernel import (AbsT, DataSortT, NameSortT, Signature, TupleT, Type,
                     UNIT_T, make_signature, realize)
from .oracle import brute_sat
from .schematic import (Eq, Fresh, Problem, SAbs, SApp, STuple, SUNIT, Term,
                        Var, check_problem)

# ---------------------------------------------------------------------------
# Reading s-expressions
#
# A reader pops each token off the reversed token list and builds as it
# goes.  A token's position is the count `left` of tokens after it until an
# error needs line and column.  A tree reader reads one tree; a ')' in its
# place makes the form at `left` a malformed `form`.

# Only space, tab, carriage return and newline separate atoms (a form feed is
# part of one); a comment runs to the end of its line.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
# Text without a `;` or a character outside printable ASCII, tab, CR and LF
# has no comment, and str.split() separates its atoms where _TOKEN does.
_UNPLAIN = re.compile(r"[^\t\n\r -:<-~]")


def _tokens(text: str) -> list[str]:
    """The parentheses and atoms of text; comments are not tokens."""
    if _UNPLAIN.search(text) is None:
        return text.replace("(", " ( ").replace(")", " ) ").split()
    return [tok for tok in _TOKEN.findall(text) if tok[0] != ";"]


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of token `index`; a tab or CR is one column."""
    at = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != ";"][index]
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class _Malformed(Exception):
    """(message, left): an input error; left None is the text's start."""


def _read(text: str, read):
    """read(tokens), where a bracket error comes before any other."""
    try:
        return read(_tokens(text)[::-1])
    except (_Malformed, IndexError) as exc:  # IndexError: the tokens ran out
        error = exc
    tokens = _tokens(text)
    opens: list[int] = []
    for i, tok in enumerate(tokens):
        if tok == "(":
            opens.append(i)
        elif tok == ")" and not opens:
            raise SourceSyntaxError("unmatched ')'", *_position(text, i))
        elif tok == ")":
            opens.pop()
    if opens:
        raise SourceSyntaxError("unclosed '('", *_position(text, opens[-1]))
    if isinstance(error, IndexError):
        raise error
    message, left = error.args
    at = (1, 1) if left is None else _position(text, len(tokens) - 1 - left)
    raise SourceSyntaxError(message, *at)


def _bad_head(head: str, message: str, left: int) -> _Malformed:
    """The error for a form at `left` with no rule for its head."""
    if head == "(" or head == ")":
        message = "expected a keyword after '('"
    return _Malformed(message, left)


def _atom(tokens: list[str], kind: str, form: str, left: int, last=False):
    """The next token, an atom for `kind`, then with `last` a ')'.  A ')' for
    the atom makes the form at `left` a malformed `form`."""
    tok = tokens.pop()
    if tok == "(":
        raise _Malformed(f"expected {kind}", len(tokens))
    if tok == ")" or last and tokens.pop() != ")":
        raise _Malformed(form, left)
    return tok


def _read_type(tokens: list[str], form: str, left: int) -> Type:
    """The next type."""
    pop = tokens.pop
    stack: list = []
    while True:
        tok = pop()
        if tok == "(":
            here = len(tokens)
            head = pop()
            if head == "abs" or head == "pair":
                stack.append((head, [], here))
                continue
            if head != "name" and head != "data":
                raise _bad_head(head, "malformed type", here)
            sort = _atom(tokens, "a sort name", "malformed type", here, True)
            ty = NameSortT(sort) if head == "name" else DataSortT(sort)
        elif tok == "unit":
            ty = UNIT_T
        elif tok != ")":
            raise _Malformed(f"unknown type {tok}", len(tokens))
        elif not stack:
            raise _Malformed(form, left)
        else:
            head, items, here = stack.pop()
            if head == "pair" and len(items) >= 2:
                ty = TupleT(tuple(items))
            elif head == "pair" or len(items) != 2:
                raise _Malformed("malformed type", here)
            elif items[0].__class__ is not NameSortT:
                raise _Malformed("binder type must be (name SYM)", here)
            else:
                ty = AbsT(items[0].sort, items[1])
        if not stack:
            return ty
        stack[-1][1].append(ty)


def _read_term(tokens: list[str], form: str, left: int) -> Term:
    """The next term."""
    pop = tokens.pop
    stack: list = []
    while True:
        tok = pop()
        if tok == "(":
            here = len(tokens)
            head = pop()
            if head == "abs" or head == "con":
                sym = _atom(tokens, "a binder variable" if head == "abs"
                            else "a constructor name", "malformed term", here)
                stack.append((head, [sym], here))
            elif head == "tuple":
                stack.append((head, [], here))
            else:
                raise _bad_head(head, "malformed term", here)
            continue
        if tok != ")":
            t = SUNIT if tok == "unit" else Var(tok)
        elif not stack:
            raise _Malformed(form, left)
        else:
            head, items, here = stack.pop()
            if head == "tuple" and len(items) >= 2:
                t = STuple(tuple(items))
            elif head == "tuple" or len(items) != 2:
                raise _Malformed("malformed term", here)
            else:
                t = (SAbs if head == "abs" else SApp)(*items)
        if not stack:
            return t
        stack[-1][1].append(t)


def _read_problem(tokens: list[str]) -> tuple[Signature, Problem]:
    sorts: dict[str, list[str]] = {"name-sort": [], "data-sort": []}
    cons: dict[str, tuple[Type, str]] = {}
    con_at: dict[str, int] = {}  # where each constructor is declared
    env: dict[str, Type] = {}
    constraints: list = []
    entry, bad = "malformed signature entry", "malformed constraint"
    forms = {"signature": "a signature entry", "vars":
             "a variable declaration", "constraints": "a constraint"}
    seen = set()
    while tokens:
        if tokens.pop() != "(":
            raise _Malformed("expected a top-level form", len(tokens))
        at = len(tokens)
        if (form := tokens.pop()) not in forms:
            raise _bad_head(form, f"unknown form {form}", at)
        seen.add(form)
        while (tok := tokens.pop()) != ")":
            if tok != "(":
                raise _Malformed(f"expected {forms[form]}", len(tokens))
            at = len(tokens)
            if form == "vars":
                x = _atom(tokens, "a variable", "expected (SYM TYPE)", at)
                if x == "unit":  # terms read the atom as the unit value
                    raise _Malformed("unit is a term, not a variable name", at)
                if x in env:
                    raise _Malformed(f"variable {x} declared twice", at)
                env[x] = _read_type(tokens, "expected (SYM TYPE)", at)
                if tokens.pop() != ")":
                    raise _Malformed("expected (SYM TYPE)", at)
                continue
            head = tokens.pop()
            if form == "constraints":
                if head == "eq":
                    lhs = _read_term(tokens, bad, at)
                elif head == "fresh":
                    lhs = _atom(tokens, "a variable", bad, at)
                else:
                    raise _bad_head(head, bad, at)
                rhs = _read_term(tokens, bad, at)
                if tokens.pop() != ")":
                    raise _Malformed(bad, at)
                constraints.append((Eq if head == "eq" else Fresh)(lhs, rhs))
            elif head in sorts:
                sort = _atom(tokens, "a sort name", entry, at, True)
                if sort in sorts[head]:
                    raise _Malformed(f"{head.replace('-', ' ')} {sort} "
                                     "declared twice", at)
                if any(sort in other for other in sorts.values()):
                    raise _Malformed(f"sort {sort} declared as both name sort "
                                     "and data sort", at)
                sorts[head].append(sort)
            elif head == "con":
                k = _atom(tokens, "a constructor name", entry, at)
                if k in cons:
                    raise _Malformed(f"constructor {k} declared twice", at)
                arg = _read_type(tokens, entry, at)
                cons[k] = (arg, _atom(tokens, "a sort name", entry, at, True))
                con_at[k] = at
            else:
                raise _bad_head(head, entry, at)
    if len(seen) < 3:
        raise _Malformed("a problem needs signature, vars and constraints "
                         "forms", None)
    try:  # sorts may be declared after the constructors that use them
        sig = make_signature(sorts["name-sort"], sorts["data-sort"], cons)
    except UndeclaredSort as exc:
        raise _Malformed(str(exc), con_at[exc.con]) from None
    return sig, Problem(env, tuple(constraints))


def parse_problem(text: str) -> tuple[Signature, Problem]:
    return _read(text, _read_problem)


def format_problem(sig: Signature, p: Problem) -> str:
    lines = ["(signature"]
    lines += [f"  (name-sort {s})" for s in sorted(sig.name_sorts)]
    lines += [f"  (data-sort {s})" for s in sorted(sig.data_sorts)]
    for k in sorted(sig.constructors):
        arg, res = sig.constructors[k]
        lines.append(f"  (con {k} {arg} {res})")
    lines[-1] += ")"
    lines.append("(vars")
    lines += [f"  ({x} {ty})" for x, ty in p.env.items()]
    lines[-1] += ")"
    lines.append("(constraints")
    lines += [f"  {c}" for c in p.constraints]
    lines[-1] += ")"
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Equivariant unification files

def _read_nt(tokens: list[str], form: str, left: int) -> eubridge.NameTerm:
    """The next name-term."""
    stack: list = []
    while True:
        # Is this an app's first item, a permutation?
        perm = bool(stack) and stack[-1][0] == "app" and not stack[-1][1]
        tok = tokens.pop()
        if tok == "(":
            here = len(tokens)
            if (head := tokens.pop()) != ("swap" if perm else "app"):
                raise _bad_head(head, "malformed permutation" if perm
                                else "malformed name-term", here)
            stack.append((head, [], here))
            continue
        if tok != ")":
            nt = (eubridge.Vertex(tok) if not perm else eubridge.PIdent()
                  if tok == "id" else eubridge.PVar(tok))
        elif not stack:
            raise _Malformed(form, left)
        else:
            head, items, here = stack.pop()
            if len(items) != 2:
                raise _Malformed("malformed name-term" if head == "app"
                                 else "malformed permutation", here)
            nt = (eubridge.Susp if head == "app" else eubridge.PSwap)(*items)
        if not stack:
            return nt
        stack[-1][1].append(nt)


def _read_eu(tokens: list[str]) -> eubridge.EUProblem:
    if not tokens or tokens.pop() != "(" or tokens.pop() != "eu":
        raise _Malformed("expected a single (eu ...) form", None)
    symbols = {"names": [], "name-vars": [], "perm-vars": []}
    constraints: list = []
    while (tok := tokens.pop()) != ")":
        if tok != "(":
            raise _Malformed("expected an eu section", len(tokens))
        at = len(tokens)
        section = tokens.pop()
        if section not in symbols and section != "constraints":
            raise _bad_head(section, f"unknown eu section {section}", at)
        kind = "a name" if section == "names" else "a variable"
        while (tok := tokens.pop()) != ")":
            if section != "constraints":
                if tok == "(":
                    raise _Malformed(f"expected {kind}", len(tokens))
                if tok == "unit":  # the translation would read it as a term
                    raise _Malformed(f"unit cannot be {kind}", len(tokens))
                if tok == "id" and section == "perm-vars":  # reads as identity
                    raise _Malformed("id cannot be a permutation variable",
                                     len(tokens))
                symbols[section].append(tok)
                continue
            if tok != "(":
                raise _Malformed("expected a constraint", len(tokens))
            at = len(tokens)
            if (head := tokens.pop()) != "eq" and head != "fresh":
                raise _bad_head(head, "malformed constraint", at)
            lhs = _read_nt(tokens, "malformed constraint", at)
            rhs = _read_nt(tokens, "malformed constraint", at)
            if tokens.pop() != ")":
                raise _Malformed("malformed constraint", at)
            constraints.append((eubridge.EUEq if head == "eq"
                                else eubridge.EUFresh)(lhs, rhs))
    if tokens:
        raise _Malformed("expected a single (eu ...) form", None)
    p = eubridge.EUProblem(*map(tuple, symbols.values()), tuple(constraints))
    eubridge.validate_eu(p)
    return p


def parse_eu(text: str) -> eubridge.EUProblem:
    return _read(text, _read_eu)


# ---------------------------------------------------------------------------
# Commands

def _load(path: str) -> str:
    with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not UTF-8 text") from None


def _load_np(path: str) -> tuple[Signature, Problem]:
    if path.endswith(".eu"):
        raise ValidationError(
            f"{path}: .eu files go through translate-eu or eu-oracle")
    return parse_problem(_load(path))


def cmd_check(args) -> int:
    text = _load(args.file)
    if args.file.endswith(".eu"):
        parse_eu(text)
    else:
        sig, p = parse_problem(text)
        check_problem(sig, p)
    print("ok")
    return 0


def cmd_solve(args) -> int:
    sig, p = _load_np(args.file)
    result = decide(sig, p, budget=args.budget)
    # The report is rendered in full before any of it is written, so a
    # witness too deep to print leaves stdout empty and exits 3.
    lines = [f"result: {'sat' if result.sat else 'unsat'}"]
    if result.reason:
        lines.append(f"reason: {result.reason}")
    if result.sat and not args.no_witness:
        lines.extend(f"{x} = {realize(result.witness[x])}" for x in p.env)
    lines.append(f"stats: nodes={result.nodes} "
                 f"normal-forms={result.normal_forms}")
    print("\n".join(lines))
    return 0 if result.sat else 1


def cmd_fo(args) -> int:
    sig, p = _load_np(args.file)
    check_problem(sig, p)
    flsig, flp = fl_problem(sig, p)
    sys.stdout.write(format_problem(flsig, flp))
    sat = fo_sat(sig, p)
    print(f"result: {'sat' if sat else 'unsat'}")
    return 0 if sat else 1


def cmd_oracle(args) -> int:
    sig, p = _load_np(args.file)
    check_problem(sig, p)
    result = brute_sat(sig, p, max_size=args.size, pool=args.pool)
    print(f"result: {'sat' if result.sat else 'unsat'}")
    print(f"exact: {'true' if result.exact else 'false'}")
    if result.sat and args.witness:
        for x in p.env:
            print(f"{x} = {realize(result.witness[x])}")
    if result.sat:
        return 0
    # Without exactness the bounds were hit before they covered the problem.
    return 1 if result.exact else 3


def cmd_translate_eu(args) -> int:
    p = parse_eu(_load(args.file))
    problem = eubridge.translate_eu(p)
    text = format_problem(eubridge.EU_SIGNATURE, problem)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_eu_oracle(args) -> int:
    p = parse_eu(_load(args.file))
    sat = eubridge.eu_brute_sat(p)
    print(f"result: {'sat' if sat else 'unsat'}")
    return 0 if sat else 1


def _count(text: str) -> int:
    """An argparse type: a whole number that is not negative."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="npnas",
        description="satisfiability of equality and freshness constraints "
                    "over non-permutative nominal abstract syntax")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse and typecheck a problem file")
    c.add_argument("file")
    c.set_defaults(run=cmd_check)

    s = sub.add_parser("solve", help="decide satisfiability")
    s.add_argument("file")
    s.add_argument("--no-witness", action="store_true",
                   help="suppress the satisfying valuation")
    s.add_argument("--budget", type=_count, default=None)
    s.set_defaults(run=cmd_solve)

    f = sub.add_parser("fo", help="decide the first-order collapse only")
    f.add_argument("file")
    f.set_defaults(run=cmd_fo)

    o = sub.add_parser("oracle", help="brute-force enumeration up to bounds")
    o.add_argument("file")
    o.add_argument("--size", type=_count, default=5)
    o.add_argument("--pool", type=_count, default=3)
    o.add_argument("--witness", action="store_true")
    o.set_defaults(run=cmd_oracle)

    t = sub.add_parser("translate-eu",
                       help="reduce an equivariant unification file")
    t.add_argument("file")
    t.add_argument("-o", "--output", default=None)
    t.set_defaults(run=cmd_translate_eu)

    e = sub.add_parser("eu-oracle",
                       help="brute-force an equivariant unification file")
    e.add_argument("file")
    e.set_defaults(run=cmd_eu_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (BudgetExhausted, PoolTooLarge, SearchSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 3
    except NotSolved as exc:  # a solver fault, not an input error
        return _internal_error(exc)
    except (NpnasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    traceback.print_exception(exc)
    print(f"error: internal error: {exc}", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
