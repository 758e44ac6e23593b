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
from itertools import islice

from . import eubridge
from .decider import SolveOptions, decide
from .errors import (
    BudgetExhausted,
    NotSolved,
    NpnasError,
    PoolTooLarge,
    SearchSpaceTooLarge,
    SourceSyntaxError,
)
from .foreduce import fl_problem, fo_sat
from .kernel import (
    AbsT,
    DataSortT,
    NameSortT,
    Signature,
    TupleT,
    Type,
    UNIT_T,
    make_signature,
    realize,
)
from .oracle import brute_sat
from .schematic import (
    Eq,
    Fresh,
    Problem,
    SAbs,
    SApp,
    STuple,
    SUNIT,
    Term,
    Var,
    check_problem,
)

# ---------------------------------------------------------------------------
# Reading s-expressions

# Only space, tab, carriage return and newline separate atoms (a form feed is
# part of one); a comment runs to the end of its line.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _position(text: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of token `index` of text, found by
    scanning the text again; a tab or carriage return counts as one
    column."""
    at = next(islice(_TOKEN.finditer(text), index, None)).start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class _Node:
    """A node keeps the text it was read from and the index of its first
    token; its position is worked out only when asked for, which in
    practice means for an error message."""
    __slots__ = ("index", "text")

    @property
    def line(self) -> int:
        return _position(self.text, self.index)[0]

    @property
    def col(self) -> int:
        return _position(self.text, self.index)[1]

    def error(self, message: str) -> SourceSyntaxError:
        return SourceSyntaxError(message, *_position(self.text, self.index))


class Atom(_Node):
    __slots__ = ("value",)

    def __init__(self, value: str, index: int, text: str):
        self.value = value
        self.index = index
        self.text = text


class SList(_Node):
    __slots__ = ("items",)

    def __init__(self, items: tuple, index: int, text: str):
        self.items = items
        self.index = index
        self.text = text


def parse_sexprs(text: str) -> list:
    stack: list[list] = []
    opens: list[int] = []
    top: list = []
    for i, tok in enumerate(_TOKEN.findall(text)):
        if tok == "(":
            stack.append(top)
            opens.append(i)
            top = []
        elif tok == ")":
            if not stack:
                raise SourceSyntaxError("unmatched ')'", *_position(text, i))
            done = SList(tuple(top), opens.pop(), text)
            top = stack.pop()
            top.append(done)
        elif tok[0] != ";":
            top.append(Atom(tok, i, text))
    if stack:
        raise SourceSyntaxError("unclosed '('", *_position(text, opens[-1]))
    return top


def _want_atom(sx, what: str) -> str:
    if not isinstance(sx, Atom):
        raise sx.error(f"expected {what}")
    return sx.value


def _want_list(sx, what: str) -> SList:
    if not isinstance(sx, SList):
        raise sx.error(f"expected {what}")
    return sx


def _head(sx: SList) -> str:
    if not sx.items or not isinstance(sx.items[0], Atom):
        raise sx.error("expected a keyword after '('")
    return sx.items[0].value


# ---------------------------------------------------------------------------
# Problem files

def parse_type(sx) -> Type:
    if isinstance(sx, Atom):
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
                        parse_type(sx.items[2]))
        case "pair", n if n >= 3:
            return TupleT(tuple(parse_type(t) for t in sx.items[1:]))
    raise sx.error("malformed type")


def parse_term(sx) -> Term:
    if isinstance(sx, Atom):
        return SUNIT if sx.value == "unit" else Var(sx.value)
    match _head(sx), len(sx.items):
        case "abs", 3:
            return SAbs(_want_atom(sx.items[1], "a binder variable"),
                        parse_term(sx.items[2]))
        case "con", 3:
            return SApp(_want_atom(sx.items[1], "a constructor name"),
                        parse_term(sx.items[2]))
        case "tuple", n if n >= 3:
            return STuple(tuple(parse_term(t) for t in sx.items[1:]))
    raise sx.error("malformed term")


def parse_constraint(sx):
    sx = _want_list(sx, "a constraint")
    match _head(sx), len(sx.items):
        case "eq", 3:
            return Eq(parse_term(sx.items[1]), parse_term(sx.items[2]))
        case "fresh", 3:
            return Fresh(_want_atom(sx.items[1], "a variable"),
                         parse_term(sx.items[2]))
    raise sx.error("malformed constraint")


def _declare_sort(sorts: list[str], others: list[str], item: SList,
                  what: str) -> None:
    """Add a sort to `sorts`; `others` holds the sorts of the other kind."""
    sort = _want_atom(item.items[1], "a sort name")
    if sort in sorts:
        raise item.error(f"{what} {sort} declared twice")
    if sort in others:
        raise item.error(f"sort {sort} declared as both name sort and data sort")
    sorts.append(sort)


def parse_problem(text: str) -> tuple[Signature, Problem]:
    name_sorts: list[str] = []
    data_sorts: list[str] = []
    cons: dict[str, tuple[Type, str]] = {}
    env: dict[str, Type] = {}
    constraints: list = []
    saw_sig = saw_vars = saw_cs = False
    for form in parse_sexprs(text):
        form = _want_list(form, "a top-level form")
        match _head(form):
            case "signature":
                saw_sig = True
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
                            cons[k] = (parse_type(item.items[2]),
                                       _want_atom(item.items[3], "a sort name"))
                        case _:
                            raise item.error("malformed signature entry")
            case "vars":
                saw_vars = True
                for item in form.items[1:]:
                    item = _want_list(item, "a variable declaration")
                    if len(item.items) != 2:
                        raise item.error("expected (SYM TYPE)")
                    x = _want_atom(item.items[0], "a variable")
                    if x == "unit":  # terms read the atom as the unit value
                        raise item.error("unit is a term, not a variable name")
                    if x in env:
                        raise item.error(f"variable {x} declared twice")
                    env[x] = parse_type(item.items[1])
            case "constraints":
                saw_cs = True
                constraints.extend(parse_constraint(c) for c in form.items[1:])
            case other:
                raise form.error(f"unknown form {other}")
    if not (saw_sig and saw_vars and saw_cs):
        raise SourceSyntaxError(
            "a problem needs signature, vars and constraints forms", 1, 1)
    sig = make_signature(name_sorts, data_sorts, cons)
    return sig, Problem(env, tuple(constraints))


def format_problem(sig: Signature, p: Problem) -> str:
    lines = ["(signature"]
    for s in sorted(sig.name_sorts):
        lines.append(f"  (name-sort {s})")
    for s in sorted(sig.data_sorts):
        lines.append(f"  (data-sort {s})")
    for k in sorted(sig.constructors):
        arg, res = sig.constructors[k]
        lines.append(f"  (con {k} {arg} {res})")
    lines[-1] += ")"
    lines.append("(vars")
    for x, ty in p.env.items():
        lines.append(f"  ({x} {ty})")
    lines[-1] += ")"
    lines.append("(constraints")
    for c in p.constraints:
        lines.append(f"  {c}")
    lines[-1] += ")"
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Equivariant unification files

def parse_nt(sx) -> eubridge.NameTerm:
    if isinstance(sx, Atom):
        return eubridge.Vertex(sx.value)
    if _head(sx) == "app" and len(sx.items) == 3:
        return eubridge.Susp(parse_perm(sx.items[1]), parse_nt(sx.items[2]))
    raise sx.error("malformed name-term")


def parse_perm(sx) -> eubridge.Perm:
    if isinstance(sx, Atom):
        return eubridge.PIdent() if sx.value == "id" else eubridge.PVar(sx.value)
    if _head(sx) == "swap" and len(sx.items) == 3:
        return eubridge.PSwap(parse_nt(sx.items[1]), parse_nt(sx.items[2]))
    raise sx.error("malformed permutation")


def parse_eu(text: str) -> eubridge.EUProblem:
    forms = parse_sexprs(text)
    if len(forms) != 1:
        raise SourceSyntaxError("expected a single (eu ...) form", 1, 1)
    form = _want_list(forms[0], "(eu ...)")
    if _head(form) != "eu":
        raise form.error("expected (eu ...)")
    names: tuple[str, ...] = ()
    name_vars: tuple[str, ...] = ()
    perm_vars: tuple[str, ...] = ()
    constraints: list = []
    for part in form.items[1:]:
        part = _want_list(part, "an eu section")
        match _head(part):
            case "names":
                names += tuple(_want_atom(a, "a name") for a in part.items[1:])
            case "name-vars":
                name_vars += tuple(_want_atom(a, "a variable")
                                   for a in part.items[1:])
            case "perm-vars":
                perm_vars += tuple(_want_atom(a, "a variable")
                                   for a in part.items[1:])
            case "constraints":
                for c in part.items[1:]:
                    c = _want_list(c, "a constraint")
                    match _head(c), len(c.items):
                        case "eq", 3:
                            constraints.append(
                                eubridge.EUEq(parse_nt(c.items[1]),
                                              parse_nt(c.items[2])))
                        case "fresh", 3:
                            constraints.append(
                                eubridge.EUFresh(parse_nt(c.items[1]),
                                                 parse_nt(c.items[2])))
                        case _:
                            raise c.error("malformed constraint")
            case other:
                raise part.error(f"unknown eu section {other}")
    p = eubridge.EUProblem(names, name_vars, perm_vars, tuple(constraints))
    eubridge.validate_eu(p)
    return p


# ---------------------------------------------------------------------------
# Commands

def _load(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
    sig, p = parse_problem(_load(args.file))
    options = SolveOptions(strategy=args.strategy, budget=args.budget)
    result = decide(sig, p, options)
    print(f"result: {'sat' if result.sat else 'unsat'}")
    if result.reason:
        print(f"reason: {result.reason}")
    if result.sat and not args.no_witness:
        for x in p.env:
            print(f"{x} = {realize(result.witness[x])}")
    print(f"stats: nodes={result.nodes} normal-forms={result.normal_forms}")
    return 0 if result.sat else 1


def cmd_fo(args) -> int:
    sig, p = parse_problem(_load(args.file))
    check_problem(sig, p)
    flsig, flp = fl_problem(sig, p)
    sys.stdout.write(format_problem(flsig, flp))
    sat = fo_sat(sig, p)
    print(f"result: {'sat' if sat else 'unsat'}")
    return 0 if sat else 1


def cmd_oracle(args) -> int:
    sig, p = parse_problem(_load(args.file))
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
    s.add_argument("--strategy", choices=["focused", "full"],
                   default="focused")
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
