"""Satisfiability of equality and freshness constraints over
non-permutative nominal abstract syntax."""

from .decider import SolveOptions, SolveResult, decide, extract_witness
from .kernel import (
    AlphaTree,
    Name,
    Signature,
    canonicalize,
    make_signature,
    realize,
)
from .schematic import Eq, Fresh, Problem, satisfies, satisfies_all

__all__ = [
    "AlphaTree",
    "Eq",
    "Fresh",
    "Name",
    "Problem",
    "Signature",
    "SolveOptions",
    "SolveResult",
    "canonicalize",
    "decide",
    "extract_witness",
    "make_signature",
    "realize",
    "satisfies",
    "satisfies_all",
]

__version__ = "0.1.0"
