"""The names the benchmark and the scripts import from npnas, the keywords
they pass to `SolveOptions`, and npnas.__all__, resolve.

The benchmark under perfbench/ is kept unchanged while the package
changes, so a name it imports that moves or goes fails here, not only
in a benchmark run.  The scripts under scripts/ are checked the same way.
This module only reads those files.
"""
import ast
import dataclasses
import importlib
import pathlib

import pytest

import npnas
from npnas.decider import SolveOptions

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from npnas import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _nodes(directory: str):
    for path in sorted((ROOT / directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def _npnas_imports(directory: str):
    for path, node in _nodes(directory):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "npnas"):
            for alias in node.names:
                yield path.name, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "npnas":
                    yield path.name, alias.name, None


def _unresolved(directory: str) -> list[str]:
    imports = list(_npnas_imports(directory))
    assert imports, f"no npnas import found under {directory}/"
    missing = []
    for file, module, name in imports:
        if name is None:
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                missing.append(f"{file}: import {module}")
        elif not _resolves(module, name):
            missing.append(f"{file}: from {module} import {name}")
    return missing


def test_benchmark_imports_resolve():
    assert not (missing := _unresolved("perfbench")), missing


def test_script_imports_resolve():
    assert not (missing := _unresolved("scripts")), missing


def _solve_option_calls(directory: str):
    """(file, keywords) for each call of SolveOptions under directory."""
    for path, node in _nodes(directory):
        func = getattr(node, "func", None)  # only calls have one
        if getattr(func, "id", getattr(func, "attr", None)) == "SolveOptions":
            yield path.name, [kw.arg for kw in node.keywords]


def test_solve_option_keywords_name_fields():
    # A keyword that names no field fails only when its script next runs.
    fields = {f.name for f in dataclasses.fields(SolveOptions)}
    calls = [*_solve_option_calls("perfbench"), *_solve_option_calls("scripts")]
    assert calls, "no SolveOptions call found"
    stale = [f"{file}: SolveOptions({kw}=...)"
             for file, kws in calls for kw in kws if kw not in fields]
    assert not stale, stale


@pytest.mark.parametrize("name", npnas.__all__)
def test_package_all_resolves(name):
    assert hasattr(npnas, name)
