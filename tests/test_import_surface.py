"""The names the benchmark and the scripts import from npnas, and
npnas.__all__, resolve.

The benchmark under perfbench/ is kept unchanged while the package
changes, so a name it imports that moves or goes fails here, not only
in a benchmark run.  The scripts under scripts/ are checked the same way.
This module only reads those files.
"""
import ast
import importlib
import pathlib

import pytest

import npnas

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from npnas import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _npnas_imports(directory: str):
    for path in sorted((ROOT / directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
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


@pytest.mark.parametrize("name", npnas.__all__)
def test_package_all_resolves(name):
    assert hasattr(npnas, name)
