"""The names the benchmark imports from npnas, and npnas.__all__, resolve.

The benchmark under perfbench/ is kept unchanged while the package
changes, so a name it imports that moves or goes fails here, not only
in a benchmark run.  This module only reads perfbench/.
"""
import ast
import importlib
import pathlib

import pytest

import npnas

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from npnas import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _npnas_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "npnas"):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "npnas":
                        yield path.name, alias.name, None


def test_benchmark_imports_resolve():
    imports = list(_npnas_imports())
    assert imports, "no npnas import found under perfbench/"
    missing = []
    for file, module, name in imports:
        if name is None:
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                missing.append(f"{file}: import {module}")
        elif not _resolves(module, name):
            missing.append(f"{file}: from {module} import {name}")
    assert not missing, missing


@pytest.mark.parametrize("name", npnas.__all__)
def test_package_all_resolves(name):
    assert hasattr(npnas, name)
