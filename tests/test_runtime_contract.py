"""The runtime is stdlib-only and free of floats.

Every module of the package is parsed, not imported, so the checks see
code on every branch, including branches no test runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbivertex"


def _nodes():
    # (module file name, node) for every node of every package module.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_float_literals_or_float_name():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{name}:{node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{name}:{node.lineno}: name 'float'")
    assert not found, found


def test_absolute_imports_are_stdlib():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.partition(".")[0] not in sys.stdlib_module_names:
                found.append(f"{name}:{node.lineno}: import {module}")
    assert not found, found


def test_every_private_function_is_named_elsewhere_in_the_package():
    # A private function or method that no other package code names is
    # dead, or kept alive only by tests.
    defined, named = [], []
    for name, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if node.name.startswith("_") and not dunder:
                defined.append((name, node))
        elif isinstance(node, ast.Name):
            named.append((name, node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            named.append((name, node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            named.append((name, node.lineno, node.name))
    found = [
        f"{name}:{fn.lineno}: {fn.name}"
        for name, fn in defined
        if not any(
            ref == fn.name and not (where == name and fn.lineno <= line <= fn.end_lineno)
            for where, line, ref in named
        )
    ]
    assert not found, found


def test_only_series_names_the_cap_level_unit():
    # A window slot of a cap is a level over the cap's weight denominator;
    # every other module reads and writes windows through series.py.
    found = [
        f"{name}:{node.lineno}: {node.attr if isinstance(node, ast.Attribute) else node.id}"
        for name, node in _nodes()
        if name != "series.py"
        and (isinstance(node, ast.Attribute) and node.attr in ("_wnum", "_wden")
             or isinstance(node, ast.Name) and node.id in ("_wnum", "_wden"))
    ]
    assert not found, found


def test_each_kernel_has_one_builder():
    # The inverse sines are read from dt_vertex's sine product memo and the
    # transport kernels from hurwitz's kernel memo; no other module builds
    # either.
    owner = {"inverse_trig": "dt_vertex.py", "PhiKernel": "hurwitz.py"}
    found = []
    for name, node in _nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if called in owner and name != owner[called]:
            found.append(f"{name}:{node.lineno}: {called}(...)")
    assert not found, found


def test_the_cli_import_loads_neither_inspect_nor_dataclasses():
    # Both cost import time on every launch; pytest loads them itself, so
    # the import runs in a fresh interpreter.
    code = "import orbivertex.cli, sys; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
