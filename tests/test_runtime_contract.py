"""The runtime is stdlib-only and free of floats.

Every module of the package is parsed, not imported, so the checks see
code on every branch, including branches no test runs.
"""

import ast
import gc
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


def test_the_power_sum_image_does_not_expand_letters():
    # The framing-zero path has one route to each image: the closed
    # roots-of-unity filter, not the letter-by-letter expansion that the
    # RationalForm branch of change_of_vars keeps.
    found = []
    for name, node in _nodes():
        if name == "dt_vertex.py" and isinstance(node, ast.FunctionDef) and node.name == "_power_sum_image":
            found = [
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, ast.Name) and inner.id == "_x_images"
                or isinstance(inner, ast.Attribute) and inner.attr == "_x_images"
            ]
            break
    else:
        raise AssertionError("dt_vertex defines no _power_sum_image")
    assert not found, found


def test_a_cold_pass_is_freed_by_reference_counting():
    # Each pass of the benchmark drops every package cache; nothing it
    # built may then wait for the cycle collector (a field that points at
    # its own elements, a self-recursive closure).
    from orbivertex import dt_vertex, gw_vertex

    def clear_caches():
        for name, module in sorted(sys.modules.items()):
            if name == "orbivertex" or name.startswith("orbivertex."):
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()

    clear_caches()
    gc.collect()
    gc.disable()
    try:
        assert all(ok for _, ok in dt_vertex.correspondence_report(3, 3))
        gw_vertex.transport_back(2, (2, 1), 1)
        gw_vertex.abelian_lift((4,), (2,), ((1,),), 1, 3)
        clear_caches()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_cli_import_loads_neither_inspect_nor_dataclasses():
    # Both cost import time on every launch; pytest loads them itself, so
    # the import runs in a fresh interpreter.
    code = "import orbivertex.cli, sys; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
