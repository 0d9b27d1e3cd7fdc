"""The package's sources: checks that hold under `python -O`, and the layering."""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import dqwalk

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dqwalk").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "stats.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a check written as one
    # vanishes; the package raises its errors explicitly instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_engine_imports_only_core():
    # The kernel sits below every draw: seeding, ensembles and statistics
    # build on it, never the other way round.
    path = next(path for path in SOURCES if path.name == "engine.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dqwalk")):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names if alias.name.startswith("dqwalk"))
    assert imported == {".core"}


def test_every_export_is_used():
    # A name the package exports is one it computes with or documents: it
    # appears in another module than `__init__.py`, off the line that
    # defines it, or in README.md.  Test oracles live in the tests.
    readme = (ROOT / "README.md").read_text()
    modules = [path.read_text() for path in SOURCES if path.name != "__init__.py"]
    unused = []
    for name in dqwalk.__all__:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*((def|class)\s+{name}\b|{name}\s*(:[^=]*)?=)")
        used = word.search(readme) or any(
            word.search(line) and not definition.match(line)
            for text in modules
            for line in text.splitlines()
        )
        if not used:
            unused.append(name)
    assert unused == []


def test_every_public_member_is_used():
    # A method or property of an exported class is one the package computes
    # with or documents: `.name` appears off its definition in a module of
    # the package, in README.md, or in the acceptance criteria, which are
    # the API's spec.  Test oracles live in the tests.
    texts = [path.read_text() for path in SOURCES]
    texts += [(ROOT / name).read_text() for name in ("README.md", "tests/test_acceptance.py")]
    unused = []
    for name in dqwalk.__all__:
        cls = getattr(dqwalk, name)
        if not isinstance(cls, type):
            continue
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
        for member in node.body:
            if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                continue
            attribute = re.compile(rf"\.{member.name}\b")
            if not any(attribute.search(text) for text in texts):
                unused.append(f"{name}.{member.name}")
    assert unused == []


#: numpy names whose calls run a BLAS or LAPACK routine.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_no_blas_calls():
    # A BLAS routine's rounding depends on the kernel the library picks for
    # the CPU, so a document computed with one would change with the
    # machine.  The package writes its sums in numpy ufuncs instead.
    calls = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                calls.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES:
                calls.append(f"{path.name}:{node.lineno} import {node.name}")
    assert calls == []
