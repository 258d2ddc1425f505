"""Every module of the package uses each name it imports, and only qtorus
reads a torus value's storage.

Standard library only: each module is parsed with ast, and a name bound by
an import statement counts as used when it appears anywhere else in the
module as a plain name, including in annotations.  __init__.py re-exports
by importing, so it is left out of the import check.  A value's storage is
its dense terms and its frame; no module but qtorus reads an attribute of
either name, with or without the leading underscore.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgroth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_used_names():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit(c)\n"
    assert unused_imports(src) == ["os (line 2)"]


STORAGE = {"dense", "_dense", "frame", "_frame"}


def storage_reads(source: str) -> list[str]:
    return sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE
    )


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "qtorus.py"],
    ids=lambda p: p.name,
)
def test_only_qtorus_reads_storage(path):
    assert storage_reads(path.read_text()) == []


def test_detector_sees_storage_reads():
    src = "x.frame.lam\nn = len(y._dense)\nz.terms\nframe = dense = 1\n"
    assert storage_reads(src) == ["_dense (line 2)", "frame (line 1)"]
