"""Every name a package module imports is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wittgrass"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node of the module reads.

    ``__future__`` imports bind nothing, and ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Iterable, NamedTuple as NT\n"
              "x: NT = os.sep\n")
    assert unused_imports(source) == ["Iterable"]


def test_all_lists_exactly_what_the_package_imports():
    """``wittgrass.__all__`` names the names ``__init__.py`` imports, and
    ``__version__``, so trimming one list cannot leave the other behind."""
    import wittgrass

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(wittgrass.__all__) == sorted([*imported, "__version__"])
