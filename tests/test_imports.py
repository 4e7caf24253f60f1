"""Every name a package module imports is used by that module, and every
public name of the package has a caller."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittgrass"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the references a test checks the verified path against
TEST_REFERENCES = {"cell_canonicals", "BasisMap.to_json"}


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


def _reads(node) -> Counter:
    """Identifiers read by the Name and Attribute nodes under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def unread_public_names(defining: list[str], reading: list[str],
                        layers: set[str] = frozenset()) -> list[str]:
    """Public module-level functions and classes, and public methods as
    ``Class.method``, of the ``defining`` sources that no Name or Attribute
    node reads outside their own definition, in the ``defining`` or the
    ``reading`` sources, and whose name is not in ``layers``.

    A method counts as read wherever an attribute of its name is read, on
    whatever object.
    """
    trees = [ast.parse(source) for source in defining]
    reads = sum((_reads(tree) for tree in trees + [ast.parse(s) for s in reading]),
                Counter())
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
    unread = []
    for qualified, node in defs:
        name = node.name
        if (not name.startswith("_") and name not in layers
                and reads[name] - _reads(node)[name] <= 0):
            unread.append(qualified)
    return unread


def _layer_names() -> set[str]:
    """The function names in ``perfbench/tracing.py``'s ``LAYERS``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    return {n.value for n in ast.walk(layers)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_public_name_has_a_caller():
    """The README rule: a public name has a caller in ``src/`` (not counting
    ``__init__.py``) or ``demos/``, the benchmark's tracer wraps it by name,
    or it is a reference a test checks the verified path against."""
    unread = unread_public_names([p.read_text() for p in MODULES],
                                 [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))],
                                 _layer_names())
    assert [name for name in unread if name not in TEST_REFERENCES] == []


def test_caller_check_sees_an_unread_name():
    source = ("def used(): return helper()\n"
              "def helper(): return 1\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def traced(): pass\n"
              "def _private(): pass\n"
              "class Shape:\n"
              "    def area(self): return self.area_of(self)\n"
              "    def area_of(self, other): return 0\n"
              "    def unread(self): return self.unread()\n")
    demo = "used()\nShape().area()\n"
    assert unread_public_names([source], [demo], {"traced"}) == [
        "recursive", "Shape.unread"]
