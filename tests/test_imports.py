"""Every name a package module imports is used by that module, every
public name of the package has a caller, and every private function is read
in its own module."""

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
    return [qualified for tree in trees for qualified, node in _definitions(tree)
            if not node.name.startswith("_") and node.name not in layers
            and not _read_outside(node, reads)]


def _definitions(tree):
    """(qualified name, node) of each module-level function and class, and of
    each method as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef))


def _read_outside(node, reads: Counter) -> bool:
    """Whether ``reads`` holds a read of ``node``'s name outside ``node`` itself."""
    return reads[node.name] - _reads(node)[node.name] > 0


def unread_private_functions(source: str) -> list[str]:
    """Private module-level functions, and private methods as ``Class.method``,
    that no Name or Attribute node of their own module reads outside their
    own definition.  Dunder methods are called by the language, so they do
    not count as private.
    """
    tree = ast.parse(source)
    reads = _reads(tree)
    return [qualified for qualified, node in _definitions(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.endswith("__") and not _read_outside(node, reads)]


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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_function_is_read_in_its_module(path):
    assert unread_private_functions(path.read_text()) == []


def test_private_check_sees_an_unread_name():
    source = ("def public(): return _helper()\n"
              "def _helper(): return 1\n"
              "def _recursive(n): return _recursive(n - 1)\n"
              "def _orphan(): pass\n"
              "class _Shape:\n"
              "    def __init__(self): self._area = self._area_of()\n"
              "    def _area_of(self): return 0\n"
              "    def _unread(self): return self._unread()\n")
    assert unread_private_functions(source) == ["_recursive", "_orphan", "_Shape._unread"]
