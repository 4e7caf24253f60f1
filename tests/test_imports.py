"""Every name a package module imports is used by that module, every
public name of the package has a caller, every private function is read in
its own module, every parameter default is overridden by some call, the
tests' mod-2 oracle imports nothing from the package, and every Python file
parses with the oldest supported Python's grammar."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittgrass"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the references a test checks the verified path against
TEST_REFERENCES = {"BasisMap.to_json"}


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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules an import statement of ``source``
    names, with ``.`` for a relative import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." if node.level else node.module.split(".")[0])
    return found


def test_mod2_oracle_imports_the_standard_library_only():
    """The mod-2 route the tests hold the masks and the degree transport to
    imports no module but the standard library's: nothing from wittgrass,
    and no test helper that does."""
    found = imported_modules((ROOT / "tests" / "mod2_route.py").read_text())
    assert "collections" in found and found <= sys.stdlib_module_names, found


def test_import_check_sees_every_import():
    source = ("import os.path, json as js\nfrom wittgrass.lattice import PicClass\n"
              "from . import helpers\ndef f():\n    import wittgrass\n")
    assert imported_modules(source) == {"os", "json", "wittgrass", "."}


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Records are namedtuples or plain classes, so importing the CLI loads
    neither ``dataclasses`` (nor through it ``inspect``) nor ``typing``, which
    would double its start-up.  ``-S`` skips ``site``, which may load
    ``typing`` itself."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wittgrass.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["verify", "--scope", "all", "--max-frame", "3"], []),
    (["table", "--d", "2", "--e", "2"], ["wittgrass.commands"]),
    (["canonical", "--dvec", "1,3", "--evec", "0,2", "--ambient", "5"],
     ["wittgrass.commands", "wittgrass.lattice"]),
], ids=["import", "verify", "table", "canonical"])
def test_commands_and_lattice_load_on_first_use(argv, loaded):
    """``import wittgrass.cli`` and a verify run compile neither the other
    commands (``commands``) nor the Picard-class calculus (``lattice``);
    ``canonical`` alone loads ``lattice``."""
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import wittgrass.cli; "
            f"out, sys.stdout = sys.stdout, io.StringIO(); argv = {argv!r}; "
            "status = argv and wittgrass.cli.main(argv); sys.stdout = out; "
            "print(status, sorted({'wittgrass.commands', 'wittgrass.lattice'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, f"{0 if argv else None} {loaded}\n", "")


def test_every_name_in_all_resolves():
    """The package's ``__getattr__`` serves each name of ``lattice`` that
    ``__all__`` lists, so the lazy import cannot drop a name, and refuses
    every other name."""
    import wittgrass
    from wittgrass import lattice

    for name in wittgrass.__all__:
        value = getattr(wittgrass, name)
        if name not in vars(wittgrass):
            assert value is getattr(lattice, name), name
    assert not hasattr(wittgrass, "les_twist")


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


def _functions(tree):
    """(qualified name, called name, node, bound) of every function and
    method, nested ones included: a method is ``Class.method``, is called by
    its own name (``__init__`` and ``__new__`` by its class's name) and has
    its first parameter bound by the call, unless it is a staticmethod."""
    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                called = cls if cls and node.name in ("__init__", "__new__") else node.name
                yield f"{prefix}{node.name}", called, node, bool(cls) and not static
                yield from visit(node.body, f"{prefix}{node.name}.", None)
            else:
                yield from visit(getattr(node, "body", []) + getattr(node, "orelse", []),
                                 prefix, cls)
    return visit(tree.body, "", None)


def unset_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """Parameters with a default, as ``function.parameter``, of the functions
    and methods of the ``defining`` sources that no call in the ``calling``
    sources passes, by position or by keyword.

    A call is matched to a definition by the called name alone, and a call
    of a class counts for its ``__init__`` and its ``__new__``.  A starred
    argument passes every position, and a double-starred one every keyword.
    """
    calls: dict[str, list] = {}
    for tree in map(ast.parse, calling):
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            calls.setdefault(name, []).append((len(call.args), starred, keywords))
    unset = []
    for tree in map(ast.parse, defining):
        for qualified, called, node, bound in _functions(tree):
            args = node.args
            positional = (args.posonlyargs + args.args)[int(bound):]
            defaulted = [(k, a.arg) for k, a in enumerate(positional)
                         if k >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for k, param in defaulted:
                if not any(param in keywords or None in keywords
                           or (k is not None and (count > k or starred))
                           for count, starred, keywords in calls.get(called, [])):
                    unset.append(f"{qualified}.{param}")
    return unset


def test_every_default_is_overridden_by_some_call():
    """No knob: a parameter with a default is passed by some call in
    ``src/``, ``demos/`` or the benchmark worker, so no default is the only
    value a parameter ever takes."""
    calling = [*MODULES, SRC / "__init__.py", *sorted((ROOT / "demos").glob("*.py")),
               ROOT / "perfbench" / "worker.py"]
    assert unset_defaults([p.read_text() for p in MODULES],
                          [p.read_text() for p in calling]) == []


def test_default_check_sees_an_unset_knob():
    source = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "def g(x=0): pass\n"
              "def h(*args, y=0): pass\n"
              "class Box:\n"
              "    def __init__(self, size=1, fill=None): pass\n"
              "    def grow(self, by=1): pass\n"
              "    @staticmethod\n"
              "    def make(n=2): pass\n"
              "    def outer(self):\n"
              "        def inner(z=5): pass\n"
              "        return inner\n"
              "class Pair(tuple):\n"
              "    def __new__(cls, a, b=0, c=1): pass\n")
    calls = ("f(0, 1, e=4)\ng(*[1])\nh(**{})\nBox(2)\nBox().grow()\n"
             "Box.make(3)\nPair(1, c=2)\n")
    assert unset_defaults([source], [source, calls]) == [
        "f.c", "f.d", "Box.__init__.fill", "Box.grow.by", "Box.outer.inner.z",
        "Pair.__new__.b"]


def test_every_file_parses_with_the_oldest_supported_grammar():
    """``requires-python`` is >=3.10, so every Python file of the package,
    its tests, demos and benchmark parses with Python 3.10's grammar."""
    paths = [p for top in ("src", "tests", "demos", "perfbench")
             for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
