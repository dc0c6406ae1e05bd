"""Unreached-surface gate for the package, on the standard library alone:
every public function and method in ``src/stratsys`` must have a caller in
``src/``, or be listed in ``KEPT`` with the reason it stays.

A module-level function is reached by any mention of its name outside its
own body: a call, a reference, or an attribute ``module.name``.  A method is
reached by a call ``x.name(...)`` or by ``self.name`` inside its own class;
a property by any attribute read.  Dunder methods belong to the interpreter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stratsys").glob("*.py"))
PROPERTIES = {"property", "cached_property"}

# Public names with no caller in src/, each with the reason it stays.
KEPT = {
    "linalg.invert": "benchmark/tracer.py spans it as dense elimination",
    "linalg.solve": "benchmark/tracer.py spans it",
    "modules.pair_hom": "benchmark/tracer.py spans it",
    "artheory.auslander_check": "benchmark/child.py checks each oracle pair with it",
    "tubes.max_regular_ss_size": "benchmark/child.py runs it over the criterion-7 grid",
}


def _decorator_names(fn) -> set:
    return {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
            for d in fn.decorator_list}


def definitions(module: str, tree: ast.Module) -> list[tuple[str, str, str]]:
    """(qualified name, bare name, kind) for each public module-level
    function and each public method of a module-level class; kind is
    "function", "property" or, for a method, "self:<its class>"."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node.name, "function"))
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    kind = ("property" if _decorator_names(fn) & PROPERTIES
                            else f"self:{node.name}")
                    out.append((f"{module}.{node.name}.{fn.name}", fn.name, kind))
    return out


def mentions(tree: ast.Module) -> dict[str, set]:
    """Bare name -> how it is mentioned ("name", "call", "read", or
    "self:<class>" for ``self.name`` inside a class), leaving out mentions
    inside a function of the same name."""
    found: dict[str, set] = {}
    calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}

    def visit(node, enclosing, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, enclosing | {child.name}, owner)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, enclosing, child.name)
                continue
            if isinstance(child, ast.Name) and child.id not in enclosing:
                found.setdefault(child.id, set()).add("name")
            elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                if id(child) in calls:
                    how = "call"
                elif isinstance(child.value, ast.Name) and child.value.id in ("self", "cls"):
                    how = f"self:{owner}"
                else:
                    how = "read"
                found.setdefault(child.attr, set()).add(how)
            visit(child, enclosing, owner)

    visit(tree, frozenset(), None)
    return found


def unreached(sources: dict[str, str]) -> list[str]:
    """Qualified names of the public functions and methods in ``sources``
    (module name -> text) that no source mentions as a caller would."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    seen: dict[str, set] = {}
    for tree in trees.values():
        for name, hows in mentions(tree).items():
            seen.setdefault(name, set()).update(hows)

    def reached(name: str, kind: str) -> bool:
        hows = seen.get(name, set())
        if kind == "function":
            return bool(hows)
        if kind == "property":
            return bool(hows - {"name"})
        return "call" in hows or kind in hows

    return [qualname for module, tree in trees.items()
            for qualname, name, kind in definitions(module, tree)
            if not reached(name, kind)]


def test_the_gate_sees_each_kind_of_unreached_name():
    sources = {
        "a": ("def used(): ...\n"
              "def unused(): ...\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def _private(): ...\n"
              "class Map:\n"
              "    def apply(self, x): return self.step(x)\n"
              "    def step(self, x): ...\n"
              "    def power(self, x, k): ...\n"
              "    @property\n"
              "    def size(self): ...\n"
              "    @property\n"
              "    def unread(self): ...\n"
              "class Ref:\n"
              "    power: int = 0\n"
              "    def describe(self): return self.power\n"),
        "b": ("from a import used\nused()\nMap().apply(Ref().power)\n"
              "print(Map().size, Ref().describe())\n"),
    }
    assert unreached(sources) == ["a.unused", "a.recursive", "a.Map.power", "a.Map.unread"]


def test_every_public_function_has_a_caller_in_src():
    found = unreached({path.stem: path.read_text() for path in SOURCES})
    assert sorted(set(found) - set(KEPT)) == []


def test_every_kept_name_is_still_unreached():
    # a kept name that gained a caller no longer needs its exception
    found = unreached({path.stem: path.read_text() for path in SOURCES})
    assert sorted(set(KEPT) - set(found)) == []
