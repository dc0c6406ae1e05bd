"""One explicit cache layer: per-quiver memos live in ``QuiverContext`` only.

A stdlib ``ast`` gate over the package: no module-level dict named like a
cache (``_*CACHE*`` or ``_*DIMS*``), and no ``functools.cache`` or
``lru_cache`` on a function whose first parameter is a ``Quiver``.
"""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "stratsys").glob("*.py"))
CACHE_NAME = re.compile(r"^_\w*(CACHE|DIMS)", re.IGNORECASE)
MEMO_DECORATORS = {"cache", "lru_cache"}


def _is_dict(node) -> bool:
    return (isinstance(node, (ast.Dict, ast.DictComp))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "defaultdict")))


def _decorator_name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _annotation_name(node) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"")
    return node.id if isinstance(node, ast.Name) else ""


def _first_param_is_quiver(fn, owner) -> bool:
    params = fn.args.posonlyargs + fn.args.args
    if not params:
        return False
    if owner == "Quiver" and params[0].arg == "self":
        return True
    return params[0].annotation is not None and _annotation_name(params[0].annotation) == "Quiver"


def cache_layer_violations(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CACHE_NAME.match(target.id) and _is_dict(value):
                found.append(f"line {node.lineno}: module-level cache dict {target.id}")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (any(_decorator_name(d) in MEMO_DECORATORS for d in child.decorator_list)
                        and _first_param_is_quiver(child, owner)):
                    found.append(f"line {child.lineno}: memoized quiver function {child.name}")
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def test_the_gate_sees_each_kind_of_stray_cache():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_HOM_CACHE: dict[tuple, int] = {}\n"
        "_ORBIT_DIMS = dict()\n"
        "@functools.cache\n"
        "def coxeter_of(q: Quiver): ...\n"
        "@lru_cache(maxsize=None)\n"
        "def paths(q: 'Quiver', k: int): ...\n"
        "class Quiver:\n"
        "    @functools.cache\n"
        "    def invariant(self): ...\n"
        "@functools.cache\n"
        "def apq_algebra(p: int, q: int): ...\n"
        "_CONTEXTS: dict = {}\n"
    )
    assert cache_layer_violations(source) == [
        "line 3: module-level cache dict _HOM_CACHE",
        "line 4: module-level cache dict _ORBIT_DIMS",
        "line 6: memoized quiver function coxeter_of",
        "line 8: memoized quiver function paths",
        "line 11: memoized quiver function invariant",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cache_outside_the_quiver_context(path):
    assert cache_layer_violations(path.read_text()) == []
