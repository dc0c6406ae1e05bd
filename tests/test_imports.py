"""Unused-import gate for the package, on the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "stratsys").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_gate_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == [
        "line 1: os", "line 2: lcm"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


# The package's layers, bottom up: a module imports only from layers before it.
LAYERS = ("record", "linalg", "report", "quiver", "reps", "apq", "artheory", "modules",
          "systems", "tubes", "classifier", "io_json", "cli", "__main__")


def layer_breaks(name: str, source: str) -> list[str]:
    """Each ``from .x import`` (or ``from . import x``) of module ``name``
    that is not at module level or names no layer before ``name``'s."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    below = LAYERS[:LAYERS.index(name)] if name in LAYERS else ()
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        targets = [node.module] if node.module else [alias.name for alias in node.names]
        if id(node) not in top:
            out.append(f"line {node.lineno}: {', '.join(targets)} imported inside a block")
        out += [f"line {node.lineno}: {t} is not a layer below {name}"
                for t in targets if t not in below]
    return out


def test_the_layer_gate_sees_a_nested_and_an_upward_import():
    source = "from .record import Frozen\nfrom . import cli\ndef f():\n    from .linalg import rank\n"
    assert layer_breaks("reps", source) == ["line 2: cli is not a layer below reps",
                                            "line 4: linalg imported inside a block"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_each_module_imports_only_from_the_layers_below_it_at_module_level(path):
    assert layer_breaks(path.stem, path.read_text()) == []


ROOT = Path(__file__).resolve().parent.parent
PYTHON_FILES = sorted(path for folder in ("src", "tests", "benchmark")
                      for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    """pyproject.toml claims ``requires-python >= 3.10``; no file may use
    grammar that came later (``except*``, type parameter lists, ...)."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each CLI run pays for its imports at interpreter start; ``dataclasses``
    and the ``inspect`` it pulls in cost about 27 ms there."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, stratsys.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
