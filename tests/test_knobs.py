"""Dead-knob gate for the package, on the standard library alone: every
parameter with a default in ``src/stratsys`` must be set by some call in
``src/``, ``tests/`` or ``benchmark/``, or it is a constant in disguise.

A dataclass or ``NamedTuple`` field counts as a parameter of its class, and
so does a parameter of a class's ``__init__``, since every call names the
class.  A dataclass field that the code assigns through an attribute
(``report.checked += 1``) is state, not a setting, and so is a
``field(default_factory=...)`` container; an ``__init__`` parameter gets no
such pass, because ``__init__`` itself assigns each one."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stratsys").glob("*.py"))
CALLERS = sorted(path for top in ("src", "tests", "benchmark")
                 for path in (ROOT / top).rglob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _is_namedtuple(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               or isinstance(b, ast.Attribute) and b.attr == "NamedTuple" for b in node.bases)


def _field_keywords(stmt: ast.AnnAssign) -> set:
    """The keywords of a ``field(...)`` default, else the empty set."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return {k.arg for k in value.keywords}
    return set()


def signatures(tree: ast.AST) -> list[tuple[str, list[str], list[str], int, bool]]:
    """(callable name, positional parameters, defaulted parameters, line,
    is a dataclass) for every function, dataclass and ``NamedTuple``; a
    method drops its ``self``/``cls``, and an ``__init__`` goes by its
    class's name."""
    inits = {child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for child in node.body
             if isinstance(child, ast.FunctionDef) and child.name == "__init__"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            out.append((inits.get(node, node.name), positional, defaulted, node.lineno, False))
        elif isinstance(node, ast.ClassDef) and (_is_dataclass(node) or _is_namedtuple(node)):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name) and "init" not in _field_keywords(s)]
            out.append((node.name, [s.target.id for s in fields],
                        [s.target.id for s in fields if s.value is not None
                         and "default_factory" not in _field_keywords(s)], node.lineno,
                        _is_dataclass(node)))
    return out


def set_parameters(trees) -> tuple[dict[str, set], set[str]]:
    """Callable name -> the positions and keywords some call sets, where a
    call that spreads ``*args`` or ``**kwargs`` sets everything (``None``);
    and the attribute names that some statement assigns."""
    seen: dict[str, set] = defaultdict(set)
    assigned: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned.update(t.attr for t in targets if isinstance(t, ast.Attribute))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                seen[name].add(None)
            seen[name].update(range(len(node.args)))
            seen[name].update(k.arg for k in node.keywords)
    return seen, assigned


def dead_knobs(sources: dict[str, str], callers: list[str]) -> list[str]:
    seen, assigned = set_parameters(ast.parse(text) for text in callers)
    dead = []
    for filename, text in sources.items():
        for name, positional, defaulted, line, is_dataclass in signatures(ast.parse(text)):
            used = seen.get(name, set())
            if None in used:
                continue
            for param in defaulted:
                index = positional.index(param) if param in positional else -1
                if not (param in used or index in used or is_dataclass and param in assigned):
                    dead.append((filename, line, f"{name}({param})"))
    return [f"{filename}:{line} {knob}" for filename, line, knob in sorted(dead)]


def test_the_gate_sees_a_dead_knob():
    source = ("from dataclasses import dataclass\n"
              "def f(a, b=1, c=2, *, d=3):\n    return a\n"
              "class K:\n    def m(self, x=0, y=0):\n        return x\n"
              "@dataclass\nclass D:\n    u: int = 0\n    v: int = 0\n    w: int = 0\n"
              "def g(z=0):\n    return z\n"
              "class N(NamedTuple):\n    s: int\n    t: int = 0\n    r: int = 0\n"
              "class R:\n    def __init__(self, a, b=0, c=0):\n        self.b = b\n")
    callers = [source + "f(0, 5)\nK().m(1)\nd = D(v=2)\nd.w += 1\ng(*[])\n"
               "N(1, 2)\nR(0, c=1)\n"]
    assert dead_knobs({"s.py": source}, callers) == [
        "s.py:2 f(c)", "s.py:2 f(d)", "s.py:5 m(y)", "s.py:8 D(u)", "s.py:14 N(r)",
        "s.py:19 R(b)"]


def test_every_default_is_set_somewhere():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert dead_knobs(sources, [path.read_text() for path in CALLERS]) == []
