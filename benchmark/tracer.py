"""Outside-in tracer for the stratsys layers.

The tracer never edits the library.  It replaces public functions of the
``stratsys.*`` modules with wrappers, at every module-level binding of the
same function object (``from .reps import hom_dim`` makes ``modules.hom_dim``
a second binding that must be wrapped too), and two class attributes.

A span wrapper records (name, parent span, start, end) in flat arrays kept
in memory; ``write`` dumps them when the job ends.  Hot leaf helpers get a
counting wrapper that opens no span, so the searches that call them hundreds
of thousands of times are not slowed by span bookkeeping.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

# Span name for each traced function (module, attribute).  The search layer
# (systems, classifier, tubes) is added whole in ``install``.
SPANS = {
    ("linalg", "rank"): "linalg.sparse",
    ("linalg", "rank_of_rows"): "linalg.sparse",
    ("linalg", "rank_of_sparse_rows"): "linalg.sparse",
    ("linalg", "kernel_basis"): "linalg.dense",
    ("linalg", "span_basis"): "linalg.dense",
    ("linalg", "solve"): "linalg.dense",
    ("linalg", "invert"): "linalg.dense",
    ("reps", "hom_dim"): "reps.hom_dim",
    ("reps", "minimal_presentation"): "reps.minimal_presentation",
    ("reps", "projective_cover_data"): "reps.projective_cover_data",
    ("reps", "sub_representation"): "reps.sub_representation",
    ("artheory", "tau"): "artheory.tau",
    ("artheory", "tau_inv"): "artheory.tau_inv",
    ("modules", "pair_hom"): "modules.pair_hom",
    ("modules", "materialize"): "modules.materialize",
    ("cli", "main"): "cli.main",
}
SEARCH_MODULES = ("systems", "classifier", "tubes")

# Leaf helpers that are counted, never spanned: (module, attribute) -> counter.
COUNTED = {
    ("modules", "ref_dims"): "modules.ref_dims.calls",
    ("quiver", "euler_form"): "quiver.euler_form.calls",
    ("apq", "tube_point_dim_vector"): "apq.tube_point_dim_vector.calls",
}
# Methods, counted on the class itself: (module, class, method) -> counter.
COUNTED_METHODS = {
    ("reps", "Representation", "map_along"): "reps.map_along.calls",
    ("apq", "ApqAlgebra", "tube_point"): "apq.tube_point.calls",
}


def _dense_cells(fn_name: str, args) -> int:
    """rows x cols of the matrix handed to the dense eliminator."""
    if fn_name == "span_basis":
        vectors, length = args
        return len(vectors) * length
    matrix = args[0]
    return matrix.rows * matrix.cols


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.max_total_dim = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _observe(self, fn_name: str, key: str, args, result) -> None:
        counts = self.counts
        counts[key] += 1
        if fn_name in ("kernel_basis", "span_basis", "solve", "invert"):
            counts["linalg.dense.cells"] += _dense_cells(fn_name, args)
        elif fn_name == "materialize":
            self.max_total_dim = max(self.max_total_dim, sum(result.dims))
        elif fn_name == "check_ss":
            counts["systems.check_ss.passed"] += bool(result.passed)
        elif fn_name == "exceptional_of_dims":
            counts["classifier.exceptional_of_dims.found"] += result is not None

    def span(self, name: str, fn):
        nid = self._intern(name)
        fn_name = fn.__name__
        key = f"{fn.__module__.rpartition('.')[2]}.{fn_name}.calls"
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        observe = self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            observe(fn_name, key, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding in the loaded stratsys modules."""
        import stratsys.cli  # noqa: F401  (loads every layer)
        mods = {name.partition(".")[2]: mod for name, mod in sys.modules.items()
                if name == "stratsys" or name.startswith("stratsys.")}
        targets = {getattr(mods[m], attr): name for (m, attr), name in SPANS.items()}
        for short in SEARCH_MODULES:
            mod = mods[short]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.setdefault(value, f"{short}.{attr}")
        wrappers = {fn: self.span(name, fn) for fn, name in targets.items()}
        for (m, attr), key in COUNTED.items():
            fn = getattr(mods[m], attr)
            wrappers[fn] = self.counter(key, fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        for (m, cls_name, attr), key in COUNTED_METHODS.items():
            cls = getattr(mods[m], cls_name)
            setattr(cls, attr, self.counter(key, getattr(cls, attr)))

    def write(self, path: str) -> None:
        """Dump the spans, one ``index parent name start end`` line each;
        parent -1 marks a root span."""
        with open(path, "w", encoding="utf-8") as fh:
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{i} {self.span_parent[i]} {names[self.span_name[i]]} "
                         f"{self.span_start[i]:.9f} {self.span_end[i]:.9f}\n")

    def summary(self) -> dict:
        """Per span name: calls and self time; plus the counters and the
        span-derived counts (structural fallbacks, tau cache hits)."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        nid = self._name_id.get
        pair_hom, hom_dim = nid("modules.pair_hom", -2), nid("reps.hom_dim", -2)
        tau, presentation = nid("artheory.tau", -2), nid("reps.minimal_presentation", -2)
        fallbacks = 0
        tau_with_presentation = set()
        for i in range(len(starts)):
            name = names[i]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += dur
            parent = parents[i]
            if parent >= 0:
                pname = names[parent]
                self_s[pname] -= dur
                if name == hom_dim and pname == pair_hom:
                    fallbacks += 1
                elif name == presentation and pname == tau:
                    tau_with_presentation.add(parent)
        spans = {self.names[k]: {"calls": calls[k], "self_s": self_s[k]}
                 for k in range(n_names)}
        counts = dict(self.counts)
        counts["modules.materialize.max_total_dim"] = self.max_total_dim
        counts["modules.structural_fallbacks"] = fallbacks
        counts["artheory.tau.misses"] = len(tau_with_presentation)
        counts["trace.spans"] = len(starts)
        return {"spans": spans, "counts": counts}
