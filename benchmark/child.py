"""One benchmark job in a fresh interpreter.

Usage: ``python3 benchmark/child.py '<job spec as JSON>'`` with ``src`` on
``PYTHONPATH``.  The job's inputs are built before the clock starts; the
timed part calls only the CLI entry point or public library functions.  The
last line of standard output is a JSON object with the job's wall time, its
per-query latencies, the number of checked units and the known-answer
failures among them, its peak RSS and, when the spec names a trace file, the
tracer summary.

Job specs:
  {"kind": "warmup"}
  {"kind": "apq", "p": 2, "q": 3}
  {"kind": "regular"}
  {"kind": "oracle", "seed": 1, "batch": 0, "size": 240}
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import stratsys.cli
from stratsys import artheory, classifier, io_json, reps, tubes
from stratsys.quiver import canonical_apq, kronecker

ROOT = Path(__file__).resolve().parent.parent
WILD_SAMPLE = ROOT / "samples" / "wild_double_path.quiver.json"

# Known answers, recorded at the seed commit.  The reports are the exact
# bytes ``stratsys --json apq families --p P --q Q`` prints.
APQ_REPORTS = {
    (2, 3): ("b961c22482984e600fdb6a8e81701d9e0a17c58c3f812e2337cfdadaa30f2601", 22),
    (3, 4): ("44c5b3dd623f23440052656c3fd89931e6fcac306087c45e922c011e2c410bc6", 30),
}
CRITERION_7 = {(1, 2): 1, (2, 2): 2, (2, 3): 3, (3, 3): 4, (3, 4): 5}

ENTRY_CHOICES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                 Fraction(-2), Fraction(1, 2))


def _wild_quiver():
    with open(WILD_SAMPLE, encoding="utf-8") as fh:
        return io_json.quiver_from_json(json.load(fh), where=str(WILD_SAMPLE))


def apq_job(p: int, q: int):
    """``--json apq families`` through ``stratsys.cli.main``: one query."""
    argv = ["--json", "apq", "families", "--p", str(p), "--q", str(q)]
    out = io.StringIO()

    def run():
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = stratsys.cli.main(argv)
        seconds = time.perf_counter() - start
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        want_digest, want_instances = APQ_REPORTS[(p, q)]
        errors = []
        if code != 0:
            errors.append(f"apq families {p} {q}: exit code {code}")
        else:
            report = json.loads(text)
            if report["verdict"] != "pass":
                errors.append(f"apq families {p} {q}: verdict {report['verdict']}")
            if len(report["data"]["instances"]) != want_instances:
                errors.append(f"apq families {p} {q}: "
                              f"{len(report['data']['instances'])} instances")
        if digest != want_digest:
            errors.append(f"apq families {p} {q}: report sha256 {digest}")
        return [seconds], 1, ["; ".join(errors)] if errors else []

    return run


def regular_job():
    """The criterion-7 grid, kronecker(2), the wild search and the Kronecker
    enumeration comparison in one process: one query, eight checked calls.
    The calls differ in cost by four orders of magnitude, so percentiles
    over single calls would mix unlike operations."""
    grid = [((p, q), canonical_apq(p, q)) for p, q in CRITERION_7]
    kron2 = kronecker(2)
    wild = _wild_quiver()

    def run():
        start = time.perf_counter()
        sizes = {pq: tubes.max_regular_ss_size(quiv, 2 * sum(pq)) for pq, quiv in grid}
        kron_size = tubes.max_regular_ss_size(kron2, 8)
        witness, wild_check = classifier.regular_css_search(wild, 8)
        comparison = classifier.compare_kronecker_enumeration(3, 13)
        seconds = time.perf_counter() - start
        errors = [f"max_regular_ss_size{pq} = {best}"
                  for pq, best in sizes.items() if best != CRITERION_7[pq]]
        if kron_size != 0:
            errors.append(f"max_regular_ss_size(kronecker 2) = {kron_size}")
        if witness is None or not wild_check.passed:
            errors.append("regular_css_search found no wild witness within cap 8")
        if not comparison.passed:
            errors.append("compare_kronecker_enumeration(3, 13) failed")
        return [seconds], len(sizes) + 3, errors

    return run


def _random_rep(q, rng: random.Random):
    dims = [rng.randint(0, 3) for _ in q.vertices]
    if not any(dims):
        dims[rng.randrange(len(dims))] = 1
    maps = {}
    for a in q.arrows:
        rows, cols = dims[q.index(a.tgt)], dims[q.index(a.src)]
        maps[a.label] = [[rng.choice(ENTRY_CHOICES) for _ in range(cols)]
                         for _ in range(rows)]
    return reps.make_rep(q, dims, maps)


def oracle_job(seed: int, batch: int, size: int):
    """Seeded random pairs (x, y), cycling over four quivers; one query
    checks Ext^1 by both routes and the Auslander-Reiten formula."""
    quivers = [kronecker(3), canonical_apq(2, 3), canonical_apq(3, 4), _wild_quiver()]
    rng = random.Random(seed * 1_000_003 + batch)
    pairs = []
    for i in range(size):
        q = quivers[i % len(quivers)]
        pairs.append((_random_rep(q, rng), _random_rep(q, rng)))

    def query(x, y):
        return (reps.ext1_dim(x, y) == reps.ext1_dim_direct(x, y)
                and artheory.auslander_check(x, y).passed)

    def run():
        latencies, errors = [], []
        for i, (x, y) in enumerate(pairs):
            start = time.perf_counter()
            try:
                problem = None if query(x, y) else "identity failed"
            except Exception as exc:  # a query that raises is one failed unit
                problem = repr(exc)
            latencies.append(time.perf_counter() - start)
            if problem:
                errors.append(f"oracle pair {i} of batch {batch}: {problem}")
        return latencies, len(pairs), errors

    return run


def warmup_job():
    """Import every module a job uses, so that compiling them happens here."""
    return lambda: ([], 0, [])


JOBS = {"apq": apq_job, "regular": regular_job, "oracle": oracle_job,
        "warmup": warmup_job}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    trace_path = spec.pop("trace", None)
    run = JOBS[spec.pop("kind")](**spec)
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    latencies, checked, errors = run()
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "latencies_s": latencies,
        "checked": checked,
        "errors": errors,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(trace_path)
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
