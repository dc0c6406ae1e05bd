"""stratsys benchmark driver.

    python3 benchmark/run.py --workload apq-families --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The driver is one single-threaded
process that starts one child interpreter at a time (``child.py``), each
from a fresh import, so every job pays for the cold module-level caches as
a user's CLI call does.  Rounds of the workload's jobs run in a closed loop
with one client; a new round starts only while it is expected to end within
``--seconds``, and at least one round runs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round
untraced and the same round traced and prints the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it list
the same metrics by name and unit for people.  ``--workload all`` runs every
workload in turn.  See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
BUILD_DIR = ROOT / ".bench_build"

ORACLE_BATCH = 240        # queries per oracle-pairs child
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170


def apq_jobs(seed: int, round_index: int) -> list[dict]:
    return [{"kind": "apq", "p": 2, "q": 3}, {"kind": "apq", "p": 3, "q": 4}]


def regular_jobs(seed: int, round_index: int) -> list[dict]:
    return [{"kind": "regular"}]


def oracle_jobs(seed: int, round_index: int) -> list[dict]:
    return [{"kind": "oracle", "seed": seed, "batch": round_index, "size": ORACLE_BATCH}]


# apq-families and regular-search have no random inputs; the seed only
# shapes oracle-pairs.
WORKLOADS = {
    "apq-families": apq_jobs,
    "regular-search": regular_jobs,
    "oracle-pairs": oracle_jobs,
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("query_p98_ms", "ms")]

SPAN_METRICS = ["linalg.sparse", "linalg.dense", "reps.hom_dim",
                "reps.minimal_presentation", "reps.projective_cover_data",
                "reps.sub_representation", "artheory.tau", "artheory.tau_inv",
                "modules.pair_hom", "modules.materialize", "systems.check_ss",
                "systems.extend_to_complete"]
LAYER_OF = {"linalg": "linalg", "reps": "reps", "artheory": "artheory",
            "modules": "modules", "systems": "search", "classifier": "search",
            "tubes": "search", "cli": "cli"}
COUNT_METRICS = ["linalg.solve.calls", "linalg.dense.cells",
                 "modules.structural_fallbacks", "modules.materialize.max_total_dim",
                 "modules.ref_dims.calls", "quiver.euler_form.calls",
                 "apq.tube_point.calls", "apq.tube_point_dim_vector.calls",
                 "reps.map_along.calls", "classifier.exceptional_of_dims.calls",
                 "trace.spans"]


def child_env() -> dict:
    """Pinned child environment: no inherited Python or stratsys settings,
    fixed string hashing, bytecode kept out of ``src``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and not k.startswith("STRATSYS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(BUILD_DIR / "pycache")
    return env


def run_child(spec: dict, env: dict) -> dict:
    """Run one job; a crash, a timeout or unreadable output is one failed unit."""
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{spec}: timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"{spec}: exit {proc.returncode}: {tail[0]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"errors": [f"{spec}: unreadable result line"]}


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing ``stratsys.cli``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import stratsys.cli"],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("import stratsys.cli failed: "
                               + proc.stderr.decode(errors="replace").strip())
    return statistics.median(samples)


def units(results: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over checked units; a crashed job is one unit."""
    attempted = failed = 0
    for r in results:
        attempted += r.get("checked", 1)
        failed += len(r["errors"])
    return attempted, failed


def run_rounds(jobs, seed: int, seconds: float, env: dict, trace_dir=None,
               max_rounds=None) -> list[list[dict]]:
    rounds: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results = []
        for k, spec in enumerate(jobs(seed, len(rounds))):
            if trace_dir is not None:
                spec = dict(spec, trace=str(trace_dir / f"job{k}.spans"))
            results.append(run_child(spec, env))
        rounds.append(results)
        took = time.perf_counter() - began
        if max_rounds is not None and len(rounds) >= max_rounds:
            return rounds
        if time.perf_counter() - start + took > seconds:
            return rounds


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(rounds: list[list[dict]], setup_s: float) -> tuple[dict, dict]:
    ok_rounds = [r for r in rounds if all("wall_s" in j for j in r)]
    walls = [sum(j["wall_s"] for j in r) for r in ok_rounds] or [0.0]
    rss = [max(j["rss_kb"] for j in r) / 1024 for r in ok_rounds] or [0.0]
    latencies = [x * 1000 for r in ok_rounds for j in r for x in j["latencies_s"]] or [0.0]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "query_p50_ms": percentile(latencies, 50),
        "query_p98_ms": percentile(latencies, 98),
    }
    info = {"rounds": len(rounds), "queries": len(latencies)}
    return values, info


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: list[dict], plain_wall: float) -> dict:
    """Sum the traced jobs' summaries into the per-layer metrics."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for job in traced:
        summary = job.get("trace", {"spans": {}, "counts": {}})
        for name, s in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
        for name, v in summary["counts"].items():
            if name.endswith(".max_total_dim"):
                counts[name] = max(counts.get(name, 0), v)
            else:
                counts[name] = counts.get(name, 0) + v
    out: dict[str, float] = {}
    for name in SPAN_METRICS:
        s = spans.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    layer_self = {layer: 0.0 for layer in dict.fromkeys(LAYER_OF.values())}
    search_calls = 0
    for name, s in spans.items():
        layer = LAYER_OF[name.split(".")[0]]
        layer_self[layer] += s["self_s"]
        if layer == "search":
            search_calls += s["calls"]
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["search.calls"] = search_calls
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    tau_calls = spans.get("artheory.tau", {"calls": 0})["calls"]
    out["artheory.tau.hit_ratio"] = _ratio(tau_calls - counts.get("artheory.tau.misses", 0),
                                           tau_calls)
    out["systems.check_ss.pass_ratio"] = _ratio(counts.get("systems.check_ss.passed", 0),
                                                counts.get("systems.check_ss.calls", 0))
    out["classifier.exceptional_of_dims.success_ratio"] = _ratio(
        counts.get("classifier.exceptional_of_dims.found", 0),
        counts.get("classifier.exceptional_of_dims.calls", 0))
    out["trace.overhead_s"] = sum(j.get("wall_s", 0.0) for j in traced) - plain_wall
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    jobs = WORKLOADS[workload]
    if not trace:
        rounds = run_rounds(jobs, seed, seconds, env)
        values, info = end_to_end(rounds, setup_seconds(env))
        units_of = dict(END_TO_END)
        results = [j for r in rounds for j in r]
        print(f"{workload}: seed {seed}, {info['rounds']} round(s), "
              f"{info['queries']} queries (percentile samples)")
    else:
        plain = run_rounds(jobs, seed, seconds, env, max_rounds=1)[0]
        trace_dir = BUILD_DIR / "trace" / workload
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_rounds(jobs, seed, seconds, env, trace_dir=trace_dir, max_rounds=1)[0]
        values = per_layer(traced, sum(j.get("wall_s", 0.0) for j in plain))
        units_of = {name: unit_of(name) for name in values}
        results = plain + traced
        print(f"{workload}: seed {seed}, one round untraced and one traced; "
              f"spans in {trace_dir.relative_to(ROOT)}")
        for k, (spec, job) in enumerate(zip(jobs(seed, 0), traced)):
            c = job.get("trace", {}).get("counts", {})
            print(f"  job{k} {json.dumps(spec, sort_keys=True)}: "
                  f"structural_fallbacks {c.get('modules.structural_fallbacks', 0)}, "
                  f"linalg.solve.calls {c.get('linalg.solve.calls', 0)}")
    attempted, failed = units(results)
    for r in results:
        for err in r.get("errors", []):
            print(f"  FAILED: {err}")
    for name, value in values.items():
        print(f"  {name:48s} {value:>16.6g} {units_of[name]}")
    print(f"  {'failed_ratio':48s} {failed / attempted:>16.6g} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed of oracle-pairs; 20261017 is held out "
                             "for confirming a claimed gain")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stratsys" / "cli.py").is_file():
        print(f"error: no stratsys sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    env = child_env()
    warm = run_child({"kind": "warmup"}, env)  # untimed: compiles bytecode
    if warm.get("errors"):
        print(f"error: warm-up failed: {warm['errors'][0]}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {name: measure(name, args.seed, args.seconds, bool(args.trace), env)
            for name in names}
    if len(outs) == 1:
        result = outs[names[0]]
    else:
        result = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{w}/{m}": v for w, o in outs.items()
                        for m, v in o["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
