"""Command-line front end.

Exit codes: 0 when every check passes, 1 when a verification fails, 2 on
usage or input errors.  ``--json`` emits a machine-readable report that
validates against src/stratsys/schema/report.schema.json; reports are
byte-identical across runs unless ``--timing`` is requested.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Optional

from . import classifier, tubes
from .apq import TUBE_INFTY, TUBE_ZERO, tube_lambda
from .artheory import ar_position, tau_power
from .io_json import (InputError, module_ref_to_json, quiver_from_json,
                      rep_from_json, rep_to_json, system_from_json,
                      valid_quiver_from_json)
from .modules import TooLargeError, materialize
from .quiver import classify_type, validate
from .report import CheckReport
from .reps import ext1_dim, ext1_dim_direct, hom_dim, is_sincere, supp
from .systems import check_css, check_ss, extend_to_complete, is_filtration_finite


class Report:
    """Aggregates command output: verdict, check details, free-form data."""

    def __init__(self, argv: list[str]):
        self.command = list(argv)
        self.details: list[CheckReport] = []
        self.data: dict[str, Any] = {}
        self.failed = False
        self.started = time.monotonic()

    def add(self, check: CheckReport) -> None:
        self.details.append(check)
        if not check.passed:
            self.failed = True

    def to_json(self, with_timing: bool) -> dict:
        out: dict[str, Any] = {
            "command": self.command,
            "verdict": "fail" if self.failed else "pass",
            "details": [c.to_json() for c in self.details],
            "timing": round(time.monotonic() - self.started, 6) if with_timing else None,
        }
        if self.data:
            out["data"] = self.data
        return out

    def human(self) -> str:
        lines = []
        for check in self.details:
            lines.append(check.summary())
        for key, value in self.data.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        lines.append("verdict: " + ("FAIL" if self.failed else "PASS"))
        return "\n".join(lines)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")


def _load_rep(path: str):
    return rep_from_json(_load_json(path), where=path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_quiver(args, report: Report) -> None:
    q = quiver_from_json(_load_json(args.file), where=args.file)
    if args.action == "validate":
        report.add(validate(q))
    else:
        check = validate(q)
        report.add(check)
        if check.passed:
            report.data["class"] = classify_type(q).tag


def cmd_rep(args, report: Report) -> None:
    x = _load_rep(args.x)
    if args.action == "supp":
        report.data["supp"] = sorted(supp(x))
        report.data["sincere"] = is_sincere(x)
        return
    if args.y is None:
        raise InputError(f"rep {args.action} needs two representation files")
    y = _load_rep(args.y)
    if x.quiver != y.quiver:
        raise InputError("the two representations live over different quivers")
    if args.action == "hom":
        report.data["hom_dim"] = hom_dim(x, y)
    else:
        euler_route = ext1_dim(x, y)
        direct_route = ext1_dim_direct(x, y)
        report.data["ext1_dim"] = euler_route
        report.data["ext1_dim_direct"] = direct_route
        check = CheckReport("ext-route-agreement")
        check.checked += 1
        if euler_route != direct_route:
            check.add("euler = direct", value=(euler_route, direct_route))
        report.add(check)


def cmd_ar(args, report: Report) -> None:
    x = _load_rep(args.x)
    if args.action in ("tau", "tauinv"):
        k = args.k
        out = tau_power(x, k if args.action == "tau" else -k)
        report.data["result"] = rep_to_json(out)
        report.data["zero"] = out.is_zero()
        return
    try:
        pos = ar_position(x)
    except ArithmeticError as exc:
        raise InputError(f"{args.x}: {exc} (the position is defined for "
                         "indecomposable modules)") from exc
    report.data["position"] = {"kind": pos.kind, "vertex": pos.vertex, "power": pos.power}


def cmd_ss(args, report: Report) -> None:
    system = system_from_json(_load_json(args.file), where=args.file)
    if args.action == "check":
        report.add(check_ss(system))
    elif args.action == "css":
        report.add(check_css(system))
    elif args.action == "filtfinite":
        base = check_ss(system)
        report.add(base)
        if base.passed:
            report.data["filtration_finite"] = is_filtration_finite(system)
    else:  # extend
        positions = {"front": [0], "back": [system.size], "outer": "outer",
                     "any": None}[args.positions]
        completion, ext_report = extend_to_complete(
            system, exponent_bound=args.bound, positions=positions)
        report.add(ext_report)
        if completion is not None:
            report.data["completion"] = [module_ref_to_json(m) for m in completion.modules]


def cmd_kron(args, report: Report) -> None:
    if args.action == "list":
        instances = classifier.kronecker_css_list(args.m, args.bound)
        rows = []
        for inst in instances:
            report.add(inst.report)
            rows.append({"family": inst.family_id, "params": inst.params,
                         "system": inst.system.describe(),
                         "verdict": inst.report.verdict})
        report.data["instances"] = rows
    else:
        comparison = classifier.compare_kronecker_enumeration(args.m, args.cap)
        report.add(comparison)
        report.add(classifier.kronecker_regular_selfext_check(args.m))


def cmd_apq(args, report: Report) -> None:
    p, q = args.p, args.q
    tbound = args.tbound if args.tbound is not None else 2 * (p * q // math.gcd(p, q))
    if args.action == "families":
        rows = []
        for inst in classifier.apq_families(p, q, tbound):
            report.add(inst.report)
            report.add(classifier.verify_family_uniqueness(inst))
            rows.append({"family": inst.family_id, "params": inst.params,
                         "system": inst.system.describe(),
                         "verdict": inst.report.verdict,
                         "flags": inst.flags})
        rows.sort(key=lambda r: (r["family"], sorted(r["params"].items())))
        report.data["instances"] = rows
    elif args.action in ("ysearch-post", "ysearch-pre"):
        side = "postprojective" if args.action == "ysearch-post" else "preinjective"
        found, check = classifier.y_search(p, q, tbound, side)
        report.add(check)
        report.data["found"] = [list(x) for x in found]
    elif args.action == "sincerity":
        profile = classifier.sincerity_profile(p, q, args.kmax)
        report.add(profile.report)
        report.data["minimal_preproj"] = {str(k): v for k, v in profile.minimal_preproj.items()}
        report.data["minimal_preinj"] = {str(k): v for k, v in profile.minimal_preinj.items()}
    else:  # tubes
        report.add(tubes.verify_tau_cycles(p, q))
        report.add(tubes.verify_support_formula(p, q, tbound))
        for label in (TUBE_INFTY, TUBE_ZERO, tube_lambda(1)):
            ms = tubes.mouth_ss(p, q, label)
            check = check_ss(ms)
            check.name = f"mouth-system tube={label.short()} size={ms.size}"
            report.add(check)
            report.add(tubes.tube_rigid_bound_check(p, q, label))


def cmd_wild(args, report: Report) -> None:
    q = valid_quiver_from_json(_load_json(args.file), where=args.file)
    tag = classify_type(q).tag
    if tag != "Wild" or q.n < 3:
        raise InputError(f"regcss needs a wild quiver with >= 3 vertices (got {tag}, "
                         f"{q.n} vertices)")
    witness, check = classifier.regular_css_search(q, args.cap)
    report.add(check)
    if witness is not None:
        report.data["witness"] = [rep_to_json(materialize(m), inline_quiver=False)
                                  for m in witness.modules]
    else:
        report.data["witness"] = None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _bound(text: str) -> int:
    """A search bound or cap: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratsys",
        description="Exact computations with quiver representations and "
                    "stratifying systems.")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the report (breaks byte-identity)")
    sub = parser.add_subparsers(dest="group", required=True)

    p_quiver = sub.add_parser("quiver", help="validate or classify a quiver file")
    p_quiver.add_argument("action", choices=["validate", "classify"])
    p_quiver.add_argument("file")

    p_rep = sub.add_parser("rep", help="Hom/Ext/support of representation files")
    p_rep.add_argument("action", choices=["hom", "ext", "supp"])
    p_rep.add_argument("x")
    p_rep.add_argument("y", nargs="?")

    p_ar = sub.add_parser("ar", help="Auslander-Reiten translate and position")
    p_ar.add_argument("action", choices=["tau", "tauinv", "pos"])
    p_ar.add_argument("x")
    p_ar.add_argument("--k", type=int, default=1)

    p_ss = sub.add_parser("ss", help="stratifying-system checks on a system file")
    p_ss.add_argument("action", choices=["check", "css", "extend", "filtfinite"])
    p_ss.add_argument("file")
    p_ss.add_argument("--bound", type=_bound, default=8)
    p_ss.add_argument("--positions", choices=["front", "back", "outer", "any"],
                      default="any")

    p_kron = sub.add_parser("kron", help="Kronecker classification lists")
    p_kron.add_argument("action", choices=["list", "enumerate"])
    p_kron.add_argument("--m", type=int, required=True)
    p_kron.add_argument("--bound", type=_bound, default=6)
    p_kron.add_argument("--cap", type=_bound, default=9)

    p_apq = sub.add_parser("apq", help="canonical cycle quiver verifications")
    p_apq.add_argument("action", choices=["families", "ysearch-post", "ysearch-pre",
                                          "sincerity", "tubes"])
    p_apq.add_argument("--p", type=int, required=True)
    p_apq.add_argument("--q", type=int, required=True)
    p_apq.add_argument("--tbound", type=_bound, default=None)
    p_apq.add_argument("--kmax", type=_bound, default=8)

    p_wild = sub.add_parser("wild", help="wild-quiver regular system search")
    p_wild.add_argument("action", choices=["regcss"])
    p_wild.add_argument("file")
    p_wild.add_argument("--cap", type=_bound, default=6)
    return parser


HANDLERS = {
    "quiver": cmd_quiver,
    "rep": cmd_rep,
    "ar": cmd_ar,
    "ss": cmd_ss,
    "kron": cmd_kron,
    "apq": cmd_apq,
    "wild": cmd_wild,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    report = Report(argv)
    try:
        HANDLERS[args.group](args, report)
        # rendered here so that an unprintable value (an integer beyond the
        # interpreter's digit limit) is an input error too
        if args.json:
            out = json.dumps(report.to_json(with_timing=args.timing), indent=2,
                             sort_keys=True)
        else:
            out = report.human()
    except (InputError, TooLargeError, ValueError) as exc:
        payload = {"command": argv, "verdict": "error", "error": str(exc),
                   "details": [], "timing": None}
        if args.json:
            _emit(json.dumps(payload, indent=2, sort_keys=True), sys.stdout)
        else:
            _emit(f"error: {exc}", sys.stderr)
        return 2
    _emit(out, sys.stdout)
    return 1 if report.failed else 0


def _emit(text: str, stream) -> None:
    """Print and flush; when the reader has closed the pipe, point the
    stream at the null device so that the flush at interpreter exit stays
    quiet, and let the caller return the verdict's exit code."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
