"""JSON (de)serialization for quivers, representations, and system files.

Rationals travel as strings "p/q" (or "p" for integers); loaders also take
JSON integers and reject floats, booleans and zero denominators.  Quiver and
representation payloads round-trip exactly.  Stratifying-system files name
standard modules symbolically so nobody hand-writes matrices:

    {"quiver": {"kronecker": {"m": 2}} | {"apq": {"p": 2, "q": 3}} | {...},
     "modules": [{"tauP": {"i": 1, "k": 3}}, {"tauI": {"i": 0, "k": 2}},
                 {"E_inf": 2}, {"E_zero": 1}, {"E_lambda": "1/2"},
                 {"S": 4}, {"rep": {...}}]}
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Any

from .apq import TUBE_INFTY, TUBE_ZERO, recognize_apq, tube_lambda
from .linalg import RationalMatrix, format_rational, parse_rational
from .modules import (ModuleRef, PREINJ, PREPROJ, TUBE, ref_plain,
                      ref_preinj, ref_preproj, ref_tube)
from .quiver import Quiver, canonical_apq, kronecker, validate
from .reps import Representation, make_rep, simple
from .systems import StratSystem


class InputError(ValueError):
    """Malformed input file; the message carries a location."""


def quiver_from_json(data: Any, where: str = "quiver") -> Quiver:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    if "kronecker" in data:
        m = _int_field(data["kronecker"], "m", f"{where}.kronecker")
        try:
            return kronecker(m)
        except ValueError as exc:
            raise InputError(f"{where}.kronecker: {exc}") from exc
    if "apq" in data:
        p = _int_field(data["apq"], "p", f"{where}.apq")
        q = _int_field(data["apq"], "q", f"{where}.apq")
        try:
            return canonical_apq(p, q)
        except ValueError as exc:
            raise InputError(f"{where}.apq: {exc}") from exc
    try:
        return Quiver.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def valid_quiver_from_json(data: Any, where: str = "quiver") -> Quiver:
    """quiver_from_json that also rejects quivers failing ``validate``."""
    quiver = quiver_from_json(data, where=where)
    check = validate(quiver)
    if not check.passed:
        raise InputError(f"{where}: invalid quiver, fails the "
                         f"{check.violations[0].axiom} check")
    return quiver


def _is_int(value: Any) -> bool:
    """A JSON integer: floats, booleans and strings do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(spec: Any, key: str, where: str, default: int | None = None) -> int:
    if not isinstance(spec, dict):
        raise InputError(f"{where}: expected an object")
    if key not in spec and default is None:
        raise InputError(f"{where}.{key}: missing")
    value = spec.get(key, default)
    if not _is_int(value):
        raise InputError(f"{where}.{key}: expected an integer, got {type(value).__name__}")
    return value


def rep_to_json(rep: Representation, inline_quiver: bool = True) -> dict:
    out: dict[str, Any] = {"dims": list(rep.dims)}
    if inline_quiver:
        out["quiver"] = rep.quiver.to_json()
    out["maps"] = {a.label: _rational_strings(mat) for a, mat in zip(rep.quiver.arrows, rep.maps)}
    return out


def _rational_strings(mat: RationalMatrix) -> list[list[str]]:
    """``format_rational`` of each entry, read from the integer numerators
    with one gcd per entry."""
    den = mat.den
    return [[str(x // g) if g == den else f"{x // g}/{den // g}"
             for x, g in zip(row, map(gcd, row, repeat(den)))] for row in mat.nums]


def rep_from_json(data: Any, quiver: Quiver | None = None, where: str = "rep") -> Representation:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    if quiver is None:
        if "quiver" not in data:
            raise InputError(f"{where}: missing quiver")
        quiver = valid_quiver_from_json(data["quiver"], where=f"{where}.quiver")
    if "dims" not in data:
        raise InputError(f"{where}: missing dims")
    dims = data["dims"]
    if not (isinstance(dims, list) and len(dims) == quiver.n and all(map(_is_int, dims))):
        raise InputError(f"{where}.dims: expected a list of {quiver.n} integers")
    raw_maps = data.get("maps", {})
    if not isinstance(raw_maps, dict):
        raise InputError(f"{where}.maps: expected an object keyed by arrow label")
    labels = {a.label for a in quiver.arrows}
    maps = {}
    for label, rows in raw_maps.items():
        if label not in labels:
            raise InputError(f"{where}.maps.{label}: the quiver has no arrow {label!r}")
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise InputError(f"{where}.maps.{label}: expected a list of rows")
        try:
            maps[label] = [[parse_rational(x) for x in row] for row in rows]
        except ValueError as exc:
            raise InputError(f"{where}.maps.{label}: {exc}") from exc
    try:
        return make_rep(quiver, dims, maps)
    except (ValueError, KeyError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def module_ref_to_json(ref: ModuleRef) -> dict:
    if ref.kind == PREPROJ:
        return {"tauP": {"i": ref.vertex, "k": ref.power}}
    if ref.kind == PREINJ:
        return {"tauI": {"i": ref.vertex, "k": ref.power}}
    if ref.kind == TUBE:
        pt = ref.point
        if pt.tube.kind == "infty":
            base: dict[str, Any] = {"E_inf": pt.index}
        elif pt.tube.kind == "zero":
            base = {"E_zero": pt.index}
        else:
            base = {"E_lambda": format_rational(pt.tube.lam), "index": pt.index}
        if pt.level != 1:
            base["level"] = pt.level
        return base
    return {"rep": rep_to_json(ref.rep_obj, inline_quiver=False)}


def module_ref_from_json(data: Any, quiver: Quiver, where: str = "module") -> ModuleRef:
    keys = [k for k in data if k not in ("level", "index")] if isinstance(data, dict) else ()
    if len(keys) != 1:
        raise InputError(f"{where}: expected an object with one descriptor key")
    for field, owners in (("level", ("E_inf", "E_zero", "E_lambda")), ("index", ("E_lambda",))):
        if field in data and keys[0] not in owners:
            raise InputError(f"{where}.{field}: {keys[0]} takes no {field}")
    pq = recognize_apq(quiver)
    level = _int_field(data, "level", where, default=1)
    for key, make in (("tauP", ref_preproj), ("tauI", ref_preinj)):
        if key in data:
            vertex = _int_field(data[key], "i", f"{where}.{key}")
            power = _int_field(data[key], "k", f"{where}.{key}", default=0)
            if vertex not in quiver.vertices:
                raise InputError(f"{where}.{key}.i: unknown vertex {vertex}")
            if power < 0:
                raise InputError(f"{where}.{key}.k: negative power {power}")
            return make(quiver, vertex, power)
    if "S" in data:
        vertex = _int_field(data, "S", where)
        if vertex not in quiver.vertices:
            raise InputError(f"{where}.S: unknown vertex {vertex}")
        return ref_plain(simple(quiver, vertex))
    if "rep" in data:
        return ref_plain(rep_from_json(data["rep"], quiver=quiver, where=f"{where}.rep"))
    for key, label_maker in (("E_inf", lambda: TUBE_INFTY),
                             ("E_zero", lambda: TUBE_ZERO),
                             ("E_lambda", None)):
        if key in data:
            if pq is None:
                raise InputError(f"{where}.{key}: tube modules need a canonical "
                                 "cycle quiver (apq)")
            p, q = pq
            if key == "E_lambda":
                try:
                    label = tube_lambda(parse_rational(data[key]))
                except ValueError as exc:
                    raise InputError(f"{where}.{key}: {exc}") from exc
                index = _int_field(data, "index", where, default=1)
            else:
                label = label_maker()
                index = _int_field(data, key, where)
            try:
                return ref_tube(p, q, label, index, level)
            except ValueError as exc:
                raise InputError(f"{where}.{key}: {exc}") from exc
    raise InputError(f"{where}: unknown descriptor {sorted(data)}")


def system_from_json(data: Any, where: str = "system") -> StratSystem:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    if "quiver" not in data:
        raise InputError(f"{where}: missing quiver")
    quiver = valid_quiver_from_json(data["quiver"], where=f"{where}.quiver")
    modules = data.get("modules")
    if not isinstance(modules, list):
        raise InputError(f"{where}: missing module list")
    refs = [module_ref_from_json(m, quiver, where=f"{where}.modules[{k}]")
            for k, m in enumerate(modules)]
    return StratSystem(quiver, tuple(refs))
