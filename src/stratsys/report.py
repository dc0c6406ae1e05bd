"""Structured pass/fail reports shared by every verification operation."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .record import Record


class Violation(NamedTuple):
    """One failed check: which axiom, on what, and the computed value."""

    axiom: str
    subject: Optional[tuple] = None  # e.g. a pair (j, i) of 1-based positions
    value: Any = None
    note: str = ""

    def to_json(self) -> dict:
        out: dict[str, Any] = {"axiom": self.axiom}
        if self.subject is not None:
            out["subject"] = list(self.subject)
        if self.value is not None:
            out["value"] = self.value
        if self.note:
            out["note"] = self.note
        return out


class CheckReport(Record):
    """Verdict plus the list of violations (pass iff the list is empty)."""

    __slots__ = ("name", "violations", "checked", "flags")

    def __init__(self, name: str, checked: int = 0):
        self._init(name, [], checked, [])  # violations and flags start empty

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def add(self, axiom: str, subject=None, value=None, note: str = "") -> None:
        self.violations.append(Violation(axiom, subject, value, note))

    def flag(self, message: str) -> None:
        if message not in self.flags:
            self.flags.append(message)

    def merge(self, other: "CheckReport") -> None:
        self.violations.extend(other.violations)
        self.checked += other.checked
        for f in other.flags:
            self.flag(f)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
            "flags": list(self.flags),
        }

    def summary(self) -> str:
        head = f"{self.name}: {self.verdict.upper()} ({self.checked} checks"
        head += f", {len(self.violations)} violations)" if self.violations else ")"
        lines = [head]
        for v in self.violations:
            loc = f" at {v.subject}" if v.subject is not None else ""
            val = f" = {v.value}" if v.value is not None else ""
            note = f" ({v.note})" if v.note else ""
            lines.append(f"  violated {v.axiom}{loc}{val}{note}")
        for f in self.flags:
            lines.append(f"  flag: {f}")
        return "\n".join(lines)
