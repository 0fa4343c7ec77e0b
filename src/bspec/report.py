"""Shared finding/record types and report emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """A single failed (or notable) law instance with its witness."""

    law: str
    witness: tuple = ()
    note: str = ""

    def __str__(self):
        parts = [self.law]
        if self.witness:
            parts.append("at " + ", ".join(str(w) for w in self.witness))
        if self.note:
            parts.append("(" + self.note + ")")
        return " ".join(parts)


@dataclass
class CheckRecord:
    suite: str
    law: str
    status: str  # pass | fail | skipped
    witness: tuple = ()
    elapsed: float = 0.0


@dataclass
class Report:
    records: list = field(default_factory=list)

    def add(self, suite, law, findings=None, skipped=False, elapsed=0.0, witness=()):
        if skipped:
            status = "skipped"
        else:
            status = "fail" if findings else "pass"
        if findings:
            witness = tuple(str(f) for f in findings[:4])
        self.records.append(CheckRecord(suite, law, status, witness, elapsed))

    @property
    def summary(self):
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def failed(self):
        return self.summary["fail"] > 0


def emit_report(report, fmt="human", color=False):
    """Render a report; JSON output is stable for a fixed document and configuration."""
    if fmt == "json":
        payload = {
            "schema": 1,
            "checks": [
                {
                    "suite": r.suite,
                    "law": r.law,
                    "status": r.status,
                    "witness": list(r.witness),
                }
                for r in report.records
            ],
            "summary": report.summary,
        }
        return json.dumps(payload, sort_keys=False, separators=(",", ":")) + "\n"
    lines = []
    marks = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}
    tints = {"pass": "\x1b[32m", "fail": "\x1b[31m", "skipped": "\x1b[33m"}
    for r in report.records:
        mark = marks[r.status]
        if color:
            mark = tints[r.status] + mark + "\x1b[0m"
        extra = ""
        if r.witness:
            extra = "  [" + "; ".join(r.witness) + "]"
        lines.append(f"{mark:>4}  {r.suite}: {r.law} ({r.elapsed*1000:.1f} ms){extra}")
    s = report.summary
    lines.append(f"{s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped")
    return "\n".join(lines) + "\n"
