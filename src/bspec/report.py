"""Shared finding/record types and report emission."""

from __future__ import annotations

import json


class ValueRecord:
    """Value semantics for a small immutable record.

    Equality, hashing and the repr read the fields named in `_fields`, in
    order: two records are equal when they are of one class and their
    fields are equal, and the repr reads `Name(field=value, ...)`.
    Assigning or deleting an attribute raises AttributeError, so each
    record sets its fields in its own `__init__` with `object.__setattr__`.
    """

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Finding(ValueRecord):
    """A single failed (or notable) law instance with its witness."""

    _fields = ("law", "witness", "note")

    def __init__(self, law, witness=(), note=""):
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "note", note)

    def __str__(self):
        parts = [self.law]
        if self.witness:
            parts.append("at " + ", ".join(str(w) for w in self.witness))
        if self.note:
            parts.append("(" + self.note + ")")
        return " ".join(parts)


class KernelError(Exception):
    """Base class of every error a kernel constructor raises for input whose
    laws fail; a document statement whose build raises one is refused at
    its line."""


def raise_first(findings, exc, miss=None):
    """Raise exc(text) for the first finding, if any: text is miss(k) for a
    certify_map finding that generator k has no certificate, else the
    finding."""
    if findings:
        f = findings[0]
        raise exc(miss(f.witness[-1]) if miss and f.law.endswith("-cert") else str(f))


class CheckRecord:
    def __init__(self, suite, law, status, witness=(), elapsed=0.0):
        self.suite = suite
        self.law = law
        self.status = status  # pass | fail | skipped
        self.witness = witness
        self.elapsed = elapsed


class Report:
    def __init__(self, records=None):
        self.records = [] if records is None else records

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
