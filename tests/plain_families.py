"""Plain families: carriers indexed by a setoid, with transports along
equal indices.  The kernel works only with direct families; these are kept
for the tests of the set-indexed disjoint union and of a direct family's
transports, inverses included, read over an index equality."""

from __future__ import annotations

from dataclasses import dataclass

from bspec.families import COVARIANT, FamilyError, _held_family
from bspec.report import Finding
from bspec.setoid import Setoid, check_extensional, compose, fn_equal, identity

from oracles import index_of_pairs


@dataclass(eq=False)
class Family:
    """Carriers indexed by a setoid, with transports along equal indices."""

    index: Setoid
    carriers: dict
    transports: dict  # (i, j) with i = j in the index -> SetoidFn

    def carrier(self, i):
        return self.carriers[i]

    def transport(self, i, j):
        return self.transports[(i, j)]

    def diagonal_pairs(self):
        return [
            (i, j)
            for i in self.index.elements
            for j in self.index.elements
            if self.index.eq(i, j)
        ]


def make_family(index, carriers, transports=None):
    carriers = dict(carriers)
    for i in index.elements:
        if i not in carriers:
            raise FamilyError(f"no carrier given for index element {i}")
    pairs = frozenset(
        (i, j)
        for i in index.elements
        for j in index.elements
        if index.eq(i, j)
    )
    held = _held_family(index_of_pairs(index, pairs), COVARIANT, carriers,
                        dict(transports or {}))
    table = {p: held.transport(*p) for p in pairs}
    fam = Family(index, carriers, table)
    findings = validate_family(fam)
    if findings:
        raise FamilyError(str(findings[0]))
    return fam


def constant_family(index, carrier):
    transports = {
        (i, j): identity(carrier)
        for i in index.elements
        for j in index.elements
        if index.eq(i, j)
    }
    return make_family(index, {i: carrier for i in index.elements}, transports)


def validate_family(F):
    findings = []
    for i in F.index.elements:
        if not fn_equal(F.transport(i, i), identity(F.carrier(i))):
            findings.append(Finding("family-identity", (i,)))
    for i, j in F.diagonal_pairs():
        ok, witness = check_extensional(F.transport(i, j))
        if not ok:
            findings.append(Finding("transport-extensional", (i, j) + witness))
        for k in F.index.elements:
            if F.index.eq(j, k):
                if not fn_equal(
                    compose(F.transport(i, j), F.transport(j, k)),
                    F.transport(i, k),
                ):
                    findings.append(Finding("family-composition", (i, j, k)))
    return findings


def sigma_equality_plain(F, i, x, j, y):
    """Equality on the disjoint union of a plain family."""
    return F.index.eq(i, j) and F.carrier(j).eq(F.transport(i, j)(x), y)
