"""Directed index sets: extensional preorders with upper-bound witnesses,
optional coherent choice of upper bounds, and cofinal subsets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .report import Finding
from .setoid import (
    Setoid,
    SetoidFn,
    UnknownElement,
    check_extensional,
    discrete,
    is_embedding,
    make_fn,
    make_setoid,
    pair_token,
    product_setoid,
    split_pair,
)


class OrderError(Exception):
    pass


class NotDirected(OrderError):
    pass


@dataclass(frozen=True)
class DirectedIndex:
    """A finite preorder where every pair has a chosen upper bound.

    `upper` is total on ordered pairs.  `delta` is an optional coherent
    choice of upper bounds; when present the order must be a poset up to
    carrier equality and the (d1)-(d3) laws are validated.
    """

    base: Setoid
    pairs: frozenset
    upper: dict
    delta: dict | None = None

    @property
    def elements(self):
        return self.base.elements

    def leq(self, i, j):
        if not self.base.has(i) or not self.base.has(j):
            raise UnknownElement(f"{i!r} or {j!r} not in index")
        return (i, j) in self.pairs

    def up(self, i, j):
        return self.upper[(i, j)]

    @cached_property
    def top(self):
        """Fold the upper-bound witness over the carrier; checked maximal."""
        t = self.elements[0]
        for x in self.elements[1:]:
            t = self.up(t, x)
        for i in self.elements:
            if not self.leq(i, t):
                raise NotDirected(f"fold of upper bounds is not above {i}")
        return t

    def order_pairs(self):
        return sorted(self.pairs)

    def __repr__(self):
        return f"DirectedIndex({list(self.elements)}, rels={len(self.pairs)})"


def _close_order(base, pairs):
    """Reflexive, transitive, and extensional closure of an order relation."""
    rel = set(pairs)
    rel.update((i, i) for i in base.elements)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k in base.elements:
                if (j, k) in rel and (i, k) not in rel:
                    rel.add((i, k))
                    changed = True
        for i, j in list(rel):
            for i2 in base.elements:
                for j2 in base.elements:
                    if base.eq(i, i2) and base.eq(j, j2) and (i2, j2) not in rel:
                        rel.add((i2, j2))
                        changed = True
    return frozenset(rel)


def make_directed(base, order_pairs, closure=True, upper=None, delta=None):
    """Build a DirectedIndex; upper-bound witnesses are scanned for when absent."""
    if not isinstance(base, Setoid):
        base = make_setoid(base)
    pairs = _close_order(base, order_pairs) if closure else frozenset(order_pairs)
    if upper is None:
        upper = {}
        for i in base.elements:
            for j in base.elements:
                k = next(
                    (k for k in base.elements if (i, k) in pairs and (j, k) in pairs),
                    None,
                )
                if k is None:
                    raise NotDirected(f"no upper bound for ({i}, {j})")
                upper[(i, j)] = k
    return DirectedIndex(base, pairs, dict(upper), dict(delta) if delta else None)


def validate_directed(D):
    """Every failed invariant with a witness; empty report means valid."""
    findings = []
    els = D.elements
    for i in els:
        if not D.leq(i, i):
            findings.append(Finding("leq-reflexive", (i,)))
    for i, j in D.pairs:
        for k in els:
            if D.leq(j, k) and not D.leq(i, k):
                findings.append(Finding("leq-transitive", (i, j, k)))
    for i in els:
        for j in els:
            for i2 in els:
                for j2 in els:
                    if (
                        D.base.eq(i, i2)
                        and D.base.eq(j, j2)
                        and D.leq(i, j)
                        and not D.leq(i2, j2)
                    ):
                        findings.append(Finding("leq-extensional", (i, j, i2, j2)))
    for i in els:
        for j in els:
            if (i, j) not in D.upper:
                findings.append(Finding("upper-missing", (i, j)))
                continue
            k = D.up(i, j)
            if not (D.leq(i, k) and D.leq(j, k)):
                findings.append(Finding("upper-bound", (i, j, k)))
    if D.delta is not None:
        for i in els:
            for j in els:
                if D.leq(i, j) and D.leq(j, i) and not D.base.eq(i, j):
                    findings.append(Finding("delta-needs-poset", (i, j)))
        for i in els:
            for j in els:
                d = D.delta.get((i, j))
                if d is None:
                    findings.append(Finding("delta-missing", (i, j)))
                    continue
                if not (D.leq(i, d) and D.leq(j, d)):
                    findings.append(Finding("delta-upper", (i, j, d)))
                if D.leq(i, j):
                    if not (
                        D.base.eq(d, D.delta[(j, i)]) and D.base.eq(d, j)
                    ):
                        findings.append(Finding("delta-absorb", (i, j)))
        for i in els:
            for j in els:
                for k in els:
                    left = D.delta[(D.delta[(i, j)], k)]
                    right = D.delta[(i, D.delta[(j, k)])]
                    if not D.base.eq(left, right):
                        findings.append(Finding("delta-assoc", (i, j, k)))
    return findings


def top_element(D):
    """The top of a directed index, computed once per index."""
    return D.top


@dataclass(frozen=True)
class CofinalSubset:
    """An embedded subset with a modulus picking a dominating member."""

    members: Setoid
    embed: SetoidFn
    cof: SetoidFn


def subset_leq(D, C, j, j2):
    return D.leq(C.embed(j), C.embed(j2))


def validate_cofinal(D, C):
    findings = []
    ok, witness = check_extensional(C.embed)
    if not ok:
        findings.append(Finding("embed-extensional", witness))
    ok, witness = is_embedding(C.embed)
    if not ok:
        findings.append(Finding("embed-injective", witness))
    ok, witness = check_extensional(C.cof)
    if not ok:
        findings.append(Finding("cof-extensional", witness))
    for j in C.members.elements:
        if not C.members.eq(C.cof(C.embed(j)), j):
            findings.append(Finding("cof1", (j,)))
    for i in D.elements:
        for i2 in D.elements:
            if D.leq(i, i2) and not subset_leq(D, C, C.cof(i), C.cof(i2)):
                findings.append(Finding("cof2", (i, i2)))
    for i in D.elements:
        if not D.leq(i, C.embed(C.cof(i))):
            findings.append(Finding("cof3", (i,)))
    # The induced order on the subset stays directed: upper bounds are
    # exhibited through the modulus itself.
    for j in C.members.elements:
        for j2 in C.members.elements:
            k = C.cof(D.up(C.embed(j), C.embed(j2)))
            if not (subset_leq(D, C, j, k) and subset_leq(D, C, j2, k)):
                findings.append(Finding("subset-directed", (j, j2)))
    return findings


def induced_order(D, C):
    """The subset as a DirectedIndex, ordered through the embedding."""
    J = C.members
    pairs = frozenset(
        (j, j2)
        for j in J.elements
        for j2 in J.elements
        if subset_leq(D, C, j, j2)
    )
    upper = {
        (j, j2): C.cof(D.up(C.embed(j), C.embed(j2)))
        for j in J.elements
        for j2 in J.elements
    }
    return DirectedIndex(J, pairs, upper)


def product_order(D1, D2):
    base = product_setoid(D1.base, D2.base)
    pairs = frozenset(
        (pair_token(i, j), pair_token(i2, j2))
        for i in D1.elements
        for j in D2.elements
        for i2 in D1.elements
        for j2 in D2.elements
        if D1.leq(i, i2) and D2.leq(j, j2)
    )
    upper = {}
    for a in base.elements:
        for b in base.elements:
            i, j = split_pair(a)
            i2, j2 = split_pair(b)
            upper[(a, b)] = pair_token(D1.up(i, i2), D2.up(j, j2))
    delta = None
    if D1.delta is not None and D2.delta is not None:
        delta = {}
        for a in base.elements:
            for b in base.elements:
                i, j = split_pair(a)
                i2, j2 = split_pair(b)
                delta[(a, b)] = pair_token(D1.delta[(i, i2)], D2.delta[(j, j2)])
    return DirectedIndex(base, pairs, upper, delta)


def product_cofinal(D1, C1, D2, C2):
    """Componentwise cofinal subset of a product order."""
    members = product_setoid(C1.members, C2.members)
    prod = product_order(D1, D2)
    embed = make_fn(
        members,
        prod.base,
        {
            pair_token(k, l): pair_token(C1.embed(k), C2.embed(l))
            for k in C1.members.elements
            for l in C2.members.elements
        },
    )
    cof = make_fn(
        prod.base,
        members,
        {
            pair_token(i, j): pair_token(C1.cof(i), C2.cof(j))
            for i in D1.elements
            for j in D2.elements
        },
    )
    return CofinalSubset(members, embed, cof)


def chain(n, names=None):
    """The chain 0 <= 1 <= ... <= n-1 with max as upper bound and delta."""
    if names is None:
        names = [str(i) for i in range(n)]
    base = discrete(names)
    pos = {x: i for i, x in enumerate(names)}
    pairs = frozenset(
        (a, b) for a in names for b in names if pos[a] <= pos[b]
    )
    upper = {(a, b): (a if pos[a] >= pos[b] else b) for a in names for b in names}
    return DirectedIndex(base, pairs, dict(upper), dict(upper))
