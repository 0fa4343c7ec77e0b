"""Directed index sets: extensional preorders with upper-bound witnesses,
optional coherent choice of upper bounds, and cofinal subsets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .report import Finding
from .setoid import (
    Pair,
    Setoid,
    SetoidFn,
    UnknownElement,
    check_extensional,
    discrete,
    is_embedding,
    make_fn,
    make_setoid,
    product_setoid,
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

    @cached_property
    def above(self):
        """i -> the set of elements k with i <= k, read off the pairs."""
        above = {}
        for i, k in self.pairs:
            above.setdefault(i, set()).add(k)
        return above

    @cached_property
    def covers(self):
        """i -> the elements that cover i, in carrier order; None unless
        the pairs are a partial order on the base's elements.

        Each strict above-list is a bit mask over carrier positions, as in
        `_first_upper_bounds`, so the covers of i are strict-above(i) less
        the union of strict-above(m) over m in strict-above(i).
        """
        masks = self._above_masks
        if masks is None:
            return None
        els = self.elements
        strict = [m & ~(1 << n) for n, m in enumerate(masks)]
        covers = {}
        for n, i in enumerate(els):
            rest, under = strict[n], 0
            while rest:
                low = rest & -rest
                under |= strict[low.bit_length() - 1]
                rest ^= low
            covers[i] = _members(els, strict[n] & ~under)
        return covers

    @cached_property
    def _above_masks(self):
        """Each element's above-list as a bit mask over carrier positions,
        in carrier order; None unless the pairs are a partial order on the
        base's elements (reflexive, antisymmetric and transitive, each
        element named once)."""
        els = self.elements
        pos = {k: n for n, k in enumerate(els)}
        if len(pos) != len(els):
            return None
        masks = [0] * len(els)
        for i, k in self.pairs:
            if i not in pos or k not in pos:
                return None
            masks[pos[i]] |= 1 << pos[k]
        if any(not m >> n & 1 for n, m in enumerate(masks)):
            return None
        for i, k in self.pairs:
            a, b = pos[i], pos[k]
            if masks[b] & ~masks[a] or (a != b and masks[b] >> a & 1):
                return None
        return masks

    @cached_property
    def common_upper_bounds(self):
        """(i, j) -> the elements above both i and j, in carrier order."""
        els = self.elements
        above = {i: [k for k in els if (i, k) in self.pairs] for i in els}
        return {(i, j): tuple(k for k in above[i] if (j, k) in self.pairs)
                for i in els for j in els}

    def order_pairs(self):
        """The order pairs, sorted once per index."""
        return self._order_pairs

    @cached_property
    def _order_pairs(self):
        return tuple(sorted(self.pairs))

    def __repr__(self):
        return f"DirectedIndex({list(self.elements)}, rels={len(self.pairs)})"


def _members(elements, mask):
    """The elements at the set bits of mask, in carrier order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(elements[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _close_order(base, pairs):
    """Reflexive, transitive, and extensional closure of an order relation.

    This is reachability between classes: i <= j in the closure exactly
    when the class of j is reachable from the class of i along the given
    pairs, since reflexivity and extensionality relate every element to its
    whole class.  An empty base adds nothing to the pairs.
    """
    if not base.elements:
        return frozenset(pairs)
    classes = base._classes
    class_id = base.class_id
    succ = [set() for _ in classes]
    for i, j in pairs:
        for x in (i, j):
            if x not in class_id:
                raise UnknownElement(
                    f"{x!r} or {base.elements[0]!r} not in carrier")
        succ[class_id[i]].add(class_id[j])
    rel = set()
    for a, cls in enumerate(classes):
        seen, stack = {a}, [a]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        rel.update((x, y) for b in seen for x in cls for y in classes[b])
    return frozenset(rel)


def _first_upper_bounds(elements, pairs):
    """(i, j) -> the first element, in carrier order, above both.

    Each element's above-list is a bit mask over carrier positions, so the
    first common upper bound is the lowest bit of the intersection.
    """
    bit = {}
    for n, k in enumerate(elements):
        bit.setdefault(k, 1 << n)
    above = dict.fromkeys(elements, 0)
    for i, k in pairs:
        if i in above and k in bit:
            above[i] |= bit[k]
    upper = {}
    for i in elements:
        for j in elements:
            common = above[i] & above[j]
            if not common:
                raise NotDirected(f"no upper bound for ({i}, {j})")
            upper[(i, j)] = elements[(common & -common).bit_length() - 1]
    return upper


def make_directed(base, order_pairs):
    """Build a DirectedIndex whose upper-bound witnesses are the first
    common upper bound in carrier order."""
    if not isinstance(base, Setoid):
        base = make_setoid(base)
    pairs = _close_order(base, order_pairs)
    return DirectedIndex(base, pairs, _first_upper_bounds(base.elements, pairs))


def validate_directed(D):
    """Every failed invariant with a witness; empty report means valid.

    delta-assoc is decided in O(n^2) when delta is the join of a partial
    order (`_delta_is_join`); any other delta, or a preorder, is scanned
    over every triple.
    """
    findings = []
    els = D.elements
    for i in els:
        if not D.leq(i, i):
            findings.append(Finding("leq-reflexive", (i,)))
    # i <= j <= k forces i <= k exactly when above(j) lies in above(i);
    # only a relation that fails that, or names an unknown element, is scanned
    above = D.above
    if not all(D.base.has(i) and D.base.has(j) and above.get(j, set()) <= above[i]
               for i, j in D.pairs):
        for i, j in D.pairs:
            for k in els:
                if D.leq(j, k) and not D.leq(i, k):
                    findings.append(Finding("leq-transitive", (i, j, k)))
    # each i <= j against the members equal to i and to j, in carrier order
    classes, class_id = D.base._classes, D.base.class_id
    equal = {i: classes[class_id[i]] for i in els}
    for i in els:
        for j in els:
            if D.leq(i, j):
                findings.extend(Finding("leq-extensional", (i, j, i2, j2))
                                for i2 in equal[i] for j2 in equal[j]
                                if not D.leq(i2, j2))
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
        if not _delta_is_join(D):
            for i in els:
                for j in els:
                    for k in els:
                        left = D.delta[(D.delta[(i, j)], k)]
                        right = D.delta[(i, D.delta[(j, k)])]
                        if not D.base.eq(left, right):
                            findings.append(Finding("delta-assoc", (i, j, k)))
    return findings


def _delta_is_join(D):
    """Whether D is a partial order whose delta is the join:
    above(delta(i, j)) = above(i) & above(j) for all i, j, on bit masks.

    Then both bracketings of three elements have the above-list
    above(i) & above(j) & above(k), so in a partial order they are one
    element, equal to itself: delta-assoc holds.
    """
    masks = D._above_masks
    if masks is None:
        return False
    els = D.elements
    pos = {k: n for n, k in enumerate(els)}
    for i in els:
        above_i = masks[pos[i]]
        for j in els:
            d = pos.get(D.delta.get((i, j)))
            if d is None or masks[d] != above_i & masks[pos[j]]:
                return False
    return True


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
    """The componentwise order.  Its pairs are the products of the factors'
    pairs between carrier elements, and its upper bounds and delta are read
    off the factors' tables; all are made of the product carrier's own
    Pairs.  A bound missing from a factor's table, or off its carrier,
    raises KeyError."""
    base = product_setoid(D1.base, D2.base)
    cell = {}  # i -> j -> the base's Pair((i, j))
    for a in base.elements:
        cell.setdefault(a[0], {})[a[1]] = a
    pairs1 = [(i, i2) for i, i2 in D1.pairs if D1.base.has(i) and D1.base.has(i2)]
    pairs2 = [(j, j2) for j, j2 in D2.pairs if D2.base.has(j) and D2.base.has(j2)]
    pairs = frozenset((cell[i][j], cell[i2][j2])
                      for i, i2 in pairs1 for j, j2 in pairs2)
    upper = _product_table(D1, D2, cell, D1.upper, D2.upper)
    delta = None
    if D1.delta is not None and D2.delta is not None:
        delta = _product_table(D1, D2, cell, D1.delta, D2.delta)
    return DirectedIndex(base, pairs, upper, delta)


def _product_table(D1, D2, cell, t1, t2):
    """((i, j), (i2, j2)) -> the Pair of t1[(i, i2)] and t2[(j, j2)], in
    the product carrier's order."""
    out = {}
    for i in D1.elements:
        for j in D2.elements:
            a = cell[i][j]
            for i2 in D1.elements:
                row, over = cell[t1[(i, i2)]], cell[i2]
                for j2 in D2.elements:
                    out[(a, over[j2])] = row[t2[(j, j2)]]
    return out


def product_cofinal(D1, C1, D2, C2):
    """Componentwise cofinal subset of a product order."""
    members = product_setoid(C1.members, C2.members)
    prod = product_order(D1, D2)
    embed = make_fn(
        members,
        prod.base,
        {
            Pair((k, l)): Pair((C1.embed(k), C2.embed(l)))
            for k in C1.members.elements
            for l in C2.members.elements
        },
    )
    cof = make_fn(
        prod.base,
        members,
        {
            Pair((i, j)): Pair((C1.cof(i), C2.cof(j)))
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
