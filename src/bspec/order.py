"""Directed index sets: extensional preorders with upper-bound witnesses,
optional coherent choice of upper bounds, and cofinal subsets."""

from __future__ import annotations

from functools import cached_property

from .report import Finding
from .setoid import (
    Pair,
    Setoid,
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


class DirectedIndex:
    """A finite preorder where every pair has a chosen upper bound.

    `upper` is total on ordered pairs.  `delta` is an optional coherent
    choice of upper bounds; when present the order must be a poset up to
    carrier equality and the (d1)-(d3) laws are validated.

    `leq` is the checked entry to the order.  Everything else reads it as
    bit rows (`_order`), built once per index.
    """

    def __init__(self, base, pairs, upper, delta=None):
        self.base = base  # a Setoid
        self.pairs = pairs  # a frozenset
        self.upper = upper
        self.delta = delta

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
    def _order(self):
        """(position, rows): position[k] is the first carrier position of
        k, and rows[position[i]] has bit n set when i <= elements[n].

        An element named twice in the carrier has a bit at each of its
        positions, so a row's members list it as often as the carrier does.
        A pair naming an element off the base sets no bit.
        """
        els = self.elements
        position, bits = _carrier_bits(els)
        rows = [0] * len(els)
        for i, k in self.pairs:
            if i in position and k in position:
                rows[position[i]] |= bits[k]
        return position, rows

    def _derive_edges(self, known, derive):
        """Sweep the order pairs i != j missing from `known`, in
        `order_pairs()` order, until a sweep derives nothing; the pairs
        still missing, in that order.

        The known edges are bit rows over carrier positions, set as
        `_order` sets them: out[i] holds k for each known edge (i, k), and
        into[j] holds k for each known edge (k, j); a known edge that is
        not an order pair sets no bit.  The middle of a missing (i, j) is
        the lowest bit of out[i] & into[j] & row(i), i and j masked out:
        the first k in carrier order with i <= k <= j and both edges known.
        derive(i, j, k), k None when there is no middle, returns whether it
        derived (i, j); an edge derived is known to the rest of the sweep.
        """
        position, rows = self._order
        els = self.elements
        bits = _carrier_bits(els)[1]
        out, into = [0] * len(els), [0] * len(els)

        def learn(i, j):
            out[position[i]] |= bits[j]
            into[position[j]] |= bits[i]

        for i, j in known:
            if i in position and j in position and rows[position[i]] >> position[j] & 1:
                learn(i, j)
        todo = [(i, j) for i, j in self.order_pairs() if i != j and (i, j) not in known]
        while todo:
            left = []
            for i, j in todo:
                at = position[i]
                mids = out[at] & into[position[j]] & rows[at] & ~(bits[i] | bits[j])
                k = els[(mids & -mids).bit_length() - 1] if mids else None
                if derive(i, j, k):
                    learn(i, j)
                else:
                    left.append((i, j))
            if len(left) == len(todo):
                break
            todo = left
        return todo

    @cached_property
    def covers(self):
        """i -> the elements that cover i, in carrier order; None unless
        the pairs are a partial order on the base's elements, each named
        once.

        The covers of i are strict-above(i) less the union of
        strict-above(m) over m in strict-above(i).  The same pass shows
        the order antisymmetric and transitive: no such m is <= i, and
        above(m) lies in above(i).
        """
        position, rows = self._order
        els = self.elements
        if len(position) != len(els) or sum(map(int.bit_count, rows)) != len(self.pairs):
            return None  # an element named twice, or a pair off the base
        covers = {}
        for n, row in enumerate(rows):
            if not row >> n & 1:
                return None
            strict, under = row & ~(1 << n), 0
            for m in _members(range(len(els)), strict):
                if rows[m] >> n & 1 or rows[m] & ~row:
                    return None
                under |= rows[m] & ~(1 << m)
            covers[els[n]] = tuple(_members(els, strict & ~under))
        return covers

    def order_pairs(self):
        """The order pairs, sorted once per index."""
        return self._order_pairs

    @cached_property
    def _order_pairs(self):
        return tuple(sorted(self.pairs))

    def __repr__(self):
        return f"DirectedIndex({list(self.elements)}, rels={len(self.pairs)})"


def _carrier_bits(els):
    """(position, bits): the first carrier position of each element, and a
    bit at every position it is named at."""
    position, bits = {}, {}
    for n, k in enumerate(els):
        position.setdefault(k, n)
        bits[k] = bits.get(k, 0) | 1 << n
    return position, bits


def _members(items, mask):
    """The items at the set bits of mask, in order, one at a time."""
    while mask:
        low = mask & -mask
        yield items[low.bit_length() - 1]
        mask ^= low


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


def _first_upper_bounds(D):
    """(i, j) -> the first element, in carrier order, above both: the
    lowest bit of the two rows' intersection."""
    position, rows = D._order
    els = D.elements
    upper = {}
    for i in els:
        row = rows[position[i]]
        for j in els:
            common = row & rows[position[j]]
            if not common:
                raise NotDirected(f"no upper bound for ({i}, {j})")
            upper[(i, j)] = els[(common & -common).bit_length() - 1]
    return upper


def make_directed(base, order_pairs):
    """Build a DirectedIndex whose upper-bound witnesses are the first
    common upper bound in carrier order, read off the index's own rows."""
    if not isinstance(base, Setoid):
        base = make_setoid(base)
    D = DirectedIndex(base, _close_order(base, order_pairs), {})
    D.upper.update(_first_upper_bounds(D))
    return D


def validate_directed(D):
    """Every failed invariant with a witness; empty report means valid.

    Each law reads the rows of `DirectedIndex._order`: one bit test per
    pair, and findings listed off the rows in carrier order, the order
    pairs in `order_pairs()` order.  So i <= j <= k fails transitivity at
    the members of row(j) & ~row(i).  An element off the base raises in
    `leq`, where a scan over every element would meet it.  delta-assoc is
    decided in O(n^2) when delta is the join of a partial order
    (`_delta_is_join`); any other delta, or a preorder, is scanned over
    every triple.  A pair missing from delta is listed once, as
    delta-missing; the absorb and assoc instances that read it are skipped.
    """
    findings = []
    els = D.elements
    position, rows = D._order

    def leq(i, k):
        """One bit test; D.leq raises on an element off the base."""
        try:
            return rows[position[i]] >> position[k] & 1
        except KeyError:
            return D.leq(i, k)

    for i in els:
        if not leq(i, i):
            findings.append(Finding("leq-reflexive", (i,)))
    for i, j in D.order_pairs():
        if i in position and j in position:
            ks = _members(els, rows[position[j]] & ~rows[position[i]])
        else:  # leq raises on the element off the base, as the scan does
            ks = (k for k in els if leq(j, k) and not leq(i, k))
        findings.extend(Finding("leq-transitive", (i, j, k)) for k in ks)
    # each i <= j against the members equal to i and to j, in carrier order
    classes, class_id = D.base._classes, D.base.class_id
    for i in els:
        for j in _members(els, rows[position[i]]):
            findings.extend(Finding("leq-extensional", (i, j, i2, j2))
                            for i2 in classes[class_id[i]] for j2 in classes[class_id[j]]
                            if not leq(i2, j2))
    for i in els:
        for j in els:
            if (i, j) not in D.upper:
                findings.append(Finding("upper-missing", (i, j)))
                continue
            k = D.up(i, j)
            if not (leq(i, k) and leq(j, k)):
                findings.append(Finding("upper-bound", (i, j, k)))
    if D.delta is not None:
        for i in els:
            findings.extend(Finding("delta-needs-poset", (i, j))
                            for j in _members(els, rows[position[i]])
                            if leq(j, i) and not D.base.eq(i, j))
        for i in els:
            for j in els:
                d = D.delta.get((i, j))
                if d is None:
                    findings.append(Finding("delta-missing", (i, j)))
                    continue
                if not (leq(i, d) and leq(j, d)):
                    findings.append(Finding("delta-upper", (i, j, d)))
                if (leq(i, j) and (j, i) in D.delta
                        and not (D.base.eq(d, D.delta[(j, i)]) and D.base.eq(d, j))):
                    findings.append(Finding("delta-absorb", (i, j)))
        if not _delta_is_join(D):
            get = D.delta.get
            for i in els:
                for j in els:
                    for k in els:
                        left, right = get((get((i, j)), k)), get((i, get((j, k))))
                        if left is None or right is None:
                            continue  # it reads a pair listed as delta-missing
                        if not D.base.eq(left, right):
                            findings.append(Finding("delta-assoc", (i, j, k)))
    return findings


def _delta_is_join(D):
    """Whether D is a partial order whose delta is the join:
    row(delta(i, j)) = row(i) & row(j) for all i, j.

    Then both bracketings of three elements have the row
    row(i) & row(j) & row(k), so in a partial order they are one
    element, equal to itself: delta-assoc holds.
    """
    if D.covers is None:
        return False
    position, rows = D._order
    els = D.elements
    for i in els:
        row = rows[position[i]]
        for j in els:
            d = position.get(D.delta.get((i, j)))
            if d is None or rows[d] != row & rows[position[j]]:
                return False
    return True


def top_element(D):
    """The top of a directed index, computed once per index."""
    return D.top


class CofinalSubset:
    """An embedded subset with a modulus picking a dominating member."""

    def __init__(self, members, embed, cof):
        self.members = members  # a Setoid
        self.embed = embed  # SetoidFn into the index
        self.cof = cof  # SetoidFn from the index


def _image_positions(D, f):
    """x -> the carrier position in D of f(x), over f's domain, read off
    D's position map; an image off D's base raises UnknownElement, as leq
    does."""
    position = D._order[0]
    off = [y for y in f.mapping.values() if y not in position]
    if off:
        raise UnknownElement(f"{off[0]!r} not in index")
    return {x: position[y] for x, y in f.mapping.items()}


def _unordered_images(D, E, at):
    """The pairs i <= i2 of D, in carrier order, whose images are not
    ordered in E; at[i] is the carrier position in E of the image of i."""
    position, rows = D._order
    image_rows = E._order[1]
    for i in D.elements:
        row = image_rows[at[i]]
        for i2 in _members(D.elements, rows[position[i]]):
            if not row >> at[i2] & 1:
                yield i, i2


def validate_cofinal(D, C):
    """Every failed law of a cofinal subset, with a witness.  The order
    laws read D's rows at the positions of the embedding's image."""
    findings = [Finding(law, witness) for law, (ok, witness) in (
        ("embed-extensional", check_extensional(C.embed)),
        ("embed-injective", is_embedding(C.embed)),
        ("cof-extensional", check_extensional(C.cof))) if not ok]
    for j in C.members.elements:
        if not C.members.eq(C.cof(C.embed(j)), j):
            findings.append(Finding("cof1", (j,)))
    position, rows = D._order
    at = _image_positions(D, C.embed)
    through = {i: at[C.cof(i)] for i in D.elements}  # the position of embed(cof(i))
    findings.extend(Finding("cof2", p) for p in _unordered_images(D, D, through))
    for i in D.elements:
        if not rows[position[i]] >> through[i] & 1:
            findings.append(Finding("cof3", (i,)))
    # The induced order on the subset stays directed: upper bounds are
    # exhibited through the modulus itself.
    for j in C.members.elements:
        for j2 in C.members.elements:
            k = at[C.cof(D.up(C.embed(j), C.embed(j2)))]
            if not (rows[at[j]] & rows[at[j2]]) >> k & 1:
                findings.append(Finding("subset-directed", (j, j2)))
    return findings


def induced_order(D, C):
    """The subset as a DirectedIndex, ordered through the embedding."""
    J = C.members
    rows = D._order[1]
    at = _image_positions(D, C.embed)
    pairs = frozenset(
        (j, j2)
        for j in J.elements
        for j2 in J.elements
        if rows[at[j]] >> at[j2] & 1
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
    pairs = frozenset((a, b) for m, a in enumerate(names) for b in names[m:])
    upper = {(a, b): names[max(m, n)]
             for m, a in enumerate(names) for n, b in enumerate(names)}
    return DirectedIndex(base, pairs, upper, dict(upper))
