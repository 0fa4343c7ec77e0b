"""Directed index sets: finite extensional preorders held as bit rows, whose
upper bounds and top are read off those rows, and cofinal subsets."""

from __future__ import annotations

from functools import cached_property

from .report import Finding, KernelError
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


class OrderError(KernelError):
    pass


class NotDirected(OrderError):
    pass


class DirectedIndex:
    """A finite preorder held as bit rows, directed when every pair has a
    common upper bound.

    rows[n] has bit m set when elements[n] <= elements[m]; an element named
    twice in the carrier has its row at its first position only, with a bit
    at each of its positions.  `leq` is the checked entry to the order and
    `in` the unchecked one; `up(i, j)` and `top` are the first common upper
    bounds in carrier order.
    """

    _factors = None  # (D1, D2) for a product order, whose covers are theirs

    def __init__(self, base, rows):
        self.base = base  # a Setoid
        self.rows = rows  # a list of ints, one per carrier position

    @property
    def elements(self):
        return self.base.elements

    def leq(self, i, j):
        position = self._order[0]
        if i not in position or j not in position:
            raise UnknownElement(f"{i!r} or {j!r} not in index")
        return self.rows[position[i]] >> position[j] & 1 == 1

    def __contains__(self, pair):
        """Whether pair is an order pair; False for a pair off the base."""
        i, j = pair
        position = self._order[0]
        return (i in position and j in position
                and self.rows[position[i]] >> position[j] & 1 == 1)

    def up(self, i, j):
        """The first element, in carrier order, above i and j: the lowest
        bit of row(i) & row(j)."""
        position, rows = self._order
        common = rows[position[i]] & rows[position[j]]
        if not common:
            raise NotDirected(f"no upper bound for ({i}, {j})")
        return next(_members(self.elements, common))

    @cached_property
    def top(self):
        """The first element, in carrier order, above every element: the
        lowest bit of the AND of all rows.  On a preorder, folding `up`
        over the carrier lands on it, since every step's common bounds hold
        all the tops and the last step's bound is one of them."""
        position, rows = self._order
        tops = (1 << len(self.elements)) - 1
        for i in self.elements:
            tops &= rows[position[i]]
        if not tops:
            raise NotDirected("no element is above every element")
        return next(_members(self.elements, tops))

    @cached_property
    def _order(self):
        """(position, rows): position[k] is the first carrier position of
        k, and rows[position[i]] has bit n set when i <= elements[n]."""
        return _carrier_bits(self.elements)[0], self.rows

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

    def middle(self, i, j):
        """The k through which a pair i < j missing from a table that holds
        the covers is derived, or None for a cover; on a partial order only.

        When no element has two covers, the one path of covers from i to j
        makes every composite along it the same, and k is the cover of i,
        so a pair into j needs no pair but the cover and one more into j.
        Otherwise k is the middle the sweep from the covers
        (`_derive_edges`) derives the pair through.
        """
        if self._one_path:
            k = self.covers[i][0]
            return None if k == j else k
        return self._sweep_middles.get((i, j))

    @cached_property
    def _one_path(self):
        return all(len(up) <= 1 for up in self.covers.values())

    @cached_property
    def _sweep_middles(self):
        """(i, j) -> the middle of each pair the sweep from the covers
        derives, in the order it derives them."""
        middles = {}

        def record(i, j, k):
            if k is not None:
                middles[(i, j)] = k
            return k is not None

        covers = self.covers
        self._derive_edges({(i, j) for i in covers for j in covers[i]}, record)
        return middles

    def derived(self, held, i, j, through):
        """held[(i, j)], or None when it cannot be derived: each order pair
        a != b missing on the way is made by through(a, b, k), once held has
        both pairs through its middle k (`middle`), and kept in held.  The
        pairs through k lie strictly inside a <= b, so the walk ends."""
        todo = [(i, j)]
        while todo:
            pair = todo[-1]
            if pair in held:
                todo.pop()
                continue
            a, b = pair
            k = self.middle(a, b) if a != b and pair in self else None
            if k is None:
                return None
            need = [p for p in ((a, k), (k, b)) if p not in held]
            if need:
                todo += need
                continue
            held[pair] = through(a, b, k)
            todo.pop()
        return held[(i, j)]

    @cached_property
    def covers(self):
        """i -> the elements that cover i, in carrier order; None unless
        the rows are a partial order on the base's elements, each named
        once.

        `make_directed` sets them as it reads the given pairs, `chain` as
        it builds, and a product order reads them off its factors'
        (`_product_covers`); this row pass runs for any other index built
        from its rows.  The covers of i are strict-above(i) less the union
        of strict-above(m) over m in strict-above(i).  The same pass shows
        the order antisymmetric and transitive: no such m is <= i, and
        above(m) lies in above(i).
        """
        if self._factors is not None:
            return _product_covers(*self._factors, self.elements)
        position, rows = self._order
        els = self.elements
        if len(position) != len(els):
            return None  # an element named twice
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
        """The order pairs, sorted, once per index."""
        return self._order_pairs

    @cached_property
    def _order_pairs(self):
        # each element once, at its first position, in sorted order
        position, rows = self._order
        els = self.elements
        firsts = sorted(position.values(), key=els.__getitem__)
        return tuple([(els[n], els[m]) for n in firsts for m in firsts
                      if rows[n] >> m & 1])

    def __repr__(self):
        rels = sum(map(int.bit_count, self.rows))
        return f"DirectedIndex({list(self.elements)}, rels={rels})"


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


def _unbounded_pairs(D):
    """The pairs (i, j) with no common upper bound, in carrier order."""
    position, rows = D._order
    for i in D.elements:
        row = rows[position[i]]
        for j in D.elements:
            if not row & rows[position[j]]:
                yield i, j


def make_directed(base, order_pairs):
    """Build a DirectedIndex over the reflexive, transitive and extensional
    closure of the order pairs, refusing one that is not directed.

    The closure is reachability between classes, since reflexivity and
    extensionality relate every element to its whole class: each class's
    row holds the positions of the classes it reaches, closed by passes in
    reverse topological order of the given pairs (`_reach`).  On a partial
    order the covers are read off the given pairs, since every cover is
    one (`_given_covers`).  A finite preorder is directed exactly when it
    has a top, and the refusal names the first pair, in carrier order,
    with no common upper bound.
    """
    if not isinstance(base, Setoid):
        base = make_setoid(base)
    els, classes, class_id = base.elements, base._classes, base.class_id
    position, own = _carrier_bits(els)[0], [0] * len(classes)
    for n, x in enumerate(els):
        own[class_id[x]] |= 1 << n
    succ = [[] for _ in classes]  # the classes each class is given below
    for i, j in order_pairs if els else ():  # an empty base ends in NotDirected
        for x in (i, j):
            if x not in class_id:
                raise UnknownElement(f"{x!r} not in carrier")
        c, d = class_id[i], class_id[j]
        if c != d:
            succ[c].append(d)
    reach, acyclic = _reach(own, succ)
    D = DirectedIndex(base, [reach[class_id[x]] if position[x] == n else 0
                             for n, x in enumerate(els)])
    # a partial order when no class has two elements and no element is
    # named twice; the covers then take the place of the row pass
    D.covers = (_given_covers(els, class_id, own, succ, reach)
                if acyclic and len(classes) == len(els) else None)
    try:
        D.top
    except NotDirected:
        for i, j in _unbounded_pairs(D):
            raise NotDirected(f"no upper bound for ({i}, {j})") from None
        raise  # an empty carrier has no pair and no top
    return D


def _reach(own, succ):
    """(reach, acyclic): reach[c] is own[c] ORed with own[d] for every class
    d that c reaches through succ.

    The passes visit the classes in reverse topological order (Kahn's),
    one OR per given pair, so on an acyclic relation one pass closes it.
    A cycle leaves its classes and those above them out of that order:
    each pass visits them first, in reverse class order, and the passes
    repeat until nothing changes."""
    indegree = [0] * len(own)
    for ds in succ:
        for d in ds:
            indegree[d] += 1
    order = [c for c, k in enumerate(indegree) if not k]
    for c in order:  # grows as it is read
        for d in succ[c]:
            indegree[d] -= 1
            if not indegree[d]:
                order.append(d)
    acyclic = len(order) == len(own)
    if not acyclic:
        order += [c for c, k in enumerate(indegree) if k]
    reach = own[:]
    while True:
        changed = False
        for c in order[::-1]:
            row = reach[c]
            for d in succ[c]:
                row |= reach[d]
            changed |= row != reach[c]
            reach[c] = row
        if acyclic or not changed:
            return reach, acyclic


def _given_covers(els, class_id, own, succ, reach):
    """i -> the elements that cover i, in carrier order, on the partial
    order the given pairs close to.  Each cover of i is given above i,
    and a given j is a cover unless another given k lies strictly below
    it, so the covers are the given successors less the strict-above of
    every given successor."""
    covers = {}
    for x in els:
        given = under = 0
        for d in succ[class_id[x]]:
            given |= own[d]
            under |= reach[d] & ~own[d]
        covers[x] = tuple(_members(els, given & ~under))
    return covers


def validate_directed(D):
    """Every failed invariant with a witness; empty report means valid.

    Each law reads the rows of `DirectedIndex._order`: one bit test per
    pair, and findings listed off the rows in carrier order, the order
    pairs in `order_pairs()` order.  So i <= j <= k fails transitivity at
    the members of row(j) & ~row(i), and a pair is upper-missing when
    row(i) & row(j) is empty.
    """
    findings = []
    els = D.elements
    position, rows = D._order

    def leq(i, k):
        return rows[position[i]] >> position[k] & 1

    for i in els:
        if not leq(i, i):
            findings.append(Finding("leq-reflexive", (i,)))
    for i, j in D.order_pairs():
        findings.extend(Finding("leq-transitive", (i, j, k)) for k in
                        _members(els, rows[position[j]] & ~rows[position[i]]))
    # each i <= j against the members equal to i and to j, in carrier order
    classes, class_id = D.base._classes, D.base.class_id
    for i in els:
        for j in _members(els, rows[position[i]]):
            findings.extend(Finding("leq-extensional", (i, j, i2, j2))
                            for i2 in classes[class_id[i]] for j2 in classes[class_id[j]]
                            if not leq(i2, j2))
    findings.extend(Finding("upper-missing", p) for p in _unbounded_pairs(D))
    return findings


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
    if not findings and D.base.is_discrete() and _has_top(D):
        # Then the laws above make the subset directed.  For k the bound
        # up(e j, e j2), cof2 gives e cof e j <= e cof k, and cof1 with e
        # extensional makes the left side e j on a discrete base; so
        # cof k bounds j, and j2 likewise.
        return findings
    # The induced order on the subset stays directed: upper bounds are
    # exhibited through the modulus itself.
    for j in C.members.elements:
        for j2 in C.members.elements:
            k = at[C.cof(D.up(C.embed(j), C.embed(j2)))]
            if not (rows[at[j]] & rows[at[j2]]) >> k & 1:
                findings.append(Finding("subset-directed", (j, j2)))
    return findings


def _has_top(D):
    try:
        D.top
    except NotDirected:
        return False
    return True


def induced_order(D, C):
    """The subset as a DirectedIndex, ordered through the embedding."""
    els, rows = C.members.elements, D.rows
    at = _image_positions(D, C.embed)
    first = _carrier_bits(els)[0]
    return DirectedIndex(C.members, [
        sum([1 << m for m, j2 in enumerate(els) if rows[at[j]] >> at[j2] & 1])
        if first[j] == n else 0 for n, j in enumerate(els)])


def product_order(D1, D2):
    """The componentwise order, read off the factors' rows.

    The product carrier is i-major, (i, j) at position p·n2 + q for i at p
    and j at q, so the row of (i, j) is row2(j) shifted to the block of
    each i2 in row1(i): row2(j) times row1(i) spread to stride n2, the
    blocks never carrying into each other."""
    n2 = len(D2.elements)
    spread = [sum([1 << p * n2 for p in range(len(D1.rows)) if row1 >> p & 1])
              for row1 in D1.rows]
    D = DirectedIndex(product_setoid(D1.base, D2.base),
                      [s * row2 for s in spread for row2 in D2.rows])
    D._factors = (D1, D2)
    return D


def _product_covers(D1, D2, els):
    """The covers of the product order on `els`, read off its factors':
    (i2, j) for each cover i2 of i and (i, j2) for each cover j2 of j, in
    carrier order; None unless both factors have covers.

    The covers of (i, j) change one part by a cover, since the order is
    componentwise.  (i, j) sits at p·n2 + q for i at p and j at q, so the
    (i, j2) fill block p in the order of j's covers, and the (i2, j) lie
    before or after it in the order of i's."""
    c1, c2 = D1.covers, D2.covers
    if c1 is None or c2 is None:
        return None
    n2 = len(D2.elements)
    at1 = {i: p * n2 for p, i in enumerate(D1.elements)}
    at2 = {j: q for q, j in enumerate(D2.elements)}
    covers = {}
    for i in D1.elements:
        block = at1[i]
        starts = [at1[k] for k in c1[i]]
        before = [b for b in starts if b < block]
        after = starts[len(before):]
        for j in D2.elements:
            q = at2[j]
            covers[els[block + q]] = tuple(
                [els[b + q] for b in before] + [els[block + at2[k]] for k in c2[j]]
                + [els[b + q] for b in after])
    return covers


def product_cofinal(D1, C1, D2, C2):
    """Componentwise cofinal subset of a product order."""
    members = product_setoid(C1.members, C2.members)
    base = product_setoid(D1.base, D2.base)
    embed = make_fn(
        members,
        base,
        {
            Pair((k, l)): Pair((C1.embed(k), C2.embed(l)))
            for k in C1.members.elements
            for l in C2.members.elements
        },
    )
    cof = make_fn(
        base,
        members,
        {
            Pair((i, j)): Pair((C1.cof(i), C2.cof(j)))
            for i in D1.elements
            for j in D2.elements
        },
    )
    return CofinalSubset(members, embed, cof)


def chain(n, names=None):
    """The chain 0 <= 1 <= ... <= n-1."""
    if names is None:
        names = [str(i) for i in range(n)]
    full = (1 << len(names)) - 1
    D = DirectedIndex(discrete(names), [full >> m << m for m in range(len(names))])
    D.covers = dict(zip(D.elements, [*zip(D.elements[1:]), ()]))  # k -> k+1
    return D
