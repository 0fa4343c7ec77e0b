"""Families of carriers over a directed index, with transport maps along the
order, either covariantly or contravariantly.  Transports may be supplied on
a generating set of edges and are extended by composition, with every
composition path checked to agree.
"""

from __future__ import annotations

from functools import cached_property

from .order import _image_positions, _members, _unordered_images
from .report import Finding
from .setoid import (
    SetoidFn,
    Tag,
    _fn,
    compose,
    check_extensional,
    fn_equal,
    identity,
    is_embedding,
    make_fn,
    setoid_by_key,
)

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


def oriented(direction, lower, upper):
    """(lower, upper) for a covariant family, (upper, lower) otherwise.

    The one place orientation is read: given the two indices of an order
    pair i <= j it returns the domain and codomain index of its transport,
    and given what belongs to two consecutive edges it returns them in the
    order the transports apply.
    """
    return (lower, upper) if direction == COVARIANT else (upper, lower)


class FamilyError(Exception):
    pass


class MissingTransport(FamilyError):
    pass


class NotMonotone(FamilyError):
    pass


class DirectFamily:
    """Carriers over a directed index with transports along the order.

    Covariant transports go up the order (carrier(i) -> carrier(j) for
    i <= j); contravariant ones go down (carrier(j) -> carrier(i)).
    """

    def __init__(self, index, direction, carriers, transports):
        self.index = index  # a DirectedIndex
        self.direction = direction
        self.carriers = carriers
        self.transports = transports  # keyed (i, j) with i <= j

    def carrier(self, i):
        return self.carriers[i]

    def transport(self, i, j):
        return self.transports[(i, j)]

    def ends(self, i, j):
        """The domain index, then the codomain index, of the transport of
        i <= j: `oriented`, inlined, as it runs once per pair."""
        return (i, j) if self.direction == COVARIANT else (j, i)

    def through(self, i, k, j):
        """The composite of the transports of i <= k and k <= j."""
        return compose(*oriented(self.direction, self.transport(i, k),
                                 self.transport(k, j)))

    def order_pairs(self):
        return self.index.order_pairs()

    def top(self):
        return self.index.top

    @cached_property
    def lawful(self):
        """Whether the family laws hold (`_direct_family_laws_hold`),
        decided on first read and kept with the family, so a family made by
        `make_direct_family` and then checked again is decided once."""
        return _direct_family_laws_hold(self)


def _class_inverse(fn):
    """Inverse of a transport that is bijective up to codomain equality."""
    table = {}
    for y in fn.cod.elements:
        pre = next((x for x in fn.dom.elements if fn.cod.eq(fn(x), y)), None)
        if pre is None:
            return None
        table[y] = pre
    inv = SetoidFn(fn.cod, fn.dom, table)
    if all(fn.dom.eq(inv(fn(x)), x) for x in fn.dom.elements) and all(
        fn.cod.eq(fn(inv(y)), y) for y in fn.cod.elements
    ):
        return inv
    return None


def _saturate(index, carriers, given, direction=COVARIANT):
    """Extend transports from generating edges to all order pairs of index
    by composition; across symmetric pairs an inverse is derived when the
    map allows it.

    Each composite goes through the first middle index in carrier order
    whose two transports are known, read off the index's known-edge rows
    (`DirectedIndex._derive_edges`), so which one that is does not depend
    on the hash seed.
    """
    pairset = index.pairs
    known = {(i, i): identity(carriers[i]) for i, j in index.order_pairs() if i == j}
    for (i, j), fn in given.items():
        if (i, j) not in pairset:
            raise MissingTransport(f"edge ({i}, {j}) is not an order pair")
        known[(i, j)] = fn

    def derive(i, j, k):
        if k is not None:
            known[(i, j)] = compose(*oriented(direction, known[(i, k)], known[(k, j)]))
            return True
        if (j, i) in known and (j, i) in pairset:
            inv = _class_inverse(known[(j, i)])
            if inv is not None:
                known[(i, j)] = inv
                return True
        return False

    missing = index._derive_edges(known, derive)
    if missing:
        raise MissingTransport(f"no transport derivable for {missing[:3]}")
    return known


def make_direct_family(index, direction, carriers, transports=None):
    if direction not in (COVARIANT, CONTRAVARIANT):
        raise FamilyError(f"unknown direction {direction!r}")
    carriers = dict(carriers)
    for i in index.elements:
        if i not in carriers:
            raise FamilyError(f"no carrier given for index element {i}")
    given = dict(transports or {})
    for (i, j), fn in given.items():
        a, b = oriented(direction, i, j)
        if not (fn.dom.same_as(carriers[a]) and fn.cod.same_as(carriers[b])):
            raise FamilyError(f"transport for ({i}, {j}) has wrong end carriers")
    table = _saturate(index, carriers, given, direction)
    fam = DirectFamily(index, direction, carriers, table)
    findings = validate_direct_family(fam)
    if findings:
        raise FamilyError(str(findings[0]))
    return fam


def constant_direct_family(index, carrier, direction=COVARIANT):
    transports = {p: identity(carrier) for p in index.order_pairs()}
    return make_direct_family(index, direction,
                              {i: carrier for i in index.elements}, transports)


def validate_direct_family(F):
    """Every failed identity, extensionality and composition law.

    The laws are decided on class-id tables (`_direct_family_laws_hold`),
    on a partial order along covers only, once per family (`F.lawful`);
    only a family they do not show lawful is scanned over every triple
    i <= j <= k, to list its findings.
    """
    if F.lawful:
        return []
    return _validate_direct_family_scan(F)


def _validate_direct_family_scan(F):
    findings = []
    for i in F.index.elements:
        if not fn_equal(F.transport(i, i), identity(F.carrier(i))):
            findings.append(Finding("family-identity", (i,)))
    for i, j in F.order_pairs():
        ok, witness = check_extensional(F.transport(i, j))
        if not ok:
            findings.append(Finding("transport-extensional", (i, j) + witness))
    for i, j in F.order_pairs():
        for k in F.index.elements:
            if not F.index.leq(j, k):
                continue
            if not fn_equal(F.through(i, j, k), F.transport(i, k)):
                findings.append(Finding("family-composition", (i, j, k)))
    return findings


def _class_map(fn):
    """A transport as a tuple of class ids, entry c the class of the values
    on the c-th class of its domain; None when it separates equal elements."""
    cod_id, value = fn.cod.class_id, fn.mapping
    out = []
    for cls in fn.dom._classes:
        c = cod_id[value[cls[0]]]
        for x in cls[1:]:
            if cod_id[value[x]] != c:
                return None
        out.append(c)
    return tuple(out)


def _class_maps(F, pairs):
    """The transports of `pairs` as class maps, keyed by the transport's
    (domain index, codomain index).

    None when class ids cannot stand for the pairwise laws: a pair naming
    no index element, a transport that is missing, runs between other
    carriers than its pair names, or separates equal elements.
    """
    base = F.index.base
    dom, cod = F.ends(0, 1)  # where the two ends sit in an order pair
    maps = {}
    for pair in pairs:
        i, j = pair
        fn = F.transports.get(pair)
        if fn is None or not (base.has(i) and base.has(j)):
            return None
        a, b = pair[dom], pair[cod]
        src, dst = F.carriers.get(a), F.carriers.get(b)
        if src is None or dst is None:
            return None
        if not (fn.dom.same_as(src) and fn.cod.same_as(dst)):
            return None
        m = _class_map(fn)
        if m is None:
            return None
        maps[(a, b)] = m
    return maps


def _direct_family_laws_hold(F):
    """The identity, extensionality and composition laws on class maps.

    With every transport extensional, a composite's class map is the
    composite of the class maps.  The maps are keyed by (domain, codomain)
    index, so in either direction a chain a -> b -> c of transports
    compares the class map of (a, c) with that of (a, b) and (b, c)
    composed.

    On a partial order only the chains whose first transport runs along a
    cover are compared: with the identity law, a law that holds for every
    i < j' <= k with j' covering i holds for every i <= j <= k, by
    induction on the longest chain from i to j through a cover
    i < j' <= j.  Read in the order the transports run, a contravariant
    family is a covariant one over the opposite order, whose covers are the
    same pairs.  On any other index every chain is compared.
    """
    els = F.index.elements
    maps = _class_maps(F, F.index.pairs | {(i, i) for i in els})
    if maps is None:
        return False
    for i in els:
        if maps[(i, i)] != tuple(range(F.carriers[i].class_count())):
            return False
    out_of = {}
    for (b, c), bc in maps.items():
        out_of.setdefault(b, []).append((c, bc))
    covers = F.index.covers
    firsts = maps if covers is None else [
        F.ends(i, j) for i in els for j in covers[i]]
    for a, b in firsts:
        ab = maps[(a, b)]
        for c, bc in out_of[b]:
            if maps.get((a, c)) != tuple(map(bc.__getitem__, ab)):
                return False
    return True


# --- the disjoint-union carrier and its equalities -------------------------

def sum_elements(F):
    return [Tag((i, x)) for i in F.index.elements for x in F.carrier(i).elements]


def direct_sum_equality(F, i, x, j, y):
    """Tagged pairs are equal when their transports meet at the top element.

    Sound and complete on a finite directed index: any witness transports on
    to the top, and the top is itself a witness.
    """
    if F.direction != COVARIANT:
        raise FamilyError("direct sum equality needs a covariant family")
    t = F.top()
    return F.carrier(t).eq(F.transport(i, t)(x), F.transport(j, t)(y))


def direct_sum_equality_exhaustive(F, i, x, j, y):
    """Oracle for direct_sum_equality: scan every common upper bound, the
    members of the two rows' intersection."""
    position, rows = F.index._order
    for k in _members(F.index.elements, rows[position[i]] & rows[position[j]]):
        if F.carrier(k).eq(F.transport(i, k)(x), F.transport(j, k)(y)):
            return True
    return False


def sum_equality_laws_hold(F):
    """Whether agreement at the top is an equivalence on the tagged elements
    and agrees with the upper-bound search on every pair, in one keyed pass.

    The top is a common upper bound of every pair, so agreement there is
    agreement at some upper bound.  The converse fails exactly when some
    upper bound k relates two elements below it that the top separates; so
    the two agree iff, for each k, the class at k of every element below k
    determines its class at the top.  With an equivalence at the top,
    agreement there is that equivalence read through the transports, so it
    is one.  False means the pass did not show both: a law fails, or class
    ids cannot stand for the pairwise relations (`_class_maps`).
    """
    if F.direction != COVARIANT:
        return False
    els = F.index.elements
    if any(i not in F.carriers for i in els):
        return False
    if not any(len(F.carriers[i]) for i in els):
        return True  # no tagged elements, so no pairs
    t = F.top()
    maps = _class_maps(F, F.index.pairs)
    if maps is None:
        return False
    below = {}
    for i, k in F.index.pairs:
        below.setdefault(k, []).append(i)
    for k, lower in below.items():
        top_class = {}
        for i in lower:
            for at_k, at_top in zip(maps[(i, k)], maps[(i, t)]):
                if top_class.setdefault(at_k, at_top) != at_top:
                    return False
    return True


def direct_sum_setoid(F):
    """The disjoint union with the transport-agreement equality.

    Each tag (i, x) is keyed by the class of its transport to the top, so
    the classes are read off in one pass, not by testing all pairs of
    tagged elements.
    """
    if F.direction != COVARIANT:
        raise FamilyError("direct sum equality needs a covariant family")
    t = F.top()
    top_id = F.carrier(t).class_id
    els, keys = [], []
    for i in F.index.elements:
        up = F.transport(i, t).mapping
        for x in F.carrier(i).elements:
            els.append(Tag((i, x)))
            keys.append(top_id[up[x]])
    return setoid_by_key(els, keys)


# --- maps between families -------------------------------------------------

class FamilyMap:
    def __init__(self, comps):
        self.comps = comps  # index element -> SetoidFn

    def at(self, i):
        return self.comps[i]


def identity_family_map(F):
    return FamilyMap({i: identity(F.carrier(i)) for i in F.index.elements})


def embed_at(F, i, sum_s):
    """The tagging map of one carrier into the disjoint union, unchecked.

    `sum_s` must be `direct_sum_setoid(F)`, and F's transports extensional:
    that setoid keys each tag (i, x) by the top class of x's transport, so
    equal elements at i get equal tags."""
    return _fn(F.carrier(i), sum_s,
               {x: Tag((i, x)) for x in F.carrier(i).elements})


def sigma_map(m, sum_src, sum_dst):
    """The induced map on disjoint unions, (i, x) -> (i, m_i(x))."""
    table = {}
    for a in sum_src.elements:
        i, x = a
        table[a] = Tag((i, m.comps[i](x)))
    return make_fn(sum_src, sum_dst, table)


def pi_map(m, assignment):
    """The induced action on an index-wide choice, applied componentwise."""
    return {i: m.comps[i](assignment[i]) for i in assignment}


def all_components_embeddings(m):
    for i, f in m.comps.items():
        ok, witness = is_embedding(f)
        if not ok:
            return False, (i,) + witness
    return True, None


def restrict_family(F, sub_index, h):
    """Reindex a direct family along a monotone map of directed indices."""
    bad = next(_unordered_images(sub_index, F.index, _image_positions(F.index, h)), None)
    if bad is not None:
        raise NotMonotone(f"({bad[0]}, {bad[1]}) maps to an unordered pair")
    carriers = {a: F.carrier(h(a)) for a in sub_index.elements}
    transports = {}
    for a, b in sub_index.order_pairs():
        transports[(a, b)] = F.transport(h(a), h(b))
    return DirectFamily(sub_index, F.direction, carriers, transports)
