"""Families of carriers over a directed index, with transport maps along the
order, either covariantly or contravariantly.  Transports may be supplied on
a generating set of edges and are extended by composition, with every
composition path checked to agree.

A family holds its identities and the transports it is given.  An order pair
with no middle among them is made when the family is built, as the inverse
of its symmetric partner; every other pair is composed through its middle
(`DirectedIndex.sweep`) the first time it is read.
"""

from __future__ import annotations

from collections import ChainMap
from functools import cached_property

from .order import CoverPath, _image_positions, _members, _unordered_images
from .report import Finding, KernelError, raise_first
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


class FamilyError(KernelError):
    pass


class MissingTransport(FamilyError):
    pass


class NotMonotone(FamilyError):
    pass


class DirectFamily:
    """Carriers over a directed index with transports along the order.

    Covariant transports go up the order (carrier(i) -> carrier(j) for
    i <= j); contravariant ones go down (carrier(j) -> carrier(i)).

    The family holds the transports it is given.  `derive(F, i, j)`, when
    there is one, makes the transport of a pair not held, keeps it in
    `transports` and returns it, or returns None; `transport` reads both.
    A family given `middles`, those `DirectedIndex.sweep` finds for its
    held pairs, composes each pair not held through its middle
    (`_compose_through_middle`).  `parents` are families whose laws imply
    this one's, so it is lawful when they are.
    """

    def __init__(self, index, direction, carriers, transports, derive=None, parents=(),
                 middles=None):
        self.index = index  # a DirectedIndex
        self.direction = direction
        self.carriers = carriers
        self.transports = transports  # held, keyed (i, j) with i <= j
        self.middles = middles
        self.derive = derive if middles is None else _compose_through_middle
        self.parents = parents

    def carrier(self, i):
        return self.carriers[i]

    def transport(self, i, j):
        try:
            return self.transports[(i, j)]
        except KeyError:
            fn = None if self.derive is None else self.derive(self, i, j)
            if fn is None:
                raise
        return fn

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
        """Whether the family laws hold, decided on first read and kept with
        the family, so a family made by `make_direct_family` and then
        checked again is decided once: true when every parent is lawful,
        without reading a transport, else `_direct_family_laws_hold`."""
        if self.parents and all(p.lawful for p in self.parents):
            return True
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


def _compose_through_middle(F, i, j):
    """The transport of i < j composed through its middle, each pair on the
    way kept in F.transports; None when a pair on the way is not held and
    has no middle."""
    held, direction = F.transports, F.direction
    return F.index.derived(held, F.middles, i, j, lambda a, b, k: compose(
        *oriented(direction, held[(a, k)], held[(k, b)])))


def make_direct_family(index, direction, carriers, transports=None):
    """The family `_held_family` builds, refused unless its laws hold."""
    fam = _held_family(index, direction, carriers, transports)
    raise_first(validate_direct_family(fam), FamilyError)
    return fam


def _held_family(index, direction, carriers, transports):
    """The family holding the identities and the transports it is given.
    Each order pair with no middle among those is made now, as the
    inverse of its symmetric partner when that map is bijective up to
    equality (`_class_inverse`), and held; a pair that cannot be made is
    refused.  Every other pair is composed through its middle
    (`DirectedIndex.sweep`) the first time it is read."""
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
    table = {(i, i): identity(carriers[i]) for i in index.elements if (i, i) in index}
    for i, j in given:
        if (i, j) not in index:
            raise MissingTransport(f"edge ({i}, {j}) is not an order pair")
    table.update(given)

    def invert(i, j, middles):
        if (j, i) not in index or ((j, i) not in table and (j, i) not in middles):
            return False
        # the partner, read through a family that keeps what it composes
        # apart from table
        partner = DirectFamily(index, direction, carriers, ChainMap({}, table),
                               middles=middles).transport(j, i)
        inv = _class_inverse(partner)
        if inv is not None:
            table[(i, j)] = inv
        return inv is not None

    middles, missing = index.sweep(table, invert)
    if missing:
        raise MissingTransport(f"no transport derivable for {missing[:3]}")
    return DirectFamily(index, direction, carriers, table, middles=middles)


def constant_direct_family(index, carrier, direction=COVARIANT):
    """Identity transports: on the covers of a partial order, so the rest
    derive on first use, and on every order pair of any other index."""
    covers = index.covers
    pairs = index.order_pairs() if covers is None else [
        (i, j) for i in covers for j in covers[i]]
    transports = {p: identity(carrier) for p in pairs}
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
    on the c-th class of its domain; None when it separates equal elements.
    On a discrete domain the classes are the elements, so it is the ids of
    the values, in carrier order."""
    cod_id, value = fn.cod.class_id, fn.mapping
    if fn.dom.is_discrete():
        return tuple(map(cod_id.__getitem__, value.values()))
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

    None when class ids cannot stand for the pairwise laws: a transport
    that is missing, runs between other carriers than its pair names, or
    separates equal elements.
    """
    dom, cod = F.ends(0, 1)  # where the two ends sit in an order pair
    maps = {}
    for pair in pairs:
        i, j = pair
        try:
            fn = F.transport(i, j)
        except KeyError:
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

    A family with middles is read on its held transports alone: the class
    map of each other pair is composed from those of the two pairs through
    its middle, in the order `DirectedIndex.sweep` derives them.  Where the
    middles are the covers of a one-path order (`CoverPath`), every pair is
    one composite along the one path of covers, so the composition law
    holds once the held class maps exist.
    """
    index, els = F.index, F.index.elements
    covers, middles = index.covers, F.middles
    reflexive = [(i, i) for i in els]
    if middles is None:
        pairs = reflexive + [(i, j) for i, j in index.order_pairs() if i != j]
    else:
        pairs = reflexive + [p for p in F.transports if p[0] != p[1]]
    maps = _class_maps(F, pairs)
    if maps is None:
        return False
    for i in els:
        if maps[(i, i)] != tuple(range(F.carriers[i].class_count())):
            return False
    if isinstance(middles, CoverPath):
        return True
    for (i, j), k in () if middles is None else middles.items():
        a, b = F.ends(i, j)
        maps[(a, b)] = tuple(map(maps[(k, b)].__getitem__, maps[(a, k)]))
    out_of = {}
    for (b, c), bc in maps.items():
        out_of.setdefault(b, []).append((c, bc))
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
        xs, up = F.carrier(i).elements, F.transport(i, t).mapping
        els += [Tag((i, x)) for x in xs]
        keys += map(top_id.__getitem__, map(up.__getitem__, xs))
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
    """Reindex a direct family along a monotone map of directed indices.

    The transport of a <= b is F's of h(a) <= h(b), read on first use; the
    reindexed family is lawful when F is, since h keeps the order."""
    bad = next(_unordered_images(sub_index, F.index, _image_positions(F.index, h)), None)
    if bad is not None:
        raise NotMonotone(f"({bad[0]}, {bad[1]}) maps to an unordered pair")
    return _restrict_family(F, sub_index, h)


def _restrict_family(F, sub_index, h):
    """`restrict_family` along an h its caller has shown monotone."""
    carriers = {a: F.carrier(h(a)) for a in sub_index.elements}

    def derive(G, a, b):
        if (a, b) not in sub_index:
            return None
        fn = G.transports[(a, b)] = F.transport(h(a), h(b))
        return fn

    return DirectFamily(sub_index, F.direction, carriers, {}, derive, (F,))
