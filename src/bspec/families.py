"""Families of carriers over an index, with transport maps along the order.

Plain families transport along the index equality; direct families transport
along the order, either covariantly or contravariantly.  Transports may be
supplied on a generating set of edges and are extended by composition, with
every composition path checked to agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import DirectedIndex
from .report import Finding
from .setoid import (
    Setoid,
    SetoidFn,
    class_pairs,
    compose,
    check_extensional,
    fn_equal,
    identity,
    is_embedding,
    make_fn,
    split_tag,
    tag_token,
)

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


class FamilyError(Exception):
    pass


class MissingTransport(FamilyError):
    pass


class NotMonotone(FamilyError):
    pass


class InvalidMap(FamilyError):
    pass


class EnumerationBoundExceeded(FamilyError):
    pass


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


@dataclass(eq=False)
class DirectFamily:
    """Carriers over a directed index with transports along the order.

    Covariant transports go up the order (carrier(i) -> carrier(j) for
    i <= j); contravariant ones go down (carrier(j) -> carrier(i)).
    """

    index: DirectedIndex
    direction: str
    carriers: dict
    transports: dict  # keyed (i, j) with i <= j

    def carrier(self, i):
        return self.carriers[i]

    def transport(self, i, j):
        return self.transports[(i, j)]

    def order_pairs(self):
        return self.index.order_pairs()

    def top(self):
        return self.index.top


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


def _saturate(pairs, carriers, given, contravariant=False):
    """Extend transports from generating edges to all pairs by composition;
    across symmetric pairs an inverse is derived when the map allows it."""
    pairset = set(pairs)
    known = {}
    for i, j in pairs:
        if i == j:
            known[(i, j)] = identity(carriers[i])
    for (i, j), fn in given.items():
        if (i, j) not in pairset:
            raise MissingTransport(f"edge ({i}, {j}) is not an order pair")
        known[(i, j)] = fn
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            if (i, j) in known:
                continue
            mids = {k for (a, k) in known if a == i} & {
                k for (k, b) in known if b == j
            }
            for k in mids:
                if (i, k) in known and (k, j) in known:
                    if contravariant:
                        known[(i, j)] = compose(known[(k, j)], known[(i, k)])
                    else:
                        known[(i, j)] = compose(known[(i, k)], known[(k, j)])
                    changed = True
                    break
            if (i, j) in known:
                continue
            if (j, i) in known and (j, i) in pairset:
                inv = _class_inverse(known[(j, i)])
                if inv is not None:
                    known[(i, j)] = inv
                    changed = True
    missing = [p for p in pairs if p not in known]
    if missing:
        raise MissingTransport(f"no transport derivable for {missing[:3]}")
    return known


def make_family(index, carriers, transports=None):
    carriers = dict(carriers)
    for i in index.elements:
        if i not in carriers:
            raise FamilyError(f"no carrier given for index element {i}")
    pairs = [
        (i, j)
        for i in index.elements
        for j in index.elements
        if index.eq(i, j)
    ]
    table = _saturate(pairs, carriers, dict(transports or {}))
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


def make_direct_family(index, direction, carriers, transports=None):
    if direction not in (COVARIANT, CONTRAVARIANT):
        raise FamilyError(f"unknown direction {direction!r}")
    carriers = dict(carriers)
    for i in index.elements:
        if i not in carriers:
            raise FamilyError(f"no carrier given for index element {i}")
    given = dict(transports or {})
    for (i, j), fn in given.items():
        src = carriers[i] if direction == COVARIANT else carriers[j]
        dst = carriers[j] if direction == COVARIANT else carriers[i]
        if not (fn.dom.same_as(src) and fn.cod.same_as(dst)):
            raise FamilyError(f"transport for ({i}, {j}) has wrong end carriers")
    pairs = index.order_pairs()
    table = _saturate(pairs, carriers, given,
                      contravariant=direction == CONTRAVARIANT)
    fam = DirectFamily(index, direction, carriers, table)
    findings = validate_direct_family(fam)
    if findings:
        raise FamilyError(str(findings[0]))
    return fam


def constant_direct_family(index, carrier, direction=COVARIANT):
    transports = {p: identity(carrier) for p in index.order_pairs()}
    return make_direct_family(index, direction,
                              {i: carrier for i in index.elements}, transports)


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


def validate_direct_family(F):
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
            if F.direction == COVARIANT:
                path = compose(F.transport(i, j), F.transport(j, k))
            else:
                path = compose(F.transport(j, k), F.transport(i, j))
            if not fn_equal(path, F.transport(i, k)):
                findings.append(Finding("family-composition", (i, j, k)))
    return findings


# --- the disjoint-union carrier and its equalities -------------------------

def sum_elements(F):
    return [
        tag_token(i, x)
        for i in F.index.elements
        for x in F.carrier(i).elements
    ]


def sigma_equality_plain(F, i, x, j, y):
    """Equality on the disjoint union of a plain family."""
    return F.index.eq(i, j) and F.carrier(j).eq(F.transport(i, j)(x), y)


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
    """Oracle for direct_sum_equality: scan every common upper bound."""
    for k in F.index.elements:
        if F.index.leq(i, k) and F.index.leq(j, k):
            if F.carrier(k).eq(F.transport(i, k)(x), F.transport(j, k)(y)):
                return True
    return False


def plain_sum_setoid(F):
    els = sum_elements(F)
    pairs = set()
    for a in els:
        i, x = split_tag(a)
        for b in els:
            j, y = split_tag(b)
            if sigma_equality_plain(F, i, x, j, y):
                pairs.add((a, b))
    return Setoid(tuple(els), frozenset(pairs))


def direct_sum_pairs(F):
    """The tagged elements and the pairs of direct_sum_equality.

    Each i@x is keyed by the class of its transport to the top; the pairs
    are those within one key, so they are built in O(pairs), not by
    testing all pairs of tagged elements.
    """
    if F.direction != COVARIANT:
        raise FamilyError("direct sum equality needs a covariant family")
    t = F.top()
    top = F.carrier(t)
    els, keyed = [], {}
    for i in F.index.elements:
        up = F.transport(i, t)
        for x in F.carrier(i).elements:
            a = tag_token(i, x)
            els.append(a)
            keyed.setdefault(top.class_repr(up(x)), []).append(a)
    return tuple(els), class_pairs(keyed.values())


def direct_sum_setoid(F):
    """The disjoint union with the transport-agreement equality."""
    return Setoid(*direct_sum_pairs(F))


def sum_projection_raw(token):
    """Index tag of a sum element.

    Warning: this is a raw operation, not a map of setoids; on a direct sum
    it need not respect equality.
    """
    return split_tag(token)[0]


def validate_dependent(F, assignment, flavor):
    """Check an index-wide choice of elements against the transports."""
    findings = []
    if isinstance(F, DirectFamily):
        if flavor == "plain":
            findings.append(Finding("flavor-mismatch", (),
                                    "plain flavor on a direct family"))
            return findings
        if (flavor == COVARIANT) != (F.direction == COVARIANT):
            findings.append(Finding("flavor-mismatch", (),
                                    f"family is {F.direction}"))
            return findings
    elif flavor != "plain":
        findings.append(Finding("flavor-mismatch", (),
                                "ordered flavor on a plain family"))
        return findings
    for i in F.index.elements:
        if i not in assignment:
            findings.append(Finding("assignment-partial", (i,)))
            return findings
    if flavor == "plain":
        for i, j in F.diagonal_pairs():
            if not F.carrier(j).eq(assignment[j], F.transport(i, j)(assignment[i])):
                findings.append(Finding("dependent-compat", (i, j)))
        return findings
    for i, j in F.order_pairs():
        if flavor == COVARIANT:
            if not F.carrier(j).eq(assignment[j], F.transport(i, j)(assignment[i])):
                findings.append(Finding("dependent-compat", (i, j)))
        else:
            if not F.carrier(i).eq(assignment[i], F.transport(i, j)(assignment[j])):
                findings.append(Finding("dependent-compat", (i, j)))
    return findings


def enumerate_compatible(F, flavor, bound=1_000_000):
    """All valid index-wide choices, as dicts, by pruned backtracking.

    The bound caps the search nodes visited (candidate values tried), not
    the product of carrier sizes; the search assigns determining indices
    first, so forced components are filled without branching.
    """
    els = list(F.index.elements)
    if isinstance(F, DirectFamily):
        below = {i: sum(1 for j in els if F.index.leq(j, i)) for i in els}
        # covariant choices are determined from below, contravariant from above
        els.sort(key=lambda i: below[i],
                 reverse=(flavor == CONTRAVARIANT))

    def ok(assigned, i, x):
        for j, y in assigned.items():
            if flavor == "plain":
                if F.index.eq(i, j):
                    if not F.carrier(j).eq(y, F.transport(i, j)(x)):
                        return False
                continue
            if F.index.leq(j, i):
                if flavor == COVARIANT:
                    if not F.carrier(i).eq(x, F.transport(j, i)(y)):
                        return False
                else:
                    if not F.carrier(j).eq(y, F.transport(j, i)(x)):
                        return False
            if F.index.leq(i, j):
                if flavor == COVARIANT:
                    if not F.carrier(j).eq(y, F.transport(i, j)(x)):
                        return False
                else:
                    if not F.carrier(i).eq(x, F.transport(i, j)(y)):
                        return False
        return True

    out = []
    visited = 0

    def extend(pos, assigned):
        nonlocal visited
        if pos == len(els):
            out.append({i: assigned[i] for i in F.index.elements})
            return
        i = els[pos]
        for x in F.carrier(i).elements:
            visited += 1
            if visited > bound:
                raise EnumerationBoundExceeded(
                    f"enumerate_compatible visited more than bound={bound} "
                    "search nodes")
            if ok(assigned, i, x):
                assigned[i] = x
                extend(pos + 1, assigned)
                del assigned[i]

    extend(0, {})
    return out


# --- maps between families -------------------------------------------------

@dataclass(eq=False)
class FamilyMap:
    comps: dict  # index element -> SetoidFn

    def at(self, i):
        return self.comps[i]


def validate_family_map(src, dst, m):
    findings = []
    for i in src.index.elements:
        if i not in m.comps:
            findings.append(Finding("component-missing", (i,)))
            return findings
        f = m.comps[i]
        if not (f.dom.same_as(src.carrier(i)) and f.cod.same_as(dst.carrier(i))):
            findings.append(Finding("component-carriers", (i,)))
            return findings
        ok, witness = check_extensional(f)
        if not ok:
            findings.append(Finding("component-extensional", (i,) + witness))
    if isinstance(src, DirectFamily):
        pairs = src.order_pairs()
        contra = src.direction == CONTRAVARIANT
    else:
        pairs = src.diagonal_pairs()
        contra = False
    for i, j in pairs:
        if contra:
            left = compose(src.transport(i, j), m.comps[i])
            right = compose(m.comps[j], dst.transport(i, j))
        else:
            left = compose(src.transport(i, j), m.comps[j])
            right = compose(m.comps[i], dst.transport(i, j))
        if not fn_equal(left, right):
            findings.append(Finding("naturality", (i, j)))
    return findings


def family_map(src, dst, comps):
    m = FamilyMap(dict(comps))
    findings = validate_family_map(src, dst, m)
    if findings:
        raise InvalidMap(str(findings[0]))
    return m


def identity_family_map(F):
    return FamilyMap({i: identity(F.carrier(i)) for i in F.index.elements})


def embed_at(F, i, sum_s=None):
    """The tagging map of one carrier into the disjoint union."""
    if sum_s is None:
        sum_s = direct_sum_setoid(F) if isinstance(F, DirectFamily) else plain_sum_setoid(F)
    return make_fn(F.carrier(i), sum_s,
                   {x: tag_token(i, x) for x in F.carrier(i).elements})


def sigma_map(src, dst, m, sum_src=None, sum_dst=None):
    """The induced map on disjoint unions, (i, x) -> (i, m_i(x))."""
    if sum_src is None:
        sum_src = direct_sum_setoid(src) if isinstance(src, DirectFamily) else plain_sum_setoid(src)
    if sum_dst is None:
        sum_dst = direct_sum_setoid(dst) if isinstance(dst, DirectFamily) else plain_sum_setoid(dst)
    table = {}
    for a in sum_src.elements:
        i, x = split_tag(a)
        table[a] = tag_token(i, m.comps[i](x))
    return make_fn(sum_src, sum_dst, table)


def pi_map(src, dst, m, assignment):
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
    for a in sub_index.elements:
        for b in sub_index.elements:
            if sub_index.leq(a, b) and not F.index.leq(h(a), h(b)):
                raise NotMonotone(f"({a}, {b}) maps to an unordered pair")
    carriers = {a: F.carrier(h(a)) for a in sub_index.elements}
    transports = {}
    for a, b in sub_index.order_pairs():
        transports[(a, b)] = F.transport(h(a), h(b))
    return DirectFamily(sub_index, F.direction, carriers, transports)
