"""Finite carriers with explicit decidable equality, and maps that respect it.

Elements are opaque hashables: plain names, or the compound elements built
below.  Equality labels every element with the id of its class, so each
law in the package is decided by comparing ids, and the equality as a set
of pairs is derived only for the validators and oracles that read it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct

from .report import KernelError


class SetoidError(KernelError):
    """Base class for carrier-level construction and validation errors."""


class DuplicateElement(SetoidError):
    pass


class EmptyCarrier(SetoidError):
    pass


class UnknownElement(SetoidError):
    pass


class DomainMismatch(SetoidError):
    pass


class NotExtensional(SetoidError):
    pass


class NotEquivalence(SetoidError):
    pass


class NotEmbedding(SetoidError):
    pass


class NotClassConstant(SetoidError):
    pass


def closure_rst(elements, pairs):
    """Reflexive-symmetric-transitive closure of `pairs` over `elements`."""
    return make_setoid(elements, pairs, empty=True).pairs


def _row_ids(elements, pairs):
    """(ids, n): class ids read off the rows of an equivalence, and the
    number of classes.  Each element not yet labelled takes a new id, and
    so do the members of its row, which is its class."""
    rows = {}
    for a, b in pairs:
        rows.setdefault(a, []).append(b)
    ids, n = {}, 0
    for a in elements:
        if a not in ids:
            for b in rows[a]:
                ids[b] = n
            n += 1
    return ids, n


class Setoid:
    """A finite carrier whose equality labels each element with a class id.

    Ids number the classes by their first member in carrier order, so two
    carriers with the same elements have the same equality exactly when
    they have the same labelling.  The constructors in this package pass
    the classes as keys (`setoid_by_key`).  A carrier built from a pair set
    is labelled by its rows, and the pairs must be an equivalence on the
    elements: a pair naming anything else raises `UnknownElement`, as
    `make_setoid` does, and any other relation raises `NotEquivalence`,
    naming its first violation.

    The class count is fixed by whatever labels the carrier, so no pass
    over the classes is made to count them: an element named twice leaves
    it below the carrier's length, and the carrier is discrete exactly
    when it is not.
    """

    def __init__(self, elements, pairs=None, class_id=None):
        self.elements = tuple(elements)
        if class_id is None:
            pairs = frozenset(pairs)
            known = frozenset(self.elements)
            for a, b in pairs:
                if a not in known or b not in known:
                    raise UnknownElement(
                        f"equality pair ({a}, {b}) mentions unknown element")
            bad = check_equivalence(self.elements, pairs)
            if bad:
                raise NotEquivalence(f"relation fails {bad[0]} at {bad[1]}")
            class_id, self._count = _row_ids(self.elements, pairs)
        else:
            self._count = len(set(map(class_id.__getitem__, self.elements)))
        self.class_id = class_id

    def has(self, a):
        return a in self.class_id

    def eq(self, a, b):
        ids = self.class_id
        if a not in ids or b not in ids:
            raise UnknownElement(f"{a!r} or {b!r} not in carrier")
        return ids[a] == ids[b]

    @cached_property
    def pairs(self):
        """The equality as a set of pairs: every pair within one class."""
        return frozenset((x, y) for cls in self._classes for x in cls for y in cls)

    @cached_property
    def _classes(self):
        if self._count == len(self.elements):  # discrete: each element its own class
            return tuple(zip(self.elements))
        out, ids = [], self.class_id
        for x in self.elements:
            n = ids[x]
            if n == len(out):
                out.append([x])
            else:
                out[n].append(x)
        return tuple(map(tuple, out))

    def classes(self):
        """Equivalence classes, ordered by first representative."""
        return list(self._classes)

    def class_repr(self, a):
        """First element in carrier order equal to `a`."""
        try:
            return self._classes[self.class_id[a]][0]
        except KeyError:
            raise UnknownElement(a) from None

    def class_count(self):
        return self._count

    def is_discrete(self):
        return self._count == len(self.elements)

    def same_as(self, other):
        return self is other or (self.elements == other.elements
                                 and self.class_id == other.class_id)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Setoid({list(self.elements)}, classes={self.class_count()})"


def _setoid(elements, class_id, count):
    """The Setoid of a labelling its caller has already made: `class_id`
    numbers the classes of the tuple `elements` by first member, and there
    are `count` of them.  Nothing is checked or copied."""
    s = Setoid.__new__(Setoid)
    s.elements, s.class_id, s._count = elements, class_id, count
    return s


def _by_position(elements):
    """The discrete carrier on a tuple of distinct elements."""
    return _setoid(elements, dict(zip(elements, range(len(elements)))), len(elements))


def setoid_by_key(elements, keys):
    """The carrier on which two elements are equal exactly when their keys
    are; keys[n] is the key of elements[n]."""
    first, ids = {}, {}
    for x, k in zip(elements, keys):
        ids[x] = first.setdefault(k, len(first))
    return _setoid(tuple(elements), ids, len(first))


def make_setoid(elements, eq_pairs=(), empty=False):
    """The carrier on `elements`, each named once, whose equality is the
    equivalence the pairs generate; with no pairs, each element is its own
    class, labelled by its position."""
    elements = tuple(elements)
    if not elements and not empty:
        raise EmptyCarrier("carrier is empty; pass empty=True if intended")
    if len(set(elements)) != len(elements):
        seen = set()
        for e in elements:
            if e in seen:
                raise DuplicateElement(f"duplicate element {e!r}")
            seen.add(e)
    if not eq_pairs:
        return _by_position(elements)
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in eq_pairs:
        if a not in parent or b not in parent:
            raise UnknownElement(f"equality pair ({a}, {b}) mentions unknown element")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return setoid_by_key(elements, [find(x) for x in elements])


def discrete(elements):
    return make_setoid(elements, (), empty=not elements)


def check_equivalence(elements, pairs):
    """Report the first reflexivity/symmetry/transitivity violation, if any.

    One scan in that order: each element against its own pair, each pair
    against its converse, and each pair (a, b) against every (b, c).
    """
    for a in elements:
        if (a, a) not in pairs:
            return ("reflexive", (a,))
    for a, b in pairs:
        if (b, a) not in pairs:
            return ("symmetric", (a, b))
    for a, b in pairs:
        for c in elements:
            if (b, c) in pairs and (a, c) not in pairs:
                return ("transitive", (a, b, c))
    return None


# Compound elements.  Each is a tuple, so two of them are equal exactly when
# their parts are, whatever characters the parts' names hold; the subclass
# only adds the text an element is rendered as in reports and exports.  A
# plain 2-tuple could not tell a tag from a pair there, so each gets its own.

class _Compound(tuple):
    """Rendered as its parts' text, joined by `sep`, between `opener` and
    `closer`."""

    __slots__ = ()
    opener = sep = closer = ""

    def __str__(self):
        return self.opener + self.sep.join(map(str, self)) + self.closer


class Tag(_Compound):
    """(i, x): x in the carrier at index i, an element of a disjoint union."""

    __slots__ = ()
    sep = "@"


class Pair(_Compound):
    """(x, y): an element of a product."""

    __slots__ = ()
    opener, sep, closer = "(", ",", ")"


class Choice(_Compound):
    """One component per index element, in index order: a dependent choice."""

    __slots__ = ()
    sep = "&"


def product_setoid(X, Y):
    """The pairs, x-major, equal when both parts are: discrete when both
    factors are, and otherwise keyed on the factors' class ids."""
    elements = tuple(map(Pair, iproduct(X.elements, Y.elements)))
    if X.is_discrete() and Y.is_discrete():
        return _by_position(elements)
    xid, yid = X.class_id, Y.class_id
    return setoid_by_key(elements, [(xid[x], yid[y]) for x, y in elements])


class SetoidFn:
    """A total table between carriers; extensionality is checked separately."""

    __slots__ = ("dom", "cod", "mapping")

    def __init__(self, dom, cod, mapping):
        try:
            table = {x: mapping[x] for x in dom.elements}
        except KeyError:
            missing = [x for x in dom.elements if x not in mapping]
            raise DomainMismatch(f"map not total, missing {missing[:3]}") from None
        ids = cod.class_id
        if not all(map(ids.__contains__, table.values())):
            x = next(x for x, y in table.items() if y not in ids)
            raise UnknownElement(f"value {table[x]!r} of {x!r} not in codomain")
        self.dom = dom
        self.cod = cod
        self.mapping = table

    def __call__(self, x):
        return self.mapping[x]

    def table(self):
        return dict(self.mapping)

    def __repr__(self):
        items = ", ".join(f"{x}=>{y}" for x, y in self.mapping.items())
        return f"SetoidFn({items})"


def _fn(dom, cod, mapping):
    """The SetoidFn of a table its caller has already shown to be a map:
    the keys are exactly `dom.elements`, in that order; every value is in
    `cod`; and, when the caller relies on it, equal arguments go to equal
    values.  Nothing is checked or copied."""
    f = SetoidFn.__new__(SetoidFn)
    f.dom, f.cod, f.mapping = dom, cod, mapping
    return f


def _value_ids(f):
    """Argument -> class id of its value, in domain order."""
    ids = f.cod.class_id
    return {x: ids[y] for x, y in f.mapping.items()}


def _first_split(groups, label):
    """(first member, first member labelled otherwise) of the first group
    whose members do not all share one label, or None.

    When the groups are the classes of a labelling, listed by first member
    in carrier order, this is the first pair the all-pairs scan finds in
    one group with two labels: every member of a split group is in such a
    pair, so the scan's first is the first member of the first split group.
    """
    for g in groups:
        c = label[g[0]]
        for y in g[1:]:
            if label[y] != c:
                return g[0], y
    return None


def check_extensional(f):
    """True iff equal arguments go to equal values; else (False, witness
    pair), the first failing pair of the all-pairs scan."""
    if f.dom.is_discrete():
        return True, None  # every class is a singleton, so none can split
    bad = _first_split(f.dom._classes, _value_ids(f))
    return (True, None) if bad is None else (False, bad)


def make_fn(dom, cod, mapping):
    f = SetoidFn(dom, cod, mapping)
    ok, witness = check_extensional(f)
    if not ok:
        raise NotExtensional(f"map not extensional at {witness}")
    return f


def identity(X):
    # total on X in X's order, into X, and equal elements stay equal
    return _fn(X, X, {x: x for x in X.elements})


def compose(f, g):
    """Diagrammatic composition: compose(f, g)(x) = g(f(x))."""
    if not f.cod.same_as(g.dom):
        raise DomainMismatch("codomain of first map differs from domain of second")
    gm = g.mapping
    # f is total, in f.dom's order, into g.dom's elements, and g into g.cod
    return _fn(f.dom, g.cod, {x: gm[y] for x, y in f.mapping.items()})


def fn_equal(f, g):
    """Pointwise equality up to codomain equality."""
    if f.dom.elements != g.dom.elements:
        return False
    ids, fm, gm = f.cod.class_id, f.mapping, g.mapping
    return all(ids[fm[x]] == ids[gm[x]] for x in f.dom.elements)


def is_embedding(f):
    """True iff equal values force equal arguments; else (False, witness
    pair), the first failing pair of the all-pairs scan.

    On a discrete domain, values in distinct classes decide it with no
    fibre; the fibres are built only to name the witness, or on a domain
    whose classes they must be read against."""
    if f.dom.is_discrete():
        ids = f.cod.class_id
        if len(set(map(ids.__getitem__, f.mapping.values()))) == len(f.mapping):
            return True, None
    fibres = {}
    for x, c in _value_ids(f).items():
        fibres.setdefault(c, []).append(x)
    bad = _first_split(fibres.values(), f.dom.class_id)
    return (True, None) if bad is None else (False, bad)


class Subset:
    def __init__(self, carrier, ambient, inject):
        self.carrier = carrier
        self.ambient = ambient
        self.inject = inject


def make_subset(carrier, ambient, inject=None):
    if inject is None:
        inject = make_fn(carrier, ambient, {x: x for x in carrier.elements})
    ok, witness = check_extensional(inject)
    if not ok:
        raise NotExtensional(f"injection not extensional at {witness}")
    ok, witness = is_embedding(inject)
    if not ok:
        raise NotEmbedding(f"injection identifies distinct elements {witness}")
    return Subset(carrier, ambient, inject)


class QuotientSetoid:
    """The same elements with a coarser validated equivalence."""

    def __init__(self, base, carrier):
        self.base = base
        self.carrier = carrier

    def as_setoid(self):
        return self.carrier

    def canonical(self):
        """The identity-rule map from the base onto the quotient."""
        return SetoidFn(self.base, self.as_setoid(),
                        {x: x for x in self.base.elements})

    def class_count(self):
        return self.as_setoid().class_count()


def quotient_by(X, rel_pairs):
    """Quotient X by a relation, validating it is an equivalence in one of
    whose classes every class of X lies."""
    carrier = Setoid(X.elements, rel_pairs)
    bad = _first_split(X._classes, carrier.class_id)
    if bad:
        raise NotExtensional("relation does not respect carrier equality at "
                             f"({bad[0]}, {bad[1]})")
    return QuotientSetoid(X, carrier)


def factor_through_quotient(f, Q):
    """The unique map g off the quotient with g after canonical = f."""
    bad = _first_split(Q.carrier._classes, _value_ids(f))
    if bad:
        raise NotClassConstant(f"map separates identified pair ({bad[0]}, {bad[1]})")
    return SetoidFn(Q.carrier, f.cod, f.table())
