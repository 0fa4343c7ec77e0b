"""Finite carriers with explicit decidable equality, and maps that respect it.

Elements are opaque hashables: plain names, or the compound elements built
below.  Equality labels every element with the id of its class, so each
law in the package is decided by comparing ids.
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


class NotEmbedding(SetoidError):
    pass


class Setoid:
    """A finite carrier whose equality labels each element with a class id.

    Ids number the classes by their first member in carrier order, so two
    carriers with the same elements have the same equality exactly when
    they have the same labelling.  A carrier is made by the builders below,
    which label it as they read it (`setoid_by_key`, `make_setoid`,
    `discrete`, `product_setoid`); the constructor takes the labelling its
    builder made and checks or copies nothing: `class_id` numbers the
    classes of the tuple `elements` by first member, and there are `count`
    of them.

    The class count is fixed by the builder, so no pass over the classes is
    made to count them: the carrier is discrete exactly when `count` is its
    length.
    """

    def __init__(self, elements, class_id, count):
        self.elements, self.class_id, self._count = elements, class_id, count

    def has(self, a):
        return a in self.class_id

    def eq(self, a, b):
        ids = self.class_id
        if a not in ids or b not in ids:
            raise UnknownElement(f"{a!r} or {b!r} not in carrier")
        return ids[a] == ids[b]

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


def _by_position(elements):
    """The discrete carrier on a tuple of distinct elements."""
    return Setoid(elements, dict(zip(elements, range(len(elements)))), len(elements))


def setoid_by_key(elements, keys):
    """The carrier on which two elements are equal exactly when their keys
    are; keys[n] is the key of elements[n]."""
    first, ids = {}, {}
    for x, k in zip(elements, keys):
        ids[x] = first.setdefault(k, len(first))
    return Setoid(tuple(elements), ids, len(first))


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
