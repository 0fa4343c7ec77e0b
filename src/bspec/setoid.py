"""Finite carriers with explicit decidable equality, and maps that respect it.

Elements are opaque string tokens.  Equality is a closed set of pairs, so
every law in the package can be checked by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class SetoidError(Exception):
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
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        if a not in parent or b not in parent:
            raise UnknownElement(f"equality pair ({a}, {b}) mentions unknown element")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for x in elements:
        groups.setdefault(find(x), []).append(x)
    return class_pairs(groups.values())


def class_pairs(classes):
    """All pairs within each class: the equivalence whose classes are given."""
    return frozenset((x, y) for cls in classes for x in cls for y in cls)


@dataclass(frozen=True)
class Setoid:
    """A finite carrier together with a closed equivalence relation."""

    elements: tuple
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "_index", frozenset(self.elements))

    def has(self, a):
        return a in self._index

    def eq(self, a, b):
        if a not in self._index or b not in self._index:
            raise UnknownElement(f"{a!r} or {b!r} not in carrier")
        return (a, b) in self.pairs

    @cached_property
    def _classes(self):
        pos = {a: n for n, a in enumerate(self.elements)}
        rows = {}
        for a, b in self.pairs:
            if b in pos:
                rows.setdefault(a, []).append(b)
        seen, out = set(), []
        for a in self.elements:
            if a in seen:
                continue
            cls = tuple(sorted(rows.get(a, ()), key=pos.__getitem__))
            seen.update(cls)
            out.append(cls)
        return tuple(out)

    @cached_property
    def _class_of(self):
        return {b: cls for cls in self._classes for b in cls}

    def classes(self):
        """Equivalence classes, ordered by first representative."""
        return list(self._classes)

    def class_repr(self, a):
        """First element in carrier order equal to `a`."""
        try:
            return self._class_of[a][0]
        except KeyError:
            raise UnknownElement(a) from None

    def class_count(self):
        return len(self._classes)

    def is_discrete(self):
        return len(self.pairs) == len(self.elements)

    def same_as(self, other):
        return self.elements == other.elements and self.pairs == other.pairs

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Setoid({list(self.elements)}, classes={self.class_count()})"


def make_setoid(elements, eq_pairs=(), empty=False):
    elements = tuple(elements)
    if not elements and not empty:
        raise EmptyCarrier("carrier is empty; pass empty=True if intended")
    if len(set(elements)) != len(elements):
        seen = set()
        for e in elements:
            if e in seen:
                raise DuplicateElement(e)
            seen.add(e)
    return Setoid(elements, closure_rst(elements, eq_pairs))


def discrete(elements):
    return make_setoid(elements, (), empty=not elements)


def check_equivalence(elements, pairs):
    """Report the first reflexivity/symmetry/transitivity violation, if any.

    A relation is an equivalence iff every related element is related to
    itself and related elements have the same row of related elements.
    With the rows interned, that is one identity test per member of each
    distinct row, so it is decided in O(|pairs|).  Only a relation that
    fails this test is scanned for its first violation.
    """
    rows = {}
    for a, b in pairs:
        rows.setdefault(a, []).append(b)
    interned, row_of = {}, {}
    for a, row in rows.items():
        row = frozenset(row)
        row_of[a] = interned.setdefault(row, row)
    if (all(a in row_of.get(a, ()) for a in elements)
            and all(a in row for a, row in row_of.items())
            and all(row_of.get(b) is row for row in interned for b in row)):
        return None
    return _check_equivalence_scan(elements, pairs)


def _check_equivalence_scan(elements, pairs):
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


# Token helpers for compound carriers.  Pair tokens are parenthesized so
# they nest; tag tokens split on the first separator, so the index part
# must not contain one (plain names and pair tokens never do).

def pair_token(x, y):
    return f"({x},{y})"


def split_pair(t):
    if not (t.startswith("(") and t.endswith(")")):
        raise UnknownElement(f"not a pair token: {t!r}")
    depth = 0
    for n, ch in enumerate(t):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return t[1:n], t[n + 1:-1]
    raise UnknownElement(f"not a pair token: {t!r}")


def tag_token(i, x):
    return f"{i}@{x}"


def split_tag(t):
    i, x = t.split("@", 1)
    return i, x


def product_setoid(X, Y):
    elements = tuple(pair_token(x, y) for x in X.elements for y in Y.elements)
    pairs = class_pairs(
        [pair_token(x, y) for x in cx for y in cy]
        for cx in X._classes
        for cy in Y._classes
    )
    return Setoid(elements, pairs)


class SetoidFn:
    """A total table between carriers; extensionality is checked separately."""

    __slots__ = ("dom", "cod", "mapping")

    def __init__(self, dom, cod, mapping):
        missing = [x for x in dom.elements if x not in mapping]
        if missing:
            raise DomainMismatch(f"map not total, missing {missing[:3]}")
        for x in dom.elements:
            if not cod.has(mapping[x]):
                raise UnknownElement(f"value {mapping[x]!r} of {x!r} not in codomain")
        self.dom = dom
        self.cod = cod
        self.mapping = {x: mapping[x] for x in dom.elements}

    def __call__(self, x):
        return self.mapping[x]

    def table(self):
        return dict(self.mapping)

    def __repr__(self):
        items = ", ".join(f"{x}=>{y}" for x, y in self.mapping.items())
        return f"SetoidFn({items})"


def check_extensional(f):
    """True iff equal arguments go to equal values; else (False, witness pair).

    Only pairs within one class are compared, in carrier order, so the
    witness is the first failing pair of the all-pairs scan.
    """
    class_of = f.dom._class_of
    for x in f.dom.elements:
        fx = f(x)
        for y in class_of[x]:
            if not f.cod.eq(fx, f(y)):
                return False, (x, y)
    return True, None


def make_fn(dom, cod, mapping, check=True):
    f = SetoidFn(dom, cod, mapping)
    if check:
        ok, witness = check_extensional(f)
        if not ok:
            raise NotExtensional(f"map not extensional at {witness}")
    return f


def identity(X):
    return SetoidFn(X, X, {x: x for x in X.elements})


def compose(f, g):
    """Diagrammatic composition: compose(f, g)(x) = g(f(x))."""
    if not f.cod.same_as(g.dom):
        raise DomainMismatch("codomain of first map differs from domain of second")
    return SetoidFn(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})


def fn_equal(f, g):
    """Pointwise equality up to codomain equality."""
    if f.dom.elements != g.dom.elements:
        return False
    return all(f.cod.eq(f(x), g(x)) for x in f.dom.elements)


def is_embedding(f):
    """True iff equal values force equal arguments; else (False, witness pair).

    Only arguments whose values share a class are compared, in carrier
    order, so the witness is the first failing pair of the all-pairs scan.
    """
    key = {x: f.cod.class_repr(f(x)) for x in f.dom.elements}
    fibres = {}
    for x in f.dom.elements:
        fibres.setdefault(key[x], []).append(x)
    for x in f.dom.elements:
        for y in fibres[key[x]]:
            if not f.dom.eq(x, y):
                return False, (x, y)
    return True, None


@dataclass(frozen=True)
class Subset:
    carrier: Setoid
    ambient: Setoid
    inject: SetoidFn


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


@dataclass(frozen=True)
class QuotientSetoid:
    """The same elements with a coarser validated equivalence."""

    base: Setoid
    pairs: frozenset

    @cached_property
    def _setoid(self):
        return Setoid(self.base.elements, self.pairs)

    def as_setoid(self):
        return self._setoid

    def canonical(self):
        """The identity-rule map from the base onto the quotient."""
        return SetoidFn(self.base, self.as_setoid(),
                        {x: x for x in self.base.elements})

    def class_count(self):
        return self.as_setoid().class_count()


def quotient_by(X, rel_pairs):
    """Quotient X by a relation, validating it is a coarser extensional equivalence."""
    rel = frozenset(rel_pairs)
    bad = check_equivalence(X.elements, rel)
    if bad:
        raise NotEquivalence(f"relation fails {bad[0]} at {bad[1]}")
    for a, b in X.pairs:
        if (a, b) not in rel:
            raise NotExtensional(f"relation does not respect carrier equality at ({a}, {b})")
    return QuotientSetoid(X, rel)


def factor_through_quotient(f, Q):
    """The unique map g off the quotient with g after canonical = f."""
    for a, b in Q.pairs:
        if not f.cod.eq(f(a), f(b)):
            raise NotClassConstant(f"map separates identified pair ({a}, {b})")
    return SetoidFn(Q.as_setoid(), f.cod, f.table())


def verify_unique_factoring(f, Q, g, bound=1_000_000):
    """Exhaustively confirm g is the only extensional factoring of f.

    Returns True/False, or None when the search space exceeds the bound.
    """
    quo = Q.as_setoid()
    classes = quo.classes()
    size = len(f.cod.elements) ** len(classes)
    if size > bound:
        return None
    from itertools import product as iproduct

    for choice in iproduct(f.cod.elements, repeat=len(classes)):
        mapping = {}
        for cls, val in zip(classes, choice):
            for a in cls:
                mapping[a] = val
        cand = SetoidFn(quo, f.cod, mapping)
        agrees = all(f.cod.eq(cand(x), f(x)) for x in quo.elements)
        if agrees and not fn_equal(cand, g):
            return False
    return True
