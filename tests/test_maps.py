"""Maps built from checked maps: each map that `setoid._fn` builds without
checking it (composites, identities, projections, limit legs, pool
candidates, product transports) against the checked `SetoidFn`/`make_fn`
build of the same table, the checked constructor and `check_extensional`
against the scans they replaced, and the value keys pools look maps up by
against the class-representative keys and the scan they replaced.
Hypothesis runs derandomized, so the suite stays deterministic."""

import random
from itertools import islice, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from bspec import duality
from bspec.duality import enumerate_morphisms
from bspec.families import CONTRAVARIANT, COVARIANT, DirectFamily, oriented
from bspec.limits import direct_limit, inverse_limit
from bspec.order import chain
from bspec.setoid import (
    DomainMismatch,
    NotExtensional,
    Setoid,
    SetoidFn,
    UnknownElement,
    _first_split,
    _fn,
    _value_ids,
    check_extensional,
    closure_rst,
    compose,
    identity,
    make_fn,
    setoid_by_key,
)
from bspec.spectra import Spectrum, product_spectrum_over
from bspec.topology import RFun, exponential_space, product_space, space, values_key

from oracles import find_scan, outcome
from randgen import random_spectrum

FAST = settings(derandomize=True, max_examples=150, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_setoid(rng, prefix):
    """A carrier of up to five elements: discrete, merged, or built by hand
    from the equivalence a random pair set generates."""
    els = tuple(f"{prefix}{k}" for k in range(rng.randint(1, 5)))
    kind = rng.choice(["discrete", "merged", "pairs"])
    if kind == "discrete":
        return setoid_by_key(els, els)
    if kind == "merged":
        return setoid_by_key(els, [rng.randrange(2) for _ in els])
    pairs = {(rng.choice(els), rng.choice(els)) for _ in range(rng.randint(0, 8))}
    return Setoid(els, closure_rst(els, pairs))


def _random_fn(rng, dom, cod):
    """A checked map with a random table, listed in a shuffled order."""
    keys = list(dom.elements)
    rng.shuffle(keys)
    return SetoidFn(dom, cod, {x: rng.choice(cod.elements) for x in keys})


def _copy(X):
    """A carrier with X's elements and equality that is not X itself."""
    return Setoid(X.elements, class_id=dict(X.class_id))


def _parts(f):
    return f.dom, f.cod, list(f.mapping.items())


def _checked_scan(dom, cod, mapping):
    """SetoidFn's checks as one Python loop per check, in domain order."""
    missing = [x for x in dom.elements if x not in mapping]
    if missing:
        raise DomainMismatch(f"map not total, missing {missing[:3]}")
    for x in dom.elements:
        if not cod.has(mapping[x]):
            raise UnknownElement(f"value {mapping[x]!r} of {x!r} not in codomain")
    return [(x, mapping[x]) for x in dom.elements]


def _extensional_scan(f):
    """check_extensional as the scan over every class of the domain."""
    bad = _first_split(f.dom._classes, _value_ids(f))
    return (True, None) if bad is None else (False, bad)


@FAST
@given(seeds)
def test_compose_matches_the_checked_build(seed):
    rng = random.Random(seed)
    X, Y, Z = (_random_setoid(rng, p) for p in "xyz")
    f = _random_fn(rng, X, Y)
    # g starts at Y, at a copy of Y, or at a carrier that differs from Y
    g_dom = rng.choice([Y, _copy(Y), _random_setoid(rng, "y")])
    g = _random_fn(rng, g_dom, Z)

    def checked(f, g):
        if not f.cod.same_as(g.dom):
            raise DomainMismatch("codomain of first map differs from domain of second")
        return SetoidFn(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})

    got, want = outcome(compose, f, g), outcome(checked, f, g)
    if want[0] == "value":
        assert got[0] == "value"
        assert _parts(got[1]) == _parts(want[1])
        assert check_extensional(got[1]) == check_extensional(want[1])
    else:
        assert got == want


@FAST
@given(seeds)
def test_identity_matches_the_checked_build(seed):
    X = _random_setoid(random.Random(seed), "x")
    f = identity(X)
    assert _parts(f) == _parts(make_fn(X, X, {x: x for x in X.elements}))
    assert check_extensional(f) == (True, None)


@FAST
@given(seeds)
def test_check_extensional_matches_the_class_scan(seed):
    rng = random.Random(seed)
    X, Y = _random_setoid(rng, "x"), _random_setoid(rng, "y")
    f = _random_fn(rng, X, Y)
    assert check_extensional(f) == _extensional_scan(f)
    if X.is_discrete():
        assert check_extensional(f) == (True, None)


@FAST
@given(seeds)
def test_checked_constructor_keeps_its_table_and_its_messages(seed):
    rng = random.Random(seed)
    X, Y = _random_setoid(rng, "x"), _random_setoid(rng, "y")
    keys = list(X.elements)
    rng.shuffle(keys)
    # drop some arguments, and send some to values outside the codomain
    keys = [x for x in keys if rng.random() > 0.15]
    table = {x: rng.choice(Y.elements + ("w0", "w1")) if rng.random() < 0.3
             else rng.choice(Y.elements) for x in keys}
    got = outcome(lambda: list(SetoidFn(X, Y, table).mapping.items()))
    assert got == outcome(_checked_scan, X, Y, table)


def test_checked_constructor_names_the_first_three_missing_and_the_first_bad():
    X = setoid_by_key(("a", "b", "c", "d"), "abcd")
    Y = setoid_by_key(("p",), "p")
    with pytest.raises(DomainMismatch) as exc:
        SetoidFn(X, Y, {"c": "p"})
    assert str(exc.value) == "map not total, missing ['a', 'b', 'd']"
    with pytest.raises(UnknownElement) as exc:
        SetoidFn(X, Y, {"d": "q", "a": "p", "b": "r", "c": "p"})
    assert str(exc.value) == "value 'r' of 'b' not in codomain"


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seeds)
def test_limit_legs_are_maps(seed):
    """The class maps into a direct limit and the projections out of an
    inverse one."""
    for direction, build in ((COVARIANT, direct_limit),
                             (CONTRAVARIANT, inverse_limit)):
        s = random_spectrum(random.Random(seed), direction=direction)
        lim = build(s)
        for i in s.index.elements:
            leg = lim.leg(i)
            ends = oriented(direction, s.fam.carrier(i), lim.carrier)
            checked = make_fn(*ends, leg.table())
            assert _parts(leg) == _parts(checked)


def _random_space(rng, els):
    """A merged or discrete carrier with one class-constant generator."""
    X = setoid_by_key(els, [rng.randrange(len(els)) for _ in els])
    vals = [rng.randint(-2, 2) for _ in X.classes()]
    return space(X, [RFun(X, {x: vals[X.class_id[x]] for x in els})])


@FAST
@given(seeds)
def test_product_projections_are_maps(seed):
    rng = random.Random(seed)
    b1 = _random_space(rng, ("a", "b", "c")[:rng.randint(1, 3)])
    b2 = _random_space(rng, ("p", "q", "r")[:rng.randint(1, 3)])
    sp, pr1, pr2 = product_space(b1, b2)
    for pr, b in ((pr1, b1), (pr2, b2)):
        assert pr.dom is sp.carrier and pr.cod is b.carrier
        assert _parts(pr) == _parts(make_fn(sp.carrier, b.carrier, pr.table()))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seeds, st.sampled_from([COVARIANT, CONTRAVARIANT]))
def test_product_transports_are_maps(seed, direction):
    """Over lawful factor families every product transport is built
    unchecked, with the table the checked constructor builds."""
    rng = random.Random(seed)
    s = random_spectrum(rng, direction=direction)
    t = random_spectrum(rng, index=s.index, direction=direction)
    assert s.fam.lawful and t.fam.lawful
    prod, _ = product_spectrum_over(s, t, s.index, lambda i: (i, i))
    for fn in prod.fam.transports.values():
        assert _parts(fn) == _parts(make_fn(fn.dom, fn.cod, fn.table()))


def test_a_product_of_an_unlawful_family_checks_its_transports():
    """A factor family whose transport separates equal elements is not
    lawful, so its product transport goes through make_fn and raises."""
    X = setoid_by_key(("a", "b"), (0, 0))
    Y = setoid_by_key(("p", "q"), ("p", "q"))
    index = chain(2)
    bad = SetoidFn(X, Y, {"a": "p", "b": "q"})
    fam = DirectFamily(index, COVARIANT, {"0": X, "1": Y},
                       {("0", "0"): identity(X), ("0", "1"): bad,
                        ("1", "1"): identity(Y)})
    s = Spectrum(fam, {"0": space(X, []), "1": space(Y, [])}, {("0", "1"): {}})
    assert not fam.lawful
    with pytest.raises(NotExtensional):
        product_spectrum_over(s, s, index, lambda i: (i, i))


def _interleaved_space(rng, prefix):
    """A space of two to five points whose classes interleave in carrier
    order when there are two or more, under a class-constant generator
    taking few values, so that pools hold maps both in and out of blocks."""
    els = tuple(f"{prefix}{k}" for k in range(rng.randint(2, 5)))
    X = setoid_by_key(els, [k % rng.randint(1, 3) for k in range(len(els))])
    vals = [rng.randint(0, 1) for _ in X.classes()]
    return space(X, [RFun(X, {x: vals[X.class_id[x]] for x in els})])


@FAST
@given(seeds)
def test_pool_candidates_are_the_checked_class_constant_maps(seed):
    """Every map enumerate_morphisms tries is the make_fn build of the table
    sending each class of the source to one target element, listed in
    source carrier order, and they come in the order of that enumeration."""
    rng = random.Random(seed)
    src, dst = _interleaved_space(rng, "x"), _interleaved_space(rng, "y")
    tried = []

    def recording(src, dst, h, *args, **kwargs):
        tried.append(h)
        return certify(src, dst, h, *args, **kwargs)

    certify = duality.certify_map
    with patch.object(duality, "certify_map", recording):
        pool = enumerate_morphisms(src, dst)
    X, Y = src.carrier, dst.carrier
    expected = []
    for choice in product(Y.elements, repeat=X.class_count()):
        table = {}
        for cls, y in zip(X.classes(), choice):
            table.update(dict.fromkeys(cls, y))
        expected.append(make_fn(X, Y, table))
    assert [_parts(h) for h in tried] == [_parts(h) for h in expected]
    assert all(list(h.mapping) == list(X.elements) for h in tried)
    assert all(w.h in tried for w in pool)


@FAST
@given(seeds)
def test_pool_certificates_need_no_class_check(seed):
    """enumerate_morphisms tells certify_map that each candidate respects
    classes; with certify_map deciding that itself, the pool is the same."""
    rng = random.Random(seed)
    src, dst = _interleaved_space(rng, "x"), _interleaved_space(rng, "y")
    certify = duality.certify_map

    def deciding(*args, respects=None, **kwargs):
        return certify(*args, **kwargs)

    with patch.object(duality, "certify_map", deciding):
        want = enumerate_morphisms(src, dst)
    got = enumerate_morphisms(src, dst)
    assert [(_parts(w.h), w.certs) for w in got] == [(_parts(w.h), w.certs) for w in want]


def _values_key_by_repr(f):
    """values_key as it read the first member of each value's class."""
    return tuple([f.cod.class_repr(f(x)) for x in f.dom.elements])


@FAST
@given(seeds)
def test_values_key_matches_the_class_representatives(seed):
    rng = random.Random(seed)
    X = _random_setoid(rng, "x")
    Y = setoid_by_key(tuple(f"y{k}" for k in range(4)),
                      [rng.randrange(2) for _ in range(4)])
    maps = [_random_fn(rng, X, Y) for _ in range(6)]
    for f in maps:
        reprs = _values_key_by_repr(f)
        assert values_key(f) == tuple(Y.class_id[r] for r in reprs)
        for g in maps:
            assert (values_key(f) == values_key(g)) == (reprs == _values_key_by_repr(g))
    # a value off the codomain is refused as it was
    off = _fn(X, Y, dict.fromkeys(X.elements, "w"))
    assert outcome(values_key, off) == outcome(_values_key_by_repr, off)
    assert outcome(values_key, off)[0] is UnknownElement


@FAST
@given(seeds)
def test_pool_lookup_matches_the_scan(seed):
    rng = random.Random(seed)
    src, dst = _interleaved_space(rng, "x"), _interleaved_space(rng, "y")
    pool = exponential_space(src, dst, enumerate_morphisms(src, dst))
    X, Y = src.carrier, dst.carrier
    # every table src -> dst, pool member or not, extensional or not
    for values in islice(product(Y.elements, repeat=len(X)), 300):
        fn = SetoidFn(X, Y, dict(zip(X.elements, values)))
        assert pool.find(fn) == find_scan(pool, fn)
