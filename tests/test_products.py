"""The product order and the product spectrum, read off the factors' tables,
against the builders that derived them pair by pair (`product_order_scan`
and `product_spectrum_eager` in tests/oracles.py), the product spectrum,
which holds nothing until read, by a full read through its accessors
(`read_in_full`), and the product's upper
bounds and top, read off its rows, against the pairs of the factors'
scanned bounds (`product_upper_scan`).  Random spectra in both
directions, over product indices and over the diagonal of a shared index,
some of their edge certificates wrapped in nodes that claim a table.
Hypothesis runs derandomized, so the suite stays deterministic."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.limits import Limits, product_limit_bijection
from bspec.order import chain, product_order
from bspec.setoid import _fn, discrete
from bspec.spectra import (
    constant_spectrum,
    product_spectrum,
    product_spectrum_over,
    validate_spectrum,
)
from bspec.topology import (
    BID,
    CAdd,
    CBic,
    CConst,
    CEq,
    CULim,
    RFun,
    bneg,
    cert_conclusion,
    ceq,
    culim,
    space,
)

from oracles import (
    fold_top,
    outcome,
    product_order_scan,
    product_spectrum_eager,
    product_upper_scan,
    read_in_full,
)
from randgen import random_directed_index, random_spectrum

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
directions = st.sampled_from([COVARIANT, CONTRAVARIANT])


def _index(rng):
    """A random directed preorder, or a chain."""
    if rng.random() < 0.5:
        return random_directed_index(rng)
    return chain(rng.randint(1, 4))


def _with_tables(rng, s):
    """s with some edge certificates wrapped in a node that proves the same
    function: an eq or a ulim node claiming its table, a sum with 0, or a
    double negation.  s stays valid."""
    for (i, j), certs in s.witness_certs.items():
        src = s.edge_ends(i, j)[0]
        for k, c in certs.items():
            r = rng.random()
            if r < 0.25:
                certs[k] = ceq(c, cert_conclusion(src, c))
            elif r < 0.5:
                certs[k] = culim(cert_conclusion(src, c), [(1, c)])
            elif r < 0.6:
                certs[k] = CAdd(c, CConst(Fraction(0)))
            elif r < 0.7:
                certs[k] = CBic(bneg(BID), CBic(bneg(BID), c))
    return s


def _factor(rng, direction, index=None):
    s = _with_tables(rng, random_spectrum(rng, index or _index(rng), direction))
    assert validate_spectrum(s) == []
    return s


def _claims_a_table(c):
    if isinstance(c, (CEq, CULim)):
        return True
    return any(_claims_a_table(sub) for sub in (getattr(c, "left", None),
                                                getattr(c, "right", None),
                                                getattr(c, "child", None))
               if sub is not None)


def _same_index(got, want):
    assert got.elements == want.elements
    assert got.base.class_id == want.base.class_id
    assert got.rows == want.rows
    assert got.order_pairs() == want.order_pairs()


def _same_product(got, want):
    (prod, projections), (eager, eager_projections) = got, want
    _same_index(prod.index, eager.index)
    assert prod.direction == eager.direction and prod.pool == eager.pool
    for a in eager.index.elements:
        sp, ep = prod.space(a), eager.space(a)
        assert sp.carrier.elements == ep.carrier.elements
        assert sp.carrier.class_id == ep.carrier.class_id
        assert [g.values for g in sp.gens] == [g.values for g in ep.gens]
        assert sp.names == ep.names
        assert ([pr.mapping for pr in projections[a]]
                == [pr.mapping for pr in eager_projections[a]])
    # nothing is held until read, and a full read is the eager tables
    assert prod.fam.transports == {} and prod.witness_certs == {}
    transports, certs = read_in_full(prod)
    assert list(transports) == list(eager.fam.transports)
    for p, fn in eager.fam.transports.items():
        mine = transports[p]
        assert mine.dom is prod.fam.carrier(prod.fam.ends(*p)[0])
        assert mine.cod is prod.fam.carrier(prod.fam.ends(*p)[1])
        assert list(mine.mapping.items()) == list(fn.mapping.items())
        # the values are the target carrier's own Pairs
        own = set(map(id, mine.cod.elements))
        assert all(id(y) in own for y in mine.mapping.values())
    assert list(certs) == list(eager.witness_certs)
    for p, want in eager.witness_certs.items():
        assert list(certs[p]) == list(want)
        for k, c in want.items():
            if not _claims_a_table(c):
                assert certs[p][k] == c
    assert validate_spectrum(prod) == []


@FAST
@given(seeds)
def test_product_order_matches_the_scan(seed):
    rng = random.Random(seed)
    d1, d2 = _index(rng), _index(rng)
    got = product_order(d1, d2)
    _same_index(got, product_order_scan(d1, d2))
    # the bounds read off the product's rows are the factors' bounds paired
    upper = product_upper_scan(d1, d2)
    assert {(a, b): got.up(a, b) for a in got.elements for b in got.elements} == upper
    assert got.top == fold_top(got.elements, upper)


@FAST
@given(seeds, directions)
def test_product_spectrum_matches_the_eager_builder(seed, direction):
    rng = random.Random(seed)
    s, t = _factor(rng, direction), _factor(rng, direction)
    _same_product(product_spectrum(s, t),
                  product_spectrum_eager(s, t, product_order_scan(s.index, t.index),
                                         lambda a: a))
    _same_product(product_spectrum(t, s),
                  product_spectrum_eager(t, s, product_order_scan(t.index, s.index),
                                         lambda a: a))


@FAST
@given(seeds, directions)
def test_diagonal_product_matches_the_eager_builder(seed, direction):
    rng = random.Random(seed)
    s = _factor(rng, direction)
    t = _factor(rng, direction, s.index)
    for u, v in ((s, t), (t, s)):
        _same_product(product_spectrum_over(u, v, s.index, lambda i: (i, i)),
                      product_spectrum_eager(u, v, s.index, lambda i: (i, i)))


def _break_factor(rng, s, fault):
    """s made ill-formed in one way, or None when s has no place for it."""
    edges = [p for p in s.fam.order_pairs() if p[0] != p[1]]
    if fault == "space":
        del s.spaces[rng.choice(s.index.elements)]
    elif fault == "edge-certificates" and edges:
        del s.witness_certs[rng.choice(edges)]
    elif fault == "generator-certificate" and edges:
        certs = s.witness_certs[rng.choice(edges)]
        if not certs:
            return None
        del certs[rng.choice(sorted(certs))]
    elif fault == "transport":
        del s.fam.transports[rng.choice(s.fam.order_pairs())]
    elif fault == "off-carrier":
        p = rng.choice(s.fam.order_pairs())
        fn = s.fam.transports[p]
        x = rng.choice(fn.dom.elements)
        s.fam.transports[p] = _fn(fn.dom, fn.cod, {**fn.mapping, x: "off"})
    elif fault == "not-total":
        p = rng.choice(s.fam.order_pairs())
        fn = s.fam.transports[p]
        x = rng.choice(fn.dom.elements)
        s.fam.transports[p] = _fn(fn.dom, fn.cod,
                                  {y: v for y, v in fn.mapping.items() if y != x})
    else:
        return None
    return s


FAULTS = ("direction", "space", "edge-certificates", "generator-certificate",
          "transport", "off-carrier", "not-total")


@FAST
@given(seeds, directions, st.sampled_from(FAULTS), st.booleans())
def test_ill_formed_factors_raise_as_before(seed, direction, fault, second):
    rng = random.Random(seed)
    s, t = _factor(rng, direction), _factor(rng, direction)
    if fault == "direction":
        flipped = CONTRAVARIANT if direction == COVARIANT else COVARIANT
        t = _factor(rng, flipped)
    elif _break_factor(rng, t if second else s, fault) is None:
        return
    # a fault surfaces at the first read of a pair that meets it
    got = outcome(lambda: read_in_full(product_spectrum(s, t)[0]))
    want = outcome(product_spectrum_eager, s, t,
                   product_order_scan(s.index, t.index), lambda a: a)
    if fault == "off-carrier":
        # the table lookup meets the value before make_fn would name it
        assert got == (KeyError, repr("off")) and want[0] != "value"
        return
    assert got[0] == want[0]
    if got[0] != "value":
        assert got == want


@FAST
@given(seeds)
def test_order_pairs_are_sorted_once(seed):
    rng = random.Random(seed)
    d = product_order(_index(rng), _index(rng))
    assert d.order_pairs() == tuple(sorted(
        (i, j) for i in d.elements for j in d.elements if d.leq(i, j)))
    assert d.order_pairs() is d.order_pairs()


def test_the_product_of_a_long_constant_spectrum_with_itself():
    X = discrete(["a", "b", "c"])
    g = RFun(X, {"a": 0, "b": 1, "c": 2})
    s = constant_spectrum(chain(8), space(X, [g]))
    prod, _ = product_spectrum(s, s)
    # one product space serves every index element of the constant spectrum
    assert len({id(prod.space(a)) for a in prod.index.elements}) == 1
    res = product_limit_bijection(s, s, Limits())
    assert res.counts == (9, 3, 3) and res.findings == []
