"""Differential tests for carriers and indices built knowing their shape.

A carrier keeps the class count its builder fixed, a discrete carrier has
its elements as its classes with no labelling pass, and the maps out of a
discrete carrier skip their class passes.  Each answer is compared with the
labelling pass, fibre scan, class walk, union-find or keyed product it
replaced (`tests/oracles.py`), on discrete, merged and empty carriers,
carriers naming an element twice, carriers given their ids directly,
products of every mix of factors, and direct sums.  Chains and product
orders read their covers off how they are built; they are compared with the
row pass over the same rows.  Hypothesis runs derandomized, so the suite
stays deterministic."""

import random
from fractions import Fraction
from itertools import product as iproduct

from hypothesis import given, settings, strategies as st

from bspec import order
from bspec.families import COVARIANT, _class_map, direct_sum_setoid
from bspec.order import DirectedIndex, chain, make_directed, product_order
from bspec.setoid import (
    Setoid,
    SetoidFn,
    discrete,
    is_embedding,
    make_setoid,
    product_setoid,
    setoid_by_key,
)
from bspec.topology import RFun

from oracles import (
    class_map_by_classes,
    classes_by_labels,
    hasse_covers,
    index_of_pairs,
    is_embedding_by_fibres,
    make_setoid_union_find,
    outcome,
    product_setoid_by_key,
    rfun_by_classes,
)
from randgen import merged_index, random_direct_family, random_directed_index

seeds = st.integers(min_value=0, max_value=2**32 - 1)
CARRIER_KINDS = ["discrete", "merged", "empty", "twice", "given"]


def _names(rng, lo=1, hi=5):
    return [f"e{k}" for k in range(rng.randint(lo, hi))]


def random_carrier(rng, kind):
    """A carrier of the kind, through one of the builders that make it."""
    if kind == "empty":
        return rng.choice([make_setoid((), empty=True), discrete(()),
                           Setoid((), frozenset()), setoid_by_key((), ())])
    names = _names(rng)
    if kind == "discrete":
        how = rng.randrange(4)
        if how == 0:
            return make_setoid(names)
        if how == 1:
            return Setoid(names, {(x, x) for x in names})  # labelled by rows
        if how == 2:
            return setoid_by_key(names, range(len(names)))
        return make_setoid(names, [(x, x) for x in names if rng.random() < 0.5])
    if kind == "merged":
        names += ["m0", "m1"]
        rng.shuffle(names)
        pairs = [("m0", "m1")] + [(rng.choice(names), rng.choice(names))
                                  for _ in range(rng.randint(0, 3))]
        X = make_setoid(names, pairs)
        return X if rng.random() < 0.5 else Setoid(names, X.pairs)
    if kind == "twice":  # an element named twice, built by hand
        els = names + [rng.choice(names)]
        rng.shuffle(els)
        how = rng.randrange(3)
        if how == 0:
            return Setoid(els, {(x, x) for x in names})
        if how == 1:
            return setoid_by_key(els, els)
        first = {}
        return Setoid(els, class_id={x: first.setdefault(x, len(first)) for x in els})
    base = random_carrier(rng, rng.choice(["discrete", "merged"]))  # "given"
    return Setoid(base.elements, class_id=dict(base.class_id))


def assert_shape_as_labelled(S):
    classes = classes_by_labels(S)
    assert S.classes() == list(classes)
    assert S.class_count() == len(classes)
    assert S.is_discrete() == (len(classes) == len(S.elements))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(CARRIER_KINDS))
def test_a_carrier_has_the_shape_its_labels_give(seed, kind):
    S = random_carrier(random.Random(seed), kind)
    assert_shape_as_labelled(S)
    if kind in ("discrete", "empty"):
        assert S.is_discrete()
    if kind in ("merged", "twice"):
        assert not S.is_discrete()


def test_an_element_named_twice_is_one_class_below_the_carrier_length():
    for S in (Setoid(("a", "b", "a"), {("a", "a"), ("b", "b")}),
              setoid_by_key(("a", "b", "a"), "aba"),
              Setoid(("a", "b", "a"), class_id={"a": 0, "b": 1})):
        assert S.class_count() == 2 and not S.is_discrete()
        assert S.classes() == [("a", "a"), ("b",)]


def _setoid_view(S):
    return S.elements, S.class_id, S.class_count(), S.classes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds)
def test_make_setoid_labels_and_refuses_as_union_find_does(seed):
    rng = random.Random(seed)
    names = _names(rng, 0, 5)
    if names and rng.random() < 0.2:
        names.append(rng.choice(names))  # refused as a duplicate
    field = names + ["z"] if rng.random() < 0.2 else names or ["z"]
    pairs = ([] if rng.random() < 0.5 else
             [(rng.choice(field), rng.choice(field)) for _ in range(rng.randint(0, 4))])
    empty = rng.random() < 0.5

    def view(build):
        return _setoid_view(build(names, pairs, empty))

    got = outcome(view, make_setoid)
    assert got == outcome(view, make_setoid_union_find)
    if got[0] == "value":
        assert_shape_as_labelled(make_setoid(names, pairs, empty))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(list(iproduct(CARRIER_KINDS, repeat=2))))
def test_a_product_is_labelled_as_the_keyed_product(seed, kinds):
    rng = random.Random(seed)
    X, Y = (random_carrier(rng, kind) for kind in kinds)
    P = product_setoid(X, Y)
    assert _setoid_view(P) == _setoid_view(product_setoid_by_key(X, Y))
    assert_shape_as_labelled(P)
    assert P.is_discrete() == (X.is_discrete() and Y.is_discrete() or not P.elements)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(seeds)
def test_a_direct_sum_has_the_shape_its_labels_give(seed):
    rng = random.Random(seed)
    F = random_direct_family(rng, random_directed_index(rng, 4), COVARIANT)
    assert_shape_as_labelled(direct_sum_setoid(F))


# --- maps out of a carrier ----------------------------------------------------------

def random_table(rng, dom, cod):
    """A table on dom into cod: injective on the elements when it can be,
    constant on dom's classes, or drawn at random."""
    how = rng.randrange(3)
    if how == 0 and len(cod.elements) >= len(dom.elements):
        return dict(zip(dom.elements, rng.sample(cod.elements, len(dom.elements))))
    if how == 1:
        at = {x: rng.choice(cod.elements) for x in dom.elements}
        return {x: at[dom.class_repr(x)] for x in dom.elements}
    return {x: rng.choice(cod.elements) for x in dom.elements}


def _map(rng, kinds):
    dom, cod = random_carrier(rng, kinds[0]), random_carrier(rng, kinds[1])
    if not cod.elements:
        dom = discrete(())
    return SetoidFn(dom, cod, random_table(rng, dom, cod))


MAP_KINDS = list(iproduct(CARRIER_KINDS, ["discrete", "merged", "given"]))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(seeds, st.sampled_from(MAP_KINDS))
def test_is_embedding_answers_as_the_fibres_do(seed, kinds):
    f = _map(random.Random(seed), kinds)
    assert is_embedding(f) == is_embedding_by_fibres(f)


def test_the_embedding_draws_reach_both_answers_on_discrete_domains():
    answers = set()
    for seed in range(200):
        f = _map(random.Random(seed), ("discrete", "discrete"))
        answers.add(is_embedding(f)[0])
    assert answers == {True, False}


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(seeds, st.sampled_from(MAP_KINDS))
def test_a_class_map_is_the_class_walk(seed, kinds):
    f = _map(random.Random(seed), kinds)
    assert _class_map(f) == class_map_by_classes(f)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(seeds, st.sampled_from(CARRIER_KINDS))
def test_rfun_refuses_what_the_class_walk_refuses(seed, kind):
    rng = random.Random(seed)
    X = random_carrier(rng, kind)
    values = {x: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for x in X.elements}
    if rng.random() < 0.5:  # constant on classes
        values = {x: values[X.class_repr(x)] for x in X.elements}
    if X.elements and rng.random() < 0.1:
        del values[rng.choice(X.elements)]
    got = outcome(lambda: RFun(X, values).values)
    assert got == outcome(rfun_by_classes, X, values)


# --- covers of chains and product orders ------------------------------------------

def _row_pass(D):
    """The covers the row pass reads off D's rows."""
    return DirectedIndex(D.base, D.rows).covers


def shuffled_poset(rng, max_size=5):
    """A poset whose carrier order is not a linear extension of it, so a
    cover may sit before the element it covers."""
    names = _names(rng, 1, max_size)
    up = names[:]
    rng.shuffle(up)  # up[a] < up[b] may hold for a < b
    pairs = {(up[a], up[b]) for a in range(len(up)) for b in range(a + 1, len(up))
             if rng.random() < 0.4}
    pairs.update((x, up[-1]) for x in names)
    return make_directed(names, pairs)


def random_factor(rng, kind):
    if kind == "chain":
        return chain(rng.randint(1, 5))
    if kind == "diamond":
        return make_directed(["b", "l", "r", "t"],
                             [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])
    if kind == "poset":
        return shuffled_poset(rng)
    if kind == "preorder":  # cycles between distinct elements happen
        return random_directed_index(rng, 4)
    if kind == "twice":
        twice = Setoid(("a", "b", "a"), {("a", "a"), ("b", "b")})
        return index_of_pairs(twice, {("a", "a"), ("a", "b"), ("b", "b")})
    return merged_index(rng)


FACTOR_KINDS = ["chain", "diamond", "poset", "preorder", "merged", "twice"]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=40))
def test_chain_covers_are_the_row_pass(n):
    D = chain(n)
    assert D.covers == _row_pass(D)
    if n <= 12:
        assert D.covers == hasse_covers(D)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(list(iproduct(FACTOR_KINDS, repeat=2))))
def test_product_covers_are_the_row_pass(seed, kinds):
    rng = random.Random(seed)
    D1, D2 = (random_factor(rng, kind) for kind in kinds)
    D = product_order(D1, D2)
    assert "covers" not in vars(D)  # read on first use, never at construction
    assert D.covers == _row_pass(D)
    if D.covers is not None and len(D.elements) <= 16:
        assert D.covers == hasse_covers(D)
    if D1.covers is None or D2.covers is None:
        assert D.covers is None


def test_the_product_cover_draws_put_covers_before_their_element():
    # the merge of (i2, j) before and after block i is exercised
    before = 0
    for seed in range(100):
        rng = random.Random(seed)
        D = product_order(shuffled_poset(rng), chain(rng.randint(1, 3)))
        at = {x: n for n, x in enumerate(D.elements)}
        before += sum(at[y] < at[x] for x, ys in D.covers.items() for y in ys)
    assert before > 0


def test_product_covers_read_no_row(monkeypatch):
    resumed = [0]
    members = order._members

    def counted(items, mask):
        for x in members(items, mask):
            resumed[0] += 1
            yield x

    monkeypatch.setattr(order, "_members", counted)
    C = chain(40)
    D = product_order(C, C)
    assert len(D.covers) == 1600 and resumed[0] == 0
    assert D.covers == _row_pass(D)
