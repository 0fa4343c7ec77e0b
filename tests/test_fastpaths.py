"""Differential tests: each keyed or cached fast path against the exhaustive
path it replaced.  Hypothesis runs derandomized, so the suite stays
deterministic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    direct_sum_setoid,
    sum_elements,
)
from bspec.limits import direct_limit, inverse_limit
from bspec.order import DirectedIndex, NotDirected, top_element
from bspec.randgen import random_direct_family, random_directed_index, random_spectrum
from bspec.setoid import (
    Setoid,
    SetoidFn,
    _check_equivalence_scan,
    check_equivalence,
    closure_rst,
    discrete,
    make_setoid,
    split_tag,
)
from bspec.topology import map_setoid

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _fold_top(D):
    """The fold of upper bounds, as top_element computed it on every call."""
    t = D.elements[0]
    for x in D.elements[1:]:
        t = D.up(t, x)
    assert all(D.leq(i, t) for i in D.elements)
    return t


def _partition(setoid):
    return {frozenset(cls) for cls in setoid.classes()}


@FAST
@given(seeds)
def test_direct_limit_partition_matches_exhaustive_closure(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    s = random_spectrum(rng, index, COVARIANT, family=fam)
    els = sum_elements(fam)
    oracle = closure_rst(els, [
        (a, b) for a in els for b in els
        if direct_sum_equality_exhaustive(fam, *split_tag(a), *split_tag(b))
    ])
    lim = direct_limit(s)
    assert lim.carrier.pairs == oracle
    assert _partition(lim.carrier) == _partition(Setoid(tuple(els), oracle))
    assert direct_sum_setoid(fam).pairs == oracle


@FAST
@given(seeds)
def test_keyed_sum_pairs_match_pairwise_equality(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    els = sum_elements(fam)
    pairwise = frozenset(
        (a, b) for a in els for b in els
        if direct_sum_equality(fam, *split_tag(a), *split_tag(b)))
    assert direct_sum_setoid(fam).pairs == pairwise


@FAST
@given(seeds)
def test_inverse_limit_equality_matches_pointwise(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, CONTRAVARIANT, allow_merged=True)
    lim = inverse_limit(random_spectrum(rng, index, CONTRAVARIANT, family=fam))
    toks = lim.carrier.elements
    pointwise = frozenset(
        (t1, t2) for t1 in toks for t2 in toks
        if all(fam.carrier(i).eq(lim.assignments[t1][i], lim.assignments[t2][i])
               for i in index.elements))
    assert lim.carrier.pairs == pointwise


def test_map_setoid_matches_pointwise():
    dom = make_setoid(["a", "b"])
    cod = make_setoid(["p", "q", "r"], [("p", "q")])
    maps = [SetoidFn(dom, cod, {"a": x, "b": y})
            for x in cod.elements for y in cod.elements]
    carrier, by_name = map_setoid(maps)
    pointwise = frozenset(
        (m, n) for m in carrier.elements for n in carrier.elements
        if all(cod.eq(by_name[m](x), by_name[n](x)) for x in dom.elements))
    assert carrier.pairs == pointwise
    assert carrier.class_count() == 4


def test_merged_carriers_are_exercised():
    # the seeds above include families whose carriers merge two elements
    merged = 0
    for seed in range(40):
        rng = random.Random(seed)
        index = random_directed_index(rng)
        fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
        merged += any(not fam.carrier(i).is_discrete() for i in index.elements)
    assert merged > 0


@st.composite
def relations(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    elements = [f"e{k}" for k in range(n)]
    field = elements + ["z"]  # a pair may mention an element outside the list
    pairs = draw(st.sets(st.tuples(st.sampled_from(field), st.sampled_from(field)),
                         max_size=20))
    mode = draw(st.sampled_from(["raw", "reflexive-symmetric", "closed", "foreign"]))
    if mode == "reflexive-symmetric":
        # only transitivity can fail
        pairs = set(pairs) | {(b, a) for a, b in pairs} | {(e, e) for e in field}
    elif mode in ("closed", "foreign"):
        # close it, then break one pair or relate the outside element to
        # one inside, so near-equivalences appear
        pairs = set(closure_rst(elements, [p for p in pairs if "z" not in p]))
        if mode == "foreign":
            pairs.add(("z", draw(st.sampled_from(elements))))
        elif draw(st.booleans()):
            pairs.discard(draw(st.sampled_from(sorted(pairs))))
    return elements, frozenset(pairs)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(relations())
def test_check_equivalence_matches_scan(rel):
    elements, pairs = rel
    assert check_equivalence(elements, pairs) == _check_equivalence_scan(elements, pairs)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seeds)
def test_cached_top_matches_fold(seed):
    D = random_directed_index(random.Random(seed))
    assert D.top == _fold_top(D)
    assert top_element(D) == D.top


def test_undirected_index_still_raises():
    base = discrete(["0", "1"])
    pairs = frozenset({("0", "0"), ("1", "1")})
    upper = {(a, b): a for a in base.elements for b in base.elements}
    D = DirectedIndex(base, pairs, upper)
    for _ in range(2):
        with pytest.raises(NotDirected):
            top_element(D)


def test_classes_returns_a_fresh_list():
    s = make_setoid(["a", "b", "c"], [("a", "b")])
    got = s.classes()
    got.append(("x",))
    got[0] = ("c",)
    assert s.classes() == [("a", "b"), ("c",)]
    assert s.class_count() == 2
    assert s.class_repr("b") == "a"
