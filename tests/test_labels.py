"""A setoid labels each element with a class id.  The deciders that compare
ids are checked here against scans of the pair set they replaced, on random
carriers and maps: the pairs are the closure of the ones a carrier was
built from, or read off its labelling (`oracles.equality_pairs`).
Hypothesis runs derandomized, so the suite stays deterministic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bspec.setoid import (
    SetoidFn,
    Tag,
    UnknownElement,
    check_extensional,
    fn_equal,
    is_embedding,
    make_setoid,
    product_setoid,
    setoid_by_key,
)

from oracles import closure_rst, equality_pairs

seeds = st.integers(min_value=0, max_value=2**32 - 1)
DIFF = settings(derandomize=True, max_examples=300, deadline=None, database=None)


# --- the pair-set scans ----------------------------------------------------------

def classes_scan(elements, pairs):
    """Classes from rows of the pair set, ordered by first member."""
    out, seen = [], set()
    for a in elements:
        if a not in seen:
            cls = tuple(b for b in elements if (a, b) in pairs)
            seen.update(cls)
            out.append(cls)
    return out


def extensional_scan(f):
    dom, cod = equality_pairs(f.dom), equality_pairs(f.cod)
    for x in f.dom.elements:
        for y in f.dom.elements:
            if (x, y) in dom and (f(x), f(y)) not in cod:
                return False, (x, y)
    return True, None


def embedding_scan(f):
    dom, cod = equality_pairs(f.dom), equality_pairs(f.cod)
    for x in f.dom.elements:
        for y in f.dom.elements:
            if (f(x), f(y)) in cod and (x, y) not in dom:
                return False, (x, y)
    return True, None


# --- random carriers and maps --------------------------------------------------

def random_pairs(rng, prefix="x"):
    """1-6 elements, some of them compound, and a few pairs among them."""
    n = rng.randint(1, 6)
    els = [f"{prefix}{k}" if rng.random() < 0.7 else Tag((prefix, k)) for k in range(n)]
    rng.shuffle(els)
    return els, [(rng.choice(els), rng.choice(els)) for _ in range(rng.randint(0, n))]


def random_carrier(rng, prefix="x"):
    """A closed carrier of 1-6 elements, some of them compound."""
    return make_setoid(*random_pairs(rng, prefix))


def random_map(rng, dom, cod):
    return SetoidFn(dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})


@DIFF
@given(seeds)
def test_eq_classes_and_repr_match_the_pair_set(seed):
    rng = random.Random(seed)
    els, gen = random_pairs(rng)
    X = make_setoid(els, gen)
    pairs = closure_rst(els, gen)
    assert equality_pairs(X) == pairs
    for a in X.elements:
        for b in X.elements:
            assert X.eq(a, b) == ((a, b) in pairs)
        assert X.class_repr(a) == next(b for b in X.elements if (a, b) in pairs)
    assert X.classes() == classes_scan(els, pairs)
    assert X.class_count() == len(classes_scan(els, pairs))
    assert X.is_discrete() == (len(pairs) == len(X.elements))
    # class ids are numbered by first member in carrier order
    assert [X.class_id[cls[0]] for cls in X.classes()] == list(range(X.class_count()))
    # keyed on the rows of the pair set, the carrier is labelled the same
    Y = setoid_by_key(els, [frozenset(b for b in els if (a, b) in pairs) for a in els])
    assert Y.class_id == X.class_id
    assert X.same_as(Y) and Y.same_as(X)
    with pytest.raises(UnknownElement):
        X.eq(X.elements[0], "missing")


@DIFF
@given(seeds)
def test_map_deciders_match_the_pair_scans(seed):
    rng = random.Random(seed)
    X, Y = random_carrier(rng, "x"), random_carrier(rng, "y")
    f = random_map(rng, X, Y)
    if rng.random() < 0.5:  # an extensional map, whose embedding test is live
        f = SetoidFn(X, Y, {x: f(X.class_repr(x)) for x in X.elements})
    assert check_extensional(f) == extensional_scan(f)
    assert is_embedding(f) == embedding_scan(f)
    g = random_map(rng, X, Y)
    xs, ys = equality_pairs(X), equality_pairs(Y)
    assert fn_equal(f, g) == all((f(x), g(x)) in ys for x in X.elements)
    P = product_setoid(X, Y)
    assert equality_pairs(P) == frozenset(
        (a, b) for a in P.elements for b in P.elements
        if (a[0], b[0]) in xs and (a[1], b[1]) in ys)


def test_pairs_naming_an_unknown_element_are_refused():
    # the relation is an equivalence on its own elements, but "z" is not
    # one of the carrier's
    pairs = {("a", "a"), ("z", "z")}
    message = r"^equality pair \(z, z\) mentions unknown element$"
    with pytest.raises(UnknownElement, match=message):
        make_setoid(["a"], pairs)
