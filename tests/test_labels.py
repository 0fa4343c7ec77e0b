"""A setoid labels each element with a class id.  The deciders that compare
ids are checked here against scans of the pair set they replaced, on random
carriers and maps, and a carrier built by hand from a pair set is labelled
as `make_setoid` labels it, or refused when the pairs are not an
equivalence on its elements.  Hypothesis runs derandomized, so the suite
stays deterministic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bspec.setoid import (
    NotEquivalence,
    NotExtensional,
    Setoid,
    SetoidFn,
    Tag,
    UnknownElement,
    check_equivalence,
    check_extensional,
    closure_rst,
    factor_through_quotient,
    fn_equal,
    is_embedding,
    make_setoid,
    product_setoid,
    quotient_by,
)

from oracles import outcome

seeds = st.integers(min_value=0, max_value=2**32 - 1)
DIFF = settings(derandomize=True, max_examples=300, deadline=None, database=None)


# --- the pair-set scans ----------------------------------------------------------

def classes_scan(X):
    """Classes from rows of the pair set, ordered by first member."""
    out, seen = [], set()
    for a in X.elements:
        if a not in seen:
            cls = tuple(b for b in X.elements if (a, b) in X.pairs)
            seen.update(cls)
            out.append(cls)
    return out


def extensional_scan(f):
    for x in f.dom.elements:
        for y in f.dom.elements:
            if (x, y) in f.dom.pairs and (f(x), f(y)) not in f.cod.pairs:
                return False, (x, y)
    return True, None


def embedding_scan(f):
    for x in f.dom.elements:
        for y in f.dom.elements:
            if (f(x), f(y)) in f.cod.pairs and (x, y) not in f.dom.pairs:
                return False, (x, y)
    return True, None


def quotient_scan(X, rel):
    """quotient_by over the all-pairs scan, in carrier order; the classes."""
    rel = frozenset(rel)
    bad = check_equivalence(X.elements, rel)
    if bad:
        raise NotEquivalence(f"relation fails {bad[0]} at {bad[1]}")
    for a in X.elements:
        for b in X.elements:
            if (a, b) in X.pairs and (a, b) not in rel:
                raise NotExtensional(
                    f"relation does not respect carrier equality at ({a}, {b})")
    return classes_scan(Setoid(X.elements, rel))


def factor_scan(f, Q):
    """factor_through_quotient's class-constancy test over all pairs."""
    quo = Q.as_setoid()
    for a in quo.elements:
        for b in quo.elements:
            if (a, b) in quo.pairs and (f(a), f(b)) not in f.cod.pairs:
                return a, b
    return None


# --- random carriers and maps --------------------------------------------------

def random_carrier(rng, prefix="x"):
    """A closed carrier of 1-6 elements, some of them compound."""
    n = rng.randint(1, 6)
    els = [f"{prefix}{k}" if rng.random() < 0.7 else Tag((prefix, k)) for k in range(n)]
    rng.shuffle(els)
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(rng.randint(0, n))]
    return make_setoid(els, pairs)


def random_map(rng, dom, cod):
    return SetoidFn(dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})


@DIFF
@given(seeds)
def test_eq_classes_and_repr_match_the_pair_set(seed):
    rng = random.Random(seed)
    X = random_carrier(rng)
    assert X.pairs == closure_rst(X.elements, X.pairs)
    for a in X.elements:
        for b in X.elements:
            assert X.eq(a, b) == ((a, b) in X.pairs)
        assert X.class_repr(a) == next(b for b in X.elements if (a, b) in X.pairs)
    assert X.classes() == classes_scan(X)
    assert X.class_count() == len(classes_scan(X))
    assert X.is_discrete() == (len(X.pairs) == len(X.elements))
    # class ids are numbered by first member in carrier order
    assert [X.class_id[cls[0]] for cls in X.classes()] == list(range(X.class_count()))
    Y = Setoid(X.elements, X.pairs)
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
    assert fn_equal(f, g) == all((f(x), g(x)) in Y.pairs for x in X.elements)
    P = product_setoid(X, Y)
    assert P.pairs == frozenset((a, b) for a in P.elements for b in P.elements
                                if (a[0], b[0]) in X.pairs and (a[1], b[1]) in Y.pairs)


@DIFF
@given(seeds, st.sampled_from(["coarser", "closed", "raw"]))
def test_quotient_by_matches_the_pair_scan(seed, kind):
    rng = random.Random(seed)
    X = random_carrier(rng)
    els = X.elements
    extra = [(rng.choice(els), rng.choice(els)) for _ in range(rng.randint(0, 3))]
    if kind == "coarser":
        rel = closure_rst(els, list(X.pairs) + extra)
    elif kind == "closed":
        rel = closure_rst(els, extra)
    else:
        rel = set(X.pairs) - {rng.choice(sorted(X.pairs, key=str))} | set(extra)

    def classes():
        return quotient_by(X, rel).as_setoid().classes()

    assert outcome(classes) == outcome(quotient_scan, X, rel)
    if kind == "coarser":
        Q = quotient_by(X, rel)
        f = random_map(rng, X, random_carrier(rng, "y"))
        bad = factor_scan(f, Q)
        got = outcome(factor_through_quotient, f, Q)
        if bad is None:
            assert got[0] == "value"
        else:
            assert got[1] == f"map separates identified pair ({bad[0]}, {bad[1]})"


def test_coarseness_witness_is_the_first_pair_in_carrier_order():
    X = make_setoid(["a", "b", "c", "d"], [("c", "d"), ("a", "b")])
    with pytest.raises(NotExtensional, match=r"carrier equality at \(a, b\)"):
        quotient_by(X, closure_rst(X.elements, [("c", "d")]))


def test_a_hand_built_non_equivalence_is_refused():
    # the transitive case fails at (a, b, c) and at (c, b, a); which the
    # scan meets first follows the pair set's iteration order
    for pairs, violations in [
            ({("a", "b"), ("b", "a"), ("b", "b"), ("c", "c")}, ["reflexive at ('a',)"]),
            ({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")},
             ["symmetric at ('a', 'b')"]),
            ({("a", "a"), ("b", "b"), ("c", "c"),
              ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")},
             ["transitive at ('a', 'b', 'c')", "transitive at ('c', 'b', 'a')"])]:
        with pytest.raises(NotEquivalence) as err:
            Setoid(("a", "b", "c"), pairs)
        assert str(err.value) in [f"relation fails {v}" for v in violations]


@DIFF
@given(seeds)
def test_a_hand_built_pair_set_is_labelled_as_make_setoid_labels_it(seed):
    rng = random.Random(seed)
    els = [f"x{k}" for k in range(rng.randint(1, 5))]
    pairs = {(rng.choice(els), rng.choice(els)) for _ in range(rng.randint(0, 8))}
    if rng.random() < 0.5:
        pairs = set(closure_rst(els, pairs))
        if rng.random() < 0.5:  # break one pair, so near-equivalences appear
            pairs.discard(rng.choice(sorted(pairs)))
    bad = check_equivalence(els, frozenset(pairs))
    got = outcome(Setoid, els, pairs)
    if bad:
        assert got == (NotEquivalence, f"relation fails {bad[0]} at {bad[1]}")
    else:
        assert got[1].class_id == make_setoid(els, pairs).class_id


def test_pairs_naming_an_unknown_element_are_refused():
    # the relation is an equivalence on its own elements, but "z" is not
    # one of the carrier's
    pairs = {("a", "a"), ("z", "z")}
    message = r"^equality pair \(z, z\) mentions unknown element$"
    with pytest.raises(UnknownElement, match=message):
        make_setoid(["a"], pairs)
    with pytest.raises(UnknownElement, match=message):
        Setoid(["a"], pairs)
    with pytest.raises(UnknownElement, match=message):
        quotient_by(make_setoid(["a"]), pairs)
