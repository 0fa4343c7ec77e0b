"""Compound elements are tuples: a tag (i, x), a pair (x, y) and a choice
with one component per index element.  Their text is for reports only, so
names that make two elements render alike never make them equal.  Also the
differentials for the two lookups indexed by class keys, `token_of` and
`MorCarrier.find`, against the scans they replaced.  Hypothesis runs
derandomized, so the suite stays deterministic."""

import random
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bspec import runner
from bspec.dsl import Elaborated, parse
from bspec.duality import enumerate_morphisms
from bspec.families import CONTRAVARIANT, COVARIANT, DirectFamily, make_direct_family
from bspec.limits import direct_limit, inverse_limit
from bspec.order import DirectedIndex, chain, make_directed
from bspec.runner import RunConfig, run_suite
from bspec.setoid import (
    Choice,
    Pair,
    Setoid,
    SetoidFn,
    Tag,
    UnknownElement,
    discrete,
    make_fn,
    product_setoid,
)
from bspec.spectra import Spectrum, make_spectrum
from bspec.topology import BSpace, CGen, RFun, exponential_space, map_cert

from oracles import find_scan, token_of_scan
from randgen import random_spectrum
from structures import x2_space

FAST = settings(derandomize=True, max_examples=40, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
directions = st.sampled_from([COVARIANT, CONTRAVARIANT])


# --- names that render alike -------------------------------------------------

def test_inverse_limit_keeps_choices_that_render_alike():
    A, B = discrete(["a&b", "a"]), discrete(["c", "b&c"])
    fam = make_direct_family(chain(2), CONTRAVARIANT, {"0": A, "1": B},
                             {("0", "1"): make_fn(B, A, {"c": "a&b", "b&c": "a"})})
    s = make_spectrum(fam, {"0": BSpace(A, (RFun(A, {"a&b": 0, "a": 1}),), ("g",)),
                            "1": BSpace(B, (RFun(B, {"c": 0, "b&c": 1}),), ("h",))})
    lim = inverse_limit(s)
    assert lim.carrier.elements == (("a&b", "c"), ("a", "b&c"))
    assert [str(t) for t in lim.carrier.elements] == ["a&b&c", "a&b&c"]
    assert lim.class_count() == 2
    assert lim.token_of({"0": "a", "1": "b&c"}) == ("a", "b&c")


def test_direct_limit_keeps_tags_that_render_alike():
    # x@y@z is both the tag of y@z at x and the tag of z at x@y
    index = make_directed(["x", "x@y"], [("x", "x@y")])
    A, B = discrete(["y@z", "w"]), discrete(["z", "v"])
    fam = make_direct_family(index, COVARIANT, {"x": A, "x@y": B},
                             {("x", "x@y"): make_fn(A, B, {"y@z": "v", "w": "z"})})
    s = make_spectrum(fam, {"x": BSpace(A, (RFun(A, {"y@z": 0, "w": 1}),)),
                            "x@y": BSpace(B, (RFun(B, {"z": 1, "v": 0}),))})
    lim = direct_limit(s)
    assert len(set(lim.carrier.elements)) == 4
    assert str(Tag(("x", "y@z"))) == str(Tag(("x@y", "z"))) == "x@y@z"
    assert lim.class_count() == 2
    assert not lim.carrier.eq(("x", "y@z"), ("x@y", "z"))
    assert lim.carrier.eq(("x", "y@z"), ("x@y", "v"))


def test_product_keeps_pairs_that_render_alike():
    P = product_setoid(discrete(["a", "a,b"]), discrete(["c", "b,c"]))
    assert P.is_discrete() and len(set(P.elements)) == 4
    assert str(Pair(("a,b", "c"))) == str(Pair(("a", "b,c"))) == "(a,b,c)"


def test_compound_elements_render_as_their_report_text():
    assert str(Tag(("0", Pair(("p", "q"))))) == "0@(p,q)"
    assert str(Pair((Tag(("0", "a")), Tag(("1", "b"))))) == "(0@a,1@b)"
    assert str(Choice(("p", "q", "r"))) == "p&q&r"
    assert f"h[{Choice(('0.m0', '1.m0'))}]" == "h[0.m0&1.m0]"
    # equal as tuples, whichever subclass spells them
    assert Tag(("a", "b")) == ("a", "b") == Pair(("a", "b"))


# --- keyed lookups against the scans -------------------------------------------

@FAST
@given(seeds)
def test_token_of_matches_the_scan(seed):
    rng = random.Random(seed)
    s = random_spectrum(rng, direction=CONTRAVARIANT)
    lim = inverse_limit(s)
    els = s.index.elements
    # every assignment of carrier elements, compatible or not, up to a cap
    for values in islice(product(*(s.fam.carrier(i).elements for i in els)), 300):
        assignment = dict(zip(els, values))
        assert lim.token_of(assignment) == token_of_scan(lim, assignment)
    for a in lim.assignments.values():
        assert lim.token_of(a) == token_of_scan(lim, a) is not None


def test_token_of_refuses_a_component_off_its_carrier():
    s = random_spectrum(random.Random(0), direction=CONTRAVARIANT)
    lim = inverse_limit(s)
    els = s.index.elements
    a = dict(next(iter(lim.assignments.values())))
    a[els[-1]] = "off"
    with pytest.raises(UnknownElement, match="off"):
        lim.token_of(a)
    del a[els[0]]
    with pytest.raises(KeyError):
        lim.token_of(a)


@FAST
@given(seeds, directions)
def test_find_matches_the_scan(seed, direction):
    rng = random.Random(seed)
    s = random_spectrum(rng, direction=direction)
    fixed = x2_space()
    for src, dst in ((s.space(s.index.top), fixed), (fixed, s.space(s.index.top))):
        mc = exponential_space(src, dst, enumerate_morphisms(src, dst))
        # every table src -> dst, pool member or not, extensional or not
        for values in islice(product(dst.carrier.elements,
                                     repeat=len(src.carrier.elements)), 300):
            fn = SetoidFn(src.carrier, dst.carrier,
                          dict(zip(src.carrier.elements, values)))
            assert mc.find(fn) == find_scan(mc, fn)


# --- renaming every element ------------------------------------------------------

NAMES = st.text(alphabet="@&,()ab", min_size=1, max_size=5)


def rename_setoid(X, name):
    return Setoid(tuple(name[x] for x in X.elements),
                  frozenset((name[a], name[b]) for a, b in X.pairs))


def rename_space(sp, name, carrier):
    gens = tuple(RFun(carrier, {name[x]: v for x, v in g.values.items()})
                 for g in sp.gens)
    return BSpace(carrier, gens, sp.names)


def rename_spectrum(s, name):
    """s with every index and carrier element x renamed name[x]."""
    made = {}  # carriers shared between indices stay shared

    def setoid(X):
        if id(X) not in made:
            made[id(X)] = rename_setoid(X, name)
        return made[id(X)]

    def fn(f):
        return SetoidFn(setoid(f.dom), setoid(f.cod),
                        {name[x]: name[y] for x, y in f.mapping.items()})

    def rekey(table):
        return tuple((name[x], v) for x, v in table)

    ix = s.index
    index = DirectedIndex(
        setoid(ix.base), frozenset((name[i], name[j]) for i, j in ix.pairs),
        {(name[i], name[j]): name[k] for (i, j), k in ix.upper.items()},
        None if ix.delta is None else
        {(name[i], name[j]): name[k] for (i, j), k in ix.delta.items()})
    fam = DirectFamily(index, s.direction,
                       {name[i]: setoid(c) for i, c in s.fam.carriers.items()},
                       {(name[i], name[j]): fn(t)
                        for (i, j), t in s.fam.transports.items()})
    spaces = {name[i]: rename_space(sp, name, setoid(sp.carrier))
              for i, sp in s.spaces.items()}
    certs = {(name[i], name[j]): {k: map_cert(c, CGen, rekey) for k, c in edge.items()}
             for (i, j), edge in s.witness_certs.items()}
    return Spectrum(fam, spaces, certs, s.pool)


def limit_counts(s):
    lim = direct_limit(s) if s.direction == COVARIANT else inverse_limit(s)
    return lim.class_count(), len(lim.space.gens)


CHECKS = {
    COVARIANT: ["spectrum S", "equivalence S", "limit-direct S", "universal-direct S",
                "functoriality S", "product S S", "duality INTO", "converse-duals OUT"],
    CONTRAVARIANT: ["spectrum S", "limit-inverse S", "universal-inverse S",
                    "functoriality S", "product S S", "duality2 OUT",
                    "converse-duals INTO"],
}


def suite_statuses(s, fixed):
    """(law, status) of every record run_suite gives over the spectrum s
    and the space `fixed`, a suite document naming them as S and X."""
    env = Elaborated(subbases={"X": fixed}, spectra={"S": s}, pools={
        "INTO": {"spectrum": "S", "space": "X", "search": "auto",
                 "shape": "hom-into-fixed"},
        "OUT": {"spectrum": "S", "space": "X", "search": "auto",
                "shape": "hom-out-of-fixed"}})
    doc = parse("suite main {\n"
                + "".join(f"  check: {c}\n" for c in CHECKS[s.direction]) + "}\n")
    with mock.patch.object(runner, "elaborate", lambda _: env):
        report = run_suite(doc, None, RunConfig())
    return [(r.law, r.status) for r in report.records]


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(seeds, directions, st.data())
def test_renaming_every_element_changes_no_answer(seed, direction, data):
    rng = random.Random(seed)
    s = random_spectrum(rng, direction=direction)
    fixed = x2_space()
    old = sorted({*s.index.elements, *fixed.carrier.elements,
                  *(x for c in s.fam.carriers.values() for x in c.elements)})
    new = data.draw(st.lists(NAMES, min_size=len(old), max_size=len(old),
                             unique=True))
    name = dict(zip(old, new))
    renamed = rename_spectrum(s, name)
    assert limit_counts(renamed) == limit_counts(s)
    renamed_fixed = rename_space(fixed, name, rename_setoid(fixed.carrier, name))
    assert suite_statuses(renamed, renamed_fixed) == suite_statuses(s, fixed)
