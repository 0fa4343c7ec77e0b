"""Differential tests for the laws decided on covers: the cover relation of
an index against a brute-force Hasse diagram, and the family composition
and composite-witness laws against the scans over every triple that they
replaced.  On spectra that lift from their covers, where the composite law
builds only the composites of two covers, the old pass through every cover
is also shown to hold whenever the edge law does.  The directed laws are
checked against their scan on the same indices.  Hypothesis runs
derandomized, so the suite stays deterministic."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bspec import spectra
from bspec.dsl import elaborate, parse
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    _direct_family_laws_hold,
    _validate_direct_family_scan,
    make_direct_family,
    validate_direct_family,
)
from bspec.order import (
    chain,
    make_directed,
    product_order,
    validate_directed,
)
from bspec.runner import run_suite
from bspec.setoid import Setoid, SetoidFn, UnknownElement, discrete, make_setoid
from bspec.spectra import (
    Spectrum,
    _edge_findings,
    _lifts_from_covers,
    complete_witnesses,
    constant_spectrum,
    validate_spectrum,
)
from bspec.topology import (
    BID,
    CAdd,
    CBic,
    CConst,
    RFun,
    bconst,
    bmul,
    ceq,
    cert_conclusion,
    space,
)

from oracles import (
    autofill_witnesses,
    complete_witnesses_scan,
    composites_through_covers_hold,
    direct_family_laws_hold_triples,
    hasse_covers,
    index_of_pairs,
    outcome,
    validate_directed_scan,
    validate_spectrum_scan,
)
from randgen import (
    FAULTS,
    faulty_family,
    merged_index,
    random_certificate,
    random_direct_family,
    random_directed_index,
    random_spectrum,
    raw_index,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
directions = st.sampled_from([COVARIANT, CONTRAVARIANT])
KINDS = ["chain", "grid", "diamonds", "poset", "preorder", "merged"]
kinds = st.sampled_from(KINDS)
posets = st.sampled_from(["chain", "grid", "diamonds", "poset"])


# --- indices ------------------------------------------------------------------

def diamonds(k):
    """m0 < l1, r1 < m1 < l2, r2 < m2 ...: k stacked diamonds."""
    els, pairs = ["m0"], []
    for t in range(1, k + 1):
        for side in "lr":
            els.append(f"{side}{t}")
            pairs += [(f"m{t - 1}", f"{side}{t}"), (f"{side}{t}", f"m{t}")]
        els.append(f"m{t}")
    return make_directed(els, pairs)


def random_poset(rng, max_size=6):
    """Random pairs that only go up a fixed order, plus a top: a poset."""
    n = rng.randint(1, max_size)
    names = [str(k) for k in range(n)]
    pairs = {(names[a], names[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.3}
    pairs.update((a, names[-1]) for a in names)
    return make_directed(names, pairs)


def random_index(rng, kind):
    if kind == "chain":
        return chain(rng.randint(1, 6))
    if kind == "grid":
        return product_order(chain(rng.randint(1, 3)), chain(rng.randint(1, 3)))
    if kind == "diamonds":
        return diamonds(rng.randint(1, 2))
    if kind == "poset":
        return random_poset(rng)
    if kind == "preorder":  # cycles between distinct elements happen
        return random_directed_index(rng, 5)
    return merged_index(rng)


# --- covers -------------------------------------------------------------------

@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(KINDS + ["raw"]))
def test_covers_match_the_hasse_oracle(seed, kind):
    rng = random.Random(seed)
    built = outcome(raw_index, rng) if kind == "raw" else ("value", random_index(rng, kind))
    if built[0] is UnknownElement:  # a raw pair names z, and no index holds it
        return
    D = built[1]
    assert D.covers == hasse_covers(D)
    if kind in ("chain", "grid", "diamonds", "poset"):
        assert D.covers is not None
    if kind == "merged":
        assert D.covers is None


def test_covers_of_named_shapes():
    assert chain(4).covers == {"0": ("1",), "1": ("2",), "2": ("3",), "3": ()}
    assert diamonds(1).covers == {"m0": ("l1", "r1"), "l1": ("m1",),
                                  "r1": ("m1",), "m1": ()}
    grid = product_order(chain(2), chain(2))
    assert grid.covers == hasse_covers(grid)
    assert [len(c) for c in grid.covers.values()] == [2, 1, 1, 0]


def test_covers_are_none_off_a_partial_order():
    base = discrete(["a", "b", "c"])
    refl = {("a", "a"), ("b", "b"), ("c", "c")}
    not_transitive = refl | {("a", "b"), ("b", "c")}
    cycle = refl | {("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")}
    not_reflexive = {("a", "b"), ("a", "c"), ("b", "c"), ("b", "b"), ("c", "c")}
    for pairs in (not_transitive, cycle, not_reflexive):
        D = index_of_pairs(base, pairs)
        assert D.covers is None and hasse_covers(D) is None
    # no index holds a pair off the base: building one refuses it
    off_base = refl | {("a", "z")}
    for build in (make_directed, index_of_pairs):
        with pytest.raises(UnknownElement):
            build(base, off_base)
    # an element named twice in a carrier built by hand
    twice = Setoid(("a", "a"), {("a", "a")})
    D = index_of_pairs(twice, {("a", "a")})
    assert D.covers is None and hasse_covers(D) is None
    # a non-trivial base equality: the closure puts the two elements each
    # below the other
    D = make_directed(make_setoid(["a", "b"], [("a", "b")]), [])
    assert D.covers is None


# --- the family laws ----------------------------------------------------------

@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds, kinds, directions, st.sampled_from(FAULTS))
def test_family_laws_match_the_scans(seed, kind, direction, fault):
    rng = random.Random(seed)
    fam = faulty_family(rng, random_index(rng, kind), direction, fault)
    assert _direct_family_laws_hold(fam) == direct_family_laws_hold_triples(fam)
    assert validate_direct_family(fam) == _validate_direct_family_scan(fam)
    if fault == "none":
        assert _direct_family_laws_hold(fam)


@pytest.mark.parametrize("direction", [COVARIANT, CONTRAVARIANT])
def test_a_composition_fault_off_the_covers_is_found(direction):
    # every transport of chain(5) is right but that of 1 <= 4, which is no
    # cover: the cover pass meets it as the composite through 1 < 2 <= 4
    rng = random.Random(3)
    fam = faulty_family(rng, chain(5), direction, "none")
    while fam.transports[("1", "4")].cod.class_count() < 2:
        fam = faulty_family(rng, chain(5), direction, "none")
    fn = fam.transports[("1", "4")]
    x = fn.dom.elements[0]
    other = next(y for y in fn.cod.elements if not fn.cod.eq(y, fn(x)))
    spoiled = {z: other if fn.dom.eq(z, x) else fn(z) for z in fn.dom.elements}
    fam.transports[("1", "4")] = SetoidFn(fn.dom, fn.cod, spoiled)
    assert not _direct_family_laws_hold(fam)
    assert not direct_family_laws_hold_triples(fam)
    findings = validate_direct_family(fam)
    assert findings == _validate_direct_family_scan(fam) != []
    assert {f.law for f in findings} == {"family-composition"}


# --- the directed laws --------------------------------------------------------

@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds, kinds)
def test_validate_directed_matches_the_scan(seed, kind):
    # every kind is built closed and with a top, so each is valid
    D = random_index(random.Random(seed), kind)
    got = outcome(validate_directed, D)
    assert got == outcome(validate_directed_scan, D) == ("value", [])


# --- the composite-witness law ------------------------------------------------

def _spoiling(edge_witness, direction, target):
    """An edge_witness that records the edge of each witness it returns,
    and a compose_witnesses that spoils generator 0's certificate of the
    composite at the triple `target` only."""
    made = {}
    compose = spectra.compose_witnesses

    def tagged(*args):
        w = edge_witness(*args)
        made[id(w)] = args[-2:]
        return w

    def composed(sp1, sp2, sp3, w12, w23):
        w = compose(sp1, sp2, sp3, w12, w23)
        first, second = made[id(w12)], made[id(w23)]
        low, high = (first, second) if direction == COVARIANT else (second, first)
        if (low[0], low[1], high[1]) == target:
            w.certs[0] = CConst(Fraction(7919))
        return w

    return tagged, composed


def _cover_triples(D):
    return [(i, j, k) for i in D.elements for j in D.covers[i]
            for k in D.elements if k != j and D.leq(j, k)]


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(seeds, kinds, directions, st.sampled_from(["none", "edge", "composite"]))
def test_validate_spectrum_matches_the_scan(seed, kind, direction, fault):
    rng = random.Random(seed)
    s = random_spectrum(rng, random_index(rng, kind), direction)
    edges = [p for p in s.fam.order_pairs() if p[0] != p[1]]
    if fault == "edge" and edges:
        edge = rng.choice(edges)
        s.witness_certs[edge] = {**s.witness_certs[edge], 0: CConst(Fraction(7919))}
    triples = _cover_triples(s.index) if s.index.covers is not None else []
    if fault != "composite" or not triples:
        findings = validate_spectrum(s)
        assert findings == validate_spectrum_scan(s)
        assert (findings == []) == (fault != "edge" or not edges)
        return
    target = rng.choice(triples)
    tagged, composed = _spoiling(s.edge_witness, direction, target)
    with mock.patch.object(s, "edge_witness", tagged), \
            mock.patch.object(spectra, "compose_witnesses", composed):
        findings = validate_spectrum(s)
    with mock.patch.object(s, "edge_witness", tagged), \
            mock.patch("oracles.compose_witnesses", composed):
        scanned = validate_spectrum_scan(s)
    assert findings == scanned
    assert [f.witness for f in findings] == [target]


def _cover_pairs(D):
    return [(i, j) for i in D.elements for j in D.covers[i]]


def _lifting_spectrum(rng, kind, direction, vary=lambda sp, c: c):
    """A randgen spectrum over a seeded poset, given its transports and
    witnesses on the covers only, so it lifts the rest from them; each
    given certificate passed through vary(source space, certificate)."""
    index = random_index(rng, kind)
    eager = random_direct_family(rng, index, direction)
    covers = _cover_pairs(index)
    fam = make_direct_family(index, direction, eager.carriers,
                             {p: eager.transport(*p) for p in covers})
    full = random_spectrum(rng, index, direction, family=fam)
    given = {}
    for p in covers:
        src = full.spaces[fam.ends(*p)[0]]
        given[p] = {m: vary(src, c) for m, c in full.witness_certs[p].items()}
    s = Spectrum(fam, full.spaces, complete_witnesses(fam, full.spaces, given), full.pool)
    assert _lifts_from_covers(s)
    return s


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(seeds, posets, directions, st.sampled_from(["none", "edge", "composite"]))
def test_validate_spectrum_of_a_lifting_spectrum_matches_the_scan(
        seed, kind, direction, fault):
    # an edge fault spoils a given cover; a composite fault spoils the
    # composite of two covers, the composites the law builds on a
    # spectrum that lifts
    rng = random.Random(seed)
    s = _lifting_spectrum(rng, kind, direction)
    covers = _cover_pairs(s.index)
    if fault == "edge" and covers:
        edge = rng.choice(covers)
        s.witness_certs[edge] = {**s.witness_certs[edge], 0: CConst(Fraction(7919))}
    triples = [(i, j, k) for i, j in covers for k in s.index.covers[j]]
    if fault != "composite" or not triples:
        findings = validate_spectrum(s)
        assert findings == validate_spectrum_scan(s)
        assert (findings == []) == (fault != "edge" or not covers)
        return
    target = rng.choice(triples)
    tagged, composed = _spoiling(s.edge_witness, direction, target)
    with mock.patch.object(s, "edge_witness", tagged), \
            mock.patch.object(spectra, "compose_witnesses", composed):
        findings = validate_spectrum(s)
    with mock.patch.object(s, "edge_witness", tagged), \
            mock.patch("oracles.compose_witnesses", composed):
        scanned = validate_spectrum_scan(s)
    assert findings == scanned
    assert [f.witness for f in findings] == [target]


ONE = bmul(bconst(Fraction(1)), BID)


def _varied(rng):
    """A vary for `_lifting_spectrum`: each certificate kept, wrapped in a
    rule that proves the same function (a unit scaling, a zero added, an
    equality node claiming its table), or replaced by a random derivation,
    which proves another function unless by chance."""
    def vary(sp, c):
        how = rng.randrange(10)
        if how == 1:
            return CBic(ONE, c)
        if how == 2:
            return CAdd(c, CConst(Fraction(0)))
        if how == 3:
            return ceq(c, cert_conclusion(sp, c))
        if how == 4:
            return random_certificate(rng, sp, depth=3)
        return c
    return vary


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds, posets, directions)
def test_the_edge_law_on_the_covers_makes_every_composite_valid(seed, kind, direction):
    # the lift argument, executed: once the given edges validate, every
    # composite through every cover validates, derived edges included
    rng = random.Random(seed)
    s = _lifting_spectrum(rng, kind, direction, _varied(rng))
    held = [p for p in s.fam.order_pairs() if p[0] != p[1] and p in s.witness_certs]
    if _edge_findings(s, held):
        assert validate_spectrum(s) == validate_spectrum_scan(s) != []
        return
    assert composites_through_covers_hold(s)
    assert validate_spectrum(s) == validate_spectrum_scan(s) == []


def _chain_spectrum_document(n):
    """A covariant chain(n) spectrum over a two-point carrier with identity
    maps and a generator certificate on each cover, checked as a spectrum."""
    els = ", ".join(str(k) for k in range(n))
    order_text = ", ".join(f"{k} <= {k + 1}" for k in range(n - 1))
    lines = ["setoid S {", "  elements: p, q", "}",
             "directed C {", f"  elements: {els}", f"  order: {order_text}",
             "  closure: auto", "}",
             "family F {", "  index: C", "  direction: covariant"]
    lines += [f"  carrier {k}: S" for k in range(n)]
    lines += [f"  map {k} -> {k + 1}: p => p, q => q" for k in range(n - 1)]
    lines += ["}", "subbase G {", "  carrier: S", "  gen g: p => 0, q => 1", "}",
              "spectrum SP {", "  family: F"]
    lines += [f"  space {k}: G" for k in range(n)]
    lines += ["  pool: 0, 1"]
    lines += [f"  witness {k} -> {k + 1} g: (gen g)" for k in range(n - 1)]
    lines += ["}", "suite main {", "  check: spectrum SP", "}"]
    return "\n".join(lines) + "\n"


def test_the_cover_only_chain200_document_checks():
    records = run_suite(parse(_chain_spectrum_document(200))).records
    assert [(r.law, r.status) for r in records] == [
        ("spectrum.SP.edge-witnesses", "pass"),
        ("spectrum.SP.composite-witnesses", "pass")]


def test_checking_a_lifting_spectrum_lists_no_order_pair():
    # the edge law sorts the edges the spectrum holds, so the check of the
    # cover-only chain(200) spectrum never lists the index's 20,100 pairs
    s = elaborate(parse(_chain_spectrum_document(200))).spectra["SP"]
    assert _lifts_from_covers(s)
    assert validate_spectrum(s) == []
    assert "_order_pairs" not in s.index.__dict__


def test_the_cover_only_chain60_tables_are_the_scans():
    s = elaborate(parse(_chain_spectrum_document(60))).spectra["SP"]
    covers = {(str(k), str(k + 1)): s.witness_certs[(str(k), str(k + 1))]
              for k in range(59)}
    assert s.witness_certs == covers
    want = autofill_witnesses(s.fam, s.spaces,
                              complete_witnesses_scan(s.fam, s.spaces, covers))
    edges = [p for p in s.fam.order_pairs() if p[0] != p[1]]
    assert {p: s.edge_witness(*p).certs for p in edges} == want
    assert len(want) == 60 * 59 // 2


def _spoiled_records(monkeypatch, target):
    """The records of the cover-only chain(5) document with the composite
    at `target` spoiled, by the law as it is and by the triple scan."""
    text = _chain_spectrum_document(5)
    tagged, composed = _spoiling(spectra.Spectrum.edge_witness, COVARIANT, target)
    monkeypatch.setattr(spectra.Spectrum, "edge_witness", tagged)
    monkeypatch.setattr(spectra, "compose_witnesses", composed)

    def records():
        return [(r.law, r.status, r.witness) for r in run_suite(parse(text)).records]

    law = records()
    monkeypatch.setattr(spectra, "_cover_composites_hold", lambda s: False)
    return law, records()


def test_a_spoiled_cover_composite_past_the_first_is_reported_as_the_scan_does(
        monkeypatch):
    # the composites of two covers are (0, 1, 2), (1, 2, 3) and (2, 3, 4)
    law, scanned = _spoiled_records(monkeypatch, ("1", "2", "3"))
    assert law == scanned
    assert [(name, status) for name, status, _ in law] == [
        ("spectrum.SP.edge-witnesses", "pass"),
        ("spectrum.SP.composite-witnesses", "fail")]
    assert law[1][2] == ("composite-witness-certificate at 1, 2, 3",)


def test_a_spoiled_composite_through_a_derived_edge_is_not_built(monkeypatch):
    # (2, 4) is lifted from the covers (2, 3) and (3, 4), so the composite
    # of (1, 2) and (2, 4) lifts valid certificates along a valid witness:
    # the law decides it without building it, where the scan builds it
    law, scanned = _spoiled_records(monkeypatch, ("1", "2", "4"))
    assert [status for _, status, _ in law] == ["pass", "pass"]
    assert [status for _, status, _ in scanned] == ["pass", "fail"]
    assert scanned[1][2] == ("composite-witness-certificate at 1, 2, 4",)


# --- the cost, counted --------------------------------------------------------

def _sixteen_points():
    X = discrete([f"x{k}" for k in range(16)])
    return space(X, [RFun(X, {x: Fraction(k) for k, x in enumerate(X.elements)})],
                 ["g"])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 30])
def test_composites_are_built_only_through_covers(n, monkeypatch):
    calls = []
    compose = spectra.compose_witnesses

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(spectra, "compose_witnesses", counted)
    s = constant_spectrum(chain(n), _sixteen_points())
    assert validate_spectrum(s) == []
    assert len(calls) == max(n - 2, 0)
