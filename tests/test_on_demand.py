"""Families and spectra given on the covers of a partial order hold what
they are given and derive every other pair on first use.

A full read of what they derive is compared with the sweeps that made
every pair up front (`saturate_rescan` and `complete_witnesses_scan` in
oracles.py), on seeded indices whose covers are given tables that make the
paths differ: cover maps that pick other members of the same class, and
cover certificates wrapped a random number of times.  The counts of what
the cover-only chain document holds are pinned, and the lawfulness a
product, a cofinal restriction or a morphism-space spectrum inherits is
compared with the laws decided on the family built in full.  A product
and a morphism-space spectrum of the cover-only chain(24) spectra, once
checked, are pinned to hold the pairs into the top and the covers, and no
certificate, and the cover-only chain(200) spectrum, once its laws are
checked, is pinned to hold at most its covers and identities.
Hypothesis runs derandomized."""

import random
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from bspec.dsl import elaborate, parse
from bspec.duality import induce_spectrum
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    DirectFamily,
    _direct_family_laws_hold,
    _validate_direct_family_scan,
    derive_on_covers,
    make_direct_family,
    restrict_family,
)
from bspec.limits import Limits
from bspec.order import induced_order, make_directed
from bspec.report import Report
from bspec.runner import CHECKS, RunConfig, resolve_check
from bspec.setoid import discrete, make_fn, make_setoid
from bspec.spectra import (
    Spectrum,
    complete_witnesses,
    lift_on_covers,
    product_spectrum,
    validate_spectrum,
)
from bspec.topology import CBic

from oracles import (
    autofill_witnesses,
    complete_witnesses_scan,
    direct_family_laws_hold_triples,
    outcome,
    read_in_full,
    saturate_rescan,
)
from randgen import (
    faulty_family,
    random_cofinal_instance,
    random_direct_family,
    random_spectrum,
    raw_map,
)
from structures import x2_space
from test_covers import ONE, _chain_spectrum_document, _cover_pairs, random_index
from test_induced import _pools

FAST = settings(derandomize=True, max_examples=150, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
directions = st.sampled_from([COVARIANT, CONTRAVARIANT])
POSETS = st.sampled_from(["chain", "grid", "diamonds", "poset"])


def _other_member(rng, fn):
    """fn with each value replaced by a random member of its class."""
    cod = fn.cod
    members = {y: cls for cls in cod.classes() for y in cls}
    return make_fn(fn.dom, cod, {x: rng.choice(members[fn(x)]) for x in fn.dom.elements})


def _on_covers(rng, kind, direction):
    """A lawful family given on the covers of a seeded poset, each cover
    map picking random members of the classes it sends to."""
    index = random_index(rng, kind)
    eager = random_direct_family(rng, index, direction)
    given = {p: _other_member(rng, eager.transport(*p)) for p in _cover_pairs(index)}
    fam = make_direct_family(index, direction, eager.carriers, given)
    assert fam.derive is derive_on_covers
    return fam, given


def _by_pair(table):
    return {p: (fn.dom, fn.cod, fn.mapping) for p, fn in table.items()}


@FAST
@given(seeds, POSETS, directions)
def test_transports_read_in_full_are_the_sweep(seed, kind, direction):
    rng = random.Random(seed)
    fam, given = _on_covers(rng, kind, direction)
    reflexive = {(i, i) for i in fam.index.elements}
    assert set(fam.transports) == set(given) | reflexive
    full = {p: fam.transport(*p) for p in fam.order_pairs()}
    want = saturate_rescan(fam.index, fam.carriers, given, direction)
    assert _by_pair(full) == _by_pair(want)


@FAST
@given(seeds, POSETS, directions)
def test_the_laws_on_the_covers_are_the_triple_scan(seed, kind, direction):
    # a random table on one cover: the laws read on the held covers agree
    # with the scan over every triple of the family saturated in full
    rng = random.Random(seed)
    fam, given = _on_covers(rng, kind, direction)
    covers = _cover_pairs(fam.index)
    if covers and rng.random() < 0.7:
        p = rng.choice(covers)
        given[p] = raw_map(rng, given[p].dom, given[p].cod)
    held = {(i, i): fam.transport(i, i) for i in fam.index.elements}
    held.update(given)
    lazy = DirectFamily(fam.index, direction, fam.carriers, held, derive_on_covers)
    eager = DirectFamily(fam.index, direction, fam.carriers,
                         saturate_rescan(fam.index, fam.carriers, given, direction))
    assert _direct_family_laws_hold(lazy) == direct_family_laws_hold_triples(eager)
    assert _validate_direct_family_scan(lazy) == _validate_direct_family_scan(eager)


def _wrapped(rng, certs):
    """Each certificate as 1 * (1 * ... c), a random number of times."""
    out = {}
    for k, c in certs.items():
        for _ in range(rng.randint(0, 2)):
            c = CBic(ONE, c)
        out[k] = c
    return out


@FAST
@given(seeds, POSETS, directions)
def test_witnesses_read_in_full_are_the_scans(seed, kind, direction):
    rng = random.Random(seed)
    fam, _ = _on_covers(rng, kind, direction)
    full = random_spectrum(rng, fam.index, direction, family=fam)
    given = {}
    for p in _cover_pairs(fam.index):
        certs = _wrapped(rng, full.witness_certs[p])
        if rng.random() < 0.3 and certs:  # leave some to certify_map
            del certs[rng.choice(sorted(certs))]
        if rng.random() < 0.8:
            given[p] = certs
    held = complete_witnesses(fam, full.spaces, given)
    s = Spectrum(fam, full.spaces, held, full.pool)
    assert s.derive is lift_on_covers
    assert set(held) <= set(_cover_pairs(fam.index))
    edges = [p for p in fam.order_pairs() if p[0] != p[1]]
    want = autofill_witnesses(fam, s.spaces, complete_witnesses_scan(fam, s.spaces, held))
    assert {p: s.edge_witness(*p).certs for p in edges} == want
    assert validate_spectrum(s) == []


def test_a_derived_transport_goes_through_the_sweeps_middle():
    # two paths to the top of a diamond pick the two members of one class;
    # the first middle in carrier order is the one the sweep takes
    A, B = discrete(["a"]), make_setoid(["p0", "p1"], [("p0", "p1")])
    pairs = [("m0", "l"), ("m0", "r"), ("l", "m1"), ("r", "m1")]
    for els, value in ((["m0", "l", "r", "m1"], "p0"), (["m0", "r", "l", "m1"], "p1")):
        index = make_directed(els, pairs)
        carriers = {"m0": A, "l": A, "r": A, "m1": B}
        given = {("m0", "l"): make_fn(A, A, {"a": "a"}), ("m0", "r"): make_fn(A, A, {"a": "a"}),
                 ("l", "m1"): make_fn(A, B, {"a": "p0"}), ("r", "m1"): make_fn(A, B, {"a": "p1"})}
        fam = make_direct_family(index, COVARIANT, carriers, given)
        assert fam.transport("m0", "m1").mapping == {"a": value}
        assert saturate_rescan(index, carriers, given)[("m0", "m1")].mapping == {"a": value}


def test_the_cover_only_chain200_holds_its_covers_until_read():
    s = elaborate(parse(_chain_spectrum_document(200))).spectra["SP"]
    covers = {(str(k), str(k + 1)) for k in range(199)}
    assert set(s.fam.transports) == covers | {(str(k), str(k)) for k in range(200)}
    assert set(s.witness_certs) == covers
    transports = set(s.fam.transports)
    report = Report()
    CHECKS["limit-direct"](("SP",), (s,), RunConfig(), report, "main", Limits())
    assert [r.status for r in report.records] == ["pass", "pass"]
    new = set(s.fam.transports) - transports
    assert new <= {(str(k), "199") for k in range(199)} and len(new) <= 199
    assert set(s.witness_certs) == covers


def test_the_checked_cover_only_chain200_holds_at_most_its_covers_and_identities():
    # the composite law builds only composites of two covers, so the check
    # derives no transport or witness table beyond what it was given
    n = 200
    s = elaborate(parse(_chain_spectrum_document(n))).spectra["SP"]
    report = Report()
    CHECKS["spectrum"](("SP",), (s,), RunConfig(), report, "main", Limits())
    assert [r.status for r in report.records] == ["pass", "pass"]
    assert len(s.fam.transports) <= 2 * n and len(s.witness_certs) <= n


PRODUCTS_AND_POOLS = (Path(__file__).resolve().parent / "documents"
                      / "cover-only-products-and-pools.bsp")


def _derived(kind, *names):
    """The one spectrum a passing check of the cover-only chain(24)
    document derived from the document's own, read off its Limits."""
    env = elaborate(parse(PRODUCTS_AND_POOLS.read_text(encoding="utf-8")))
    lims, report = Limits(), Report()
    CHECKS[kind](names, resolve_check(env, kind, names), RunConfig(), report, "main", lims)
    assert {r.status for r in report.records} == {"pass"}
    declared = list(map(id, env.spectra.values()))
    (derived,) = [s for s in (*lims._direct, *lims._inverse) if id(s) not in declared]
    return derived


@pytest.mark.parametrize("name", ["SU", "SD"])
def test_a_checked_product_holds_its_transports_into_the_top_only(name):
    prod = _derived("product", name, name)
    top = prod.index.top
    assert len(prod.fam.order_pairs()) == 90_000
    assert set(prod.fam.transports) == {(a, top) for a in prod.index.elements}
    assert len(prod.fam.transports) == 576 and prod.witness_certs == {}


@pytest.mark.parametrize("kind, pool", [
    ("duality", "PD"), ("converse-duals", "PCU"),
    ("duality2", "PD2"), ("converse-duals", "PCD")])
def test_a_checked_morphism_space_spectrum_holds_its_covers_and_top_pairs(kind, pool):
    spec = _derived(kind, pool)
    index, top = spec.index, spec.index.top
    kept = {(i, j) for i in index.elements for j in (i, top, *index.covers[i])}
    assert len(kept) == 69 and len(index.order_pairs()) == 300
    assert set(spec.fam.transports) <= kept and spec.witness_certs == {}


def _full(fam):
    """The family with every transport held and nothing to inherit."""
    return DirectFamily(fam.index, fam.direction, fam.carriers,
                        {p: fam.transport(*p) for p in fam.order_pairs()})


def _factor(rng, direction, spoil):
    """A seeded spectrum, with a random table on one order pair if spoil."""
    index = random_index(rng, rng.choice(["chain", "grid", "poset", "preorder"]))
    s = random_spectrum(rng, index, direction)
    if not spoil:
        return s
    transports = dict(s.fam.transports)
    p = rng.choice(s.fam.order_pairs())
    transports[p] = raw_map(rng, transports[p].dom, transports[p].cod)
    fam = DirectFamily(index, direction, s.fam.carriers, transports)
    return Spectrum(fam, s.spaces, s.witness_certs, s.pool)


def test_a_product_is_lawful_as_its_laws_decide():
    unlawful = 0
    for seed in range(80):
        rng = random.Random(seed)
        direction = rng.choice([COVARIANT, CONTRAVARIANT])
        s = _factor(rng, direction, spoil=seed % 2 == 1)
        t = _factor(rng, direction, spoil=False)
        prod = product_spectrum(s, t)[0]
        if outcome(read_in_full, prod)[0] != "value":
            continue  # a spoiled transport that separates equal elements
        fam = prod.fam
        assert fam.lawful == _direct_family_laws_hold(_full(fam))
        unlawful += not fam.lawful
    assert unlawful > 0


def test_a_cofinal_restriction_is_lawful_as_its_laws_decide():
    unlawful = 0
    for seed in range(80):
        rng = random.Random(seed)
        direction = rng.choice([COVARIANT, CONTRAVARIANT])
        D, C = random_cofinal_instance(rng)
        fam = (faulty_family(rng, D, direction, "composition") if seed % 2
               else random_direct_family(rng, D, direction))
        sub = induced_order(D, C)
        h = make_fn(sub.base, D.base, C.embed.table())
        restricted = restrict_family(fam, sub, h)
        assert restricted.transports == {}
        assert restricted.lawful == _direct_family_laws_hold(_full(restricted))
        unlawful += not restricted.lawful
    assert unlawful > 0


def test_a_morphism_space_spectrum_is_lawful_as_its_laws_decide():
    # lawful parents over covers whose two paths pick other class members,
    # and parents with a spoiled transport
    inherited = unlawful = 0
    for seed in range(60):
        rng = random.Random(seed)
        direction = rng.choice([COVARIANT, CONTRAVARIANT])
        if seed % 2:
            s = _factor(rng, direction, spoil=True)
        else:
            fam, _ = _on_covers(rng, rng.choice(["grid", "diamonds", "poset"]), direction)
            s = random_spectrum(rng, fam.index, direction, family=fam)
        fixed = rng.choice([x2_space(), s.space(rng.choice(s.index.elements))])
        for hom_into in (True, False):
            pools = _pools(s, fixed, hom_into)
            got = pools and outcome(induce_spectrum, s, fixed, hom_into, pools)
            if not got or got[0] != "value":
                continue  # a pool over the cap, or not closed
            fam = got[1].fam
            assert fam.lawful == _direct_family_laws_hold(_full(fam))
            inherited += s.fam.lawful
            unlawful += not fam.lawful
    assert inherited > 0 and unlawful > 0
