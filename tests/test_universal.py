"""Differential tests for the universal-property checks: the leg triangles
decided on covers against the scan over every order pair that they
replaced (kept in `oracles.py`), and the family law verdict decided once
per family.  Hypothesis runs derandomized, so the suite stays
deterministic."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bspec import families
from bspec.dsl import parse
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    DirectFamily,
    make_direct_family,
    oriented,
    validate_direct_family,
)
from bspec.limits import (
    Legs,
    _cover_triangles_hold,
    cocone_mediator,
    direct_limit,
    own_legs,
    validate_legs,
)
from bspec.order import chain, make_directed, product_order
from bspec.runner import run_suite
from bspec.setoid import SetoidFn, discrete, make_setoid
from bspec.spectra import Spectrum, validate_spectrum
from bspec.topology import MorphismWitness, space

from oracles import validate_legs_scan
from randgen import (
    raw_map,
    random_directed_index,
    random_spectrum_with_cocone,
    random_spectrum_with_cone,
)

ROOT = Path(__file__).resolve().parent.parent
seeds = st.integers(min_value=0, max_value=2**32 - 1)
directions = st.sampled_from([COVARIANT, CONTRAVARIANT])
KINDS = ["chain", "grid", "preorder"]
CASES = ["none", "on-cover", "off-cover", "unlawful", "non-extensional"]


def _index(rng, kind):
    if kind == "chain":
        return chain(rng.randint(1, 5))
    if kind == "grid":
        return product_order(chain(rng.randint(1, 3)), chain(rng.randint(1, 3)))
    return random_directed_index(rng, 5)  # cycles, so no covers, happen


def _spoil_leg(rng, s, c, i, split=False):
    """c with the leg at i sent elsewhere on one class of its domain, or on
    one member of a class with two (`split`, which breaks extensionality);
    None when the leg has nowhere else to go."""
    h = c.legs[i].h
    classes = [cls for cls in h.dom.classes() if len(cls) > 1] if split else h.dom.classes()
    if not classes:
        return None
    cls = rng.choice(classes)
    other = [y for y in h.cod.elements if not h.cod.eq(y, h(cls[0]))]
    if not other:
        return None
    v = rng.choice(other)
    moved = cls[-1:] if split else cls
    table = {x: v if x in moved else h(x) for x in h.dom.elements}
    legs = dict(c.legs)
    legs[i] = MorphismWitness(SetoidFn(h.dom, h.cod, table), {})
    return Legs(c.apex, legs)


def _spoil_transport(rng, s):
    """s over a family with a random table on one order pair, which the
    family laws may refuse; None when there is no pair i < j."""
    pairs = [p for p in s.fam.order_pairs() if p[0] != p[1]]
    if not pairs:
        return None
    p = rng.choice(pairs)
    transports = dict(s.fam.transports)
    transports[p] = raw_map(rng, transports[p].dom, transports[p].cod)
    fam = DirectFamily(s.index, s.direction, s.fam.carriers, transports)
    return Spectrum(fam, s.spaces, s.witness_certs, s.pool)


def _legs_case(seed, kind, direction, case):
    """(s, c) for one case, or None when the drawn spectrum has no place
    for it."""
    rng = random.Random(seed)
    index = _index(rng, kind)
    build = random_spectrum_with_cocone if direction == COVARIANT else random_spectrum_with_cone
    s, c = build(rng, index)
    covers = s.index.covers
    if case == "none":
        return s, c
    if case == "unlawful":
        s = _spoil_transport(rng, s)
        return None if s is None else (s, c)
    if case == "non-extensional":
        # a covariant leg that splits a class of its carrier: the covers
        # alone need every covariant leg extensional
        if direction != COVARIANT:
            return None
        i = rng.choice(s.index.elements)
        c = _spoil_leg(rng, s, c, i, split=True)
        return None if c is None else (s, c)
    if covers is None:
        return None
    on = [(i, j) for i in s.index.elements for j in covers[i]]
    off = [p for p in s.fam.order_pairs() if p[0] != p[1] and p not in on]
    pairs = on if case == "on-cover" else off
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    # the leg at the domain end of the transport of i <= j
    c = _spoil_leg(rng, s, c, oriented(direction, i, j)[0])
    return None if c is None else (s, c)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds, st.sampled_from(KINDS), directions, st.sampled_from(CASES))
def test_legs_match_the_scan(seed, kind, direction, case):
    drawn = _legs_case(seed, kind, direction, case)
    if drawn is None:
        return
    s, c = drawn
    assert validate_legs(s, c) == validate_legs_scan(s, c)
    if case == "none":
        assert validate_legs(s, c) == []
        # the covers decide every lawful spectrum over a partial order
        assert _cover_triangles_hold(s, c) == (s.index.covers is not None)


def test_leg_cases_are_reached():
    """The seeds above meet every case, failing triangles on and off the
    covers, and indices without covers."""
    seen, covers_none, failing = set(), False, set()
    for seed in range(60):
        for kind in KINDS:
            for direction in (COVARIANT, CONTRAVARIANT):
                for case in CASES:
                    drawn = _legs_case(seed, kind, direction, case)
                    if drawn is None:
                        continue
                    s, c = drawn
                    seen.add((direction, case))
                    covers_none |= s.index.covers is None
                    if validate_legs_scan(s, c):
                        failing.add((direction, case))
    every = {(d, k) for d in (COVARIANT, CONTRAVARIANT) for k in CASES}
    assert seen == every - {(CONTRAVARIANT, "non-extensional")}
    assert covers_none
    assert {(d, k) for d in (COVARIANT, CONTRAVARIANT)
            for k in ("on-cover", "off-cover", "unlawful")} <= failing
    assert (COVARIANT, "non-extensional") in failing


def _chain3_spectrum(carriers, tables):
    """A covariant spectrum over 0 < 1 < 2 with the given carriers and
    transport tables, spaces without generators."""
    index = chain(3)
    transports = {(i, i): SetoidFn(carriers[i], carriers[i],
                                   {x: x for x in carriers[i].elements})
                  for i in index.elements}
    for (i, j), table in tables.items():
        transports[(i, j)] = SetoidFn(carriers[i], carriers[j], table)
    fam = DirectFamily(index, COVARIANT, carriers, transports)
    return Spectrum(fam, {i: space(carriers[i], []) for i in index.elements}, {})


def _cocone(s, apex, tables):
    return Legs(space(apex, []), {
        i: MorphismWitness(SetoidFn(s.fam.carrier(i), apex, t), {})
        for i, t in tables.items()})


def test_a_non_extensional_leg_off_the_covers_is_found():
    # u1 ~ u2 at 2 and leg_2 splits them: both cover triangles commute, the
    # triangle of 0 <= 2 does not
    carriers = {"0": discrete(["a"]), "1": discrete(["p"]),
                "2": make_setoid(["u1", "u2"], [("u1", "u2")])}
    s = _chain3_spectrum(carriers, {("0", "1"): {"a": "p"},
                                    ("1", "2"): {"p": "u2"},
                                    ("0", "2"): {"a": "u1"}})
    assert validate_direct_family(s.fam) == []
    c = _cocone(s, discrete(["A", "B"]),
                {"0": {"a": "A"}, "1": {"p": "A"}, "2": {"u1": "B", "u2": "A"}})
    assert not _cover_triangles_hold(s, c)
    assert validate_legs(s, c) == validate_legs_scan(s, c)
    assert [(f.law, f.witness) for f in validate_legs(s, c)] == [("triangle", ("0", "2"))]


def test_a_triangle_off_the_covers_of_an_unlawful_family_is_found():
    # the transport of 0 <= 2 is not the composite through 1, and the legs
    # commute with the covers only
    carriers = {"0": discrete(["a"]), "1": discrete(["p"]), "2": discrete(["u", "v"])}
    s = _chain3_spectrum(carriers, {("0", "1"): {"a": "p"},
                                    ("1", "2"): {"p": "u"},
                                    ("0", "2"): {"a": "v"}})
    assert not s.fam.lawful
    c = _cocone(s, discrete(["A", "B"]),
                {"0": {"a": "A"}, "1": {"p": "A"}, "2": {"u": "A", "v": "B"}})
    assert not _cover_triangles_hold(s, c)
    assert [(f.law, f.witness) for f in validate_legs(s, c)] == [("triangle", ("0", "2"))]
    assert validate_legs(s, c) == validate_legs_scan(s, c)


# --- the family verdict, once per family ----------------------------------------

def counted_laws(monkeypatch):
    """Count `_direct_family_laws_hold` per family (the families are kept,
    so no id is reused), while it still decides."""
    real, calls = families._direct_family_laws_hold, []

    def spy(F):
        calls.append(F)
        return real(F)

    monkeypatch.setattr(families, "_direct_family_laws_hold", spy)
    return calls


def test_a_family_is_decided_on_first_read_only(monkeypatch):
    calls = counted_laws(monkeypatch)
    X = make_setoid(["p", "q", "r"], [("p", "q")])
    index = chain(4)
    transports = {p: SetoidFn(X, X, {x: x for x in X.elements})
                  for p in index.order_pairs()}
    fam = DirectFamily(index, COVARIANT, {i: X for i in index.elements}, transports)
    assert calls == []
    assert fam.lawful and validate_direct_family(fam) == [] and fam.lawful
    assert calls == [fam]


def test_a_made_family_is_decided_once_through_the_checks(monkeypatch):
    calls = counted_laws(monkeypatch)
    X = make_setoid(["p", "q", "r"], [("p", "q")])
    index = make_directed(["0", "1", "2", "3"],
                          [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")])
    fam = make_direct_family(index, COVARIANT, {i: X for i in index.elements},
                             {("0", "1"): SetoidFn(X, X, {"p": "r", "q": "r", "r": "p"}),
                              ("0", "2"): SetoidFn(X, X, {"p": "r", "q": "r", "r": "p"}),
                              ("1", "3"): SetoidFn(X, X, {x: x for x in X.elements}),
                              ("2", "3"): SetoidFn(X, X, {x: x for x in X.elements})})
    assert calls == [fam]
    sp = space(X, [])
    s = Spectrum(fam, {i: sp for i in index.elements},
                 {p: {} for p in index.order_pairs() if p[0] != p[1]})
    assert validate_spectrum(s) == []
    lim = direct_limit(s)
    assert cocone_mediator(s, lim, own_legs(lim)).unique is True
    assert calls == [fam]


@pytest.mark.parametrize("name", ["constant", "cspec", "inverse", "eo1"])
def test_each_family_of_a_suite_is_decided_once(name, monkeypatch):
    # declared families and those the checks derive alike
    calls = counted_laws(monkeypatch)
    run_suite(parse((ROOT / "fixtures" / f"{name}.bsp").read_text()))
    assert calls
    assert len(calls) == len({id(F) for F in calls})
