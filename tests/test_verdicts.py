"""A space keeps its certification verdicts (`BSpace.verdicts`).

`certify_map` and `check_morphism` look each pulled-back table up there,
keyed on the ids of its values in carrier order (and the id of a given
certificate), and search and validate only on a miss.  Each is checked
against the per-call path it replaced (kept in tests/oracles.py) on
random spectra and pools, with findings compared in order; then the cases
the key must tell apart, and how long an entry lives.  Hypothesis runs
derandomized, so the suite stays deterministic.
"""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from bspec import duality, topology
from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.order import chain
from bspec.setoid import Setoid, SetoidFn, make_setoid
from bspec.spectra import constant_spectrum, validate_spectrum
from bspec.topology import (
    CConst,
    MorphismWitness,
    RFun,
    certify_map,
    check_morphism,
    space,
)

from oracles import certify_map_per_call, check_morphism_per_call
from randgen import random_certificate, random_spectrum

FAST = settings(derandomize=True, max_examples=80, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def laws(findings):
    return [(f.law, f.witness, f.note) for f in findings]


def counted(monkeypatch, name):
    """Count the calls of topology.`name`, which still runs."""
    real, calls = getattr(topology, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(topology, name, spy)
    return calls


def both(src, dst, h, **kw):
    """certify_map's (certs, findings) with the memo, and the per-call
    path's."""
    memo, per_call = [], []
    w = certify_map(src, dst, h, "leg", memo, **kw)
    v = certify_map_per_call(src, dst, h, "leg", per_call, **kw)
    return (w.certs, laws(memo)), (v.certs, laws(per_call))


@FAST
@given(seeds, st.sampled_from([COVARIANT, CONTRAVARIANT]))
def test_edges_match_the_per_call_path(seed, direction):
    """Every edge of a random spectrum, certified, certified again, and its
    witness checked, with given and with random certificates."""
    rng = random.Random(seed)
    s = random_spectrum(rng, direction=direction)
    for i, j in s.fam.order_pairs():
        src, dst = s.edge_ends(i, j)
        h = s.fam.transport(i, j)
        for _ in range(2):
            fast, slow = both(src, dst, h, where=(i, j))
            assert fast == slow
        w = MorphismWitness(h, fast[0])
        assert laws(check_morphism(src, dst, w)) == laws(check_morphism_per_call(src, dst, w))
        if i != j:
            given_w = s.edge_witness(i, j)
            assert (laws(check_morphism(src, dst, given_w))
                    == laws(check_morphism_per_call(src, dst, given_w)))
        known = {k: random_certificate(rng, src) for k in range(len(dst.gens))
                 if rng.random() < 0.5}
        fast, slow = both(src, dst, h, known=known)
        assert fast == slow
        wrong = MorphismWitness(h, known)
        for _ in range(2):
            assert (laws(check_morphism(src, dst, wrong))
                    == laws(check_morphism_per_call(src, dst, wrong)))


@FAST
@given(seeds)
def test_pools_match_the_per_call_path(seed):
    """Every class map from a space at one index to the space at another,
    the pool enumerate_morphisms keeps, and each candidate's findings."""
    rng = random.Random(seed)
    s = random_spectrum(rng, direction=rng.choice([COVARIANT, CONTRAVARIANT]))
    src, dst = (s.space(rng.choice(s.index.elements)) for _ in range(2))
    if len(dst.carrier.elements) ** src.carrier.class_count() > 256:
        return
    els, class_of = src.carrier.elements, src.carrier.class_id
    kept = []
    for choice in iproduct(dst.carrier.elements, repeat=src.carrier.class_count()):
        h = SetoidFn(src.carrier, dst.carrier,
                     {x: choice[class_of[x]] for x in els})
        fast, slow = both(src, dst, h)
        assert fast == slow
        if not slow[1]:
            kept.append((h.mapping, slow[0]))
    pool = duality.enumerate_morphisms(src, dst)
    assert [(w.h.mapping, w.certs) for w in pool] == kept


def _two_points(values, names=("f",)):
    carrier = make_setoid(["p", "q"])
    return space(carrier, [RFun(carrier, dict(zip(("p", "q"), v))) for v in values],
                 names)


def _identity(src, dst):
    return SetoidFn(src.carrier, dst.carrier, {"p": "p", "q": "q"})


def test_equal_values_held_as_distinct_objects_miss(monkeypatch):
    searches = counted(monkeypatch, "certificate_for")
    src = _two_points([(0, 1)])
    answers = []
    for _ in range(2):
        # the same values, each time as new Fraction objects
        dst = space(src.carrier, [RFun(src.carrier, {"p": Fraction(1, 2),
                                                     "q": Fraction(3)})])
        findings = []
        w = certify_map(src, dst, _identity(src, dst), "leg", findings)
        answers.append((w.certs, laws(findings)))
    assert answers[0] == answers[1] and answers[0][1] == []
    assert len(searches) == 2
    # and the same objects again are found
    certify_map(src, dst, _identity(src, dst), "leg", [])
    assert len(searches) == 2


def test_a_table_on_another_carrier_object_is_not_kept(monkeypatch):
    validations = counted(monkeypatch, "validate_certificate")
    src = _two_points([(0, 1)])
    dst = _two_points([(0, 2)])
    # the same elements and equality as src's carrier, another object
    copy = Setoid(src.carrier.elements, class_id=dict(src.carrier.class_id))
    h = SetoidFn(copy, dst.carrier, {"p": "p", "q": "q"})
    for _ in range(2):
        findings = []
        w = certify_map(src, dst, h, "leg", findings)
        assert findings == [] and w.certs[0] is not None
        assert check_morphism(src, dst, w) == []
    assert len(validations) == 4
    assert src.verdicts == {}


def test_a_refuted_target_is_reported_alike_on_a_repeat(monkeypatch):
    searches = counted(monkeypatch, "certificate_for")
    # no generator of src separates p and q, and f does
    src = _two_points([(0, 0)], ["flat"])
    dst = _two_points([(0, 1)])
    reports = []
    for _ in range(3):
        findings = []
        w = certify_map(src, dst, _identity(src, dst), "leg", findings, where=("i",))
        reports.append((w.certs, laws(findings)))
    assert reports == [({0: None}, [("leg-cert", ("i", 0), "")])] * 3
    assert len(searches) == 1


def test_a_wrong_certificate_is_reported_alike_on_a_repeat(monkeypatch):
    validations = counted(monkeypatch, "validate_certificate")
    src = _two_points([(0, 1)])
    dst = _two_points([(0, 1)])
    h = _identity(src, dst)
    wrong = MorphismWitness(h, {0: CConst(Fraction(99))})
    expected = laws(check_morphism_per_call(src, dst, wrong))
    assert expected == [("witness-certificate", ("f",),
                         "value-mismatch at p, 0, 99")]
    validations.clear()
    assert laws(check_morphism(src, dst, wrong)) == expected
    assert laws(check_morphism(src, dst, wrong)) == expected
    assert len(validations) == 1
    # an equal certificate held as another object is validated again
    again = MorphismWitness(h, {0: CConst(Fraction(99))})
    assert laws(check_morphism(src, dst, again)) == expected
    assert len(validations) == 2


def test_a_certificate_found_is_not_validated_again(monkeypatch):
    validations = counted(monkeypatch, "validate_certificate")
    src = _two_points([(0, 1)])
    dst = _two_points([(5, 7)])
    w = certify_map(src, dst, _identity(src, dst), "leg", [])
    assert check_morphism(src, dst, w) == []
    assert len(validations) == 1


def test_entries_live_as_long_as_their_space():
    src = _two_points([(0, 1)])
    dst = _two_points([(2, 5)])
    w = certify_map(src, dst, _identity(src, dst), "leg", [])
    (table, cert, report), = {id(e): e for e in src.verdicts.values()}.values()
    assert cert is w.certs[0] and report.ok
    held = [weakref.ref(table), weakref.ref(cert)]
    del w, dst, table, cert, report
    gc.collect()
    assert all(ref() is not None for ref in held)
    gone = weakref.ref(src)
    del src
    gc.collect()
    assert gone() is None
    assert all(ref() is None for ref in held)


def test_a_pool_validates_each_distinct_table_once(monkeypatch):
    validations = counted(monkeypatch, "validate_certificate")
    searches = counted(monkeypatch, "certificate_for")
    src_carrier = make_setoid(["a", "b", "c"])
    src = space(src_carrier, [RFun(src_carrier, {"a": 0, "b": 1, "c": 2})])
    # g takes one object at p and q, so maps that differ there pull g back
    # to one table: 27 candidates, 2^3 tables
    zero, one = Fraction(0), Fraction(1)
    dst_carrier = make_setoid(["p", "q", "r"])
    dst = space(dst_carrier, [RFun(dst_carrier, {"p": zero, "q": zero, "r": one})])
    pool = duality.enumerate_morphisms(src, dst)
    assert len(pool) == 27
    assert len(validations) == len(searches) == 8
    tables = {tuple(v.values.values()) for _, v, _ in validations}
    assert len(tables) == 8


@pytest.mark.parametrize("direction", [COVARIANT, CONTRAVARIANT])
def test_a_constant_spectrum_validates_each_generator_once(monkeypatch, direction):
    # every edge holds the same CGen objects, so the 780 edges of chain(40)
    # share one verdict per generator
    validations = counted(monkeypatch, "validate_certificate")
    carrier = make_setoid(["p", "q", "r"], [("p", "q")])
    sp = space(carrier, [RFun(carrier, {"p": 0, "q": 0, "r": 1}),
                         RFun(carrier, {"p": 2, "q": 2, "r": 2})])
    s = constant_spectrum(chain(40), sp, direction=direction)
    assert validate_spectrum(s) == []
    assert len(validations) == len(sp.gens) == 2
    # read in full, each edge holds its own dict of them
    edges = [s.edge_witness(i, j).certs for i, j in s.fam.order_pairs() if i != j]
    assert len({id(c) for certs in edges for c in certs.values()}) == 2
    held = list(s.witness_certs.values())
    assert len(held) == 780 and len({id(certs) for certs in held}) == 780
