"""Failure paths of the maps the kernel certifies: the cofinal isos, the
dualities, the product comparisons and the converse duals.

Each test forces one failure and pins the exact (law, witness) list the
caller reports, in order.  A certificate is made to miss by replacing
`certificate_for` in every kernel module that holds it; a round trip is
made to fail by having `make_fn` send the first class of one map's domain
where its last class goes.
"""

from fractions import Fraction

import pytest

from bspec import duality, limits, spectra, topology
from bspec.families import CONTRAVARIANT, COVARIANT, identity_family_map
from bspec.limits import LimitError, IllFormedLegs, Limits, direct_limit
from bspec.setoid import discrete
from bspec.spectra import SpectrumError, constant_spectrum
from bspec.topology import CConst, MorphismWitness, RFun, rconst, space

from structures import chain3, constant_cspec, cspec, eo_cofinal, eo_index, x2_space


def laws(findings):
    """(law, witness) per finding, compound elements in the witness rendered
    as the text a report shows."""
    return [(f.law, tuple(str(w) if isinstance(w, tuple) else w for w in f.witness))
            for f in findings]


def miss(monkeypatch, prefix, n=0, wrong=False):
    """certificate_for misses (or, with wrong, answers a certificate of the
    constant 99) on call number n, counted from 0, over a space whose first
    generator name starts with prefix."""
    real = topology.certificate_for
    calls = []

    def fake(sp, target):
        if sp.names and sp.names[0].startswith(prefix):
            calls.append(sp)
            if len(calls) == n + 1:
                return CConst(Fraction(99)) if wrong else None
        return real(sp, target)

    for mod in (topology, limits, duality, spectra):
        if hasattr(mod, "certificate_for"):
            monkeypatch.setattr(mod, "certificate_for", fake)


def skew(monkeypatch, module, pick):
    """module.make_fn sends the first class of a picked map's domain where
    the map sends its last class; returns the list of the (domain, codomain)
    pairs it skewed, filled as it does."""
    real = module.make_fn
    fired = []

    def fake(dom, cod, mapping):
        if pick(dom, cod):
            fired.append((dom, cod))
            mapping = dict(mapping)
            classes = dom.classes()
            for a in classes[0]:
                mapping[a] = mapping[classes[-1][0]]
        return real(dom, cod, mapping)

    monkeypatch.setattr(module, "make_fn", fake)
    return fired


def _cofinal_direct():
    s = constant_spectrum(eo_index(1), x2_space(), (0, 1))
    lims = Limits()
    return s, eo_cofinal(1), lims, lims.direct(s)


def _contra(index):
    return constant_spectrum(index, x2_space(), (0, 1), direction=CONTRAVARIANT)


def _cofinal_inverse():
    s = _contra(eo_index(1))
    lims = Limits()
    return s, eo_cofinal(1), lims, lims.inverse(s)


def _pools(s, src_of, dst_of):
    return {i: duality.enumerate_morphisms(src_of(i), dst_of(i))
            for i in s.index.elements}


# --- cofinal isos ------------------------------------------------------------

@pytest.mark.parametrize("build, iso, prefix, n, wrong, expected", [
    (_cofinal_direct, limits.cofinal_direct_iso, "thr", 1, False,
     [("forward-cert", (1,))]),
    (_cofinal_direct, limits.cofinal_direct_iso, "thr", 3, True,
     [("backward-witness-certificate", ("thr0",))]),
    (_cofinal_inverse, limits.cofinal_inverse_iso, "proj[", 1, False,
     [("backward-cert", (0,))]),
    (_cofinal_inverse, limits.cofinal_inverse_iso, "proj[", 0, True,
     [("forward-witness-certificate", ("proj[0,f]",))]),
])
def test_cofinal_iso_certificate_paths(monkeypatch, build, iso, prefix, n, wrong,
                                       expected):
    s, cof, lims, _ = build()
    miss(monkeypatch, prefix, n=n, wrong=wrong)
    assert laws(iso(s, cof, lims).findings) == expected


@pytest.mark.parametrize("build, iso, skewed, expected", [
    (_cofinal_direct, limits.cofinal_direct_iso, "backward",
     [("round-trip", ("0@p",)), ("round-trip", ("1@p",)), ("round-trip", ("2@p",)),
      ("round-trip-subset", ("0@p",)), ("round-trip-subset", ("2@p",))]),
    (_cofinal_direct, limits.cofinal_direct_iso, "forward",
     [("round-trip", ("0@p",)), ("round-trip", ("1@p",)), ("round-trip", ("2@p",)),
      ("round-trip-subset", ("0@p",)), ("round-trip-subset", ("2@p",))]),
    (_cofinal_inverse, limits.cofinal_inverse_iso, "backward",
     [("round-trip", ("p&p&p",)), ("round-trip-subset", ("p&p",))]),
    (_cofinal_inverse, limits.cofinal_inverse_iso, "forward",
     [("round-trip", ("p&p&p",)), ("round-trip-subset", ("p&p",))]),
])
def test_cofinal_iso_round_trip(monkeypatch, build, iso, skewed, expected):
    s, cof, lims, lim = build()
    # backward runs from the limit to the restriction's, forward into it
    end = 0 if skewed == "backward" else 1
    fired = skew(monkeypatch, limits, lambda *ends: ends[end] is lim.carrier)
    assert laws(iso(s, cof, lims).findings) == expected
    assert len(fired) == 1


# --- dualities ---------------------------------------------------------------

def _duality_direct():
    s, sp = constant_cspec(), x2_space()
    return s, sp, _pools(s, lambda i: sp, lambda i: sp)


def _duality_inverse():
    sp = x2_space()
    s = _contra(chain3())
    return s, sp, _pools(s, lambda i: sp, lambda i: sp)


def _from_hom(dom, cod):
    return (str(dom.elements[0]).startswith("h[")
            and not str(cod.elements[0]).startswith("h["))


def _to_hom(dom, cod):
    return (str(cod.elements[0]).startswith("h[")
            and not str(dom.elements[0]).startswith("h["))


# the duality's embedding finding sits between the round trips and the
# certificates
_TO_HOM_SKEWED = [("round-trip", ("0.m0&1.m0&2.m0",)),
                  ("round-trip-hom", ("h[0.m0&1.m0&2.m0]",)),
                  ("embedding", ("0.m0&1.m0&2.m0", "0.m3&1.m3&2.m3"))]


@pytest.mark.parametrize("build, dual, prefix, n, wrong, expected", [
    (_duality_direct, duality.duality_direct_to_inverse, "thr", 2, False,
     [("hom-cert", ("0.m2&1.m2&2.m2", 0))]),
    (_duality_direct, duality.duality_direct_to_inverse, "proj[", 0, False,
     [("to-hom-cert", (0,))]),
    (_duality_direct, duality.duality_direct_to_inverse, "ev[", 1, False,
     [("from-hom-cert", (1,))]),
    (_duality_direct, duality.duality_direct_to_inverse, "proj[", 1, True,
     [("to-hom-witness-certificate", ("ev[0@q,f]",))]),
    (_duality_inverse, duality.duality_inverse_hom, "proj[", 0, False,
     [("to-hom-cert", (0,))]),
    (_duality_inverse, duality.duality_inverse_hom, "ev[", 1, False,
     [("from-hom-cert", (1,))]),
    (_duality_inverse, duality.duality_inverse_hom, "ev[", 0, True,
     [("from-hom-witness-certificate", ("proj[0,ev[p,f]]",))]),
])
def test_duality_certificate_paths(monkeypatch, build, dual, prefix, n, wrong,
                                   expected):
    s, sp, pools = build()
    miss(monkeypatch, prefix, n=n, wrong=wrong)
    assert laws(dual(s, sp, pools, Limits()).findings) == expected


@pytest.mark.parametrize("build, dual, pick, expected", [
    (_duality_direct, duality.duality_direct_to_inverse, _from_hom,
     [("round-trip", ("0.m0&1.m0&2.m0",)), ("round-trip-hom", ("h[0.m0&1.m0&2.m0]",))]),
    (_duality_direct, duality.duality_direct_to_inverse, _to_hom, _TO_HOM_SKEWED),
    (_duality_inverse, duality.duality_inverse_hom, _from_hom,
     [("round-trip", ("0.m0&1.m0&2.m0",)), ("round-trip-hom", ("h[0.m0&1.m0&2.m0]",))]),
    (_duality_inverse, duality.duality_inverse_hom, _to_hom, _TO_HOM_SKEWED),
])
def test_duality_round_trip(monkeypatch, build, dual, pick, expected):
    s, sp, pools = build()
    skew(monkeypatch, duality, pick)
    assert laws(dual(s, sp, pools, Limits()).findings) == expected


def test_iso_findings_keep_their_order(monkeypatch):
    s, cof, lims, lim = _cofinal_direct()
    with monkeypatch.context() as m:
        fired = skew(m, limits, lambda dom, cod: dom is lim.carrier)
        miss(m, "thr", n=0)
        found = laws(limits.cofinal_direct_iso(s, cof, lims).findings)
    assert len(fired) == 1
    assert found == [
        ("round-trip", ("0@p",)), ("round-trip", ("1@p",)), ("round-trip", ("2@p",)),
        ("round-trip-subset", ("0@p",)), ("round-trip-subset", ("2@p",)),
        ("forward-cert", (0,))]
    s, sp, pools = _duality_direct()
    skew(monkeypatch, duality, _to_hom)
    miss(monkeypatch, "ev[", n=0)
    assert laws(duality.duality_direct_to_inverse(s, sp, pools, Limits()).findings) == (
        _TO_HOM_SKEWED + [("from-hom-cert", (0,))])


# --- products ------------------------------------------------------------------

def _skew_pairs(dom, cod):
    return str(cod.elements[0]).startswith("(")


@pytest.mark.parametrize("prefix, n, wrong, expected", [
    ("thr", 1, False, [("pair-cert", (1,))]),
    ("thr", 0, True, [("pair-witness-certificate", ("thr0.1",))]),
])
def test_product_limit_bijection_certificate_paths(monkeypatch, prefix, n, wrong,
                                                   expected):
    s = constant_cspec()
    miss(monkeypatch, prefix, n=n, wrong=wrong)
    assert laws(limits.product_limit_bijection(s, s, Limits()).findings) == expected


def test_product_limit_bijection_not_injective(monkeypatch):
    s = constant_cspec()
    skew(monkeypatch, limits, _skew_pairs)
    assert laws(limits.product_limit_bijection(s, s, Limits()).findings) == [
        ("injective", ("(0,0)@(p,p)", "(0,0)@(q,q)")), ("surjective", ())]


@pytest.mark.parametrize("prefix, n, wrong, expected", [
    ("proj[", 1, False, [("pair-cert", (1,))]),
    ("proj[", 0, True, [("pair-witness-certificate", ("proj[(0,0),f.1]",))]),
])
def test_product_inverse_morphism_certificate_paths(monkeypatch, prefix, n, wrong,
                                                    expected):
    s = _contra(chain3())
    miss(monkeypatch, prefix, n=n, wrong=wrong)
    assert laws(limits.product_inverse_morphism(s, s, Limits()).findings) == expected


# --- converse duals ------------------------------------------------------------

@pytest.mark.parametrize("prefix, n, wrong, expected", [
    ("proj[", 1, False, [("hom-cert", ("0@0.m1", 0))]),
    ("thr", 0, False, [("to-hom-cert", (0,))]),
    ("thr", 1, True, [("to-hom-witness-certificate", ("ev[q&q&q,f]",))]),
])
def test_converse_dual_inverse_paths(monkeypatch, prefix, n, wrong, expected):
    s, sp, pools = _duality_inverse()
    miss(monkeypatch, prefix, n=n, wrong=wrong)
    assert laws(duality.converse_dual_inverse(s, sp, pools, Limits()).findings) == expected


@pytest.mark.parametrize("n, wrong, expected", [
    (0, False, [("to-hom-cert", (0,))]),
    (1, True, [("to-hom-witness-certificate", ("ev[p,thr1]",))]),
])
def test_converse_dual_direct_paths(monkeypatch, n, wrong, expected):
    s, sp, pools = _duality_direct()
    miss(monkeypatch, "thr", n=n, wrong=wrong)
    assert laws(duality.converse_dual_direct(s, sp, pools, Limits()).findings) == expected


# --- callers that raise on a miss ------------------------------------------------

def test_limit_map_raises_on_a_miss(monkeypatch):
    s = cspec()
    lims = Limits()
    lims.direct(s)
    miss(monkeypatch, "thr", n=0)
    with pytest.raises(LimitError, match="no certificate for a pulled-back generator"):
        limits.limit_map(s, s, identity_family_map(s.fam), lims)


def test_limit_map_raises_on_a_wrong_certificate(monkeypatch):
    s = cspec()
    lims = Limits()
    lims.direct(s)
    miss(monkeypatch, "thr", n=0, wrong=True)
    with pytest.raises(LimitError, match="pullback-witness-certificate at thr0"):
        limits.limit_map(s, s, identity_family_map(s.fam), lims)


def test_inverse_limit_map_raises_on_a_miss(monkeypatch):
    s = _contra(chain3())
    lims = Limits()
    lims.inverse(s)
    miss(monkeypatch, "proj[", n=0)
    with pytest.raises(LimitError, match="no certificate for a pulled-back projection"):
        limits.inverse_limit_map(s, s, identity_family_map(s.fam), lims)


def test_inverse_limit_map_raises_on_a_wrong_certificate(monkeypatch):
    s = _contra(chain3())
    lims = Limits()
    lims.inverse(s)
    miss(monkeypatch, "proj[", n=0, wrong=True)
    with pytest.raises(LimitError, match=r"witness-certificate at proj\[0,f\]"):
        limits.inverse_limit_map(s, s, identity_family_map(s.fam), lims)


@pytest.mark.parametrize("direction, induced, what", [
    (COVARIANT, "limit_map", "generator"),
    (CONTRAVARIANT, "inverse_limit_map", "projection"),
])
def test_induced_map_of_components_that_are_not_continuous(direction, induced, what):
    # identity components from X2 under the constants alone into X2 under a
    # generator that separates p and q: a family map whose components are
    # not morphisms, so neither is the map of limits it induces
    index, sp = chain3(), x2_space()
    coarse = constant_spectrum(index, space(sp.carrier, [rconst(sp.carrier, 0)], ["c"]),
                               (0, 1), direction=direction)
    fine = constant_spectrum(index, sp, (0, 1), direction=direction)
    with pytest.raises(LimitError, match=f"^no certificate for a pulled-back {what}$"):
        getattr(limits, induced)(coarse, fine, identity_family_map(coarse.fam), Limits())


def test_cocone_mediator_raises_on_a_miss(monkeypatch):
    s = cspec()
    lim = direct_limit(s)
    cocone = limits.own_legs(lim)
    miss(monkeypatch, "thr", n=0)
    with pytest.raises(IllFormedLegs, match="no certificate for apex generator 0"):
        limits.cocone_mediator(s, lim, cocone)


def test_cocone_mediator_raises_on_a_wrong_certificate(monkeypatch):
    s = cspec()
    lim = direct_limit(s)
    cocone = limits.own_legs(lim)
    miss(monkeypatch, "thr", n=0, wrong=True)
    with pytest.raises(IllFormedLegs, match="witness-certificate at thr0"):
        limits.cocone_mediator(s, lim, cocone)


# --- certificates assembled rather than built ------------------------------------

def test_cone_mediator_checks_the_certificates_it_reads_off_the_legs():
    carrier = discrete(["a", "b", "c"])
    sp = space(carrier, [RFun(carrier, {"a": 0, "b": 1, "c": 1}),
                         RFun(carrier, {"a": 0, "b": 0, "c": 1})], ["f", "g"])
    s = constant_spectrum(chain3(), sp, direction=CONTRAVARIANT)
    lim = Limits().inverse(s)
    cone = limits.own_legs(lim)
    limits.cone_mediator(s, lim, cone)
    # each limit generator now reads the leg's certificate for the other one
    lim.gen_sources = lim.gen_sources[::-1]
    with pytest.raises(IllFormedLegs, match="witness-certificate"):
        limits.cone_mediator(s, lim, cone)


def test_second_duality_checks_the_component_certificates():
    s, sp, pools = _duality_inverse()
    wrong = {i: [MorphismWitness(w.h, {k: CConst(Fraction(99)) for k in w.certs})
                 for w in pool]
             for i, pool in pools.items()}
    with pytest.raises(duality.DualityError, match="is not a morphism"):
        duality.duality_inverse_hom(s, sp, wrong, Limits())


def test_converse_dual_direct_checks_the_lifted_certificates(monkeypatch):
    s, sp, pools = _duality_direct()
    monkeypatch.setattr(duality, "lift_certificate", lambda *args: CConst(Fraction(99)))
    with pytest.raises(duality.DualityError, match="pool element 0 is not a morphism"):
        duality.converse_dual_direct(s, sp, pools, Limits())


def test_autofill_raises_on_a_miss(monkeypatch):
    s = constant_cspec()
    miss(monkeypatch, "f", n=1)
    with pytest.raises(SpectrumError, match=r"generator 0 on edge \(0, 2\)"):
        spectra.autofill_witnesses(s.fam, s.spaces)
