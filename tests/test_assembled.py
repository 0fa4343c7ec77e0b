"""Certificates the kernel reads off what it already holds, against the
search and the walk they replaced (kept in tests/oracles.py).

A limit's own legs are assembled from the limit's certificates: a thread's
component over a direct limit, the limit generator a column equals over an
inverse one.  They must give the maps and certificates of the search,
`own_legs_search`, on every document, fixture and seeded random spectrum of
both directions.  Over an empty carrier whose space has no generator the
search makes the constant 0, where the legs keep the thread's pool
constant; both conclude the one empty table.

A generator or constant leaf is validated by one table comparison when it
holds; every report must equal the tree walk's, `validate_certificate_walk`,
on what the fixture corpus certifies and on leaves that fail.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from bspec import topology
from bspec.dsl import elaborate, parse
from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.limits import Limits, own_legs
from bspec.report import KernelError
from bspec.runner import run_suite
from bspec.setoid import discrete, make_setoid
from bspec.spectra import constant_spectrum
from bspec.topology import CAdd, CConst, CGen, RFun, space, validate_certificate

from oracles import outcome, own_legs_search, validate_certificate_walk
from randgen import product_with, random_spectrum, thicken_spectrum
from structures import chain3, constant_cspec, cspec, x2_space

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted([*ROOT.glob("fixtures/*.bsp"), *ROOT.glob("tests/documents/*.bsp")])


def _limit(s):
    lims = Limits()
    return lims.direct(s) if s.direction == COVARIANT else lims.inverse(s)


def _legs_agree(s):
    """Whether the assembled legs of s's limit are the search's; False
    when the limit cannot be built, so there is nothing to compare."""
    try:
        lim = _limit(s)
    except KernelError:
        return False
    new, old = own_legs(lim), own_legs_search(lim)
    assert new.apex is old.apex is lim.space
    assert new.legs.keys() == old.legs.keys()
    for i, w in new.legs.items():
        v = old.legs[i]
        assert (w.h.dom, w.h.cod, w.h.mapping) == (v.h.dom, v.h.cod, v.h.mapping)
        sp = s.space(i)
        if not sp.carrier.elements and not sp.gens:
            assert {type(c) for c in [*w.certs.values(), *v.certs.values()]} <= {CConst}
            assert w.certs.keys() == v.certs.keys()
        else:
            assert w.certs == v.certs
    return True


def _contravariant_x2():
    return constant_spectrum(chain3(), x2_space(), (0, 1), direction=CONTRAVARIANT)


@pytest.mark.parametrize("make", [cspec, constant_cspec, _contravariant_x2],
                         ids=lambda f: f.__name__)
def test_own_legs_of_fixture_spectra_are_the_search(make):
    assert _legs_agree(make())


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_own_legs_of_document_spectra_are_the_search(path):
    env = elaborate(parse(path.read_text(encoding="utf-8")))
    assert sum(_legs_agree(s) for s in env.spectra.values())


def test_own_legs_over_an_empty_carrier_take_the_pool_constant():
    path = ROOT / "tests" / "documents" / "empty-carriers.bsp"
    s = elaborate(parse(path.read_text(encoding="utf-8"))).spectra["SU"]
    lim = _limit(s)
    assert own_legs(lim).legs["0"].certs == {0: CConst(Fraction(1)),
                                             1: CConst(Fraction(1))}
    assert own_legs_search(lim).legs["0"].certs == {0: CConst(Fraction(0)),
                                                    1: CConst(Fraction(0))}


@pytest.mark.parametrize("direction", [COVARIANT, CONTRAVARIANT])
def test_own_legs_of_random_spectra_are_the_search(direction):
    rng = random.Random(44 if direction == COVARIANT else 440)
    compared = 0
    for n in range(60):
        s = random_spectrum(rng, direction=direction)
        if n % 3 == 1:
            s = thicken_spectrum(rng, s)[0]
        elif n % 3 == 2:
            s = product_with(rng, s)[0]
        compared += _legs_agree(s)
    assert compared >= 50


# --- leaf validation -------------------------------------------------------------

def _report(rep):
    return rep.ok, rep.witnessed, rep.findings


def _agree(sp, f, c):
    """Both validations of c against f over sp, the same report or the
    same exception."""
    new = outcome(validate_certificate, sp, f, c)
    old = outcome(validate_certificate_walk, sp, f, c)
    new, old = [(kind, _report(v)) if kind == "value" else (kind, v)
                for kind, v in (new, old)]
    assert new == old
    return new


def test_leaf_validation_is_the_walk_on_the_fixture_corpus(monkeypatch):
    seen = []
    real = topology.validate_certificate

    def record(sp, f, c):
        seen.append((sp, f, c))
        return real(sp, f, c)

    monkeypatch.setattr(topology, "validate_certificate", record)
    for path in DOCUMENTS:
        run_suite(parse(path.read_text(encoding="utf-8")))
    monkeypatch.undo()
    leaves = [(sp, f, c) for sp, f, c in seen if type(c) in (CGen, CConst)]
    assert len(leaves) > 100 and len(seen) > len(leaves)
    for sp, f, c in seen:
        _agree(sp, f, c)


def _leaf_space():
    carrier = discrete(["a", "b", "c"])
    return space(carrier, [RFun(carrier, {"a": 0, "b": 1, "c": 1}),
                           RFun(carrier, {"a": 2, "b": 2, "c": 2})], ["f", "two"])


@pytest.mark.parametrize("c, ok", [
    (CGen(0), True),
    (CGen(2), False),  # out of range: a `conclusion` finding
    (CGen(-1), False),
    (CGen(1), False),  # another table: a `value-mismatch` witness
    (CConst(Fraction(2)), False),  # f is not constant
    (CAdd(CGen(0), CConst(Fraction(0))), True),
])
def test_leaf_validation_is_the_walk_on_f(c, ok):
    sp = _leaf_space()
    assert _agree(sp, sp.gens[0], c)[1][0] is ok


@pytest.mark.parametrize("c, ok", [
    (CConst(Fraction(2)), True),
    (CConst(2), True),  # not a Fraction: the walk converts it
    (CConst(2.0), True),
    (CConst("2"), True),
    (CConst(Fraction(3)), False),
    (CGen(1), True),
])
def test_leaf_validation_is_the_walk_on_a_constant(c, ok):
    sp = _leaf_space()
    assert _agree(sp, sp.gens[1], c)[1][0] is ok


def test_leaf_validation_is_the_walk_on_a_constant_off_at_one_element():
    sp = _leaf_space()
    off = RFun(sp.carrier, {"a": 2, "b": 2, "c": 3})
    kind, (ok, _, findings) = _agree(sp, off, CConst(Fraction(2)))
    assert not ok and [(f.law, f.witness) for f in findings] == [
        ("value-mismatch", ("c", "3", "2"))]


def test_leaf_validation_is_the_walk_on_an_unconvertible_constant():
    sp = _leaf_space()
    assert _agree(sp, sp.gens[1], CConst(None))[0] is TypeError


@pytest.mark.parametrize("gens", [0, 1])
@pytest.mark.parametrize("c", [CGen(0), CConst(Fraction(5)), CConst(5), CConst(None)])
def test_leaf_validation_is_the_walk_on_an_empty_carrier(gens, c):
    carrier = make_setoid([], empty=True)
    sp = space(carrier, [RFun(carrier, {})] * gens)
    _agree(sp, RFun(carrier, {}), c)


def test_a_leaf_that_holds_is_decided_without_the_walk(monkeypatch):
    def refuse(sp, c):
        raise AssertionError("walked")

    monkeypatch.setattr(topology, "cert_conclusion", refuse)
    sp = _leaf_space()
    assert validate_certificate(sp, sp.gens[0], CGen(0)).ok
    assert validate_certificate(sp, sp.gens[1], CConst(Fraction(2))).ok
    with pytest.raises(AssertionError, match="walked"):
        validate_certificate(sp, sp.gens[0], CGen(1))
