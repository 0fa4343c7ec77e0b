"""Edge witness tables: a spectrum holds the table it is given, and
`complete_witnesses` is the one builder that fills a table in, for the
description language and for `make_spectrum` alike.  The builder's
differential test against the two phases it replaced is in
`test_fastpaths.py`."""

from fractions import Fraction
from pathlib import Path

from bspec.dsl import elaborate, parse
from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.spectra import Spectrum, complete_witnesses, make_spectrum, validate_spectrum
from bspec.topology import BID, Bic, CBic, CGen, bconst, bmul, check_morphism

from structures import cspec

COVERS = (("0", "1"), ("1", "2"))


def _covers_of(s):
    return {e: dict(s.witness_certs[e]) for e in COVERS}


def _copy(table):
    return {e: dict(c) for e, c in table.items()}


def test_a_spectrum_never_writes_to_what_it_is_given():
    s = cspec()
    covers = _covers_of(s)
    before = _copy(covers)
    t = Spectrum(s.fam, s.spaces, covers, s.pool)
    assert covers == before
    assert ("0", "2") not in t.witness_certs
    # the builder returns a new table, sharing no edge's dict with covers
    got = complete_witnesses(s.fam, s.spaces, covers)
    assert covers == before
    assert got == s.witness_certs
    assert all(got[e] is not covers[e] for e in covers)


def test_two_spectra_on_one_dict_do_not_see_each_others_edges():
    s = cspec()
    shared = _covers_of(s)
    first = Spectrum(s.fam, s.spaces, shared, s.pool)
    second = Spectrum(s.fam, s.spaces, shared, s.pool)
    assert set(first.witness_certs) == set(second.witness_certs) == set(COVERS)


ONE = bmul(bconst(Fraction(1)), BID)

DOC = """\
setoid X {
  elements: p, q
}
directed C3 {
  elements: 0, 1, 2
  order: 0 <= 1, 1 <= 2
}
family F {
  index: C3
  direction: %s
  carrier 0: X
  carrier 1: X
  carrier 2: X
  map 0 -> 1: p => p, q => q
  map 1 -> 2: p => p, q => q
}
subbase FX {
  carrier: X
  gen f: p => 0, q => 1
}
spectrum S {
  family: F
  space 0: FX
  space 1: FX
  space 2: FX
  witness 0 -> 1 f: (bic (mul 1 id) (gen f))
  witness 1 -> 2 f: (bic (mul 1 id) (gen f))
}
"""


def test_make_spectrum_and_the_language_complete_alike():
    # the composite of two `1·f` covers is lifted on both paths, not
    # constructed afresh as the generator itself
    for direction in (COVARIANT, CONTRAVARIANT):
        s = elaborate(parse(DOC % direction)).spectra["S"]
        made = make_spectrum(s.fam, s.spaces, _covers_of(s), s.pool)
        assert made.witness_certs == s.witness_certs
        assert s.edge_witness("0", "2").certs == {0: CBic(ONE, CBic(ONE, CGen(0)))}


PARTIAL = Path(__file__).resolve().parent / "documents" / "partial-witnesses.bsp"


def test_the_lifted_composite_of_partial_witnesses_is_a_morphism():
    # the two covers certify different generators, and no check reads the
    # composite 0 -> 2; read here, its lift from the completed covers is a
    # valid witness
    s = elaborate(parse(PARTIAL.read_text(encoding="utf-8"))).spectra["PARTIAL"]
    assert set(s.witness_certs) == set(COVERS)
    w = s.edge_witness("0", "2")
    assert ("0", "2") in s.witness_certs
    assert check_morphism(s.space("0"), s.space("2"), w) == []


OFF_COVER = Path(__file__).resolve().parent / "documents" / "off-cover-tables.bsp"


def test_a_witness_off_the_covers_is_held_and_checked():
    # the spectrum holds the edges whose maps the family holds, 0 -> 2
    # among them, and the given 1 -> 3, kept as given and not lifted
    text = OFF_COVER.read_text(encoding="utf-8")
    s = elaborate(parse(text)).spectra["S"]
    assert sorted(s.witness_certs) == [("0", "1"), ("0", "2"), ("1", "2"), ("1", "3"), ("2", "3")]
    assert s.witness_certs[("1", "3")] == {0: CBic(Bic("id"), CGen(0))}
    assert validate_spectrum(s) == []
    # spoiled, it is found, and so is 0 -> 3, lifted through 1 from it
    spoiled = text.replace("witness 1 -> 3 g: (bic id (gen h))", "witness 1 -> 3 g: (bic id (gen k))")
    s = elaborate(parse(spoiled)).spectra["S"]
    assert [(f.law, f.witness[:2]) for f in validate_spectrum(s)] == [
        ("edge-witness-certificate", ("0", "3")), ("edge-witness-certificate", ("1", "3"))]
