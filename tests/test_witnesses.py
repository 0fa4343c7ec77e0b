"""Edge witness tables: a spectrum holds the table it is given, and
`complete_witnesses` is the one builder that fills a table in, for the
description language and for `make_spectrum` alike.  The builder's
differential test against the two phases it replaced is in
`test_fastpaths.py`."""

from fractions import Fraction

from bspec.dsl import elaborate, parse
from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.spectra import Spectrum, complete_witnesses, make_spectrum
from bspec.topology import BID, CBic, CGen, bconst, bmul

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
