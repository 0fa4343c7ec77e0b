from pathlib import Path

import pytest

from bspec.dsl import (
    SyntaxErrorDsl,
    TypeMismatch,
    UnresolvedReference,
    documents_equal,
    elaborate,
    parse,
    print_document,
)
from bspec.spectra import validate_spectrum

FIXTURES = sorted(Path(__file__).resolve().parent.parent.glob("fixtures/*.bsp"))


def test_fixture_corpus_exists():
    assert len(FIXTURES) >= 4


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_round_trip(path):
    doc = parse(path.read_text())
    text = print_document(doc)
    again = parse(text)
    assert documents_equal(doc, again)
    assert print_document(again) == text


def test_empty_document():
    doc = parse("")
    assert doc.blocks == []
    assert print_document(doc) == ""


def test_cspec_document_shape():
    doc = parse((FIXTURES[0].parent / "cspec.bsp").read_text())
    assert len(doc.of_kind("directed")) == 1
    assert len(doc.of_kind("family")) == 1
    assert len(doc.of_kind("subbase")) == 4
    assert len(doc.of_kind("spectrum")) == 1


def test_elaborate_cspec():
    text = (FIXTURES[0].parent / "cspec.bsp").read_text()
    doc = parse(text)
    env = elaborate(doc)
    s = env.spectrum("CSPEC")
    assert validate_spectrum(s) == []
    assert s.fam.carrier("0").elements == ("a", "b")
    # a comment runs from the first '#' to the end of its line, wherever
    # that '#' is and however many follow it
    commented = text.replace("setoid A0 {\n  elements: a, b\n",
                             "#setoid X {\nsetoid A0 {\n## a, b, c\n"
                             "  elements: a, b # , c\n  #elements: c\n")
    assert commented != text
    again = parse(commented)
    assert documents_equal(doc, again)
    assert elaborate(again).spectrum("CSPEC").fam.carrier("0").elements == ("a", "b")


def test_syntax_error_locations():
    with pytest.raises(SyntaxErrorDsl) as err:
        parse("setoid A {\n  elements a, b\n}\n")
    assert err.value.line == 2
    # comment lines keep their numbers; a '#' cuts the rest of its line
    with pytest.raises(SyntaxErrorDsl) as err:
        parse("# one\n## two\nsetoid A { # three\n  elements a, b # four: c\n}\n")
    assert err.value.line == 4
    with pytest.raises(SyntaxErrorDsl) as err:
        parse("setoid A {\n  elements: a\n")
    assert err.value.line == 1
    with pytest.raises(SyntaxErrorDsl):
        parse("blob A {\n}\n")


def test_unresolved_reference():
    text = """\
directed D {
  elements: 0
}
family F {
  index: D
  carrier 0: Missing
}
"""
    with pytest.raises(UnresolvedReference) as err:
        elaborate(parse(text))
    assert err.value.line == 6


def test_dangling_spectrum_family():
    text = """\
spectrum S {
  family: Missing
}
"""
    with pytest.raises(UnresolvedReference):
        elaborate(parse(text))


def test_type_mismatch_on_bad_rational():
    text = """\
setoid A {
  elements: x
}
subbase F {
  carrier: A
  gen f: x => one
}
"""
    with pytest.raises(TypeMismatch):
        elaborate(parse(text))


def test_certificate_block_and_auto_witness():
    text = """\
setoid X {
  elements: p, q
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family SWAPF {
  index: D
  direction: covariant
  carrier 0: X
  carrier 1: X
  map 0 -> 1: p => q, q => p
}
subbase FX {
  carrier: X
  gen f: p => 0, q => 1
}
certificate ONE_MINUS {
  over: FX
  expr: (bic (add (const 1) (neg id)) (gen f))
}
spectrum SWAP {
  family: SWAPF
  space 0: FX
  space 1: FX
  pool: 0, 1
  witness 0 -> 1: auto
}
"""
    env = elaborate(parse(text))
    from bspec.topology import CBic

    assert isinstance(env.certificates["ONE_MINUS"], CBic)
    s = env.spectrum("SWAP")
    assert validate_spectrum(s) == []


def test_explicit_eq_and_ulim_certificates():
    text = """\
setoid X {
  elements: p, q
}
subbase FX {
  carrier: X
  gen f: p => 0, q => 1
}
certificate VIA_EQ {
  over: FX
  expr: (eq (gen f) (table p => 0, q => 1))
}
certificate VIA_ULIM {
  over: FX
  expr: (ulim (table p => 0, q => 1) (w 1 (gen f)) (w 2 (gen f)))
}
"""
    env = elaborate(parse(text))
    from bspec.topology import RFun, validate_certificate

    sp = env.space("FX")
    f = RFun(sp.carrier, {"p": 0, "q": 1})
    assert validate_certificate(sp, f, env.certificates["VIA_EQ"]).ok
    rep = validate_certificate(sp, f, env.certificates["VIA_ULIM"])
    assert rep.ok and rep.witnessed


def test_contravariant_edge_constructs_the_unwritten_witnesses():
    # the transport of 0 <= 1 runs from the carrier at 1 to the one at 0,
    # so its certificates prove the two generators at 0; only one of them
    # is written out, and the subbase at 1 has a single generator
    text = """\
setoid X0 {
  elements: a, b
}
setoid X1 {
  elements: u, v, w
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family F {
  index: D
  direction: contravariant
  carrier 0: X0
  carrier 1: X1
  map 0 -> 1: u => a, v => b, w => b
}
subbase G0 {
  carrier: X0
  gen g: a => 0, b => 1
  gen h: a => 1, b => 0
}
subbase G1 {
  carrier: X1
  gen k: u => 0, v => 1, w => 1
}
spectrum S {
  family: F
  space 0: G0
  space 1: G1
  witness 0 -> 1 g: (gen k)
}
"""
    s = elaborate(parse(text)).spectrum("S")
    assert sorted(s.witness_certs[("0", "1")]) == [0, 1]
    assert validate_spectrum(s) == []


def test_malformed_ulim_witness_fails_the_spectrum_check():
    # the uniform-limit table misses q: the edge check reports it as a
    # finding instead of the run stopping with an error
    from bspec.runner import run_suite

    text = """\
setoid X {
  elements: p, q
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family F {
  index: D
  carrier 0: X
  carrier 1: X
  map 0 -> 1: p => p, q => q
}
subbase G {
  carrier: X
  gen f: p => 0, q => 1
}
spectrum S {
  family: F
  space 0: G
  space 1: G
  witness 0 -> 1 f: (ulim (table p => 0) (w 1 (gen f)))
}
suite main {
  check: spectrum S
}
"""
    records = run_suite(parse(text)).records
    assert [(r.law, r.status) for r in records] == [
        ("spectrum.S.edge-witnesses", "fail"),
        ("spectrum.S.composite-witnesses", "skipped")]
    assert "ulim-table at q" in str(records[0].witness)
    assert records[1].witness == ("edge witnesses failed",)


@pytest.mark.parametrize("old, new", [
    ("  elements: p, q\n", "  elements: p, q\n  empty: maybe\n"),
    ("  closure: auto\n", "  closure: none\n"),
], ids=["empty", "closure"])
def test_odd_setoid_and_directed_lines_are_refused_with_their_line(
        tmp_path, capsys, old, new):
    # `empty: maybe` was read as false, and any closure but auto left the
    # order unclosed, so the index failed with an unrelated missing bound
    from bspec.cli import main

    text = (FIXTURES[0].parent / "constant.bsp").read_text().replace(old, new, 1)
    odd = new.splitlines()[-1]
    line = text.splitlines().index(odd) + 1
    doc = tmp_path / "odd.bsp"
    doc.write_text(text)
    assert main(["check", str(doc)]) == 2
    key, value = odd.strip().split(": ")
    assert f"bspec: {line}:0: unknown {key} {value!r}" in capsys.readouterr().err


def test_empty_true_elaborates_an_empty_setoid():
    env = elaborate(parse("setoid E {\n  elements:\n  empty: true\n}\n"))
    assert len(env.setoids["E"]) == 0
