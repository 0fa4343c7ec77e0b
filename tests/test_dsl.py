import sys
from pathlib import Path

import pytest

from bspec import dsl, runner
from bspec.dsl import (
    SEXPR_DEPTH,
    DslError,
    SyntaxErrorDsl,
    TypeMismatch,
    UnresolvedReference,
    elaborate,
    parse,
)
from bspec.spectra import validate_spectrum
from bspec.topology import CAdd

FIXTURES = sorted(Path(__file__).resolve().parent.parent.glob("fixtures/*.bsp"))


def print_document(doc):
    """Canonical re-emission; parse(print_document(d)) equals d."""
    lines = []
    for b in doc.blocks:
        lines.append(f"{b.kind} {b.name} {{")
        for s in b.stmts:
            head = " ".join((s.key,) + s.args)
            lines.append(f"  {head}: {s.value}")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


def documents_equal(a, b):
    ka = [(blk.kind, blk.name,
           [(s.key, s.args, s.value) for s in blk.stmts]) for blk in a.blocks]
    kb = [(blk.kind, blk.name,
           [(s.key, s.args, s.value) for s in blk.stmts]) for blk in b.blocks]
    return ka == kb


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
    s = env.spectra["CSPEC"]
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
    assert elaborate(again).spectra["CSPEC"].fam.carrier("0").elements == ("a", "b")


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


# One block of every kind that names another, and a suite whose checks
# name blocks; each case below points one reference at a missing block.
REFERENCES = """\
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
family G {
  index: D
  direction: contravariant
  carrier 0: X
  carrier 1: X
  map 0 -> 1: p => p, q => q
}
subbase FX {
  carrier: X
  gen f: p => 0, q => 1
}
certificate C {
  over: FX
  expr: (gen f)
}
spectrum S {
  family: F
  space 0: FX
  space 1: FX
  witness 0 -> 1 f: (gen f)
}
spectrum T {
  family: G
  space 0: FX
  space 1: FX
}
cofinal K {
  directed: D
  members: 1
  cof: 0 => 1, 1 => 1
}
cocone CC {
  spectrum: S
  apex: FX
  leg 0: p => p, q => q
  leg 1: p => p, q => q
}
cone CN {
  spectrum: T
  apex: FX
  leg 0: p => p, q => q
  leg 1: p => p, q => q
}
pool P {
  spectrum: S
  space: FX
}
suite main {
  check: family F
}
"""


def _dangling(block, key, value):
    """REFERENCES with the first `key` line of `block` reading `value`, and
    that line's number."""
    lines = REFERENCES.splitlines()
    start = lines.index(block + " {")
    n = next(n for n in range(start, len(lines)) if lines[n].strip().startswith(key))
    lines[n] = lines[n].split(":")[0] + ": " + value
    return "\n".join(lines) + "\n", n + 1


def test_the_reference_document_runs():
    assert not runner.run_suite(parse(REFERENCES)).failed


@pytest.mark.parametrize("block, key, value, message", [
    ("family F", "index", "Missing", "no directed block named 'Missing'"),
    ("family F", "carrier", "Missing", "no setoid named 'Missing'"),
    ("subbase FX", "carrier", "Missing", "no setoid named 'Missing'"),
    ("certificate C", "over", "Missing", "no subbase named 'Missing'"),
    ("certificate C", "expr", "(gen g)", "no generator named 'g'"),
    ("spectrum S", "family", "Missing", "no family named 'Missing'"),
    ("spectrum S", "space", "Missing", "no subbase named 'Missing'"),
    ("spectrum S", "witness 0 -> 1 f", "(gen g)", "no generator named 'g'"),
    ("cofinal K", "directed", "Missing", "no directed block named 'Missing'"),
    ("cocone CC", "spectrum", "Missing", "no spectrum named 'Missing'"),
    ("cocone CC", "apex", "Missing", "no subbase named 'Missing'"),
    ("cone CN", "spectrum", "Missing", "no spectrum named 'Missing'"),
    ("cone CN", "apex", "Missing", "no subbase named 'Missing'"),
    ("pool P", "spectrum", "Missing", "no spectrum named 'Missing'"),
    ("pool P", "space", "Missing", "no subbase named 'Missing'"),
])
def test_each_elaborated_reference_is_refused_at_its_line(block, key, value, message):
    text, line = _dangling(block, key, value)
    with pytest.raises(UnresolvedReference) as err:
        elaborate(parse(text))
    assert type(err.value) is UnresolvedReference
    assert str(err.value) == f"{line}:0: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("stray, pair", [
    ("witness 1 -> 0: auto", "(1, 0)"),  # against the order
    ("witness 0 -> 0: auto", "(0, 0)"),  # a loop
    ("witness 0 -> 7 f: (gen f)", "(0, 7)"),  # an index the family lacks
])
def test_a_witness_line_off_the_edges_is_refused_at_its_line(stray, pair):
    given = "  witness 0 -> 1 f: (gen f)"
    text = REFERENCES.replace(given + "\n", f"{given}\n  {stray}\n")
    with pytest.raises(UnresolvedReference) as err:
        elaborate(parse(text))
    line = REFERENCES.splitlines().index(given) + 2
    assert str(err.value) == (
        f"{line}:0: witness edge {pair} is not an order pair i <= j with i != j")


SUITE_REFERENCES = [
    ("family Missing", "no family named 'Missing'"),
    ("directed Missing", "no directed block named 'Missing'"),
    ("spectrum Missing", "no spectrum named 'Missing'"),
    ("universal-direct S Missing", "no cocone named 'Missing'"),
    ("universal-inverse T Missing", "no cone named 'Missing'"),
    ("cofinal S Missing", "no cofinal block named 'Missing'"),
    ("duality Missing", "no pool named 'Missing'"),
    ("duality2 Missing", "no pool named 'Missing'"),
    ("converse-duals Missing", "no pool named 'Missing'"),
]


@pytest.mark.parametrize("check, message", SUITE_REFERENCES)
def test_each_suite_reference_is_refused_at_its_line(check, message):
    text, line = _dangling("suite main", "check", check)
    with pytest.raises(UnresolvedReference) as err:
        runner.run_suite(parse(text))
    assert type(err.value) is UnresolvedReference
    assert str(err.value) == f"{line}:0: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("check, message", SUITE_REFERENCES)
def test_each_suite_reference_is_refused_without_a_line(check, message):
    # the names of a check given outside a document, as `bspec iso` gives
    # them, are resolved by the same function, with no line to refuse at
    kind, *names = check.split()
    with pytest.raises(UnresolvedReference) as err:
        runner.resolve_check(elaborate(parse(REFERENCES)), kind, tuple(names))
    assert type(err.value) is UnresolvedReference
    assert str(err.value) == message
    assert err.value.line is None


def test_a_missing_suite_is_refused_without_a_line():
    with pytest.raises(UnresolvedReference) as err:
        runner.run_suite(parse(REFERENCES), "Missing")
    assert str(err.value) == "no suite named 'Missing'"
    assert err.value.line is None


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
    s = env.spectra["SWAP"]
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

    sp = env.subbases["FX"]
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
    s = elaborate(parse(text)).spectra["S"]
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


@pytest.mark.parametrize("text, line, message", [
    ("setoid E {\n  elements:\n}\n", 2,
     "no elements listed; an empty setoid says 'empty: true'"),
    ("directed D {\n  elements: 0\n}\ncofinal C {\n  directed: D\n  members:\n"
     "  cof: 0 => 0\n}\n", 6, "a cofinal block needs at least one member"),
    ("suite main {\n  check:\n}\n", 2, "empty check line"),
], ids=["setoid", "cofinal", "check"])
def test_an_empty_list_is_refused_in_the_documents_terms(text, line, message):
    # the kernel's own wording, "pass empty=True if intended", is advice
    # for a Python caller
    with pytest.raises(runner.DslError) as err:
        runner.run_suite(parse(text))
    assert (err.value.line, str(err.value)) == (line, f"{line}:0: {message}")


def test_a_duplicate_block_is_refused_at_its_own_header():
    text = ("setoid A {\n  elements: a\n}\n"
            "directed A {\n  elements: 0\n}\n"
            "setoid B {\n  elements: b\n}\n"
            "  setoid A {\n  elements: c\n}\n")
    with pytest.raises(SyntaxErrorDsl) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (10, 1)
    assert str(err.value) == "10:1: duplicate block setoid A"
    # the same name in another kind of block is no duplicate
    assert [b.kind for b in parse(text[:text.index("  setoid A")]).blocks] == [
        "setoid", "directed", "setoid"]


CERTIFICATE = """\
setoid X {
  elements: p, q
}
subbase FX {
  carrier: X
  gen f: p => 0, q => 1
}
certificate C {
  over: FX
  expr: EXPR
}
"""


@pytest.mark.parametrize("expr, message", [
    ("(gen)", "(gen ...) takes 1 operand, got 0"),
    ("(const)", "(const ...) takes 1 operand, got 0"),
    ("()", "certificate () has no head word"),
    ("((gen f))", "certificate ((gen f)) has no head word"),
    ("(add (gen f))", "(add ...) takes 2 operands, got 1"),
    ("(bic (add id) (gen f))", "(add ...) takes 2 operands, got 1"),
    ("(bic (id 1) (gen f))", "(id ...) takes 0 operands, got 1"),
    ("(bic () (gen f))", "expression () has no head word"),
    ("(eq (gen f))", "(eq ...) takes 2 operands, got 1"),
    ("(eq (gen f) ())", "expected a (table ...) node"),
    ("(ulim)", "(ulim ...) takes one or more operands, got 0"),
    ("(ulim (table p => 0, q => 1) (w))", "uniform-limit witnesses are (w n CERT)"),
    ("(ulim (table p => 0, q => 1) (w x (gen f)))", "not an integer: 'x'"),
    ("(ulim (table p => 0, q => 1) (w (1) (gen f)))", "not an integer: '(1)'"),
    ("(ulim (table p => (0), q => 1))", "not a rational: '(0)'"),
    ("(const (1))", "not a rational: '(1)'"),
    ("(const x)", "not a rational: 'x'"),
    ("(bic x (gen f))", "not a rational: 'x'"),
    ("(gen f g)", "(gen ...) takes 1 operand, got 2"),
    ("(gen (f))", "(f) is not a generator name"),
])
def test_a_malformed_certificate_is_refused_at_its_line(expr, message):
    text = CERTIFICATE.replace("EXPR", expr)
    line = text.splitlines().index(f"  expr: {expr}") + 1
    with pytest.raises(TypeMismatch) as err:
        elaborate(parse(text))
    assert str(err.value) == f"{line}:0: {message}"


def _nested(depth):
    """A certificate expression nested `depth` deep: (add (const 0) ...)
    around (gen f), whose innermost (const 0) and (gen f) sit one deeper."""
    return "(add (const 0) " * (depth - 1) + "(gen f)" + ")" * (depth - 1)


def test_an_expression_at_the_depth_bound_builds_and_one_deeper_is_refused():
    env = elaborate(parse(CERTIFICATE.replace("EXPR", _nested(SEXPR_DEPTH))))
    assert isinstance(env.certificates["C"], CAdd)
    text = CERTIFICATE.replace("EXPR", _nested(SEXPR_DEPTH + 1))
    with pytest.raises(SyntaxErrorDsl) as err:
        elaborate(parse(text))
    assert str(err.value) == "10:0: expression nested deeper than SEXPR_DEPTH = 256"


@pytest.mark.parametrize("text, line, col, message", [
    ("setoid S {\n  elements: a, b,\n}\n", 2, 3, "empty element name in 'a, b,'"),
    ("setoid S {\n  elements: ,\n}\n", 2, 3, "empty element name in ','"),
    ("directed D {\n    elements: 0, , 1\n}\n", 2, 5,
     "empty element name in '0, , 1'"),
    ("directed D {\n  elements: 0, 1, 2\n  order: 0 <= 2, 1 <= 2\n}\n"
     "cofinal C {\n  directed: D\n  members: 0, 2,\n  cof: 0 => 2, 1 => 2, 2 => 2\n}\n",
     7, 3, "empty member name in '0, 2,'"),
], ids=["setoid", "setoid-only-comma", "directed", "cofinal"])
def test_an_empty_list_item_is_refused_at_its_line_and_column(text, line, col, message):
    # parse_names keeps an empty item, which was an element named ''
    with pytest.raises(SyntaxErrorDsl) as err:
        elaborate(parse(text))
    assert (err.value.line, err.value.col, str(err.value)) == (
        line, col, f"{line}:{col}: {message}")


def test_a_recursion_error_while_elaborating_is_refused_at_its_block(monkeypatch):
    # the guard in dsl._at: a builder that recurses past the interpreter's
    # limit is refused at the block it builds, naming that limit.  Nothing
    # is lifted while elaborating, so the error is injected.
    def recurse(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(dsl, "complete_witnesses", recurse)
    text = (Path(__file__).resolve().parent / "documents" / "partial-witnesses.bsp").read_text()
    line = text.splitlines().index("spectrum PARTIAL {") + 1
    with pytest.raises(DslError) as err:
        elaborate(parse(text))
    assert str(err.value) == (f"{line}:0: recursion deeper than "
                              f"sys.getrecursionlimit() = {sys.getrecursionlimit()}")
