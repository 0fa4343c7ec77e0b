import argparse
import importlib
import json
from pathlib import Path

import pytest

from bspec.cli import build_parser, main
from bspec.report import Report, emit_report

FIXTURES = sorted(Path(__file__).resolve().parent.parent.glob("fixtures/*.bsp"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_check_exits_zero_on_fixtures(path, capsys):
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_check_reports_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bsp"
    bad.write_text("""\
setoid X2 {
  elements: p, q
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family F {
  index: D
  carrier 0: X2
  carrier 1: X2
  map 0 -> 1: p => p, q => q
}
subbase FX {
  carrier: X2
  gen f: p => 0, q => 1
}
spectrum S {
  family: F
  space 0: FX
  space 1: FX
  witness 0 -> 1 f: (gen f)
}
cofinal BADCOF {
  directed: D
  members: 0
  cof: 0 => 0, 1 => 0
}
suite main {
  check: cofinal S BADCOF
}
""")
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "cof3" in out


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.bsp"
    f.write_text("setoid A {\n  elements a b\n}\n")
    assert main(["check", str(f)]) == 2
    assert "2:" in capsys.readouterr().err


# Spectra whose space lines do not give each index one space over the
# family's carrier there, a pool whose shape its check does not read, a
# spectrum with an edge no certificate proves, malformed certificate
# expressions, map, gen, cof and leg lines whose table the kernel refuses,
# elements and members lines the kernel refuses as a carrier, equal and
# order lines naming an unlisted element, an order that is not directed,
# check lines naming no check kind, too many or too few names, an unknown
# name, legs over another spectrum or a cofinal block over another index,
# and families with a transport missing or two paths that disagree: (the
# refused line, the message).
HOSTILE = sorted(Path(__file__).resolve().parent.glob("hostile/*.bsp"))
REFUSALS = {
    "certificate-arity": ("witness 1 -> 2 f: (gen f f)", "(gen ...) takes 1 operand, got 2"),
    "certificate-empty": ("expr: ()", "certificate () has no head word"),
    "cofinal-over-another-index": ("check: cofinal S EVENS",
                                   "cofinal EVENS is over OTHER, not D, the index of S"),
    "cof-codomain": ("cof: 0 => 0, 1 => 1, 2 => 2", "value '1' of '1' not in codomain"),
    "check-extra-name": ("check: spectrum S S", "check spectrum takes 'SPECTRUM'"),
    "check-missing-name": ("check: cofinal S", "check cofinal takes 'SPECTRUM COFINAL'"),
    "check-unknown-name": ("check: limit-direct NOPE", "no spectrum named 'NOPE'"),
    "coarser-equality": ("space 0: FX2C",
                         "subbase 'FX2C' is not over the carrier at index '0'"),
    "disagreeing-paths": ("family SWAP {", "family-composition at a, c, d"),
    "duplicate-element": ("elements: p, q, p", "duplicate element 'p'"),
    "duplicate-member": ("members: 0, 2, 2", "duplicate element '2'"),
    "duplicate-space": ("space 1: FX2", "duplicate space line for index '1'"),
    "empty-elements": ("elements:", "a directed block needs at least one element"),
    "foreign-setoid": ("space 1: FY2", "subbase 'FY2' is not over the carrier at index '1'"),
    "foreign-setoid-auto": ("space 1: FY2",
                            "subbase 'FY2' is not over the carrier at index '1'"),
    "gen-not-total": ("gen f: p => 0", "function not total, missing 'q'"),
    "legs-over-another-spectrum": ("check: universal-direct S SWAP",
                                   "cocone SWAP is over T, not S"),
    "leg-codomain": ("leg 1: p => p, q => z", "value 'z' of 'q' not in codomain"),
    "map-codomain": ("map 1 -> 2: p => p, q => z", "value 'z' of 'q' not in codomain"),
    "missing-cover-map": ("family CONSTX2 {",
                          "no transport derivable for [('0', '2'), ('1', '2')]"),
    "missing-space": ("spectrum EOSPEC {", "no space line for index '2'"),
    "not-directed": ("order: 0 <= 1", "no upper bound for (0, 2)"),
    "pool-shape": ("pool PCONV {", "pool PCONV has shape hom-into-fixed, but duality2 "
                   "over the contravariant REV needs hom-out-of-fixed"),
    "uncertifiable-edge": ("spectrum S {",
                           "no certificate found for generator 0 on edge (0, 1)"),
    "ulim-witness": ("witness 0 -> 1 f: (ulim (table p => 0, q => 1) (w x (gen f)))",
                     "not an integer: 'x'"),
    "unknown-check-kind": ("check: frobnicate", "unknown check kind 'frobnicate'"),
    "unknown-equal-element": ("equal: p ~ z",
                              "equality pair (p, z) mentions unknown element"),
    "unknown-index": ("space 7: FX2", "space for unknown index '7'"),
    "unknown-order-element": ("order: 0 <= 7", "'7' not in carrier"),
}


@pytest.mark.parametrize("path", HOSTILE, ids=lambda p: p.stem)
def test_space_lines_not_matching_the_family_are_refused(path, capsys):
    refused, message = REFUSALS[path.stem]
    lines = path.read_text(encoding="utf-8").splitlines()
    # the last match: a duplicate line is refused where it repeats
    line = max(n for n, text in enumerate(lines, start=1) if text.strip() == refused)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"bspec: {line}:0: {message}\n"


KERNEL = ("setoid", "order", "families", "topology", "spectra", "limits", "duality")


def test_every_kernel_error_is_a_kernel_error():
    """A caller of the Python API catches one class, and so does `main`:
    an error class a kernel module defines outside it would escape as a
    traceback."""
    import bspec

    defined = [cls for m in KERNEL
               for cls in vars(importlib.import_module(f"bspec.{m}")).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == f"bspec.{m}"]
    assert {cls.__name__ for cls in defined} >= {
        "SetoidError", "OrderError", "FamilyError", "TopologyError",
        "SpectrumError", "LimitError", "DualityError", "NotDirected",
        "MissingCertificate", "NonUnique", "PoolNotClosed"}
    assert [cls for cls in defined if not issubclass(cls, bspec.KernelError)] == []


def test_a_kernel_refusal_outside_a_document_exits_two(monkeypatch, capsys):
    from bspec import cli
    from bspec.limits import NonUnique

    def refuse(*args):
        raise NonUnique("a second cone mediator satisfies all triangles")

    monkeypatch.setattr(cli, "cmd_limit", refuse)
    assert main(["limit", str(FIXTURES[0]), "--direct", "CONST"]) == 2
    assert capsys.readouterr().err == "bspec: a second cone mediator satisfies all triangles\n"


def test_witnesses_given_for_different_generators_complete(capsys):
    """Each edge of a chain certifies a different generator, so the
    composite cannot be lifted whole: the rest is certified on the edge."""
    path = Path(__file__).resolve().parent / "documents" / "partial-witnesses.bsp"
    assert main(["check", str(path)]) == 0
    assert "5 passed, 0 failed, 0 skipped" in capsys.readouterr().out


def test_a_contravariant_spectrum_passes_the_default_suite(capsys):
    """With no suite block, a valid contravariant spectrum gets its family
    and spectrum laws checked, and no covariant-only sum equality."""
    path = Path(__file__).resolve().parent / "documents" / "contravariant-default-suite.bsp"
    assert main(["check", str(path)]) == 0
    assert "5 passed, 0 failed, 0 skipped" in capsys.readouterr().out


# Element names that decode as compound elements.  Without the guard the
# inverse limit of this spectrum has one choice where there are two, and its
# top-determinacy law fails.
COLLIDING = """\
setoid A {
  elements: a&b, a
}
setoid B {
  elements: c, b&c
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family F {
  index: D
  direction: contravariant
  carrier 0: A
  carrier 1: B
  map 0 -> 1: c => a&b, b&c => a
}
subbase GA {
  carrier: A
  gen g: a&b => 0, a => 1
}
subbase GB {
  carrier: B
  gen h: c => 0, b&c => 1
}
spectrum S {
  family: F
  space 0: GA
  space 1: GB
  witness 0 -> 1 g: (gen h)
}
suite main {
  check: limit-inverse S
}
"""


def test_compound_characters_in_element_names_stay_distinct(tmp_path, capsys):
    # the two choices render as "a&b&c" both, but are distinct tuples
    f = tmp_path / "colliding.bsp"
    f.write_text(COLLIDING)
    assert main(["check", str(f), "--json", "-"]) == 0
    checks = json.loads(capsys.readouterr().out.splitlines()[-1])["checks"]
    assert [(c["law"], c["status"], c["witness"]) for c in checks] == [
        ("limit.S.top-determinacy", "pass", []),
        ("limit.S.export", "pass", ["choices=2", "gens=1"])]


@pytest.mark.parametrize("ch", list("@&()"))
@pytest.mark.parametrize("block", ["setoid", "directed"])
def test_reserved_characters_are_refused_with_their_line(block, ch):
    from bspec.dsl import DslError, elaborate, parse

    order = f"  order: p <= q{ch}r\n" if block == "directed" else ""
    text = f"# {block}\n{block} X {{\n  elements: p, q{ch}r\n{order}}}\n"
    if ch in "@&":  # compound elements are tuples, so these names are safe
        env = elaborate(parse(text))
        blocks = env.setoids if block == "setoid" else env.directeds
        assert blocks["X"].elements == ("p", f"q{ch}r")
        return
    with pytest.raises(DslError) as err:
        elaborate(parse(text))
    assert err.value.line == 3 and repr(ch) in str(err.value)


@pytest.mark.parametrize("old, new", [
    ("shape: hom-out-of-fixed", "shape: hom-out-of-fix"),
    ("search: auto", "search: manual"),
])
def test_odd_pool_lines_are_refused_with_their_line(tmp_path, capsys, old, new):
    # a misspelled shape was read as hom-into-fixed, and an unknown search
    # failed the checks naming the pool instead of refusing the document
    text = next(p for p in FIXTURES if p.stem == "constant").read_text()
    line = text.splitlines().index(f"  {old}") + 1
    doc = tmp_path / "odd.bsp"
    doc.write_text(text.replace(old, new, 1))
    assert main(["check", str(doc)]) == 2
    key, value = new.split(": ")
    assert f"bspec: {line}:0: unknown {key} {value!r}" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent/nope.bsp"]) == 2


def test_limit_export_direct(capsys):
    path = next(p for p in FIXTURES if p.stem == "cspec")
    assert main(["limit", str(path), "--direct", "CSPEC"]) == 0
    out = capsys.readouterr().out
    assert "classes: 1" in out
    assert "limit-export CSPEC {" in out


def test_limit_export_inverse(capsys):
    path = next(p for p in FIXTURES if p.stem == "inverse")
    assert main(["limit", str(path), "--inverse", "REV"]) == 0
    out = capsys.readouterr().out
    assert "choices: 2" in out


MERGED_INVERSE = """\
setoid X0 {
  elements: a, b, c
  equal: a ~ b
}
setoid X1 {
  elements: u, v, w
  equal: u ~ v
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
  map 0 -> 1: u => a, v => b, w => c
}
subbase G0 {
  carrier: X0
  gen g0: a => 0, b => 0, c => 1
}
subbase G1 {
  carrier: X1
  gen g1: u => 0, v => 0, w => 1
}
spectrum S {
  family: F
  space 0: G0
  space 1: G1
  witness 0 -> 1 g0: (gen g1)
}
"""


def test_limit_export_inverse_numbers_choices_by_class(tmp_path, capsys):
    # a ~ b and u ~ v make (a, u) and (b, v) one choice: each class gets
    # one choice line, from its first token, and the gen lines use the
    # same numbering
    f = tmp_path / "merged.bsp"
    f.write_text(MERGED_INVERSE)
    assert main(["limit", str(f), "--inverse", "S"]) == 0
    out = capsys.readouterr().out
    assert out.split("}")[0] == (
        "limit-export S {\n"
        "  choices: 2\n"
        "  choice c0: 0 => a, 1 => u\n"
        "  choice c1: 0 => c, 1 => w\n"
        "  gen proj[0,g0]: c0 => 0, c1 => 1\n")


def test_iso_cofinal(capsys):
    path = next(p for p in FIXTURES if p.stem == "eo1")
    assert main(["iso", str(path), "--cofinal", "EVENS",
                 "--spectrum", "EOSPEC"]) == 0
    out = capsys.readouterr().out
    assert "classes=2" in out


def test_iso_duality(capsys):
    path = next(p for p in FIXTURES if p.stem == "constant")
    assert main(["iso", str(path), "--duality", "PDUAL"]) == 0


def test_json_reports_stable(tmp_path, capsys):
    path = next(p for p in FIXTURES if p.stem == "eo1")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["report", str(path), "--json", str(out1)]) == 0
    assert main(["report", str(path), "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema"] == 1
    assert payload["summary"]["fail"] == 0
    assert all(set(c) == {"suite", "law", "status", "witness"}
               for c in payload["checks"])


def test_empty_report_schema():
    text = emit_report(Report(), "json")
    assert text == (
        '{"schema":1,"checks":[],"summary":{"pass":0,"fail":0,"skipped":0}}\n')


def test_failing_law_carries_witness(tmp_path):
    from bspec.report import Finding

    r = Report()
    r.add("s", "law.x", [Finding("broken", ("a", "b"))])
    payload = json.loads(emit_report(r, "json"))
    assert payload["checks"][0]["status"] == "fail"
    assert payload["checks"][0]["witness"]


def test_color_env_toggle(capsys, monkeypatch):
    path = next(p for p in FIXTURES if p.stem == "eo2")
    monkeypatch.setenv("BSPEC_COLOR", "1")
    main(["check", str(path)])
    out = capsys.readouterr().out
    assert "\x1b[32m" in out
    monkeypatch.setenv("BSPEC_COLOR", "0")
    main(["check", str(path)])
    out = capsys.readouterr().out
    assert "\x1b[" not in out


def test_limit_json_embeds_class_count(tmp_path, capsys):
    path = next(p for p in FIXTURES if p.stem == "cspec")
    out = tmp_path / "lim.json"
    assert main(["limit", str(path), "--direct", "CSPEC",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["witness"] == ["classes=1"]


def test_cert_depth_flag_is_refused(capsys):
    # certificates are constructed, not searched, so no depth bounds them
    path = next(p for p in FIXTURES if p.stem == "inverse")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "--cert-depth", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cert-depth" in capsys.readouterr().err


def test_bad_bounds_rejected(capsys):
    path = next(p for p in FIXTURES if p.stem == "eo1")
    assert main(["check", str(path), "--uniq-bound", "0"]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    ("limit fixtures/inverse.bsp --inverse REV --thread-bound -3 --uniq-bound -1"
     " --seed 9", "--thread-bound"),
    ("iso fixtures/inverse.bsp --cofinal EVENS --spectrum REV --uniq-bound -1",
     "--uniq-bound"),
    ("check fixtures/eo1.bsp --thread-bound 1", "--thread-bound"),
    ("report fixtures/eo1.bsp --thread-bound 1", "--thread-bound"),
    ("check fixtures/eo1.bsp --seed 1", "--seed"),
    ("report fixtures/eo1.bsp --seed 1", "--seed"),
])
def test_flags_a_subcommand_does_not_read_are_refused(capsys, argv, flag):
    # threads are read off the top index in one pass, so no bound caps
    # them; limit and iso run no uniqueness search, so they take no
    # --uniq-bound; no check draws a random family, so none takes --seed
    root = FIXTURES[0].parent.parent
    args = argv.split()
    args[1] = str(root / args[1])
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_each_subcommand_takes_exactly_its_flags():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: sorted(opt for a in p._actions for opt in a.option_strings
                          if opt not in ("-h", "--help"))
             for name, p in subs.items()}
    suite = ["--json", "--suite", "--uniq-bound"]
    assert flags == {
        "check": suite,
        "report": suite,
        "limit": ["--direct", "--inverse", "--json"],
        "iso": ["--cofinal", "--duality", "--json", "--spectrum"],
    }


def test_invalid_content_rejected_cleanly(tmp_path, capsys):
    doc = tmp_path / "badfam.bsp"
    doc.write_text("""\
setoid X {
  elements: p, q
}
directed D {
  elements: 0, 1, 2
  order: 0 <= 1, 1 <= 2
}
family F {
  index: D
  carrier 0: X
  carrier 1: X
  carrier 2: X
  map 0 -> 1: p => q, q => p
  map 1 -> 2: p => p, q => q
  map 0 -> 2: p => p, q => q
}
""")
    assert main(["check", str(doc)]) == 2
    assert "family-composition" in capsys.readouterr().err


def test_iso_refuses_a_cofinal_block_over_another_index(tmp_path, capsys):
    path = next(p for p in FIXTURES if p.stem == "eo1")
    text = path.read_text(encoding="utf-8").replace(
        "directed: EO1\n  members: 0, 2\n  cof: 0 => 0, 1 => 2, 2 => 2",
        "directed: OTHER\n  members: b\n  cof: a => b, b => b")
    f = tmp_path / "other.bsp"
    f.write_text(text + "\ndirected OTHER {\n  elements: a, b\n  order: a <= b\n}\n")
    assert main(["iso", str(f), "--cofinal", "EVENS", "--spectrum", "EOSPEC"]) == 2
    assert capsys.readouterr().err == (
        "bspec: cofinal EVENS is over OTHER, not EO1, the index of EOSPEC\n")


@pytest.mark.parametrize("fixture, spectrum", [("eo1", "EOSPEC"), ("inverse", "REV")],
                         ids=["direct", "inverse"])
def test_a_cofinal_subset_whose_moduli_fail(fixture, spectrum, tmp_path, capsys):
    """Index 1 rounds down to 0, below it: the isomorphism, which is built
    through the moduli, is refused by `iso` and skipped by `check`."""
    text = next(p for p in FIXTURES if p.stem == fixture).read_text(encoding="utf-8")
    old = "cof: 0 => 0, 1 => 2, 2 => 2"
    assert old in text
    f = tmp_path / "bad.bsp"
    f.write_text(text.replace(old, "cof: 0 => 0, 1 => 0, 2 => 2"))
    assert main(["iso", str(f), "--cofinal", "EVENS", "--spectrum", spectrum]) == 2
    assert capsys.readouterr().err == "bspec: not a cofinal subset: cof3 at 1\n"
    out = tmp_path / "report.json"
    assert main(["check", str(f), "--json", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [(c["law"], c["status"], c["witness"]) for c in checks
            if c["law"].startswith("cofinal.")] == [
        ("cofinal.EVENS.moduli", "fail", ["cof3 at 1"]),
        (f"cofinal.{spectrum}.round-trips", "skipped", ["moduli failed"]),
        (f"cofinal.{spectrum}.morphisms", "skipped", ["moduli failed"]),
    ]
    assert not [c for c in checks if c["law"].endswith(".run")]


def test_iso_cofinal_needs_a_spectrum(capsys):
    path = next(p for p in FIXTURES if p.stem == "eo1")
    with pytest.raises(SystemExit) as exc:
        main(["iso", str(path), "--cofinal", "EVENS"])
    assert exc.value.code == 2
    assert "--cofinal needs --spectrum" in capsys.readouterr().err
