"""Suite runs whose reports depend on the configured bounds and on how the
universal checks attribute their laws."""

import json
from pathlib import Path

from bspec import runner
from bspec.dsl import parse
from bspec.limits import NonUnique
from bspec.report import emit_report
from bspec.runner import RunConfig, run_suite

INVERSE = Path(__file__).resolve().parent.parent / "fixtures" / "inverse.bsp"


def _checks(text, config=None):
    rep = run_suite(parse(text), None, config)
    return [(c["law"], c["status"], c["witness"])
            for c in json.loads(emit_report(rep, "json"))["checks"]]


def _widened_inverse():
    """fixtures/inverse.bsp with three-point carriers, checking one product."""
    text = INVERSE.read_text()
    text = text[:text.index("cofinal EVENS")]
    for old, new in [
        ("elements: a, b", "elements: a, b, c"),
        ("elements: u, v", "elements: u, v, w"),
        ("elements: z, w", "elements: x, y, z"),
        ("u => a, v => b", "u => a, v => b, w => c"),
        ("z => u, w => v", "x => u, y => v, z => w"),
        ("a => 0, b => 1", "a => 0, b => 1/2, c => 1"),
        ("u => 0, v => 1", "u => 0, v => 1/2, w => 1"),
        ("z => 0, w => 1", "x => 0, y => 1/2, z => 1"),
    ]:
        assert old in text
        text = text.replace(old, new)
    return text + "suite main {\n  check: product REV REV\n}\n"


def test_product_of_widened_inverse_spectra():
    # the product spectrum has 9 indices of 9 points (9^9 candidate choices);
    # the pruned search finds the 9 compatible ones
    assert _checks(_widened_inverse()) == [
        ("product.REVxREV.pairing", "pass", ["9", "3", "3"])]


COCONE_DOC = """\
setoid X2 {
  elements: p, q
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family F {
  index: D
  direction: covariant
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
cocone SWAP {
  spectrum: S
  apex: FX
  leg 0: p => p, q => q
  leg 1: p => q, q => p
}
suite main {
  check: universal-direct S SWAP
}
"""


def test_failed_mediator_skips_uniqueness():
    # the legs disagree along 0 <= 1, so no mediator exists and the
    # uniqueness search never runs
    checks = _checks(COCONE_DOC)
    assert [(law, status) for law, status, _ in checks] == [
        ("universal.S.mediator", "fail"),
        ("universal.S.triangles", "pass"),
        ("universal.S.uniqueness", "skipped"),
    ]
    assert "triangle" in checks[0][2][0]
    assert checks[2][2] == ["mediator failed"]


def test_uniqueness_status_follows_the_search():
    doc = COCONE_DOC.replace("leg 1: p => q, q => p", "leg 1: p => p, q => q")
    assert _checks(doc)[2] == ("universal.S.uniqueness", "pass", [])
    # 2 classes into a 2-point apex: 4 candidates, over a bound of 3
    assert _checks(doc, RunConfig(uniq_bound=3))[2] == (
        "universal.S.uniqueness", "skipped", ["uniqueness unbounded"])
    assert _checks(doc, RunConfig(uniq_bound=4))[2] == (
        "universal.S.uniqueness", "pass", [])


def test_second_mediator_fails_uniqueness_only(monkeypatch):
    def two_mediators(*args, **kwargs):
        raise NonUnique("a second mediator satisfies all triangles")

    monkeypatch.setattr(runner, "cocone_mediator", two_mediators)
    doc = COCONE_DOC.replace("leg 1: p => q, q => p", "leg 1: p => p, q => q")
    assert _checks(doc) == [
        ("universal.S.mediator", "pass", []),
        ("universal.S.triangles", "pass", []),
        ("universal.S.uniqueness", "fail",
         ["unique (a second mediator satisfies all triangles)"]),
    ]
