"""Suite runs whose reports depend on the configured bounds and on how the
universal checks attribute their laws."""

import gc
import json
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from bspec import limits, runner
from bspec.dsl import SyntaxErrorDsl, TypeMismatch, UnresolvedReference, parse
from bspec.limits import NonUnique
from bspec.report import emit_report
from bspec.runner import RunConfig, run_suite

INVERSE = Path(__file__).resolve().parent.parent / "fixtures" / "inverse.bsp"


def _checks(text, config=None):
    rep = run_suite(parse(text), None, config)
    return [(c["law"], c["status"], c["witness"])
            for c in json.loads(emit_report(rep, "json"))["checks"]]


def _widen(text):
    """fixtures/inverse.bsp text with three-point carriers."""
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
    return text


def _widened_inverse():
    """The widened fixtures/inverse.bsp, checking one product."""
    text = _widen(INVERSE.read_text())
    text = text[:text.index("cofinal EVENS")]
    return text + "suite main {\n  check: product REV REV\n}\n"


def test_product_of_widened_inverse_spectra():
    # the product spectrum has 9 indices of 9 points (9^9 candidate choices);
    # the pruned search finds the 9 compatible ones
    assert _checks(_widened_inverse()) == [
        ("product.REVxREV.pairing", "pass", ["9", "3", "3"])]


def test_widened_inverse_duality_pools_every_morphism():
    # every map of a three-point space into {0, 1/2, 1} is a morphism out
    # of G0, since its generator separates all three points
    checks = _checks(_widen(INVERSE.read_text()))
    assert ("duality2.PDUAL2.round-trips", "pass",
            ["side-cardinality=27"]) in checks
    assert all(status == "pass" for _, status, _ in checks)


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
    # the legs disagree along 0 <= 1, so no mediator exists and neither the
    # triangles nor the uniqueness check run
    checks = _checks(COCONE_DOC)
    assert [(law, status) for law, status, _ in checks] == [
        ("universal.S.mediator", "fail"),
        ("universal.S.triangles", "skipped"),
        ("universal.S.uniqueness", "skipped"),
    ]
    assert "triangle" in checks[0][2][0]
    assert checks[1][2] == ["mediator failed"]
    assert checks[2][2] == ["mediator failed"]


CONE_DOC = """\
setoid X2 {
  elements: p, q
}
directed D {
  elements: 0, 1
  order: 0 <= 1
}
family F {
  index: D
  direction: contravariant
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
cone SWAP {
  spectrum: S
  apex: FX
  leg 0: p => p, q => q
  leg 1: p => q, q => p
}
suite main {
  check: universal-inverse S SWAP
}
"""


def test_failed_cone_mediator_skips_uniqueness():
    # the mirror of the cocone case: the legs disagree along 0 <= 1
    checks = _checks(CONE_DOC)
    assert [(law, status) for law, status, _ in checks] == [
        ("universal.S.mediator", "fail"),
        ("universal.S.triangles", "skipped"),
        ("universal.S.uniqueness", "skipped"),
    ]
    assert "triangle" in checks[0][2][0]
    assert checks[1][2] == ["mediator failed"]
    assert checks[2][2] == ["mediator failed"]


@pytest.mark.parametrize("doc", [COCONE_DOC, CONE_DOC],
                         ids=["universal-direct", "universal-inverse"])
def test_a_mediator_that_does_not_commute_fails_the_mediator_law(doc, monkeypatch):
    # the mediator tests its own triangles, so a failure there fails `mediator`
    monkeypatch.setattr(limits, "commutes", lambda *args: False)
    doc = doc.replace("leg 1: p => q, q => p", "leg 1: p => p, q => q")
    assert _checks(doc) == [
        ("universal.S.mediator", "fail",
         ["mediator (mediator does not commute with every leg)"]),
        ("universal.S.triangles", "skipped", ["mediator failed"]),
        ("universal.S.uniqueness", "skipped", ["mediator failed"]),
    ]


def _over_t(doc, legs_kind):
    """The document with a second spectrum T and the legs block over it."""
    spectrum_s = doc[doc.index("spectrum S {"):doc.index(f"{legs_kind} SWAP {{")]
    doc = doc.replace(f"{legs_kind} SWAP {{", spectrum_s.replace("spectrum S", "spectrum T")
                      + f"{legs_kind} SWAP {{")
    return doc.replace("  spectrum: S\n", "  spectrum: T\n")


def _refused(doc, error, check):
    """The message a suite run refuses doc with, an `error` at the line of
    its `check` line."""
    line = doc.splitlines().index(f"  check: {check}") + 1
    with pytest.raises(error) as err:
        _checks(doc)
    assert err.value.line == line
    return str(err.value).removeprefix(f"{line}:0: ")


@pytest.mark.parametrize("doc, kind, legs_kind", [
    (COCONE_DOC, "universal-direct", "cocone"),
    (CONE_DOC, "universal-inverse", "cone"),
], ids=["universal-direct", "universal-inverse"])
def test_universal_checks_refuse_their_arguments(doc, kind, legs_kind):
    # a check line is refused at its line before any check runs
    line = f"check: {kind} S SWAP"
    for args in ("", " S SWAP EXTRA"):
        assert _refused(doc.replace(line, f"check: {kind}{args}"), SyntaxErrorDsl,
                        f"{kind}{args}") == (
            f"check {kind} takes 'SPECTRUM [{legs_kind.upper()}]'")
    assert _refused(doc.replace(line, f"check: {kind} S X"), UnresolvedReference,
                    f"{kind} S X") == f"no {legs_kind} named 'X'"
    assert _refused(_over_t(doc, legs_kind), TypeMismatch, f"{kind} S SWAP") == (
        f"{legs_kind} SWAP is over T, not S")
    # the legs block over T serves a check of T
    assert [law for law, _, _ in _checks(
        _over_t(doc, legs_kind).replace(line, f"check: {kind} T SWAP"))] == [
        "universal.T.mediator", "universal.T.triangles", "universal.T.uniqueness"]


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


@pytest.mark.parametrize("name, check", [
    ("cocone_mediator", "universal-direct S SWAP"),
    ("validate_spectrum", "spectrum S"),
], ids=["in-the-universal-check", "in-run-suite"])
def test_an_exception_that_is_not_a_kernel_error_escapes(name, check, monkeypatch):
    # a KernelError a check raises is a failing record; any other exception
    # is a bug in the kernel, caught neither by the check nor by run_suite
    def bug(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(runner, name, bug)
    with pytest.raises(KeyError, match="bug"):
        _checks(COCONE_DOC.replace("check: universal-direct S SWAP", f"check: {check}"))


def test_bounds_reach_limits_built_inside_other_checks():
    # every check of the fixture builds an inverse limit of REV, which is
    # read off the top with no search to bound: at a bound of 5 all seven
    # checks run
    checks = _checks(INVERSE.read_text(), RunConfig(uniq_bound=5))
    assert not [law for law, _, _ in checks if law.endswith(".run")]
    kinds = {law.split(".")[0] for law, _, _ in checks}
    assert {"limit", "universal", "functoriality", "cofinal", "product",
            "duality2", "converse"} <= kinds
    assert ("universal.REV.uniqueness", "pass", []) in checks
    # the bound still reaches the gate that reads it: 2 classes into the
    # 2-point limit are 2^2 = 4 candidates, over a bound of 3
    checks = _checks(INVERSE.read_text(), RunConfig(uniq_bound=3))
    assert not [law for law, _, _ in checks if law.endswith(".run")]
    assert ("universal.REV.uniqueness", "skipped",
            ["uniqueness unbounded"]) in checks


def _count_limit_builds(monkeypatch):
    """Count every direct and inverse limit built, wherever it is built
    from; returns the counts per spectrum, weak references to the limits
    built, in order, the environments the runner elaborated, and the
    (spectrum, builder) of each direct build: the `Limits` whose method
    called `direct_limit`, None for a call from anywhere else."""
    built, made, envs, owners = Counter(), [], [], []
    direct, inverse = limits.direct_limit, limits.inverse_limit

    def counted(s, lim):
        built[s] += 1
        made.append(weakref.ref(lim))
        return lim

    def direct_counted(s):
        caller = sys._getframe(1).f_locals.get("self")
        owners.append((s, caller if isinstance(caller, limits.Limits) else None))
        return counted(s, direct(s))

    monkeypatch.setattr(limits, "direct_limit", direct_counted)
    monkeypatch.setattr(limits, "inverse_limit", lambda s: counted(s, inverse(s)))
    elaborate = runner.elaborate

    def recorded(*args, **kwargs):
        envs.append(elaborate(*args, **kwargs))
        return envs[-1]

    monkeypatch.setattr(runner, "elaborate", recorded)
    return built, made, envs, owners


def test_each_declared_spectrum_gets_one_limit_per_suite(monkeypatch):
    # built by each check on its own, the limit of CSPEC would be built 6
    # times and that of REV 8 times
    for fixture in ("cspec.bsp", "inverse.bsp"):
        built, _, envs, _ = _count_limit_builds(monkeypatch)
        run_suite(parse((INVERSE.parent / fixture).read_text()))
        declared = envs[-1].spectra.values()
        assert declared and all(built[s] == 1 for s in declared), fixture
        # the spectra a check derives (products, restrictions, induced
        # spectra) are new objects, each built once
        assert set(built.values()) == {1}, fixture


def test_two_suite_runs_share_no_limit(monkeypatch):
    # nothing keeps a limit once its run_suite call returns, so a second
    # run of the same parsed document builds every limit again
    _, made, envs, owners = _count_limit_builds(monkeypatch)
    doc = parse(INVERSE.read_text())
    run_suite(doc)
    first = len(made)
    envs.clear()
    owners.clear()
    gc.collect()
    assert first > 0 and all(ref() is None for ref in made)
    run_suite(doc)
    assert len(made) == 2 * first


def test_every_direct_limit_comes_from_the_suites_one_limits(monkeypatch):
    # the declared spectra's limits and those of the spectra a check
    # derives: the product (constant, cspec), the cofinal restriction (eo1,
    # eo2) and the induced morphism-space spectra of the converse duals
    # (constant, inverse)
    derived = {"constant.bsp": 2, "cspec.bsp": 1, "eo1.bsp": 1, "eo2.bsp": 1,
               "inverse.bsp": 1}
    for fixture, count in derived.items():
        _, _, envs, owners = _count_limit_builds(monkeypatch)
        suite_lims = []

        def suite_limits(real=limits.Limits):
            suite_lims.append(real())
            return suite_lims[-1]

        monkeypatch.setattr(runner, "Limits", suite_limits)
        report = run_suite(parse((INVERSE.parent / fixture).read_text()))
        assert not report.failed, fixture
        assert len(suite_lims) == 1, fixture
        assert owners and {lims for _, lims in owners} == set(suite_lims), fixture
        declared = set(envs[-1].spectra.values())
        assert sum(s not in declared for s, _ in owners) == count, fixture


def _suite_of(text, check):
    """text with its suite replaced by one running the single check."""
    return text[:text.index("suite main {")] + f"suite main {{\n  check: {check}\n}}\n"


def test_a_duality_over_the_wrong_direction_reports_its_own_error():
    # PCONV is over the contravariant REV, PCONVERSE over the covariant
    # CONST: the duality asks for its spectrum's limit first, and the limit
    # refuses a spectrum of the wrong direction
    for fixture, check, error in [
            ("inverse.bsp", "duality PCONV",
             "error (direct limit needs a covariant spectrum)"),
            ("constant.bsp", "duality2 PCONVERSE",
             "error (inverse limit needs a contravariant spectrum)")]:
        text = _suite_of((INVERSE.parent / fixture).read_text(), check)
        kind = check.split()[0]
        assert _checks(text) == [(f"{kind}.run", "fail", [error])]


@pytest.mark.parametrize("fixture, check, pool, shape, needs", [
    # constant.bsp: CONST is covariant, PDUAL holds homs into FX2 and
    # PCONVERSE homs out of it; inverse.bsp: REV is contravariant, PDUAL2
    # holds homs out of G0 and PCONV homs into it
    ("constant.bsp", "duality", "PCONVERSE", "hom-out-of-fixed", "hom-into-fixed"),
    ("inverse.bsp", "duality", "PDUAL2", "hom-out-of-fixed", "hom-into-fixed"),
    ("constant.bsp", "duality2", "PDUAL", "hom-into-fixed", "hom-out-of-fixed"),
    ("inverse.bsp", "duality2", "PCONV", "hom-into-fixed", "hom-out-of-fixed"),
    ("constant.bsp", "converse-duals", "PDUAL", "hom-into-fixed", "hom-out-of-fixed"),
    ("inverse.bsp", "converse-duals", "PDUAL2", "hom-out-of-fixed", "hom-into-fixed"),
])
def test_a_pool_whose_shape_its_check_does_not_read_is_refused(fixture, check, pool,
                                                                shape, needs):
    text = _suite_of((INVERSE.parent / fixture).read_text(), f"{check} {pool}")
    line = text.splitlines().index(f"pool {pool} {{") + 1
    spectrum, direction = (("CONST", "covariant") if fixture == "constant.bsp"
                           else ("REV", "contravariant"))
    with pytest.raises(TypeMismatch) as exc:
        run_suite(parse(text))
    assert exc.value.line == line
    assert str(exc.value) == (f"{line}:0: pool {pool} has shape {shape}, but {check} "
                              f"over the {direction} {spectrum} needs {needs}")


def test_threads_are_not_capped():
    # one thread per pool constant: 10,001 of them, read off the top in one
    # pass over its candidates
    pool = ", ".join(map(str, range(10_001)))
    text = f"""\
setoid P {{
  elements: p
}}
directed D {{
  elements: 0, 1
  order: 0 <= 1
}}
family F {{
  index: D
  direction: covariant
  carrier 0: P
  carrier 1: P
  map 0 -> 1: p => p
}}
subbase SP {{
  carrier: P
}}
spectrum S {{
  family: F
  space 0: SP
  space 1: SP
  pool: {pool}
}}
suite main {{
  check: limit-direct S
}}
"""
    assert ("limit.S.export", "pass", ["classes=1", "gens=10001"]) in _checks(text)


EO1 = INVERSE.parent / "eo1.bsp"


def _cofinal_over_other():
    """fixtures/eo1.bsp with its cofinal block EVENS declared over another
    index, OTHER, instead of EOSPEC's index EO1."""
    text = EO1.read_text(encoding="utf-8")
    old = "directed: EO1\n  members: 0, 2\n  cof: 0 => 0, 1 => 2, 2 => 2"
    assert old in text
    return (text.replace(old, "directed: OTHER\n  members: b\n  cof: a => b, b => b")
            + "\ndirected OTHER {\n  elements: a, b\n  order: a <= b\n}\n")


def test_a_cofinal_block_over_another_index_is_refused():
    # at the check line, as `bspec iso` refuses it without one
    assert _refused(_cofinal_over_other(), TypeMismatch, "cofinal EOSPEC EVENS") == (
        "cofinal EVENS is over OTHER, not EO1, the index of EOSPEC")


def test_a_product_of_two_directions_reports_the_spectrums_own_error():
    # S is covariant and T contravariant: whichever comes first, the
    # product spectrum refuses the pair before any limit is built
    s = COCONE_DOC[:COCONE_DOC.index("cocone SWAP")]
    t = (s[s.index("family F {"):s.index("subbase FX {")] + s[s.index("spectrum S {"):])
    t = (t.replace("family F", "family G").replace("family: F", "family: G")
         .replace("direction: covariant", "direction: contravariant")
         .replace("spectrum S", "spectrum T"))
    for check in ("product S T", "product T S"):
        assert _checks(s + t + f"suite main {{\n  check: {check}\n}}\n") == [
            ("product.run", "fail", ["error (factors must share a direction)"])]


DEFAULT_SUITE = Path(__file__).resolve().parent / "documents" / "contravariant-default-suite.bsp"


def test_the_default_suite_checks_sum_equality_only_on_covariant_spectra():
    # the document is fixtures/inverse.bsp without its suite: REV is
    # contravariant, so the default suite has no equivalence check
    checks = _checks(DEFAULT_SUITE.read_text())
    assert [law for law, status, _ in checks if status != "pass"] == []
    assert not any(law.startswith("equivalence.") for law, _, _ in checks)
    # asked for, it is refused as before
    text = _suite_of(INVERSE.read_text(), "equivalence REV")
    assert _checks(text) == [
        ("equivalence.run", "fail", ["error (direct sum equality needs a covariant family)"])]
    # a covariant spectrum's default suite keeps it
    constant = (INVERSE.parent / "constant.bsp").read_text()
    default = constant[:constant.index("suite main {")]
    assert ("equivalence.CONST.laws", "pass", []) in _checks(default)


def _deep_witness_chain(n, depth=240):
    """A covariant spectrum over chain(n) whose top two elements are each
    <= the other, with identity maps on the covers and one more, n-1 ->
    n-2, and on each cover a witness (bic id ...) around (gen f), nested
    `depth` deep."""
    expr = "(bic id " * (depth - 1) + "(gen f)" + ")" * (depth - 1)
    lines = ["setoid X2 {", "  elements: p, q", "}",
             "directed C {", "  elements: " + ", ".join(map(str, range(n))),
             "  order: " + ", ".join(f"{k} <= {k + 1}" for k in range(n - 1))
             + f", {n - 1} <= {n - 2}", "}",
             "subbase S2 {", "  carrier: X2", "  gen f: p => 0, q => 1", "}",
             "family F {", "  index: C", "  direction: covariant"]
    lines += [f"  carrier {k}: X2" for k in range(n)]
    lines += [f"  map {k} -> {k + 1}: p => p, q => q" for k in range(n - 1)]
    lines += [f"  map {n - 1} -> {n - 2}: p => p, q => q", "}", "spectrum S {", "  family: F"]
    lines += [f"  space {k}: S2" for k in range(n)]
    lines += [f"  witness {k} -> {k + 1} f: {expr}" for k in range(n - 1)]
    lines += ["}", "suite main {", "  check: spectrum S", "}"]
    return "\n".join(lines) + "\n"


def test_a_check_that_recurses_past_the_limit_reports_its_own_error():
    # the document elaborates, as nothing is lifted while elaborating; but
    # the index is a preorder, so the composite law scans every triple, and
    # the witnesses it reads are lifted from composites nested past the
    # interpreter's limit
    error = f"error (recursion deeper than sys.getrecursionlimit() = {sys.getrecursionlimit()})"
    assert _checks(_deep_witness_chain(8)) == [("spectrum.run", "fail", [error])]
