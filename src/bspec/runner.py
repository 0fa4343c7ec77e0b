"""Executes the checks named in a suite block and assembles a report.

Each check runs a family of laws; every executed law appears exactly once
in the report with a pass/fail/skipped status and, on failure, a witness.
Results are deterministic for a fixed document and configuration.
"""

from __future__ import annotations

import time

from .dsl import DslError, TypeMismatch, _lookup, elaborate
from .duality import (
    converse_dual_direct,
    converse_dual_inverse,
    duality_direct_to_inverse,
    duality_inverse_hom,
)
from .families import (
    CONTRAVARIANT,
    COVARIANT,
    FamilyMap,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    identity_family_map,
    sum_elements,
    sum_equality_laws_hold,
    validate_direct_family,
)
from .limits import (
    Limits,
    NonUnique,
    cocone_mediator,
    cofinal_direct_iso,
    cofinal_inverse_iso,
    cone_mediator,
    limit_map,
    inverse_limit_map,
    own_legs,
    product_inverse_morphism,
    product_limit_bijection,
    top_determinacy_check,
)
from .order import validate_cofinal, validate_directed
from .report import Finding, Report
from .setoid import compose, fn_equal
from .spectra import validate_spectrum


class ConfigError(Exception):
    pass


class RunConfig:
    def __init__(self, *, uniq_bound=1_000_000):
        self.uniq_bound = uniq_bound


def run_suite(doc, suite_name=None, config=None):
    """Run one suite (or a synthesized default) over an elaborated document.

    The checks share one Limits for this call only, so a document run
    again (under the same or another config) builds its limits again."""
    config = config or RunConfig()
    if config.uniq_bound <= 0:
        raise ConfigError("bounds must be positive")
    env = elaborate(doc)
    report = Report()
    lims = Limits()
    checks = _suite_checks(doc, suite_name, env)
    for suite, kind, args in checks:
        runner = CHECKS[kind]
        before = len(report.records)
        t0 = time.perf_counter()
        try:
            runner(env, args, config, report, suite, lims)
        except DslError:
            raise
        except Exception as exc:  # surfaced as a failing record, not a crash
            report.add(suite, f"{kind}.run", [Finding("error", (), str(exc))])
        elapsed = time.perf_counter() - t0
        for rec in report.records[before:]:
            rec.elapsed = elapsed / max(len(report.records) - before, 1)
    return report


def _suite_checks(doc, suite_name, env):
    suites = doc.of_kind("suite")
    if suite_name is not None:
        suites = [_lookup({b.name: b for b in suites}, suite_name, "suite")]
    elif not suites:
        # default: validate every family and spectrum in the document, and
        # the sum equality of every covariant spectrum
        out = []
        for b in doc.of_kind("family"):
            out.append(("default", "family", (b.name,)))
        for b in doc.of_kind("spectrum"):
            out.append(("default", "spectrum", (b.name,)))
            if env.spectrum(b.name).direction == COVARIANT:
                out.append(("default", "equivalence", (b.name,)))
        return out
    out = []
    for block in suites:
        for s in block.many("check"):
            words = s.value.split()
            if not words:
                raise DslError("empty check line", s.line)
            if words[0] not in CHECKS:
                raise DslError(f"unknown check kind {words[0]!r}", s.line)
            out.append((block.name, words[0], tuple(words[1:])))
    return out


def _one_arg(args, kind):
    if len(args) != 1:
        raise ConfigError(f"check {kind} takes one name, got {args!r}")
    return args[0]


def check_family(env, args, config, report, suite, lims):
    name = _one_arg(args, "family")
    findings = validate_direct_family(_lookup(env.families, name, "family"))
    by_law = {"family-identity": [], "family-composition": [],
              "transport-extensional": []}
    for f in findings:
        by_law.setdefault(f.law, []).append(f)
    for law, fs in by_law.items():
        report.add(suite, f"family.{name}.{law}", fs)


def check_spectrum(env, args, config, report, suite, lims):
    name = _one_arg(args, "spectrum")
    s = env.spectrum(name)
    findings = validate_spectrum(s)
    edge = [f for f in findings if not f.law.startswith("composite")]
    comp = [f for f in findings if f.law.startswith("composite")]
    # validate_spectrum stops before the composites on any other finding
    skip = ("edge witnesses failed",) if edge else ()
    report.add(suite, f"spectrum.{name}.edge-witnesses", edge)
    report.add(suite, f"spectrum.{name}.composite-witnesses", comp,
               skipped=bool(skip), witness=skip)


def check_equivalence(env, args, config, report, suite, lims):
    """Transport-agreement equality on the spectrum's family is an
    equivalence, and the top-element normalization agrees with the
    exhaustive upper-bound search.

    The family is decided by `sum_equality_laws_hold`; only if it is not
    shown lawful is it scanned, pair by pair, to list the disagreements."""
    name = _one_arg(args, "equivalence")
    s = env.spectrum(name)
    bad_oracle = []
    if not sum_equality_laws_hold(s.fam):
        bad_oracle = _equivalence_scan(s.fam)
    # Agreement at the top is the top carrier's equivalence pulled back
    # along the transports, so it is an equivalence; a family on which it
    # cannot be decided (contravariant, or a transport missing) makes the
    # pairwise scan raise, which reports equivalence.run error instead.
    report.add(suite, f"equivalence.{name}.laws", [])
    report.add(suite, f"equivalence.{name}.top-vs-search", bad_oracle)


def _equivalence_scan(fam):
    """The top-vs-search findings of one family: every pair of tagged
    elements on which agreement at the top and the upper-bound search
    differ."""
    tagged = sum_elements(fam)
    return [Finding("oracle", (a, b)) for a in tagged for b in tagged
            if direct_sum_equality(fam, *a, *b)
            != direct_sum_equality_exhaustive(fam, *a, *b)]


def check_limit_direct(env, args, config, report, suite, lims):
    name = _one_arg(args, "limit-direct")
    s = env.spectrum(name)
    lim = lims.direct(s)
    # Each thread's function on the limit carrier was built by the RFun
    # constructor in spectra.sum_space, which refuses one that separates
    # equal elements; so this law passes whenever the limit was built, and
    # a thread that is not class-constant reports limit-direct.run error.
    report.add(suite, f"limit.{name}.thread-extensionality", [])
    report.add(suite, f"limit.{name}.export", [],
               witness=(f"classes={lim.class_count()}",
                        f"gens={len(lim.space.gens)}"))


def check_limit_inverse(env, args, config, report, suite, lims):
    name = _one_arg(args, "limit-inverse")
    s = env.spectrum(name)
    lim = lims.inverse(s)
    ok = top_determinacy_check(lim)
    report.add(suite, f"limit.{name}.top-determinacy",
               [] if ok else [Finding("determinacy")])
    report.add(suite, f"limit.{name}.export", [],
               witness=(f"choices={lim.class_count()}",
                        f"gens={len(lim.space.gens)}"))


def check_universal_direct(env, args, config, report, suite, lims):
    """Mediator out of the limit: the limit's own legs by default, or a
    declared cocone when a second name is given."""
    _check_universal(env, args, config, report, suite, "universal-direct", "cocone",
                     env.cocones, lims.direct, cocone_mediator)


def check_universal_inverse(env, args, config, report, suite, lims):
    """Mediator into the limit: the limit's own legs by default, or a
    declared cone when a second name is given."""
    _check_universal(env, args, config, report, suite, "universal-inverse", "cone",
                     env.cones, lims.inverse, cone_mediator)


def _check_universal(env, args, config, report, suite, kind, legs_kind, declared,
                     build, mediate):
    """The mediator, triangle and uniqueness laws of one universal check.

    The mediator tests its own triangles before its uniqueness, so the
    triangles pass whenever a mediator is returned or its uniqueness fails;
    one that does not commute fails `mediator` with "mediator does not
    commute with every leg".  Uniqueness takes its status from the
    mediator's own check: pass when it ran, skipped when it exceeded the
    bound.  When the mediator failed, neither the triangles nor uniqueness
    ran, and both are skipped.
    """
    if len(args) not in (1, 2):
        raise ConfigError(f"check {kind} takes 'SPECTRUM [{legs_kind.upper()}]'")
    name = args[0]
    s = env.spectrum(name)
    lim = build(s)
    if len(args) == 2:
        spec_name, legs = _lookup(declared, args[1], legs_kind)
        if spec_name != name:
            raise ConfigError(f"{legs_kind} {args[1]} is over {spec_name}, not {name}")
    else:
        legs = own_legs(lim)
    exists, unique = [], []
    skip = ("mediator failed",)
    try:
        w = mediate(s, lim, legs, uniq_bound=config.uniq_bound)
        skip = ("uniqueness unbounded",) if w.unique is None else ()
    except NonUnique as exc:
        unique.append(Finding("unique", (), str(exc)))
        skip = ()
    except Exception as exc:
        exists.append(Finding("mediator", (), str(exc)))
    report.add(suite, f"universal.{name}.mediator", exists)
    report.add(suite, f"universal.{name}.triangles", [],
               skipped=bool(exists), witness=skip if exists else ())
    report.add(suite, f"universal.{name}.uniqueness", unique,
               skipped=bool(skip), witness=skip)


def check_functoriality(env, args, config, report, suite, lims):
    name = _one_arg(args, "functoriality")
    s = env.spectrum(name)
    build, induced_map = ((lims.direct, limit_map) if s.direction == COVARIANT
                          else (lims.inverse, inverse_limit_map))
    lim = build(s)
    ident = identity_family_map(s.fam)
    bad = []
    fwd = induced_map(s, s, ident, lims).h
    if not all(lim.carrier.eq(fwd(t), t) for t in lim.carrier.elements):
        bad.append(Finding("identity"))
    twice = FamilyMap({i: compose(f, f) for i, f in ident.comps.items()})
    fwd2 = induced_map(s, s, twice, lims).h
    if not fn_equal(fwd2, fwd):
        bad.append(Finding("composition"))
    report.add(suite, f"functoriality.{name}", bad)


def cofinal_over(env, spec_name, cof_name):
    """(spectrum, cofinal subset) for the two names, refused unless the
    cofinal block is declared over the spectrum's own index."""
    s = env.spectrum(spec_name)
    d_name, cof = _lookup(env.cofinals, cof_name, "cofinal block")
    if env.directeds[d_name] is not s.index:
        index_name = next(n for n, d in env.directeds.items() if d is s.index)
        raise ConfigError(f"cofinal {cof_name} is over {d_name}, not {index_name}, "
                          f"the index of {spec_name}")
    return s, cof


def check_cofinal(env, args, config, report, suite, lims):
    if len(args) != 2:
        raise ConfigError("check cofinal takes 'SPECTRUM COFINAL'")
    s, cof = cofinal_over(env, *args)
    report.add(suite, f"cofinal.{args[1]}.moduli",
               validate_cofinal(s.index, cof))
    iso_of = cofinal_direct_iso if s.direction == COVARIANT else cofinal_inverse_iso
    iso = iso_of(s, cof, lims)
    round_trip = [f for f in iso.findings if f.law.startswith("round-trip")]
    rest = [f for f in iso.findings if not f.law.startswith("round-trip")]
    report.add(suite, f"cofinal.{args[0]}.round-trips", round_trip)
    report.add(suite, f"cofinal.{args[0]}.morphisms", rest)


def check_product(env, args, config, report, suite, lims):
    if len(args) != 2:
        raise ConfigError("check product takes two spectrum names")
    s = env.spectrum(args[0])
    t = env.spectrum(args[1])
    if s.direction != t.direction:
        raise ConfigError("product factors must share a direction")
    if s.direction == COVARIANT:
        res = product_limit_bijection(s, t, lims)
        count = [f for f in res.findings if f.law == "class-count"]
        rest = [f for f in res.findings if f.law != "class-count"]
        report.add(suite, f"product.{args[0]}x{args[1]}.bijection", rest)
        report.add(suite, f"product.{args[0]}x{args[1]}.class-count", count,
                   witness=tuple(str(c) for c in res.counts))
    else:
        res = product_inverse_morphism(s, t, lims)
        report.add(suite, f"product.{args[0]}x{args[1]}.pairing", res.findings,
                   witness=tuple(str(c) for c in res.counts))


def _build_pools(env, pool_name, kind, lims):
    """(spectrum, fixed space, morphism pool per index) of a pool block,
    refused at the block's line unless its shape is the one check `kind`
    reads: homs into the fixed space for duality, and for converse-duals
    over a contravariant spectrum; homs out of it otherwise.  Indices with
    the same space share one pool (`Limits.pool`)."""
    desc = _lookup(env.pools, pool_name, "pool")
    s = env.spectrum(desc["spectrum"])
    fixed = env.space(desc["space"])
    hom_into = kind == "duality" or (kind == "converse-duals"
                                     and s.direction == CONTRAVARIANT)
    shape = "hom-into-fixed" if hom_into else "hom-out-of-fixed"
    if desc["shape"] != shape:
        raise TypeMismatch(
            f"pool {pool_name} has shape {desc['shape']}, but {kind} over the "
            f"{s.direction} {desc['spectrum']} needs {shape}", desc["line"])
    pools = {}
    for i in s.index.elements:
        if hom_into:
            pools[i] = lims.pool(s.space(i), fixed)
        else:
            pools[i] = lims.pool(fixed, s.space(i))
    return s, fixed, pools


def check_duality(env, args, config, report, suite, lims):
    name = _one_arg(args, "duality")
    s, fixed, pools = _build_pools(env, name, "duality", lims)
    res = duality_direct_to_inverse(s, fixed, pools, lims)
    round_trip = [f for f in res.findings if f.law.startswith("round-trip")]
    embed = [f for f in res.findings if f.law == "embedding"]
    rest = [f for f in res.findings
            if not f.law.startswith("round-trip") and f.law != "embedding"]
    card = str(res.hom_pool.carrier.class_count()) if res.hom_pool else "?"
    report.add(suite, f"duality.{name}.round-trips", round_trip,
               witness=(f"side-cardinality={card}",))
    report.add(suite, f"duality.{name}.embedding", embed)
    report.add(suite, f"duality.{name}.morphisms", rest)


def check_duality2(env, args, config, report, suite, lims):
    name = _one_arg(args, "duality2")
    s, fixed, pools = _build_pools(env, name, "duality2", lims)
    res = duality_inverse_hom(s, fixed, pools, lims)
    round_trip = [f for f in res.findings if f.law.startswith("round-trip")]
    rest = [f for f in res.findings if not f.law.startswith("round-trip")]
    card = str(res.hom_pool.carrier.class_count()) if res.hom_pool else "?"
    report.add(suite, f"duality2.{name}.round-trips", round_trip,
               witness=(f"side-cardinality={card}",))
    report.add(suite, f"duality2.{name}.morphisms", rest)


def check_converse_duals(env, args, config, report, suite, lims):
    name = _one_arg(args, "converse-duals")
    s, fixed, pools = _build_pools(env, name, "converse-duals", lims)
    if s.direction == CONTRAVARIANT:
        res = converse_dual_inverse(s, fixed, pools, lims)
        report.add(suite, f"converse.{name}.morphism", res.findings)
        if res.hypothesis_holds:
            report.add(suite, f"converse.{name}.embedding", [])
        else:
            report.add(suite, f"converse.{name}.embedding", [], skipped=True,
                       witness=("hypothesis fails at "
                                + ",".join(map(str, res.hypothesis_witness)),))
    else:
        res = converse_dual_direct(s, fixed, pools, lims)
        report.add(suite, f"converse.{name}.morphism", res.findings)


def check_directed(env, args, config, report, suite, lims):
    name = _one_arg(args, "directed")
    report.add(suite, f"directed.{name}.laws",
               validate_directed(_lookup(env.directeds, name, "directed block")))


CHECKS = {
    "directed": check_directed,
    "family": check_family,
    "spectrum": check_spectrum,
    "equivalence": check_equivalence,
    "limit-direct": check_limit_direct,
    "limit-inverse": check_limit_inverse,
    "universal-direct": check_universal_direct,
    "universal-inverse": check_universal_inverse,
    "functoriality": check_functoriality,
    "cofinal": check_cofinal,
    "product": check_product,
    "duality": check_duality,
    "duality2": check_duality2,
    "converse-duals": check_converse_duals,
}
