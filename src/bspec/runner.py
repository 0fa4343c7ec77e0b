"""Executes the checks named in a suite block and assembles a report.

Each check runs a family of laws; every executed law appears exactly once
in the report with a pass/fail/skipped status and, on failure, a witness.
Results are deterministic for a fixed (document, config, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .dsl import DslError, UnresolvedReference, elaborate
from .duality import (
    converse_dual_direct,
    converse_dual_inverse,
    duality_direct_to_inverse,
    duality_inverse_hom,
    enumerate_morphisms,
)
from .families import (
    CONTRAVARIANT,
    COVARIANT,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    sum_elements,
    validate_direct_family,
)
from .limits import (
    NonUnique,
    cocone_mediator,
    cofinal_direct_iso,
    cofinal_inverse_iso,
    cone_mediator,
    direct_limit,
    inverse_limit,
    limit_legs_cocone,
    limit_map,
    limit_projections_cone,
    inverse_limit_map,
    product_inverse_morphism,
    product_limit_bijection,
    top_determinacy_check,
)
from .order import validate_cofinal, validate_directed
from .randgen import random_direct_family
from .report import Finding, Report
from .setoid import fn_equal, split_tag
from .spectra import (
    compose_spectrum_maps,
    identity_spectrum_map,
    thread_to_sum_function,
    validate_spectrum,
)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    thread_bound: int = 10_000
    cert_depth: int = 4
    uniq_bound: int = 1_000_000
    seed: int = 0


def run_suite(doc, suite_name=None, config=None):
    """Run one suite (or a synthesized default) over an elaborated document."""
    config = config or RunConfig()
    if config.thread_bound <= 0 or config.uniq_bound <= 0 or config.cert_depth <= 0:
        raise ConfigError("bounds must be positive")
    env = elaborate(doc, cert_depth=config.cert_depth)
    report = Report()
    checks = _suite_checks(doc, suite_name)
    for suite, kind, args, line in checks:
        runner = CHECKS.get(kind)
        if runner is None:
            raise ConfigError(f"unknown check kind {kind!r} (line {line})")
        before = len(report.records)
        t0 = time.perf_counter()
        try:
            runner(env, args, config, report, suite)
        except DslError:
            raise
        except Exception as exc:  # surfaced as a failing record, not a crash
            report.add(suite, f"{kind}.run", [Finding("error", (), str(exc))])
        elapsed = time.perf_counter() - t0
        for rec in report.records[before:]:
            rec.elapsed = elapsed / max(len(report.records) - before, 1)
    return report


def _suite_checks(doc, suite_name):
    suites = doc.of_kind("suite")
    if suite_name is not None:
        block = next((b for b in suites if b.name == suite_name), None)
        if block is None:
            raise UnresolvedReference(f"no suite named {suite_name!r}")
        suites = [block]
    elif not suites:
        # default: validate every family and spectrum in the document
        out = []
        for b in doc.of_kind("family"):
            out.append(("default", "family", (b.name,), b.line))
        for b in doc.of_kind("spectrum"):
            out.append(("default", "spectrum", (b.name,), b.line))
            out.append(("default", "equivalence", (b.name,), b.line))
        return out
    out = []
    for block in suites:
        for s in block.many("check"):
            words = s.value.split()
            if not words:
                raise ConfigError(f"empty check line at {s.line}")
            out.append((block.name, words[0], tuple(words[1:]), s.line))
    return out


def _one_arg(args, kind):
    if len(args) != 1:
        raise ConfigError(f"check {kind} takes one name, got {args!r}")
    return args[0]


def check_family(env, args, config, report, suite):
    name = _one_arg(args, "family")
    if name not in env.families:
        raise UnresolvedReference(f"no family named {name!r}")
    fam = env.families[name]
    findings = validate_direct_family(fam)
    by_law = {"family-identity": [], "family-composition": [],
              "transport-extensional": []}
    for f in findings:
        by_law.setdefault(f.law, []).append(f)
    for law, fs in by_law.items():
        report.add(suite, f"family.{name}.{law}", fs)


def check_spectrum(env, args, config, report, suite):
    name = _one_arg(args, "spectrum")
    s = env.spectrum(name)
    findings = validate_spectrum(s)
    edge = [f for f in findings if not f.law.startswith("composite")]
    comp = [f for f in findings if f.law.startswith("composite")]
    report.add(suite, f"spectrum.{name}.edge-witnesses", edge)
    report.add(suite, f"spectrum.{name}.composite-witnesses", comp)


def check_equivalence(env, args, config, report, suite):
    """Transport-agreement equality is an equivalence; the top-element
    normalization agrees with the exhaustive upper-bound search.  Also runs
    on seeded random families over the same index."""
    name = _one_arg(args, "equivalence")
    s = env.spectrum(name)
    rng = random.Random(config.seed)
    fams = [s.fam]
    for _ in range(5):
        fams.append(random_direct_family(rng, s.index, COVARIANT))
    bad_eq, bad_oracle = [], []
    for fam in fams:
        tagged = [split_tag(t) for t in sum_elements(fam)]
        rel = {}
        for a in tagged:
            for b in tagged:
                rel[(a, b)] = direct_sum_equality(fam, a[0], a[1], b[0], b[1])
                if rel[(a, b)] != direct_sum_equality_exhaustive(
                        fam, a[0], a[1], b[0], b[1]):
                    bad_oracle.append(Finding("oracle", (a, b)))
        for a in tagged:
            if not rel[(a, a)]:
                bad_eq.append(Finding("reflexive", (a,)))
        for a in tagged:
            for b in tagged:
                if rel[(a, b)] and not rel[(b, a)]:
                    bad_eq.append(Finding("symmetric", (a, b)))
                if rel[(a, b)]:
                    for c in tagged:
                        if rel[(b, c)] and not rel[(a, c)]:
                            bad_eq.append(Finding("transitive", (a, b, c)))
    report.add(suite, f"equivalence.{name}.laws", bad_eq)
    report.add(suite, f"equivalence.{name}.top-vs-search", bad_oracle)


def check_limit_direct(env, args, config, report, suite):
    name = _one_arg(args, "limit-direct")
    s = env.spectrum(name)
    lim = direct_limit(s, cap=config.thread_bound)
    bad = []
    for t in lim.threads:
        fn = thread_to_sum_function(s, t, lim.carrier)
        for a in lim.carrier.elements:
            for b in lim.carrier.elements:
                if lim.carrier.eq(a, b) and fn(a) != fn(b):
                    bad.append(Finding("class-constant", (a, b)))
    report.add(suite, f"limit.{name}.thread-extensionality", bad)
    report.add(suite, f"limit.{name}.export", [],
               witness=(f"classes={lim.class_count()}",
                        f"gens={len(lim.space.gens)}"))


def check_limit_inverse(env, args, config, report, suite):
    name = _one_arg(args, "limit-inverse")
    s = env.spectrum(name)
    lim = inverse_limit(s, bound=config.uniq_bound)
    ok = top_determinacy_check(lim)
    report.add(suite, f"limit.{name}.top-determinacy",
               [] if ok else [Finding("determinacy")])
    report.add(suite, f"limit.{name}.export", [],
               witness=(f"choices={lim.class_count()}",
                        f"gens={len(lim.space.gens)}"))


def check_universal_direct(env, args, config, report, suite):
    """Mediator out of the limit: the limit's own legs by default, or a
    declared cocone when a second name is given."""
    if len(args) not in (1, 2):
        raise ConfigError("check universal-direct takes 'SPECTRUM [COCONE]'")
    name = args[0]
    s = env.spectrum(name)
    lim = direct_limit(s, cap=config.thread_bound)
    if len(args) == 2:
        if args[1] not in env.cocones:
            raise UnresolvedReference(f"no cocone named {args[1]!r}")
        spec_name, cocone = env.cocones[args[1]]
        if spec_name != name:
            raise ConfigError(f"cocone {args[1]} is over {spec_name}, not {name}")
    else:
        cocone = limit_legs_cocone(lim)
    _report_universal(
        report, suite, name,
        lambda: cocone_mediator(s, lim, cocone, uniq_bound=config.uniq_bound),
        lambda w: all(fn_equal(_compose(lim.embed(i), w.h), cocone.legs[i].h)
                      for i in s.index.elements))


def check_universal_inverse(env, args, config, report, suite):
    if len(args) not in (1, 2):
        raise ConfigError("check universal-inverse takes 'SPECTRUM [CONE]'")
    name = args[0]
    s = env.spectrum(name)
    lim = inverse_limit(s, bound=config.uniq_bound)
    if len(args) == 2:
        if args[1] not in env.cones:
            raise UnresolvedReference(f"no cone named {args[1]!r}")
        spec_name, cone = env.cones[args[1]]
        if spec_name != name:
            raise ConfigError(f"cone {args[1]} is over {spec_name}, not {name}")
    else:
        cone = limit_projections_cone(lim)
    _report_universal(
        report, suite, name,
        lambda: cone_mediator(s, lim, cone, uniq_bound=config.uniq_bound),
        lambda w: all(fn_equal(_compose(w.h, lim.project(i)), cone.legs[i].h)
                      for i in s.index.elements))


def _report_universal(report, suite, name, mediate, commutes):
    """The mediator, triangle and uniqueness laws of one universal check.

    Uniqueness takes its status from the mediator's own search: pass when
    it ran, skipped when it exceeded the bound or the mediator failed.
    """
    exists, triangles, unique = [], [], []
    skip = ("mediator failed",)
    try:
        w = mediate()
        if not commutes(w):
            triangles.append(Finding("triangles"))
        skip = ("uniqueness unbounded",) if w.unique is None else ()
    except NonUnique as exc:
        unique.append(Finding("unique", (), str(exc)))
        skip = ()
    except Exception as exc:
        exists.append(Finding("mediator", (), str(exc)))
    report.add(suite, f"universal.{name}.mediator", exists)
    report.add(suite, f"universal.{name}.triangles", triangles)
    report.add(suite, f"universal.{name}.uniqueness", unique,
               skipped=bool(skip), witness=skip)


def _compose(f, g):
    from .setoid import compose

    return compose(f, g)


def check_functoriality(env, args, config, report, suite):
    name = _one_arg(args, "functoriality")
    s = env.spectrum(name)
    ident = identity_spectrum_map(s)
    bad = []
    if s.direction == COVARIANT:
        lim = direct_limit(s, cap=config.thread_bound)
        fwd, _ = limit_map(s, s, ident, lim, lim)
        if not all(lim.carrier.eq(fwd(t), t) for t in lim.carrier.elements):
            bad.append(Finding("identity"))
        twice = compose_spectrum_maps(s, s, s, ident, ident)
        fwd2, _ = limit_map(s, s, twice, lim, lim)
        if not fn_equal(fwd2, fwd):
            bad.append(Finding("composition"))
    else:
        lim = inverse_limit(s, bound=config.uniq_bound)
        fwd, _ = inverse_limit_map(s, s, ident, lim, lim)
        if not all(lim.carrier.eq(fwd(t), t) for t in lim.carrier.elements):
            bad.append(Finding("identity"))
        twice = compose_spectrum_maps(s, s, s, ident, ident)
        fwd2, _ = inverse_limit_map(s, s, twice, lim, lim)
        if not fn_equal(fwd2, fwd):
            bad.append(Finding("composition"))
    report.add(suite, f"functoriality.{name}", bad)


def check_cofinal(env, args, config, report, suite):
    if len(args) != 2:
        raise ConfigError("check cofinal takes 'SPECTRUM COFINAL'")
    s = env.spectrum(args[0])
    if args[1] not in env.cofinals:
        raise UnresolvedReference(f"no cofinal block named {args[1]!r}")
    d_name, cof = env.cofinals[args[1]]
    report.add(suite, f"cofinal.{args[1]}.moduli",
               validate_cofinal(s.index, cof))
    if s.direction == COVARIANT:
        iso = cofinal_direct_iso(s, cof)
    else:
        iso = cofinal_inverse_iso(s, cof)
    round_trip = [f for f in iso.findings if f.law.startswith("round-trip")]
    rest = [f for f in iso.findings if not f.law.startswith("round-trip")]
    report.add(suite, f"cofinal.{args[0]}.round-trips", round_trip)
    report.add(suite, f"cofinal.{args[0]}.morphisms", rest)


def check_product(env, args, config, report, suite):
    if len(args) != 2:
        raise ConfigError("check product takes two spectrum names")
    s = env.spectrum(args[0])
    t = env.spectrum(args[1])
    if s.direction != t.direction:
        raise ConfigError("product factors must share a direction")
    if s.direction == COVARIANT:
        res = product_limit_bijection(s, t)
        count = [f for f in res.findings if f.law == "class-count"]
        rest = [f for f in res.findings if f.law != "class-count"]
        report.add(suite, f"product.{args[0]}x{args[1]}.bijection", rest)
        report.add(suite, f"product.{args[0]}x{args[1]}.class-count", count,
                   witness=tuple(str(c) for c in res.counts))
    else:
        res = product_inverse_morphism(s, t, bound=config.uniq_bound)
        report.add(suite, f"product.{args[0]}x{args[1]}.pairing", res.findings,
                   witness=tuple(str(c) for c in res.counts))


def _build_pools(env, pool_name, config, shape_hint=None):
    if pool_name not in env.pools:
        raise UnresolvedReference(f"no pool named {pool_name!r}")
    desc = env.pools[pool_name]
    s = env.spectrum(desc["spectrum"])
    fixed = env.space(desc["space"])
    if desc["search"] != "auto":
        raise ConfigError("only search: auto pools are supported")
    hom_into = (desc["shape"] != "hom-out-of-fixed")
    pools = {}
    for i in s.index.elements:
        if hom_into:
            pools[i] = enumerate_morphisms(s.space(i), fixed,
                                           depth=config.cert_depth)
        else:
            pools[i] = enumerate_morphisms(fixed, s.space(i),
                                           depth=config.cert_depth)
    return s, fixed, pools


def check_duality(env, args, config, report, suite):
    name = _one_arg(args, "duality")
    s, fixed, pools = _build_pools(env, name, config)
    res = duality_direct_to_inverse(s, fixed, pools)
    round_trip = [f for f in res.findings if f.law.startswith("round-trip")]
    embed = [f for f in res.findings if f.law == "embedding"]
    rest = [f for f in res.findings
            if not f.law.startswith("round-trip") and f.law != "embedding"]
    card = str(res.hom_pool.setoid.class_count()) if res.hom_pool else "?"
    report.add(suite, f"duality.{name}.round-trips", round_trip,
               witness=(f"side-cardinality={card}",))
    report.add(suite, f"duality.{name}.embedding", embed)
    report.add(suite, f"duality.{name}.morphisms", rest)


def check_duality2(env, args, config, report, suite):
    name = _one_arg(args, "duality2")
    s, fixed, pools = _build_pools(env, name, config)
    res = duality_inverse_hom(s, fixed, pools)
    round_trip = [f for f in res.findings if f.law.startswith("round-trip")]
    rest = [f for f in res.findings if not f.law.startswith("round-trip")]
    card = str(res.hom_pool.setoid.class_count()) if res.hom_pool else "?"
    report.add(suite, f"duality2.{name}.round-trips", round_trip,
               witness=(f"side-cardinality={card}",))
    report.add(suite, f"duality2.{name}.morphisms", rest)


def check_converse_duals(env, args, config, report, suite):
    name = _one_arg(args, "converse-duals")
    s, fixed, pools = _build_pools(env, name, config)
    if s.direction == CONTRAVARIANT:
        res = converse_dual_inverse(s, fixed, pools)
        report.add(suite, f"converse.{name}.morphism", res.findings)
        if res.hypothesis_holds:
            report.add(suite, f"converse.{name}.embedding", [])
        else:
            report.add(suite, f"converse.{name}.embedding", [], skipped=True,
                       witness=("hypothesis fails at "
                                + ",".join(res.hypothesis_witness),))
    else:
        res = converse_dual_direct(s, fixed, pools)
        report.add(suite, f"converse.{name}.morphism", res.findings)


def check_directed(env, args, config, report, suite):
    name = _one_arg(args, "directed")
    if name not in env.directeds:
        raise UnresolvedReference(f"no directed block named {name!r}")
    report.add(suite, f"directed.{name}.laws",
               validate_directed(env.directeds[name]))


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
