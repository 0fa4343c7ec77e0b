"""Executes the checks named in a suite block and assembles a report.

Each check runs a family of laws; every executed law appears exactly once
in the report with a pass/fail/skipped status and, on failure, a witness.
Results are deterministic for a fixed document and configuration.
"""

from __future__ import annotations

import time

from .dsl import DslError, SyntaxErrorDsl, TypeMismatch, _lookup, elaborate
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
    NotCofinal,
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
from .report import Finding, KernelError, Report
from .setoid import compose, fn_equal
from .spectra import validate_spectrum


class ConfigError(Exception):
    pass


class RunConfig:
    def __init__(self, *, uniq_bound=1_000_000):
        self.uniq_bound = uniq_bound


def run_suite(doc, suite_name=None, config=None):
    """Run one suite (or a synthesized default) over an elaborated document.

    Every check line is decided before any check runs, and a check the
    kernel refuses (a `KernelError`) reports one failing `KIND.run` record.
    The checks share one Limits for this call only, so a document run
    again (under the same or another config) builds its limits again."""
    config = config or RunConfig()
    if config.uniq_bound <= 0:
        raise ConfigError("bounds must be positive")
    env = elaborate(doc)
    report = Report()
    lims = Limits()
    for suite, kind, names, args in _suite_checks(doc, suite_name, env):
        before = len(report.records)
        t0 = time.perf_counter()
        try:
            CHECKS[kind](names, args, config, report, suite, lims)
        except KernelError as exc:  # surfaced as a failing record, not a crash
            report.add(suite, f"{kind}.run", [Finding("error", (), str(exc))])
        elapsed = time.perf_counter() - t0
        for rec in report.records[before:]:
            rec.elapsed = elapsed / max(len(report.records) - before, 1)
    return report


def _suite_checks(doc, suite_name, env):
    """(suite, kind, names, resolved objects) of every check to run."""
    suites = doc.of_kind("suite")
    if suite_name is not None:
        suites = [_lookup({b.name: b for b in suites}, suite_name, "suite")]
    elif not suites:
        # default: validate every family and spectrum in the document, and
        # the sum equality of every covariant spectrum
        out = [("default", "family", (b.name,), (env.families[b.name],))
               for b in doc.of_kind("family")]
        for b in doc.of_kind("spectrum"):
            args = (env.spectra[b.name],)
            out.append(("default", "spectrum", (b.name,), args))
            if args[0].direction == COVARIANT:
                out.append(("default", "equivalence", (b.name,), args))
        return out
    out = []
    for block in suites:
        for s in block.many("check"):
            words = s.value.split()
            if not words:
                raise DslError("empty check line", s.line)
            kind, names = words[0], tuple(words[1:])
            if kind not in CHECKS:
                raise DslError(f"unknown check kind {kind!r}", s.line)
            out.append((block.name, kind, names, resolve_check(env, kind, names, s.line)))
    return out


def resolve_check(env, kind, names, line=None):
    """The object each of `names` names for a check of `kind`, refused at
    `line` (None for names given outside a document) unless the names fit
    `CHECK_NAMES[kind]` and each other: legs over the checked spectrum, a
    cofinal block over its index, a pool of the shape the check reads (at
    the pool's line).  A pool resolves to (spectrum, fixed space, hom_into)."""
    usage = CHECK_NAMES[kind].split()
    if not len(usage) - CHECK_NAMES[kind].count("[") <= len(names) <= len(usage):
        raise SyntaxErrorDsl(f"check {kind} takes '{CHECK_NAMES[kind]}'", line)
    named = [_NAMED[u.strip("[]")] for u in usage]
    args = [_lookup(getattr(env, table), name, what, line)
            for (what, table), name in zip(named, names)]
    if kind == "cofinal":
        s, (d_name, cof) = args
        if env.directeds[d_name] is not s.index:
            index_name = next(n for n, d in env.directeds.items() if d is s.index)
            raise TypeMismatch(f"cofinal {names[1]} is over {d_name}, not {index_name}, "
                               f"the index of {names[0]}", line)
        args[1] = cof
    elif kind in ("universal-direct", "universal-inverse") and len(args) == 2:
        spec_name, legs = args[1]
        if spec_name != names[0]:
            raise TypeMismatch(f"{named[1][0]} {names[1]} is over {spec_name}, "
                               f"not {names[0]}", line)
        args[1] = legs
    elif kind in ("duality", "duality2", "converse-duals"):
        desc = args[0]
        s = env.spectra[desc["spectrum"]]
        hom_into = kind == "duality" or kind == "converse-duals" and s.direction == CONTRAVARIANT
        shape = "hom-into-fixed" if hom_into else "hom-out-of-fixed"
        if desc["shape"] != shape:
            raise TypeMismatch(
                f"pool {names[0]} has shape {desc['shape']}, but {kind} over the "
                f"{s.direction} {desc['spectrum']} needs {shape}", desc["line"])
        args[0] = (s, env.subbases[desc["space"]], hom_into)
    return tuple(args)


def check_family(names, args, config, report, suite, lims):
    by_law = {"family-identity": [], "family-composition": [],
              "transport-extensional": []}
    for f in validate_direct_family(args[0]):
        by_law.setdefault(f.law, []).append(f)
    for law, fs in by_law.items():
        report.add(suite, f"family.{names[0]}.{law}", fs)


def check_spectrum(names, args, config, report, suite, lims):
    findings = validate_spectrum(args[0])
    edge = [f for f in findings if not f.law.startswith("composite")]
    comp = [f for f in findings if f.law.startswith("composite")]
    # validate_spectrum stops before the composites on any other finding
    skip = ("edge witnesses failed",) if edge else ()
    report.add(suite, f"spectrum.{names[0]}.edge-witnesses", edge)
    report.add(suite, f"spectrum.{names[0]}.composite-witnesses", comp,
               skipped=bool(skip), witness=skip)


def check_equivalence(names, args, config, report, suite, lims):
    """Transport-agreement equality on the spectrum's family is an
    equivalence, and the top-element normalization agrees with the
    exhaustive upper-bound search.

    The family is decided by `sum_equality_laws_hold`; only if it is not
    shown lawful is it scanned, pair by pair, to list the disagreements."""
    fam = args[0].fam
    bad_oracle = []
    if not sum_equality_laws_hold(fam):
        bad_oracle = _equivalence_scan(fam)
    # Agreement at the top is the top carrier's equivalence pulled back
    # along the transports, so it is an equivalence; a family on which it
    # cannot be decided (contravariant, or a transport missing) makes the
    # pairwise scan raise, which reports equivalence.run error instead.
    report.add(suite, f"equivalence.{names[0]}.laws", [])
    report.add(suite, f"equivalence.{names[0]}.top-vs-search", bad_oracle)


def _equivalence_scan(fam):
    """The top-vs-search findings of one family: every pair of tagged
    elements on which agreement at the top and the upper-bound search
    differ."""
    tagged = sum_elements(fam)
    return [Finding("oracle", (a, b)) for a in tagged for b in tagged
            if direct_sum_equality(fam, *a, *b)
            != direct_sum_equality_exhaustive(fam, *a, *b)]


def check_limit_direct(names, args, config, report, suite, lims):
    lim = lims.direct(args[0])
    # Each thread's function on the limit carrier was built by the RFun
    # constructor in spectra.sum_space, which refuses one that separates
    # equal elements; so this law passes whenever the limit was built, and
    # a thread that is not class-constant reports limit-direct.run error.
    report.add(suite, f"limit.{names[0]}.thread-extensionality", [])
    report.add(suite, f"limit.{names[0]}.export", [],
               witness=(f"classes={lim.class_count()}",
                        f"gens={len(lim.space.gens)}"))


def check_limit_inverse(names, args, config, report, suite, lims):
    lim = lims.inverse(args[0])
    ok = top_determinacy_check(lim)
    report.add(suite, f"limit.{names[0]}.top-determinacy",
               [] if ok else [Finding("determinacy")])
    report.add(suite, f"limit.{names[0]}.export", [],
               witness=(f"choices={lim.class_count()}",
                        f"gens={len(lim.space.gens)}"))


def check_universal_direct(names, args, config, report, suite, lims):
    """Mediator out of the limit: the limit's own legs by default, or a
    declared cocone when a second name is given."""
    _check_universal(names, args, config, report, suite, lims.direct, cocone_mediator)


def check_universal_inverse(names, args, config, report, suite, lims):
    """Mediator into the limit: the limit's own legs by default, or a
    declared cone when a second name is given."""
    _check_universal(names, args, config, report, suite, lims.inverse, cone_mediator)


def _check_universal(names, args, config, report, suite, build, mediate):
    """The mediator, triangle and uniqueness laws of one universal check.

    The mediator tests its own triangles before its uniqueness, so the
    triangles pass whenever a mediator is returned or its uniqueness fails;
    one that does not commute fails `mediator` with "mediator does not
    commute with every leg".  Uniqueness takes its status from the
    mediator's own check: pass when it ran, skipped when it exceeded the
    bound.  When the mediator failed, neither the triangles nor uniqueness
    ran, and both are skipped.
    """
    name, s = names[0], args[0]
    lim = build(s)
    legs = args[1] if len(args) == 2 else own_legs(lim)
    exists, unique = [], []
    skip = ("mediator failed",)
    try:
        w = mediate(s, lim, legs, uniq_bound=config.uniq_bound)
        skip = ("uniqueness unbounded",) if w.unique is None else ()
    except NonUnique as exc:
        unique.append(Finding("unique", (), str(exc)))
        skip = ()
    except KernelError as exc:
        exists.append(Finding("mediator", (), str(exc)))
    report.add(suite, f"universal.{name}.mediator", exists)
    report.add(suite, f"universal.{name}.triangles", [],
               skipped=bool(exists), witness=skip if exists else ())
    report.add(suite, f"universal.{name}.uniqueness", unique,
               skipped=bool(skip), witness=skip)


def check_functoriality(names, args, config, report, suite, lims):
    s = args[0]
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
    report.add(suite, f"functoriality.{names[0]}", bad)


def check_cofinal(names, args, config, report, suite, lims):
    """The isomorphism of the limits, which is built through the cofinal
    subset's moduli: when they fail, it is refused, the moduli are listed
    and its two laws are skipped."""
    s, cof = args
    iso_of = cofinal_direct_iso if s.direction == COVARIANT else cofinal_inverse_iso
    try:
        findings, moduli = iso_of(s, cof, lims).findings, []
    except NotCofinal:
        findings, moduli = [], validate_cofinal(s.index, cof)
    skip = ("moduli failed",) if moduli else ()
    report.add(suite, f"cofinal.{names[1]}.moduli", moduli)
    report.add(suite, f"cofinal.{names[0]}.round-trips",
               [f for f in findings if f.law.startswith("round-trip")],
               skipped=bool(skip), witness=skip)
    report.add(suite, f"cofinal.{names[0]}.morphisms",
               [f for f in findings if not f.law.startswith("round-trip")],
               skipped=bool(skip), witness=skip)


def check_product(names, args, config, report, suite, lims):
    """The limit of the product spectrum against the product of the limits;
    the product spectrum refuses factors of two directions."""
    s, t = args
    label = f"product.{names[0]}x{names[1]}"
    if s.direction == COVARIANT:
        res = product_limit_bijection(s, t, lims)
        count = [f for f in res.findings if f.law == "class-count"]
        rest = [f for f in res.findings if f.law != "class-count"]
        report.add(suite, f"{label}.bijection", rest)
        report.add(suite, f"{label}.class-count", count,
                   witness=tuple(str(c) for c in res.counts))
    else:
        res = product_inverse_morphism(s, t, lims)
        report.add(suite, f"{label}.pairing", res.findings,
                   witness=tuple(str(c) for c in res.counts))


def _build_pools(pool, lims):
    """(spectrum, fixed space, morphism pool per index) of a resolved pool:
    homs into its fixed space or out of it.  Indices with the same space
    share one pool (`Limits.pool`)."""
    s, fixed, hom_into = pool
    if hom_into:
        return s, fixed, {i: lims.pool(s.space(i), fixed) for i in s.index.elements}
    return s, fixed, {i: lims.pool(fixed, s.space(i)) for i in s.index.elements}


def check_duality(names, args, config, report, suite, lims):
    _check_duality("duality", duality_direct_to_inverse, names, args, report, suite, lims)


def check_duality2(names, args, config, report, suite, lims):
    _check_duality("duality2", duality_inverse_hom, names, args, report, suite, lims)


def _check_duality(kind, dual, names, args, report, suite, lims):
    """The round trips of one duality, with the side cardinality; the
    embedding of `duality` on its own; and the rest as morphisms."""
    res = dual(*_build_pools(args[0], lims), lims)
    apart = ("embedding",) if kind == "duality" else ()
    card = str(res.hom_pool.carrier.class_count()) if res.hom_pool else "?"
    report.add(suite, f"{kind}.{names[0]}.round-trips",
               [f for f in res.findings if f.law.startswith("round-trip")],
               witness=(f"side-cardinality={card}",))
    for law in apart:
        report.add(suite, f"{kind}.{names[0]}.{law}", [f for f in res.findings if f.law == law])
    report.add(suite, f"{kind}.{names[0]}.morphisms", [
        f for f in res.findings if not f.law.startswith("round-trip") and f.law not in apart])


def check_converse_duals(names, args, config, report, suite, lims):
    s, fixed, pools = _build_pools(args[0], lims)
    inverse = s.direction == CONTRAVARIANT
    res = (converse_dual_inverse if inverse else converse_dual_direct)(s, fixed, pools, lims)
    report.add(suite, f"converse.{names[0]}.morphism", res.findings)
    if inverse:
        skip = () if res.hypothesis_holds else (
            "hypothesis fails at " + ",".join(map(str, res.hypothesis_witness)),)
        report.add(suite, f"converse.{names[0]}.embedding", [],
                   skipped=bool(skip), witness=skip)


def check_directed(names, args, config, report, suite, lims):
    report.add(suite, f"directed.{names[0]}.laws", validate_directed(args[0]))


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

# What each name a check line gives after its kind refers to, in order; a
# bracketed one may be left out.
CHECK_NAMES = {
    "directed": "DIRECTED", "family": "FAMILY",
    **dict.fromkeys(("spectrum", "equivalence", "limit-direct", "limit-inverse",
                     "functoriality"), "SPECTRUM"),
    "universal-direct": "SPECTRUM [COCONE]", "universal-inverse": "SPECTRUM [CONE]",
    "cofinal": "SPECTRUM COFINAL", "product": "SPECTRUM SPECTRUM",
    **dict.fromkeys(("duality", "duality2", "converse-duals"), "POOL"),
}

# (what a refusal calls it, the Elaborated table it is looked up in)
_NAMED = {
    "DIRECTED": ("directed block", "directeds"), "FAMILY": ("family", "families"),
    "SPECTRUM": ("spectrum", "spectra"), "COCONE": ("cocone", "cocones"),
    "CONE": ("cone", "cones"), "COFINAL": ("cofinal block", "cofinals"),
    "POOL": ("pool", "pools"),
}
