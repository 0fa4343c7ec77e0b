"""Direct and inverse limits of spectra.

The direct limit is the disjoint-union carrier quotiented by transport
agreement, topologized by the thread functions factored through the
quotient.  The inverse limit is the carrier of order-compatible choices,
topologized by the projections.  Both satisfy their universal properties,
are stable under cofinal restriction, and commute with finite products;
everything here is verified exhaustively at construction or on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import (
    CONTRAVARIANT,
    COVARIANT,
    all_components_embeddings,
    direct_sum_setoid,
    embed_at,
    oriented,
    pi_map,
    sigma_map,
)
from .order import top_element
from .report import Finding
from .setoid import (
    Choice,
    Pair,
    Setoid,
    SetoidFn,
    Tag,
    _fn,
    compose,
    fn_equal,
    is_embedding,
    make_fn,
    setoid_by_key,
    unique_classwise,
)
from .spectra import (
    Spectrum,
    product_spectrum,
    restrict_spectrum,
    sum_space,
)
from .topology import (
    BSpace,
    MorphismWitness,
    RFun,
    certify_iso,
    certify_map,
    check_morphism,
    product_space,
    raise_first,
)


class LimitError(Exception):
    pass


class IllFormedLegs(LimitError):
    pass


class NonUnique(LimitError):
    """Mediator uniqueness failed; this signals a kernel bug, not bad input."""


@dataclass(eq=False)
class Mediator(MorphismWitness):
    """A mediating morphism with the outcome of its uniqueness check: True
    when the check confirmed it, None when the |codomain|^|classes|
    class-constant candidates exceed the bound and the check did not run."""

    unique: bool | None = None


# --- what both limits share: legs, mediators, induced maps -------------------

@dataclass(eq=False)
class Legs:
    """Compatible legs between the spaces of a spectrum and one apex.

    Over a covariant spectrum they run into the apex (a cocone), over a
    contravariant one out of it (a cone): `oriented` reads which, as it
    does for the transports and for a limit's own legs `lim.leg(i)`.
    """

    apex: BSpace
    legs: dict  # index element -> MorphismWitness between s.space(i) and the apex


def validate_legs(s, c):
    """A leg at every index and every triangle commuting.

    The legs are not checked as morphisms here: every `Legs` the kernel or
    a document makes comes from `certify_map`, which validates each
    certificate it makes, and each mediator checks its own certificates,
    which fail when some leg is not a morphism.
    """
    findings = []
    for i in s.index.elements:
        if i not in c.legs:
            findings.append(Finding("leg-missing", (i,)))
            return findings
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        via = compose(*oriented(s.direction, s.fam.transport(i, j), c.legs[j].h))
        if not fn_equal(via, c.legs[i].h):
            findings.append(Finding("triangle", (i, j)))
    return findings


def commutes(s, lim, c, h):
    """Whether h, a map out of a direct limit or into an inverse limit,
    composed with the limit's leg at each index gives the leg of c there."""
    return all(fn_equal(compose(*oriented(s.direction, lim.leg(i), h)), c.legs[i].h)
               for i in s.index.elements)


def own_legs(lim):
    """The limit's own legs, its class maps or projections, as Legs."""
    s = lim.spectrum
    legs = {}
    for i in s.index.elements:
        missing = []
        legs[i] = certify_map(*oriented(s.direction, s.space(i), lim.space), lim.leg(i),
                              "leg", missing)
        raise_first(missing, LimitError, lambda k: f"leg at {i} is not a morphism")
    return Legs(lim.space, legs)


def _mediator(s, lim, c, h, certs, unique):
    """The Mediator h, its certificates checked, tested against every leg
    of c; `unique()` is its uniqueness outcome."""
    if not commutes(s, lim, c, h):
        raise IllFormedLegs("mediator does not commute with every leg")
    witness = Mediator(h, certs)
    witness.unique = unique()
    return witness


def _induced_map(lim_s, lim_t, psi, fwd, label, what):
    """The induced map fwd of limits of the family map psi, checked to
    embed when every component embeds, and certified as a morphism of the
    limit spaces."""
    if all_components_embeddings(psi)[0]:
        ok, witness_pair = is_embedding(fwd)
        if not ok:
            raise LimitError(
                f"embedding components gave a non-embedding limit map at {witness_pair}")
    missing = []
    witness = certify_map(lim_s.space, lim_t.space, fwd, label, missing)
    raise_first(missing, LimitError, lambda k: f"no certificate for a pulled-back {what}")
    return witness


# --- direct limits -----------------------------------------------------------

@dataclass(eq=False)
class DirectLimit:
    spectrum: Spectrum
    carrier: Setoid   # tagged pairs with the transport-agreement equality
    threads: list  # thread n made generator n of the subbase
    space: BSpace

    def leg(self, i):
        """The map sending a carrier element at i to its class."""
        # the carrier is the direct sum setoid of a family with extensional
        # transports, so embed_at's unchecked build is a map
        return embed_at(self.spectrum.fam, i, self.carrier)

    def canonical(self, token):
        """Representative of a class at the top index."""
        fam = self.spectrum.fam
        i, x = token
        t = fam.top()
        return t, fam.transport(i, t)(x)

    def class_count(self):
        return self.carrier.class_count()

    def repr_classes(self):
        """One token per class, in carrier order."""
        return [cls[0] for cls in self.carrier.classes()]


def direct_limit(s):
    """Quotient carrier plus the factored thread topology."""
    if s.direction != COVARIANT:
        raise LimitError("direct limit needs a covariant spectrum")
    carrier = direct_sum_setoid(s.fam)
    space_obj, threads = sum_space(s, carrier)
    return DirectLimit(s, carrier, threads, space_obj)


def cocone_mediator(s, lim, c, uniq_bound=1_000_000):
    """The unique morphism out of the limit commuting with every leg, as a
    Mediator that records whether its uniqueness search ran.

    Its certificates are assembled from the legs: a generator of the apex
    composed with the legs forms a thread, whose limit function is the
    pullback of the generator.
    """
    findings = validate_legs(s, c)
    if findings:
        raise IllFormedLegs(str(findings[0]))
    table = {}
    for token in lim.carrier.elements:
        i, x = token
        table[token] = c.legs[i].h(x)
    h = make_fn(lim.carrier, c.apex.carrier, table)  # well-defined on classes
    missing = []
    certs = certify_map(lim.space, c.apex, h, "apex", missing).certs
    raise_first(missing, IllFormedLegs,
                lambda k: f"no certificate for apex generator {k} over the limit subbase")
    return _mediator(s, lim, c, h, certs,
                     lambda: _check_unique_mediator(lim, c, h, uniq_bound))


def _check_unique_mediator(lim, c, h, bound):
    classes = lim.carrier.classes()
    apex = c.apex.carrier
    if len(apex.elements) ** len(classes) > bound:
        return None  # uniqueness unbounded; callers report it as skipped
    leg_at = {Tag((i, x)): c.legs[i].h(x)
              for i in lim.spectrum.index.elements
              for x in lim.spectrum.fam.carrier(i).elements}
    if not unique_classwise(
            classes, apex.elements,
            lambda cls, v: all(apex.eq(v, leg_at[a]) for a in cls),
            lambda cls, v: any(not apex.eq(v, h(a)) for a in cls)):
        raise NonUnique("a second mediator satisfies all triangles")
    return True


def limit_map(s, t, psi, lims):
    """The morphism of direct limits induced by the family map psi of the
    spectra s and t, classwise on representatives, as its witness.

    When every component embeds, the induced map is checked to embed too.
    """
    lim_s, lim_t = lims.direct(s), lims.direct(t)
    fwd = sigma_map(psi, lim_s.carrier, lim_t.carrier)
    return _induced_map(lim_s, lim_t, psi, fwd, "pullback", "generator")


@dataclass
class CofinalIso:
    forward: SetoidFn      # limit over the subset -> limit over the whole index
    findings: list = field(default_factory=list)


def cofinal_direct_iso(s, cof, lims):
    """Mutually inverse morphisms between the limit and its cofinal restriction."""
    sub = restrict_spectrum(s, cof)
    lim, sub_lim = lims.direct(s), lims.direct(sub)

    fwd_table = {}
    for token in sub_lim.carrier.elements:
        j, y = token
        fwd_table[token] = Tag((cof.embed(j), y))
    forward = make_fn(sub_lim.carrier, lim.carrier, fwd_table)

    bwd_table = {}
    for token in lim.carrier.elements:
        i, x = token
        j = cof.cof(i)
        bwd_table[token] = Tag((j, s.fam.transport(i, cof.embed(j))(x)))
    backward = make_fn(lim.carrier, sub_lim.carrier, bwd_table)
    return _cofinal_iso(lim, sub_lim, forward, backward)


def _cofinal_iso(lim, sub_lim, forward, backward):
    """The two-sided check of forward: sub_lim -> lim and its inverse."""
    findings = certify_iso(
        (("forward", sub_lim.space, lim.space, forward),
         ("backward", lim.space, sub_lim.space, backward)),
        (("round-trip", backward, forward), ("round-trip-subset", forward, backward)))
    return CofinalIso(forward, findings)


@dataclass
class ProductLimitResult:
    counts: tuple
    findings: list = field(default_factory=list)


def product_limit_bijection(s, t, lims):
    """The limit of a product spectrum against the product of the limits."""
    prod, _ = product_spectrum(s, t)
    lim_prod, lim_s, lim_t = lims.direct(prod), lims.direct(s), lims.direct(t)
    pair_space, _, _ = product_space(lim_s.space, lim_t.space)
    findings = []

    table = {}
    for token in lim_prod.carrier.elements:
        (i, j), (x, y) = token
        table[token] = Pair((Tag((i, x)), Tag((j, y))))
    to_pair = make_fn(lim_prod.carrier, pair_space.carrier, table)

    ok, witness = is_embedding(to_pair)
    if not ok:
        findings.append(Finding("injective", witness))
    image = {pair_space.carrier.class_repr(to_pair(a))
             for a in lim_prod.carrier.elements}
    targets = {pair_space.carrier.class_repr(b)
               for b in pair_space.carrier.elements}
    if image != targets:
        findings.append(Finding("surjective", ()))

    certify_map(lim_prod.space, pair_space, to_pair, "pair", findings)
    counts = (lim_prod.class_count(), lim_s.class_count(), lim_t.class_count())
    if counts[0] != counts[1] * counts[2]:
        findings.append(Finding("class-count", counts))
    return ProductLimitResult(counts, findings)


# --- inverse limits ----------------------------------------------------------

@dataclass(eq=False)
class InverseLimit:
    spectrum: Spectrum
    carrier: Setoid
    assignments: dict  # carrier token -> {index element -> carrier element}
    space: BSpace
    gen_sources: list = field(default_factory=list)  # per gen: (index, gen pos)
    by_key: dict = field(default_factory=dict)  # _choice_key -> its first token

    def leg(self, i):
        """The projection to the carrier at i."""
        fam = self.spectrum.fam
        # the carrier is keyed by the components' classes: equal tokens agree
        return _fn(self.carrier, fam.carrier(i),
                   {tok: self.assignments[tok][i] for tok in self.carrier.elements})

    def token_of(self, assignment):
        """The first carrier token, in carrier order, matching an assignment
        pointwise, or None."""
        return self.by_key.get(_choice_key(self.spectrum, assignment))

    def class_count(self):
        return self.carrier.class_count()


def _choice_key(s, assignment):
    """The classes of an assignment's components, in index order: two
    choices are equal exactly when their keys are."""
    fam = s.fam
    return tuple([fam.carrier(i).class_repr(assignment[i]) for i in s.index.elements])


def inverse_limit(s):
    """The order-compatible choices, one per top element, topologized by
    the projections.

    A compatible choice is fixed up to equality by its component at the
    top t, since compatibility on (i, t) gives a_i = lambda_it(a_t).  So
    each top element x, in top-carrier order, is pulled back to the choice
    a_t = x, a_i = lambda_it(x), which is kept when every order pair
    (i, j), reflexive ones included, agrees by class id: a_i and
    lambda_ij(a_j) lie in one class at i.  Every class of compatible
    choices has a token, and on discrete carriers the tokens are the
    choices themselves, in the order a search from the top finds them.
    """
    if s.direction != CONTRAVARIANT:
        raise LimitError("inverse limit needs a contravariant spectrum")
    fam, els = s.fam, s.index.elements
    t = fam.top()
    down = {i: fam.transport(i, t).mapping for i in els}
    laws = [(fam.carrier(i).class_id, fam.transport(i, j).mapping, i, j)
            for i, j in s.index.pairs]
    choices = []
    for x in fam.carrier(t).elements:
        a = {i: x if i == t else down[i][x] for i in els}
        if all(ids[a[i]] == ids[lam[a[j]]] for ids, lam, i, j in laws):
            choices.append(a)
    return _limit_of_choices(s, choices)


def _limit_of_choices(s, choices):
    """The inverse-limit carrier on the listed compatible choices, one
    token each in list order, topologized by the projections."""
    els = s.index.elements
    tokens, keys, assignments, by_key = [], [], {}, {}
    for a in choices:
        tok = Choice([a[i] for i in els])
        tokens.append(tok)
        keys.append(_choice_key(s, a))
        assignments[tok] = a
        by_key.setdefault(keys[-1], tok)
    carrier = setoid_by_key(tuple(tokens), keys)
    gens, names, sources = [], [], []
    seen = set()
    for i in els:
        sp = s.space(i)
        for k, f in enumerate(sp.gens):
            values = {tok: f(assignments[tok][i]) for tok in tokens}
            key = tuple(values[tok] for tok in tokens)
            if key in seen:
                continue
            seen.add(key)
            gens.append(RFun(carrier, values))
            names.append(f"proj[{i},{sp.names[k]}]")
            sources.append((i, k))
    return InverseLimit(s, carrier, assignments,
                        BSpace(carrier, tuple(gens), tuple(names)), sources, by_key)


class Limits:
    """The limit of each spectrum, built the first time it is asked for.

    Every limit a check needs comes from here: a declared spectrum's, and
    those of the spectra a check derives from it (a cofinal restriction, a
    product, an induced morphism-space spectrum).  Limits are keyed by
    spectrum identity.  A build that raises is not kept: every check that
    needs the limit meets the error again and reports it.
    """

    def __init__(self):
        self._direct = {}
        self._inverse = {}

    def direct(self, s):
        if s not in self._direct:
            self._direct[s] = direct_limit(s)
        return self._direct[s]

    def inverse(self, s):
        if s not in self._inverse:
            self._inverse[s] = inverse_limit(s)
        return self._inverse[s]


def top_determinacy_check(lim):
    """Every top element pulls back to a compatible choice, as in
    `inverse_limit`.

    Equal top elements pull back to equal choices, since the transports
    are extensional, and every compatible choice equals the pull-back of
    its top component; so this fails exactly when some pull-back is not
    compatible.
    """
    s = lim.spectrum
    t = top_element(s.index)
    fam = s.fam
    for x in fam.carrier(t).elements:
        a = {i: x if i == t else fam.transport(i, t)(x) for i in s.index.elements}
        if lim.token_of(a) is None:
            return False
    return True


def cone_mediator(s, lim, c, uniq_bound=1_000_000):
    """The unique morphism into the limit commuting with every projection,
    as a Mediator that records whether its uniqueness search ran."""
    findings = validate_legs(s, c)
    if findings:
        raise IllFormedLegs(str(findings[0]))
    table = {}
    for y in c.apex.carrier.elements:
        assignment = {i: c.legs[i].h(y) for i in s.index.elements}
        tok = lim.token_of(assignment)
        if tok is None:
            raise IllFormedLegs(f"legs at {y} do not form a compatible choice")
        table[y] = tok
    h = make_fn(c.apex.carrier, lim.carrier, table)
    # (f . proj_i) . h = f . leg_i, since proj_i . h agrees with leg_i up to
    # equality and f respects it; so the leg's certificate for f serves.  It
    # is read off the legs, not built, so it is checked here (a missing one
    # is a `missing-certificate` finding)
    certs = {k: c.legs[i].certs[pos] for k, (i, pos) in enumerate(lim.gen_sources)
             if pos in c.legs[i].certs}
    bad = check_morphism(c.apex, lim.space, MorphismWitness(h, certs))
    if bad:
        raise IllFormedLegs(str(bad[0]))
    return _mediator(s, lim, c, h, certs,
                     lambda: _check_unique_cone_mediator(s, lim, c, h, uniq_bound))


def _check_unique_cone_mediator(s, lim, c, h, bound):
    classes = c.apex.carrier.classes()
    if len(lim.carrier.elements) ** len(classes) > bound:
        return None
    legs = [(i, s.fam.carrier(i).eq, c.legs[i].h) for i in s.index.elements]

    def admissible(cls, tok):
        a = lim.assignments[tok]
        return all(eq(a[i], leg(y)) for y in cls for i, eq, leg in legs)

    if not unique_classwise(
            classes, lim.carrier.elements, admissible,
            lambda cls, tok: any(not lim.carrier.eq(tok, h(y)) for y in cls)):
        raise NonUnique("a second cone mediator satisfies all triangles")
    return True


def inverse_limit_map(s, t, psi, lims):
    """The morphism of inverse limits induced by the family map psi of the
    spectra s and t, componentwise, as its witness.

    When every component embeds, the induced map is checked to embed too.
    """
    lim_s, lim_t = lims.inverse(s), lims.inverse(t)
    table = {}
    for tok, a in lim_s.assignments.items():
        target = lim_t.token_of(pi_map(psi, a))
        if target is None:
            raise LimitError("image of a compatible choice is not compatible")
        table[tok] = target
    fwd = make_fn(lim_s.carrier, lim_t.carrier, table)
    return _induced_map(lim_s, lim_t, psi, fwd, "projection", "projection")


def cofinal_inverse_iso(s, cof, lims):
    """Mutually inverse morphisms between an inverse limit and its cofinal
    restriction: restriction in one direction, transport fill-in in the other."""
    sub = restrict_spectrum(s, cof)
    lim, sub_lim = lims.inverse(s), lims.inverse(sub)
    findings = []

    fwd_table = {}
    for tok, a in sub_lim.assignments.items():
        filled = {}
        for i in s.index.elements:
            j = cof.cof(i)
            filled[i] = s.fam.transport(i, cof.embed(j))(a[j])
        target = lim.token_of(filled)
        if target is None:
            findings.append(Finding("fill-in", (tok,)))
            continue
        fwd_table[tok] = target
    if findings:
        return CofinalIso(None, findings)
    forward = make_fn(sub_lim.carrier, lim.carrier, fwd_table)

    bwd_table = {}
    for tok, a in lim.assignments.items():
        restricted = {j: a[cof.embed(j)] for j in sub.index.elements}
        target = sub_lim.token_of(restricted)
        if target is None:
            findings.append(Finding("restriction", (tok,)))
            continue
        bwd_table[tok] = target
    if findings:
        return CofinalIso(None, findings)
    backward = make_fn(lim.carrier, sub_lim.carrier, bwd_table)
    return _cofinal_iso(lim, sub_lim, forward, backward)


def product_inverse_morphism(s, t, lims):
    """Pairing of compatible choices into the product spectrum's limit."""
    prod, _ = product_spectrum(s, t)
    lim_s, lim_t, lim_prod = lims.inverse(s), lims.inverse(t), lims.inverse(prod)
    pair_space, _, _ = product_space(lim_s.space, lim_t.space)
    findings = []

    table = {}
    for a in pair_space.carrier.elements:
        tok_s, tok_t = a
        asg_s = lim_s.assignments[tok_s]
        asg_t = lim_t.assignments[tok_t]
        paired = {}
        for ij in prod.index.elements:
            i, j = ij
            paired[ij] = Pair((asg_s[i], asg_t[j]))
        target = lim_prod.token_of(paired)
        if target is None:
            findings.append(Finding("pairing", (a,)))
            continue
        table[a] = target
    if findings:
        return ProductLimitResult((), findings)
    pairing = make_fn(pair_space.carrier, lim_prod.carrier, table)
    certify_map(pair_space, lim_prod.space, pairing, "pair", findings)
    counts = (lim_prod.class_count(), lim_s.carrier.class_count(),
              lim_t.carrier.class_count())
    return ProductLimitResult(counts, findings)
