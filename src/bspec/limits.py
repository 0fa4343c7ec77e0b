"""Direct and inverse limits of spectra.

The direct limit is the disjoint-union carrier quotiented by transport
agreement, topologized by the thread functions factored through the
quotient.  The inverse limit is the carrier of order-compatible choices,
topologized by the projections.  Both satisfy their universal properties,
are stable under cofinal restriction, and commute with finite products;
everything here is verified exhaustively at construction or on demand.
"""

from __future__ import annotations

from functools import cached_property
from operator import getitem

from .duality import enumerate_morphisms
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
from .order import top_element, validate_cofinal
from .report import Finding, KernelError, raise_first
from .setoid import (
    Choice,
    Pair,
    Tag,
    UnknownElement,
    _fn,
    check_extensional,
    compose,
    fn_equal,
    is_embedding,
    make_fn,
    setoid_by_key,
)
from .spectra import (
    product_spectrum,
    restrict_spectrum,
    sum_space,
)
from .topology import (
    BSpace,
    CGen,
    MorphismWitness,
    RFun,
    ValueCodes,
    certify_iso,
    certify_map,
    check_morphism,
    check_morphism_as,
    product_space,
)


# The default size of the uniqueness question: a mediator's uniqueness is
# left unchecked when its |codomain|^|classes| candidates exceed it.
UNIQ_BOUND = 1_000_000


class LimitError(KernelError):
    pass


class IllFormedLegs(LimitError):
    pass


class NonUnique(LimitError):
    """Mediator uniqueness failed; this signals a kernel bug, not bad input."""


class NotCofinal(LimitError):
    """A subset whose moduli fail, refused as cofinal."""


class Mediator(MorphismWitness):
    """A mediating morphism with the outcome of its uniqueness check: True
    when the check confirmed it, None when the |codomain|^|classes|
    class-constant candidates exceed the bound and the check did not run.
    The check reads the class ids each domain class admits
    (`_unique_on_class_ids`), in one pass over the domain: O(|domain|) for
    a direct limit, O((|apex| + |limit|)·|index|) for an inverse limit."""

    __slots__ = ("unique",)

    def __init__(self, h, certs, unique=None):
        self.h = h
        self.certs = certs
        self.unique = unique


# --- what both limits share: legs, mediators, induced maps -------------------

class Legs:
    """Compatible legs between the spaces of a spectrum and one apex.

    Over a covariant spectrum they run into the apex (a cocone), over a
    contravariant one out of it (a cone): `oriented` reads which, as it
    does for the transports and for a limit's own legs `lim.leg(i)`.
    """

    def __init__(self, apex, legs):
        self.apex = apex  # a BSpace
        # index element -> MorphismWitness between s.space(i) and the apex
        self.legs = legs


def validate_legs(s, c):
    """A leg at every index and every triangle commuting.

    The triangles are checked along the covers of the index only when
    that decides them all (`_cover_triangles_hold`); when a cover triangle
    fails, or the covers do not decide, every order pair is scanned, so the
    findings are the scan's.

    The legs are not checked as morphisms here: a document's legs come
    from `certify_map`, which validates each certificate it makes, a
    limit's own from `own_legs`, which checks each one it reads, and each
    mediator checks its own certificates, which fail when some leg is not
    a morphism.
    """
    findings = []
    for i in s.index.elements:
        if i not in c.legs:
            findings.append(Finding("leg-missing", (i,)))
            return findings
    if _cover_triangles_hold(s, c):
        return findings
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        if not _triangle_commutes(s, c, i, j):
            findings.append(Finding("triangle", (i, j)))
    return findings


def _triangle_commutes(s, c, i, j):
    """Whether the transport of i <= j and the leg at one end compose to
    the leg at the other."""
    via = compose(*oriented(s.direction, s.fam.transport(i, j), c.legs[j].h))
    return fn_equal(via, c.legs[i].h)


def _cover_triangles_hold(s, c):
    """Whether every triangle commutes, shown on the covers i < j alone;
    False when that does not show it.

    The covers decide when the index is a partial order, the family is
    lawful (`DirectFamily.lawful`, kept on the family, so this is one read)
    and, over a covariant spectrum, every leg is extensional.  For i < j
    take a cover i < m <= j:
    by induction on the longest chain from i to j, the leg at m is the leg
    at j after the transport of m <= j.  Covariantly, leg_i(x) is then
    leg_j(lambda_mj(lambda_im(x))), which is leg_j(lambda_ij(x)) because
    the composite is lambda_ij up to equality and leg_j is extensional.
    Contravariantly, leg_i(y) is lambda_im(lambda_mj(leg_j(y))), which is
    lambda_ij(leg_j(y)) because lambda_im is extensional, as every
    transport of a lawful family is.
    """
    covers = s.index.covers
    if covers is None or not s.fam.lawful:
        return False
    if s.direction == COVARIANT and not all(
            check_extensional(c.legs[i].h)[0] for i in s.index.elements):
        return False
    return all(_triangle_commutes(s, c, i, j)
               for i in s.index.elements for j in covers[i])


def commutes(s, lim, c, h):
    """Whether h, a map out of a direct limit or into an inverse limit,
    composed with the limit's leg at each index gives the leg of c there."""
    return all(fn_equal(compose(*oriented(s.direction, lim.leg(i), h)), c.legs[i].h)
               for i in s.index.elements)


def own_legs(lim):
    """The limit's own legs, its class maps or projections, as Legs.

    Each leg's certificates are read off what the limit already holds
    (`lim.leg_certs(i)`), not searched for, and checked as a morphism: a
    certificate that fails raises LimitError with its `leg-` finding.
    """
    s = lim.spectrum
    legs = {}
    for i in s.index.elements:
        w = legs[i] = MorphismWitness(lim.leg(i), lim.leg_certs(i))
        src, dst = oriented(s.direction, s.space(i), lim.space)
        raise_first(check_morphism_as("leg", src, dst, w), LimitError)
    return Legs(lim.space, legs)


def _mediator(s, lim, c, h, certs, unique):
    """The Mediator h, its certificates checked, tested against every leg
    of c; `unique()` is its uniqueness outcome."""
    if not commutes(s, lim, c, h):
        raise IllFormedLegs("mediator does not commute with every leg")
    return Mediator(h, certs, unique())


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

class DirectLimit:
    def __init__(self, spectrum, carrier, threads, space):
        self.spectrum = spectrum
        self.carrier = carrier  # tagged pairs with the transport-agreement equality
        self.threads = threads  # thread n made generator n of the subbase
        self.space = space  # a BSpace

    def leg(self, i):
        """The map sending a carrier element at i to its class."""
        # the carrier is the direct sum setoid of a family with extensional
        # transports, so embed_at's unchecked build is a map
        return embed_at(self.spectrum.fam, i, self.carrier)

    def leg_certs(self, i):
        """The certificates of the limit generators pulled back along the
        leg at i: generator n pulls back to thread n's component at i,
        whose certificate the thread holds."""
        return {n: t.certs[i] for n, t in enumerate(self.threads)}

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


def cocone_mediator(s, lim, c, uniq_bound=UNIQ_BOUND):
    """The unique morphism out of the limit commuting with every leg, as a
    Mediator that records whether its uniqueness search ran.

    Its certificates are searched for (`certify_map`), not read off the
    legs: a leg's certificate for an apex generator is a derivation over
    the space at its index, not over the limit subbase.
    """
    raise_first(validate_legs(s, c), IllFormedLegs)
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
    # the token (i, x) admits the apex class of leg_i(x)
    apex_id = apex.class_id
    legs = {i: c.legs[i].h.mapping for i in lim.spectrum.index.elements}
    admits = {a: apex_id[legs[a[0]][a[1]]] for cls in classes for a in cls}
    if not _unique_on_class_ids(classes, admits, {k: {k} for k in admits.values()},
                                {a: apex_id[v] for a, v in h.mapping.items()}):
        raise NonUnique("a second mediator satisfies all triangles")
    return True


def _unique_on_class_ids(classes, admits, admitted, value_id):
    """Whether the given map is the only class-constant map on `classes`
    meeting the legs' constraint, decided on class ids: the answer of the
    enumeration of every such map (kept in tests/oracles.py), in one pass
    over the members.

    Each member x admits the target values of one group, `admits[x]`, and
    distinct groups are disjoint, so a class admits the group its members
    share, or nothing when they do not share one.  `admitted[g]` is the
    set of target class ids of the values of group g (absent when there
    are none), and `value_id[x]` the class id of the given map's value at
    x.  When some class admits nothing, no map meets the constraint and
    the given one is vacuously unique; otherwise a second one exists
    exactly when some class admits a value outside the class of the given
    map's value at one of its members.
    """
    second = False
    for cls in classes:
        group = admits[cls[0]]
        ids = admitted.get(group)
        if not ids:
            return True
        for x in cls:
            if admits[x] != group:
                return True
            if ids != {value_id[x]}:
                second = True
    return not second


def limit_map(s, t, psi, lims):
    """The morphism of direct limits induced by the family map psi of the
    spectra s and t, classwise on representatives, as its witness.

    When every component embeds, the induced map is checked to embed too.
    """
    lim_s, lim_t = lims.direct(s), lims.direct(t)
    fwd = sigma_map(psi, lim_s.carrier, lim_t.carrier)
    return _induced_map(lim_s, lim_t, psi, fwd, "pullback", "generator")


class CofinalIso:
    def __init__(self, forward, findings=None):
        self.forward = forward  # limit over the subset -> limit over the whole index
        self.findings = [] if findings is None else findings


def cofinal_direct_iso(s, cof, lims):
    """Mutually inverse morphisms between the limit and its cofinal restriction."""
    raise_first(validate_cofinal(s.index, cof),
                lambda text: NotCofinal(f"not a cofinal subset: {text}"))
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


class ProductLimitResult:
    def __init__(self, counts, findings=None):
        self.counts = counts
        self.findings = [] if findings is None else findings


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
    # to_pair respects classes (make_fn checks it), so one member per class
    # shows its image, read off the map itself
    ids = pair_space.carrier.class_id
    hit = {ids[to_pair.mapping[cls[0]]] for cls in lim_prod.carrier.classes()}
    if len(hit) != pair_space.carrier.class_count():
        findings.append(Finding("surjective", ()))

    certify_map(lim_prod.space, pair_space, to_pair, "pair", findings)
    counts = (lim_prod.class_count(), lim_s.class_count(), lim_t.class_count())
    if counts[0] != counts[1] * counts[2]:
        findings.append(Finding("class-count", counts))
    return ProductLimitResult(counts, findings)


# --- inverse limits ----------------------------------------------------------

class InverseLimit:
    def __init__(self, spectrum, carrier, assignments, space, gen_sources=None,
                 by_key=None, gen_at=None):
        self.spectrum = spectrum
        self.carrier = carrier
        self.assignments = assignments  # carrier token -> {index element -> carrier element}
        self.space = space
        # per gen: (index, gen pos)
        self.gen_sources = [] if gen_sources is None else gen_sources
        # index -> per gen pos, CGen of the gen its column equals
        self.gen_at = {} if gen_at is None else gen_at
        self.by_key = {} if by_key is None else by_key  # _choice_key -> its first token

    def leg(self, i):
        """The projection to the carrier at i."""
        fam = self.spectrum.fam
        # the carrier is keyed by the components' classes: equal tokens agree
        return _fn(self.carrier, fam.carrier(i),
                   {tok: self.assignments[tok][i] for tok in self.carrier.elements})

    def leg_certs(self, i):
        """The certificates of the generators at i pulled back along the
        projection: generator k's is the limit generator its column equals."""
        return dict(enumerate(self.gen_at[i]))

    def token_of(self, assignment):
        """The first carrier token, in carrier order, matching an assignment
        pointwise, or None."""
        return self.by_key.get(_choice_key(self._key_at, assignment))

    @cached_property
    def _key_at(self):
        return _choice_key_at(self.spectrum)

    def class_count(self):
        return self.carrier.class_count()


def _choice_key_at(s):
    """What `_choice_key` reads: the index elements in carrier order, and
    the class ids of the carrier at each."""
    els = s.index.elements
    return els, [s.fam.carrier(i).class_id for i in els]


def _choice_key(at, assignment):
    """The class ids of an assignment's components, in index order, with
    `at` = _choice_key_at(s): two choices are equal exactly when their keys
    are.  A component off its carrier raises UnknownElement."""
    els, ids = at
    try:
        return tuple(map(getitem, ids, map(assignment.__getitem__, els)))
    except KeyError:
        for i, class_id in zip(els, ids):
            if assignment[i] not in class_id:
                raise UnknownElement(assignment[i]) from None
        raise


def inverse_limit(s):
    """The order-compatible choices, one per top element, topologized by
    the projections.

    A compatible choice is fixed up to equality by its component at the
    top t, since compatibility on (i, t) gives a_i = lambda_it(a_t).  So
    each top element x, in top-carrier order, is pulled back to the choice
    a_t = x, a_i = lambda_it(x), which is kept when every order pair
    (i, j), reflexive ones included, agrees by class id: a_i and
    lambda_ij(a_j) lie in one class at i.  On a lawful family
    (`DirectFamily.lawful`) every pull-back agrees, since lambda_ij .
    lambda_jt is lambda_it up to equality, so no pair is read.  Every class
    of compatible choices has a token, and on discrete carriers the tokens
    are the choices themselves, in the order a search from the top finds
    them.
    """
    if s.direction != CONTRAVARIANT:
        raise LimitError("inverse limit needs a contravariant spectrum")
    fam, els = s.fam, s.index.elements
    t = fam.top()
    down = {i: fam.transport(i, t).mapping for i in els}
    laws = [] if fam.lawful else [
        (fam.carrier(i).class_id, fam.transport(i, j).mapping, i, j)
        for i, j in s.index.order_pairs()]
    choices = []
    for x in fam.carrier(t).elements:
        a = {i: x if i == t else down[i][x] for i in els}
        if all(ids[a[i]] == ids[lam[a[j]]] for ids, lam, i, j in laws):
            choices.append(a)
    return _limit_of_choices(s, choices)


def _limit_of_choices(s, choices):
    """The inverse-limit carrier on the listed compatible choices, one
    token each in list order, topologized by the projections.

    Each generator at i is read along the column of the choices'
    components at i, and its table on the tokens is built only when its
    values are new, so no token is hashed for a projection left out.  The
    limit generator each column equals is recorded as its certificate, one
    CGen object per limit generator (`gen_at`)."""
    at = _choice_key_at(s)
    els = at[0]
    tokens, keys, assignments, by_key = [], [], {}, {}
    for a in choices:
        tok = Choice([a[i] for i in els])
        tokens.append(tok)
        keys.append(_choice_key(at, a))
        assignments[tok] = a
        by_key.setdefault(keys[-1], tok)
    carrier = setoid_by_key(tuple(tokens), keys)
    gens, names, sources = [], [], []
    codes, position, gen_at = ValueCodes(), {}, {}
    for i in els:
        sp = s.space(i)
        column = [a[i] for a in choices]
        at = gen_at[i] = []
        for k, f in enumerate(sp.gens):
            values = list(map(f.values.__getitem__, column))
            key = codes.key(values)
            if key not in position:
                position[key] = CGen(len(gens))
                gens.append(RFun(carrier, dict(zip(tokens, values))))
                names.append(f"proj[{i},{sp.names[k]}]")
                sources.append((i, k))
            at.append(position[key])
    return InverseLimit(s, carrier, assignments,
                        BSpace(carrier, tuple(gens), tuple(names)), sources, by_key,
                        gen_at)


class Limits:
    """The limit of each spectrum, and the morphism pool between each pair
    of spaces, built the first time it is asked for.

    Every limit a check needs comes from here: a declared spectrum's, and
    those of the spectra a check derives from it (a cofinal restriction, a
    product, an induced morphism-space spectrum).  Limits are keyed by
    spectrum identity, pools by the identities of their two spaces.  A
    build that raises is not kept: every check that needs it meets the
    error again and reports it.
    """

    def __init__(self):
        self._direct = {}
        self._inverse = {}
        self._pools = {}

    def direct(self, s):
        if s not in self._direct:
            self._direct[s] = direct_limit(s)
        return self._direct[s]

    def inverse(self, s):
        if s not in self._inverse:
            self._inverse[s] = inverse_limit(s)
        return self._inverse[s]

    def pool(self, src, dst):
        """enumerate_morphisms(src, dst), shared by every index and check
        that asks for the same two spaces."""
        key = (src, dst)
        if key not in self._pools:
            self._pools[key] = enumerate_morphisms(src, dst)
        return self._pools[key]


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


def cone_mediator(s, lim, c, uniq_bound=UNIQ_BOUND):
    """The unique morphism into the limit commuting with every projection,
    as a Mediator that records whether its uniqueness search ran."""
    raise_first(validate_legs(s, c), IllFormedLegs)
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
    raise_first(check_morphism(c.apex, lim.space, MorphismWitness(h, certs)),
                IllFormedLegs)
    return _mediator(s, lim, c, h, certs,
                     lambda: _check_unique_cone_mediator(s, lim, c, h, uniq_bound))


def _check_unique_cone_mediator(s, lim, c, h, bound):
    classes = c.apex.carrier.classes()
    if len(lim.carrier.elements) ** len(classes) > bound:
        return None
    lim_id = lim.carrier.class_id
    # a choice's key is its components' class ids in index order, read off
    # each token's own assignment (not `lim.by_key`, which trusts the
    # construction this check is there to catch); the apex element y
    # admits the tokens whose key is the key of the legs at y
    at = [(s.fam.carrier(i).class_id, c.legs[i].h.mapping, i)
          for i in s.index.elements]
    admitted = {}
    for tok in lim.carrier.elements:
        a = lim.assignments[tok]
        admitted.setdefault(tuple([ids[a[i]] for ids, _, i in at]),
                            set()).add(lim_id[tok])
    admits = {y: tuple([ids[leg[y]] for ids, leg, _ in at])
              for cls in classes for y in cls}
    if not _unique_on_class_ids(classes, admits, admitted,
                                {y: lim_id[v] for y, v in h.mapping.items()}):
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
    raise_first(validate_cofinal(s.index, cof),
                lambda text: NotCofinal(f"not a cofinal subset: {text}"))
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
