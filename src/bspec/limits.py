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
from itertools import product as iproduct

from .families import (
    CONTRAVARIANT,
    COVARIANT,
    direct_sum_pairs,
    enumerate_compatible,
)
from .order import induced_order, top_element
from .report import Finding
from .setoid import (
    Setoid,
    SetoidFn,
    class_pairs,
    compose,
    discrete,
    fn_equal,
    is_embedding,
    make_fn,
    pair_token,
    quotient_by,
    split_pair,
    split_tag,
    tag_token,
)
from .spectra import (
    Spectrum,
    Thread,
    pullback_thread,
    restrict_spectrum,
    sum_space,
    thread_to_sum_function,
)
from .topology import (
    BSpace,
    CGen,
    MorphismWitness,
    RFun,
    Subbase,
    certificate_for,
    check_morphism,
    compose_rfun,
    gen_position,
    validate_certificate,
)


class LimitError(Exception):
    pass


class IllFormedCocone(LimitError):
    pass


class IllFormedCone(LimitError):
    pass


class NonUnique(LimitError):
    """Mediator uniqueness failed; this signals a kernel bug, not bad input."""


@dataclass(eq=False)
class Mediator(MorphismWitness):
    """A mediating morphism with the outcome of its uniqueness search: True
    when the exhaustive search confirmed it, None when the search space
    exceeded the bound and the search did not run."""

    unique: bool | None = None


# --- direct limits -----------------------------------------------------------

@dataclass(eq=False)
class DirectLimit:
    spectrum: Spectrum
    quotient: object  # QuotientSetoid over the raw tagged pairs
    carrier: Setoid   # tagged pairs with the transport-agreement equality
    threads: list
    space: BSpace

    def class_of(self, i, x):
        return tag_token(i, x)

    def embed(self, i):
        """The map sending a carrier element to its class."""
        fam = self.spectrum.fam
        return make_fn(fam.carrier(i), self.carrier,
                       {x: tag_token(i, x) for x in fam.carrier(i).elements})

    def canonical(self, token):
        """Representative of a class at the top index."""
        fam = self.spectrum.fam
        i, x = split_tag(token)
        t = fam.top()
        return t, fam.transport(i, t)(x)

    def class_count(self):
        return self.carrier.class_count()

    def repr_classes(self):
        """One token per class, in carrier order."""
        return [cls[0] for cls in self.carrier.classes()]


def direct_limit(s, threads=None, cap=10_000):
    """Quotient carrier plus the factored thread topology."""
    if s.direction != COVARIANT:
        raise LimitError("direct limit needs a covariant spectrum")
    els, rel = direct_sum_pairs(s.fam)
    quotient = quotient_by(discrete(els), rel)
    carrier = quotient.as_setoid()
    space_obj, threads = sum_space(s, threads, cap, carrier)
    return DirectLimit(s, quotient, carrier, threads, space_obj)


@dataclass(eq=False)
class Cocone:
    """Compatible legs out of a covariant spectrum into one space."""

    apex: BSpace
    legs: dict  # index element -> MorphismWitness into the apex


def validate_cocone(s, c):
    findings = []
    for i in s.index.elements:
        if i not in c.legs:
            findings.append(Finding("leg-missing", (i,)))
            return findings
        for f in check_morphism(s.space(i), c.apex, c.legs[i]):
            findings.append(Finding("leg-" + f.law, (i,) + f.witness, f.note))
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        left = compose(s.fam.transport(i, j), c.legs[j].h)
        if not fn_equal(left, c.legs[i].h):
            findings.append(Finding("triangle", (i, j)))
    return findings


def cocone_mediator(s, lim, c, uniq_bound=1_000_000):
    """The unique morphism out of the limit commuting with every leg, as a
    Mediator that records whether its uniqueness search ran.

    Its certificates are assembled from the legs: a generator of the apex
    composed with the legs forms a thread, whose limit function is the
    pullback of the generator.
    """
    findings = validate_cocone(s, c)
    if findings:
        raise IllFormedCocone(str(findings[0]))
    apex = c.apex
    table = {}
    for token in lim.carrier.elements:
        i, x = split_tag(token)
        table[token] = c.legs[i].h(x)
    h = make_fn(lim.carrier, apex.carrier, table)  # well-defined on classes
    certs = {}
    for k, g in enumerate(apex.gens):
        thread_funcs = {
            i: compose_rfun(g, c.legs[i].h) for i in s.index.elements
        }
        pulled = thread_to_sum_function(s, Thread(thread_funcs), lim.carrier)
        pos = gen_position(lim.space, pulled)
        if pos is not None:
            certs[k] = CGen(pos)
        else:
            found = certificate_for(lim.space, pulled)
            if found is None:
                raise IllFormedCocone(
                    f"no certificate for apex generator {k} over the limit subbase")
            certs[k] = found
    witness = Mediator(h, certs)
    bad = check_morphism(lim.space, apex, witness)
    if bad:
        raise IllFormedCocone(str(bad[0]))
    for i in s.index.elements:
        if not fn_equal(compose(lim.embed(i), h), c.legs[i].h):
            raise IllFormedCocone(f"mediator does not commute with leg {i}")
    witness.unique = _check_unique_mediator(lim, c, h, uniq_bound)
    return witness


def _check_unique_mediator(lim, c, h, bound):
    classes = lim.carrier.classes()
    size = len(c.apex.carrier.elements) ** len(classes)
    if size > bound:
        return None  # uniqueness unbounded; callers report it as skipped
    for choice in iproduct(c.apex.carrier.elements, repeat=len(classes)):
        table = {}
        for cls, val in zip(classes, choice):
            for a in cls:
                table[a] = val
        cand = SetoidFn(lim.carrier, c.apex.carrier, table)
        agrees = all(
            c.apex.carrier.eq(cand(tag_token(i, x)), c.legs[i].h(x))
            for i in lim.spectrum.index.elements
            for x in lim.spectrum.fam.carrier(i).elements
        )
        if agrees and not fn_equal(cand, h):
            raise NonUnique("a second mediator satisfies all triangles")
    return True


def limit_legs_cocone(lim):
    """The limit's own class maps as a cocone over its spectrum."""
    s = lim.spectrum
    legs = {}
    for i in s.index.elements:
        # a thread function pulled back along the class map is the thread's
        # own component; positions in the deduped subbase may differ from
        # thread order, so match by value
        certs = {}
        for k, g in enumerate(lim.space.gens):
            pulled = compose_rfun(g, lim.embed(i))
            found = None
            for t in lim.threads:
                if t.at(i).values == pulled.values and i in t.certs:
                    rep = validate_certificate(s.space(i), pulled, t.certs[i])
                    if rep.ok:
                        found = t.certs[i]
                        break
            if found is None:
                found = certificate_for(s.space(i), pulled)
            if found is None:
                raise LimitError(f"class map at {i} is not a morphism")
            certs[k] = found
        legs[i] = MorphismWitness(lim.embed(i), certs)
    return Cocone(lim.space, legs)


def limit_map(s, t, psi, lim_s=None, lim_t=None):
    """The induced map of direct limits, classwise on representatives.

    When every component embeds, the induced map is checked to embed too.
    """
    if lim_s is None:
        lim_s = direct_limit(s)
    if lim_t is None:
        lim_t = direct_limit(t)
    table = {}
    for token in lim_s.carrier.elements:
        i, x = split_tag(token)
        table[token] = tag_token(i, psi.comps[i](x))
    fwd = make_fn(lim_s.carrier, lim_t.carrier, table)
    if all(is_embedding(psi.comps[i])[0] for i in s.index.elements):
        ok, witness_pair = is_embedding(fwd)
        if not ok:
            raise LimitError(
                f"embedding components gave a non-embedding limit map at {witness_pair}")
    witness = None
    if psi.continuity is not None:
        certs = {}
        for k, g in enumerate(lim_t.space.gens):
            # find the thread generating g, pull it back through the map
            src_thread = None
            for h_obj in lim_t.threads:
                fn = thread_to_sum_function(t, h_obj, lim_t.carrier)
                if fn.values == g.values:
                    src_thread = h_obj
                    break
            if src_thread is None:
                raise LimitError("limit generator without a generating thread")
            pulled_thread = pullback_thread(s, t, psi, src_thread)
            pulled = thread_to_sum_function(s, pulled_thread, lim_s.carrier)
            pos = gen_position(lim_s.space, pulled)
            certs[k] = CGen(pos) if pos is not None else certificate_for(
                lim_s.space, pulled)
            if certs[k] is None:
                raise LimitError("no certificate for a pulled-back generator")
        witness = MorphismWitness(fwd, certs)
        bad = check_morphism(lim_s.space, lim_t.space, witness)
        if bad:
            raise LimitError(str(bad[0]))
    return fwd, witness


def common_representatives(lim, tokens):
    """One index and a representative there for each listed class.

    A single class keeps its own index; several classes are normalized at
    the top element.
    """
    if not tokens:
        raise LimitError("empty class list")
    fam = lim.spectrum.fam
    if len(tokens) == 1:
        i, x = split_tag(tokens[0])
        return i, [x]
    t = fam.top()
    out = []
    for token in tokens:
        i, x = split_tag(token)
        out.append(fam.transport(i, t)(x))
    return t, out


@dataclass
class CofinalIso:
    forward: SetoidFn      # limit over the subset -> limit over the whole index
    backward: SetoidFn
    forward_witness: MorphismWitness
    backward_witness: MorphismWitness
    findings: list = field(default_factory=list)


def cofinal_direct_iso(s, cof, lim=None, sub_lim=None):
    """Mutually inverse morphisms between the limit and its cofinal restriction."""
    sub_index = induced_order(s.index, cof)
    sub = restrict_spectrum(s, cof, sub_index)
    if lim is None:
        lim = direct_limit(s)
    if sub_lim is None:
        sub_lim = direct_limit(sub)
    findings = []

    fwd_table = {}
    for token in sub_lim.carrier.elements:
        j, y = split_tag(token)
        fwd_table[token] = tag_token(cof.embed(j), y)
    forward = make_fn(sub_lim.carrier, lim.carrier, fwd_table)

    bwd_table = {}
    for token in lim.carrier.elements:
        i, x = split_tag(token)
        j = cof.cof(i)
        bwd_table[token] = tag_token(j, s.fam.transport(i, cof.embed(j))(x))
    backward = make_fn(lim.carrier, sub_lim.carrier, bwd_table)

    for token in lim.carrier.elements:
        if not lim.carrier.eq(forward(backward(token)), token):
            findings.append(Finding("round-trip", (token,)))
    for token in sub_lim.carrier.elements:
        if not sub_lim.carrier.eq(backward(forward(token)), token):
            findings.append(Finding("round-trip-subset", (token,)))

    fwd_certs = {}
    for k, g in enumerate(lim.space.gens):
        pulled = compose_rfun(g, forward)
        pos = gen_position(sub_lim.space, pulled)
        fwd_certs[k] = CGen(pos) if pos is not None else certificate_for(
            sub_lim.space, pulled)
        if fwd_certs[k] is None:
            findings.append(Finding("forward-cert", (k,)))
    bwd_certs = {}
    for k, g in enumerate(sub_lim.space.gens):
        pulled = compose_rfun(g, backward)
        pos = gen_position(lim.space, pulled)
        bwd_certs[k] = CGen(pos) if pos is not None else certificate_for(
            lim.space, pulled)
        if bwd_certs[k] is None:
            findings.append(Finding("backward-cert", (k,)))
    fw = MorphismWitness(forward, fwd_certs)
    bw = MorphismWitness(backward, bwd_certs)
    if not findings:
        for f in check_morphism(sub_lim.space, lim.space, fw):
            findings.append(Finding("forward-" + f.law, f.witness, f.note))
        for f in check_morphism(lim.space, sub_lim.space, bw):
            findings.append(Finding("backward-" + f.law, f.witness, f.note))
    return CofinalIso(forward, backward, fw, bw, findings)


@dataclass
class ProductLimitResult:
    to_pair: SetoidFn
    witness: MorphismWitness
    counts: tuple
    findings: list = field(default_factory=list)


def product_limit_bijection(s, t, prod=None):
    """The limit of a product spectrum against the product of the limits."""
    from .spectra import product_spectrum
    from .topology import product_space

    if prod is None:
        prod, _ = product_spectrum(s, t)
    lim_prod = direct_limit(prod)
    lim_s = direct_limit(s)
    lim_t = direct_limit(t)
    pair_space, pr1, pr2 = product_space(lim_s.space, lim_t.space)
    findings = []

    table = {}
    for token in lim_prod.carrier.elements:
        ij, xy = split_tag(token)
        i, j = split_pair(ij)
        x, y = split_pair(xy)
        table[token] = pair_token(tag_token(i, x), tag_token(j, y))
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

    certs = {}
    for k, g in enumerate(pair_space.gens):
        pulled = compose_rfun(g, to_pair)
        pos = gen_position(lim_prod.space, pulled)
        certs[k] = CGen(pos) if pos is not None else certificate_for(
            lim_prod.space, pulled)
        if certs[k] is None:
            findings.append(Finding("pair-cert", (k,)))
    w = MorphismWitness(to_pair, certs)
    if not findings:
        for f in check_morphism(lim_prod.space, pair_space, w):
            findings.append(Finding("pair-" + f.law, f.witness, f.note))
    counts = (lim_prod.class_count(), lim_s.class_count(), lim_t.class_count())
    if counts[0] != counts[1] * counts[2]:
        findings.append(Finding("class-count", counts))
    return ProductLimitResult(to_pair, w, counts, findings)


# --- inverse limits ----------------------------------------------------------

@dataclass(eq=False)
class InverseLimit:
    spectrum: Spectrum
    carrier: Setoid
    assignments: dict  # carrier token -> {index element -> carrier element}
    space: BSpace
    gen_sources: list = field(default_factory=list)  # per gen: (index, gen pos)

    def project(self, i):
        fam = self.spectrum.fam
        return make_fn(self.carrier, fam.carrier(i),
                       {tok: self.assignments[tok][i] for tok in self.carrier.elements})

    def token_of(self, assignment):
        """Carrier token matching an assignment pointwise, or None."""
        fam = self.spectrum.fam
        for tok, a in self.assignments.items():
            if all(fam.carrier(i).eq(a[i], assignment[i]) for i in a):
                return tok
        return None

    def class_count(self):
        return self.carrier.class_count()


def inverse_limit(s, bound=1_000_000):
    """All order-compatible choices, topologized by the projections."""
    if s.direction != CONTRAVARIANT:
        raise LimitError("inverse limit needs a contravariant spectrum")
    choices = enumerate_compatible(s.fam, CONTRAVARIANT, bound)
    els = list(s.index.elements)
    tokens = []
    assignments = {}
    for n, a in enumerate(choices):
        tok = "&".join(a[i] for i in els)
        tokens.append(tok)
        assignments[tok] = a
    # choices are equal when their components are, so key each by its
    # components' classes
    keyed = {}
    for tok in tokens:
        a = assignments[tok]
        key = tuple(s.fam.carrier(i).class_repr(a[i]) for i in els)
        keyed.setdefault(key, []).append(tok)
    carrier = Setoid(tuple(tokens), class_pairs(keyed.values()))
    gens, names, sources = [], [], []
    seen = set()
    for i in els:
        for k, f in enumerate(s.space(i).gens):
            values = {tok: f(assignments[tok][i]) for tok in tokens}
            key = tuple(values[tok] for tok in tokens)
            if key in seen:
                continue
            seen.add(key)
            gens.append(RFun(carrier, values))
            names.append(f"proj[{i},{s.subbases[i].names[k]}]")
            sources.append((i, k))
    space_obj = BSpace(carrier, Subbase(carrier, tuple(gens), tuple(names)))
    return InverseLimit(s, carrier, assignments, space_obj, sources)


def top_determinacy_check(lim):
    """Compatible choices are pinned by their value at the top element."""
    s = lim.spectrum
    t = top_element(s.index)
    fam = s.fam
    seen = {}
    for tok, a in lim.assignments.items():
        key = fam.carrier(t).class_repr(a[t])
        if key in seen and not lim.carrier.eq(seen[key], tok):
            return False
        seen[key] = tok
    # and every top value extends to a choice
    for x in fam.carrier(t).elements:
        a = {i: fam.transport(i, t)(x) for i in s.index.elements}
        if lim.token_of(a) is None:
            return False
    return True


@dataclass(eq=False)
class Cone:
    """Compatible legs from one space into a contravariant spectrum."""

    apex: BSpace
    legs: dict  # index element -> MorphismWitness out of the apex


def validate_cone(s, c):
    findings = []
    for i in s.index.elements:
        if i not in c.legs:
            findings.append(Finding("leg-missing", (i,)))
            return findings
        for f in check_morphism(c.apex, s.space(i), c.legs[i]):
            findings.append(Finding("leg-" + f.law, (i,) + f.witness, f.note))
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        via = compose(c.legs[j].h, s.fam.transport(i, j))
        if not fn_equal(via, c.legs[i].h):
            findings.append(Finding("triangle", (i, j)))
    return findings


def cone_mediator(s, lim, c, uniq_bound=1_000_000):
    """The unique morphism into the limit commuting with every projection,
    as a Mediator that records whether its uniqueness search ran."""
    findings = validate_cone(s, c)
    if findings:
        raise IllFormedCone(str(findings[0]))
    table = {}
    for y in c.apex.carrier.elements:
        assignment = {i: c.legs[i].h(y) for i in s.index.elements}
        tok = lim.token_of(assignment)
        if tok is None:
            raise IllFormedCone(f"legs at {y} do not form a compatible choice")
        table[y] = tok
    h = make_fn(c.apex.carrier, lim.carrier, table)
    certs = {}
    for k, g in enumerate(lim.space.gens):
        pulled = compose_rfun(g, h)
        # (f . proj_i) . h = f . leg_i, certified through the leg witness
        i, pos = lim.gen_sources[k]
        leg_pull = compose_rfun(s.space(i).gens[pos], c.legs[i].h)
        if leg_pull.values == pulled.values and pos in c.legs[i].certs:
            certs[k] = c.legs[i].certs[pos]
        else:
            found = certificate_for(c.apex, pulled)
            if found is None:
                raise IllFormedCone(f"no certificate for projection generator {k}")
            certs[k] = found
    witness = Mediator(h, certs)
    bad = check_morphism(c.apex, lim.space, witness)
    if bad:
        raise IllFormedCone(str(bad[0]))
    for i in s.index.elements:
        if not fn_equal(compose(h, lim.project(i)), c.legs[i].h):
            raise IllFormedCone(f"mediator does not commute with projection {i}")
    witness.unique = _check_unique_cone_mediator(s, lim, c, h, uniq_bound)
    return witness


def _check_unique_cone_mediator(s, lim, c, h, bound):
    classes = c.apex.carrier.classes()
    size = len(lim.carrier.elements) ** len(classes)
    if size > bound:
        return None
    for choice in iproduct(lim.carrier.elements, repeat=len(classes)):
        table = {}
        for cls, val in zip(classes, choice):
            for a in cls:
                table[a] = val
        cand = SetoidFn(c.apex.carrier, lim.carrier, table)
        agrees = all(
            s.fam.carrier(i).eq(lim.assignments[cand(y)][i], c.legs[i].h(y))
            for i in s.index.elements
            for y in c.apex.carrier.elements
        )
        if agrees and not fn_equal(cand, h):
            raise NonUnique("a second cone mediator satisfies all triangles")
    return True


def limit_projections_cone(lim):
    """The limit's own projections as a cone over its spectrum."""
    s = lim.spectrum
    legs = {}
    for i in s.index.elements:
        proj = lim.project(i)
        certs = {}
        for k, f in enumerate(s.space(i).gens):
            pulled = compose_rfun(f, proj)
            pos = gen_position(lim.space, pulled)
            if pos is None:
                raise LimitError("projection generator missing from limit subbase")
            certs[k] = CGen(pos)
        legs[i] = MorphismWitness(proj, certs)
    return Cone(lim.space, legs)


def inverse_limit_map(s, t, psi, lim_s=None, lim_t=None):
    """The induced map of inverse limits, componentwise.

    When every component embeds, the induced map is checked to embed too.
    """
    if lim_s is None:
        lim_s = inverse_limit(s)
    if lim_t is None:
        lim_t = inverse_limit(t)
    table = {}
    for tok, a in lim_s.assignments.items():
        image = {i: psi.comps[i](a[i]) for i in s.index.elements}
        target = lim_t.token_of(image)
        if target is None:
            raise LimitError("image of a compatible choice is not compatible")
        table[tok] = target
    fwd = make_fn(lim_s.carrier, lim_t.carrier, table)
    if all(is_embedding(psi.comps[i])[0] for i in s.index.elements):
        ok, witness_pair = is_embedding(fwd)
        if not ok:
            raise LimitError(
                f"embedding components gave a non-embedding limit map at {witness_pair}")
    witness = None
    if psi.continuity is not None:
        certs = {}
        for k, g in enumerate(lim_t.space.gens):
            pulled = compose_rfun(g, fwd)
            pos = gen_position(lim_s.space, pulled)
            certs[k] = CGen(pos) if pos is not None else certificate_for(
                lim_s.space, pulled)
            if certs[k] is None:
                raise LimitError("no certificate for a pulled-back projection")
        witness = MorphismWitness(fwd, certs)
        bad = check_morphism(lim_s.space, lim_t.space, witness)
        if bad:
            raise LimitError(str(bad[0]))
    return fwd, witness


def cofinal_inverse_iso(s, cof, lim=None, sub_lim=None):
    """Mutually inverse morphisms between an inverse limit and its cofinal
    restriction: restriction in one direction, transport fill-in in the other."""
    sub_index = induced_order(s.index, cof)
    sub = restrict_spectrum(s, cof, sub_index)
    if lim is None:
        lim = inverse_limit(s)
    if sub_lim is None:
        sub_lim = inverse_limit(sub)
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
        return CofinalIso(None, None, None, None, findings)
    forward = make_fn(sub_lim.carrier, lim.carrier, fwd_table)

    bwd_table = {}
    for tok, a in lim.assignments.items():
        restricted = {j: a[cof.embed(j)] for j in sub_index.elements}
        target = sub_lim.token_of(restricted)
        if target is None:
            findings.append(Finding("restriction", (tok,)))
            continue
        bwd_table[tok] = target
    if findings:
        return CofinalIso(None, None, None, None, findings)
    backward = make_fn(lim.carrier, sub_lim.carrier, bwd_table)

    for tok in lim.carrier.elements:
        if not lim.carrier.eq(forward(backward(tok)), tok):
            findings.append(Finding("round-trip", (tok,)))
    for tok in sub_lim.carrier.elements:
        if not sub_lim.carrier.eq(backward(forward(tok)), tok):
            findings.append(Finding("round-trip-subset", (tok,)))

    fwd_certs = {}
    for k, g in enumerate(lim.space.gens):
        pulled = compose_rfun(g, forward)
        pos = gen_position(sub_lim.space, pulled)
        fwd_certs[k] = CGen(pos) if pos is not None else certificate_for(
            sub_lim.space, pulled)
        if fwd_certs[k] is None:
            findings.append(Finding("forward-cert", (k,)))
    bwd_certs = {}
    for k, g in enumerate(sub_lim.space.gens):
        pulled = compose_rfun(g, backward)
        pos = gen_position(lim.space, pulled)
        bwd_certs[k] = CGen(pos) if pos is not None else certificate_for(
            lim.space, pulled)
        if bwd_certs[k] is None:
            findings.append(Finding("backward-cert", (k,)))
    fw = MorphismWitness(forward, fwd_certs)
    bw = MorphismWitness(backward, bwd_certs)
    if not findings:
        for f in check_morphism(sub_lim.space, lim.space, fw):
            findings.append(Finding("forward-" + f.law, f.witness, f.note))
        for f in check_morphism(lim.space, sub_lim.space, bw):
            findings.append(Finding("backward-" + f.law, f.witness, f.note))
    return CofinalIso(forward, backward, fw, bw, findings)


def product_inverse_morphism(s, t, prod=None, bound=1_000_000):
    """Pairing of compatible choices into the product spectrum's limit."""
    from .spectra import product_spectrum
    from .topology import product_space

    if prod is None:
        prod, _ = product_spectrum(s, t)
    lim_s = inverse_limit(s, bound)
    lim_t = inverse_limit(t, bound)
    lim_prod = inverse_limit(prod, bound)
    pair_space, pr1, pr2 = product_space(lim_s.space, lim_t.space)
    findings = []

    table = {}
    for a in pair_space.carrier.elements:
        tok_s, tok_t = split_pair(a)
        asg_s = lim_s.assignments[tok_s]
        asg_t = lim_t.assignments[tok_t]
        paired = {}
        for ij in prod.index.elements:
            i, j = split_pair(ij)
            paired[ij] = pair_token(asg_s[i], asg_t[j])
        target = lim_prod.token_of(paired)
        if target is None:
            findings.append(Finding("pairing", (a,)))
            continue
        table[a] = target
    if findings:
        return ProductLimitResult(None, None, (), findings)
    pairing = make_fn(pair_space.carrier, lim_prod.carrier, table)
    certs = {}
    for k, g in enumerate(lim_prod.space.gens):
        pulled = compose_rfun(g, pairing)
        pos = gen_position(pair_space, pulled)
        certs[k] = CGen(pos) if pos is not None else certificate_for(
            pair_space, pulled)
        if certs[k] is None:
            findings.append(Finding("pair-cert", (k,)))
    w = MorphismWitness(pairing, certs)
    if not findings:
        for f in check_morphism(pair_space, lim_prod.space, w):
            findings.append(Finding("pair-" + f.law, f.witness, f.note))
    counts = (lim_prod.class_count(), lim_s.carrier.class_count(),
              lim_t.carrier.class_count())
    return ProductLimitResult(pairing, w, counts, findings)
