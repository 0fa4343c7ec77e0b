"""Morphism-space spectra and the duality between direct and inverse limits.

Pre- and post-composition turn a spectrum and a fixed space into four
spectra of morphism carriers.  Over finite validated pools the two duality
isomorphisms are checked two-sidedly, and the two converse-direction maps
are built and certified as morphisms, with the embedding half of the first
one conditional on a representative-existence hypothesis that is itself
decided by enumeration.
"""

from __future__ import annotations

from itertools import product as iproduct

from .families import CONTRAVARIANT, COVARIANT, DirectFamily, oriented
from .report import Finding
from .setoid import Tag, _fn, compose, identity, is_embedding, make_fn
from .spectra import Spectrum
from .topology import (
    CGen,
    MorCarrier,  # the pool spaces made here; bench/spans.py traces MorCarrier.find
    MorphismWitness,
    certify_iso,
    certify_map,
    check_morphism,
    exp_eval_certificate,
    exponential_space,
    lift_certificate,
)


class DualityError(Exception):
    pass


class PoolNotClosed(DualityError):
    pass


SHAPES = ("A_i", "A_ii", "B_i", "B_ii")


def enumerate_morphisms(src, dst, cap=4096):
    """All extensional maps that admit certificates for every target
    generator, as witnesses; the map space itself is capped.

    A candidate sends each class of src to one element of dst.  Its table
    is listed in src's carrier order and is total, into dst and constant
    on classes by construction, so it is built unchecked and certified as
    a map that respects classes.
    """
    n_classes = src.carrier.class_count()
    total = len(dst.carrier.elements) ** n_classes
    if total > cap:
        raise DualityError(
            f"map space |dst|^|src classes| = {len(dst.carrier.elements)}^"
            f"{n_classes} = {total} exceeds the bound cap={cap}")
    els = src.carrier.elements
    # the class of each source element; classes are numbered in the order
    # classes() lists them
    class_of = list(map(src.carrier.class_id.__getitem__, els))
    out = []
    for choice in iproduct(dst.carrier.elements, repeat=n_classes):
        h = _fn(src.carrier, dst.carrier,
                dict(zip(els, map(choice.__getitem__, class_of))))
        missing = []
        w = certify_map(src, dst, h, "pool", missing, respects=True)
        if not missing:
            out.append(w)
    return out


def precompose_action(lam, pool_from, pool_to):
    """Send a morphism out of lam's codomain to its composite after lam.

    lam is a carrier map; the composite of each element of pool_from lands
    in pool_to, else PoolNotClosed names the first that does not.
    """
    table = {}
    for name, w in pool_from.witnesses.items():
        target = pool_to.find(compose(lam, w.h))
        if target is None:
            raise PoolNotClosed(f"pushes {name} out of the pool")
        table[name] = target
    return make_fn(pool_from.carrier, pool_to.carrier, table)


def postcompose_action(mu, pool_from, pool_to):
    """Send a morphism into mu's domain to its composite followed by mu,
    a carrier map; PoolNotClosed as for precompose_action."""
    table = {}
    for name, w in pool_from.witnesses.items():
        target = pool_to.find(compose(w.h, mu))
        if target is None:
            raise PoolNotClosed(f"pushes {name} out of the pool")
        table[name] = target
    return make_fn(pool_from.carrier, pool_to.carrier, table)


# --- the four induced spectra ------------------------------------------------

def induce_spectrum(s, fixed, shape, pools):
    """Build the morphism-space spectrum of the given shape over s's index.

    pools maps each index element to a list of MorphismWitness values of
    the appropriate type, each a morphism already checked, as
    enumerate_morphisms gives them; each pool must be closed under the
    induced transports.  The space at i is the pool at i, a MorCarrier.
    """
    if shape not in SHAPES:
        raise DualityError(f"unknown shape {shape!r}")
    if shape in ("A_i", "A_ii") and s.direction != COVARIANT:
        raise DualityError("shape needs a covariant source spectrum")
    if shape in ("B_i", "B_ii") and s.direction != CONTRAVARIANT:
        raise DualityError("shape needs a contravariant source spectrum")
    # Mor(F_i, fixed) reverses the spectrum's direction, Mor(fixed, F_i)
    # keeps it
    hom_into_fixed = shape in ("A_i", "B_i")
    out_direction = s.direction
    if hom_into_fixed:
        out_direction = CONTRAVARIANT if s.direction == COVARIANT else COVARIANT

    spaces = {}
    for i in s.index.elements:
        ends = (s.space(i), fixed) if hom_into_fixed else (fixed, s.space(i))
        spaces[i] = exponential_space(
            *ends, pools[i], names=[f"{i}.m{n}" for n in range(len(pools[i]))])

    # a hom into fixed is pre-composed with the transport, a hom out of it
    # post-composed
    act = precompose_action if hom_into_fixed else postcompose_action
    transports = {}
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        a, b = oriented(out_direction, i, j)
        try:
            transports[(i, j)] = act(s.fam.transport(i, j), spaces[a], spaces[b])
        except PoolNotClosed as exc:
            raise PoolNotClosed(f"edge ({i}, {j}) {exc}") from None

    carriers = {i: spaces[i].carrier for i in s.index.elements}
    transports.update({(i, i): identity(carriers[i])
                       for i, j in s.fam.order_pairs() if i == j})
    fam = DirectFamily(s.index, out_direction, carriers, transports)
    certs = _induced_edge_certs(s, fam, hom_into_fixed, spaces)
    return Spectrum(fam, spaces, certs, s.pool)


def _induced_edge_certs(s, fam, hom_into_fixed, spaces):
    """Certificates for the induced transports against the evaluation
    subbases.  For homs into the fixed space evaluation generators pull back
    to evaluation generators; for homs out of it the source spectrum's own
    edge certificate for g0 . lam is routed through evaluation."""
    certs = {}
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        lam = s.fam.transport(i, j)
        a, b = fam.ends(i, j)
        src, tgt = spaces[a], spaces[b]
        if hom_into_fixed:
            certs[(i, j)] = {pos: CGen(src.positions[(lam(x), k)])
                             for (x, k), pos in _gen_items(tgt)}
        else:
            edge = s.witness_certs[(i, j)]
            certs[(i, j)] = {pos: exp_eval_certificate(edge[k], x, src)
                             for (x, k), pos in _gen_items(tgt)}
    return certs


def _gen_items(pool):
    """Unique (element, target gen index) -> generator position items."""
    seen = set()
    for (x, k), pos in pool.positions.items():
        if pos in seen:
            continue
        seen.add(pos)
        yield (x, k), pos


# --- duality principle: hom out of a direct limit ----------------------------

class DualityResult:
    def __init__(self, to_hom, hom_pool, findings=None):
        self.to_hom = to_hom  # map from the compatible-choice side to the hom side
        self.hom_pool = hom_pool  # the MorCarrier of homs between the limit and the fixed space
        self.findings = [] if findings is None else findings


def duality_direct_to_inverse(s, fixed, pools, lims):
    """Compatible choices of morphisms into the fixed space correspond to
    morphisms out of the direct limit, two-sidedly and topologically."""
    induced = induce_spectrum(s, fixed, "A_i", pools)
    inv, lim = lims.inverse(induced), lims.direct(s)
    findings = []

    # forward: a compatible choice acts classwise on the limit
    hom_witnesses = []
    for tok in inv.carrier.elements:
        assignment = inv.assignments[tok]
        table = {}
        for cls_tok in lim.carrier.elements:
            i, x = cls_tok
            table[cls_tok] = induced.spaces[i].witnesses[assignment[i]].h(x)
        h = make_fn(lim.carrier, fixed.carrier, table)
        hom_witnesses.append(certify_map(lim.space, fixed, h, "hom", findings, (tok,)))
    if findings:
        return DualityResult(None, None, findings)
    return _from_hom(s, lim, fixed, inv, hom_witnesses)


def _from_hom(s, lim, fixed, inv, hom_witnesses):
    """The shared tail of the two dualities.

    The homs between the limit and the fixed space, one per token of
    `inv` in carrier order, form the hom pool.  The way back composes each
    hom with the limit's leg at i, through `oriented`, finds the composite
    in the pool at i, the space at i of inv's spectrum, and reads the
    compatible choice these form.  Then
    to_hom: inv -> hom pool and that map are checked two-sidedly, with
    the embedding of to_hom reported between round trips and certificates.
    """
    hom_pool = exponential_space(*oriented(s.direction, lim.space, fixed), hom_witnesses,
                                 names=[f"h[{t}]" for t in inv.carrier.elements])
    to_hom = make_fn(inv.carrier, hom_pool.carrier,
                     dict(zip(inv.carrier.elements, hom_pool.carrier.elements)))
    legs = {i: lim.leg(i) for i in s.index.elements}
    pools = inv.spectrum.spaces
    findings, back_table = [], {}
    for name, w in hom_pool.witnesses.items():
        assignment = {}
        for i, leg in legs.items():
            found = pools[i].find(compose(*oriented(s.direction, leg, w.h)))
            if found is None:
                raise PoolNotClosed(f"{name} composed with the leg at {i} leaves the pool")
            assignment[i] = found
        tok = inv.token_of(assignment)
        if tok is None:
            findings.append(Finding("from-hom-compat", (name,)))
            continue
        back_table[name] = tok
    if findings:
        return DualityResult(None, hom_pool, findings)
    from_hom = make_fn(hom_pool.carrier, inv.carrier, back_table)
    ok, witness = is_embedding(to_hom)
    findings = certify_iso(
        (("to-hom", inv.space, hom_pool, to_hom),
         ("from-hom", hom_pool, inv.space, from_hom)),
        (("round-trip", to_hom, from_hom), ("round-trip-hom", from_hom, to_hom)),
        [] if ok else [Finding("embedding", witness)])
    return DualityResult(to_hom, hom_pool, findings)


# --- second duality: hom into an inverse limit --------------------------------

def duality_inverse_hom(s, fixed, pools, lims):
    """Compatible choices of morphisms out of the fixed space correspond to
    morphisms into the inverse limit."""
    induced = induce_spectrum(s, fixed, "B_ii", pools)
    inv_mor, lim = lims.inverse(induced), lims.inverse(s)
    findings = []

    hom_witnesses = []
    for tok in inv_mor.carrier.elements:
        assignment = inv_mor.assignments[tok]
        table = {}
        for x in fixed.carrier.elements:
            target = {i: induced.spaces[i].witnesses[assignment[i]].h(x)
                      for i in s.index.elements}
            target_tok = lim.token_of(target)
            if target_tok is None:
                findings.append(Finding("pointwise-compat", (tok, x)))
                break
            table[x] = target_tok
        if findings:
            return DualityResult(None, None, findings)
        h = make_fn(fixed.carrier, lim.carrier, table)
        # proj_i . h agrees with the component at i up to equality, so the
        # component's certificate for f certifies (f . proj_i) . h
        certs = {k: induced.spaces[i].witnesses[assignment[i]].certs[pos]
                 for k, (i, pos) in enumerate(lim.gen_sources)}
        hom_witnesses.append(MorphismWitness(h, certs))
    _check_assembled(fixed, lim.space, hom_witnesses)
    return _from_hom(s, lim, fixed, inv_mor, hom_witnesses)


def _check_assembled(src, dst, witnesses):
    """Check hom witnesses whose certificates were assembled from other
    certificates rather than built by certify_map, as morphisms src -> dst."""
    for n, w in enumerate(witnesses):
        bad = check_morphism(src, dst, w)
        if bad:
            raise DualityError(f"pool element {n} is not a morphism: {bad[0]}")


# --- converse-direction maps ---------------------------------------------------

class ConverseResult:
    def __init__(self, hom_pool, hypothesis_holds=None, hypothesis_witness=(),
                 embedding_checked=False, findings=None):
        self.hom_pool = hom_pool  # a MorCarrier, or None
        self.hypothesis_holds = hypothesis_holds
        self.hypothesis_witness = hypothesis_witness
        self.embedding_checked = embedding_checked
        self.findings = [] if findings is None else findings


def converse_dual_inverse(s, fixed, pools, lims):
    """From the direct limit of hom-into-fixed carriers over a contravariant
    spectrum to morphisms out of its inverse limit; an embedding exactly
    when every element extends to a compatible choice."""
    induced = induce_spectrum(s, fixed, "B_i", pools)
    lim_mor, inv = lims.direct(induced), lims.inverse(s)
    findings = []

    hom_witnesses = []
    for cls_tok in lim_mor.repr_classes():
        i, name = cls_tok
        w = induced.spaces[i].witnesses[name]
        table = {tok: w.h(inv.assignments[tok][i]) for tok in inv.carrier.elements}
        h = make_fn(inv.carrier, fixed.carrier, table)
        hom_witnesses.append(
            certify_map(inv.space, fixed, h, "hom", findings, (cls_tok,)))
    if findings:
        return ConverseResult(None, findings=findings)
    to_hom, hom_pool, findings = _classwise_to_hom(
        lim_mor, inv.space, fixed, hom_witnesses)

    hypothesis_holds = True
    hypothesis_witness = ()
    for j in s.index.elements:
        for y in s.fam.carrier(j).elements:
            if not any(s.fam.carrier(j).eq(inv.assignments[tok][j], y)
                       for tok in inv.carrier.elements):
                hypothesis_holds = False
                hypothesis_witness = (j, y)
                break
        if not hypothesis_holds:
            break
    embedding_checked = False
    if hypothesis_holds and not findings:
        ok, wit = is_embedding(to_hom)
        if not ok:
            findings.append(Finding("embedding", wit))
        embedding_checked = True
    return ConverseResult(hom_pool, hypothesis_holds,
                          hypothesis_witness, embedding_checked, findings)


def converse_dual_direct(s, fixed, pools, lims):
    """From the direct limit of hom-out-of-fixed carriers over a covariant
    spectrum to morphisms into its direct limit; morphism property only."""
    induced = induce_spectrum(s, fixed, "A_ii", pools)
    lim_mor, lim = lims.direct(induced), lims.direct(s)

    hom_witnesses = []
    for cls_tok in lim_mor.repr_classes():
        i, name = cls_tok
        w = induced.spaces[i].witnesses[name]
        table = {x: Tag((i, w.h(x))) for x in fixed.carrier.elements}
        h = make_fn(fixed.carrier, lim.carrier, table)
        certs = {k: lift_certificate(fixed, w, t.certs[i])
                 for k, t in enumerate(lim.threads)}
        hom_witnesses.append(MorphismWitness(h, certs))
    _check_assembled(fixed, lim.space, hom_witnesses)
    _, hom_pool, findings = _classwise_to_hom(
        lim_mor, fixed, lim.space, hom_witnesses)
    return ConverseResult(hom_pool, findings=findings)


def _classwise_to_hom(lim_mor, src, dst, hom_witnesses):
    """The map sending each class of lim_mor to the morphism src -> dst its
    representative gives, hom_witnesses being those morphisms in class
    order: (to_hom, the hom pool, findings)."""
    reps = lim_mor.repr_classes()
    hom_pool = exponential_space(src, dst, hom_witnesses,
                                 names=[f"h[{t}]" for t in reps])
    # constant on the classes of the direct limit by construction, which
    # make_fn checks
    rep_of = dict(zip(reps, hom_pool.carrier.elements))
    to_hom = make_fn(lim_mor.carrier, hom_pool.carrier,
                     {tok: rep_of[lim_mor.carrier.class_repr(tok)]
                      for tok in lim_mor.carrier.elements})
    findings = []
    certify_map(lim_mor.space, hom_pool, to_hom, "to-hom", findings)
    return to_hom, hom_pool, findings
