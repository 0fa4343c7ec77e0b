"""Spectra: direct families whose carriers carry function topologies and
whose transports are certified morphisms, plus the machinery they induce on
the disjoint-union carrier (compatible choices of topology elements, the
functions they define on the sum, and the sum topology itself)."""

from __future__ import annotations

from fractions import Fraction

from .families import (
    COVARIANT,
    DirectFamily,
    _restrict_family,
    constant_direct_family,
    derive_on_covers,
    oriented,
    validate_direct_family,
)
from .order import _members, induced_order, product_order
from .report import Finding, KernelError, raise_first
from .setoid import _fn, make_fn
from .topology import (
    BSpace,
    CConst,
    CGen,
    MissingCertificate,
    MorphismWitness,
    RFun,
    ValueCodes,
    certify_map,
    check_morphism,
    check_morphism_as,
    compose_rfun,
    compose_witnesses,
    lift_certificate,
    product_space,
    rconst,
)


class SpectrumError(KernelError):
    pass


class Spectrum:
    """A direct family with a space at each index, over the family's carrier
    there, and a certificate dict per order edge witnessing that the
    transport is a morphism.

    The spectrum holds a copy of the table it is given, which
    `complete_witnesses` fills in on the covers.  `derive(s, i, j)`, when
    there is one, makes the certificates of an edge not held, keeps them
    in `witness_certs` and returns them, or returns None; over a family
    that derives on its covers (`derive_on_covers`) it is by default
    `lift_on_covers`.  `edge_witness` reads both.  Induced maps between
    topologies are definitional (precompose with the transport) and are
    computed on demand, never stored.
    """

    def __init__(self, fam, spaces, witness_certs, pool=(Fraction(0), Fraction(1)),
                 derive=None):
        self.fam = fam  # a DirectFamily
        self.spaces = spaces  # index element -> BSpace
        # (i, j) order pair -> {target gen index -> certificate}
        self.witness_certs = dict(witness_certs)
        # constants usable in threads
        self.pool = tuple(q if type(q) is Fraction else Fraction(q) for q in pool)
        if derive is None and fam.derive is derive_on_covers:
            derive = lift_on_covers
        self.derive = derive

    @property
    def index(self):
        return self.fam.index

    @property
    def direction(self):
        return self.fam.direction

    def space(self, i):
        return self.spaces[i]

    def edge_ends(self, i, j):
        """(source space, target space) of the transport for edge (i, j)."""
        a, b = self.fam.ends(i, j)
        return self.space(a), self.space(b)

    def edge_witness(self, i, j):
        try:
            certs = self.witness_certs[(i, j)]
        except KeyError:
            certs = None if self.derive is None else self.derive(self, i, j)
            if certs is None:
                raise SpectrumError(f"no edge witness for ({i}, {j})") from None
        return MorphismWitness(self.fam.transport(i, j), dict(certs))

    def induced_map(self, i, j, f):
        """Precompose a topology element with the transport of edge (i, j)."""
        return compose_rfun(f, self.fam.transport(i, j))


def complete_witnesses(fam, spaces, given=None):
    """A new witness table, the certificates in `given` kept; `given`
    itself is not changed.

    Over a family that derives on its covers (`derive_on_covers`), given
    certificates on covers only, certify_map completes each cover, and
    every other edge is left to `lift_on_covers`, on first use.  When a
    cover cannot be completed, or under any other family or table, every
    edge is filled in now, as follows, so a refusal names the edge it
    always named.

    First each edge with nothing given is lifted through an intermediate
    index, until no more can be: edge (i, j) lifts through the first k, in
    carrier order, with i <= k <= j and both of its edges known, read off
    the index's known-edge rows (`DirectedIndex._derive_edges`), and the
    certificates of the edge whose transport applies second are lifted
    along the witness of the one that applies first (`_lifted`).  A
    certificate is lifted only when the first edge certifies every
    generator it names.  Then certify_map constructs every certificate
    still missing (`_filled`); a generator it cannot certify raises
    SpectrumError.
    """
    given = given or {}
    certs = {e: dict(c) for e, c in given.items()}

    def fill(i, j):
        have = certs.get((i, j), {})
        full = _filled(fam, spaces, i, j, have)
        if full is not have:
            certs[(i, j)] = full

    covers = fam.index.covers
    if fam.derive is derive_on_covers and all(j in covers.get(i, ()) for i, j in certs):
        try:
            for i in fam.index.elements:
                for j in covers[i]:
                    fill(i, j)
            return certs
        except SpectrumError:
            certs = {e: dict(c) for e, c in given.items()}  # refused below

    def lift(i, j, k):
        if k is None:
            return False
        certs[(i, j)] = _lifted(fam, spaces, certs, i, j, k)
        return True

    fam.index._derive_edges(certs, lift)
    for i, j in fam.order_pairs():
        if i != j:
            fill(i, j)
    return certs


def lift_on_covers(s, i, j):
    """The certificates of edge (i, j) lifted through its middle
    (`DirectedIndex.middle`), as `complete_witnesses` lifts them, then
    completed (`_filled`), each edge on the way kept in s.witness_certs;
    None when an edge on the way is not held and has no middle."""
    certs = s.witness_certs
    return s.index.derived(certs, i, j, lambda a, b, k: _filled(
        s.fam, s.spaces, a, b, _lifted(s.fam, s.spaces, certs, a, b, k)))


def _lifted(fam, spaces, certs, i, j, k):
    """The certificates of the edge whose transport applies second, of
    (i, k) and (k, j), lifted along the witness of the one that applies
    first: those the first edge's certificates allow."""
    first, second = oriented(fam.direction, (i, k), (k, j))
    lower = spaces[fam.ends(i, j)[0]]
    w_low = MorphismWitness(fam.transport(*first), certs[first])
    lifted = {}
    for m, c in certs[second].items():
        try:
            lifted[m] = lift_certificate(lower, w_low, c)
        except MissingCertificate:
            pass  # left to certify_map
    return lifted


def _filled(fam, spaces, i, j, have):
    """have when it certifies every generator at the target of edge
    (i, j), else a new dict with certify_map's certificates for the rest;
    a generator it cannot certify raises SpectrumError."""
    src, tgt = fam.ends(i, j)
    if all(k in have for k in range(len(spaces[tgt].gens))):
        return have
    missing = []
    certs = certify_map(spaces[src], spaces[tgt], fam.transport(i, j),
                        "edge", missing, known=have).certs
    raise_first(missing, SpectrumError,
                lambda k: f"no certificate found for generator {k} on edge ({i}, {j})")
    return certs


def make_spectrum(fam, spaces, witness_certs=None, pool=(0, 1)):
    """The validated spectrum, its witness table completed from
    witness_certs by complete_witnesses."""
    s = Spectrum(fam, dict(spaces), complete_witnesses(fam, spaces, witness_certs), pool)
    raise_first(validate_spectrum(s), SpectrumError)
    return s


def constant_spectrum(index, sp, pool=(0, 1), direction=COVARIANT):
    """One space, identity transports, generator certificates on every
    edge the family holds (on a partial order its covers, the rest lifted
    on first use).

    Every edge holds the same certificate objects, lifts included, so
    `BSpace.verdicts` validates each one once for the space, not once per
    edge."""
    fam = constant_direct_family(index, sp.carrier, direction)
    spaces = {i: sp for i in index.elements}
    gens = dict(enumerate(CGen(k) for k in range(len(sp.gens))))
    certs = {(i, j): dict(gens) for i, j in fam.transports if i != j}
    return Spectrum(fam, spaces, certs, pool)


def validate_spectrum(s):
    """Every failed family, space, edge-witness and composite-witness law.

    The lift argument: a certificate lifted along a valid witness is valid,
    since each generator leaf becomes one of that witness's valid
    certificates and every other rule is carried through.  When the
    spectrum lifts its other edges from the covers it holds
    (`_lifts_from_covers`), each edge it does not hold is such a lift (and
    certify_map validates what it completes), so only the edges it holds
    are checked.  When one of them fails, every edge is checked, so the
    findings are the full pass's.

    A composite witness lifts the certificates of one valid edge witness
    along another, so once every edge witness is valid, the same argument
    makes every composite valid.  On a spectrum that lifts, the law builds
    the composites of two covers only and decides every other one by that
    argument (`_cover_composites_hold`).  When one of them fails, or the
    spectrum does not lift, the composites through each cover are built;
    when one of those fails, or the index is not a partial order, every
    triple i <= j <= k with i != j and j != k is scanned, so the findings
    are the scan's.
    """
    findings = [f for f in validate_direct_family(s.fam)]
    for i in s.index.elements:
        if i not in s.spaces:
            findings.append(Finding("subbase-missing", (i,)))
        elif not s.space(i).carrier.same_as(s.fam.carrier(i)):
            findings.append(Finding("space-carrier", (i,)))
    if findings:
        return findings
    lifted = _lifts_from_covers(s)
    if lifted:  # the held edges, in `order_pairs()` order
        findings = _edge_findings(s, sorted(
            [p for p in s.witness_certs if p[0] != p[1] and p in s.index]))
    if not lifted or findings:
        findings = _edge_findings(s, [p for p in s.fam.order_pairs() if p[0] != p[1]])
    if findings:
        return findings
    if _cover_composites_hold(s):
        return findings
    # Composite edges also validate when their certificates are assembled by
    # lifting through an intermediate index.
    for i, j in s.fam.order_pairs():
        for k in s.index.elements:
            if i == j or j == k or not s.index.leq(j, k):
                continue
            findings += _composite_findings(s, i, j, k)
    return findings


def _lifts_from_covers(s):
    """Whether s holds every cover of its partial order and lifts the
    other edges from them (`lift_on_covers`)."""
    covers = s.index.covers
    return s.derive is lift_on_covers and covers is not None and all(
        (i, j) in s.witness_certs for i in covers for j in covers[i])


def _edge_findings(s, edges):
    """The edge-witness findings of the listed edges, in list order."""
    findings = []
    for i, j in edges:
        src, dst = s.edge_ends(i, j)
        try:
            w = s.edge_witness(i, j)
        except SpectrumError:
            findings.append(Finding("edge-witness-missing", (i, j)))
            continue
        findings += check_morphism_as("edge", src, dst, w, (i, j))
    return findings


def _composite_findings(s, i, j, k):
    """The findings of the composite witness of (i, j) and (j, k)."""
    src, tgt = s.edge_ends(i, k)
    first, second = oriented(s.direction, (i, j), (j, k))
    composite = compose_witnesses(src, s.space(j), tgt,
                                  s.edge_witness(*first),
                                  s.edge_witness(*second))
    return [Finding("composite-" + f.law, (i, j, k))
            for f in check_morphism(src, tgt, composite)]


def _cover_composites_hold(s):
    """Whether the composite witnesses checked on a partial order validate;
    False on any other index, so that the scan over every triple lists the
    findings.

    Every edge witness has already validated.  On a spectrum that lifts
    from its covers (`_lifts_from_covers`) the composites built are those
    of i < j < k with j covering i and k covering j, both edges held;
    every other composite lifts valid certificates along a valid witness,
    the argument by which the edge law skips the edges the spectrum
    derives, so it is valid.  The covers are the index's, so the
    composites built do not depend on what checks ran first.  On any
    other spectrum the law builds the real composite through each cover
    of every i, i < j <= k with j covering i and j != k, reading each k
    off the index's row at j; so does a spectrum that lifts when one of
    its composites of two covers fails.
    """
    covers = s.index.covers
    if covers is None:
        return False
    els = s.index.elements
    if _lifts_from_covers(s) and not any(
            _composite_findings(s, i, j, k)
            for i in els for j in covers[i] for k in covers[j]):
        return True
    position, rows = s.index._order
    return not any(_composite_findings(s, i, j, k)
                   for i in els for j in covers[i]
                   for k in _members(els, rows[position[j]]) if k != j)


# --- compatible choices of topology elements (threads) ----------------------

class Thread:
    """One topology element per index, compatible with the transports.

    For a covariant spectrum the components pull back down the order:
    funcs[i] = funcs[j] . transport(i, j) whenever i <= j.  Each component
    carries a certificate over its own subbase.
    """

    def __init__(self, funcs, certs=None):
        self.funcs = funcs  # index element -> RFun
        self.certs = {} if certs is None else certs  # index element -> certificate

    def at(self, i):
        return self.funcs[i]


def enumerate_threads(s):
    """All compatible choices over a covariant spectrum whose components are
    generators or constants from the declared pool.

    A thread is fixed by its component at the top t, since f_i = f_t .
    lambda_it: each top candidate is pulled back to every index and looked
    up among that index's candidates by its values, read as the codes of
    one ValueCodes table.  The choice is a thread
    when every order pair (i, j), reflexive ones included, agrees:
    f_j . lambda_ij = f_i, that is f_t(lambda_jt(lambda_ij(x))) =
    f_t(lambda_it(x)) on the carrier at i.  The pairs of top elements those
    equations tie are collected once, so every thread returned is
    compatible at every order pair.  On a lawful family
    (`DirectFamily.lawful`) the two sides are equal at the top, and every
    candidate is constant on classes, so no pass is made.  They come ordered by their
    candidates' positions, read in index order, which is the order a
    backtracking search along the index finds them in.
    """
    if s.direction != COVARIANT:
        raise SpectrumError("threads are enumerated over a covariant spectrum")
    fam, els = s.fam, s.index.elements
    codes = ValueCodes()
    candidates, position = {}, {}
    for i in els:
        sp = s.space(i)
        xs = sp.carrier.elements
        found, pos = [], {}
        for k, g in enumerate(sp.gens):
            key = codes.key(map(g.values.__getitem__, xs))
            if pos.setdefault(key, len(found)) == len(found):
                found.append((g, CGen(k)))
        for q in s.pool:
            key = codes.key([q] * len(xs))
            if pos.setdefault(key, len(found)) == len(found):
                found.append((rconst(sp.carrier, q), CConst(q)))
        candidates[i], position[i] = found, pos
    t = fam.top()
    to_top = {i: fam.transport(i, t).mapping for i in els}
    at_top = {i: [to_top[i][x] for x in fam.carrier(i).elements] for i in els}
    tied = set()
    for i, j in () if fam.lawful else s.index.order_pairs():
        via = list(map(to_top[j].__getitem__,
                       map(fam.transport(i, j).mapping.__getitem__,
                           fam.carrier(i).elements)))
        if via != at_top[i]:
            tied.update(zip(via, at_top[i]))
    top_xs = fam.carrier(t).elements
    chosen = set()
    for g, _ in candidates[t]:
        v = dict(zip(top_xs, codes.key(map(g.values.__getitem__, top_xs))))
        if any(v[a] != v[b] for a, b in tied):
            continue
        pos = tuple(position[i].get(tuple(map(v.__getitem__, at_top[i]))) for i in els)
        if None not in pos:
            chosen.add(pos)
    return [Thread({i: candidates[i][p][0] for i, p in zip(els, pos)},
                   {i: candidates[i][p][1] for i, p in zip(els, pos)})
            for pos in sorted(chosen)]


def sum_function(t, sum_s):
    """The function (i, x) -> component-at-i applied to x, on the direct sum,
    of a compatible thread; the RFun constructor refuses one that is not
    constant on sum classes."""
    tables = {i: f.values for i, f in t.funcs.items()}
    return RFun(sum_s, {a: tables[a[0]][a[1]] for a in sum_s.elements})


def sum_space(s, sum_s):
    """The direct-sum carrier topologized by the thread functions.

    Returns the space and the threads; thread n makes generator n, `thr{n}`.
    The threads are compatible by construction and their functions differ:
    their candidate positions differ and the candidates at each index
    differ by value.
    """
    if s.direction != COVARIANT:
        raise SpectrumError("sum space is built over a covariant spectrum")
    threads = enumerate_threads(s)
    gens = tuple(sum_function(t, sum_s) for t in threads)
    names = tuple(f"thr{n}" for n in range(len(threads)))
    return BSpace(sum_s, gens, names), threads


def restrict_spectrum(s, cof):
    """The spectrum reindexed along a cofinal subset's embedding: the
    certificates of a <= b are s's of its image, read on first use.  The
    sub-index is ordered through that embedding, so it is monotone."""
    sub_index = induced_order(s.index, cof)
    h = make_fn(sub_index.base, s.index.base, cof.embed.table())
    fam = _restrict_family(s.fam, sub_index, h)
    spaces = {j: s.spaces[cof.embed(j)] for j in sub_index.elements}

    def derive(sub, a, b):
        if a == b or (a, b) not in sub_index:
            return None
        certs = sub.witness_certs[(a, b)] = s.edge_witness(h(a), h(b)).certs
        return certs

    return Spectrum(fam, spaces, {}, s.pool, derive)


def product_spectrum(s, t):
    """Componentwise spectrum over the product order, with each factor's
    generators pulled back through the projections."""
    return product_spectrum_over(s, t, product_order(s.index, t.index), lambda a: a)


def product_spectrum_over(s, t, index, parts):
    """The componentwise product of s and t over `index`, whose element a
    pairs the index elements parts(a) = (i, j) of s and t and whose order
    maps into both factors' orders.  Returns the spectrum and, per index
    element, the two projections.

    One product space is made per pair of factor spaces.  The spectrum
    holds no transport and no certificate: each pair's is made the first
    time it is read, from the factors' own accessors, so factors that
    derive on their covers stay so.  A transport's table is read off the
    factors' transports, onto the target carrier's own Pairs: total, in
    the source carrier's order and into the target by construction, and
    extensional when both factor families are lawful
    (`DirectFamily.lawful`), since the product's equality is componentwise;
    the product family is then lawful too, without a pass of its own.
    So it is built unchecked (`_fn`) then, and through make_fn otherwise,
    where a bad factor transport raises.  An edge's certificate for a
    generator pulled back from a factor is that factor's certificate at
    its own edge (the generator itself where that edge is reflexive)
    lifted along the projection at the edge's source; each lift is made
    once per factor edge and source index.
    """
    direction = s.direction
    if direction != t.direction:
        raise SpectrumError("factors must share a direction")
    part = {a: parts(a) for a in index.elements}
    made, spaces, projections, cells = {}, {}, {}, {}
    for a, (i, j) in part.items():
        key = (s.spaces[i], t.spaces[j])
        if key not in made:
            sp, pr1, pr2 = product_space(*key)
            cell = {}  # x -> y -> the carrier's own Pair((x, y))
            for el in sp.carrier.elements:
                cell.setdefault(el[0], {})[el[1]] = el
            made[key] = sp, (pr1, pr2), cell
        spaces[a], projections[a], cells[a] = made[key]
    carriers = {a: sp.carrier for a, sp in spaces.items()}
    build = _fn if s.fam.lawful and t.fam.lawful else make_fn

    def transport(G, a, b):
        if (a, b) not in index:
            return None
        (i, j), (i2, j2) = part[a], part[b]
        mi = s.fam.transport(i, i2).mapping
        mj = t.fam.transport(j, j2).mapping
        src, tgt = G.ends(a, b)
        cell = cells[tgt]
        table = {el: cell[mi[el[0]]][mj[el[1]]] for el in carriers[src].elements}
        fn = G.transports[(a, b)] = build(carriers[src], carriers[tgt], table)
        return fn

    fam = DirectFamily(index, direction, carriers, {}, transport, (s.fam, t.fam))
    lifts = {}

    def certify(prod, a, b):
        # certificates live over the space at the transport's source and
        # prove the generators at its target, the first factor's first
        if a == b or (a, b) not in index:
            return None
        (i, j), (i2, j2) = part[a], part[b]
        src = fam.ends(a, b)[0]
        table = []
        for n, (f, edge) in enumerate(((s, (i, i2)), (t, (j, j2)))):
            key = (n, edge, src)
            if key not in lifts:
                given = f.edge_witness(*edge).certs if edge[0] != edge[1] else None
                # the second factor's generators follow the first's
                base = len(s.spaces[part[src][0]].gens) if n else 0
                lifts[key] = _lift_factor_edge(f, edge, given, spaces[src],
                                               projections[src][n], base)
            table += lifts[key]
        certs = prod.witness_certs[(a, b)] = dict(enumerate(table))
        return certs

    pool = tuple(sorted(set(s.pool) | set(t.pool)))
    return Spectrum(fam, spaces, {}, pool, certify), projections


def _lift_factor_edge(f, edge, edge_certs, sp, pr, base):
    """The certificates of f's generators at the target of its edge, over
    the product space sp at the source, whose generators from f start at
    position `base`: f's certificates at the edge, edge_certs, lifted along
    the projection pr, or the generators themselves at a reflexive edge."""
    f_src, f_tgt = f.fam.ends(*edge)
    if edge_certs is None:
        return [CGen(base + k) for k in range(len(f.spaces[f_tgt].gens))]
    w = MorphismWitness(pr, {m: CGen(base + m) for m in range(len(f.spaces[f_src].gens))})
    return [lift_certificate(sp, w, edge_certs[k]) for k in range(len(f.spaces[f_tgt].gens))]
