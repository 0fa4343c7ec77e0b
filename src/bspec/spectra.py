"""Spectra: direct families whose carriers carry function topologies and
whose transports are certified morphisms, plus the machinery they induce on
the disjoint-union carrier (compatible choices of topology elements, the
functions they define on the sum, and the sum topology itself)."""

from __future__ import annotations

from fractions import Fraction

from .families import (
    COVARIANT,
    DirectFamily,
    constant_direct_family,
    oriented,
    restrict_family,
    validate_direct_family,
)
from .order import _members, induced_order
from .report import Finding
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
    raise_first,
    rconst,
)


class SpectrumError(Exception):
    pass


class Spectrum:
    """A direct family with a space at each index, over the family's carrier
    there, and a certificate dict per order edge witnessing that the
    transport is a morphism.

    The spectrum holds the table it is given; `complete_witnesses` makes a
    table with every edge filled in.  Induced maps between topologies are
    definitional (precompose with the transport) and are computed on
    demand, never stored.
    """

    def __init__(self, fam, spaces, witness_certs, pool=(Fraction(0), Fraction(1))):
        self.fam = fam  # a DirectFamily
        self.spaces = spaces  # index element -> BSpace
        # (i, j) order pair -> {target gen index -> certificate}
        self.witness_certs = witness_certs
        # constants usable in threads
        self.pool = tuple(q if type(q) is Fraction else Fraction(q) for q in pool)

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
        certs = self.witness_certs.get((i, j))
        if certs is None:
            raise SpectrumError(f"no edge witness for ({i}, {j})")
        return MorphismWitness(self.fam.transport(i, j), dict(certs))

    def induced_map(self, i, j, f):
        """Precompose a topology element with the transport of edge (i, j)."""
        return compose_rfun(f, self.fam.transport(i, j))


def complete_witnesses(fam, spaces, given=None):
    """A new witness table for every edge of fam, the certificates in
    `given` kept; `given` itself is not changed.

    First each edge with nothing given is lifted through an intermediate
    index, until no more can be: edge (i, j) lifts through the first k, in
    carrier order, with i <= k <= j and both of its edges known, read off
    the index's known-edge rows (`DirectedIndex._derive_edges`), and the
    certificates of the edge whose transport applies second are lifted
    along the witness of the one that applies first.  A certificate is
    lifted only when the first edge certifies every generator it names.
    Then certify_map constructs every certificate still missing; a
    generator it cannot certify raises SpectrumError.
    """
    certs = {e: dict(c) for e, c in (given or {}).items()}

    def lift(i, j, k):
        if k is None:
            return False
        first, second = oriented(fam.direction, (i, k), (k, j))
        lower = spaces[fam.ends(i, j)[0]]
        w_low = MorphismWitness(fam.transport(*first), certs[first])
        lifted = certs[(i, j)] = {}
        for m, c in certs[second].items():
            try:
                lifted[m] = lift_certificate(lower, w_low, c)
            except MissingCertificate:
                pass  # left to certify_map below
        return True

    fam.index._derive_edges(certs, lift)
    for i, j in fam.order_pairs():
        if i == j:
            continue
        src, tgt = fam.ends(i, j)
        have = certs.get((i, j), {})
        if all(k in have for k in range(len(spaces[tgt].gens))):
            continue
        missing = []
        certs[(i, j)] = certify_map(
            spaces[src], spaces[tgt], fam.transport(i, j),
            "edge", missing, known=have).certs
        raise_first(missing, SpectrumError,
                    lambda k: f"no certificate found for generator {k} on edge ({i}, {j})")
    return certs


def make_spectrum(fam, spaces, witness_certs=None, pool=(0, 1)):
    """The validated spectrum, its witness table completed from
    witness_certs by complete_witnesses."""
    s = Spectrum(fam, dict(spaces), complete_witnesses(fam, spaces, witness_certs), pool)
    findings = validate_spectrum(s)
    if findings:
        raise SpectrumError(str(findings[0]))
    return s


def constant_spectrum(index, sp, pool=(0, 1), direction=COVARIANT):
    """One space, identity transports, generator certificates everywhere.

    Every edge holds the same certificate objects, so `BSpace.verdicts`
    validates each one once for the space, not once per edge."""
    fam = constant_direct_family(index, sp.carrier, direction)
    spaces = {i: sp for i in index.elements}
    gens = [CGen(k) for k in range(len(sp.gens))]
    certs = {}
    for i, j in fam.order_pairs():
        if i != j:
            certs[(i, j)] = dict(enumerate(gens))
    return Spectrum(fam, spaces, certs, pool)


def validate_spectrum(s):
    """Every failed family, space, edge-witness and composite-witness law.

    The composite witnesses are built through covers only
    (`_cover_composites_hold`); when one of them fails, or the index is
    not a partial order, every triple i <= j <= k with i != j and j != k
    is scanned, so the findings are the scan's.
    """
    findings = [f for f in validate_direct_family(s.fam)]
    for i in s.index.elements:
        if i not in s.spaces:
            findings.append(Finding("subbase-missing", (i,)))
        elif not s.space(i).carrier.same_as(s.fam.carrier(i)):
            findings.append(Finding("space-carrier", (i,)))
    if findings:
        return findings
    for i, j in s.fam.order_pairs():
        if i == j:
            continue
        src, dst = s.edge_ends(i, j)
        try:
            w = s.edge_witness(i, j)
        except SpectrumError:
            findings.append(Finding("edge-witness-missing", (i, j)))
            continue
        findings += check_morphism_as("edge", src, dst, w, (i, j))
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
    """Whether, on a partial order, the composite witness of every
    i < j <= k with j covering i and j != k validates.

    Each edge witness has already validated, and a composite of valid
    witnesses lifts valid certificates along a valid one, so the law checks
    the composition itself: it builds and checks the real composite through
    each cover of every i, reading each k off the index's row at j.  False
    on any other index, or when a composite fails, so that the scan over
    every triple lists the findings.
    """
    covers, (position, rows) = s.index.covers, s.index._order
    if covers is None:
        return False
    els = s.index.elements
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
    compatible at every order pair.  They come ordered by their
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
    for i, j in s.index.pairs:
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
    """The spectrum reindexed along a cofinal subset's embedding."""
    sub_index = induced_order(s.index, cof)
    h = make_fn(sub_index.base, s.index.base, cof.embed.table())
    fam = restrict_family(s.fam, sub_index, h)
    spaces = {j: s.spaces[cof.embed(j)] for j in sub_index.elements}
    certs = {}
    for a, b in sub_index.order_pairs():
        if a == b:
            continue
        certs[(a, b)] = dict(s.witness_certs[(cof.embed(a), cof.embed(b))])
    return Spectrum(fam, spaces, certs, s.pool)


def product_spectrum(s, t):
    """Componentwise spectrum over the product order, with each factor's
    generators pulled back through the projections."""
    from .order import product_order

    return product_spectrum_over(s, t, product_order(s.index, t.index), lambda a: a)


def product_spectrum_over(s, t, index, parts):
    """The componentwise product of s and t over `index`, whose element a
    pairs the index elements parts(a) = (i, j) of s and t and whose order
    maps into both factors' orders.  Returns the spectrum and, per index
    element, the two projections.

    One product space is made per pair of factor spaces.  Each transport's
    table is read off the factors' transports, onto the target carrier's
    own Pairs: total, in the source carrier's order and into the target by
    construction, and extensional when both factor families are lawful
    (`DirectFamily.lawful`), since the product's equality is componentwise.
    So it is built unchecked (`_fn`) then, and through make_fn otherwise,
    where a bad factor transport raises.  An edge's certificate for a
    generator pulled back from a factor is that factor's certificate at
    its own edge (the generator itself where that edge is reflexive)
    lifted along the projection at the edge's source; each lift is made
    once per factor edge and source index.
    """
    from .topology import product_space

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
    pairs = index.order_pairs()
    build = _fn if s.fam.lawful and t.fam.lawful else make_fn
    transports = {}
    for a, b in pairs:
        (i, j), (i2, j2) = part[a], part[b]
        mi = s.fam.transports[(i, i2)].mapping
        mj = t.fam.transports[(j, j2)].mapping
        src, tgt = oriented(direction, a, b)
        els, cell = carriers[src].elements, cells[tgt]
        table = {el: cell[mi[el[0]]][mj[el[1]]] for el in els}
        transports[(a, b)] = build(carriers[src], carriers[tgt], table)
    fam = DirectFamily(index, direction, carriers, transports)

    # certificates live over the space at the transport's source and prove
    # the generators at its target, the first factor's first
    certs, lifts = {}, {}
    for a, b in pairs:
        if a == b:
            continue
        (i, j), (i2, j2) = part[a], part[b]
        given = (s.witness_certs[(i, i2)] if i != i2 else None,
                 t.witness_certs[(j, j2)] if j != j2 else None)
        src = oriented(direction, a, b)[0]
        table = []
        for n, (f, edge) in enumerate(((s, (i, i2)), (t, (j, j2)))):
            key = (n, edge, src)
            if key not in lifts:
                # the second factor's generators follow the first's
                base = len(s.spaces[part[src][0]].gens) if n else 0
                lifts[key] = _lift_factor_edge(f, edge, given[n], spaces[src],
                                               projections[src][n], base)
            table += lifts[key]
        certs[(a, b)] = dict(enumerate(table))
    pool = tuple(sorted(set(s.pool) | set(t.pool)))
    return Spectrum(fam, spaces, certs, pool), projections


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
