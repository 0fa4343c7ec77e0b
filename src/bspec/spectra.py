"""Spectra: direct families whose carriers carry function topologies and
whose transports are certified morphisms, plus the machinery they induce on
the disjoint-union carrier (compatible choices of topology elements, the
functions they define on the sum, and the sum topology itself)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import (
    COVARIANT,
    DirectFamily,
    constant_direct_family,
    oriented,
    restrict_family,
    validate_direct_family,
)
from .order import induced_order
from .report import Finding
from .setoid import Pair, make_fn
from .topology import (
    BSpace,
    CGen,
    MorphismWitness,
    RFun,
    certify_map,
    check_morphism,
    check_morphism_as,
    compose_rfun,
    compose_witnesses,
    lift_certificate,
    raise_first,
)


class SpectrumError(Exception):
    pass


@dataclass(eq=False)
class Spectrum:
    """A direct family with a space at each index, over the family's carrier
    there, and a certificate dict per order edge witnessing that the
    transport is a morphism.

    Induced maps between topologies are definitional (precompose with the
    transport) and are computed on demand, never stored.
    """

    fam: DirectFamily
    spaces: dict  # index element -> BSpace
    witness_certs: dict  # (i, j) order pair -> {target gen index -> certificate}
    pool: tuple = (Fraction(0), Fraction(1))  # constants usable in threads

    def __post_init__(self):
        self.pool = tuple(Fraction(q) for q in self.pool)
        self._complete_witnesses()

    def _complete_witnesses(self):
        """Fill in composite edges by lifting through an intermediate index.

        Only missing edges are derived; supplied certificates are kept.  An
        edge (i, j) lifts through the first k, in index order, with
        i <= k <= j and both of its edges known: the certificates of the
        edge whose transport applies second are lifted along the witness
        of the one that applies first.
        """
        above, below = self.index.above, {}
        for k in self.index.elements:
            for j in above.get(k, ()):
                below.setdefault(j, []).append(k)
        pairs = [p for p in self.fam.order_pairs() if p[0] != p[1]]
        changed = True
        while changed:
            changed = False
            for i, j in pairs:
                if (i, j) in self.witness_certs:
                    continue
                for k in below[j]:
                    if k in (i, j) or k not in above[i]:
                        continue
                    if (i, k) not in self.witness_certs or (k, j) not in self.witness_certs:
                        continue
                    first, second = oriented(self.direction, (i, k), (k, j))
                    lower = self.space(self.fam.ends(i, j)[0])
                    w_low = self.edge_witness(*first)
                    self.witness_certs[(i, j)] = {
                        m: lift_certificate(lower, w_low, c)
                        for m, c in self.witness_certs[second].items()
                    }
                    changed = True
                    break

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


def autofill_witnesses(fam, spaces, given=None):
    """Complete a witness table, constructing any certificate not supplied."""
    certs = {k: dict(v) for k, v in (given or {}).items()}
    for i, j in fam.order_pairs():
        if i == j:
            continue
        src, tgt = fam.ends(i, j)
        missing = []
        certs[(i, j)] = certify_map(
            spaces[src], spaces[tgt], fam.transport(i, j),
            "edge", missing, known=certs.get((i, j))).certs
        raise_first(missing, SpectrumError,
                    lambda k: f"no certificate found for generator {k} on edge ({i}, {j})")
    return certs


def make_spectrum(fam, spaces, witness_certs=None, pool=(0, 1)):
    """The validated spectrum, the certificates not in witness_certs
    constructed and those given kept."""
    s = Spectrum(fam, dict(spaces), autofill_witnesses(fam, spaces, witness_certs), pool)
    findings = validate_spectrum(s)
    if findings:
        raise SpectrumError(str(findings[0]))
    return s


def constant_spectrum(index, sp, pool=(0, 1), direction=COVARIANT):
    """One space, identity transports, generator certificates everywhere."""
    fam = constant_direct_family(index, sp.carrier, direction)
    spaces = {i: sp for i in index.elements}
    certs = {}
    for i, j in fam.order_pairs():
        if i != j:
            certs[(i, j)] = {k: CGen(k) for k in range(len(sp.gens))}
    return Spectrum(fam, spaces, certs, pool)


def validate_spectrum(s):
    findings = [f for f in validate_direct_family(s.fam)]
    for i in s.index.elements:
        if i not in s.spaces:
            findings.append(Finding("subbase-missing", (i,)))
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
    # Composite edges also validate when their certificates are assembled by
    # lifting through an intermediate index.
    for i, j in s.fam.order_pairs():
        for k in s.index.elements:
            if i == j or j == k or not s.index.leq(j, k):
                continue
            src, tgt = s.edge_ends(i, k)
            first, second = oriented(s.direction, (i, j), (j, k))
            composite = compose_witnesses(src, s.space(j), tgt,
                                          s.edge_witness(*first),
                                          s.edge_witness(*second))
            for f in check_morphism(src, tgt, composite):
                findings.append(Finding("composite-" + f.law, (i, j, k)))
    return findings


# --- compatible choices of topology elements (threads) ----------------------

@dataclass(eq=False)
class Thread:
    """One topology element per index, compatible with the transports.

    For a covariant spectrum the components pull back down the order:
    funcs[i] = funcs[j] . transport(i, j) whenever i <= j.  Each component
    carries a certificate over its own subbase.
    """

    funcs: dict  # index element -> RFun
    certs: dict = field(default_factory=dict)  # index element -> certificate

    def at(self, i):
        return self.funcs[i]


def enumerate_threads(s):
    """All compatible choices over a covariant spectrum whose components are
    generators or constants from the declared pool.

    A thread is fixed by its component at the top t, since f_i = f_t .
    lambda_it: each top candidate is pulled back to every index and looked
    up among that index's candidates by its values.  The choice is a thread
    when every order pair (i, j), reflexive ones included, agrees:
    f_j . lambda_ij = f_i, that is f_t(lambda_jt(lambda_ij(x))) =
    f_t(lambda_it(x)) on the carrier at i.  The pairs of top elements those
    equations tie are collected once, so every thread returned is
    compatible at every order pair.  They come ordered by their
    candidates' positions, read in index order, which is the order a
    backtracking search along the index finds them in.
    """
    from .topology import CConst, rconst

    if s.direction != COVARIANT:
        raise SpectrumError("threads are enumerated over a covariant spectrum")
    fam, els = s.fam, s.index.elements
    candidates, position = {}, {}
    for i in els:
        sp = s.space(i)
        found, pos = [], {}  # each value tuple is hashed once
        for k, g in enumerate(sp.gens):
            key = tuple([g.values[x] for x in sp.carrier.elements])
            if pos.setdefault(key, len(found)) == len(found):
                found.append((g, CGen(k)))
        for q in s.pool:
            key = tuple(q for _ in sp.carrier.elements)
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
    chosen = set()
    for g, _ in candidates[t]:
        v = g.values
        if any(v[a] != v[b] for a, b in tied):
            continue
        pos = tuple(position[i].get(tuple([v[y] for y in at_top[i]])) for i in els)
        if None not in pos:
            chosen.add(pos)
    return [Thread({i: candidates[i][p][0] for i, p in zip(els, pos)},
                   {i: candidates[i][p][1] for i, p in zip(els, pos)})
            for pos in sorted(chosen)]


def sum_function(t, sum_s):
    """The function (i, x) -> component-at-i applied to x, on the direct sum,
    of a compatible thread; the RFun constructor refuses one that is not
    constant on sum classes."""
    values = {}
    for a in sum_s.elements:
        i, x = a
        values[a] = t.at(i)(x)
    return RFun(sum_s, values)


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
    element, the two projections."""
    from .topology import product_space, reindex_certificate

    if s.direction != t.direction:
        raise SpectrumError("factors must share a direction")
    carriers, spaces, projections = {}, {}, {}
    for a in index.elements:
        i, j = parts(a)
        sp, pr1, pr2 = product_space(s.space(i), t.space(j))
        carriers[a] = sp.carrier
        spaces[a] = sp
        projections[a] = (pr1, pr2)
    transports = {}
    for a, b in index.order_pairs():
        (i, j), (i2, j2) = parts(a), parts(b)
        ti, tj = s.fam.transport(i, i2), t.fam.transport(j, j2)
        src, tgt = oriented(s.direction, a, b)
        table = {}
        for el in carriers[src].elements:
            x, y = el
            table[el] = Pair((ti(x), tj(y)))
        transports[(a, b)] = make_fn(carriers[src], carriers[tgt], table)
    fam = DirectFamily(index, s.direction, carriers, transports)

    certs = {}
    for a, b in index.order_pairs():
        if a == b:
            continue
        (i, j), (i2, j2) = parts(a), parts(b)
        edge_s = s.witness_certs[(i, i2)] if i != i2 else None
        edge_t = t.witness_certs[(j, j2)] if j != j2 else None
        # certificates live over the subbase at the transport's source and
        # prove the generators at its target
        (s_src, t_src), (s_tgt, t_tgt) = oriented(s.direction, (i, j), (i2, j2))
        s_src_n, s_tgt_n = len(s.space(s_src).gens), len(s.space(s_tgt).gens)
        first_map = {m: m for m in range(s_src_n)}
        second_map = {m: s_src_n + m for m in range(len(t.space(t_src).gens))}
        table = {}
        for k in range(s_tgt_n):
            base = CGen(k) if edge_s is None else edge_s[k]
            table[k] = reindex_certificate(base, first_map)
        for k in range(len(t.space(t_tgt).gens)):
            base = CGen(k) if edge_t is None else edge_t[k]
            table[s_tgt_n + k] = reindex_certificate(base, second_map)
        certs[(a, b)] = table
    pool = tuple(sorted(set(s.pool) | set(t.pool)))
    return Spectrum(fam, spaces, certs, pool), projections
