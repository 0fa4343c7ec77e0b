"""Seeded generators of random valid structures for the verification suites.

Randomness only picks shapes and tables; validity is by construction.
Families are graded by chain height in the order's condensation, so the
composition law holds exactly.  Spectra take each subbase as the pullback
of functions chosen at a dominating index, which makes every edge witness a
generator match and keeps all downstream certificates generator leaves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from bspec.families import COVARIANT, CONTRAVARIANT, DirectFamily, oriented
from bspec.limits import Legs
from bspec.order import (
    CofinalSubset,
    chain,
    make_directed,
    top_element,
)
from bspec.setoid import (
    SetoidFn,
    compose,
    discrete,
    identity,
    make_fn,
    make_setoid,
)
from bspec.spectra import Spectrum, make_spectrum, product_spectrum_over
from bspec.topology import (
    CGen,
    CConst,
    CAdd,
    CBic,
    BSpace,
    MorphismWitness,
    RFun,
    babs,
    badd,
    baffine,
    bconst,
    bneg,
    BID,
    ceq,
    compose_rfun,
    rconst,
    space,
)

from oracles import close_order_scan, index_of_pairs
from thread_laws import ContinuousMap, identity_continuous


def random_rational(rng, lo=-4, hi=4, den=4):
    return Fraction(rng.randint(lo * den, hi * den), den)


# --- directed indices ---------------------------------------------------------

def enumerate_directed_indices(max_size=4):
    """All directed preorders with at most max_size elements, one per
    order-isomorphism class."""
    out = []
    for n in range(1, max_size + 1):
        names = [str(k) for k in range(n)]
        base = discrete(names)
        off_diag = [(a, b) for a in names for b in names if a != b]
        seen = set()
        for mask in range(2 ** len(off_diag)):
            rel = {(a, a) for a in names}
            for bit, pair in enumerate(off_diag):
                if mask >> bit & 1:
                    rel.add(pair)
            # transitivity
            ok = all(
                (a, c) in rel
                for a, b in rel
                for b2, c in rel
                if b == b2
            )
            if not ok:
                continue
            # directedness
            if not all(
                any((a, k) in rel and (b, k) in rel for k in names)
                for a in names
                for b in names
            ):
                continue
            canon = min(
                tuple(sorted((p[a], p[b]) for a, b in rel))
                for perm in permutations(names)
                for p in [dict(zip(names, perm))]
            )
            if canon in seen:
                continue
            seen.add(canon)
            out.append(index_of_pairs(base, rel))
    return out


def random_directed_index(rng, max_size=4):
    """A random directed preorder, built from random pairs plus a forced top."""
    n = rng.randint(1, max_size)
    names = [str(k) for k in range(n)]
    pairs = set()
    for _ in range(rng.randint(0, n * 2)):
        pairs.add((rng.choice(names), rng.choice(names)))
    top = names[-1]
    pairs.update((a, top) for a in names)
    return make_directed(names, pairs)


def _heights(index):
    """Chain height of each element in the condensation of the order."""
    els = index.elements
    def below(i):
        return [j for j in els if index.leq(j, i) and not index.leq(i, j)]

    heights = {}

    def height(i):
        if i not in heights:
            heights[i] = 0  # guard against cycles; strict below only recurses
            lower = below(i)
            heights[i] = 1 + max((height(j) for j in lower), default=-1)
        return heights[i]

    for i in els:
        height(i)
    return heights


def random_direct_family(rng, index, direction=COVARIANT, max_carrier=3,
                         allow_merged=True):
    """Random carriers and transports graded by condensation height."""
    heights = _heights(index)
    levels = sorted(set(heights.values()))
    carriers_by_level = {}
    for n, lv in enumerate(levels):
        size = rng.randint(1, max_carrier)
        names = [f"l{n}x{t}" for t in range(size)]
        eq_pairs = []
        if allow_merged and size >= 2 and rng.random() < 0.25:
            eq_pairs = [(names[0], names[1])]
        carriers_by_level[lv] = make_setoid(names, eq_pairs)
    step = {}
    for a, b in zip(levels, levels[1:]):
        dom, cod = oriented(direction, carriers_by_level[a], carriers_by_level[b])
        table = {}
        for cls in dom.classes():
            val = rng.choice(cod.classes())[0]
            for x in cls:
                table[x] = val
        step[(a, b)] = make_fn(dom, cod, table)

    level_pos = {lv: n for n, lv in enumerate(levels)}
    composites = {}

    def path(a, b):
        # composite of level steps from height a to height b (a <= b),
        # extended from the composite one level below b
        if (a, b) not in composites:
            lb = level_pos[b]
            if lb == level_pos[a]:
                composites[(a, b)] = identity(carriers_by_level[a])
            else:
                below = path(a, levels[lb - 1])
                last = step[(levels[lb - 1], b)]
                composites[(a, b)] = compose(*oriented(direction, below, last))
        return composites[(a, b)]

    carriers = {i: carriers_by_level[heights[i]] for i in index.elements}
    transports = {}
    for i, j in index.order_pairs():
        transports[(i, j)] = path(heights[i], heights[j])
    return DirectFamily(index, direction, carriers, transports)


def raw_map(rng, dom, cod):
    """A random table, not checked for extensionality."""
    return SetoidFn(dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})


FAULTS = ["none", "identity", "composition", "any"]


def faulty_family(rng, index, direction, fault):
    """A random family with one kind of fault injected: a random table on
    a reflexive pair ("identity"), on one order pair ("composition"), or
    on two ("any"); "none" leaves it lawful."""
    fam = random_direct_family(rng, index, direction)
    transports = dict(fam.transports)
    pairs = fam.order_pairs()
    if fault == "identity":
        i = rng.choice(index.elements)
        transports[(i, i)] = raw_map(rng, fam.carrier(i), fam.carrier(i))
    elif fault == "composition":
        p = rng.choice(pairs)
        transports[p] = raw_map(rng, transports[p].dom, transports[p].cod)
    elif fault == "any":
        # random tables may also separate merged elements
        for p in rng.sample(pairs, k=min(2, len(pairs))):
            transports[p] = raw_map(rng, transports[p].dom, transports[p].cod)
    return DirectFamily(index, direction, fam.carriers, transports)


def _extensional_tables(rng, carrier, count):
    out = []
    for _ in range(count):
        values = {}
        for cls in carrier.classes():
            v = random_rational(rng)
            for x in cls:
                values[x] = v
        out.append(values)
    return out


def random_spectrum(rng, index=None, direction=COVARIANT, n_base=2,
                    max_carrier=3, pool=(0, 1), base_functions=None,
                    family=None):
    """A random valid spectrum whose generators are pullbacks of functions
    picked at dominating indices, so every edge witness is a generator match."""
    if index is None:
        index = random_directed_index(rng)
    if family is None:
        family = random_direct_family(rng, index, direction, max_carrier)
    top = top_element(index)
    if direction == COVARIANT:
        if base_functions is None:
            base_functions = [
                RFun(family.carrier(top), tbl)
                for tbl in _extensional_tables(rng, family.carrier(top), n_base)
            ]
        spaces, certs = {}, {}
        for i in index.elements:
            gens = tuple(
                compose_rfun(u, family.transport(i, top))
                for u in base_functions)
            spaces[i] = BSpace(family.carrier(i), gens,
                               tuple(f"u{k}" for k in range(len(gens))))
        for i, j in index.order_pairs():
            if i != j:
                certs[(i, j)] = {k: CGen(k) for k in range(len(base_functions))}
        return Spectrum(family, spaces, certs, tuple(Fraction(q) for q in pool))
    # contravariant: base functions at every index, pulled up the order
    base_at = {}
    for m in index.elements:
        tables = _extensional_tables(rng, family.carrier(m), max(1, n_base - 1))
        base_at[m] = [RFun(family.carrier(m), t) for t in tables]
    gens_at, keys_at = {}, {}
    for j in index.elements:
        gens, keys, seen = [], [], set()
        for m in index.elements:
            if not index.leq(m, j):
                continue
            for k, u in enumerate(base_at[m]):
                g = compose_rfun(u, family.transport(m, j))
                key = tuple(g.values[x] for x in family.carrier(j).elements)
                if key in seen:
                    continue
                seen.add(key)
                keys.append((m, k))
                gens.append(g)
        gens_at[j] = tuple(gens)
        keys_at[j] = keys
    spaces = {
        j: BSpace(family.carrier(j), gens_at[j],
                  tuple(f"u{m}k{k}" for m, k in keys_at[j]))
        for j in index.elements
    }
    certs = {}
    for i, j in index.order_pairs():
        if i == j:
            continue
        table = {}
        for pos, g in enumerate(gens_at[i]):
            pulled = compose_rfun(g, family.transport(i, j))
            key = tuple(pulled.values[x] for x in family.carrier(j).elements)
            target = next(
                p for p, gg in enumerate(gens_at[j])
                if tuple(gg.values[x] for x in family.carrier(j).elements) == key)
            table[pos] = CGen(target)
        certs[(i, j)] = table
    return Spectrum(family, spaces, certs, tuple(Fraction(q) for q in pool))


# --- spectrum maps -------------------------------------------------------------

def thicken_spectrum(rng, s):
    """A target spectrum containing s's carriers plus one padding point per
    level, with the inclusion as a continuous map (an embedding)."""
    fam = s.fam
    carriers = {}
    pads = {}
    seen_carriers = {}
    for i in s.index.elements:
        base = fam.carrier(i)
        key = id(base)
        if key not in seen_carriers:
            n = len(seen_carriers)
            while f"pad{n}" in base.elements:
                n += 1
            pad = f"pad{n}"
            seen_carriers[key] = make_setoid(list(base.elements) + [pad],
                                             [p for p in base.pairs])
            pads[key] = pad
        carriers[i] = seen_carriers[key]
    transports = {}
    for (i, j), fn in fam.transports.items():
        a, b = fam.ends(i, j)
        dom_key, cod_key = id(fam.carrier(a)), id(fam.carrier(b))
        table = dict(fn.mapping)
        table[pads[dom_key]] = pads[cod_key]
        transports[(i, j)] = make_fn(seen_carriers[dom_key],
                                     seen_carriers[cod_key], table)
    big_fam = DirectFamily(s.index, fam.direction, carriers, transports)
    spaces = {}
    for i in s.index.elements:
        key = id(fam.carrier(i))
        gens = []
        for g in s.space(i).gens:
            values = dict(g.values)
            values[pads[key]] = Fraction(0)
            gens.append(RFun(carriers[i], values))
        spaces[i] = BSpace(carriers[i], tuple(gens), s.space(i).names)
    big = Spectrum(big_fam, spaces, {
        k: dict(v) for k, v in s.witness_certs.items()}, s.pool)
    comps = {
        i: make_fn(fam.carrier(i), carriers[i],
                   {x: x for x in fam.carrier(i).elements})
        for i in s.index.elements
    }
    conts = {
        i: {k: CGen(k) for k in range(len(s.space(i).gens))}
        for i in s.index.elements
    }
    return big, ContinuousMap(comps, conts)


FLIP = baffine(-1, 1)  # t -> 1 - t


def reflect_spectrum(s):
    """s with each generator g replaced by 1 - g, and the identity onto it,
    certified at each index by `1 - g` over g: a map whose certificates
    are not the generators they prove, so composing two of them composes
    their certificates for real."""
    spaces = {}
    for i in s.index.elements:
        sp = s.space(i)
        spaces[i] = BSpace(sp.carrier, tuple(
            RFun(sp.carrier, {x: 1 - v for x, v in g.values.items()}) for g in sp.gens),
            sp.names)
    comps = {i: identity(s.fam.carrier(i)) for i in s.index.elements}
    conts = {i: {k: CBic(FLIP, CGen(k)) for k in range(len(s.space(i).gens))}
             for i in s.index.elements}
    return make_spectrum(s.fam, spaces, pool=s.pool), ContinuousMap(comps, conts)


def collapse_to_point(s):
    """The constant one-point spectrum and the unique map into it."""
    from bspec.spectra import constant_spectrum

    pt = discrete(["o"])
    tgt = constant_spectrum(s.index, space(pt, [rconst(pt, 0)], ["c"]),
                            s.pool, direction=s.direction)
    comps = {
        i: make_fn(s.fam.carrier(i), pt,
                   {x: "o" for x in s.fam.carrier(i).elements})
        for i in s.index.elements
    }
    conts = {i: {0: CConst(Fraction(0))} for i in s.index.elements}
    return tgt, ContinuousMap(comps, conts)


def product_with(rng, s, aux=None):
    """The product spectrum s x aux together with the first projection."""
    from bspec.spectra import constant_spectrum

    if aux is None:
        carrier = discrete([f"w{k}" for k in range(rng.randint(1, 2))])
        gens = [RFun(carrier, t) for t in _extensional_tables(rng, carrier, 1)]
        aux = constant_spectrum(s.index, space(carrier, gens), s.pool,
                                direction=s.direction)
    # reuse the product over a genuinely shared index: both factors must be
    # spectra over the same order, which constant_spectrum guarantees here
    prod, projections = _diag_product(s, aux)
    comps, conts = {}, {}
    for i in s.index.elements:
        pr1, _ = projections[i]
        comps[i] = pr1
        conts[i] = {k: CGen(k) for k in range(len(s.space(i).gens))}
    return prod, ContinuousMap(comps, conts)


def _diag_product(s, t):
    """Componentwise product of two spectra over the same index."""
    if s.index is not t.index and s.index.elements != t.index.elements:
        raise ValueError("factors must share an index")
    return product_spectrum_over(s, t, s.index, lambda i: (i, i))


def random_map_chain(rng, index=None, direction=COVARIANT):
    """Spectra s, t, u with continuous maps s -> t -> u, valid by shape.

    Backward steps are projections off a product; forward steps are padding
    inclusions or the collapse onto the constant point spectrum; the
    reflections g -> 1 - g go back and forth.
    """
    pattern = rng.choice(["projections", "inclusions", "mixed", "plain", "reflections"])
    if pattern == "projections":
        u = random_spectrum(rng, index, direction)
        t, xi = product_with(rng, u)
        s, psi = product_with(rng, t)
        return s, t, u, psi, xi
    if pattern == "inclusions":
        s = random_spectrum(rng, index, direction)
        t, psi = thicken_spectrum(rng, s)
        u, xi = thicken_spectrum(rng, t)
        return s, t, u, psi, xi
    if pattern == "mixed":
        s = random_spectrum(rng, index, direction)
        t, psi = thicken_spectrum(rng, s)
        u, xi = collapse_to_point(t)
        return s, t, u, psi, xi
    if pattern == "reflections":
        s = random_spectrum(rng, index, direction)
        t, psi = reflect_spectrum(s)
        u, xi = reflect_spectrum(t)
        return s, t, u, psi, xi
    s = random_spectrum(rng, index, direction)
    t, psi = s, identity_continuous(s)
    u, xi = collapse_to_point(t)
    return s, t, u, psi, xi


# --- cones and cocones ----------------------------------------------------------

def random_spectrum_with_cocone(rng, index=None, n_apex=2, max_carrier=3,
                                pool=(0, 1)):
    """A covariant spectrum plus a valid cocone whose legs factor through
    the top index, with apex generators pulled back into the spaces."""
    if index is None:
        index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, max_carrier)
    top = top_element(index)
    apex_carrier = discrete([f"y{k}" for k in range(rng.randint(1, n_apex + 1))])
    apex_gens = [RFun(apex_carrier, t)
                 for t in _extensional_tables(rng, apex_carrier, n_apex)]
    apex = space(apex_carrier, apex_gens,
                 [f"w{k}" for k in range(len(apex_gens))])
    t_table = {}
    for cls in fam.carrier(top).classes():
        val = rng.choice(apex_carrier.elements)
        for x in cls:
            t_table[x] = val
    t_map = make_fn(fam.carrier(top), apex_carrier, t_table)
    base_functions = [compose_rfun(g, t_map) for g in apex_gens]
    extra = [RFun(fam.carrier(top), t)
             for t in _extensional_tables(rng, fam.carrier(top), 1)]
    s = random_spectrum(rng, index, COVARIANT, pool=pool, family=fam,
                        base_functions=base_functions + extra)
    legs = {}
    for i in index.elements:
        h = compose(fam.transport(i, top), t_map)
        certs = {k: CGen(k) for k in range(len(apex_gens))}
        legs[i] = MorphismWitness(h, certs)
    return s, Legs(apex, legs)


def random_spectrum_with_cone(rng, index=None, n_apex=2, max_carrier=3,
                              pool=(0, 1)):
    """A contravariant spectrum plus a valid cone whose legs factor through
    the top index, with all pulled-back generators present in the apex."""
    if index is None:
        index = random_directed_index(rng)
    fam = random_direct_family(rng, index, CONTRAVARIANT, max_carrier)
    s = random_spectrum(rng, index, CONTRAVARIANT, pool=pool, family=fam)
    top = top_element(index)
    apex_carrier = discrete([f"y{k}" for k in range(rng.randint(1, n_apex + 1))])
    t_table = {}
    for cls in apex_carrier.classes():
        val = rng.choice(fam.carrier(top).elements)
        for y in cls:
            t_table[y] = val
    t_map = make_fn(apex_carrier, fam.carrier(top), t_table)
    legs_h = {
        i: compose(t_map, fam.transport(i, top))
        for i in s.index.elements
    }
    apex_gens, positions = [], {}
    for i in s.index.elements:
        for k, f in enumerate(s.space(i).gens):
            g = compose_rfun(f, legs_h[i])
            key = tuple(g.values[y] for y in apex_carrier.elements)
            if key not in positions:
                positions[key] = len(apex_gens)
                apex_gens.append(g)
    extra = [RFun(apex_carrier, t)
             for t in _extensional_tables(rng, apex_carrier, 1)]
    for g in extra:
        key = tuple(g.values[y] for y in apex_carrier.elements)
        if key not in positions:
            positions[key] = len(apex_gens)
            apex_gens.append(g)
    apex = space(apex_carrier, apex_gens,
                 [f"w{k}" for k in range(len(apex_gens))])
    legs = {}
    for i in s.index.elements:
        certs = {}
        for k, f in enumerate(s.space(i).gens):
            g = compose_rfun(f, legs_h[i])
            key = tuple(g.values[y] for y in apex_carrier.elements)
            certs[k] = CGen(positions[key])
        legs[i] = MorphismWitness(legs_h[i], certs)
    return s, Legs(apex, legs)


# --- indices that break the order laws ---------------------------------------

def merged_index(rng):
    """A directed index whose base merges two elements, each <= the other
    after the closure."""
    n = rng.randint(2, 5)
    names = [str(k) for k in range(n)]
    pairs = {(rng.choice(names), rng.choice(names)) for _ in range(n)}
    pairs.update((a, names[-1]) for a in names)
    return make_directed(make_setoid(names, [(names[0], names[1])]), pairs)


def raw_index(rng):
    """Random pairs over a base that may merge elements, closed or left as
    drawn (then often neither reflexive nor transitive).  Sometimes a pair
    names the element z off the base, and no index holds it: building one
    raises UnknownElement."""
    n = rng.randint(1, 5)
    names = [str(k) for k in range(n)]
    merged = [(names[0], names[-1])] if rng.random() < 0.2 else []
    base = make_setoid(names, merged)
    field = names + ["z"] if rng.random() < 0.2 else names
    pairs = {(rng.choice(field), rng.choice(field)) for _ in range(rng.randint(0, 10))}
    if rng.random() < 0.5 and "z" not in field:
        pairs = close_order_scan(base, pairs)
    return index_of_pairs(base, pairs)


def spoil_cofinal(rng, D, C, how):
    """C with a random modulus ("cof", seldom cofinal), a random embedding
    ("embed", seldom injective or monotone), or as it is ("none")."""
    if how == "cof":
        return CofinalSubset(C.members, C.embed, raw_map(rng, D.base, C.members))
    if how == "embed":
        return CofinalSubset(C.members, raw_map(rng, C.members, D.base), C.cof)
    return C


def random_restriction(rng, index):
    """A directed index and a map from it into `index`: a random table,
    seldom monotone, or the constant map to the top, which always is."""
    sub = random_directed_index(rng)
    if rng.random() < 0.3:
        top = top_element(index)
        return sub, make_fn(sub.base, index.base, {a: top for a in sub.elements})
    return sub, raw_map(rng, sub.base, index.base)


# --- cofinal instances ------------------------------------------------------------

def random_chain_with_cofinal(rng, max_len=5):
    """A chain plus a random member subset containing the top, with the
    least-above modulus."""
    n = rng.randint(2, max_len)
    idx = chain(n)
    names = list(idx.elements)
    members = sorted(
        {names[-1]} | {names[k] for k in range(n) if rng.random() < 0.5},
        key=names.index)
    sub = discrete(members)
    embed = make_fn(sub, idx.base, {m: m for m in members})
    cof_table = {}
    for k, name in enumerate(names):
        above = next(m for m in members if names.index(m) >= k)
        cof_table[name] = above
    cof = make_fn(idx.base, sub, cof_table)
    return idx, CofinalSubset(sub, embed, cof)


def random_cofinal_instance(rng, max_len=4):
    """A directed index with a cofinal subset: a chain or a product of two
    chains with the componentwise modulus."""
    if rng.random() < 0.6:
        return random_chain_with_cofinal(rng, max_len)
    from bspec.order import product_cofinal, product_order

    d1, c1 = random_chain_with_cofinal(rng, 3)
    d2, c2 = random_chain_with_cofinal(rng, 3)
    return product_order(d1, d2), product_cofinal(d1, c1, d2, c2)


# --- random certificates ------------------------------------------------------------

def random_certificate(rng, sp, depth=5):
    """A random well-formed derivation over a space's subbase."""
    if depth <= 1 or rng.random() < 0.3:
        if sp.gens and rng.random() < 0.7:
            return CGen(rng.randrange(len(sp.gens)))
        return CConst(random_rational(rng))
    kind = rng.choice(["add", "bic", "eq"])
    if kind == "add":
        return CAdd(random_certificate(rng, sp, depth - 1),
                    random_certificate(rng, sp, depth - 1))
    if kind == "bic":
        phi = rng.choice([
            bneg(BID),
            babs(BID),
            baffine(random_rational(rng, -2, 2), random_rational(rng, -2, 2)),
            badd(BID, bconst(random_rational(rng, -2, 2))),
        ])
        return CBic(phi, random_certificate(rng, sp, depth - 1))
    child = random_certificate(rng, sp, depth - 1)
    from bspec.topology import cert_conclusion

    return ceq(child, cert_conclusion(sp, child))
