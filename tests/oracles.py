"""Exhaustive paths the kernel's fast paths replaced, kept as test oracles.

Each function here is the code a fast path in `bspec` replaced, unchanged
but for its name and docstring; the differential tests check that the fast
path gives the same answer.  The last section holds helpers that nothing in
`bspec` calls any more, kept for the tests that pin their behaviour.
"""

from fractions import Fraction
from itertools import filterfalse, product as iproduct

from bspec.dsl import BLOCK_KINDS, Block, SpecDocument, SyntaxErrorDsl, TypeMismatch
from bspec.duality import DualityError, PoolNotClosed, _gen_items
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    DirectFamily,
    FamilyError,
    MissingTransport,
    NotMonotone,
    _class_inverse,
    _class_maps,
    _validate_direct_family_scan,
    oriented,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    sum_elements,
)
from bspec.limits import (
    InverseLimit,
    Legs,
    LimitError,
    NonUnique,
    _choice_key,
    _choice_key_at,
    _limit_of_choices,
)
from bspec.report import Finding, raise_first
from bspec.order import DirectedIndex, NotDirected, _carrier_bits, _members
from bspec.spectra import Spectrum, SpectrumError, Thread, _composite_findings
from bspec.setoid import (
    Choice,
    DuplicateElement,
    EmptyCarrier,
    NotExtensional,
    Pair,
    SetoidFn,
    Tag,
    compose,
    fn_equal,
    identity,
    is_embedding,
    make_fn,
    check_extensional,
    UnknownElement,
    _first_split,
    _value_ids,
    product_setoid,
    setoid_by_key,
)
from bspec.topology import (
    BID,
    BSpace,
    CAdd,
    CBic,
    CConst,
    CEq,
    CGen,
    CULim,
    CertReport,
    MissingCertificate,
    MorphismWitness,
    RFun,
    RuleMismatch,
    TopologyError,
    ULIM_MAX,
    ValueCodes,
    _interpolant,
    babs,
    baffine,
    bneg,
    cert_scale,
    cert_conclusion,
    certificate_for,
    certify_map,
    check_morphism,
    check_morphism_as,
    compose_rfun,
    compose_witnesses,
    eval_bic,
    exp_eval_certificate,
    exponential_space,
    lift_certificate,
    map_cert,
    product_space,
    rconst,
    validate_certificate,
)


def check_unique_mediator_exhaustive(lim, c, h, bound):
    """Every class-constant map out of a direct limit, against the cocone."""
    classes = lim.carrier.classes()
    size = len(c.apex.carrier.elements) ** len(classes)
    if size > bound:
        return None
    for choice in iproduct(c.apex.carrier.elements, repeat=len(classes)):
        table = {}
        for cls, val in zip(classes, choice):
            for a in cls:
                table[a] = val
        cand = SetoidFn(lim.carrier, c.apex.carrier, table)
        agrees = all(
            c.apex.carrier.eq(cand((i, x)), c.legs[i].h(x))
            for i in lim.spectrum.index.elements
            for x in lim.spectrum.fam.carrier(i).elements
        )
        if agrees and not fn_equal(cand, h):
            raise NonUnique("a second mediator satisfies all triangles")
    return True


def check_unique_cone_mediator_exhaustive(s, lim, c, h, bound):
    """Every class-constant map into an inverse limit, against the cone."""
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


def check_unique_mediator_classwise(lim, c, h, bound):
    """limits._check_unique_mediator before it read class ids: one
    `unique_classwise` decision over the apex values."""
    classes = lim.carrier.classes()
    apex = c.apex.carrier
    if len(apex.elements) ** len(classes) > bound:
        return None
    leg_at = {Tag((i, x)): c.legs[i].h(x)
              for i in lim.spectrum.index.elements
              for x in lim.spectrum.fam.carrier(i).elements}
    if not unique_classwise(
            classes, apex.elements,
            lambda cls, v: all(apex.eq(v, leg_at[a]) for a in cls),
            lambda cls, v: any(not apex.eq(v, h(a)) for a in cls)):
        raise NonUnique("a second mediator satisfies all triangles")
    return True


def check_unique_cone_mediator_classwise(s, lim, c, h, bound):
    """limits._check_unique_cone_mediator before it read class ids: one
    `unique_classwise` decision over the limit's tokens."""
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


def unique_classwise(classes, values, admissible, differs):
    """Decide uniqueness among class-constant maps one class at a time.

    A candidate sends every class to one of `values`.  It satisfies the
    constraint when `admissible(cls, v)` holds for its value v on every
    class, and it differs from the given map when `differs(cls, v)` holds
    on some class.  The satisfying candidates are therefore the product of
    the classes' admissible values: if some class admits no value there is
    no satisfying candidate, and the given map is vacuously unique;
    otherwise a second one exists iff some class admits a value that
    differs.  This is the answer of the |values|^|classes| enumeration,
    from |classes| * |values| calls of `admissible`.
    """
    admitted = [(cls, [v for v in values if admissible(cls, v)])
                for cls in classes]
    if any(not vs for _, vs in admitted):
        return True
    return not any(differs(cls, v) for cls, vs in admitted for v in vs)


def verify_unique_factoring_exhaustive(f, quo, g, bound=1_000_000):
    """Every class-constant map off the quotient carrier, against f."""
    classes = quo.classes()
    size = len(f.cod.elements) ** len(classes)
    if size > bound:
        return None
    for choice in iproduct(f.cod.elements, repeat=len(classes)):
        mapping = {}
        for cls, val in zip(classes, choice):
            for a in cls:
                mapping[a] = val
        cand = SetoidFn(quo, f.cod, mapping)
        agrees = all(f.cod.eq(cand(x), f(x)) for x in quo.elements)
        if agrees and not fn_equal(cand, g):
            return False
    return True


def find_certificate_per_call(sp, target):
    """find_certificate before the blocks and the separating sum were kept
    on the space: both are rebuilt for every target."""
    els = sp.carrier.elements
    codes = ValueCodes()
    goal = codes.key(map(target.values.__getitem__, els))
    if len(set(goal)) <= 1:
        return CConst(target(els[0]) if els else Fraction(0))
    # generator profiles, one per element; with no generator, all are ()
    columns = [codes.key(map(g.values.__getitem__, els)) for g in sp.gens]
    profiles = zip(*columns) if columns else [()] * len(els)
    blocks = {}  # profile -> (first element, its target code), in carrier order
    for x, profile, want in zip(els, profiles, goal):
        if blocks.setdefault(profile, (x, want))[1] != want:
            return None
    firsts = [x for x, _ in blocks.values()]
    h = [Fraction(0)] * len(firsts)
    h_cert = None
    for j, gen in enumerate(sp.gens):
        col = [gen.values[x] for x in firsts]
        wanted = len(set(zip(h, col)))
        if wanted == len(set(h)):
            continue
        c = 1
        while len({t + c * g for t, g in zip(h, col)}) < wanted:
            c += 1
        h = [t + c * g for t, g in zip(h, col)]
        term = CGen(j) if c == 1 else cert_scale(c, CGen(j))
        h_cert = term if h_cert is None else CAdd(h_cert, term)
    phi = _interpolant(sorted(zip(h, map(target.values.__getitem__, firsts))))
    return CBic(phi, h_cert)


def certify_map_per_call(src, dst, h, label, findings, where=(), known=None):
    """certify_map before a space kept its verdicts: each generator of dst
    is pulled back, searched for and validated afresh."""
    certs = dict(known or {})
    ks = list(filterfalse(certs.__contains__, range(len(dst.gens))))
    for k, pulled in zip(ks, [compose_rfun(dst.gens[m], h) for m in ks]):
        certs[k] = certificate_for(src, pulled)
        if certs[k] is None:
            findings.append(Finding(f"{label}-cert", where + (k,)))
            continue
        rep = validate_certificate(src, pulled, certs[k])
        findings.extend(Finding(f"{label}-witness-certificate",
                                where + (dst.names[k],), str(f))
                        for f in rep.findings)
    return MorphismWitness(h, certs)


def check_morphism_per_call(src, dst, w):
    """check_morphism before a space kept its verdicts: each given
    certificate is validated afresh."""
    findings = []
    ok, witness = check_extensional(w.h)
    if not ok:
        findings.append(Finding("map-extensional", witness))
    if not (w.h.dom.same_as(src.carrier) and w.h.cod.same_as(dst.carrier)):
        findings.append(Finding("map-carriers"))
    if findings:
        return findings
    for k, pulled in enumerate([compose_rfun(g, w.h) for g in dst.gens]):
        if k not in w.certs:
            findings.append(Finding("missing-certificate", (dst.names[k],)))
            continue
        rep = validate_certificate(src, pulled, w.certs[k])
        if not rep.ok:
            findings.extend(
                Finding("witness-certificate", (dst.names[k],), str(f))
                for f in rep.findings)
    return findings


def own_legs_search(lim):
    """own_legs before the legs were assembled from the certificates the
    limit holds: each generator pulled back along each leg is searched for
    (`certify_map`)."""
    s = lim.spectrum
    legs = {}
    for i in s.index.elements:
        missing = []
        legs[i] = certify_map(*oriented(s.direction, s.space(i), lim.space), lim.leg(i),
                              "leg", missing)
        raise_first(missing, LimitError, lambda k: f"leg at {i} is not a morphism")
    return Legs(lim.space, legs)


def validate_certificate_walk(sp, f, c):
    """validate_certificate before a generator or constant leaf was decided
    by one table comparison: every derivation is walked."""
    findings = []
    witnessed = False

    def walk(node):
        nonlocal witnessed
        if isinstance(node, CULim):
            witnessed = True
            ns = [n for n, _ in node.witnesses]
            if not ns:
                findings.append(Finding("ulim-empty"))
                return
            if len(ns) > ULIM_MAX:
                findings.append(Finding("ulim-depth", (len(ns),)))
            for expected, n in enumerate(ns, start=1):
                if n != expected:
                    findings.append(Finding("witness-gap", (expected,)))
                    return
            limit, carrier = dict(node.table), sp.carrier
            # the first element the claimed limit misses or values apart
            # from the first element equal to it
            bad = next((x for x in carrier.elements if x not in limit
                        or Fraction(limit[x])
                        != Fraction(limit[carrier.class_repr(x)])), None)
            if bad is not None:
                findings.append(Finding("ulim-table", (bad,)))
                return
            for n, sub in node.witnesses:
                walk(sub)
                try:
                    g = cert_conclusion(sp, sub)
                except (TopologyError, NotExtensional) as exc:
                    findings.append(Finding("subderivation", (n,), str(exc)))
                    return
                tol = Fraction(1, 2 ** n)
                for x in sp.carrier.elements:
                    if abs(Fraction(limit[x]) - g(x)) > tol:
                        findings.append(Finding("ulim-witness", (n, x)))
                        return
        elif isinstance(node, CAdd):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (CBic, CEq)):
            walk(node.child)
        elif not isinstance(node, (CGen, CConst)):
            findings.append(Finding("rule-mismatch", (repr(node),)))

    walk(c)
    if findings:
        return CertReport(False, witnessed, findings)
    try:
        conclusion = cert_conclusion(sp, c)
    except TopologyError as exc:
        return CertReport(False, witnessed, [Finding("conclusion", (), str(exc))])
    if conclusion.values == f.values:
        return CertReport(True, witnessed, [])
    for x in sp.carrier.elements:
        if conclusion(x) != f(x):
            return CertReport(
                False, witnessed,
                [Finding("value-mismatch", (x, str(f(x)), str(conclusion(x))))])
    return CertReport(True, witnessed, [])


def find_certificate_exhaustive(sp, target, depth=4, cap=2000):
    """The bounded table search find_certificate's construction replaced,
    without its refutation and early stop: rounds of generator, constant,
    sum, negation, absolute value and affine nodes until the target's table,
    the depth or the table budget is reached.  It can miss members (it
    never tries max or min); every certificate it finds, the construction
    finds too."""
    order = sp.carrier.elements

    def key(values):
        return tuple(values[x] for x in order)

    target_key = key(target.values)
    found = {}

    def consider(k, cert):
        if k in found:
            return False
        found[k] = cert
        return True

    vals = set(target.values.values()) | {Fraction(0), Fraction(1)}
    for q in sorted(vals):
        consider(tuple(Fraction(q) for _ in order), CConst(Fraction(q)))
    for k, g in enumerate(sp.gens):
        consider(key(g.values), CGen(k))

    def affine_hit(tbl, cert):
        # Solve target = a*t + b against a known table.
        distinct = {}
        for x in order:
            distinct.setdefault(tbl[x], target(x))
        if len(distinct) < 2:
            return None
        (t1, f1), (t2, f2) = list(distinct.items())[:2]
        a = (f1 - f2) / (t1 - t2)
        b = f1 - a * t1
        if all(a * tbl[x] + b == target(x) for x in order):
            return CBic(baffine(a, b), cert)
        return None

    for _ in range(depth):
        if target_key in found:
            break
        items = list(found.items())
        if len(found) > cap:
            break
        for tbl, cert in items:
            table = dict(zip(order, tbl))
            hit = affine_hit(table, cert)
            if hit is not None:
                new = {x: eval_bic(hit.phi, table[x]) for x in order}
                consider(key(new), hit)
            for phi in (bneg(BID), babs(BID)):
                new = {x: eval_bic(phi, table[x]) for x in order}
                consider(key(new), CBic(phi, cert))
        for t1, c1 in items:
            for t2, c2 in items:
                summed = tuple(a + b for a, b in zip(t1, t2))
                consider(summed, CAdd(c1, c2))
                if len(found) > cap:
                    break
            if len(found) > cap:
                break
    if target_key in found:
        cert = found[target_key]
        if validate_certificate(sp, target, cert).ok:
            return cert
    return None


def equivalence_findings_scan(fams):
    """The runner's equivalence check over every pair and triple of tagged
    elements: the (laws, top-vs-search) findings over the given families."""
    bad_eq, bad_oracle = [], []
    for fam in fams:
        tagged = sum_elements(fam)
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
    return bad_eq, bad_oracle


def outcome(fn, *args):
    """The value of a call, or the type and message of what it raised, so
    a fast path and its oracle can be compared on inputs where both raise."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared by the caller, never hidden
        return type(exc), str(exc)


def saturate_rescan(index, carriers, given, direction=COVARIANT):
    """families._saturate before its known transports were kept as bit
    rows: every unknown pair rescans all known transports for its middle
    indices, and composes through the first of them in carrier order."""
    pairs = index.order_pairs()
    pairset = set(pairs)
    known = {}
    for i, j in pairs:
        if i == j:
            known[(i, j)] = identity(carriers[i])
    for (i, j), fn in given.items():
        if (i, j) not in pairset:
            raise MissingTransport(f"edge ({i}, {j}) is not an order pair")
        known[(i, j)] = fn
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            if (i, j) in known:
                continue
            mids = {k for (a, k) in known if a == i} & {
                k for (k, b) in known if b == j
            }
            for k in index.elements:
                if k in mids:
                    known[(i, j)] = compose(*oriented(direction, known[(i, k)],
                                                      known[(k, j)]))
                    changed = True
                    break
            if (i, j) in known:
                continue
            if (j, i) in known and (j, i) in pairset:
                inv = _class_inverse(known[(j, i)])
                if inv is not None:
                    known[(i, j)] = inv
                    changed = True
    missing = [p for p in pairs if p not in known]
    if missing:
        raise MissingTransport(f"no transport derivable for {missing[:3]}")
    return known


def index_of_pairs(base, pairs):
    """The DirectedIndex whose order pairs are `pairs`, taken as they are:
    not closed, so it may be spoiled.  Bits are set as the index read them
    off its pair set before the rows were the index: row(i), at the first
    position of i, gets a bit at every position of j for each (i, j).  A
    pair naming an element off the base raises UnknownElement."""
    position, bits = _carrier_bits(base.elements)
    rows = [0] * len(base.elements)
    for i, j in pairs:
        for x in (i, j):
            if x not in position:
                raise UnknownElement(f"{x!r} not in index")
        rows[position[i]] |= bits[j]
    return DirectedIndex(base, rows)


def close_order_scan(base, pairs):
    """make_directed's closure before it became reachability between
    classes: rescan the pairs until nothing is added.  A pair naming an
    element off a nonempty base is refused first, naming that element."""
    for x in (x for pair in pairs for x in pair):
        if base.elements and not base.has(x):
            raise UnknownElement(f"{x!r} not in carrier")
    rel = set(pairs)
    rel.update((i, i) for i in base.elements)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k in base.elements:
                if (j, k) in rel and (i, k) not in rel:
                    rel.add((i, k))
                    changed = True
        for i, j in list(rel):
            for i2 in base.elements:
                for j2 in base.elements:
                    if base.eq(i, i2) and base.eq(j, j2) and (i2, j2) not in rel:
                        rel.add((i2, j2))
                        changed = True
    return frozenset(rel)


def first_upper_bounds_scan(elements, pairs):
    """`DirectedIndex.up` over every pair, or make_directed's refusal, by
    scanning every candidate k for every pair (i, j)."""
    upper = {}
    for i in elements:
        for j in elements:
            k = next(
                (k for k in elements if (i, k) in pairs and (j, k) in pairs),
                None,
            )
            if k is None:
                raise NotDirected(f"no upper bound for ({i}, {j})")
            upper[(i, j)] = k
    return upper


def fold_top(elements, upper):
    """`DirectedIndex.top` as it was found before it read the AND of the
    rows: an upper-bound table folded over the carrier."""
    t = elements[0]
    for x in elements[1:]:
        t = upper[(t, x)]
    return t


def leq_extensional_scan(D):
    """validate_directed's leq-extensional findings over every quadruple of
    elements."""
    findings = []
    els = D.elements
    for i in els:
        for j in els:
            for i2 in els:
                for j2 in els:
                    if (
                        D.base.eq(i, i2)
                        and D.base.eq(j, j2)
                        and D.leq(i, j)
                        and not D.leq(i2, j2)
                    ):
                        findings.append(Finding("leq-extensional", (i, j, i2, j2)))
    return findings



def leq_transitive_scan(D):
    """validate_directed's leq-transitive findings over every order pair and
    every element."""
    findings = []
    els = D.elements
    for i, j in D.order_pairs():
        for k in els:
            if D.leq(j, k) and not D.leq(i, k):
                findings.append(Finding("leq-transitive", (i, j, k)))
    return findings


def hasse_covers(D):
    """DirectedIndex.covers by brute force: j covers i when i < j and no m
    has i < m < j.  None unless the pairs are a partial order on the
    base's elements, each named once."""
    els, rel = D.elements, set(D.order_pairs())
    if len(set(els)) != len(els):
        return None
    if any((i, i) not in rel for i in els):
        return None
    if any(i != k and (k, i) in rel for i, k in rel):
        return None
    if any((i, k) not in rel for i, j in rel for j2, k in rel if j == j2):
        return None

    def below(a, b):
        return a != b and (a, b) in rel

    return {i: tuple(j for j in els if below(i, j)
                     and not any(below(i, m) and below(m, j) for m in els))
            for i in els}


def direct_family_laws_hold_triples(F):
    """families._direct_family_laws_hold before it read covers: every
    chain a -> b -> c of transports is compared."""
    els = F.index.elements
    maps = _class_maps(F, set(F.index.order_pairs()) | {(i, i) for i in els})
    if maps is None:
        return False
    for i in els:
        if maps[(i, i)] != tuple(range(F.carriers[i].class_count())):
            return False
    out_of = {}
    for (b, c), bc in maps.items():
        out_of.setdefault(b, []).append((c, bc))
    for (a, b), ab in maps.items():
        for c, bc in out_of[b]:
            if maps.get((a, c)) != tuple(bc[x] for x in ab):
                return False
    return True


def validate_directed_scan(D):
    """order.validate_directed before it read bit rows, through `leq`
    alone: every order pair is scanned for transitivity, in
    `order_pairs()` order."""
    findings = []
    els = D.elements
    for i in els:
        if not D.leq(i, i):
            findings.append(Finding("leq-reflexive", (i,)))
    findings += leq_transitive_scan(D)
    equal = {i: [i2 for i2 in els if D.base.eq(i, i2)] for i in els}
    for i in els:
        for j in els:
            if D.leq(i, j):
                findings.extend(Finding("leq-extensional", (i, j, i2, j2))
                                for i2 in equal[i] for j2 in equal[j]
                                if not D.leq(i2, j2))
    for i in els:
        for j in els:
            if not any(D.leq(i, k) and D.leq(j, k) for k in els):
                findings.append(Finding("upper-missing", (i, j)))
    return findings


def _subset_leq(D, C, j, j2):
    return D.leq(C.embed(j), C.embed(j2))


def validate_cofinal_scan(D, C):
    """order.validate_cofinal before it read bit rows: every order law goes
    through `leq`, pair by pair."""
    findings = []
    ok, witness = check_extensional(C.embed)
    if not ok:
        findings.append(Finding("embed-extensional", witness))
    ok, witness = is_embedding(C.embed)
    if not ok:
        findings.append(Finding("embed-injective", witness))
    ok, witness = check_extensional(C.cof)
    if not ok:
        findings.append(Finding("cof-extensional", witness))
    for j in C.members.elements:
        if not C.members.eq(C.cof(C.embed(j)), j):
            findings.append(Finding("cof1", (j,)))
    for i in D.elements:
        for i2 in D.elements:
            if D.leq(i, i2) and not _subset_leq(D, C, C.cof(i), C.cof(i2)):
                findings.append(Finding("cof2", (i, i2)))
    for i in D.elements:
        if not D.leq(i, C.embed(C.cof(i))):
            findings.append(Finding("cof3", (i,)))
    # The induced order on the subset stays directed: upper bounds are
    # exhibited through the modulus itself.
    for j in C.members.elements:
        for j2 in C.members.elements:
            k = C.cof(D.up(C.embed(j), C.embed(j2)))
            if not (_subset_leq(D, C, j, k) and _subset_leq(D, C, j2, k)):
                findings.append(Finding("subset-directed", (j, j2)))
    return findings


def induced_order_scan(D, C):
    """order.induced_order before it read bit rows: each pair of members
    is compared through `leq`."""
    J = C.members
    pairs = frozenset(
        (j, j2)
        for j in J.elements
        for j2 in J.elements
        if _subset_leq(D, C, j, j2)
    )
    return index_of_pairs(J, pairs)


def induced_upper_scan(D, C):
    """The upper bounds order.induced_order tabulated before it read them
    off its rows: each pair's bound in D, sent back through the modulus."""
    return {
        (j, j2): C.cof(D.up(C.embed(j), C.embed(j2)))
        for j in C.members.elements
        for j2 in C.members.elements
    }


def check_monotone_scan(sub_index, index, h):
    """families.restrict_family's monotonicity check before it read bit
    rows: every pair of sub_index through `leq`; NotMonotone names the
    first pair whose images are unordered."""
    for a in sub_index.elements:
        for b in sub_index.elements:
            if sub_index.leq(a, b) and not index.leq(h(a), h(b)):
                raise NotMonotone(f"({a}, {b}) maps to an unordered pair")


def validate_spectrum_scan(s):
    """spectra.validate_spectrum before its composite witnesses were built
    through covers, with the family findings of the family scan: every
    triple i <= j <= k with i != j and j != k is composed."""
    findings = _validate_direct_family_scan(s.fam)
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


def composites_through_covers_hold(s):
    """spectra._cover_composites_hold before it built only the composites
    of two covers on a spectrum that lifts from its covers: on a partial
    order, the composite through each cover j of every i, with every
    k >= j, k != j, read off the index's row at j.  False on any other
    index."""
    covers, (position, rows) = s.index.covers, s.index._order
    if covers is None:
        return False
    els = s.index.elements
    return not any(_composite_findings(s, i, j, k)
                   for i in els for j in covers[i]
                   for k in _members(els, rows[position[j]]) if k != j)


def validate_legs_scan(s, c):
    """limits.validate_legs before it read covers: every triangle of every
    order pair i < j checked."""
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


def complete_witnesses_scan(fam, spaces, given):
    """The lifting phase of spectra.complete_witnesses before it read above-
    and below-lists: every missing edge rescans the index for its first
    middle element, with two `leq` calls each.  A certificate naming a
    generator the lower edge does not certify is not lifted, as there.
    Returns a new table."""
    certs = {e: dict(c) for e, c in given.items()}
    index = fam.index
    pairs = [p for p in fam.order_pairs() if p[0] != p[1]]
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            if (i, j) in certs:
                continue
            for k in index.elements:
                if k in (i, j):
                    continue
                if not (index.leq(i, k) and index.leq(k, j)):
                    continue
                if (i, k) not in certs or (k, j) not in certs:
                    continue
                if fam.direction == COVARIANT:
                    w_low = MorphismWitness(fam.transport(i, k), dict(certs[(i, k)]))
                    lower = spaces[i]
                    upper_certs = certs[(k, j)]
                else:
                    w_low = MorphismWitness(fam.transport(k, j), dict(certs[(k, j)]))
                    lower = spaces[j]
                    upper_certs = certs[(i, k)]
                certs[(i, j)] = {}
                for m, c in upper_certs.items():
                    try:
                        certs[(i, j)][m] = lift_certificate(lower, w_low, c)
                    except MissingCertificate:
                        pass
                changed = True
                break
    return certs


def autofill_witnesses(fam, spaces, given=None):
    """The construction phase of spectra.complete_witnesses before it
    skipped complete edges: certify_map runs on every edge, keeping the
    certificates given."""
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


def product_order_scan(D1, D2):
    """order.product_order before it read the factors' pair sets, then
    their rows: every quadruple of elements through `leq`."""
    base = product_setoid(D1.base, D2.base)
    pairs = frozenset(
        (Pair((i, j)), Pair((i2, j2)))
        for i in D1.elements
        for j in D2.elements
        for i2 in D1.elements
        for j2 in D2.elements
        if D1.leq(i, i2) and D2.leq(j, j2)
    )
    return index_of_pairs(base, pairs)


def product_upper_scan(D1, D2):
    """The product order's first upper bounds as the pairs of the factors'
    scanned ones: ((i, j), (i2, j2)) -> (up1(i, i2), up2(j, j2))."""
    up1 = first_upper_bounds_scan(D1.elements, set(D1.order_pairs()))
    up2 = first_upper_bounds_scan(D2.elements, set(D2.order_pairs()))
    return {(Pair((i, j)), Pair((i2, j2))): Pair((up1[(i, i2)], up2[(j, j2)]))
            for i in D1.elements for j in D2.elements
            for i2 in D1.elements for j2 in D2.elements}


def read_in_full(s):
    """A spectrum's transports, then its edge certificates, each read
    through its accessor in `order_pairs()` order: the tables a builder
    that made every pair up front held, in the order it made them, or the
    first error such a builder raised."""
    pairs = s.fam.order_pairs()
    transports = {p: s.fam.transport(*p) for p in pairs}
    certs = {(i, j): s.edge_witness(i, j).certs for i, j in pairs if i != j}
    return transports, certs


def product_spectrum_eager(s, t, index, parts):
    """spectra.product_spectrum_over before it read the factors' tables: a
    product space per index element, each transport's Pairs made anew, and
    every pair's certificates renamed from the factors' without lifting, so
    a claimed eq or ulim table stays keyed on the factor's carrier."""
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

    def reindex(c, positions):
        return map_cert(c, lambda k: CGen(positions[k]), lambda table: table)

    certs = {}
    for a, b in index.order_pairs():
        if a == b:
            continue
        (i, j), (i2, j2) = parts(a), parts(b)
        edge_s = s.edge_witness(i, i2).certs if i != i2 else None
        edge_t = t.edge_witness(j, j2).certs if j != j2 else None
        (s_src, t_src), (s_tgt, t_tgt) = oriented(s.direction, (i, j), (i2, j2))
        s_src_n, s_tgt_n = len(s.space(s_src).gens), len(s.space(s_tgt).gens)
        first_map = {m: m for m in range(s_src_n)}
        second_map = {m: s_src_n + m for m in range(len(t.space(t_src).gens))}
        table = {}
        for k in range(s_tgt_n):
            base = CGen(k) if edge_s is None else edge_s[k]
            table[k] = reindex(base, first_map)
        for k in range(len(t.space(t_tgt).gens)):
            base = CGen(k) if edge_t is None else edge_t[k]
            table[s_tgt_n + k] = reindex(base, second_map)
        certs[(a, b)] = table
    pool = tuple(sorted(set(s.pool) | set(t.pool)))
    return Spectrum(fam, spaces, certs, pool), projections


# The two walks of the certificate tree that topology.map_cert replaced.  A
# claimed table is pulled back where it claims a value: a key whose image it
# does not claim is left out.

def lift_certificate_walk(src, w, c, h=None):
    """Transport a derivation along a morphism witness.

    If c proves g over the target subbase, the lift proves g . h over the
    source subbase, replacing generator leaves by the witness certificates
    and carrying every other rule through unchanged.
    """
    if h is None:
        h = w.h
    if isinstance(c, CGen):
        if c.k not in w.certs:
            raise MissingCertificate(f"no certificate for generator {c.k}")
        return w.certs[c.k]
    if isinstance(c, CConst):
        return c
    if isinstance(c, CAdd):
        return CAdd(lift_certificate_walk(src, w, c.left, h),
                    lift_certificate_walk(src, w, c.right, h))
    if isinstance(c, CBic):
        return CBic(c.phi, lift_certificate_walk(src, w, c.child, h))
    if isinstance(c, CEq):
        claimed = dict(c.table)
        pulled = tuple(sorted((x, claimed[h(x)]) for x in h.dom.elements
                              if h(x) in claimed))
        return CEq(lift_certificate_walk(src, w, c.child, h), pulled)
    if isinstance(c, CULim):
        claimed = dict(c.table)
        pulled = tuple(sorted((x, claimed[h(x)]) for x in h.dom.elements
                              if h(x) in claimed))
        return CULim(pulled, tuple(
            (n, lift_certificate_walk(src, w, sub, h)) for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")


def exp_eval_certificate_walk(c, x, exp, by_name=None):
    """Turn a derivation of t over a subbase into a derivation, over the
    evaluation subbase, of the function sending a map h to t(h(x)).

    Generator leaves become evaluation generators at x; every other rule is
    carried through, with claimed tables re-keyed by evaluating each map.
    """
    if by_name is None:
        by_name = exp.by_name
    if isinstance(c, CGen):
        return CGen(exp.positions[(x, c.k)])
    if isinstance(c, CConst):
        return c
    if isinstance(c, CAdd):
        return CAdd(exp_eval_certificate_walk(c.left, x, exp, by_name),
                    exp_eval_certificate_walk(c.right, x, exp, by_name))
    if isinstance(c, CBic):
        return CBic(c.phi, exp_eval_certificate_walk(c.child, x, exp, by_name))
    if isinstance(c, CEq):
        claimed = dict(c.table)
        re_keyed = tuple(sorted(
            (name, claimed[by_name[name](x)]) for name in exp.carrier.elements
            if by_name[name](x) in claimed))
        return CEq(exp_eval_certificate_walk(c.child, x, exp, by_name), re_keyed)
    if isinstance(c, CULim):
        claimed = dict(c.table)
        re_keyed = tuple(sorted(
            (name, claimed[by_name[name](x)]) for name in exp.carrier.elements
            if by_name[name](x) in claimed))
        return CULim(re_keyed, tuple(
            (n, exp_eval_certificate_walk(sub, x, exp, by_name))
            for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")


def token_of_scan(lim, assignment):
    """InverseLimit.token_of before it was indexed by component classes:
    the first choice, in carrier order, matching the assignment."""
    fam = lim.spectrum.fam
    for tok, a in lim.assignments.items():
        if all(fam.carrier(i).eq(a[i], assignment[i]) for i in a):
            return tok
    return None


def find_scan(pool, fn):
    """MorCarrier.find before it was indexed by value classes: the first
    pool token, in carrier order, pointwise equal to the map."""
    for name in pool.carrier.elements:
        m = pool.by_name[name]
        if all(m.cod.eq(m(x), fn(x)) for x in m.dom.elements):
            return name
    return None


class BacktrackingBoundExceeded(Exception):
    """The backtracking oracle tried more candidates than its cap."""


def enumerate_threads_backtracking(s, cap=10_000):
    """spectra.enumerate_threads before threads were read off the top
    component: all compatible choices whose components are generators or
    constants from the declared pool, by backtracking along a linear
    extension.

    Every order pair that `validate_thread` checks is checked here: the
    reflexive pair (i, i) when a candidate at i is listed, every other
    pair when the later of its two indices is assigned.  So the threads
    returned pass `validate_thread`.  The search is exponential in the
    index, so `cap` bounds the candidates it tries.
    """
    els = list(s.index.elements)
    els.sort(key=lambda i: sum(1 for j in els if s.index.leq(j, i)))
    candidates = {}
    for i in els:
        sp = s.space(i)
        cands = []
        seen = set()
        for k, g in enumerate(sp.gens):
            key = tuple(g.values[x] for x in sp.carrier.elements)
            if key not in seen:
                seen.add(key)
                cands.append((g, CGen(k)))
        for q in s.pool:
            key = tuple(Fraction(q) for _ in sp.carrier.elements)
            if key not in seen:
                seen.add(key)
                cands.append((rconst(sp.carrier, q), CConst(Fraction(q))))
        if s.index.leq(i, i):
            cands = [(f, c) for f, c in cands
                     if s.induced_map(i, i, f).values == f.values]
        candidates[i] = cands

    out = []
    visited = 0

    def compatible(assigned, i, f):
        for j, g in assigned.items():
            if s.index.leq(j, i):
                if s.direction == COVARIANT:
                    if s.induced_map(j, i, f).values != g.values:
                        return False
                else:
                    if s.induced_map(j, i, g).values != f.values:
                        return False
            if s.index.leq(i, j):
                if s.direction == COVARIANT:
                    if s.induced_map(i, j, g).values != f.values:
                        return False
                else:
                    if s.induced_map(i, j, f).values != g.values:
                        return False
        return True

    def extend(pos, assigned, certs):
        nonlocal visited
        if pos == len(els):
            out.append(Thread(dict(assigned), dict(certs)))
            return
        i = els[pos]
        for f, c in candidates[i]:
            visited += 1
            if visited > cap:
                raise BacktrackingBoundExceeded(
                    f"backtracking tried more than {cap} candidates")
            if compatible(assigned, i, f):
                assigned[i] = f
                certs[i] = c
                extend(pos + 1, assigned, certs)
                del assigned[i]
                del certs[i]

    extend(0, {}, {})
    # Dedupe pointwise-equal threads.
    seen, unique = set(), []
    for t in out:
        key = tuple(
            tuple(t.at(i).values[x] for x in s.fam.carrier(i).elements)
            for i in els)
        if key not in seen:
            seen.add(key)
            unique.append(t)
    return unique


class EnumerationBoundExceeded(FamilyError):
    pass


def validate_dependent(F, assignment, flavor):
    """Check an index-wide choice of elements against the transports."""
    findings = []
    if isinstance(F, DirectFamily):
        if flavor == "plain":
            findings.append(Finding("flavor-mismatch", (),
                                    "plain flavor on a direct family"))
            return findings
        if (flavor == COVARIANT) != (F.direction == COVARIANT):
            findings.append(Finding("flavor-mismatch", (),
                                    f"family is {F.direction}"))
            return findings
    elif flavor != "plain":
        findings.append(Finding("flavor-mismatch", (),
                                "ordered flavor on a plain family"))
        return findings
    for i in F.index.elements:
        if i not in assignment:
            findings.append(Finding("assignment-partial", (i,)))
            return findings
    if flavor == "plain":
        for i, j in F.diagonal_pairs():
            if not F.carrier(j).eq(assignment[j], F.transport(i, j)(assignment[i])):
                findings.append(Finding("dependent-compat", (i, j)))
        return findings
    for i, j in F.order_pairs():
        if flavor == COVARIANT:
            if not F.carrier(j).eq(assignment[j], F.transport(i, j)(assignment[i])):
                findings.append(Finding("dependent-compat", (i, j)))
        else:
            if not F.carrier(i).eq(assignment[i], F.transport(i, j)(assignment[j])):
                findings.append(Finding("dependent-compat", (i, j)))
    return findings


def enumerate_compatible(F, flavor, bound=1_000_000):
    """All valid index-wide choices, as dicts, by pruned backtracking.

    The bound caps the search nodes visited (candidate values tried), not
    the product of carrier sizes; the search assigns determining indices
    first, so forced components are filled without branching.
    """
    els = list(F.index.elements)
    if isinstance(F, DirectFamily):
        below = {i: sum(1 for j in els if F.index.leq(j, i)) for i in els}
        # covariant choices are determined from below, contravariant from above
        els.sort(key=lambda i: below[i],
                 reverse=(flavor == CONTRAVARIANT))

    def ok(assigned, i, x):
        for j, y in assigned.items():
            if flavor == "plain":
                if F.index.eq(i, j):
                    if not F.carrier(j).eq(y, F.transport(i, j)(x)):
                        return False
                continue
            if F.index.leq(j, i):
                if flavor == COVARIANT:
                    if not F.carrier(i).eq(x, F.transport(j, i)(y)):
                        return False
                else:
                    if not F.carrier(j).eq(y, F.transport(j, i)(x)):
                        return False
            if F.index.leq(i, j):
                if flavor == COVARIANT:
                    if not F.carrier(j).eq(y, F.transport(i, j)(x)):
                        return False
                else:
                    if not F.carrier(i).eq(x, F.transport(i, j)(y)):
                        return False
        return True

    out = []
    visited = 0

    def extend(pos, assigned):
        nonlocal visited
        if pos == len(els):
            out.append({i: assigned[i] for i in F.index.elements})
            return
        i = els[pos]
        for x in F.carrier(i).elements:
            visited += 1
            if visited > bound:
                raise EnumerationBoundExceeded(
                    f"enumerate_compatible visited more than bound={bound} "
                    "search nodes")
            if ok(assigned, i, x):
                assigned[i] = x
                extend(pos + 1, assigned)
                del assigned[i]

    extend(0, {})
    return out


def limit_of_choices_by_token(s, choices):
    """limits._limit_of_choices before it read each index's column once:
    each generator's table is keyed by every choice token, also for a
    generator whose values are not new."""
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
    codes, seen = ValueCodes(), set()
    for i in els:
        sp = s.space(i)
        for k, f in enumerate(sp.gens):
            values = {tok: f(assignments[tok][i]) for tok in tokens}
            key = codes.key(values.values())
            if key in seen:
                continue
            seen.add(key)
            gens.append(RFun(carrier, values))
            names.append(f"proj[{i},{sp.names[k]}]")
            sources.append((i, k))
    return InverseLimit(s, carrier, assignments,
                        BSpace(carrier, tuple(gens), tuple(names)), sources, by_key)


def inverse_limit_backtracking(s, bound=1_000_000):
    """inverse_limit over every compatible choice the backtracking search
    lists, in its order: all combinations of class members.  The search
    never tests a reflexive pair, so its choices are filtered by the full
    compatibility check."""
    fam = s.fam
    return _limit_of_choices(s, [
        a for a in enumerate_compatible(fam, CONTRAVARIANT, bound)
        if not validate_dependent(fam, a, CONTRAVARIANT)])


# --- the four-shape morphism-space builder ----------------------------------

SHAPES = ("A_i", "A_ii", "B_i", "B_ii")


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


def induce_spectrum_by_shape(s, fixed, shape, pools):
    """duality.induce_spectrum as it was when it took one of four shape
    names: the morphism-space spectrum of the given shape over s's index.

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
            edge = s.edge_witness(i, j).certs
            certs[(i, j)] = {pos: exp_eval_certificate(edge[k], x, src)
                             for (x, k), pos in _gen_items(tgt)}
    return certs


# --- the front end before it read each line once ----------------------------

class ScannedStmt:
    """A statement as `parse_line_scan` records it: its column is worked
    out when the line is read."""

    __slots__ = ("key", "args", "value", "line", "col")

    def __init__(self, key, args, value, line, col):
        self.key = key
        self.args = args
        self.value = value
        self.line = line
        self.col = col


def parse_line_scan(text):
    """dsl.parse before it read each line once: every line's comment is
    cut off and the line stripped, and a statement line is split at its
    first `:` and its words stripped again."""
    doc = SpecDocument()
    current = None  # (kind, name, line) of the open block
    stmts = []  # the open block's statements
    seen = set()  # (kind, name) of every block header read so far
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if current is None:
            parts = stripped.split()
            if len(parts) != 3 or parts[2] != "{":
                raise SyntaxErrorDsl(
                    f"expected 'kind name {{', got {stripped!r}", n,
                    len(line) - len(stripped) + 1)
            kind, name = parts[0], parts[1]
            if kind not in BLOCK_KINDS:
                raise SyntaxErrorDsl(
                    f"unknown block kind {kind!r}; expected one of "
                    + ", ".join(BLOCK_KINDS), n, 1)
            if (kind, name) in seen:
                raise SyntaxErrorDsl(f"duplicate block {kind} {name}", n, 1)
            seen.add((kind, name))
            current, stmts = (kind, name, n), []
            continue
        if stripped == "}":
            kind, name, start = current
            doc.blocks.append(Block(kind, name, stmts, start))
            current = None
            continue
        if ":" not in stripped:
            raise SyntaxErrorDsl(f"expected 'key: value', got {stripped!r}",
                                 n, len(line) - len(stripped) + 1)
        head, value = stripped.split(":", 1)
        words = head.split()
        if not words:
            raise SyntaxErrorDsl("empty statement key", n, 1)
        stmts.append(
            ScannedStmt(words[0], tuple(words[1:]), value.strip(), n,
                        len(line) - len(stripped) + 1))
    if current is not None:
        kind, name, start = current
        raise SyntaxErrorDsl(f"unterminated block {name!r}", start)
    return doc


def parse_pairs_split(value, sep, stmt):
    """dsl.parse_pairs before it partitioned each part: the part is
    stripped, split at the separator and both sides stripped."""
    out = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if sep not in part:
            raise TypeMismatch(f"expected 'a {sep} b' in {part!r}", stmt.line,
                               stmt.col)
        a, b = part.split(sep, 1)
        out.append((a.strip(), b.strip()))
    return out


def _tokenize_sexpr(text):
    tokens = []
    word = ""
    text = text.replace("=>", " => ")
    for ch in text:
        if ch in "()":
            if word:
                tokens.append(word)
                word = ""
            tokens.append(ch)
        elif ch.isspace() or ch == ",":
            if word:
                tokens.append(word)
                word = ""
        else:
            word += ch
    if word:
        tokens.append(word)
    return tokens


def _read_sexpr(tokens, pos, line):
    if pos >= len(tokens):
        raise SyntaxErrorDsl("unexpected end of expression", line)
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read_sexpr(tokens, pos, line)
            out.append(node)
        if pos >= len(tokens):
            raise SyntaxErrorDsl("missing closing parenthesis", line)
        return out, pos + 1
    if tok == ")":
        raise SyntaxErrorDsl("unexpected closing parenthesis", line)
    return tok, pos + 1


def parse_sexpr_recursive(text, line):
    """dsl.parse_sexpr before it read the tokens in one loop: a character
    tokenizer and a reader that recurses once per list.  It sets no depth
    bound, so it fails with RecursionError where the loop refuses."""
    tokens = _tokenize_sexpr(text)
    node, pos = _read_sexpr(tokens, 0, line)
    if pos != len(tokens):
        raise SyntaxErrorDsl("trailing tokens after expression", line)
    return node


# --- carriers before the builder fixed their shape ----------------------------

def classes_by_labels(S):
    """setoid.Setoid._classes before a discrete carrier's classes were its
    elements: one labelling pass over the carrier, each element appended to
    its class."""
    out, ids = [], S.class_id
    for x in S.elements:
        n = ids[x]
        if n == len(out):
            out.append([x])
        else:
            out[n].append(x)
    return tuple(map(tuple, out))


def is_embedding_by_fibres(f):
    """setoid.is_embedding before values in distinct classes decided it:
    the fibre of every value class is built and read for a split."""
    fibres = {}
    for x, c in _value_ids(f).items():
        fibres.setdefault(c, []).append(x)
    bad = _first_split(fibres.values(), f.dom.class_id)
    return (True, None) if bad is None else (False, bad)


def class_map_by_classes(fn):
    """families._class_map before a discrete domain read its values
    directly: every class of the domain is walked."""
    cod_id, value = fn.cod.class_id, fn.mapping
    out = []
    for cls in classes_by_labels(fn.dom):
        c = cod_id[value[cls[0]]]
        for x in cls[1:]:
            if cod_id[value[x]] != c:
                return None
        out.append(c)
    return tuple(out)


def rfun_by_classes(carrier, values):
    """topology.RFun before a discrete carrier skipped its class loop: the
    table, or the refusal of a value missing or separating equal
    elements."""
    vals = {}
    for x in carrier.elements:
        if x not in values:
            raise TopologyError(f"function not total, missing {x!r}")
        v = values[x]
        vals[x] = v if type(v) is Fraction else Fraction(v)
    for cls in classes_by_labels(carrier):
        v = vals[cls[0]]
        for x in cls[1:]:
            if vals[x] is not v and vals[x] != v:
                raise NotExtensional(
                    f"function separates equal elements {cls[0]!r}, {x!r}")
    return vals


def make_setoid_union_find(elements, eq_pairs=(), empty=False):
    """setoid.make_setoid before a carrier with no equal pairs was labelled
    by position: every carrier is closed by union-find and keyed on the
    roots."""
    elements = tuple(elements)
    if not elements and not empty:
        raise EmptyCarrier("carrier is empty; pass empty=True if intended")
    if len(set(elements)) != len(elements):
        seen = set()
        for e in elements:
            if e in seen:
                raise DuplicateElement(f"duplicate element {e!r}")
            seen.add(e)
    parent = {x: x for x in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in eq_pairs:
        if a not in parent or b not in parent:
            raise UnknownElement(f"equality pair ({a}, {b}) mentions unknown element")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return setoid_by_key(elements, [find(x) for x in elements])


def product_setoid_by_key(X, Y):
    """setoid.product_setoid before a product of discrete factors was
    labelled by position: every product is keyed on the factors' class
    ids."""
    elements = tuple(Pair((x, y)) for x in X.elements for y in Y.elements)
    xid, yid = X.class_id, Y.class_id
    return setoid_by_key(elements, [(xid[x], yid[y]) for x, y in elements])


# --- helpers with no caller in bspec ---------------------------------------

def equality_pairs(X):
    """The equality of a carrier as a set of pairs: every pair of elements
    with one class id."""
    ids = X.class_id
    return frozenset((x, y) for x in X.elements for y in X.elements
                     if ids[x] == ids[y])


def closure_rst(elements, pairs):
    """Reflexive-symmetric-transitive closure of `pairs` over `elements`,
    by Warshall's pass over the symmetric, reflexive relation."""
    rel = {(x, x) for x in elements} | set(pairs) | {(b, a) for a, b in pairs}
    for k in elements:
        for i in elements:
            if (i, k) in rel:
                rel.update((i, j) for j in elements if (k, j) in rel)
    return frozenset(rel)


def verify_unique_factoring(f, quo, g, bound=1_000_000):
    """Confirm g is the only extensional factoring of f through `quo`, a
    carrier on f's domain elements with a coarser equality.

    Returns True/False, or None when the |cod|^|classes| candidate maps
    exceed the bound.
    """
    classes = quo.classes()
    if len(f.cod.elements) ** len(classes) > bound:
        return None
    eq = f.cod.eq

    def factors(cls, v):
        return all(eq(v, f(a)) for a in cls)

    if g.dom.elements != quo.elements:
        # g equals no candidate, so it is unique only when nothing factors f
        return not all(any(factors(cls, v) for v in f.cod.elements)
                       for cls in classes)
    return unique_classwise(classes, f.cod.elements, factors,
                            lambda cls, v: any(not eq(v, g(a)) for a in cls))


def sum_projection_raw(token):
    """Index tag of a sum element.

    Warning: this is a raw operation, not a map of setoids; on a direct sum
    it need not respect equality.
    """
    return token[0]
