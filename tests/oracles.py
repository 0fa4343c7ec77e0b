"""Exhaustive paths the kernel's fast paths replaced, kept as test oracles.

Each function here is the code a fast path in `bspec` replaced, unchanged
but for its name and docstring; the differential tests check that the fast
path gives the same answer.  The last section holds helpers that nothing in
`bspec` calls any more, kept for the tests that pin their behaviour.
"""

from fractions import Fraction
from itertools import product as iproduct

from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    DirectFamily,
    FamilyError,
    MissingTransport,
    _class_inverse,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    sum_elements,
)
from bspec.limits import NonUnique, _limit_of_choices
from bspec.report import Finding
from bspec.order import NotDirected
from bspec.spectra import Thread
from bspec.setoid import (
    SetoidFn,
    compose,
    fn_equal,
    identity,
    unique_classwise,
)
from bspec.topology import (
    BID,
    CAdd,
    CBic,
    CConst,
    CEq,
    CGen,
    CULim,
    MissingCertificate,
    RuleMismatch,
    babs,
    baffine,
    bneg,
    eval_bic,
    lift_certificate,
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


def verify_unique_factoring_exhaustive(f, Q, g, bound=1_000_000):
    """Every class-constant map off the quotient, against f."""
    quo = Q.as_setoid()
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


def saturate_rescan(pairs, carriers, given, contravariant=False):
    """families._saturate before its known transports were indexed: every
    unknown pair rescans all known transports for its middle indices."""
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
            for k in mids:
                if (i, k) in known and (k, j) in known:
                    if contravariant:
                        known[(i, j)] = compose(known[(k, j)], known[(i, k)])
                    else:
                        known[(i, j)] = compose(known[(i, k)], known[(k, j)])
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


def close_order_scan(base, pairs):
    """order._close_order before it became reachability between classes:
    rescan the pairs until nothing is added."""
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
    """make_directed's upper-bound table by scanning every candidate k for
    every pair (i, j)."""
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
    for i, j in D.pairs:
        for k in els:
            if D.leq(j, k) and not D.leq(i, k):
                findings.append(Finding("leq-transitive", (i, j, k)))
    return findings


def complete_witnesses_scan(self):
    """Spectrum._complete_witnesses before it read above- and below-lists:
    every missing edge rescans the index for its first middle element, with
    two `leq` calls each.  Fills `self.witness_certs` in place."""
    pairs = [p for p in self.fam.order_pairs() if p[0] != p[1]]
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            if (i, j) in self.witness_certs:
                continue
            for k in self.index.elements:
                if k in (i, j):
                    continue
                if not (self.index.leq(i, k) and self.index.leq(k, j)):
                    continue
                if (i, k) not in self.witness_certs or (k, j) not in self.witness_certs:
                    continue
                if self.direction == COVARIANT:
                    w_low = self.edge_witness(i, k)
                    lower = self.space(i)
                    upper_certs = self.witness_certs[(k, j)]
                else:
                    w_low = self.edge_witness(k, j)
                    lower = self.space(j)
                    upper_certs = self.witness_certs[(i, k)]
                self.witness_certs[(i, j)] = {
                    m: lift_certificate(lower, w_low, c)
                    for m, c in upper_certs.items()
                }
                changed = True
                break

# The three walks of the certificate tree that topology.map_cert replaced.

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
        pulled = tuple(sorted((x, claimed[h(x)]) for x in h.dom.elements))
        return CEq(lift_certificate_walk(src, w, c.child, h), pulled)
    if isinstance(c, CULim):
        claimed = dict(c.table)
        pulled = tuple(sorted((x, claimed[h(x)]) for x in h.dom.elements))
        return CULim(pulled, tuple(
            (n, lift_certificate_walk(src, w, sub, h)) for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")


def reindex_certificate_walk(c, positions):
    """Rename generator leaves; used when a subbase embeds into a larger one."""
    if isinstance(c, CGen):
        return CGen(positions[c.k])
    if isinstance(c, CConst):
        return c
    if isinstance(c, CAdd):
        return CAdd(reindex_certificate_walk(c.left, positions),
                    reindex_certificate_walk(c.right, positions))
    if isinstance(c, CBic):
        return CBic(c.phi, reindex_certificate_walk(c.child, positions))
    if isinstance(c, CEq):
        return CEq(reindex_certificate_walk(c.child, positions), c.table)
    if isinstance(c, CULim):
        return CULim(c.table, tuple(
            (n, reindex_certificate_walk(sub, positions)) for n, sub in c.witnesses))
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
            (name, claimed[by_name[name](x)]) for name in exp.carrier.elements))
        return CEq(exp_eval_certificate_walk(c.child, x, exp, by_name), re_keyed)
    if isinstance(c, CULim):
        claimed = dict(c.table)
        re_keyed = tuple(sorted(
            (name, claimed[by_name[name](x)]) for name in exp.carrier.elements))
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


def inverse_limit_backtracking(s, bound=1_000_000):
    """inverse_limit over every compatible choice the backtracking search
    lists, in its order: all combinations of class members.  The search
    never tests a reflexive pair, so its choices are filtered by the full
    compatibility check."""
    fam = s.fam
    return _limit_of_choices(s, [
        a for a in enumerate_compatible(fam, CONTRAVARIANT, bound)
        if not validate_dependent(fam, a, CONTRAVARIANT)])


# --- helpers with no caller in bspec ---------------------------------------

def verify_unique_factoring(f, Q, g, bound=1_000_000):
    """Confirm g is the only extensional factoring of f.

    Returns True/False, or None when the |cod|^|classes| candidate maps
    exceed the bound.
    """
    quo = Q.as_setoid()
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
