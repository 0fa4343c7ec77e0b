"""Function-topology kernel on finite carriers.

Spaces carry a finite subbase of exact-rational functions.  Membership of a
function in the generated topology is never decided, only certified: a
certificate is a finite derivation tree over the closure rules (generator,
constant, sum, continuous composition, pointwise equality, and a witnessed
uniform-limit rule).  Morphisms between spaces are maps together with one
certificate per target generator; the lifting of certificates along such a
witness is the constructive content of checking full morphism-hood on
generators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .report import Finding
from .setoid import (
    NotExtensional,
    Setoid,
    SetoidFn,
    Subset,
    check_extensional,
    class_pairs,
    compose,
    make_fn,
    product_setoid,
    split_pair,
)


class TopologyError(Exception):
    pass


class RuleMismatch(TopologyError):
    pass


class ValueMismatch(TopologyError):
    pass


class WitnessGap(TopologyError):
    pass


class MissingCertificate(TopologyError):
    pass


def Q(x, den=None):
    """Exact rational literal."""
    if den is not None:
        return Fraction(x, den)
    return Fraction(x)


# --- real-valued functions on a carrier ------------------------------------

class RFun:
    """A rational-valued table on a carrier; extensional by construction."""

    __slots__ = ("carrier", "values")

    def __init__(self, carrier, values):
        vals = {}
        for x in carrier.elements:
            if x not in values:
                raise TopologyError(f"function not total, missing {x!r}")
            v = values[x]
            vals[x] = v if type(v) is Fraction else Fraction(v)
        for cls in carrier.classes():
            v = vals[cls[0]]
            for x in cls[1:]:
                if vals[x] != v:
                    raise NotExtensional(
                        f"function separates equal elements {cls[0]!r}, {x!r}")
        self.carrier = carrier
        self.values = vals

    def __call__(self, x):
        return self.values[x]

    def table(self):
        return dict(self.values)

    def __repr__(self):
        items = ", ".join(f"{x}=>{v}" for x, v in self.values.items())
        return f"RFun({items})"


def rconst(carrier, q):
    q = Fraction(q)
    return RFun(carrier, {x: q for x in carrier.elements})


def compose_rfun(f, h):
    """Pull an RFun back along a carrier map: (f . h)(x) = f(h(x))."""
    values = f.values
    return RFun(h.dom, {x: values[h(x)] for x in h.dom.elements})


# --- the closed grammar of continuous reals-to-reals functions -------------

@dataclass(frozen=True)
class Bic:
    """Expression in the closed grammar of continuous real functions.

    Tags: const, id, add, mul, neg, abs, max, min, comp.  Every expression
    evaluates exactly on rationals and yields a computable modulus of
    uniform continuity on each interval [-n, n].
    """

    tag: str
    args: tuple = ()
    value: Fraction | None = None


BID = Bic("id")


def bconst(q):
    return Bic("const", (), Fraction(q))


def badd(l, r):
    return Bic("add", (l, r))


def bmul(l, r):
    return Bic("mul", (l, r))


def bneg(e):
    return Bic("neg", (e,))


def babs(e):
    return Bic("abs", (e,))


def bmax(l, r):
    return Bic("max", (l, r))


def bmin(l, r):
    return Bic("min", (l, r))


def bcomp(outer, inner):
    return Bic("comp", (outer, inner))


def baffine(a, b):
    """a*t + b as an expression."""
    return badd(bmul(bconst(a), BID), bconst(b))


def eval_bic(e, q):
    q = Fraction(q)
    if e.tag == "const":
        return e.value
    if e.tag == "id":
        return q
    if e.tag == "add":
        return eval_bic(e.args[0], q) + eval_bic(e.args[1], q)
    if e.tag == "mul":
        return eval_bic(e.args[0], q) * eval_bic(e.args[1], q)
    if e.tag == "neg":
        return -eval_bic(e.args[0], q)
    if e.tag == "abs":
        return abs(eval_bic(e.args[0], q))
    if e.tag == "max":
        return max(eval_bic(e.args[0], q), eval_bic(e.args[1], q))
    if e.tag == "min":
        return min(eval_bic(e.args[0], q), eval_bic(e.args[1], q))
    if e.tag == "comp":
        return eval_bic(e.args[0], eval_bic(e.args[1], q))
    raise TopologyError(f"unknown expression tag {e.tag!r}")


def bic_bounds(e, lo, hi):
    """Interval bound of an expression over [lo, hi]."""
    if e.tag == "const":
        return e.value, e.value
    if e.tag == "id":
        return lo, hi
    if e.tag in ("add", "mul", "max", "min"):
        a, b = bic_bounds(e.args[0], lo, hi)
        c, d = bic_bounds(e.args[1], lo, hi)
        if e.tag == "add":
            return a + c, b + d
        if e.tag == "mul":
            prods = (a * c, a * d, b * c, b * d)
            return min(prods), max(prods)
        if e.tag == "max":
            return max(a, c), max(b, d)
        return min(a, c), min(b, d)
    if e.tag == "neg":
        a, b = bic_bounds(e.args[0], lo, hi)
        return -b, -a
    if e.tag == "abs":
        a, b = bic_bounds(e.args[0], lo, hi)
        low = Fraction(0) if a <= 0 <= b else min(abs(a), abs(b))
        return low, max(abs(a), abs(b))
    if e.tag == "comp":
        a, b = bic_bounds(e.args[1], lo, hi)
        return bic_bounds(e.args[0], a, b)
    raise TopologyError(f"unknown expression tag {e.tag!r}")


def bic_modulus(e, n, eps):
    """A width d with |x - y| < d forcing |e(x) - e(y)| <= eps on [-n, n].

    Structural Lipschitz-style bounds: sums split the tolerance, products
    are bounded through interval arithmetic on [-n, n], absolute value and
    lattice operations pass the tolerance through, and composition routes
    the tolerance through an interval bound of the inner expression.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise TopologyError("tolerance must be positive")
    if e.tag == "const":
        return Fraction(1)
    if e.tag == "id":
        return eps
    if e.tag == "add":
        return min(bic_modulus(e.args[0], n, eps / 2),
                   bic_modulus(e.args[1], n, eps / 2))
    if e.tag in ("neg", "abs"):
        return bic_modulus(e.args[0], n, eps)
    if e.tag in ("max", "min"):
        return min(bic_modulus(e.args[0], n, eps),
                   bic_modulus(e.args[1], n, eps))
    if e.tag == "mul":
        l, r = e.args
        la, lb = bic_bounds(l, -n, n)
        ra, rb = bic_bounds(r, -n, n)
        lbound = max(abs(la), abs(lb), Fraction(1))
        rbound = max(abs(ra), abs(rb), Fraction(1))
        return min(bic_modulus(l, n, eps / (2 * rbound)),
                   bic_modulus(r, n, eps / (2 * lbound)))
    if e.tag == "comp":
        outer, inner = e.args
        a, b = bic_bounds(inner, -n, n)
        m = max(1, math.ceil(abs(a)), math.ceil(abs(b)))
        d_outer = bic_modulus(outer, m, eps)
        return bic_modulus(inner, n, d_outer / 2)
    raise TopologyError(f"unknown expression tag {e.tag!r}")


# --- subbases, spaces, certificates ----------------------------------------

@dataclass(eq=False)
class Subbase:
    carrier: Setoid
    gens: tuple  # RFun values on the carrier
    names: tuple = ()

    def __post_init__(self):
        for g in self.gens:
            if g.carrier.elements != self.carrier.elements:
                raise TopologyError("generator lives on a different carrier")
        if not self.names:
            self.names = tuple(f"g{k}" for k in range(len(self.gens)))

    def gen_index(self, name):
        return self.names.index(name)


@dataclass(eq=False)
class BSpace:
    """A carrier plus a subbase; the topology is the implicit closure."""

    carrier: Setoid
    subbase: Subbase

    @property
    def gens(self):
        return self.subbase.gens


def space(carrier, gens, names=()):
    return BSpace(carrier, Subbase(carrier, tuple(gens), tuple(names)))


# Certificate nodes.  Conclusions are computed per rule; validation compares
# the final conclusion with the claimed function exactly.

@dataclass(frozen=True)
class CGen:
    k: int


@dataclass(frozen=True)
class CConst:
    value: Fraction


@dataclass(frozen=True)
class CAdd:
    left: object
    right: object


@dataclass(frozen=True)
class CBic:
    phi: Bic
    child: object


@dataclass(frozen=True)
class CEq:
    child: object
    table: tuple  # claimed pointwise-equal conclusion, ((element, value), ...)


@dataclass(frozen=True)
class CULim:
    table: tuple  # claimed limit function
    witnesses: tuple  # ((n, certificate), ...) with |f - g_n| <= 2^-n


def ceq(child, rfun):
    return CEq(child, tuple(sorted(rfun.table().items())))


def culim(rfun, witnesses):
    return CULim(tuple(sorted(rfun.table().items())), tuple(witnesses))


def cert_depth(c):
    if isinstance(c, (CGen, CConst)):
        return 1
    if isinstance(c, CAdd):
        return 1 + max(cert_depth(c.left), cert_depth(c.right))
    if isinstance(c, (CBic, CEq)):
        child = c.child
        return 1 + cert_depth(child)
    if isinstance(c, CULim):
        return 1 + max((cert_depth(w) for _, w in c.witnesses), default=0)
    raise RuleMismatch(f"unknown node {c!r}")


def cert_uses_ulim(c):
    if isinstance(c, CULim):
        return True
    if isinstance(c, CAdd):
        return cert_uses_ulim(c.left) or cert_uses_ulim(c.right)
    if isinstance(c, (CBic, CEq)):
        return cert_uses_ulim(c.child)
    return False


def cert_conclusion(sp, c):
    """The function a derivation proves membership for, computed per rule."""
    carrier = sp.carrier
    if isinstance(c, CGen):
        if not 0 <= c.k < len(sp.gens):
            raise RuleMismatch(f"generator index {c.k} out of range")
        return sp.gens[c.k]
    if isinstance(c, CConst):
        return rconst(carrier, c.value)
    if isinstance(c, CAdd):
        l = cert_conclusion(sp, c.left)
        r = cert_conclusion(sp, c.right)
        return RFun(carrier, {x: l(x) + r(x) for x in carrier.elements})
    if isinstance(c, CBic):
        child = cert_conclusion(sp, c.child)
        return RFun(carrier, {x: eval_bic(c.phi, child(x))
                              for x in carrier.elements})
    if isinstance(c, CEq):
        child = cert_conclusion(sp, c.child)
        claimed = dict(c.table)
        for x in carrier.elements:
            if x not in claimed:
                raise RuleMismatch(f"equality node misses element {x!r}")
            if Fraction(claimed[x]) != child(x):
                raise ValueMismatch(f"at {x!r}: claimed {claimed[x]}, derived {child(x)}")
        return RFun(carrier, claimed)
    if isinstance(c, CULim):
        return RFun(carrier, dict(c.table))
    raise RuleMismatch(f"unknown node {c!r}")


@dataclass
class CertReport:
    ok: bool
    witnessed: bool = False  # True when a uniform-limit node was used
    findings: list = None

    def __post_init__(self):
        if self.findings is None:
            self.findings = []


def validate_certificate(sp, f, c, ulim_allowed=True, ulim_max=8):
    """Check a derivation is well-formed and concludes exactly f."""
    findings = []
    witnessed = False

    def walk(node):
        nonlocal witnessed
        if isinstance(node, CULim):
            witnessed = True
            if not ulim_allowed:
                findings.append(Finding("ulim-not-allowed"))
                return
            ns = [n for n, _ in node.witnesses]
            if not ns:
                findings.append(Finding("ulim-empty"))
                return
            if len(ns) > ulim_max:
                findings.append(Finding("ulim-depth", (len(ns),)))
            for expected, n in enumerate(ns, start=1):
                if n != expected:
                    findings.append(Finding("witness-gap", (expected,)))
                    return
            limit = dict(node.table)
            for n, sub in node.witnesses:
                walk(sub)
                try:
                    g = cert_conclusion(sp, sub)
                except TopologyError as exc:
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
    for x in sp.carrier.elements:
        if conclusion(x) != f(x):
            return CertReport(
                False, witnessed,
                [Finding("value-mismatch", (x, str(f(x)), str(conclusion(x))))])
    return CertReport(True, witnessed, [])


# Assembled certificates for the ring and lattice structure of a topology.

def cert_neg(c):
    return CBic(bneg(BID), c)


def cert_scale(q, c):
    return CBic(bmul(bconst(q), BID), c)


def cert_sub(c1, c2):
    return CAdd(c1, cert_neg(c2))


def cert_square(c):
    return CBic(bmul(BID, BID), c)


def cert_mul(c1, c2):
    # f*g = ((f+g)^2 - f^2 - g^2) / 2
    return cert_scale(
        Fraction(1, 2),
        cert_sub(cert_square(CAdd(c1, c2)), CAdd(cert_square(c1), cert_square(c2))),
    )


def cert_abs(c):
    return CBic(babs(BID), c)


def cert_max(c1, c2):
    # f v g = (f + g + |f - g|) / 2
    return cert_scale(Fraction(1, 2), CAdd(CAdd(c1, c2), cert_abs(cert_sub(c1, c2))))


def cert_min(c1, c2):
    # f ^ g = (f + g - |f - g|) / 2
    return cert_scale(Fraction(1, 2),
                      cert_sub(CAdd(c1, c2), cert_abs(cert_sub(c1, c2))))


# --- morphisms and certificate lifting -------------------------------------

@dataclass(eq=False)
class MorphismWitness:
    """A carrier map plus one certificate per target generator."""

    h: SetoidFn
    certs: dict  # target generator index -> certificate

    def __call__(self, x):
        return self.h(x)


def check_morphism(src, dst, w):
    """Valid iff every target generator pulls back with a valid certificate.

    Checking on generators suffices for the whole generated topology; see
    lift_certificate for the reduction.
    """
    findings = []
    ok, witness = check_extensional(w.h)
    if not ok:
        findings.append(Finding("map-extensional", witness))
    if not (w.h.dom.same_as(src.carrier) and w.h.cod.same_as(dst.carrier)):
        findings.append(Finding("map-carriers"))
        return findings
    for k, g in enumerate(dst.gens):
        if k not in w.certs:
            findings.append(Finding("missing-certificate", (dst.subbase.names[k],)))
            continue
        pulled = compose_rfun(g, w.h)
        rep = validate_certificate(src, pulled, w.certs[k])
        if not rep.ok:
            findings.extend(
                Finding("witness-certificate", (dst.subbase.names[k],), str(f))
                for f in rep.findings)
    return findings


def morphism(src, dst, h, certs):
    w = MorphismWitness(h, dict(certs))
    findings = check_morphism(src, dst, w)
    if findings:
        raise MissingCertificate(str(findings[0]))
    return w


def identity_witness(sp):
    from .setoid import identity as sid
    return MorphismWitness(sid(sp.carrier), {k: CGen(k) for k in range(len(sp.gens))})


def lift_certificate(src, w, c, h=None):
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
        return CAdd(lift_certificate(src, w, c.left, h),
                    lift_certificate(src, w, c.right, h))
    if isinstance(c, CBic):
        return CBic(c.phi, lift_certificate(src, w, c.child, h))
    if isinstance(c, CEq):
        claimed = dict(c.table)
        pulled = tuple(sorted((x, claimed[h(x)]) for x in h.dom.elements))
        return CEq(lift_certificate(src, w, c.child, h), pulled)
    if isinstance(c, CULim):
        claimed = dict(c.table)
        pulled = tuple(sorted((x, claimed[h(x)]) for x in h.dom.elements))
        return CULim(pulled, tuple(
            (n, lift_certificate(src, w, sub, h)) for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")


def compose_witnesses(sp1, sp2, sp3, w12, w23):
    """Witness for the composite map, certificates obtained by lifting."""
    h = compose(w12.h, w23.h)
    certs = {}
    for k in range(len(sp3.gens)):
        if k not in w23.certs:
            raise MissingCertificate(f"no certificate for generator {k}")
        certs[k] = lift_certificate(sp1, w12, w23.certs[k])
    return MorphismWitness(h, certs)


def reindex_certificate(c, positions):
    """Rename generator leaves; used when a subbase embeds into a larger one."""
    if isinstance(c, CGen):
        return CGen(positions[c.k])
    if isinstance(c, CConst):
        return c
    if isinstance(c, CAdd):
        return CAdd(reindex_certificate(c.left, positions),
                    reindex_certificate(c.right, positions))
    if isinstance(c, CBic):
        return CBic(c.phi, reindex_certificate(c.child, positions))
    if isinstance(c, CEq):
        return CEq(reindex_certificate(c.child, positions), c.table)
    if isinstance(c, CULim):
        return CULim(c.table, tuple(
            (n, reindex_certificate(sub, positions)) for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")


# --- bounded certificate search ---------------------------------------------

def find_certificate(sp, target, depth=4, cap=2000):
    """Search for a derivation of `target` using generator, constant, sum,
    and composition nodes only.  Returns None when nothing is found within
    the depth and table budget."""
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


def gen_position(sp, target):
    """Index of a generator pointwise equal to target, or None."""
    for k, g in enumerate(sp.gens):
        if g.values == target.values:
            return k
    return None


def certificate_for(sp, target, depth=4, cap=2000):
    """Generator match first, then constants, then bounded search."""
    k = gen_position(sp, target)
    if k is not None:
        return CGen(k)
    vals = set(target.values.values())
    if len(vals) == 1:
        return CConst(next(iter(vals)))
    return find_certificate(sp, target, depth, cap)


# --- derived spaces ----------------------------------------------------------

def product_space(b1, b2):
    """Product carrier with the subbase of both factors pulled back."""
    carrier = product_setoid(b1.carrier, b2.carrier)
    pr1 = make_fn(carrier, b1.carrier,
                  {t: split_pair(t)[0] for t in carrier.elements})
    pr2 = make_fn(carrier, b2.carrier,
                  {t: split_pair(t)[1] for t in carrier.elements})
    gens = [compose_rfun(f, pr1) for f in b1.gens]
    gens += [compose_rfun(g, pr2) for g in b2.gens]
    names = tuple(f"{n}.1" for n in b1.subbase.names) + tuple(
        f"{n}.2" for n in b2.subbase.names)
    return BSpace(carrier, Subbase(carrier, tuple(gens), names)), pr1, pr2


def relative_space(b, sub):
    """Restriction of the subbase along a subset inclusion."""
    if not isinstance(sub, Subset):
        raise TopologyError("relative space needs a Subset")
    if not sub.ambient.same_as(b.carrier):
        raise TopologyError("subset of a different carrier")
    gens = tuple(compose_rfun(g, sub.inject) for g in b.gens)
    return BSpace(sub.carrier,
                  Subbase(sub.carrier, gens, b.subbase.names))


def map_setoid(maps, names=None):
    """Carrier of maps with pointwise equality of their tables."""
    if names is None:
        names = [f"m{k}" for k in range(len(maps))]
    els = tuple(names)
    by_name = dict(zip(names, maps))
    keyed = {}
    for a in names:
        f = by_name[a]
        key = tuple(f.cod.class_repr(f(x)) for x in f.dom.elements)
        keyed.setdefault(key, []).append(a)
    return Setoid(els, class_pairs(keyed.values())), by_name


@dataclass(eq=False)
class ExpSpace:
    """An exponential space over a supplied list of maps.

    positions maps (source class representative, target generator index) to
    the generator position of the corresponding evaluation function.
    """

    space: BSpace
    by_name: dict  # carrier token -> SetoidFn
    positions: dict  # (element repr, target gen index) -> subbase position

    @property
    def carrier(self):
        return self.space.carrier

    @property
    def gens(self):
        return self.space.gens


def exponential_space(src, dst, maps, names=None):
    """Pointwise-evaluation subbase on a supplied finite list of maps.

    Generators are indexed by a source element and a target generator, and
    evaluate a map at the element then through the generator.  The carrier
    of all morphisms is never enumerated here; callers supply the list.
    """
    carrier, by_name = map_setoid(
        [m.h if isinstance(m, MorphismWitness) else m for m in maps], names)
    gens, gen_names = [], []
    positions = {}
    for x in src.carrier.elements:
        xr = src.carrier.class_repr(x)
        for k, g in enumerate(dst.gens):
            if (xr, k) in positions:
                continue
            values = {name: g(by_name[name](xr)) for name in carrier.elements}
            positions[(xr, k)] = len(gens)
            gens.append(RFun(carrier, values))
            gen_names.append(f"ev[{xr},{dst.subbase.names[k]}]")
    for x in src.carrier.elements:
        for k in range(len(dst.gens)):
            positions[(x, k)] = positions[(src.carrier.class_repr(x), k)]
    return ExpSpace(
        BSpace(carrier, Subbase(carrier, tuple(gens), tuple(gen_names))),
        by_name, positions)


def exp_eval_certificate(c, x, exp, by_name=None):
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
        return CAdd(exp_eval_certificate(c.left, x, exp, by_name),
                    exp_eval_certificate(c.right, x, exp, by_name))
    if isinstance(c, CBic):
        return CBic(c.phi, exp_eval_certificate(c.child, x, exp, by_name))
    if isinstance(c, CEq):
        claimed = dict(c.table)
        re_keyed = tuple(sorted(
            (name, claimed[by_name[name](x)]) for name in exp.carrier.elements))
        return CEq(exp_eval_certificate(c.child, x, exp, by_name), re_keyed)
    if isinstance(c, CULim):
        claimed = dict(c.table)
        re_keyed = tuple(sorted(
            (name, claimed[by_name[name](x)]) for name in exp.carrier.elements))
        return CULim(re_keyed, tuple(
            (n, exp_eval_certificate(sub, x, exp, by_name))
            for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")
