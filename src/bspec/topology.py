"""Function-topology kernel on finite carriers.

Spaces carry a finite subbase of exact-rational functions.  Membership of a
function in the generated topology is certified: a certificate is a finite
derivation tree over the closure rules (generator, constant, sum, continuous
composition, pointwise equality, and a witnessed uniform-limit rule), and
find_certificate constructs one for every member.  Morphisms between spaces
are maps together with one certificate per target generator; the lifting of
certificates along such a witness is the constructive content of checking
full morphism-hood on generators only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse
from operator import attrgetter

from .report import Finding, ValueRecord
from .setoid import (
    NotExtensional,
    Subset,
    UnknownElement,
    _fn,
    check_extensional,
    compose,
    product_setoid,
    setoid_by_key,
)


class TopologyError(Exception):
    pass


class RuleMismatch(TopologyError):
    pass


class ValueMismatch(TopologyError):
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

    __slots__ = ("carrier", "values", "__weakref__")

    def __init__(self, carrier, values):
        vals = {}
        for x in carrier.elements:
            if x not in values:
                raise TopologyError(f"function not total, missing {x!r}")
            v = values[x]
            vals[x] = v if type(v) is Fraction else Fraction(v)
        for cls in carrier._classes:
            v = vals[cls[0]]
            for x in cls[1:]:
                if vals[x] is not v and vals[x] != v:
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


# The exact key of a table value, a Fraction: Fractions are kept in lowest
# terms with a positive denominator, so two are equal exactly when their
# keys are.  The key is read in C, where Fraction's own __eq__ runs Python
# code on every comparison.
_exact = attrgetter("_numerator", "_denominator")


class ValueCodes:
    """Small-int codes for exact values, for the value tables of one call:
    equal values get equal codes, so tuples of codes can key a table where
    tuples of Fractions would be hashed value by value on every lookup.

    A value is hashed the first time its object is seen and found by `id`
    after that.  Every object whose id is recorded is held here, so no id
    is reused while the table lives.
    """

    __slots__ = ("_by_value", "_by_id", "_held")

    def __init__(self):
        self._by_value = {}  # value -> code
        self._by_id = {}  # id of a held object -> its value's code
        self._held = []  # every object whose id is in _by_id

    def key(self, values):
        """The codes of `values`, in order, as a tuple."""
        values = list(values)
        by_id = self._by_id
        codes = tuple(map(by_id.get, map(id, values)))
        if None in codes:
            by_value = self._by_value
            for v in values:
                if id(v) not in by_id:
                    by_id[id(v)] = by_value.setdefault(v, len(by_value))
                    self._held.append(v)
            codes = tuple(map(by_id.__getitem__, map(id, values)))
        return codes


def rconst(carrier, q):
    """The constant q on carrier, every entry the one object q when q is a
    Fraction."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return _rfun(carrier, dict.fromkeys(carrier.elements, q))


def _rfun(carrier, values):
    """The RFun of a table already total, Fraction-valued and extensional
    on `carrier`, in carrier order."""
    f = RFun.__new__(RFun)
    f.carrier, f.values = carrier, values
    return f


def compose_rfun(f, h):
    """Pull an RFun back along a carrier map: (f . h)(x) = f(h(x))."""
    return _pull_back(f, h, h.cod.same_as(f.carrier) and _respects_classes(h))


def _respects_classes(h):
    return h.dom.is_discrete() or check_extensional(h)[0]


def _pull_back(f, h, checked):
    """f . h, its table checked value by value unless `checked` says that h
    maps into f's carrier and sends equal elements to equal ones."""
    m = h.mapping
    table = dict(zip(m, map(f.values.__getitem__, m.values())))
    if checked:
        # f is an RFun, so it is extensional.  So x ~ x' gives
        # h(x) ~ h(x'), which gives f(h(x)) == f(h(x')): the table needs no
        # value-by-value check.
        return _rfun(h.dom, table)
    return RFun(h.dom, table)


# --- the closed grammar of continuous reals-to-reals functions -------------

class Bic(ValueRecord):
    """Expression in the closed grammar of continuous real functions.

    Tags: const, id, add, mul, neg, abs, max, min, comp.  Every expression
    evaluates exactly on rationals and yields a computable modulus of
    uniform continuity on each interval [-n, n].
    """

    _fields = ("tag", "args", "value")

    def __init__(self, tag, args=(), value=None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "value", value)


BID = Bic("id")


def bconst(q):
    """The constant q, kept as given when it is a Fraction."""
    return Bic("const", (), q if type(q) is Fraction else Fraction(q))


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
    if type(q) is not Fraction:
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


# --- spaces, certificates --------------------------------------------------

class BSpace:
    """A carrier with the topology its subbase `gens` generates (the
    implicit closure); generator k is named names[k], `g{k}` by default."""

    def __init__(self, carrier, gens, names=()):
        for g in gens:
            if g.carrier.elements != carrier.elements:
                raise TopologyError("generator lives on a different carrier")
        self.carrier = carrier
        self.gens = gens  # RFun values on the carrier
        self.names = names or tuple(f"g{k}" for k in range(len(gens)))

    @cached_property
    def blocks(self):
        """The space's Blocks, built on first use and kept with the space."""
        return _blocks(self.carrier.elements, self.gens)

    @cached_property
    def verdicts(self):
        """The space's certification verdicts (`_certified`), kept with the
        space: a key of value ids and certificate ids -> (table,
        certificate, report)."""
        return {}


class Blocks(ValueRecord):
    """The blocks of a space, the groups of points no generator separates,
    numbered by first element in carrier order, and the separating sum
    h = sum c_j g_j, which is injective on them.

    firsts: the first element of each block; of: the block of each carrier
    element, in carrier order; h: (h at a block's first element, that
    element), h ascending; h_cert: the certificate of h, None with fewer
    than two blocks.
    """

    _fields = ("firsts", "of", "h", "h_cert")

    def __init__(self, firsts, of, h, h_cert):
        object.__setattr__(self, "firsts", firsts)
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_cert", h_cert)


def _blocks(els, gens):
    """The Blocks of the carrier elements `els` under the generators `gens`.

    Each c_j is the least positive integer keeping apart every pair of
    blocks the partial sum already separates; the pairs g_j separates and
    the partial sum does not then come apart as well.  A generator that
    separates nothing new is left out.
    """
    codes = ValueCodes()
    # generator profiles, one per element; with no generator, all are ()
    columns = [codes.key(map(g.values.__getitem__, els)) for g in gens]
    profiles = zip(*columns) if columns else [()] * len(els)
    number, firsts, of = {}, [], []
    for x, profile in zip(els, profiles):
        n = number.setdefault(profile, len(firsts))
        if n == len(firsts):
            firsts.append(x)
        of.append(n)
    h = [Fraction(0)] * len(firsts)
    h_cert = None
    for j, gen in enumerate(gens):
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
    return Blocks(tuple(firsts), tuple(of), tuple(sorted(zip(h, firsts))), h_cert)


def space(carrier, gens, names=()):
    return BSpace(carrier, tuple(gens), tuple(names))


# Certificate nodes.  Conclusions are computed per rule; validation compares
# the final conclusion with the claimed function exactly.

class CGen(ValueRecord):
    __slots__ = ("k",)
    _fields = __slots__

    def __init__(self, k):
        object.__setattr__(self, "k", k)


class CConst(ValueRecord):
    __slots__ = ("value",)
    _fields = __slots__

    def __init__(self, value):
        object.__setattr__(self, "value", value)


class CAdd(ValueRecord):
    _fields = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class CBic(ValueRecord):
    _fields = ("phi", "child")

    def __init__(self, phi, child):
        object.__setattr__(self, "phi", phi)  # a Bic
        object.__setattr__(self, "child", child)


class CEq(ValueRecord):
    _fields = ("child", "table")

    def __init__(self, child, table):
        object.__setattr__(self, "child", child)
        # the claimed pointwise-equal conclusion, ((element, value), ...)
        object.__setattr__(self, "table", table)


class CULim(ValueRecord):
    _fields = ("table", "witnesses")

    def __init__(self, table, witnesses):
        object.__setattr__(self, "table", table)  # the claimed limit function
        # ((n, certificate), ...) with |f - g_n| <= 2^-n
        object.__setattr__(self, "witnesses", witnesses)


def ceq(child, rfun):
    return CEq(child, tuple(sorted(rfun.table().items())))


def culim(rfun, witnesses):
    return CULim(tuple(sorted(rfun.table().items())), tuple(witnesses))


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


class CertReport:
    __slots__ = ("ok", "witnessed", "findings")

    def __init__(self, ok, witnessed=False, findings=None):
        self.ok = ok
        self.witnessed = witnessed  # True when a uniform-limit node was used
        self.findings = [] if findings is None else findings


ULIM_MAX = 8  # most witnesses a uniform-limit node may list


def validate_certificate(sp, f, c):
    """Check a derivation is well-formed and concludes exactly f."""
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

class MorphismWitness:
    """A carrier map plus one certificate per target generator."""

    __slots__ = ("h", "certs")

    def __init__(self, h, certs):
        self.h = h  # a SetoidFn
        self.certs = certs  # target generator index -> certificate

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
    if findings:
        return findings
    for k, g in enumerate(dst.gens):
        if k not in w.certs:
            findings.append(Finding("missing-certificate", (dst.names[k],)))
            continue
        # h is extensional and on its carriers, as just shown
        rep = _certified(src, g, w.h, True, w.certs[k])[1]
        if not rep.ok:
            findings.extend(
                Finding("witness-certificate", (dst.names[k],), str(f))
                for f in rep.findings)
    return findings


def certify_map(src, dst, h, label, findings, where=(), known=None, respects=None):
    """The witness for h: src -> dst, each generator of dst pulled back
    along h and certified over src by certificate_for.  `respects` says
    whether h sends equal elements to equal ones; None has it decided here.

    Each certificate built here is validated, once per table over src
    (`_certified`); a failure is recorded in `findings` as
    `{label}-witness-certificate` at where + (generator name,).  A
    generator with no certificate is left None and recorded as
    `{label}-cert` at where + (k,).  One in `known` keeps the certificate
    given there, for the law that reads it to check.
    """
    certs = dict(known or {})
    if respects is None:
        respects = _respects_classes(h)
    for k in filterfalse(certs.__contains__, range(len(dst.gens))):
        certs[k], rep = _certified(src, dst.gens[k], h, respects)
        if rep is None:
            findings.append(Finding(f"{label}-cert", where + (k,)))
            continue
        findings.extend(Finding(f"{label}-witness-certificate",
                                where + (dst.names[k],), str(f))
                        for f in rep.findings)
    return MorphismWitness(h, certs)


def _certified(src, g, h, respects, *given):
    """Pull the generator g back along h and certify the table over src:
    (certificate, report) for the one certificate in `given`, validated,
    or with none given for certificate_for's, (None, None) when there is
    none.  `respects` says whether h sends equal elements to equal ones.

    When h starts at src's own carrier object, the verdict is read from
    src.verdicts, or made and kept there.  The key is the ids of the
    table's values in carrier order, with the id of the given
    certificate.  Each entry holds the table (whose values are those very
    objects) and the certificate it keys on, so no id is reused while the
    space lives; equal values held as distinct objects only miss.  A
    certificate found is kept under its own id as well, so checking it
    again on the same table is a lookup.
    """
    key = memo = None
    if h.dom is src.carrier:
        key = (tuple(map(id, map(g.values.__getitem__,
                                 map(h.mapping.__getitem__, src.carrier.elements)))),
               *map(id, given))
        memo = src.verdicts
        entry = memo.get(key)
        if entry is not None:
            return entry[1:]
    pulled = _pull_back(g, h, respects and h.cod.same_as(g.carrier))
    if given:
        cert, = given
    else:
        cert = certificate_for(src, pulled)
    rep = None if cert is None and not given else validate_certificate(src, pulled, cert)
    if memo is not None:
        memo[key] = entry = (pulled, cert, rep)
        if not given and cert is not None:
            memo[key + (id(cert),)] = entry
    return cert, rep


def raise_first(findings, exc, miss):
    """Raise exc(text) for the first of certify_map's findings, if any:
    text is miss(k) for a generator k with no certificate, else the finding."""
    if findings:
        f = findings[0]
        raise exc(miss(f.witness[-1]) if f.law.endswith("-cert") else str(f))


def check_morphism_as(label, src, dst, w, where=()):
    """check_morphism's findings, each law prefixed by `label-` and each
    witness by `where`."""
    return [Finding(f"{label}-{f.law}", where + f.witness, f.note)
            for f in check_morphism(src, dst, w)]


def certify_iso(legs, trips, between=()):
    """The findings for two maps claimed mutually inverse.

    `legs` are the two maps as (label, src, dst, h); `trips` are round
    trips (law, f, g), each asking that g . f be the identity on f's
    domain.  The findings are the round trips in the order given, then
    `between`, then certify_map's findings for each leg in turn.
    """
    findings = [Finding(law, (x,)) for law, f, g in trips
                for x in f.dom.elements if not f.dom.eq(g(f(x)), x)]
    findings += between
    for label, src, dst, h in legs:
        certify_map(src, dst, h, label, findings)
    return findings


def map_cert(c, leaf, rekey):
    """Rebuild a derivation: each generator leaf CGen(k) becomes leaf(k),
    the claimed table of each equality and uniform-limit node becomes
    rekey(table), and every other rule is carried through unchanged."""
    if isinstance(c, CGen):
        return leaf(c.k)
    if isinstance(c, CConst):
        return c
    if isinstance(c, CAdd):
        return CAdd(map_cert(c.left, leaf, rekey), map_cert(c.right, leaf, rekey))
    if isinstance(c, CBic):
        return CBic(c.phi, map_cert(c.child, leaf, rekey))
    if isinstance(c, CEq):
        table = rekey(c.table)
        return CEq(map_cert(c.child, leaf, rekey), table)
    if isinstance(c, CULim):
        table = rekey(c.table)
        return CULim(table, tuple(
            (n, map_cert(sub, leaf, rekey)) for n, sub in c.witnesses))
    raise RuleMismatch(f"unknown node {c!r}")


def _rekey(table, keys, at):
    """The claimed table read at at(key) for each key, sorted by key.  A key
    whose image the table does not claim is left out, so the rebuilt node
    misses it as the given node misses the image, and validation says so."""
    claimed = dict(table)
    return tuple(sorted((key, claimed[y]) for key in keys
                        if (y := at(key)) in claimed))


def lift_certificate(src, w, c):
    """Transport a derivation along a morphism witness.

    If c proves g over the target subbase, the lift proves g . h over the
    source subbase, replacing generator leaves by the witness certificates
    and carrying every other rule through unchanged.
    """
    def leaf(k):
        if k not in w.certs:
            raise MissingCertificate(f"no certificate for generator {k}")
        return w.certs[k]

    return map_cert(c, leaf, lambda table: _rekey(table, w.h.dom.elements, w.h))


def compose_witnesses(sp1, sp2, sp3, w12, w23):
    """Witness for the composite map, certificates obtained by lifting."""
    h = compose(w12.h, w23.h)
    certs = {}
    for k in range(len(sp3.gens)):
        if k not in w23.certs:
            raise MissingCertificate(f"no certificate for generator {k}")
        certs[k] = lift_certificate(sp1, w12, w23.certs[k])
    return MorphismWitness(h, certs)


# --- certificates by construction -------------------------------------------

def find_certificate(sp, target):
    """A derivation of `target`, or None when it is not a member.

    On a finite carrier the generated topology is exactly the functions
    constant on the blocks of points that no generator separates.  Every
    closure rule keeps such points equal, so a target separating them is
    refuted.  A block-constant target is a constant or phi(h): h = sum c_j g_j
    separates the blocks and phi is the piecewise-linear interpolant through
    (h(block), target(block)).  A constant on the empty carrier is 0.

    The blocks and h are facts of the space (`BSpace.blocks`); per target
    this compares value codes and builds the interpolant.
    """
    els, values = sp.carrier.elements, target.values
    codes = ValueCodes()
    goal = codes.key(map(values.__getitem__, els))
    if len(set(goal)) <= 1:
        return CConst(target(els[0]) if els else Fraction(0))
    blocks = sp.blocks
    # the code at each block's first element, read back at every element
    want = codes.key(map(values.__getitem__, blocks.firsts))
    if tuple(map(want.__getitem__, blocks.of)) != goal:
        return None
    return CBic(_interpolant([(t, values[x]) for t, x in blocks.h]), blocks.h_cert)


def _interpolant(points):
    """y0 + s0 (t - t0) + sum (s_k - s_{k-1}) max(t - t_k, 0): linear
    between consecutive points (t_k, y_k), the t_k ascending."""
    slopes = [(y2 - y1) / (t2 - t1)
              for (t1, y1), (t2, y2) in zip(points, points[1:])]
    t0, y0 = points[0]
    phi = baffine(slopes[0], y0 - slopes[0] * t0)
    for (tk, _), before, after in zip(points[1:], slopes, slopes[1:]):
        if after != before:
            kink = bmax(badd(BID, bconst(-tk)), bconst(0))
            phi = badd(phi, bmul(bconst(after - before), kink))
    return phi


def gen_position(sp, target):
    """Index of the first generator pointwise equal to target, a table on
    sp's carrier, or None.

    Tables are compared as dicts, in C, which skips two values that are
    one object.  A generator holding another value at the first carrier
    element is passed over before that: its exact key tells (`_exact`),
    where a comparison of the two Fractions would run Python code.
    """
    values, els = target.values, sp.carrier.elements
    if not els:
        return 0 if sp.gens else None
    x = els[0]
    v = values[x]
    key = _exact(v)
    for k, g in enumerate(sp.gens):
        u = g.values[x]
        if (u is v or _exact(u) == key) and g.values == values:
            return k
    return None


def certificate_for(sp, target):
    """Generator match first, then constants, then the construction.

    A table holding one object throughout is a constant; equal values held
    as distinct objects are left to find_certificate, which gives the same
    answer, as it does on the empty carrier.
    """
    k = gen_position(sp, target)
    if k is not None:
        return CGen(k)
    vals = target.values.values()
    if len(set(map(id, vals))) == 1:
        return CConst(next(iter(vals)))
    return find_certificate(sp, target)


# --- derived spaces ----------------------------------------------------------

def product_space(b1, b2):
    """Product carrier with the subbase of both factors pulled back."""
    carrier = product_setoid(b1.carrier, b2.carrier)
    # the carrier is keyed by the factors' class ids, so both respect classes
    pr1 = _fn(carrier, b1.carrier, {t: t[0] for t in carrier.elements})
    pr2 = _fn(carrier, b2.carrier, {t: t[1] for t in carrier.elements})
    gens = ([_pull_back(f, pr1, True) for f in b1.gens]
            + [_pull_back(f, pr2, True) for f in b2.gens])
    names = tuple(f"{n}.1" for n in b1.names) + tuple(f"{n}.2" for n in b2.names)
    return BSpace(carrier, tuple(gens), names), pr1, pr2


def relative_space(b, sub):
    """Restriction of the subbase along a subset inclusion."""
    if not isinstance(sub, Subset):
        raise TopologyError("relative space needs a Subset")
    if not sub.ambient.same_as(b.carrier):
        raise TopologyError("subset of a different carrier")
    gens = tuple(compose_rfun(g, sub.inject) for g in b.gens)
    return BSpace(sub.carrier, gens, b.names)


def values_key(f):
    """The class ids of a map's values, in domain order: maps between the
    same carriers are pointwise equal exactly when their keys are."""
    ids = f.cod.class_id
    values = list(map(f.mapping.__getitem__, f.dom.elements))
    try:
        return tuple(map(ids.__getitem__, values))
    except KeyError:
        raise UnknownElement(next(y for y in values if y not in ids)) from None


def map_setoid(maps, names=None):
    """Carrier of maps with pointwise equality of their tables."""
    if names is None:
        names = [f"m{k}" for k in range(len(maps))]
    by_name = dict(zip(names, maps))
    return setoid_by_key(tuple(names), [values_key(f) for f in maps]), by_name


class MorCarrier(BSpace):
    """A finite pool of morphism witnesses between two spaces, as the space
    exponential_space makes of it: the maps, equal when pointwise equal,
    under the pointwise-evaluation subbase.

    positions maps (source element, target generator index) to the
    position of the generator evaluating a map there.
    """

    def __init__(self, carrier, gens, names=(), *, by_name, positions, witnesses):
        BSpace.__init__(self, carrier, gens, names)
        self.by_name = by_name  # carrier token -> SetoidFn
        self.positions = positions  # (source element, target gen index) -> generator position
        self.witnesses = witnesses  # carrier token -> MorphismWitness

    def find(self, fn):
        """The first pool token, in carrier order, pointwise equal to a map,
        or None."""
        return self._by_values.get(values_key(fn))

    @cached_property
    def _by_values(self):
        """values_key of each pool map -> its first token in carrier order."""
        out = {}
        for name in self.carrier.elements:
            out.setdefault(values_key(self.by_name[name]), name)
        return out


def exponential_space(src, dst, witnesses, names=None):
    """The pool of witnesses, morphisms src -> dst already checked where
    they were made, under the pointwise-evaluation subbase.

    Generators are indexed by a source element and a target generator, and
    evaluate a map at the element then through the generator.  The carrier
    of all morphisms is never enumerated here; callers supply the list.
    """
    carrier, by_name = map_setoid([w.h for w in witnesses], names)
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
            gen_names.append(f"ev[{xr},{dst.names[k]}]")
    for x in src.carrier.elements:
        for k in range(len(dst.gens)):
            positions[(x, k)] = positions[(src.carrier.class_repr(x), k)]
    return MorCarrier(carrier, tuple(gens), tuple(gen_names), by_name=by_name,
                      positions=positions,
                      witnesses=dict(zip(carrier.elements, witnesses)))


def exp_eval_certificate(c, x, pool):
    """Turn a derivation of t over a subbase into a derivation, over the
    evaluation subbase, of the function sending a map h to t(h(x)).

    Generator leaves become evaluation generators at x; every other rule is
    carried through, with claimed tables re-keyed by evaluating each map.
    """
    return map_cert(
        c, lambda k: CGen(pool.positions[(x, k)]),
        lambda table: _rekey(table, pool.carrier.elements,
                             lambda name: pool.by_name[name](x)))
