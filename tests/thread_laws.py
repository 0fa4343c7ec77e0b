"""The componentwise thread, family-map and spectrum-map laws, kept as
test helpers.

The kernel proves what these check at the level of the limit: a direct
limit's threads are compatible by construction (`enumerate_threads`), and
the map of limits a family map induces is certified as a morphism of the
limit spaces (`certify_map`).  These helpers state the same facts index by
index, so tests can check the constructions against them.  For that a map
of spectra carries continuity certificates at each index: `ContinuousMap`.
"""

from bspec.families import (
    COVARIANT,
    FamilyError,
    FamilyMap,
    direct_sum_setoid,
    sigma_map,
)
from bspec.report import Finding
from bspec.setoid import check_extensional, compose, fn_equal, identity
from bspec.spectra import (
    SpectrumError,
    Thread,
    sum_function,
    sum_space,
)
from bspec.topology import (
    CGen,
    MorphismWitness,
    check_morphism,
    compose_rfun,
    compose_witnesses,
    lift_certificate,
    validate_certificate,
)


class IncompatibleThread(SpectrumError):
    pass


class NotContinuous(SpectrumError):
    pass


class ContinuousMap(FamilyMap):
    """A family map with, per index, certificates that its component is a
    morphism of the spaces there."""

    def __init__(self, comps, continuity=None):
        super().__init__(comps)
        self.continuity = continuity  # index element -> {gen index -> certificate}

    def witness(self, i):
        if self.continuity is None or i not in self.continuity:
            raise NotContinuous(f"no continuity certificates at {i}")
        return MorphismWitness(self.comps[i], dict(self.continuity[i]))


def identity_continuous(s):
    """The identity map of s, each component certified by its generators."""
    return ContinuousMap(
        {i: identity(s.fam.carrier(i)) for i in s.index.elements},
        {i: {k: CGen(k) for k in range(len(s.space(i).gens))}
         for i in s.index.elements})


def compose_continuous(s, t, u, psi, xi):
    """xi after psi, for psi: s -> t and xi: t -> u, with each index's
    certificates composed."""
    comps = {i: compose(psi.comps[i], xi.comps[i]) for i in psi.comps}
    return ContinuousMap(comps, {
        i: compose_witnesses(s.space(i), t.space(i), u.space(i),
                             psi.witness(i), xi.witness(i)).certs
        for i in comps})


def validate_thread(s, t, check_certs=True):
    if s.direction != COVARIANT:
        raise SpectrumError("threads are validated over a covariant spectrum")
    findings = []
    for i in s.index.elements:
        if i not in t.funcs:
            findings.append(Finding("thread-partial", (i,)))
            return findings
    for i, j in s.fam.order_pairs():
        if s.induced_map(i, j, t.at(j)).values != t.at(i).values:
            findings.append(Finding("thread-compat", (i, j)))
    if check_certs:
        for i in s.index.elements:
            c = t.certs.get(i)
            if c is None:
                findings.append(Finding("thread-cert-missing", (i,)))
                continue
            rep = validate_certificate(s.space(i), t.at(i), c)
            if not rep.ok:
                findings.append(Finding("thread-cert", (i,), str(rep.findings[0])))
    return findings


def thread_to_sum_function(s, t, sum_s):
    """The function (i, x) -> component-at-i applied to x, on the direct sum.

    Compatibility of the components makes it constant on sum classes; the
    extensionality check happens in the RFun constructor.
    """
    findings = validate_thread(s, t, check_certs=False)
    if findings:
        raise IncompatibleThread(str(findings[0]))
    return sum_function(t, sum_s)


def validate_family_map(src, dst, m):
    """A component at every index, between the carriers there, extensional,
    and natural: transport then component equals component then transport."""
    findings = []
    for i in src.index.elements:
        if i not in m.comps:
            findings.append(Finding("component-missing", (i,)))
            return findings
        f = m.comps[i]
        if not (f.dom.same_as(src.carrier(i)) and f.cod.same_as(dst.carrier(i))):
            findings.append(Finding("component-carriers", (i,)))
            return findings
        ok, witness = check_extensional(f)
        if not ok:
            findings.append(Finding("component-extensional", (i,) + witness))
    for i, j in src.order_pairs():
        a, b = src.ends(i, j)
        left = compose(src.transport(i, j), m.comps[b])
        right = compose(m.comps[a], dst.transport(i, j))
        if not fn_equal(left, right):
            findings.append(Finding("naturality", (i, j)))
    return findings


def family_map(src, dst, comps):
    """The family map with components `comps`, refused with FamilyError
    unless validate_family_map passes."""
    m = FamilyMap(dict(comps))
    findings = validate_family_map(src, dst, m)
    if findings:
        raise FamilyError(str(findings[0]))
    return m


def validate_spectrum_map(s, t, psi):
    findings = validate_family_map(s.fam, t.fam, psi)
    if psi.continuity is not None:
        for i in s.index.elements:
            try:
                w = psi.witness(i)
            except NotContinuous:
                findings.append(Finding("continuity-missing", (i,)))
                continue
            for f in check_morphism(s.space(i), t.space(i), w):
                findings.append(Finding("continuity-" + f.law, (i,) + f.witness))
    return findings


def pullback_thread(s, t, psi, thread_over_t):
    """Compose a compatible choice over the target with the map components;
    certificates come from lifting through the continuity witnesses."""
    if psi.continuity is None:
        raise NotContinuous("pullback needs continuity certificates")
    funcs, certs = {}, {}
    for i in s.index.elements:
        w = psi.witness(i)
        funcs[i] = compose_rfun(thread_over_t.at(i), psi.comps[i])
        c = thread_over_t.certs.get(i)
        if c is None:
            raise IncompatibleThread(f"target thread lacks a certificate at {i}")
        certs[i] = lift_certificate(s.space(i), w, c)
    pulled = Thread(funcs, certs)
    findings = validate_thread(s, pulled)
    if findings:
        raise IncompatibleThread(str(findings[0]))
    return pulled


def check_sum_morphisms(s, t, psi):
    """The tagging maps and the induced sum map are morphisms for the sum
    topologies: tagging pulls a thread function back to the thread's own
    component, and the sum map pulls one back to the pulled-back thread."""
    findings = []
    sum_src = direct_sum_setoid(s.fam)
    _, threads_s = sum_space(s, sum_src)
    # each tagging map pulls a thread function back to the thread's own
    # component, so it carries that component's certificate
    for i in s.index.elements:
        for t_obj in threads_s:
            c = t_obj.certs.get(i)
            if c is None:
                findings.append(Finding("tagging-cert-missing", (i,)))
                continue
            rep = validate_certificate(s.space(i), t_obj.at(i), c)
            if not rep.ok:
                findings.append(Finding("tagging-cert", (i,)))
    if psi is None:
        return findings
    if psi.continuity is None:
        findings.append(Finding("not-continuous", ()))
        return findings
    sum_dst = direct_sum_setoid(t.fam)
    _, threads_t = sum_space(t, sum_dst)
    smap = sigma_map(psi, sum_src, sum_dst)
    for h_obj in threads_t:
        g = sum_function(h_obj, sum_dst)
        pulled_fun = compose_rfun(g, smap)
        # pullback_thread validates the thread it returns
        expected = sum_function(pullback_thread(s, t, psi, h_obj), sum_src)
        if pulled_fun.values != expected.values:
            findings.append(Finding("sum-map-pullback", ()))
    return findings


def check_induced_square(s, t, psi, edge):
    """On one edge, pulling a generator through the map then the transport
    agrees with the other path around the square."""
    i, j = edge
    # the square ends at the transport's target:
    # psi_tgt . lambda_ij = mu_ij . psi_src
    src, tgt = s.fam.ends(i, j)
    for g in t.space(tgt).gens:
        left = compose_rfun(compose_rfun(g, psi.comps[tgt]), s.fam.transport(i, j))
        right = compose_rfun(compose_rfun(g, t.fam.transport(i, j)), psi.comps[src])
        if left.values != right.values:
            return False
    return True
