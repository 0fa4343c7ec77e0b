"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Every expected value here is either forced trivially, computed by an
independent oracle (exhaustive search, enumeration), or checked two-sidedly;
no uniform-limit certificates appear anywhere in this suite.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from bspec.duality import (
    converse_dual_direct,
    converse_dual_inverse,
    duality_direct_to_inverse,
    duality_inverse_hom,
    enumerate_morphisms,
)
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    direct_sum_setoid,
    identity_family_map,
    sum_elements,
)
from bspec.limits import (
    Limits,
    cocone_mediator,
    cofinal_direct_iso,
    cofinal_inverse_iso,
    cone_mediator,
    direct_limit,
    inverse_limit,
    inverse_limit_map,
    limit_map,
    own_legs,
    product_inverse_morphism,
    product_limit_bijection,
)
from bspec.order import validate_cofinal
from bspec.setoid import compose, discrete, fn_equal, make_fn
from bspec.spectra import constant_spectrum, enumerate_threads
from bspec.topology import (
    BID,
    CGen,
    MorphismWitness,
    RFun,
    babs,
    badd,
    baffine,
    bcomp,
    bconst,
    bic_modulus,
    bmax,
    bmin,
    bmul,
    bneg,
    cert_abs,
    cert_max,
    cert_min,
    cert_mul,
    check_morphism,
    compose_rfun,
    eval_bic,
    lift_certificate,
    space,
    validate_certificate,
)

from randgen import (
    enumerate_directed_indices,
    random_certificate,
    random_cofinal_instance,
    random_direct_family,
    random_map_chain,
    random_rational,
    random_spectrum,
    random_spectrum_with_cocone,
    random_spectrum_with_cone,
)
from structures import (
    chain3,
    constant_cspec,
    cspec,
    eo_cofinal,
    eo_index,
    morphism,
    x2_space,
)
from thread_laws import compose_continuous, thread_to_sum_function, validate_spectrum_map

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted(ROOT.glob("fixtures/*.bsp"))


def _conclude(name, ok):
    print(("PASS" if ok else "FAIL") + "  " + name)
    assert ok, name


def _witness_ok(src, dst, w):
    """w is a morphism whose certificates use no uniform-limit node."""
    if check_morphism(src, dst, w):
        return False
    return not any(validate_certificate(src, compose_rfun(g, w.h), w.certs[k]).witnessed
                   for k, g in enumerate(dst.gens))


def test_criterion_1_direct_sum_equality_is_equivalence():
    """Transport-agreement equality: reflexive, symmetric, transitive, and
    top-element normalization agrees with the exhaustive witness search."""
    indices = enumerate_directed_indices(4)
    assert len(indices) == 22
    rng = random.Random(11)
    ok = True
    for n in range(200):
        index = indices[n % len(indices)]
        fam = random_direct_family(rng, index, COVARIANT, max_carrier=3)
        tagged = sum_elements(fam)
        rel = {}
        for a in tagged:
            for b in tagged:
                got = direct_sum_equality(fam, a[0], a[1], b[0], b[1])
                want = direct_sum_equality_exhaustive(fam, a[0], a[1], b[0], b[1])
                ok = ok and got == want
                rel[(a, b)] = got
        for a in tagged:
            ok = ok and rel[(a, a)]
            for b in tagged:
                if rel[(a, b)]:
                    ok = ok and rel[(b, a)]
                    for c in tagged:
                        if rel[(b, c)]:
                            ok = ok and rel[(a, c)]
        if not ok:
            break
    _conclude("criterion-1 equivalence-relation and top-vs-search", ok)


def test_criterion_2_thread_functions_descend_to_classes():
    rng = random.Random(22)
    spectra = [cspec()]
    while len(spectra) < 101:
        spectra.append(random_spectrum(rng))
    ok = True
    for s in spectra:
        carrier = direct_sum_setoid(s.fam)
        for t in enumerate_threads(s):
            f = thread_to_sum_function(s, t, carrier)
            for a in carrier.elements:
                for b in carrier.elements:
                    if carrier.eq(a, b) and f(a) != f(b):
                        ok = False
        if not ok:
            break
    _conclude("criterion-2 thread-extensionality", ok)


def test_criterion_3_universal_properties():
    rng = random.Random(33)
    ok = True

    # the fixtures' own legs give the identity mediator
    for s in (cspec(), constant_cspec()):
        lim = direct_limit(s)
        w = cocone_mediator(s, lim, own_legs(lim))
        ok = ok and all(lim.carrier.eq(w.h(t), t) for t in lim.carrier.elements)

    produced = 0
    while produced < 50:
        s, cocone = random_spectrum_with_cocone(rng)
        lim = direct_limit(s)
        if lim.class_count() > 6 or len(cocone.apex.carrier) > 4:
            continue
        produced += 1
        try:
            w = cocone_mediator(s, lim, cocone)  # commutes+unique+morphism
        except Exception:
            ok = False
            break
        ok = ok and _witness_ok(lim.space, cocone.apex, w)
        ok = ok and all(
            fn_equal(compose(lim.leg(i), w.h), cocone.legs[i].h)
            for i in s.index.elements)

    produced = 0
    while produced < 50:
        s, cone = random_spectrum_with_cone(rng)
        lim = inverse_limit(s)
        if lim.class_count() > 6 or len(cone.apex.carrier) > 4:
            continue
        produced += 1
        try:
            w = cone_mediator(s, lim, cone)
        except Exception:
            ok = False
            break
        ok = ok and _witness_ok(cone.apex, lim.space, w)
        ok = ok and all(
            fn_equal(compose(w.h, lim.leg(i)), cone.legs[i].h)
            for i in s.index.elements)
    _conclude("criterion-3 universal-properties", ok)


def test_criterion_4_functoriality():
    rng = random.Random(44)
    ok = True
    for _ in range(20):
        s, t, u, psi, xi = random_map_chain(rng)
        lims = Limits()
        lim_s = lims.direct(s)
        ident = limit_map(s, s, identity_family_map(s.fam), lims).h
        ok = ok and all(
            lim_s.carrier.eq(ident(a), a) for a in lim_s.carrier.elements)
        f_psi = limit_map(s, t, psi, lims).h
        f_xi = limit_map(t, u, xi, lims).h
        both = compose_continuous(s, t, u, psi, xi)
        ok = ok and validate_spectrum_map(s, u, both) == []
        f_both = limit_map(s, u, both, lims).h
        ok = ok and fn_equal(f_both, compose(f_psi, f_xi))
        if not ok:
            break
    for _ in range(20):
        s, t, u, psi, xi = random_map_chain(rng, direction=CONTRAVARIANT)
        lims = Limits()
        lim_s = lims.inverse(s)
        ident = inverse_limit_map(s, s, identity_family_map(s.fam), lims).h
        ok = ok and all(
            lim_s.carrier.eq(ident(a), a) for a in lim_s.carrier.elements)
        f_psi = inverse_limit_map(s, t, psi, lims).h
        f_xi = inverse_limit_map(t, u, xi, lims).h
        both = compose_continuous(s, t, u, psi, xi)
        ok = ok and validate_spectrum_map(s, u, both) == []
        f_both = inverse_limit_map(s, u, both, lims).h
        ok = ok and fn_equal(f_both, compose(f_psi, f_xi))
        if not ok:
            break
    _conclude("criterion-4 functoriality", ok)


def test_criterion_5_cofinality():
    rng = random.Random(55)
    ok = True
    for m in (1, 2, 3):
        ok = ok and validate_cofinal(eo_index(m), eo_cofinal(m)) == []
    for m in (1, 2):
        s = constant_spectrum(eo_index(m), x2_space(), (0, 1))
        iso = cofinal_direct_iso(s, eo_cofinal(m), Limits())
        ok = ok and iso.findings == []
        s2 = constant_spectrum(eo_index(m), x2_space(), (0, 1),
                               direction=CONTRAVARIANT)
        iso2 = cofinal_inverse_iso(s2, eo_cofinal(m), Limits())
        ok = ok and iso2.findings == []
    for _ in range(30):
        index, cof = random_cofinal_instance(rng)
        ok = ok and validate_cofinal(index, cof) == []
        s = random_spectrum(rng, index, COVARIANT)
        iso = cofinal_direct_iso(s, cof, Limits())
        ok = ok and iso.findings == []
        s2 = random_spectrum(rng, index, CONTRAVARIANT)
        iso2 = cofinal_inverse_iso(s2, cof, Limits())
        ok = ok and iso2.findings == []
        if not ok:
            break
    _conclude("criterion-5 cofinality", ok)


def test_criterion_6_constant_spectrum_limit_is_the_space():
    s = constant_cspec()
    target = x2_space()
    lim = direct_limit(s)
    ok = lim.class_count() == 2

    table = {tok: tok[1] for tok in lim.carrier.elements}
    fwd = make_fn(lim.carrier, target.carrier, table)
    fwd_certs = {}
    for k, f in enumerate(target.gens):
        pulled = compose_rfun(f, fwd)
        match = next(
            (n for n, g in enumerate(lim.space.gens) if g.values == pulled.values),
            None)
        ok = ok and match is not None
        if match is not None:
            fwd_certs[k] = CGen(match)
    fwd_w = MorphismWitness(fwd, fwd_certs)
    ok = ok and _witness_ok(lim.space, target, fwd_w)

    back = lim.leg("0")
    back_certs = {}
    for k, g in enumerate(lim.space.gens):
        pulled = compose_rfun(g, back)
        thread = next(
            t for t in lim.threads
            if thread_to_sum_function(s, t, lim.carrier).values == g.values)
        ok = ok and pulled.values == thread.at("0").values
        back_certs[k] = thread.certs["0"]
    back_w = MorphismWitness(back, back_certs)
    ok = ok and _witness_ok(target, lim.space, back_w)

    ok = ok and all(
        target.carrier.eq(fwd(back(x)), x) for x in target.carrier.elements)
    ok = ok and all(
        lim.carrier.eq(back(fwd(t)), t) for t in lim.carrier.elements)
    _conclude("criterion-6 constant-spectrum-limit", ok)


def test_criterion_7_products():
    rng = random.Random(77)
    ok = True
    pairs = [
        (constant_cspec(), constant_cspec()),
        (cspec(), cspec()),
        (constant_cspec(), cspec()),
    ]
    for _ in range(5):
        pairs.append((random_spectrum(rng), random_spectrum(rng)))
    for s, t in pairs:
        res = product_limit_bijection(s, t, Limits())
        ok = ok and res.findings == []
        ok = ok and res.counts[0] == res.counts[1] * res.counts[2]
        if not ok:
            break
    contra = [
        (constant_spectrum(chain3(), x2_space(), (0, 1), CONTRAVARIANT),
         constant_spectrum(chain3(), x2_space(), (0, 1), CONTRAVARIANT)),
    ]
    for _ in range(3):
        contra.append((random_spectrum(rng, direction=CONTRAVARIANT),
                       random_spectrum(rng, direction=CONTRAVARIANT)))
    for s, t in contra:
        res = product_inverse_morphism(s, t, Limits())
        ok = ok and res.findings == []
        if not ok:
            break
    _conclude("criterion-7 products", ok)


def test_criterion_8_duality():
    ok = True
    sp = x2_space()

    s = constant_cspec()
    pools = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    res = duality_direct_to_inverse(s, sp, pools, Limits())
    ok = ok and res.findings == []

    s2 = cspec()
    pools2 = {i: enumerate_morphisms(s2.space(i), sp) for i in s2.index.elements}
    res2 = duality_direct_to_inverse(s2, sp, pools2, Limits())
    ok = ok and res2.findings == []

    contra = constant_spectrum(chain3(), sp, (0, 1), CONTRAVARIANT)
    pools3 = {i: enumerate_morphisms(sp, sp) for i in contra.index.elements}
    res3 = duality_inverse_hom(contra, sp, pools3, Limits())
    ok = ok and res3.findings == []

    res4 = converse_dual_inverse(contra, sp, pools3, Limits())
    ok = ok and res4.findings == [] and res4.hypothesis_holds \
        and res4.embedding_checked

    # hypothesis failure: the embedding check is skipped, morphism still holds
    from bspec.families import make_direct_family
    from bspec.spectra import Spectrum, complete_witnesses
    from bspec.topology import BSpace, rconst

    carriers = {
        "0": discrete(["a", "b"]),
        "1": discrete(["u"]),
        "2": discrete(["z"]),
    }
    t10 = make_fn(carriers["1"], carriers["0"], {"u": "a"})
    t21 = make_fn(carriers["2"], carriers["1"], {"z": "u"})
    fam = make_direct_family(chain3(), CONTRAVARIANT, carriers,
                             {("0", "1"): t10, ("1", "2"): t21})
    spaces = {
        "0": BSpace(carriers["0"], (RFun(carriers["0"], {"a": 0, "b": 1}),), ("f0",)),
        "1": BSpace(carriers["1"], (rconst(carriers["1"], 0),), ("f1",)),
        "2": BSpace(carriers["2"], (rconst(carriers["2"], 0),), ("f2",)),
    }
    covers = {("0", "1"): {0: CGen(0)}, ("1", "2"): {0: CGen(0)}}
    gapped = Spectrum(fam, spaces, complete_witnesses(fam, spaces, covers), (0, 1))
    one = space(discrete(["o"]), [rconst(discrete(["o"]), 0)], ["c"])
    pools5 = {i: enumerate_morphisms(gapped.space(i), one)
              for i in gapped.index.elements}
    res5 = converse_dual_inverse(gapped, one, pools5, Limits())
    ok = ok and res5.findings == [] and res5.hypothesis_holds is False \
        and not res5.embedding_checked

    pools6 = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    res6 = converse_dual_direct(s, sp, pools6, Limits())
    ok = ok and res6.findings == []
    _conclude("criterion-8 duality", ok)


def test_criterion_9_topology_kernel():
    rng = random.Random(99)
    ok = True

    # lifting preserves validity: 500 random derivations of depth <= 5
    lifted = 0
    while lifted < 500:
        dst_carrier = discrete([f"y{k}" for k in range(rng.randint(1, 3))])
        dst_gens = [
            RFun(dst_carrier,
                 {y: random_rational(rng) for y in dst_carrier.elements})
            for _ in range(rng.randint(1, 2))
        ]
        dst = space(dst_carrier, dst_gens)
        src_carrier = discrete([f"x{k}" for k in range(rng.randint(1, 3))])
        h = make_fn(src_carrier, dst_carrier,
                    {x: rng.choice(dst_carrier.elements)
                     for x in src_carrier.elements})
        src_gens = [compose_rfun(g, h) for g in dst_gens]
        src_gens.append(RFun(
            src_carrier,
            {x: random_rational(rng) for x in src_carrier.elements}))
        src = space(src_carrier, src_gens)
        w = morphism(src, dst, h, {k: CGen(k) for k in range(len(dst_gens))})
        for _ in range(10):
            c = random_certificate(rng, dst, depth=5)
            from bspec.topology import cert_conclusion

            g = cert_conclusion(dst, c)
            lifted_cert = lift_certificate(src, w, c)
            pulled = compose_rfun(g, h)
            rep = validate_certificate(src, pulled, lifted_cert)
            ok = ok and rep.ok and not rep.witnessed
            lifted += 1
        if not ok:
            break

    # modulus soundness: 20 expressions, 1000 sampled pairs each
    exprs = [
        BID,
        babs(BID),
        bneg(BID),
        badd(BID, BID),
        badd(BID, bconst(Fraction(1, 3))),
        bmul(BID, BID),
        bmul(BID, bconst(-3)),
        bmul(badd(BID, bconst(1)), BID),
        bmax(BID, bneg(BID)),
        bmax(BID, bconst(0)),
        bmin(BID, bconst(2)),
        bmin(bmul(BID, BID), BID),
        baffine(Fraction(-3, 2), 4),
        baffine(Fraction(5, 3), Fraction(-1, 2)),
        bcomp(bmul(BID, BID), badd(BID, bconst(-1))),
        bcomp(babs(BID), bmul(BID, bconst(5))),
        bcomp(badd(BID, bconst(1)), bmul(BID, BID)),
        bcomp(bmul(BID, BID), bmul(BID, BID)),
        babs(badd(bmul(BID, BID), bneg(BID))),
        badd(bmul(BID, BID), bmax(BID, bconst(1))),
    ]
    assert len(exprs) == 20
    n = 2
    for e in exprs:
        eps = Fraction(1, rng.randint(1, 8))
        delta = bic_modulus(e, n, eps)
        ok = ok and delta > 0
        for _ in range(1000):
            x = Fraction(rng.randint(-n * 48, n * 48), 48)
            y = x + Fraction(rng.randint(-95, 95), 100) * delta
            y = max(Fraction(-n), min(Fraction(n), y))
            if abs(x - y) < delta:
                ok = ok and abs(eval_bic(e, x) - eval_bic(e, y)) <= eps
        if not ok:
            break

    # ring and lattice identities assembled from certificates, exactly
    carrier = discrete(["x1", "x2", "x3"])
    for _ in range(30):
        f = RFun(carrier, {x: random_rational(rng) for x in carrier.elements})
        g = RFun(carrier, {x: random_rational(rng) for x in carrier.elements})
        sp = space(carrier, [f, g], ["f", "g"])
        prod = RFun(carrier, {x: f(x) * g(x) for x in carrier.elements})
        join = RFun(carrier, {x: max(f(x), g(x)) for x in carrier.elements})
        meet = RFun(carrier, {x: min(f(x), g(x)) for x in carrier.elements})
        absf = RFun(carrier, {x: abs(f(x)) for x in carrier.elements})
        ok = ok and validate_certificate(sp, prod, cert_mul(CGen(0), CGen(1))).ok
        ok = ok and validate_certificate(sp, join, cert_max(CGen(0), CGen(1))).ok
        ok = ok and validate_certificate(sp, meet, cert_min(CGen(0), CGen(1))).ok
        ok = ok and validate_certificate(sp, absf, cert_abs(CGen(0))).ok
        if not ok:
            break
    _conclude("criterion-9 topology-kernel", ok)


def test_criterion_10_cli():
    from bspec.dsl import parse
    from test_dsl import documents_equal, print_document

    ok = len(FIXTURES) >= 4
    for path in FIXTURES:
        doc = parse(path.read_text())
        ok = ok and documents_equal(doc, parse(print_document(doc)))

    for path in FIXTURES:
        proc = subprocess.run(
            [sys.executable, "-m", "bspec.cli", "check", str(path)],
            capture_output=True, text=True, cwd=ROOT)
        ok = ok and proc.returncode == 0

    path = next(p for p in FIXTURES if p.stem == "cspec")
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "bspec.cli", "report", str(path),
             "--json", "-"],
            capture_output=True, text=True, cwd=ROOT)
        ok = ok and proc.returncode == 0
        payload = proc.stdout.splitlines()[-1]
        outs.append(payload)
        ok = ok and json.loads(payload)["schema"] == 1
    ok = ok and outs[0] == outs[1]
    _conclude("criterion-10 cli", ok)
