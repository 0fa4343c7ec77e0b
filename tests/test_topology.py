import random
from fractions import Fraction
from itertools import product

import pytest

from bspec.report import Finding
from bspec.setoid import SetoidFn, discrete, make_fn, make_setoid, make_subset
from bspec.topology import (
    BID,
    CAdd,
    CBic,
    CConst,
    CGen,
    CULim,
    MorphismWitness,
    RFun,
    babs,
    badd,
    baffine,
    bconst,
    bic_bounds,
    bic_modulus,
    bmax,
    bmin,
    bmul,
    bneg,
    bcomp,
    ceq,
    cert_abs,
    cert_max,
    cert_min,
    cert_mul,
    certificate_for,
    check_morphism,
    compose_witnesses,
    culim,
    eval_bic,
    exponential_space,
    lift_certificate,
    product_space,
    rconst,
    relative_space,
    space,
    validate_certificate,
)

from structures import identity_witness, morphism, x2_space


def test_eval_exact():
    assert eval_bic(BID, Fraction(3, 2)) == Fraction(3, 2)
    assert eval_bic(bcomp(babs(BID), bconst(-2)), 7) == 2
    assert eval_bic(bmax(BID, bconst(0)), -1) == 0
    assert eval_bic(baffine(2, Fraction(1, 3)), Fraction(1, 2)) == Fraction(4, 3)


def test_modulus_structural_values():
    assert bic_modulus(babs(BID), 3, Fraction(1, 5)) == Fraction(1, 5)
    assert bic_modulus(badd(BID, BID), 3, Fraction(1, 5)) == Fraction(1, 10)
    assert bic_modulus(bmul(BID, BID), 2, 1) <= Fraction(1, 4)


def _sample_rational(rng, n):
    num = rng.randint(-n * 24, n * 24)
    return Fraction(num, 24)


def test_modulus_sound_on_samples():
    rng = random.Random(7)
    exprs = [
        BID,
        babs(BID),
        badd(BID, bconst(Fraction(1, 3))),
        bmul(BID, BID),
        bmul(badd(BID, bconst(1)), BID),
        bmax(BID, bneg(BID)),
        bmin(bmul(BID, BID), bconst(2)),
        bcomp(bmul(BID, BID), badd(BID, bconst(-1))),
        baffine(Fraction(-3, 2), 4),
        bcomp(babs(BID), bmul(BID, bconst(5))),
    ]
    n = 2
    for e in exprs:
        eps = Fraction(1, rng.randint(1, 9))
        delta = bic_modulus(e, n, eps)
        assert delta > 0
        for _ in range(100):
            x = _sample_rational(rng, n)
            shift = Fraction(rng.randint(-95, 95), 100) * delta
            y = x + shift
            y = max(Fraction(-n), min(Fraction(n), y))
            if abs(x - y) < delta:
                assert abs(eval_bic(e, x) - eval_bic(e, y)) <= eps


def test_bounds_contain_values():
    e = bcomp(bmul(BID, BID), badd(BID, bconst(-1)))
    lo, hi = bic_bounds(e, -2, 2)
    for k in range(-8, 9):
        v = eval_bic(e, Fraction(k, 4))
        assert lo <= v <= hi


def test_rfun_extensionality_enforced():
    s = make_setoid(["a", "b"], [("a", "b")])
    with pytest.raises(Exception):
        RFun(s, {"a": 0, "b": 1})
    f = RFun(s, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert f("b") == Fraction(1, 2)


def test_constant_certificate_any_subbase():
    sp = x2_space()
    f = rconst(sp.carrier, 5)
    assert validate_certificate(sp, f, CConst(Fraction(5))).ok


def test_one_minus_generator():
    sp = x2_space()
    target = RFun(sp.carrier, {"p": 1, "q": 0})
    cert = CBic(badd(bconst(1), bneg(BID)), CGen(0))
    assert validate_certificate(sp, target, cert).ok
    wrong = RFun(sp.carrier, {"p": 1, "q": 1})
    rep = validate_certificate(sp, wrong, cert)
    assert not rep.ok and rep.findings[0].law == "value-mismatch"


def test_lattice_and_ring_identities_hold_exactly():
    rng = random.Random(3)
    carrier = discrete(["x1", "x2", "x3", "x4"])
    for _ in range(25):
        fv = {x: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for x in carrier.elements}
        gv = {x: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for x in carrier.elements}
        f, g = RFun(carrier, fv), RFun(carrier, gv)
        sp = space(carrier, [f, g], ["f", "g"])
        prod = RFun(carrier, {x: f(x) * g(x) for x in carrier.elements})
        join = RFun(carrier, {x: max(f(x), g(x)) for x in carrier.elements})
        meet = RFun(carrier, {x: min(f(x), g(x)) for x in carrier.elements})
        absf = RFun(carrier, {x: abs(f(x)) for x in carrier.elements})
        assert validate_certificate(sp, prod, cert_mul(CGen(0), CGen(1))).ok
        assert validate_certificate(sp, join, cert_max(CGen(0), CGen(1))).ok
        assert validate_certificate(sp, meet, cert_min(CGen(0), CGen(1))).ok
        assert validate_certificate(sp, absf, cert_abs(CGen(0))).ok


def test_eq_node_requires_exact_equality():
    sp = x2_space()
    f = sp.gens[0]
    good = ceq(CGen(0), f)
    assert validate_certificate(sp, f, good).ok
    claimed = RFun(sp.carrier, {"p": 0, "q": 2})
    bad = ceq(CGen(0), claimed)
    assert not validate_certificate(sp, claimed, bad).ok


def test_ulim_witnessed_mode():
    sp = x2_space()
    f = RFun(sp.carrier, {"p": 0, "q": 1})
    witnesses = tuple(
        (n, ceq(CGen(0), f)) for n in range(1, 4)
    )
    cert = culim(f, witnesses)
    rep = validate_certificate(sp, f, cert)
    assert rep.ok and rep.witnessed
    # witnesses must approximate within 2^-n
    far = rconst(sp.carrier, 10)
    bad = culim(far, ((1, CConst(Fraction(0))),))
    rep = validate_certificate(sp, far, bad)
    assert not rep.ok
    # gap in the witness sequence
    gap = culim(f, ((2, ceq(CGen(0), f)),))
    rep = validate_certificate(sp, f, gap)
    assert not rep.ok and rep.findings[0].law == "witness-gap"
    # a report says whether the uniform-limit rule was used, valid or not
    assert rep.witnessed
    assert not validate_certificate(sp, f, CGen(0)).witnessed


def test_ulim_table_missing_an_element_is_a_finding():
    X = make_setoid(["p", "q", "r"])
    sp = space(X, [RFun(X, {"p": 0, "q": 1, "r": 1})])
    cert = CULim((("p", Fraction(0)), ("q", Fraction(1))), ((1, CGen(0)),))
    rep = validate_certificate(sp, sp.gens[0], cert)
    assert not rep.ok and rep.findings == [Finding("ulim-table", ("r",))]
    # a missing first element of a class is reported before its members
    Y = make_setoid(["p", "q"], [("p", "q")])
    sp = space(Y, [RFun(Y, {"p": 0, "q": 0})])
    cert = CULim((("q", Fraction(0)),), ((1, CGen(0)),))
    rep = validate_certificate(sp, sp.gens[0], cert)
    assert not rep.ok and rep.findings == [Finding("ulim-table", ("p",))]


def test_ulim_table_separating_equal_elements_is_a_finding():
    X = make_setoid(["p", "q", "r"], [("p", "q")])
    sp = space(X, [RFun(X, {"p": 0, "q": 0, "r": 1})])
    table = (("p", Fraction(0)), ("q", Fraction(1)), ("r", Fraction(1)))
    rep = validate_certificate(sp, sp.gens[0], CULim(table, ((1, CGen(0)),)))
    assert not rep.ok and rep.findings == [Finding("ulim-table", ("q",))]
    # inside another uniform limit the same table is reported, not raised
    outer = CULim(tuple(sorted(sp.gens[0].table().items())),
                  ((1, CULim(table, ((1, CGen(0)),))),))
    rep = validate_certificate(sp, sp.gens[0], outer)
    assert not rep.ok and rep.findings[0] == Finding("ulim-table", ("q",))


def test_identity_and_swap_morphisms():
    sp = x2_space()
    w = identity_witness(sp)
    assert check_morphism(sp, sp, w) == []
    swap = make_fn(sp.carrier, sp.carrier, {"p": "q", "q": "p"})
    cert = CBic(badd(bconst(1), bneg(BID)), CGen(0))
    w2 = morphism(sp, sp, swap, {0: cert})
    assert check_morphism(sp, sp, w2) == []
    # missing certificate reported
    w3 = MorphismWitness(swap, {})
    laws = {f.law for f in check_morphism(sp, sp, w3)}
    assert "missing-certificate" in laws


def test_a_map_that_is_not_extensional_is_a_finding():
    X = make_setoid(["a", "b"], [("a", "b")])
    Y = discrete(["p", "q"])
    src = space(X, [rconst(X, 0)])
    dst = space(Y, [RFun(Y, {"p": 0, "q": 1})])
    w = MorphismWitness(SetoidFn(X, Y, {"a": "p", "b": "q"}), {0: CGen(0)})
    assert check_morphism(src, dst, w) == [Finding("map-extensional", ("a", "b"))]
    # on the wrong carriers as well: both findings, in that order
    w = MorphismWitness(SetoidFn(X, Y, {"a": "p", "b": "q"}), {})
    assert check_morphism(src, src, w) == [
        Finding("map-extensional", ("a", "b")), Finding("map-carriers")]


def test_lift_replaces_generator_leaves():
    sp = x2_space()
    swap = make_fn(sp.carrier, sp.carrier, {"p": "q", "q": "p"})
    inner = CBic(badd(bconst(1), bneg(BID)), CGen(0))
    w = morphism(sp, sp, swap, {0: inner})
    assert lift_certificate(sp, w, CConst(Fraction(3))) == CConst(Fraction(3))
    assert lift_certificate(sp, w, CGen(0)) == inner
    c = CAdd(CGen(0), CConst(Fraction(1)))
    lifted = lift_certificate(sp, w, c)
    target = RFun(sp.carrier, {"p": 2, "q": 1})
    assert validate_certificate(sp, target, lifted).ok


def test_compose_witnesses_valid():
    sp = x2_space()
    swap = make_fn(sp.carrier, sp.carrier, {"p": "q", "q": "p"})
    cert = CBic(badd(bconst(1), bneg(BID)), CGen(0))
    w = morphism(sp, sp, swap, {0: cert})
    ww = compose_witnesses(sp, sp, sp, w, w)
    assert check_morphism(sp, sp, ww) == []
    for x in sp.carrier.elements:
        assert ww.h(x) == x


def test_product_relative_exponential():
    sp = x2_space()
    one = space(discrete(["o"]), [rconst(discrete(["o"]), 0)], ["c"])
    prod, pr1, pr2 = product_space(sp, one)
    assert len(prod.gens) == 2
    for t in prod.carrier.elements:
        assert prod.gens[0](t) == sp.gens[0](pr1(t))
    sub = make_subset(discrete(["p"]), sp.carrier,
                      make_fn(discrete(["p"]), sp.carrier, {"p": "p"}))
    rel = relative_space(sp, sub)
    assert len(rel.carrier) == 1 and rel.gens[0]("p") == 0
    # all four self-maps of the two-point carrier
    maps = []
    for a in ("p", "q"):
        for b in ("p", "q"):
            maps.append(make_fn(sp.carrier, sp.carrier, {"p": a, "q": b}))
    exp = exponential_space(sp, sp, [MorphismWitness(m, {}) for m in maps])
    assert len(exp.carrier) == 4
    swap_name = next(n for n, m in exp.by_name.items()
                     if m("p") == "q" and m("q") == "p")
    ev_pg = next(
        g for g, nm in zip(exp.gens, exp.names) if nm == "ev[p,f]")
    assert ev_pg(swap_name) == 1  # evaluating the swap at p lands on q
    # transforming a derivation into an evaluation derivation stays valid
    from bspec.topology import exp_eval_certificate

    one_minus = CBic(badd(bconst(1), bneg(BID)), CGen(0))
    ev_cert = exp_eval_certificate(one_minus, "p", exp)
    target = RFun(exp.carrier,
                  {n: 1 - sp.gens[0](exp.by_name[n]("p"))
                   for n in exp.carrier.elements})
    assert validate_certificate(exp, target, ev_cert).ok


def test_find_certificate_search():
    sp = x2_space()
    target = RFun(sp.carrier, {"p": 2, "q": 0})  # 2*(1 - f)
    cert = certificate_for(sp, target)
    assert cert is not None
    assert validate_certificate(sp, target, cert).ok
    assert certificate_for(sp, rconst(sp.carrier, 9)) == CConst(Fraction(9))
    assert certificate_for(sp, sp.gens[0]) == CGen(0)
    # sum of generator and affine image
    target2 = RFun(sp.carrier, {"p": 1, "q": 2})
    cert2 = certificate_for(sp, target2)
    assert cert2 is not None and validate_certificate(sp, target2, cert2).ok


def test_every_map_into_three_levels_is_certified():
    # one generator separates all three points, so every function is a
    # member; a bounded search over sums and affine images found 15 of 27
    carrier = discrete(["a", "b", "c"])
    sp = space(carrier, [RFun(carrier, {"a": 0, "b": Fraction(1, 2), "c": 1})])
    levels = (Fraction(0), Fraction(1, 2), Fraction(1))
    for values in product(levels, repeat=3):
        target = RFun(carrier, dict(zip("abc", values)))
        cert = certificate_for(sp, target)
        assert cert is not None and validate_certificate(sp, target, cert).ok


def test_every_map_on_a_two_bit_space_is_certified():
    # the generators separate all four points only in a weighted sum:
    # g0 + g1 merges (1, 0) and (0, 1), so the construction needs g0 + 2 g1
    carrier = discrete(["p", "q", "r", "s"])
    g0 = RFun(carrier, {"p": 0, "q": 1, "r": 0, "s": 1})
    g1 = RFun(carrier, {"p": 0, "q": 0, "r": 1, "s": 1})
    sp = space(carrier, [g0, g1])
    for values in product((0, 1), repeat=4):
        target = RFun(carrier, dict(zip("pqrs", values)))
        cert = certificate_for(sp, target)
        assert cert is not None and validate_certificate(sp, target, cert).ok
