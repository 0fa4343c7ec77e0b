import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from bspec import limits
from bspec.dsl import parse
from bspec.families import CONTRAVARIANT
from bspec.duality import (
    DualityError,
    PoolNotClosed,
    compose_action,
    converse_dual_direct,
    converse_dual_inverse,
    duality_direct_to_inverse,
    duality_inverse_hom,
    enumerate_morphisms,
    induce_spectrum,
)
from bspec.limits import Limits
from bspec.report import Finding
from bspec.runner import run_suite
from bspec.setoid import compose, discrete, fn_equal, identity, make_fn
from bspec.spectra import constant_spectrum, validate_spectrum
from bspec.topology import (
    BSpace,
    CGen,
    RFun,
    check_morphism,
    exp_eval_certificate,
    exponential_space,
    rconst,
    space,
    validate_certificate,
)

from structures import chain3, constant_cspec, cspec, x2_space


def one_point_space():
    pt = discrete(["o"])
    return space(pt, [rconst(pt, 0)], ["c"])


def test_enumerate_morphisms_on_two_point_space():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    assert len(mors) == 4  # all set maps certify against the 0/1 generator
    for w in mors:
        assert check_morphism(sp, sp, w) == []


def test_a_pool_is_enumerated_once_per_pair_of_spaces():
    s, fixed, lims = constant_cspec(), one_point_space(), Limits()
    with mock.patch.object(limits, "enumerate_morphisms",
                           wraps=enumerate_morphisms) as enum:
        into = [lims.pool(s.space(i), fixed) for i in s.index.elements]
        out_of = [lims.pool(fixed, s.space(i)) for i in s.index.elements]
    # the constant spectrum has one space at every index
    assert enum.call_count == 2
    assert all(p is into[0] for p in into) and all(p is out_of[0] for p in out_of)
    assert [(w.h.mapping, w.certs) for w in into[0]] == \
        [(w.h.mapping, w.certs) for w in enumerate_morphisms(s.space("0"), fixed)]


def test_a_suite_run_enumerates_each_pool_once():
    doc = parse(Path(__file__).resolve().parent.parent.joinpath(
        "fixtures", "constant.bsp").read_text())
    with mock.patch.object(limits, "enumerate_morphisms",
                           wraps=enumerate_morphisms) as enum:
        run_suite(doc)
    pairs = [(id(src), id(dst)) for (src, dst), _ in enum.call_args_list]
    assert pairs and len(pairs) == len(set(pairs))


def test_mor_carrier_equality_is_pointwise():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    mc = exponential_space(sp, sp, mors)
    assert mc.carrier.class_count() == 4
    assert mc.find(identity(sp.carrier)) is not None


def test_precompose_and_postcompose_actions():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    mc = exponential_space(sp, sp, mors)
    swap_name = next(n for n in mc.carrier.elements
                     if mc.witnesses[n].h("p") == "q" and mc.witnesses[n].h("q") == "p")
    swap = mc.witnesses[swap_name]
    act = compose_action(swap.h, mc, mc, True)
    # composing with the swap twice is the identity action
    act2 = {n: act(act(n)) for n in mc.carrier.elements}
    for n in mc.carrier.elements:
        assert mc.carrier.eq(act2[n], n)
    # swap+(swap) = identity morphism
    ident_name = mc.find(identity(sp.carrier))
    assert mc.carrier.eq(act(swap_name), ident_name)
    post = compose_action(swap.h, mc, mc, False)
    assert mc.carrier.eq(post(swap_name), ident_name)


def test_action_contravariance_on_composition():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    mc = exponential_space(sp, sp, mors)
    names = mc.carrier.elements
    for n1 in names:
        for n2 in names:
            lam, kap = mc.witnesses[n1], mc.witnesses[n2]
            comp = compose(kap.h, lam.h)  # lam after kap
            comp_name = mc.find(comp)
            act_comp = compose_action(comp, mc, mc, True)
            act_lam = compose_action(lam.h, mc, mc, True)
            act_kap = compose_action(kap.h, mc, mc, True)
            for n in names:
                assert mc.carrier.eq(act_comp(n), act_kap(act_lam(n)))


def check_precompose_is_morphism(lam_pool, from_pool, src, fixed):
    """The pre-composition action is itself a morphism of exponential
    spaces: every evaluation generator pulls back to a transformed
    derivation over the action's source evaluation subbase.  The maps of
    lam_pool run from src into the space the maps of from_pool start at."""
    findings = []
    for phi_name, phi in from_pool.witnesses.items():
        for y in src.carrier.elements:
            for k, f0 in enumerate(fixed.gens):
                # pulled generator: lam -> f0(phi(lam(y)))
                values = {name: f0(phi.h(lam.h(y)))
                          for name, lam in lam_pool.witnesses.items()}
                target = RFun(lam_pool.carrier, values)
                cert = exp_eval_certificate(phi.certs[k], y, lam_pool)
                if not validate_certificate(lam_pool, target, cert).ok:
                    findings.append(Finding("precompose-cert", (phi_name, y, k)))
    return findings


def test_precompose_is_exponential_morphism():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    mc = exponential_space(sp, sp, mors)
    assert check_precompose_is_morphism(mc, mc, sp, sp) == []


def test_induced_spectra_constant_source():
    s = constant_cspec()
    sp = x2_space()
    pools = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    for hom_into in (True, False):
        spec = induce_spectrum(s, sp, hom_into, pools)
        assert validate_spectrum(spec) == []
        # identity transports on the pool
        for (i, j) in spec.fam.order_pairs():
            tr = spec.fam.transport(i, j)
            for n in tr.dom.elements:
                src_w = spec.space(j if hom_into else i).witnesses[n]
                dst_name = tr(n)
                dst_pool = spec.space(i if hom_into else j)
                assert fn_equal(dst_pool.witnesses[dst_name].h, src_w.h)


def test_induced_spectrum_one_point_fixed():
    s = cspec()
    one = one_point_space()
    pools = {i: enumerate_morphisms(s.space(i), one) for i in s.index.elements}
    spec = induce_spectrum(s, one, True, pools)
    assert validate_spectrum(spec) == []
    for i in s.index.elements:
        assert spec.space(i).carrier.class_count() == 1


def test_pool_not_closed_detected():
    # homs into X2 over cspec are pre-composed with the transports: drop
    # from the pool at 0 what the transport of (0, 1) makes of the first
    # hom at 1
    s2, sp = cspec(), x2_space()
    pools = {i: enumerate_morphisms(s2.space(i), sp) for i in s2.index.elements}
    image = compose(s2.fam.transport("0", "1"), pools["1"][0].h)
    pools["0"] = [w for w in pools["0"] if not fn_equal(w.h, image)]
    with pytest.raises(PoolNotClosed, match=r"^edge \(0, 1\) pushes 1\.m0 out of the pool$"):
        induce_spectrum(s2, sp, True, pools)


def test_duality_principle_constant_spectrum():
    s = constant_cspec()
    sp = x2_space()
    pools = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    res = duality_direct_to_inverse(s, sp, pools, Limits())
    assert res.findings == []
    assert res.hom_pool.carrier.class_count() == 4


def test_duality_principle_one_point_fixed():
    s = cspec()
    one = one_point_space()
    pools = {i: enumerate_morphisms(s.space(i), one) for i in s.index.elements}
    res = duality_direct_to_inverse(s, one, pools, Limits())
    assert res.findings == []
    assert res.hom_pool.carrier.class_count() == 1


def test_duality_principle_cspec_01_pool():
    s = cspec()
    sp = x2_space()
    pools = {i: enumerate_morphisms(s.space(i), sp) for i in s.index.elements}
    res = duality_direct_to_inverse(s, sp, pools, Limits())
    assert res.findings == []
    # both sides are in bijection, so cardinalities agree
    assert res.hom_pool.carrier.class_count() == len(res.to_hom.dom.elements)


def _contra_constant(spx):
    return constant_spectrum(chain3(), spx, (0, 1), direction=CONTRAVARIANT)


def test_second_duality_constant_spectrum():
    sp = x2_space()
    s = _contra_constant(sp)
    pools = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    res = duality_inverse_hom(s, sp, pools, Limits())
    assert res.findings == []
    assert res.hom_pool.carrier.class_count() == 4


def test_second_duality_one_point_fixed():
    sp = x2_space()
    s = _contra_constant(sp)
    one = one_point_space()
    pools = {i: enumerate_morphisms(one, sp) for i in s.index.elements}
    res = duality_inverse_hom(s, one, pools, Limits())
    assert res.findings == []
    # one side is the inverse-limit carrier itself (two constant choices)
    assert res.hom_pool.carrier.class_count() == 2


def test_converse_dual_inverse_constant():
    sp = x2_space()
    s = _contra_constant(sp)
    pools = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    res = converse_dual_inverse(s, sp, pools, Limits())
    assert res.findings == []
    assert res.hypothesis_holds is True
    assert res.embedding_checked


def test_converse_dual_inverse_hypothesis_fails():
    # a contravariant spectrum where some element has no compatible choice
    # through it: the top transport misses one element below
    from bspec.families import make_direct_family
    from bspec.spectra import Spectrum, complete_witnesses

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
    certs = {("0", "1"): {0: CGen(0)}, ("1", "2"): {0: CGen(0)}}
    s = Spectrum(fam, spaces, complete_witnesses(fam, spaces, certs),
                 (Fraction(0), Fraction(1)))
    assert validate_spectrum(s) == []
    one = one_point_space()
    pools = {i: enumerate_morphisms(s.space(i), one) for i in s.index.elements}
    res = converse_dual_inverse(s, one, pools, Limits())
    assert res.findings == []  # morphism property still verified
    assert res.hypothesis_holds is False
    assert res.hypothesis_witness == ("0", "b")
    assert not res.embedding_checked


def test_converse_dual_direct_constant():
    sp = x2_space()
    s = constant_cspec()
    pools = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    res = converse_dual_direct(s, sp, pools, Limits())
    assert res.findings == []


def test_converse_dual_direct_one_point_fixed():
    s = cspec()
    one = one_point_space()
    pools = {i: enumerate_morphisms(one, s.space(i)) for i in s.index.elements}
    res = converse_dual_direct(s, one, pools, Limits())
    assert res.findings == []


def test_enumerate_morphisms_cap():
    big = space(discrete([f"e{k}" for k in range(8)]),
                [rconst(discrete([f"e{k}" for k in range(8)]), 0)])
    with pytest.raises(DualityError, match=re.escape(
            "map space |dst|^|src classes| = 8^8 = 16777216 exceeds the bound "
            "cap=10")):
        enumerate_morphisms(big, big, cap=10)


def test_enumerate_morphisms_names_the_default_cap():
    pts = discrete([f"e{k}" for k in range(6)])
    six = space(pts, [rconst(pts, 0)])
    with pytest.raises(DualityError, match=re.escape(
            "= 6^6 = 46656 exceeds the bound cap=4096")):
        enumerate_morphisms(six, six)
