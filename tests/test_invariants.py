"""Cross-module laws that do not fit a single unit-test file: embedding
propagation through sums and limits, cyclic preorders, and runner exit
behavior on skipped laws."""

import random

from bspec.duality import compose_action, enumerate_morphisms
from bspec.families import (
    CONTRAVARIANT,
    constant_direct_family,
    direct_sum_setoid,
    FamilyMap,
    sigma_map,
)
from bspec.limits import (
    Limits,
    direct_limit,
    inverse_limit_map,
    limit_map,
)
from bspec.order import make_directed
from bspec.report import Finding
from bspec.setoid import compose, discrete, is_embedding, make_fn
from bspec.spectra import constant_spectrum
from bspec.topology import RFun, exponential_space, rconst, space

from randgen import random_spectrum, thicken_spectrum
from structures import chain3, collapse_family, constant_cspec, x2_space
from thread_laws import check_induced_square, family_map


def test_postcompose_covariant_on_composition():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    mc = exponential_space(sp, sp, mors)
    names = mc.carrier.elements
    for n1 in names:
        for n2 in names:
            mu, nu = mc.witnesses[n1], mc.witnesses[n2]
            comp = compose(nu.h, mu.h)  # mu after nu
            act_comp = compose_action(comp, mc, mc, False)
            act_mu = compose_action(mu.h, mc, mc, False)
            act_nu = compose_action(nu.h, mc, mc, False)
            for n in names:
                assert mc.carrier.eq(act_comp(n), act_mu(act_nu(n)))


def test_sigma_map_embedding_propagation():
    fam = collapse_family()
    ident = family_map(fam, fam, {
        i: make_fn(fam.carrier(i), fam.carrier(i),
                   {x: x for x in fam.carrier(i).elements})
        for i in fam.index.elements
    })
    s = direct_sum_setoid(fam)
    sm = sigma_map(ident, s, s)
    assert is_embedding(sm)[0]


def test_limit_map_embedding_propagation():
    rng = random.Random(12)
    for _ in range(5):
        s = random_spectrum(rng)
        t, incl = thicken_spectrum(rng, s)
        fwd = limit_map(s, t, incl, Limits()).h  # raises if not embedding
        assert is_embedding(fwd)[0]
    for _ in range(5):
        s = random_spectrum(rng, direction=CONTRAVARIANT)
        t, incl = thicken_spectrum(rng, s)
        fwd = inverse_limit_map(s, t, incl, Limits()).h
        assert is_embedding(fwd)[0]


def test_cyclic_preorder_limit_is_one_carrier():
    # two mutually related indices: the limit classes are the carrier itself
    index = make_directed(["0", "1"], [("0", "1"), ("1", "0")])
    sp = x2_space()
    s = constant_spectrum(index, sp, (0, 1))
    lim = direct_limit(s)
    assert lim.class_count() == 2
    for x in sp.carrier.elements:
        assert lim.carrier.eq(("0", x), ("1", x))


def test_induced_square_with_collapse_map():
    s = constant_cspec()
    pt = discrete(["o"])
    tgt = constant_spectrum(chain3(), space(pt, [rconst(pt, 0)], ["c"]), (0, 1))
    comps = {
        i: make_fn(s.fam.carrier(i), pt,
                   {x: "o" for x in s.fam.carrier(i).elements})
        for i in s.index.elements
    }
    psi = FamilyMap(comps)
    for edge in s.fam.order_pairs():
        assert check_induced_square(s, tgt, psi, edge)


def test_runner_skip_keeps_exit_zero(tmp_path, capsys):
    from bspec.cli import main

    doc = tmp_path / "skip.bsp"
    doc.write_text("""\
setoid B0 {
  elements: a, b
}
setoid B1 {
  elements: u
}
directed D2 {
  elements: 0, 1
  order: 0 <= 1
}
family GAPPED {
  index: D2
  direction: contravariant
  carrier 0: B0
  carrier 1: B1
  map 0 -> 1: u => a
}
subbase G0 {
  carrier: B0
  gen g0: a => 0, b => 1
}
subbase G1 {
  carrier: B1
  gen g1: u => 0
}
subbase ONE {
  carrier: B1
  gen c: u => 0
}
spectrum GSPEC {
  family: GAPPED
  space 0: G0
  space 1: G1
  witness 0 -> 1 g0: (gen g1)
}
pool P {
  spectrum: GSPEC
  space: ONE
  search: auto
}
suite main {
  check: converse-duals P
}
""")
    assert main(["check", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "skip" in out and "1 skipped" in out


def check_postcompose_is_morphism(mu_pool, from_pool, fixed, dst):
    """The post-composition action is a morphism of exponential spaces:
    evaluating the composite at a point is evaluation at the image point,
    which is itself a generator of the action's source subbase.  The maps
    of mu_pool run into dst; those of from_pool run from fixed into where
    the maps of mu_pool start."""
    findings = []
    for theta_name, theta in from_pool.witnesses.items():
        for x in fixed.carrier.elements:
            for k, g0 in enumerate(dst.gens):
                values = {name: g0(mu.h(theta.h(x)))
                          for name, mu in mu_pool.witnesses.items()}
                target = RFun(mu_pool.carrier, values)
                pos = mu_pool.positions.get((theta.h(x), k))
                if pos is None or mu_pool.gens[pos].values != target.values:
                    findings.append(Finding("postcompose-gen", (theta_name, x, k)))
    return findings


def test_postcompose_is_exponential_morphism():
    sp = x2_space()
    mors = enumerate_morphisms(sp, sp)
    mc = exponential_space(sp, sp, mors)
    assert check_postcompose_is_morphism(mc, mc, sp, sp) == []


def test_sigma_map_collapse_counterexample():
    fam = collapse_family()
    const = constant_direct_family(chain3(), discrete(["z"]))
    collapse = family_map(fam, const, {
        i: make_fn(fam.carrier(i), const.carrier(i),
                   {x: "z" for x in fam.carrier(i).elements})
        for i in fam.index.elements
    })
    src = direct_sum_setoid(fam)
    dst = direct_sum_setoid(const)
    sm = sigma_map(collapse, src, dst)
    # COLLAPSE already has a one-class sum, so this particular collapse is
    # still injective on classes; a genuinely two-class source shows the
    # counterexample
    two = constant_direct_family(chain3(), discrete(["p", "q"]))
    crush = family_map(two, const, {
        i: make_fn(two.carrier(i), const.carrier(i), {"p": "z", "q": "z"})
        for i in two.index.elements
    })
    src2 = direct_sum_setoid(two)
    sm2 = sigma_map(crush, src2, dst)
    ok, witness = is_embedding(sm2)
    assert not ok and witness is not None


def test_inverse_limit_over_product_index():
    # index tokens of a product order contain commas; projection generator
    # provenance must survive them
    from bspec.limits import cone_mediator, inverse_limit, own_legs
    from bspec.order import chain
    from bspec.spectra import product_spectrum

    s = constant_spectrum(chain(2), x2_space(), (0, 1), CONTRAVARIANT)
    prod, _ = product_spectrum(s, s)
    lim = inverse_limit(prod)
    assert lim.class_count() == 4
    cone = own_legs(lim)
    w = cone_mediator(prod, lim, cone)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(w.h(tok), tok)


def test_second_duality_over_product_index():
    from bspec.duality import duality_inverse_hom, enumerate_morphisms
    from bspec.order import chain
    from bspec.spectra import product_spectrum

    s = constant_spectrum(chain(2), x2_space(), (0, 1), CONTRAVARIANT)
    prod, _ = product_spectrum(s, s)
    one = space(discrete(["o"]), [rconst(discrete(["o"]), 0)], ["c"])
    pools = {ij: enumerate_morphisms(one, prod.space(ij))
             for ij in prod.index.elements}
    res = duality_inverse_hom(prod, one, pools, Limits())
    assert res.findings == []


def test_cofinal_iso_over_product_index():
    # componentwise cofinal subset of a product order, exercised through
    # the full restriction-and-isomorphism pipeline
    from structures import eo_cofinal, eo_index, x2_space
    from bspec.limits import Limits, cofinal_direct_iso
    from bspec.order import product_cofinal, product_order
    from bspec.spectra import constant_spectrum

    d = eo_index(1)
    c = eo_cofinal(1)
    prod = product_order(d, d)
    pc = product_cofinal(d, c, d, c)
    s = constant_spectrum(prod, x2_space(), (0, 1))
    iso = cofinal_direct_iso(s, pc, Limits())
    assert iso.findings == []
