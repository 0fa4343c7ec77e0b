from fractions import Fraction

import pytest

from bspec.families import CONTRAVARIANT, make_direct_family
from bspec.fixtures import (
    chain3,
    constant_cspec,
    cspec,
    eo_cofinal,
    eo_index,
    x2_space,
)
from bspec.limits import (
    Cocone,
    Cone,
    IllFormedCocone,
    cocone_mediator,
    cofinal_direct_iso,
    cofinal_inverse_iso,
    common_representatives,
    cone_mediator,
    direct_limit,
    inverse_limit,
    inverse_limit_map,
    limit_legs_cocone,
    limit_map,
    limit_projections_cone,
    product_inverse_morphism,
    product_limit_bijection,
    top_determinacy_check,
)
from bspec.order import chain
from bspec.setoid import discrete, fn_equal, is_embedding, make_fn, tag_token
from bspec.spectra import (
    SpectrumMap,
    constant_spectrum,
    identity_spectrum_map,
    compose_spectrum_maps,
)
from bspec.topology import (
    CConst,
    CGen,
    MorphismWitness,
    RFun,
    check_morphism,
    rconst,
    space,
)


def test_collapse_limit_is_a_point():
    lim = direct_limit(cspec())
    assert lim.class_count() == 1
    i, x = lim.canonical(tag_token("0", "a"))
    assert (i, x) == ("2", "z")


def test_constant_spectrum_limit_matches_space():
    lim = direct_limit(constant_cspec())
    assert lim.class_count() == 2


def test_embed_maps_are_extensional_and_commute():
    s = cspec()
    lim = direct_limit(s)
    for i, j in s.fam.order_pairs():
        via = make_fn(
            s.fam.carrier(i), lim.carrier,
            {x: lim.embed(j)(s.fam.transport(i, j)(x))
             for x in s.fam.carrier(i).elements})
        assert fn_equal(via, lim.embed(i))


def test_limit_own_legs_give_identity_mediator():
    s = constant_cspec()
    lim = direct_limit(s)
    c = limit_legs_cocone(lim)
    w = cocone_mediator(s, lim, c)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(w.h(tok), tok)


def test_cocone_into_point_space():
    s = cspec()
    lim = direct_limit(s)
    pt = discrete(["o"])
    apex = space(pt, [rconst(pt, 0)], ["c"])
    legs = {
        i: MorphismWitness(
            make_fn(s.fam.carrier(i), pt,
                    {x: "o" for x in s.fam.carrier(i).elements}),
            {0: CConst(Fraction(0))})
        for i in s.index.elements
    }
    w = cocone_mediator(s, lim, Cocone(apex, legs))
    assert all(w.h(tok) == "o" for tok in lim.carrier.elements)


def test_constant_spectrum_identity_cocone_gives_iso():
    s = constant_cspec()
    lim = direct_limit(s)
    apex = x2_space()
    from bspec.setoid import identity as sid

    legs = {
        i: MorphismWitness(sid(apex.carrier), {0: CGen(0)})
        for i in s.index.elements
    }
    w = cocone_mediator(s, lim, Cocone(apex, legs))
    # classwise, the mediator reads off the representative value
    for tok in lim.carrier.elements:
        i, x = tok.split("@", 1)
        assert w.h(tok) == x
    ok, _ = is_embedding(w.h)
    assert ok


def test_ill_formed_cocone_rejected():
    s = constant_cspec()
    lim = direct_limit(s)
    pt = discrete(["o"])
    apex = space(pt, [rconst(pt, 0)], ["c"])
    legs = {
        i: MorphismWitness(
            make_fn(s.fam.carrier(i), pt,
                    {x: "o" for x in s.fam.carrier(i).elements}),
            {0: CConst(Fraction(0))})
        for i in s.index.elements
    }
    legs["1"] = MorphismWitness(legs["1"].h, {})  # drop the certificate
    with pytest.raises(IllFormedCocone):
        cocone_mediator(s, lim, Cocone(apex, legs))


def test_limit_map_identity_and_composition():
    s = constant_cspec()
    lim = direct_limit(s)
    ident = identity_spectrum_map(s)
    fwd, w = limit_map(s, s, ident, lim, lim)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(fwd(tok), tok)
    assert w is not None
    assert check_morphism(lim.space, lim.space, w) == []
    composed = compose_spectrum_maps(s, s, s, ident, ident)
    fwd2, _ = limit_map(s, s, composed, lim, lim)
    assert fn_equal(fwd2, fwd)


def test_limit_map_collapse():
    s = cspec()
    pt = discrete(["z"])
    tsp = constant_spectrum(chain3(), space(pt, [rconst(pt, 0)], ["c"]), (0, 1))
    comps = {
        i: make_fn(s.fam.carrier(i), pt,
                   {x: "z" for x in s.fam.carrier(i).elements})
        for i in s.index.elements
    }
    conts = {i: {0: CConst(Fraction(0))} for i in s.index.elements}
    psi = SpectrumMap(comps, conts)
    fwd, w = limit_map(s, tsp, psi)
    assert w is not None


def test_common_representatives():
    s = cspec()
    lim = direct_limit(s)
    i, xs = common_representatives(lim, [tag_token("0", "a")])
    assert (i, xs) == ("0", ["a"])
    i, xs = common_representatives(lim, [tag_token("0", "a"), tag_token("0", "b")])
    assert i == "2" and xs == ["z", "z"]


def test_cofinal_direct_identity_subset():
    from bspec.order import CofinalSubset
    from bspec.setoid import identity as sid

    s = constant_cspec()
    cof = CofinalSubset(s.index.base, sid(s.index.base), sid(s.index.base))
    iso = cofinal_direct_iso(s, cof)
    assert iso.findings == []
    for tok in iso.forward.dom.elements:
        assert iso.forward.cod.eq(iso.forward(tok), tok)


def test_cofinal_direct_eo1():
    d = eo_index(1)
    sp = constant_spectrum(d, x2_space(), (0, 1))
    iso = cofinal_direct_iso(sp, eo_cofinal(1))
    assert iso.findings == []


def test_cofinal_direct_collapse_style():
    s = cspec()
    iso = cofinal_direct_iso(s, eo_cofinal(1))
    assert iso.findings == []


def test_product_limit_bijection_constant():
    s = constant_cspec()
    res = product_limit_bijection(s, s)
    assert res.findings == []
    assert res.counts == (4, 2, 2)


def test_product_limit_bijection_cspec():
    s = cspec()
    res = product_limit_bijection(s, s)
    assert res.findings == []
    assert res.counts == (1, 1, 1)


# --- inverse side ------------------------------------------------------------

def _reversed_collapse_spectrum():
    """Contravariant spectrum over CHAIN3 with bijective downward transports."""
    carriers = {
        "0": discrete(["a", "b"]),
        "1": discrete(["u", "v"]),
        "2": discrete(["z", "w"]),
    }
    t10 = make_fn(carriers["1"], carriers["0"], {"u": "a", "v": "b"})
    t21 = make_fn(carriers["2"], carriers["1"], {"z": "u", "w": "v"})
    fam = make_direct_family(chain3(), CONTRAVARIANT, carriers,
                             {("0", "1"): t10, ("1", "2"): t21})
    from bspec.topology import RFun, Subbase

    f2 = RFun(carriers["2"], {"z": 0, "w": 1})
    f1 = RFun(carriers["1"], {"u": 0, "v": 1})
    f0 = RFun(carriers["0"], {"a": 0, "b": 1})
    subbases = {
        "0": Subbase(carriers["0"], (f0,), ("f0",)),
        "1": Subbase(carriers["1"], (f1,), ("f1",)),
        "2": Subbase(carriers["2"], (f2,), ("f2",)),
    }
    certs = {
        ("0", "1"): {0: CGen(0)},  # f0 . t10 = f1
        ("1", "2"): {0: CGen(0)},  # f1 . t21 = f2 on {z, w}
    }
    from bspec.spectra import Spectrum, validate_spectrum

    sp = Spectrum(fam, subbases, certs, (Fraction(0), Fraction(1)))
    assert validate_spectrum(sp) == []
    return sp


def test_inverse_limit_constant_spectrum():
    s = constant_spectrum(chain3(), x2_space(), (0, 1), direction=CONTRAVARIANT)
    lim = inverse_limit(s)
    assert lim.class_count() == 2  # constant choices only
    assert top_determinacy_check(lim)


def test_inverse_limit_long_chain_within_default_bound():
    carrier = discrete(["a", "b", "c", "d"])
    sp = space(carrier, [RFun(carrier, {"a": 0, "b": 1, "c": 2, "d": 3})], ["f"])
    s = constant_spectrum(chain(10), sp, direction=CONTRAVARIANT)
    lim = inverse_limit(s)
    assert lim.class_count() == 4
    assert top_determinacy_check(lim)


def test_inverse_limit_reversed_collapse():
    sp = _reversed_collapse_spectrum()
    lim = inverse_limit(sp)
    assert lim.class_count() == 2  # one choice per top-carrier element
    assert top_determinacy_check(lim)


def test_inverse_limit_empty_carrier():
    carriers = {
        "0": discrete([], ) if False else discrete(["a"]),
        "1": discrete(["u"]),
        "2": discrete([], ),
    }
    # an empty top carrier leaves nothing compatible
    from bspec.setoid import make_setoid

    carriers["2"] = make_setoid([], empty=True)
    t10 = make_fn(carriers["1"], carriers["0"], {"u": "a"})
    t21 = make_fn(carriers["2"], carriers["1"], {})
    fam = make_direct_family(chain3(), CONTRAVARIANT, carriers,
                             {("0", "1"): t10, ("1", "2"): t21})
    from bspec.spectra import Spectrum
    from bspec.topology import Subbase

    subbases = {i: Subbase(carriers[i], ()) for i in fam.index.elements}
    sp = Spectrum(fam, subbases, {("0", "1"): {}, ("1", "2"): {}}, (0,))
    lim = inverse_limit(sp)
    assert len(lim.carrier) == 0


def test_cone_mediator_projections_identity():
    sp = _reversed_collapse_spectrum()
    lim = inverse_limit(sp)
    cone = limit_projections_cone(lim)
    w = cone_mediator(sp, lim, cone)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(w.h(tok), tok)


def test_cone_mediator_constant_spectrum():
    s = constant_spectrum(chain3(), x2_space(), (0, 1), direction=CONTRAVARIANT)
    lim = inverse_limit(s)
    apex = x2_space()
    from bspec.setoid import identity as sid

    legs = {i: MorphismWitness(sid(apex.carrier), {0: CGen(0)})
            for i in s.index.elements}
    w = cone_mediator(s, lim, Cone(apex, legs))
    # p maps to the constant-p choice
    tok = w.h("p")
    assert lim.assignments[tok]["0"] == "p"


def test_inverse_limit_map_identity_and_functoriality():
    sp = _reversed_collapse_spectrum()
    lim = inverse_limit(sp)
    ident = identity_spectrum_map(sp)
    fwd, w = inverse_limit_map(sp, sp, ident, lim, lim)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(fwd(tok), tok)
    assert w is not None
    composed = compose_spectrum_maps(sp, sp, sp, ident, ident)
    fwd2, _ = inverse_limit_map(sp, sp, composed, lim, lim)
    assert fn_equal(fwd2, fwd)


def test_cofinal_inverse_identity_and_eo():
    from bspec.order import CofinalSubset
    from bspec.setoid import identity as sid

    sp = _reversed_collapse_spectrum()
    cof = CofinalSubset(sp.index.base, sid(sp.index.base), sid(sp.index.base))
    iso = cofinal_inverse_iso(sp, cof)
    assert iso.findings == []
    d = eo_index(1)
    s2 = constant_spectrum(d, x2_space(), (0, 1), direction=CONTRAVARIANT)
    iso2 = cofinal_inverse_iso(s2, eo_cofinal(1))
    assert iso2.findings == []


def test_product_inverse_morphism_constant():
    s = constant_spectrum(chain3(), x2_space(), (0, 1), direction=CONTRAVARIANT)
    res = product_inverse_morphism(s, s)
    assert res.findings == []
    assert res.counts[0] == res.counts[1] * res.counts[2] == 4
