from fractions import Fraction

import pytest

from bspec.families import CONTRAVARIANT, FamilyMap, identity_family_map, make_direct_family
from bspec.limits import (
    IllFormedLegs,
    Legs,
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
    top_determinacy_check,
)
from bspec.order import chain
from bspec.setoid import compose, discrete, fn_equal, is_embedding, make_fn
from bspec.spectra import constant_spectrum
from bspec.topology import (
    CConst,
    CGen,
    MorphismWitness,
    RFun,
    check_morphism,
    rconst,
    space,
)

from structures import (
    chain3,
    constant_cspec,
    cspec,
    eo_cofinal,
    eo_index,
    x2_space,
)


def test_collapse_limit_is_a_point():
    lim = direct_limit(cspec())
    assert lim.class_count() == 1
    i, x = lim.canonical(("0", "a"))
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
            {x: lim.leg(j)(s.fam.transport(i, j)(x))
             for x in s.fam.carrier(i).elements})
        assert fn_equal(via, lim.leg(i))


def test_limit_own_legs_give_identity_mediator():
    s = constant_cspec()
    lim = direct_limit(s)
    c = own_legs(lim)
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
    w = cocone_mediator(s, lim, Legs(apex, legs))
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
    w = cocone_mediator(s, lim, Legs(apex, legs))
    # classwise, the mediator reads off the representative value
    for tok in lim.carrier.elements:
        i, x = tok
        assert w.h(tok) == x
    ok, _ = is_embedding(w.h)
    assert ok


def _constants_only():
    """The two points p, q whose only generator is the constant 0: a map
    into it is a morphism, one out of it that separates p and q is not."""
    X = discrete(["p", "q"])
    return space(X, [rconst(X, 0)], ["z"])


def _identity_legs(s, src, dst):
    """The identity of {p, q} at every index, certified by CGen(0), which
    claims the pulled-back generator is the source's first one."""
    h = make_fn(src.carrier, dst.carrier, {"p": "p", "q": "q"})
    return {i: MorphismWitness(h, {0: CGen(0)}) for i in s.index.elements}


def test_ill_formed_cocone_rejected():
    # every triangle commutes, but no leg is a morphism: the apex generator
    # separates p and q, and the spaces of the spectrum hold only constants
    z = _constants_only()
    s = constant_spectrum(chain3(), z)
    apex = x2_space()
    with pytest.raises(IllFormedLegs):
        cocone_mediator(s, direct_limit(s), Legs(apex, _identity_legs(s, z, apex)))


def test_ill_formed_cone_rejected():
    z = _constants_only()
    s = constant_spectrum(chain3(), x2_space(), direction=CONTRAVARIANT)
    lim = inverse_limit(s)
    legs = _identity_legs(s, z, x2_space())
    with pytest.raises(IllFormedLegs, match="witness-certificate"):
        cone_mediator(s, lim, Legs(z, legs))
    # the cone mediator reads the leg certificates: a missing one is refused
    bare = {i: MorphismWitness(w.h, {}) for i, w in legs.items()}
    with pytest.raises(IllFormedLegs, match="missing-certificate"):
        cone_mediator(s, lim, Legs(z, bare))


def test_limit_map_identity_and_composition():
    s = constant_cspec()
    lims = Limits()
    lim = lims.direct(s)
    ident = identity_family_map(s.fam)
    w = limit_map(s, s, ident, lims)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(w.h(tok), tok)
    assert check_morphism(lim.space, lim.space, w) == []
    twice = FamilyMap({i: compose(f, f) for i, f in ident.comps.items()})
    assert fn_equal(limit_map(s, s, twice, lims).h, w.h)


def test_limit_map_collapse():
    s = cspec()
    pt = discrete(["z"])
    tsp = constant_spectrum(chain3(), space(pt, [rconst(pt, 0)], ["c"]), (0, 1))
    comps = {
        i: make_fn(s.fam.carrier(i), pt,
                   {x: "z" for x in s.fam.carrier(i).elements})
        for i in s.index.elements
    }
    lims = Limits()
    w = limit_map(s, tsp, FamilyMap(comps), lims)
    assert check_morphism(lims.direct(s).space, lims.direct(tsp).space, w) == []


def test_cofinal_direct_identity_subset():
    from bspec.order import CofinalSubset
    from bspec.setoid import identity as sid

    s = constant_cspec()
    cof = CofinalSubset(s.index.base, sid(s.index.base), sid(s.index.base))
    iso = cofinal_direct_iso(s, cof, Limits())
    assert iso.findings == []
    for tok in iso.forward.dom.elements:
        assert iso.forward.cod.eq(iso.forward(tok), tok)


def test_cofinal_direct_eo1():
    d = eo_index(1)
    sp = constant_spectrum(d, x2_space(), (0, 1))
    iso = cofinal_direct_iso(sp, eo_cofinal(1), Limits())
    assert iso.findings == []


def test_cofinal_direct_collapse_style():
    s = cspec()
    iso = cofinal_direct_iso(s, eo_cofinal(1), Limits())
    assert iso.findings == []


def test_product_limit_bijection_constant():
    s = constant_cspec()
    res = product_limit_bijection(s, s, Limits())
    assert res.findings == []
    assert res.counts == (4, 2, 2)


def test_product_limit_bijection_cspec():
    s = cspec()
    res = product_limit_bijection(s, s, Limits())
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
    from bspec.topology import BSpace, RFun

    f2 = RFun(carriers["2"], {"z": 0, "w": 1})
    f1 = RFun(carriers["1"], {"u": 0, "v": 1})
    f0 = RFun(carriers["0"], {"a": 0, "b": 1})
    spaces = {
        "0": BSpace(carriers["0"], (f0,), ("f0",)),
        "1": BSpace(carriers["1"], (f1,), ("f1",)),
        "2": BSpace(carriers["2"], (f2,), ("f2",)),
    }
    certs = {
        ("0", "1"): {0: CGen(0)},  # f0 . t10 = f1
        ("1", "2"): {0: CGen(0)},  # f1 . t21 = f2 on {z, w}
    }
    from bspec.spectra import Spectrum, validate_spectrum

    sp = Spectrum(fam, spaces, certs, (Fraction(0), Fraction(1)))
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
    from bspec.topology import BSpace

    spaces = {i: BSpace(carriers[i], ()) for i in fam.index.elements}
    sp = Spectrum(fam, spaces, {("0", "1"): {}, ("1", "2"): {}}, (0,))
    lim = inverse_limit(sp)
    assert len(lim.carrier) == 0


def test_cone_mediator_projections_identity():
    sp = _reversed_collapse_spectrum()
    lim = inverse_limit(sp)
    cone = own_legs(lim)
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
    w = cone_mediator(s, lim, Legs(apex, legs))
    # p maps to the constant-p choice
    tok = w.h("p")
    assert lim.assignments[tok]["0"] == "p"


def test_inverse_limit_map_identity_and_functoriality():
    sp = _reversed_collapse_spectrum()
    lims = Limits()
    lim = lims.inverse(sp)
    ident = identity_family_map(sp.fam)
    w = inverse_limit_map(sp, sp, ident, lims)
    for tok in lim.carrier.elements:
        assert lim.carrier.eq(w.h(tok), tok)
    assert check_morphism(lim.space, lim.space, w) == []
    twice = FamilyMap({i: compose(f, f) for i, f in ident.comps.items()})
    assert fn_equal(inverse_limit_map(sp, sp, twice, lims).h, w.h)


def test_cofinal_inverse_identity_and_eo():
    from bspec.order import CofinalSubset
    from bspec.setoid import identity as sid

    sp = _reversed_collapse_spectrum()
    cof = CofinalSubset(sp.index.base, sid(sp.index.base), sid(sp.index.base))
    iso = cofinal_inverse_iso(sp, cof, Limits())
    assert iso.findings == []
    d = eo_index(1)
    s2 = constant_spectrum(d, x2_space(), (0, 1), direction=CONTRAVARIANT)
    iso2 = cofinal_inverse_iso(s2, eo_cofinal(1), Limits())
    assert iso2.findings == []


def test_product_inverse_morphism_constant():
    s = constant_spectrum(chain3(), x2_space(), (0, 1), direction=CONTRAVARIANT)
    res = product_inverse_morphism(s, s, Limits())
    assert res.findings == []
    assert res.counts[0] == res.counts[1] * res.counts[2] == 4
