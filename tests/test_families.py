import pytest

from bspec.families import (
    COVARIANT,
    CONTRAVARIANT,
    DirectFamily,
    EnumerationBoundExceeded,
    FamilyError,
    FamilyMap,
    NotMonotone,
    all_components_embeddings,
    constant_direct_family,
    constant_family,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    direct_sum_setoid,
    embed_at,
    enumerate_compatible,
    family_map,
    identity_family_map,
    make_direct_family,
    make_family,
    pi_map,
    restrict_family,
    sigma_equality_plain,
    sigma_map,
    sum_projection_raw,
    validate_dependent,
    validate_direct_family,
    validate_family_map,
)
from bspec.fixtures import chain3, collapse_family
from bspec.order import chain
from bspec.setoid import discrete, make_fn, make_setoid, split_tag, tag_token


def test_constant_family_valid():
    fam = constant_direct_family(chain3(), discrete(["p", "q"]))
    assert validate_direct_family(fam) == []


def test_collapse_family_valid():
    assert validate_direct_family(collapse_family()) == []


def test_mutated_transport_caught():
    # like COLLAPSE but with a two-point top carrier, so the composite leg
    # can actually be mutated into disagreement
    carriers = {
        "0": discrete(["a", "b"]),
        "1": discrete(["u", "v"]),
        "2": discrete(["z", "w"]),
    }
    t01 = make_fn(carriers["0"], carriers["1"], {"a": "u", "b": "v"})
    t12 = make_fn(carriers["1"], carriers["2"], {"u": "z", "v": "z"})
    fam = make_direct_family(chain3(), COVARIANT, carriers,
                             {("0", "1"): t01, ("1", "2"): t12})
    broken = dict(fam.transports)
    broken[("0", "2")] = make_fn(carriers["0"], carriers["2"],
                                 {"a": "w", "b": "z"})
    bad = DirectFamily(fam.index, COVARIANT, carriers, broken)
    laws = {f.law for f in validate_direct_family(bad)}
    assert "family-composition" in laws


def test_partial_transport_rejected_at_construction():
    carriers = {
        "0": discrete(["a", "b"]),
        "1": discrete(["u", "v"]),
        "2": discrete(["z"]),
    }
    t01 = make_fn(carriers["0"], carriers["1"], {"a": "u", "b": "v"})
    with pytest.raises(Exception):
        make_fn(carriers["1"], carriers["2"], {"u": "z"})  # not total
    with pytest.raises(FamilyError):
        make_direct_family(chain3(), COVARIANT, carriers, {("0", "1"): t01})


def test_plain_sigma_equality():
    idx = discrete(["i", "j"])
    fam = constant_family(idx, discrete(["x", "y"]))
    assert sigma_equality_plain(fam, "i", "x", "i", "x")
    assert not sigma_equality_plain(fam, "i", "x", "j", "x")  # discrete index


def test_plain_sigma_relates_along_bijection():
    idx = make_setoid(["0", "1"], [("0", "1")])
    a = discrete(["x", "y"])
    swap = make_fn(a, a, {"x": "y", "y": "x"})
    fam = make_family(idx, {"0": a, "1": a}, {("0", "1"): swap})
    assert sigma_equality_plain(fam, "0", "x", "1", "y")
    assert not sigma_equality_plain(fam, "0", "x", "1", "x")


def test_direct_sum_equality_on_collapse():
    fam = collapse_family()
    assert direct_sum_equality(fam, "0", "a", "0", "b")
    assert direct_sum_equality(fam, "0", "a", "2", "z")
    assert direct_sum_equality_exhaustive(fam, "0", "a", "0", "b")
    s = direct_sum_setoid(fam)
    assert s.class_count() == 1


def test_top_canonicalization_matches_exhaustive_search():
    fam = collapse_family()
    for a in direct_sum_setoid(fam).elements:
        for b in direct_sum_setoid(fam).elements:
            i, x = split_tag(a)
            j, y = split_tag(b)
            assert direct_sum_equality(fam, i, x, j, y) == \
                direct_sum_equality_exhaustive(fam, i, x, j, y)


def test_identity_transports_reduce_to_pointwise():
    fam = constant_direct_family(chain3(), discrete(["p", "q"]))
    assert direct_sum_equality(fam, "0", "p", "2", "p")
    assert not direct_sum_equality(fam, "0", "p", "1", "q")


def test_dependent_choices():
    fam = collapse_family()
    ok = {"0": "a", "1": "u", "2": "z"}
    bad = {"0": "a", "1": "v", "2": "z"}
    assert validate_dependent(fam, ok, COVARIANT) == []
    findings = validate_dependent(fam, bad, COVARIANT)
    assert findings and findings[0].witness == ("0", "1")
    assert validate_dependent(fam, ok, CONTRAVARIANT)[0].law == "flavor-mismatch"


def test_enumerate_compatible_covariant():
    fam = collapse_family()
    found = enumerate_compatible(fam, COVARIANT)
    # a choice is forced by its value at the bottom carrier here
    assert {tuple(sorted(d.items())) for d in found} == {
        (("0", "a"), ("1", "u"), ("2", "z")),
        (("0", "b"), ("1", "v"), ("2", "z")),
    }


def test_enumerate_compatible_bounds_search_nodes():
    # 4^10 > 10^6 carrier-size product, yet the pruned search is small
    fam = constant_direct_family(chain(10), discrete(["a", "b", "c", "d"]),
                                 CONTRAVARIANT)
    assert len(enumerate_compatible(fam, CONTRAVARIANT)) == 4
    with pytest.raises(EnumerationBoundExceeded,
                       match=r"enumerate_compatible .* bound=10 "):
        enumerate_compatible(fam, CONTRAVARIANT, bound=10)


def test_family_map_and_sigma():
    fam = collapse_family()
    const = constant_direct_family(chain3(), discrete(["z"]))
    comps = {
        i: make_fn(fam.carrier(i), const.carrier(i),
                   {x: "z" for x in fam.carrier(i).elements})
        for i in fam.index.elements
    }
    m = family_map(fam, const, comps)
    sm = sigma_map(fam, const, m)
    assert sm(tag_token("0", "a")) == tag_token("0", "z")
    ok, witness = all_components_embeddings(m)
    assert not ok  # the 0-component collapses a and b
    ident = identity_family_map(fam)
    si = sigma_map(fam, fam, ident)
    for el in direct_sum_setoid(fam).elements:
        assert si(el) == el


def test_naturality_failure_detected():
    fam = collapse_family()
    const = constant_direct_family(chain3(), discrete(["u", "v"]))
    comps = {
        "0": make_fn(fam.carrier("0"), const.carrier("0"), {"a": "u", "b": "v"}),
        "1": make_fn(fam.carrier("1"), const.carrier("1"), {"u": "v", "v": "u"}),
        "2": make_fn(fam.carrier("2"), const.carrier("2"), {"z": "u"}),
    }
    findings = validate_family_map(fam, const, FamilyMap(comps))
    assert any(f.law == "naturality" for f in findings)


def test_tagging_map_is_function_but_not_embedding():
    fam = collapse_family()
    s = direct_sum_setoid(fam)
    e0 = embed_at(fam, "0", s)
    # e0 respects equality but identifies a and b in the sum
    assert s.eq(e0("a"), e0("b"))
    assert not fam.carrier("0").eq("a", "b")


def test_sum_projection_is_raw():
    assert sum_projection_raw(tag_token("1", "u")) == "1"


def test_pi_map_acts_componentwise():
    fam = collapse_family()
    ident = identity_family_map(fam)
    phi = {"0": "a", "1": "u", "2": "z"}
    assert pi_map(fam, fam, ident, phi) == phi


def test_restrict_family_to_evens():
    fam = collapse_family()
    sub = chain(2, names=["0", "2"])
    h = make_fn(sub.base, fam.index.base, {"0": "0", "2": "2"})
    r = restrict_family(fam, sub, h)
    assert validate_direct_family(r) == []
    assert r.transport("0", "2")("a") == "z"  # composite through 1
    bad = chain(2, names=["2", "0"])
    hbad = make_fn(bad.base, fam.index.base, {"2": "2", "0": "0"})
    with pytest.raises(NotMonotone):
        restrict_family(fam, bad, hbad)


def test_restrict_constant_family_stays_constant():
    fam = constant_direct_family(chain3(), discrete(["p"]))
    sub = chain(2, names=["0", "2"])
    h = make_fn(sub.base, fam.index.base, {"0": "0", "2": "2"})
    r = restrict_family(fam, sub, h)
    assert r.carrier("0").elements == ("p",)
