import pytest

from bspec.order import (
    CofinalSubset,
    NotDirected,
    chain,
    induced_order,
    make_directed,
    product_cofinal,
    product_order,
    top_element,
    validate_cofinal,
    validate_directed,
)
from bspec.report import Finding
from bspec.setoid import discrete, identity, make_fn

from oracles import index_of_pairs
from structures import chain3, eo_cofinal, eo_index


def test_chain3_valid_with_delta():
    d = chain3()
    assert validate_directed(d) == []
    assert top_element(d) == "2"


def test_make_directed_rejects_undirected():
    with pytest.raises(NotDirected):
        make_directed(["0", "1"], [])


def test_an_unbounded_pair_is_upper_missing():
    # the two-element antichain: 0 and 1 have no common upper bound, so `up`
    # refuses the pair and validate_directed lists both orders of it
    bad = index_of_pairs(discrete(["0", "1"]), [("0", "0"), ("1", "1")])
    assert validate_directed(bad) == [Finding("upper-missing", ("0", "1")),
                                      Finding("upper-missing", ("1", "0"))]
    assert bad.up("0", "0") == "0"
    with pytest.raises(NotDirected, match=r"no upper bound for \(0, 1\)"):
        bad.up("0", "1")


def test_an_empty_carrier_is_not_directed():
    with pytest.raises(NotDirected, match="no element is above every element"):
        make_directed(discrete([]), [])


def test_top_of_singleton_and_eo():
    assert top_element(chain(1)) == "0"
    assert top_element(eo_index(2)) == "4"


def test_eo_cofinal_valid():
    for m in (1, 2, 3):
        d = eo_index(m)
        c = eo_cofinal(m)
        assert validate_cofinal(d, c) == []


def test_identity_cofinal():
    d = chain3()
    c = CofinalSubset(d.base, identity(d.base), identity(d.base))
    assert validate_cofinal(d, c) == []


def test_broken_modulus_fails_cof3():
    d = eo_index(1)  # chain {0, 1, 2}
    members = discrete(["0", "2"])
    embed = make_fn(members, d.base, {"0": "0", "2": "2"})
    cof = make_fn(d.base, members, {"0": "0", "1": "0", "2": "2"})
    laws = {f.law for f in validate_cofinal(d, CofinalSubset(members, embed, cof))}
    assert "cof3" in laws  # 1 is not below 0


def test_induced_order_is_directed():
    d = eo_index(2)
    c = eo_cofinal(2)
    j = induced_order(d, c)
    assert validate_directed(j) == []
    assert top_element(j) == "4"


def test_product_order():
    d = product_order(chain3(), chain(1))
    assert validate_directed(d) == []
    assert len(d.elements) == 3
    dd = product_order(chain3(), chain3())
    assert validate_directed(dd) == []
    assert len(dd.elements) == 9
    assert not dd.leq(("0", "2"), ("2", "0")) and not dd.leq(("2", "0"), ("0", "2"))
    assert dd.up(("0", "2"), ("2", "0")) == ("2", "2")


def test_product_cofinal():
    d1, d2 = eo_index(1), eo_index(1)
    c = product_cofinal(d1, eo_cofinal(1), d2, eo_cofinal(1))
    assert validate_cofinal(product_order(d1, d2), c) == []

