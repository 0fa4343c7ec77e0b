import pytest

from bspec.setoid import (
    DuplicateElement,
    EmptyCarrier,
    NotClassConstant,
    NotEquivalence,
    NotExtensional,
    SetoidFn,
    check_extensional,
    compose,
    discrete,
    factor_through_quotient,
    fn_equal,
    identity,
    is_embedding,
    make_fn,
    make_setoid,
    make_subset,
    product_setoid,
    quotient_by,
)

from oracles import verify_unique_factoring


def test_discrete_two_point():
    s = make_setoid(["p", "q"])
    assert s.eq("p", "p")
    assert not s.eq("p", "q")
    assert s.class_count() == 2


def test_collapsed_pair_is_one_class():
    s = make_setoid(["a", "b"], [("a", "b")])
    assert s.eq("a", "b")
    assert s.class_count() == 1


def test_closure_is_transitive():
    # {x,y,z} with x~y and y~z relates all three by closure
    s = make_setoid(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert s.eq("x", "z")
    assert s.class_count() == 1


def test_duplicate_and_empty_rejected():
    with pytest.raises(DuplicateElement):
        make_setoid(["a", "a"])
    with pytest.raises(EmptyCarrier):
        make_setoid([])
    assert len(make_setoid([], empty=True)) == 0


def test_extensionality_check():
    dom = make_setoid(["a", "b"], [("a", "b")])
    cod = discrete(["p", "q"])
    f = SetoidFn(dom, cod, {"a": "p", "b": "q"})
    ok, witness = check_extensional(f)
    assert not ok and set(witness) == {"a", "b"}
    with pytest.raises(NotExtensional):
        make_fn(dom, cod, {"a": "p", "b": "q"})
    for x in dom.elements:
        g = make_fn(dom, cod, {"a": "p", "b": "p"})
        assert check_extensional(g)[0]
    assert check_extensional(identity(dom))[0]


def test_compose_in_diagram_order():
    a = discrete(["a", "b"])
    u = discrete(["u", "v"])
    z = discrete(["z"])
    f = make_fn(a, u, {"a": "u", "b": "v"})
    g = make_fn(u, z, {"u": "z", "v": "z"})
    h = compose(f, g)
    assert h("a") == "z" and h("b") == "z"
    assert fn_equal(compose(identity(a), f), f)
    assert fn_equal(compose(f, identity(u)), f)


def test_embedding_check():
    two = discrete(["a", "b"])
    one = discrete(["z"])
    assert is_embedding(identity(two))[0]
    collapse = make_fn(two, one, {"a": "z", "b": "z"})
    ok, witness = is_embedding(collapse)
    assert not ok and set(witness) == {"a", "b"}
    sub = make_subset(discrete(["a"]), two, make_fn(discrete(["a"]), two, {"a": "a"}))
    assert is_embedding(sub.inject)[0]


def test_quotient_validation():
    s = discrete(["a", "b", "c"])
    full = [(x, y) for x in s.elements for y in s.elements]
    q = quotient_by(s, full)
    assert q.class_count() == 1
    ident = [(x, x) for x in s.elements]
    assert quotient_by(s, ident).class_count() == 3
    with pytest.raises(NotEquivalence):
        quotient_by(s, [("a", "b")] + ident)
    merged = make_setoid(["a", "b"], [("a", "b")])
    with pytest.raises(NotExtensional):
        quotient_by(merged, [("a", "a"), ("b", "b")])


def test_factor_through_quotient():
    s = discrete(["a", "b", "c"])
    rel = set([(x, x) for x in s.elements] + [("a", "b"), ("b", "a")])
    q = quotient_by(s, rel)
    cod = discrete(["p", "q"])
    f = make_fn(s, cod, {"a": "p", "b": "p", "c": "q"})
    g = factor_through_quotient(f, q)
    canon = q.canonical()
    for x in s.elements:
        assert cod.eq(g(canon(x)), f(x))
    assert verify_unique_factoring(f, q, g) is True
    bad = make_fn(s, cod, {"a": "p", "b": "q", "c": "q"})
    with pytest.raises(NotClassConstant):
        factor_through_quotient(bad, q)


def test_factor_constant_map():
    s = discrete(["a", "b"])
    rel = [(x, y) for x in s.elements for y in s.elements]
    q = quotient_by(s, rel)
    cod = discrete(["z"])
    f = make_fn(s, cod, {"a": "z", "b": "z"})
    g = factor_through_quotient(f, q)
    assert g("a") == "z"


def test_product_setoid_equality():
    x = make_setoid(["a", "b"], [("a", "b")])
    y = discrete(["p", "q"])
    p = product_setoid(x, y)
    assert p.eq(("a", "p"), ("b", "p"))
    assert not p.eq(("a", "p"), ("a", "q"))
    assert p.class_count() == 2
