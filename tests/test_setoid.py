import pytest

from bspec.setoid import (
    DuplicateElement,
    EmptyCarrier,
    NotExtensional,
    Setoid,
    SetoidFn,
    check_extensional,
    compose,
    discrete,
    fn_equal,
    identity,
    is_embedding,
    make_fn,
    make_setoid,
    make_subset,
    product_setoid,
    setoid_by_key,
)


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


def test_product_setoid_equality():
    x = make_setoid(["a", "b"], [("a", "b")])
    y = discrete(["p", "q"])
    p = product_setoid(x, y)
    assert p.eq(("a", "p"), ("b", "p"))
    assert not p.eq(("a", "p"), ("a", "q"))
    assert p.class_count() == 2


def test_keys_are_relabelled_by_first_member():
    # the classes are numbered by first member whatever the keys are, so
    # every reader of the labelling agrees with the classes
    s = setoid_by_key(("a", "b", "c"), [1, 0, 1])
    assert s.class_id == {"a": 0, "b": 1, "c": 0}
    assert s.classes() == [("a", "c"), ("b",)]
    assert s.class_repr("c") == "a"
    assert s.class_count() == 2 and not s.is_discrete()


@pytest.mark.parametrize("call", [
    lambda: Setoid(("a", "b"), {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}),
    lambda: Setoid(("a", "b", "c"), class_id={"a": 1, "b": 0, "c": 1}),
])
def test_a_pair_set_or_a_hand_labelling_is_no_carrier(call):
    # the constructor takes a builder's labelling and its class count; a
    # pair set or a bare labelling is refused, not read as one
    with pytest.raises(TypeError):
        call()
