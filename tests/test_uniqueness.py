"""Differential tests: the uniqueness decision on class ids against the
enumeration of every candidate and the class-by-class decision it replaced,
and the certificate construction against the exhaustive search (all kept in
`oracles.py`).  Hypothesis runs derandomized, so the suite stays
deterministic."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.limits import (
    InverseLimit,
    Legs,
    NonUnique,
    _check_unique_cone_mediator,
    _check_unique_mediator,
    cocone_mediator,
    cone_mediator,
    direct_limit,
    inverse_limit,
    own_legs,
)
from bspec.setoid import SetoidFn, discrete, make_setoid
from bspec.topology import (
    MorphismWitness,
    RFun,
    cert_conclusion,
    certificate_for,
    find_certificate,
    space,
    validate_certificate,
)
from oracles import (
    check_unique_cone_mediator_classwise,
    check_unique_cone_mediator_exhaustive,
    check_unique_mediator_classwise,
    check_unique_mediator_exhaustive,
    closure_rst,
    equality_pairs,
    find_certificate_exhaustive,
    unique_classwise,
    verify_unique_factoring,
    verify_unique_factoring_exhaustive,
)
from randgen import (
    random_certificate,
    random_direct_family,
    random_directed_index,
    random_spectrum,
    random_spectrum_with_cocone,
    random_spectrum_with_cone,
)

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
BOUNDS = (1, 8, 1_000_000)


def _outcome(check, *args):
    try:
        return check(*args)
    except NonUnique as exc:
        return ("NonUnique", str(exc))


def _random_table(rng, dom, cod):
    return SetoidFn(dom, cod, {x: rng.choice(cod.elements) for x in dom.elements})


def _cocone_cases(seed):
    """A direct limit with its own cocone or a random valid one, its
    mediator, and random legs and maps in their place."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        index = random_directed_index(rng)
        fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
        s = random_spectrum(rng, index, COVARIANT, family=fam)
        lim = direct_limit(s)
        c = own_legs(lim)
    else:
        s, c = random_spectrum_with_cocone(rng)
        lim = direct_limit(s)
    h = cocone_mediator(s, lim, c).h
    apex = c.apex.carrier
    legs = {i: MorphismWitness(_random_table(rng, s.fam.carrier(i), apex), {})
            if rng.random() < 0.3 else c.legs[i]
            for i in s.index.elements}
    other = Legs(c.apex, legs)
    h2 = _random_table(rng, lim.carrier, apex)
    bound = rng.choice(BOUNDS)
    return [(lim, c, h, bound), (lim, c, h2, bound), (lim, other, h, bound),
            (lim, other, h2, bound)]


def _cone_cases(seed):
    """An inverse limit with its own cone or a random valid one, its
    mediator, and random legs and maps in their place."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        index = random_directed_index(rng)
        fam = random_direct_family(rng, index, CONTRAVARIANT, allow_merged=True)
        s = random_spectrum(rng, index, CONTRAVARIANT, family=fam)
        lim = inverse_limit(s)
        c = own_legs(lim)
    else:
        s, c = random_spectrum_with_cone(rng)
        lim = inverse_limit(s)
    h = cone_mediator(s, lim, c).h
    apex = c.apex.carrier
    legs = {i: MorphismWitness(_random_table(rng, apex, s.fam.carrier(i)), {})
            if rng.random() < 0.3 else c.legs[i]
            for i in s.index.elements}
    other = Legs(c.apex, legs)
    h2 = _random_table(rng, apex, lim.carrier)
    bound = rng.choice(BOUNDS)
    return [(s, lim, c, h, bound), (s, lim, c, h2, bound),
            (s, lim, other, h, bound), (s, lim, other, h2, bound)]


def _quotient(X, rel):
    """X's elements under the equivalence `rel`, in one of whose classes
    every class of X lies."""
    return make_setoid(X.elements, rel, empty=True)


def _factoring(f, quo):
    """The map off `quo` that f factors through, or None when f separates
    two elements `quo` identifies."""
    ids = f.cod.class_id
    for cls in quo.classes():
        if len({ids[f(x)] for x in cls}) > 1:
            return None
    return SetoidFn(quo, f.cod, f.table())


def _factoring_case(seed):
    """f on a random setoid, a random quotient carrier, and g the factoring
    of f when there is one, else a random map off the quotient."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    els = [f"e{k}" for k in range(n)]
    X = make_setoid(els, [(rng.choice(els), rng.choice(els))
                          for _ in range(rng.randint(0, 1))])
    rel = closure_rst(els, list(equality_pairs(X))
                      + [(rng.choice(els), rng.choice(els))
                         for _ in range(rng.randint(0, 2))])
    quo = _quotient(X, rel)
    size = rng.randint(1, 3)
    cod = make_setoid(["p", "q", "r"][:size],
                      [("p", "q")] if size > 1 and rng.random() < 0.3 else [])
    f = _random_table(rng, X, cod)
    g = _factoring(f, quo)
    if g is None or rng.random() < 0.3:
        g = _random_table(rng, quo, cod)
    return f, quo, g, rng.choice(BOUNDS)


@FAST
@given(seeds)
def test_cocone_uniqueness_matches_enumeration(seed):
    for lim, c, h, bound in _cocone_cases(seed):
        keyed = _outcome(_check_unique_mediator, lim, c, h, bound)
        assert keyed == _outcome(check_unique_mediator_exhaustive, lim, c, h, bound)
        assert keyed == _outcome(check_unique_mediator_classwise, lim, c, h, bound)


@FAST
@given(seeds)
def test_cone_uniqueness_matches_enumeration(seed):
    for s, lim, c, h, bound in _cone_cases(seed):
        keyed = _outcome(_check_unique_cone_mediator, s, lim, c, h, bound)
        assert keyed == _outcome(check_unique_cone_mediator_exhaustive,
                                 s, lim, c, h, bound)
        assert keyed == _outcome(check_unique_cone_mediator_classwise,
                                 s, lim, c, h, bound)


@FAST
@given(seeds)
def test_keyed_uniqueness_matches_the_classwise_decision_unbounded(seed):
    """The keyed decision against `unique_classwise` with no bound, where
    the enumeration would be too large to run."""
    for lim, c, h, _ in _cocone_cases(seed):
        assert (_outcome(_check_unique_mediator, lim, c, h, float("inf"))
                == _outcome(check_unique_mediator_classwise, lim, c, h, float("inf")))
    for s, lim, c, h, _ in _cone_cases(seed):
        assert (_outcome(_check_unique_cone_mediator, s, lim, c, h, float("inf"))
                == _outcome(check_unique_cone_mediator_classwise,
                            s, lim, c, h, float("inf")))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds)
def test_unique_factoring_matches_enumeration(seed):
    f, quo, g, bound = _factoring_case(seed)
    assert (verify_unique_factoring(f, quo, g, bound)
            == verify_unique_factoring_exhaustive(f, quo, g, bound))


def test_random_cases_reach_every_outcome():
    # the seeds above meet unique, second-mediator and unbounded answers
    direct, inverse, factoring = set(), set(), set()
    for seed in range(30):
        direct.update(_outcome(check_unique_mediator_exhaustive, *case)
                      for case in _cocone_cases(seed))
        inverse.update(_outcome(check_unique_cone_mediator_exhaustive, *case)
                       for case in _cone_cases(seed))
        factoring.add(verify_unique_factoring_exhaustive(*_factoring_case(seed)))
    assert {True, None,
            ("NonUnique", "a second mediator satisfies all triangles")} <= direct
    assert {True, None,
            ("NonUnique", "a second cone mediator satisfies all triangles")} <= inverse
    assert factoring == {True, False, None}


def test_defective_inverse_limit_is_not_unique():
    # two tokens of a discrete carrier carry the same compatible choice, so
    # both serve the one-point cone: a kernel defect, found by both paths
    s = random_spectrum(random.Random(0), direction=CONTRAVARIANT)
    choice = next(iter(inverse_limit(s).assignments.values()))
    carrier = discrete(["t1", "t2"])
    lim = InverseLimit(s, carrier, {"t1": choice, "t2": dict(choice)},
                       space(carrier, []))
    apex = space(discrete(["y"]), [])
    cone = Legs(apex, {
        i: MorphismWitness(SetoidFn(apex.carrier, s.fam.carrier(i),
                                    {"y": choice[i]}), {})
        for i in s.index.elements})
    h = SetoidFn(apex.carrier, carrier, {"y": "t1"})
    expected = ("NonUnique", "a second cone mediator satisfies all triangles")
    for check in (_check_unique_cone_mediator, check_unique_cone_mediator_exhaustive,
                  check_unique_cone_mediator_classwise):
        assert _outcome(check, s, lim, cone, h, 10) == expected


def test_factoring_with_no_admissible_value_is_unique():
    # f separates a ~ b, so no map off the quotient factors it
    X = discrete(["a", "b"])
    quo = _quotient(X, closure_rst(["a", "b"], [("a", "b")]))
    cod = discrete(["p", "q"])
    f = SetoidFn(X, cod, {"a": "p", "b": "q"})
    g = SetoidFn(quo, cod, {"a": "q", "b": "q"})
    assert verify_unique_factoring(f, quo, g) is True
    assert verify_unique_factoring_exhaustive(f, quo, g) is True


def test_factoring_against_a_map_that_is_not_class_constant():
    X = discrete(["a", "b", "c"])
    quo = _quotient(X, closure_rst(["a", "b", "c"], [("a", "b")]))
    cod = discrete(["p", "q"])
    f = SetoidFn(X, cod, {"a": "p", "b": "p", "c": "q"})
    g = SetoidFn(quo, cod, {"a": "p", "b": "q", "c": "q"})
    # the only factoring sends b to p, where g does not
    assert verify_unique_factoring(f, quo, g) is False
    assert verify_unique_factoring_exhaustive(f, quo, g) is False
    assert verify_unique_factoring(f, quo, _factoring(f, quo)) is True


def test_factoring_against_a_map_on_another_domain():
    # such a g equals no candidate map off the quotient
    cod = discrete(["p"])
    other = SetoidFn(discrete(["z"]), cod, {"z": "p"})
    empty = discrete([])
    cases = [(SetoidFn(empty, cod, {}), _quotient(empty, []))]
    X = discrete(["a", "b"])
    for rel in ([], [("a", "b")]):
        quo = _quotient(X, closure_rst(["a", "b"], rel))
        cases.append((SetoidFn(X, cod, {"a": "p", "b": "p"}), quo))
    for f, quo in cases:
        assert (verify_unique_factoring(f, quo, other)
                is verify_unique_factoring_exhaustive(f, quo, other) is False)
    two = discrete(["p", "q"])
    f = SetoidFn(X, two, {"a": "p", "b": "q"})
    quo = _quotient(X, closure_rst(["a", "b"], [("a", "b")]))
    g = SetoidFn(discrete(["z"]), two, {"z": "p"})
    # f separates a ~ b, so there is no factoring at all
    assert (verify_unique_factoring(f, quo, g)
            is verify_unique_factoring_exhaustive(f, quo, g) is True)


def test_unique_classwise_decides_class_by_class():
    classes = [("a",), ("b", "c"), ("d",)]
    values = [0, 1]
    given_map = {"a": 0, "b": 1, "c": 1, "d": 0}

    def differs(cls, v):
        return any(given_map[x] != v for x in cls)

    def only_given(cls, v):
        return v == given_map[cls[0]]

    assert unique_classwise(classes, values, lambda cls, v: True, differs) is False
    assert unique_classwise(classes, values, only_given, differs) is True
    # a class with no admissible value makes the answer vacuous
    assert unique_classwise(classes, values,
                            lambda cls, v: cls != ("d",), differs) is True
    assert unique_classwise([], values, lambda cls, v: True, differs) is True


# --- certificate search -------------------------------------------------------

VALUES = [Fraction(q) for q in (-1, 0, 1, 2)] + [Fraction(1, 2)]


def _certificate_case(seed):
    """A 2-4 point space with up to two generators, and a target that is
    either a random table or the conclusion of a random derivation."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    els = [f"x{k}" for k in range(n)]
    carrier = make_setoid(els, [(els[0], els[1])] if rng.random() < 0.2 else [])

    def table():
        out = {}
        for cls in carrier.classes():
            v = rng.choice(VALUES)
            out.update({x: v for x in cls})
        return RFun(carrier, out)

    sp = space(carrier, [table() for _ in range(rng.randint(0, 2))])
    if sp.gens and rng.random() < 0.5:
        target = cert_conclusion(sp, random_certificate(rng, sp, depth=3))
    else:
        target = table()
    return sp, target


def _block_constant(sp, target):
    """Constant on the blocks of points that no generator separates."""
    blocks = {}
    return all(
        blocks.setdefault(tuple(g(x) for g in sp.gens), target(x)) == target(x)
        for x in sp.carrier.elements)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(seeds)
def test_construction_finds_exactly_the_block_constant_targets(seed):
    sp, target = _certificate_case(seed)
    for find in (find_certificate, certificate_for):
        cert = find(sp, target)
        assert (cert is not None) == _block_constant(sp, target)
        if cert is not None:
            assert validate_certificate(sp, target, cert).ok
    if find_certificate_exhaustive(sp, target, depth=3, cap=150) is not None:
        assert find_certificate(sp, target) is not None


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(seeds)
def test_every_block_constant_target_is_constructed(seed):
    sp, _ = _certificate_case(seed)
    rng = random.Random(seed)
    level = {}
    target = RFun(sp.carrier, {
        x: level.setdefault(tuple(g(x) for g in sp.gens), rng.choice(VALUES))
        for x in sp.carrier.elements})
    cert = find_certificate(sp, target)
    assert cert is not None and validate_certificate(sp, target, cert).ok


def test_certificate_cases_reach_both_answers():
    answers = {find_certificate_exhaustive(*_certificate_case(seed), depth=3,
                                           cap=150) is None
               for seed in range(30)}
    assert answers == {True, False}


def test_target_separating_unseparated_points_is_refuted():
    carrier = discrete(["a", "b", "c"])
    g = RFun(carrier, {"a": 0, "b": 0, "c": 1})
    sp = space(carrier, [g])
    # no generator separates a from b
    target = RFun(carrier, {"a": 0, "b": 1, "c": 1})
    assert find_certificate(sp, target) is None
    assert find_certificate_exhaustive(sp, target, depth=2, cap=100) is None
    reachable = RFun(carrier, {"a": 3, "b": 3, "c": 1})
    assert (find_certificate(sp, reachable)
            == find_certificate_exhaustive(sp, reachable))
