"""Inverse limits read off the top component, against the backtracking
search over every compatible choice they replaced: the same classes, the
same generators and the same top-determinacy verdict, on valid random
spectra, on families broken by hand and on products, whose carriers are
not discrete.  On discrete carriers the two list the same tokens in the
same order, which reaches reports through `token_of` and the export.
The carrier and projections built on a list of choices are compared with
the by-token build they replaced.  Hypothesis runs derandomized, so the
suite stays deterministic."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from bspec import runner
from bspec.dsl import Elaborated, parse
from bspec.families import CONTRAVARIANT, DirectFamily
from bspec.limits import (
    _choice_key,
    _choice_key_at,
    _limit_of_choices,
    inverse_limit,
    top_determinacy_check,
)
from bspec.order import chain
from bspec.runner import run_suite
from bspec.setoid import SetoidFn, discrete, make_fn
from bspec.spectra import Spectrum, constant_spectrum, product_spectrum
from bspec.topology import RFun, space

from oracles import (
    enumerate_compatible,
    inverse_limit_backtracking,
    limit_of_choices_by_token,
    read_in_full,
    validate_dependent,
)
from randgen import random_directed_index, random_spectrum

seeds = st.integers(min_value=0, max_value=2**32 - 1)
FAULTS = ("none", "swapped-identity", "not-composing", "product")


def _class_map(rng, dom, cod):
    """A random extensional table: each class of `dom` to one element of `cod`."""
    table = {}
    for cls in dom.classes():
        v = rng.choice(cod.elements)
        table.update(dict.fromkeys(cls, v))
    return SetoidFn(dom, cod, table)


def _small(rng):
    return random_spectrum(rng, random_directed_index(rng, max_size=2),
                           CONTRAVARIANT)


def _drawn(seed, fault):
    """A contravariant randgen spectrum, the product of two small ones, or
    one with a fault put in by hand: a transport along some i <= i that
    permutes the classes, or transports along non-reflexive pairs replaced
    by random extensional tables (so composites need not agree)."""
    rng = random.Random(seed)
    if fault == "product":
        return product_spectrum(_small(rng), _small(rng))[0]
    s = random_spectrum(rng, direction=CONTRAVARIANT)
    fam, index = s.fam, s.index
    transports = dict(fam.transports)
    if fault == "swapped-identity":
        i = rng.choice(index.elements)
        X = fam.carrier(i)
        reps = [cls[0] for cls in X.classes()]
        to = dict(zip(reps, reps[1:] + reps[:1]))
        transports[(i, i)] = SetoidFn(
            X, X, {x: to[X.class_repr(x)] for x in X.elements})
    elif fault == "not-composing":
        edges = [p for p in index.order_pairs() if p[0] != p[1]] or index.order_pairs()
        for i, j in rng.sample(edges, rng.randint(1, len(edges))):
            transports[(i, j)] = _class_map(rng, fam.carrier(j), fam.carrier(i))
    fam = DirectFamily(index, CONTRAVARIANT, fam.carriers, transports)
    return Spectrum(fam, s.spaces, s.witness_certs, s.pool)


def _by_class(lim):
    """Per class, in carrier order: its choice key, and the values of each
    generator, by name."""
    at, classes = _choice_key_at(lim.spectrum), lim.carrier.classes()
    keys = []
    for cls in classes:
        members = {_choice_key(at, lim.assignments[tok]) for tok in cls}
        assert len(members) == 1  # a class is one key
        keys.append(members.pop())
    gens = {name: [g.values[cls[0]] for cls in classes]
            for name, g in zip(lim.space.names, lim.space.gens)}
    return keys, list(lim.space.names), gens


def _top_class_fixes_the_class(lim):
    """Choices with equal top components are equal: the law whose check
    `top_determinacy_check` no longer makes."""
    s = lim.spectrum
    X = s.fam.carrier(s.fam.top())
    seen = {}
    for tok, a in lim.assignments.items():
        first = seen.setdefault(X.class_id[a[s.fam.top()]], tok)
        if not lim.carrier.eq(first, tok):
            return False
    return True


def _discrete(s):
    return all(s.fam.carrier(i).is_discrete() for i in s.index.elements)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(FAULTS))
def test_inverse_limit_matches_the_backtracking_search(seed, fault):
    s = _drawn(seed, fault)
    got, want = inverse_limit(s), inverse_limit_backtracking(s)
    assert got.class_count() == want.class_count()
    assert _by_class(got) == _by_class(want)
    assert top_determinacy_check(got) == top_determinacy_check(want)
    assert _top_class_fixes_the_class(want)
    if _discrete(s):
        assert got.carrier.elements == want.carrier.elements
        assert got.assignments == want.assignments


def _built(lim):
    """What a limit builder makes of its choices: the carrier's tokens and
    classes, each generator's values, names and source, the first token of
    each key, and each token's choice."""
    return (lim.carrier.elements, lim.carrier.classes(),
            [g.values for g in lim.space.gens], lim.space.names,
            lim.gen_sources, lim.by_key, lim.assignments)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(seeds, st.sampled_from(FAULTS))
def test_the_limit_of_choices_is_the_by_token_build(seed, fault):
    # the choices read off the top, and every compatible choice the
    # backtracking search lists, many of them equal
    s = _drawn(seed, fault)
    lim = inverse_limit(s)
    fam = s.fam
    listed = [a for a in enumerate_compatible(fam, CONTRAVARIANT)
              if not validate_dependent(fam, a, CONTRAVARIANT)]
    for choices in ([lim.assignments[tok] for tok in lim.carrier.elements], listed):
        assert _built(_limit_of_choices(s, choices)) == _built(
            limit_of_choices_by_token(s, choices))


def test_draws_reach_both_verdicts_and_non_discrete_carriers():
    verdicts, discrete_kinds = set(), set()
    for fault in FAULTS:
        for seed in range(40):
            s = _drawn(seed, fault)
            verdicts.add(top_determinacy_check(inverse_limit(s)))
            discrete_kinds.add(_discrete(s))
    assert verdicts == {True, False}
    assert discrete_kinds == {True, False}


def test_product_with_many_equal_choices():
    # the backtracking search lists 66,049 choices in 4 classes here; read
    # off the top, there is one per top element
    s = random_spectrum(random.Random(12), direction=CONTRAVARIANT)
    prod, _ = product_spectrum(s, s)
    lim = inverse_limit(prod)
    assert lim.class_count() == 4
    assert len(lim.carrier.elements) == 9
    assert top_determinacy_check(lim)


def _broken_composite():
    """A constant 3-point spectrum over the chain 0 <= 1 <= 2 whose
    transport along (0, 2) swaps p and q instead of being the identity
    composite: only r pulls back from the top to a compatible choice."""
    X = discrete(["p", "q", "r"])
    base = constant_spectrum(chain(3), space(X, [RFun(X, {
        "p": Fraction(0), "q": Fraction(1), "r": Fraction(2)})]),
        direction=CONTRAVARIANT)
    transports = dict(base.fam.transports)
    transports[("0", "2")] = make_fn(X, X, {"p": "q", "q": "p", "r": "r"})
    fam = DirectFamily(base.index, CONTRAVARIANT, base.fam.carriers, transports)
    return Spectrum(fam, base.spaces, read_in_full(base)[1], base.pool)


def test_top_determinacy_fails_when_a_composite_breaks():
    s = _broken_composite()
    lim = inverse_limit(s)
    assert [a["2"] for a in lim.assignments.values()] == ["r"]
    assert not top_determinacy_check(lim)
    assert not top_determinacy_check(inverse_limit_backtracking(s))
    env = Elaborated(spectra={"S": s})
    doc = parse("suite main {\n  check: limit-inverse S\n}\n")
    with mock.patch.object(runner, "elaborate", lambda _: env):
        report = run_suite(doc)
    assert [(r.law, r.status) for r in report.records] == [
        ("limit.S.top-determinacy", "fail"), ("limit.S.export", "pass")]
