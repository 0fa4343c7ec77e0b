"""The certificate fold and the certify helpers.

lift_certificate and exp_eval_certificate are calls to
topology.map_cert; each is checked against the walk it replaced (kept in
tests/oracles.py) on random derivations, some under uniform-limit nodes.
Hypothesis runs derandomized, so the suite stays deterministic."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bspec.setoid import SetoidFn, make_setoid
from bspec.topology import (
    CConst,
    CEq,
    CGen,
    MorphismWitness,
    RFun,
    cert_conclusion,
    certify_map,
    culim,
    exp_eval_certificate,
    exponential_space,
    lift_certificate,
    space,
)

from oracles import (
    exp_eval_certificate_walk,
    lift_certificate_walk,
    outcome,
)
from randgen import random_certificate, random_rational

FAST = settings(derandomize=True, max_examples=120, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _space(rng, name):
    els = [f"{name}{k}" for k in range(rng.randint(1, 4))]
    carrier = make_setoid(els)
    gens = [RFun(carrier, {x: random_rational(rng) for x in els})
            for _ in range(rng.randint(1, 3))]
    return space(carrier, gens)


def _map(rng, src, dst):
    return SetoidFn(src.carrier, dst.carrier,
                    {x: rng.choice(dst.carrier.elements) for x in src.carrier.elements})


def _derivation(rng, sp):
    """A random derivation over sp, under a uniform-limit node one time in
    three."""
    c = random_certificate(rng, sp)
    if rng.random() < 1 / 3:
        c = culim(cert_conclusion(sp, c), [(1, c), (2, random_certificate(rng, sp))])
    return c


@FAST
@given(seeds)
def test_lift_certificate_matches_the_walk(seed):
    rng = random.Random(seed)
    src, dst = _space(rng, "x"), _space(rng, "y")
    certs = {k: _derivation(rng, src) for k in range(len(dst.gens))}
    if rng.random() < 0.2:
        certs.pop(rng.randrange(len(dst.gens)))
    w = MorphismWitness(_map(rng, src, dst), certs)
    c = _derivation(rng, dst)
    assert outcome(lift_certificate, src, w, c) == outcome(lift_certificate_walk, src, w, c)


@FAST
@given(seeds)
def test_exp_eval_certificate_matches_the_walk(seed):
    rng = random.Random(seed)
    src, dst = _space(rng, "x"), _space(rng, "y")
    exp = exponential_space(src, dst, [MorphismWitness(_map(rng, src, dst), {})
                                       for _ in range(rng.randint(1, 4))])
    c = _derivation(rng, dst)
    for x in src.carrier.elements:
        assert (outcome(exp_eval_certificate, c, x, exp)
                == outcome(exp_eval_certificate_walk, c, x, exp))


def test_a_lift_leaves_out_the_elements_whose_image_is_not_claimed():
    dst_carrier, src_carrier = make_setoid(["p", "q"]), make_setoid(["a", "b", "c"])
    dst = space(dst_carrier, [RFun(dst_carrier, {"p": 0, "q": 1})])
    src = space(src_carrier, [RFun(src_carrier, {"a": 0, "b": 1, "c": 0})])
    w = MorphismWitness(SetoidFn(src_carrier, dst_carrier, {"a": "p", "b": "q", "c": "p"}),
                        {0: CGen(0)})
    c = CEq(CGen(0), (("p", Fraction(0)),))  # claims nothing at q
    lifted = lift_certificate(src, w, c)
    assert lifted == CEq(CGen(0), (("a", Fraction(0)), ("c", Fraction(0))))
    assert lifted == lift_certificate_walk(src, w, c)


def test_certify_map_records_misses_and_keeps_known_certificates():
    carrier = make_setoid(["p", "q"])
    src = space(carrier, [RFun(carrier, {"p": 0, "q": 0})], ["flat"])
    dst = space(carrier, [RFun(carrier, {"p": 0, "q": 1}),
                          RFun(carrier, {"p": 2, "q": 2})], ["f", "two"])
    h = SetoidFn(carrier, carrier, {"p": "p", "q": "q"})
    findings = []
    w = certify_map(src, dst, h, "leg", findings, where=("i",))
    # f separates p and q, which no generator of src does
    assert [(f.law, f.witness) for f in findings] == [("leg-cert", ("i", 0))]
    assert w.certs == {0: None, 1: CConst(Fraction(2))}
    findings = []
    w = certify_map(src, dst, h, "leg", findings, known={0: CGen(0)})
    assert findings == [] and w.certs == {0: CGen(0), 1: CConst(Fraction(2))}
