"""The blocks of a space, the groups of points no generator separates, and
the separating sum h = sum c_j g_j are facts of the space, built once and
kept on it.  find_certificate is compared, over many targets per space,
with the per-call construction it replaced and with the exhaustive search.
Hypothesis runs derandomized, so the suite stays deterministic."""

import random
import weakref
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.setoid import make_setoid, setoid_by_key
from bspec.topology import (
    CBic,
    CConst,
    RFun,
    cert_conclusion,
    find_certificate,
    space,
    validate_certificate,
)

from oracles import find_certificate_exhaustive, find_certificate_per_call
from randgen import random_certificate, random_rational, random_spectrum

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _fresh(q):
    """An equal value held as an object of its own."""
    return Fraction(q.numerator, q.denominator)


def _class_constant(carrier, pick):
    """An RFun with one value per class, pick(class number), each entry a
    fresh object."""
    vals = [pick(n) for n in range(carrier.class_count())]
    return RFun(carrier, {x: _fresh(vals[carrier.class_id[x]])
                          for x in carrier.elements})


def _interleaved_space(rng):
    """Four to six points whose classes, and whose blocks, interleave in
    carrier order, under one to three generators taking few values."""
    els = tuple(f"x{k}" for k in range(rng.randint(4, 6)))
    carrier = setoid_by_key(els, [k % rng.randint(1, 3) for k in range(len(els))])
    gens = [_class_constant(carrier, lambda n: Fraction(rng.randint(0, 2)))
            for _ in range(rng.randint(1, 3))]
    return space(carrier, gens)


def _spaces(rng):
    """The spaces of a random covariant and a random contravariant spectrum,
    and one whose blocks interleave."""
    out = []
    for direction in (COVARIANT, CONTRAVARIANT):
        s = random_spectrum(rng, direction=direction)
        out += [s.space(i) for i in s.index.elements]
    return out + [_interleaved_space(rng)]


def _block_of(sp):
    """The block number of each element, numbered by first element in
    carrier order, read off the generators' values."""
    number = {}
    return [number.setdefault(tuple(g(x) for g in sp.gens), len(number))
            for x in sp.carrier.elements]


def _targets(rng, sp):
    """Constant, block-constant and derived targets, and targets that
    separate two points of one block, every entry a fresh object."""
    carrier, blocks = sp.carrier, _block_of(sp)
    out = [_class_constant(carrier, lambda n: q)
           for q in (Fraction(0), random_rational(rng))]
    for _ in range(4):
        vals = [random_rational(rng) for _ in set(blocks)]
        out.append(RFun(carrier, {x: _fresh(vals[b])
                                  for x, b in zip(carrier.elements, blocks)}))
    for _ in range(3):
        c = random_certificate(rng, sp, depth=3)
        out.append(RFun(carrier, {x: _fresh(v)
                                  for x, v in cert_conclusion(sp, c).values.items()}))
    # a class moved off the value of its block's other classes
    block_of_class = {}
    for x, b in zip(carrier.elements, blocks):
        block_of_class.setdefault(carrier.class_id[x], b)
    for _ in range(3):
        base = out[rng.randrange(len(out))]
        shared = [n for n, b in block_of_class.items()
                  if list(block_of_class.values()).count(b) > 1]
        if not shared:
            break
        moved = rng.choice(shared)
        out.append(RFun(carrier, {
            x: base(x) + 1 if carrier.class_id[x] == moved else base(x)
            for x in carrier.elements}))
    return out


def _by_value(sp, target):
    """Whether target is constant on the blocks, by value."""
    seen = {}
    return all(seen.setdefault(b, target(x)) == target(x)
               for x, b in zip(sp.carrier.elements, _block_of(sp)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seeds)
def test_find_certificate_matches_the_per_call_construction(seed):
    rng = random.Random(seed)
    for sp in _spaces(rng):
        for target in _targets(rng, sp):
            cert = find_certificate(sp, target)
            assert cert == find_certificate_per_call(sp, target)
            assert (cert is not None) == _by_value(sp, target)
            if cert is not None:
                assert validate_certificate(sp, target, cert).ok
            if find_certificate_exhaustive(sp, target, depth=3, cap=150) is not None:
                assert cert is not None


@FAST
@given(seeds)
def test_blocks_are_read_off_the_generators(seed):
    rng = random.Random(seed)
    for sp in _spaces(rng):
        blocks, els = sp.blocks, sp.carrier.elements
        assert sp.blocks is blocks
        assert list(blocks.of) == _block_of(sp)
        assert blocks.firsts == tuple(els[blocks.of.index(b)]
                                      for b in range(len(blocks.firsts)))
        # h is injective on the blocks, listed ascending, and its
        # certificate concludes it
        hs = [t for t, _ in blocks.h]
        assert hs == sorted(set(hs)) and len(hs) == len(blocks.firsts)
        assert sorted(x for _, x in blocks.h) == sorted(blocks.firsts)
        if blocks.h_cert is None:
            assert len(blocks.firsts) <= 1
        else:
            h = cert_conclusion(sp, blocks.h_cert)
            assert all(h(x) == t for t, x in blocks.h)


@FAST
@given(seeds)
def test_the_separating_sum_is_built_once_per_space(seed):
    rng = random.Random(seed)
    sp = _interleaved_space(rng)
    certs = [find_certificate(sp, t) for t in _targets(rng, sp)]
    bics = [c for c in certs if isinstance(c, CBic)]
    for c in bics[1:]:
        assert c.child is bics[0].child is sp.blocks.h_cert


def test_equal_values_held_apart_get_the_same_certificates():
    X = make_setoid(["a", "b", "c", "d"], [("a", "c")])
    g = RFun(X, {"a": 0, "b": 1, "c": 0, "d": 2})
    sp = space(X, [g])
    shared = Fraction(3)
    one = RFun(X, {"a": shared, "b": Fraction(1), "c": shared, "d": shared})
    apart = RFun(X, {x: _fresh(v) for x, v in one.values.items()})
    assert find_certificate(sp, one) == find_certificate(sp, apart)
    assert find_certificate(sp, apart) == find_certificate_per_call(sp, apart)
    constant = RFun(X, {x: Fraction(5) for x in X.elements})
    assert find_certificate(sp, constant) == CConst(Fraction(5))


def test_the_empty_carrier():
    empty = make_setoid([], empty=True)
    nothing = RFun(empty, {})
    for sp in (space(empty, []), space(empty, [RFun(empty, {})])):
        assert find_certificate(sp, nothing) == CConst(Fraction(0))
        assert find_certificate_per_call(sp, nothing) == CConst(Fraction(0))
        assert sp.blocks.firsts == sp.blocks.of == sp.blocks.h == ()


def test_a_space_goes_when_its_last_reference_does():
    rng = random.Random(0)
    sp = _interleaved_space(rng)
    for target in _targets(rng, sp):
        find_certificate(sp, target)
    blocks, ref = sp.blocks, weakref.ref(sp)
    del sp
    assert ref() is None
    assert blocks.firsts  # the blocks do not hold their space
