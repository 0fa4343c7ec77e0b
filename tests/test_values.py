"""Value tables built to take the kernel's code-keyed paths, against the
value-by-value oracles in tests/oracles.py.

The kernel keeps one object per exact value where it can and keys its
value tables by the small-int codes of `topology.ValueCodes`, which finds
an object it has seen by `id`.  So the tables here hold equal values as
distinct `Fraction` objects, built from ints next to Fractions, pool
constants equal to a generator's table, and empty carriers; every answer
must be the oracle's, and must not change when the objects do.  Hypothesis
runs derandomized, so the suite stays deterministic."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bspec.families import CONTRAVARIANT, COVARIANT, make_direct_family
from bspec.limits import _choice_key, inverse_limit
from bspec.order import chain
from bspec.setoid import make_fn, make_setoid
from bspec.spectra import Spectrum, constant_spectrum, enumerate_threads
from bspec.topology import (
    BID,
    BSpace,
    CConst,
    CGen,
    RFun,
    ValueCodes,
    bcomp,
    bconst,
    bmax,
    cert_conclusion,
    certificate_for,
    eval_bic,
    find_certificate,
    rconst,
    space,
    validate_certificate,
)

from oracles import (
    enumerate_threads_backtracking,
    find_certificate_exhaustive,
    inverse_limit_backtracking,
)
from randgen import random_certificate, random_spectrum
from structures import x2, x2_space

seeds = st.integers(min_value=0, max_value=2**32 - 1)
POOL = (0, Fraction(1), 1)  # an int, and 1 twice as distinct objects


def _fresh(v):
    """A new object equal to v: the int it equals when whole, else a new
    Fraction.  RFun turns an int into a new Fraction of its own."""
    return int(v) if v.denominator == 1 else Fraction(v.numerator, v.denominator)


def _scatter(f):
    """f with every entry of its table a distinct object."""
    return RFun(f.carrier, {x: _fresh(v) for x, v in f.values.items()})


def _interned(f, canon):
    """f with every entry of its table the one object `canon` holds for
    its value."""
    return RFun(f.carrier, {x: canon.setdefault(v, v) for x, v in f.values.items()})


def _with_constants(rng, s):
    """s with a generator added at each index, constant at a value of the
    pool, and POOL as its pool."""
    spaces = {}
    for i, sp in s.spaces.items():
        const = rconst(sp.carrier, rng.choice((0, 1)))
        spaces[i] = BSpace(sp.carrier, sp.gens + (const,), sp.names + ("c",))
    return Spectrum(s.fam, spaces, s.witness_certs, POOL)


def _retabled(s, retable):
    """s with every generator table rebuilt by `retable`."""
    spaces = {i: BSpace(sp.carrier, tuple(map(retable, sp.gens)), sp.names)
              for i, sp in s.spaces.items()}
    return Spectrum(s.fam, spaces, s.witness_certs, s.pool)


def _both(rng, s):
    """_with_constants(rng, s) scattered, and the same with one object per
    value."""
    s = _with_constants(rng, s)
    canon = {}
    return _retabled(s, _scatter), _retabled(s, lambda f: _interned(f, canon))


def _threads(threads):
    return [(list(t.funcs), dict(t.certs), {i: t.at(i).values for i in t.funcs})
            for t in threads]


def _limit(lim):
    """Per class, in carrier order: its choice key; then the generator
    names, and each generator's value at every class."""
    classes = lim.carrier.classes()
    keys = [_choice_key(lim.spectrum, lim.assignments[cls[0]]) for cls in classes]
    return keys, lim.space.names, [[g.values[cls[0]] for cls in classes]
                                   for g in lim.space.gens]


# --- the code table -------------------------------------------------------------

def test_equal_values_get_equal_codes():
    codes = ValueCodes()
    half, other_half = Fraction(1, 2), Fraction(2, 4)
    assert half is not other_half
    assert codes.key([half, other_half, 1, Fraction(1), 0]) == (0, 0, 1, 1, 2)
    assert codes.key(iter([Fraction(0), other_half, Fraction(1, 3)])) == (2, 0, 3)
    assert codes.key([]) == ()


def test_codes_hold_every_object_they_record():
    # each fresh 0 is recorded by id and dropped by the caller; were it not
    # held, the next value could take its address and read its code
    codes = ValueCodes()
    codes.key([Fraction(0)])
    for n in range(1, 200):
        assert codes.key([Fraction(0)]) == (0,)
        assert codes.key([Fraction(n)]) == (n,)


# --- one object per value -------------------------------------------------------

def test_a_fraction_given_is_the_fraction_kept():
    q = Fraction(3, 4)
    X = x2()
    assert all(v is q for v in rconst(X, q).values.values())
    assert all(v is q for v in cert_conclusion(x2_space(), CConst(q)).values.values())
    assert constant_spectrum(chain(2), x2_space(), pool=(q, 1)).pool[0] is q
    assert eval_bic(BID, q) is q
    assert eval_bic(bcomp(BID, bcomp(BID, BID)), q) is q
    assert eval_bic(bmax(BID, BID), q) is q
    # other numbers become Fractions
    assert type(rconst(X, 2).values["p"]) is Fraction
    assert type(constant_spectrum(chain(2), x2_space(), pool=(2,)).pool[0]) is Fraction
    assert type(eval_bic(BID, 2)) is Fraction and eval_bic(BID, 2) == 2
    # a constant target is concluded by its own value
    for find in (find_certificate, certificate_for):
        cert = find(x2_space(), RFun(X, {"p": q, "q": q}))
        assert cert == CConst(q) and cert.value is q
        # and by its value when it is held as distinct objects
        assert find(x2_space(), RFun(X, {"p": q, "q": _fresh(q)})) == CConst(q)


def test_a_constant_expression_keeps_the_fraction_given():
    q = Fraction(3, 4)
    assert bconst(q).value is q
    assert eval_bic(bconst(q), Fraction(5)) is q
    # other numbers become Fractions, equal to the same constant
    assert type(bconst(2).value) is Fraction and bconst(2) == bconst(Fraction(2))
    assert bconst(-1) == bconst(Fraction(-1))


# --- threads ---------------------------------------------------------------------

@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds)
def test_threads_on_scattered_tables_match_the_backtracking_search(seed):
    rng = random.Random(seed)
    scattered, interned = _both(rng, random_spectrum(rng, n_base=rng.randint(1, 3)))
    got = _threads(enumerate_threads(scattered))
    assert got == _threads(enumerate_threads_backtracking(scattered))
    assert got == _threads(enumerate_threads(interned))


def test_a_pool_constant_equal_to_a_generator_is_not_a_second_candidate():
    X = x2()
    one = RFun(X, {"p": 1, "q": Fraction(1)})  # two objects, one value
    sp = BSpace(X, (one, x2_space().gens[0]))
    s = constant_spectrum(chain(3), sp, pool=POOL)
    threads = enumerate_threads(s)
    assert _threads(threads) == _threads(enumerate_threads_backtracking(s))
    # the two generators, then the pool's 0; its 1s are the first generator
    assert [t.certs["2"] for t in threads] == [CGen(0), CGen(1), CConst(Fraction(0))]


def test_threads_over_an_empty_carrier_match_the_backtracking_search():
    empty, X = make_setoid([], empty=True), x2()
    fam = make_direct_family(chain(2), COVARIANT, {"0": empty, "1": X},
                             {("0", "1"): make_fn(empty, X, {})})
    spaces = {"0": BSpace(empty, (RFun(empty, {}), RFun(empty, {}))),
              "1": BSpace(X, (RFun(X, {"p": 0, "q": 1}), RFun(X, {"p": 1, "q": 1})))}
    zero = CConst(Fraction(0))
    s = Spectrum(fam, spaces, {("0", "1"): {0: zero, 1: zero}}, POOL)
    got = enumerate_threads(s)
    assert _threads(got) == _threads(enumerate_threads_backtracking(s))
    # at 0 every candidate has the empty table, so the first stands for all
    assert [t.certs["0"] for t in got] == [CGen(0)] * 3


# --- inverse limits ---------------------------------------------------------------

@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds)
def test_inverse_limits_on_scattered_tables_match_the_backtracking_search(seed):
    rng = random.Random(seed)
    scattered, interned = _both(rng, random_spectrum(rng, direction=CONTRAVARIANT))
    got = _limit(inverse_limit(scattered))
    assert got == _limit(inverse_limit_backtracking(scattered))
    assert got == _limit(inverse_limit(interned))


def test_inverse_limit_over_an_empty_carrier_matches_the_backtracking_search():
    empty, X = make_setoid([], empty=True), x2()
    fam = make_direct_family(chain(2), CONTRAVARIANT, {"0": X, "1": empty},
                             {("0", "1"): make_fn(empty, X, {})})
    spaces = {"0": BSpace(X, (RFun(X, {"p": 0, "q": 1}),)),
              "1": BSpace(empty, (RFun(empty, {}), RFun(empty, {})))}
    s = Spectrum(fam, spaces, {("0", "1"): {0: CConst(Fraction(0))}}, POOL)
    lim = inverse_limit(s)
    assert _limit(lim) == _limit(inverse_limit_backtracking(s))
    # no choice, so every generator has the empty table and the first stands
    assert len(lim.carrier) == 0 and lim.space.names == ("proj[0,g0]",)


# --- certificates -----------------------------------------------------------------

VALUES = [Fraction(q) for q in (-1, 0, 1, 2)] + [Fraction(1, 2)]


def _certificate_case(seed):
    """A 2-4 point space with up to two generators and a target, a random
    table or the conclusion of a random derivation, every entry of every
    table a distinct object."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    els = [f"x{k}" for k in range(n)]
    carrier = make_setoid(els, [(els[0], els[1])] if rng.random() < 0.2 else [])

    def table():
        out = {}
        for cls in carrier.classes():
            v = rng.choice(VALUES)
            out.update({x: _fresh(v) for x in cls})
        return RFun(carrier, out)

    sp = space(carrier, [table() for _ in range(rng.randint(0, 2))])
    if sp.gens and rng.random() < 0.5:
        target = _scatter(cert_conclusion(sp, random_certificate(rng, sp, depth=3)))
    else:
        target = table()
    return sp, target


def _block_constant(sp, target):
    """Constant on the blocks of points no generator separates, by value."""
    blocks = {}
    return all(blocks.setdefault(tuple(g(x) for g in sp.gens), target(x)) == target(x)
               for x in sp.carrier.elements)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds)
def test_certificates_on_scattered_tables_match_the_exhaustive_search(seed):
    sp, target = _certificate_case(seed)
    cert = find_certificate(sp, target)
    assert (cert is not None) == _block_constant(sp, target)
    if cert is not None:
        assert validate_certificate(sp, target, cert).ok
    if find_certificate_exhaustive(sp, target, depth=3, cap=150) is not None:
        assert cert is not None
    # the same tables with one object per value get the same certificates
    canon = {}
    shared = space(sp.carrier, [_interned(g, canon) for g in sp.gens], sp.names)
    assert find_certificate(shared, _interned(target, canon)) == cert
    assert certificate_for(shared, _interned(target, canon)) == certificate_for(sp, target)


def test_an_empty_carrier_is_concluded_by_zero():
    empty = make_setoid([], empty=True)
    nothing = RFun(empty, {})
    bare, one_gen = space(empty, []), space(empty, [RFun(empty, {})])
    assert find_certificate(bare, nothing) == CConst(Fraction(0))
    assert find_certificate(one_gen, nothing) == CConst(Fraction(0))
    assert find_certificate_exhaustive(bare, nothing) == CConst(Fraction(0))
    assert certificate_for(bare, nothing) == CConst(Fraction(0))
    assert certificate_for(one_gen, nothing) == CGen(0)  # a generator matches first
