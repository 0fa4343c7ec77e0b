"""Differential tests: each keyed or cached fast path against the exhaustive
path it replaced.  Hypothesis runs derandomized, so the suite stays
deterministic."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bspec import runner
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    DirectFamily,
    FamilyError,
    _direct_family_laws_hold,
    _validate_direct_family_scan,
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    direct_sum_setoid,
    sum_elements,
    validate_direct_family,
)
from bspec.limits import direct_limit, inverse_limit
from bspec.order import DirectedIndex, NotDirected, chain, top_element
from bspec.report import Report
from bspec.setoid import (
    Setoid,
    SetoidFn,
    _check_equivalence_scan,
    check_equivalence,
    closure_rst,
    discrete,
    identity,
    make_setoid,
)
from bspec.spectra import Spectrum
from bspec.topology import CAdd, CConst, map_setoid

from oracles import complete_witnesses_scan, equivalence_findings_scan, outcome
from randgen import random_direct_family, random_directed_index, random_spectrum
from thread_laws import thread_to_sum_function, validate_thread

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _fold_top(D):
    """The fold of upper bounds, as top_element computed it on every call."""
    t = D.elements[0]
    for x in D.elements[1:]:
        t = D.up(t, x)
    assert all(D.leq(i, t) for i in D.elements)
    return t


def _partition(setoid):
    return {frozenset(cls) for cls in setoid.classes()}


@FAST
@given(seeds)
def test_direct_limit_partition_matches_exhaustive_closure(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    s = random_spectrum(rng, index, COVARIANT, family=fam)
    els = sum_elements(fam)
    oracle = closure_rst(els, [
        (a, b) for a in els for b in els
        if direct_sum_equality_exhaustive(fam, *a, *b)
    ])
    lim = direct_limit(s)
    assert lim.carrier.pairs == oracle
    assert _partition(lim.carrier) == _partition(Setoid(tuple(els), oracle))
    assert direct_sum_setoid(fam).pairs == oracle


@FAST
@given(seeds)
def test_keyed_sum_pairs_match_pairwise_equality(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    els = sum_elements(fam)
    pairwise = frozenset(
        (a, b) for a in els for b in els
        if direct_sum_equality(fam, *a, *b))
    assert direct_sum_setoid(fam).pairs == pairwise


@FAST
@given(seeds)
def test_inverse_limit_equality_matches_pointwise(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, CONTRAVARIANT, allow_merged=True)
    lim = inverse_limit(random_spectrum(rng, index, CONTRAVARIANT, family=fam))
    toks = lim.carrier.elements
    pointwise = frozenset(
        (t1, t2) for t1 in toks for t2 in toks
        if all(fam.carrier(i).eq(lim.assignments[t1][i], lim.assignments[t2][i])
               for i in index.elements))
    assert lim.carrier.pairs == pointwise


def test_map_setoid_matches_pointwise():
    dom = make_setoid(["a", "b"])
    cod = make_setoid(["p", "q", "r"], [("p", "q")])
    maps = [SetoidFn(dom, cod, {"a": x, "b": y})
            for x in cod.elements for y in cod.elements]
    carrier, by_name = map_setoid(maps)
    pointwise = frozenset(
        (m, n) for m in carrier.elements for n in carrier.elements
        if all(cod.eq(by_name[m](x), by_name[n](x)) for x in dom.elements))
    assert carrier.pairs == pointwise
    assert carrier.class_count() == 4


def test_merged_carriers_are_exercised():
    # the seeds above include families whose carriers merge two elements
    merged = 0
    for seed in range(40):
        rng = random.Random(seed)
        index = random_directed_index(rng)
        fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
        merged += any(not fam.carrier(i).is_discrete() for i in index.elements)
    assert merged > 0


@st.composite
def relations(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    elements = [f"e{k}" for k in range(n)]
    field = elements + ["z"]  # a pair may mention an element outside the list
    pairs = draw(st.sets(st.tuples(st.sampled_from(field), st.sampled_from(field)),
                         max_size=20))
    mode = draw(st.sampled_from(["raw", "reflexive-symmetric", "closed", "foreign"]))
    if mode == "reflexive-symmetric":
        # only transitivity can fail
        pairs = set(pairs) | {(b, a) for a, b in pairs} | {(e, e) for e in field}
    elif mode in ("closed", "foreign"):
        # close it, then break one pair or relate the outside element to
        # one inside, so near-equivalences appear
        pairs = set(closure_rst(elements, [p for p in pairs if "z" not in p]))
        if mode == "foreign":
            pairs.add(("z", draw(st.sampled_from(elements))))
        elif draw(st.booleans()):
            pairs.discard(draw(st.sampled_from(sorted(pairs))))
    return elements, frozenset(pairs)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(relations())
def test_check_equivalence_matches_scan(rel):
    elements, pairs = rel
    assert check_equivalence(elements, pairs) == _check_equivalence_scan(elements, pairs)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seeds)
def test_cached_top_matches_fold(seed):
    D = random_directed_index(random.Random(seed))
    assert D.top == _fold_top(D)
    assert top_element(D) == D.top


def test_undirected_index_still_raises():
    base = discrete(["0", "1"])
    pairs = frozenset({("0", "0"), ("1", "1")})
    upper = {(a, b): a for a in base.elements for b in base.elements}
    D = DirectedIndex(base, pairs, upper)
    for _ in range(2):
        with pytest.raises(NotDirected):
            top_element(D)


def test_classes_returns_a_fresh_list():
    s = make_setoid(["a", "b", "c"], [("a", "b")])
    got = s.classes()
    got.append(("x",))
    got[0] = ("c",)
    assert s.classes() == [("a", "b"), ("c",)]
    assert s.class_count() == 2
    assert s.class_repr("b") == "a"


@FAST
@given(seeds)
def test_generators_record_the_threads_that_made_them(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    s = random_spectrum(rng, index, COVARIANT, family=fam)
    lim = direct_limit(s)
    # the enumerated threads pass the validation the limit no longer repeats
    assert all(validate_thread(s, t) == [] for t in lim.threads)
    assert len(lim.threads) == len(lim.space.gens)
    for k, t in enumerate(lim.threads):
        made = thread_to_sum_function(s, t, lim.carrier)
        assert made.values == lim.space.gens[k].values
    # and every thread's function is one of the generators
    gens = {tuple(g.values.items()) for g in lim.space.gens}
    assert all(tuple(thread_to_sum_function(s, t, lim.carrier).values.items())
               in gens for t in lim.threads)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seeds)
def test_cached_upper_bounds_match_leq_scan(seed):
    D = random_directed_index(random.Random(seed))
    for i in D.elements:
        for j in D.elements:
            assert D.common_upper_bounds[(i, j)] == tuple(
                k for k in D.elements if D.leq(i, k) and D.leq(j, k))


class _Recording(Report):
    """A report that also keeps every finding of every law."""

    def __init__(self):
        super().__init__()
        self.findings = {}

    def add(self, suite, law, findings=None, **kwargs):
        self.findings[law] = list(findings or [])
        super().add(suite, law, findings, **kwargs)


@st.composite
def non_transitive_carriers(draw):
    """A Setoid built by hand whose pairs relate e0 ~ e1 ~ e2 but not
    e0 ~ e2; other pairs are drawn, so reflexivity and symmetry may fail
    as well."""
    n = draw(st.integers(min_value=3, max_value=4))
    els = tuple(f"e{k}" for k in range(n))
    pairs = {(a, a) for a in els}
    pairs |= {("e0", "e1"), ("e1", "e0"), ("e1", "e2"), ("e2", "e1")}
    every = st.tuples(st.sampled_from(els), st.sampled_from(els))
    pairs |= draw(st.sets(every, max_size=4))
    pairs -= draw(st.sets(every, max_size=3))
    pairs |= {("e0", "e1"), ("e1", "e2")}
    pairs -= {("e0", "e2")}
    return Setoid(els, frozenset(pairs))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(non_transitive_carriers(), st.integers(min_value=1, max_value=3),
       st.sampled_from([COVARIANT, CONTRAVARIANT]), seeds)
def test_family_laws_on_carriers_that_are_not_transitive(carrier, length,
                                                         direction, seed):
    rng = random.Random(seed)
    index = chain(length)
    els = carrier.elements
    transports = {p: (identity(carrier) if rng.random() < 0.7
                      else SetoidFn(carrier, carrier, {x: rng.choice(els) for x in els}))
                  for p in index.order_pairs()}
    fam = DirectFamily(index, direction, {i: carrier for i in index.elements},
                       transports)
    assert not _direct_family_laws_hold(fam)
    # a carrier that is not even reflexive makes the scan raise; so must this
    assert (outcome(validate_direct_family, fam)
            == outcome(_validate_direct_family_scan, fam))


def _faulty_top(seed, index):
    """A random family whose transports into the top are random tables, so
    the top may separate what a lower upper bound relates."""
    rng = random.Random(seed)
    fam = random_direct_family(rng, index, COVARIANT)
    t = index.top
    transports = dict(fam.transports)
    for i in index.elements:
        fn = transports[(i, t)]
        transports[(i, t)] = SetoidFn(
            fn.dom, fn.cod, {x: rng.choice(fn.cod.elements) for x in fn.dom.elements})
    return DirectFamily(index, COVARIANT, fam.carriers, transports)


@settings(derandomize=True, max_examples=180, deadline=None, database=None)
@given(non_transitive_carriers(), st.integers(min_value=1, max_value=3), seeds,
       st.sampled_from(["not-transitive", "contravariant", "faulty-top"]))
def test_equivalence_laws_match_the_triple_scan(carrier, length, seed, kind):
    index = chain(length)
    if kind == "not-transitive":
        fam = DirectFamily(index, COVARIANT, {i: carrier for i in index.elements},
                           {p: identity(carrier) for p in index.order_pairs()})
    elif kind == "contravariant":
        fam = random_direct_family(random.Random(seed + 1), index, CONTRAVARIANT)
    else:
        fam = _faulty_top(seed + 1, index)
    env = SimpleNamespace(spectrum=lambda name: SimpleNamespace(fam=fam, index=index))
    config = runner.RunConfig()
    report = _Recording()

    def keyed():
        runner.check_equivalence(env, ("S",), config, report, "t", None)
        return (report.findings["equivalence.S.laws"],
                report.findings["equivalence.S.top-vs-search"])

    want = outcome(equivalence_findings_scan, [fam])
    assert outcome(keyed) == want
    if kind == "not-transitive":
        assert any(f.law == "transitive" for f in want[1][0])
    if kind == "contravariant":
        assert want[0] is FamilyError


def test_a_faulty_top_is_found():
    found = 0
    for seed in range(40):
        index = chain(1 + seed % 3)
        laws, oracle = equivalence_findings_scan([_faulty_top(seed, index)])
        assert laws == []  # agreement at the top is still an equivalence
        found += bool(oracle)
    assert found > 0


@FAST
@given(seeds, st.sampled_from([COVARIANT, CONTRAVARIANT]),
       st.integers(min_value=1, max_value=7))
def test_complete_witnesses_matches_the_rescan(seed, direction, length):
    # each supplied certificate is labelled with its edge, so a composite
    # records the middle index it was lifted through
    rng = random.Random(seed)
    index = chain(length) if rng.random() < 0.5 else random_directed_index(rng)
    s = random_spectrum(rng, index, direction)
    supplied = {}
    for n, (edge, certs) in enumerate(sorted(s.witness_certs.items())):
        if rng.random() < 0.6:
            supplied[edge] = {m: CAdd(c, CConst(Fraction(n))) for m, c in certs.items()}
    got = Spectrum(s.fam, s.spaces, {e: dict(c) for e, c in supplied.items()}, s.pool)
    s.witness_certs = {e: dict(c) for e, c in supplied.items()}
    complete_witnesses_scan(s)
    assert got.witness_certs == s.witness_certs
