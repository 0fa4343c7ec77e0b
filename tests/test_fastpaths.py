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
    direct_sum_equality,
    direct_sum_equality_exhaustive,
    direct_sum_setoid,
    sum_elements,
)
from bspec.limits import direct_limit, inverse_limit
from bspec.order import NotDirected, _members, chain, top_element
from bspec.report import Report
from bspec.setoid import (
    Setoid,
    SetoidFn,
    _check_equivalence_scan,
    check_equivalence,
    closure_rst,
    discrete,
    is_equivalence,
    make_setoid,
)
from bspec.spectra import complete_witnesses
from bspec.topology import CAdd, CConst, CGen, RFun, map_setoid, space

from oracles import (
    autofill_witnesses,
    complete_witnesses_scan,
    equivalence_findings_scan,
    first_upper_bounds_scan,
    fold_top,
    index_of_pairs,
    outcome,
)
from randgen import (
    FAULTS,
    faulty_family,
    merged_index,
    random_direct_family,
    random_directed_index,
    random_spectrum,
)
from thread_laws import thread_to_sum_function, validate_thread

FAST = settings(derandomize=True, max_examples=60, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


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
    # the lowest bit of the AND of the rows is where the fold of the first
    # common bounds lands, on preorders with many tops and on merged bases
    rng = random.Random(seed)
    for D in (random_directed_index(rng), merged_index(rng)):
        t = fold_top(D.elements, first_upper_bounds_scan(D.elements, set(D.order_pairs())))
        assert all(D.leq(i, t) for i in D.elements)
        assert D.top == t
        assert top_element(D) == D.top


def test_undirected_index_still_raises():
    base = discrete(["0", "1"])
    D = index_of_pairs(base, {("0", "0"), ("1", "1")})
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
    position, rows = D._order
    for i in D.elements:
        for j in D.elements:
            common = rows[position[i]] & rows[position[j]]
            assert tuple(_members(D.elements, common)) == tuple(
                k for k in D.elements if D.leq(i, k) and D.leq(j, k))


class _Recording(Report):
    """A report that also keeps every finding of every law."""

    def __init__(self):
        super().__init__()
        self.findings = {}

    def add(self, suite, law, findings=None, **kwargs):
        self.findings[law] = list(findings or [])
        super().add(suite, law, findings, **kwargs)


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


def _check_equivalence(fam):
    """The runner's equivalence check on one family: its (laws,
    top-vs-search) findings."""
    report = _Recording()
    runner.check_equivalence(("S",), (SimpleNamespace(fam=fam),), runner.RunConfig(),
                             report, "t", None)
    return (report.findings["equivalence.S.laws"],
            report.findings["equivalence.S.top-vs-search"])


@settings(derandomize=True, max_examples=180, deadline=None, database=None)
@given(st.integers(min_value=1, max_value=3), seeds,
       st.sampled_from(["contravariant", "faulty-top"]))
def test_equivalence_laws_match_the_triple_scan(length, seed, kind):
    index = chain(length)
    if kind == "contravariant":
        fam = random_direct_family(random.Random(seed + 1), index, CONTRAVARIANT)
    else:
        fam = _faulty_top(seed + 1, index)
    want = outcome(equivalence_findings_scan, [fam])
    assert outcome(_check_equivalence, fam) == want
    if kind == "contravariant":
        assert want[0] is FamilyError


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seeds, st.sampled_from(["lawful", *FAULTS[1:], "faulty-top"]))
def test_agreement_at_the_top_is_an_equivalence(seed, kind):
    # agreement at the top is the top's equivalence pulled back along the
    # transports, whatever tables they hold, so `laws` passes without the
    # triple scan, and `top-vs-search` is the pairwise pass's
    rng = random.Random(seed)
    index = chain(rng.randint(1, 3)) if rng.random() < 0.5 else random_directed_index(rng)
    if kind == "lawful":
        fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    elif kind == "faulty-top":
        fam = _faulty_top(seed, index)
    else:
        fam = faulty_family(rng, index, COVARIANT, kind)
    tagged = sum_elements(fam)
    agree = [(a, b) for a in tagged for b in tagged
             if direct_sum_equality(fam, *a, *b)]
    assert is_equivalence(tagged, agree)
    want = equivalence_findings_scan([fam])
    assert want[0] == []
    assert _check_equivalence(fam) == want


def test_a_faulty_top_is_found():
    found = 0
    for seed in range(40):
        index = chain(1 + seed % 3)
        laws, oracle = equivalence_findings_scan([_faulty_top(seed, index)])
        assert laws == []  # agreement at the top is still an equivalence
        found += bool(oracle)
    assert found > 0


def _supplied(rng, s, kind):
    """s's table with each certificate labelled by its edge, so a composite
    records the middle index it was lifted through.  With "edges absent"
    about half the edges are dropped; with "generators absent" so are
    they, and each edge kept keeps about half its generators, possibly
    none; with "complete" every edge is kept whole."""
    out = {}
    for n, (edge, certs) in enumerate(sorted(s.witness_certs.items())):
        labelled = {m: CAdd(c, CConst(Fraction(n))) for m, c in certs.items()}
        if kind == "complete":
            out[edge] = labelled
        elif rng.random() < 0.5:
            continue
        elif kind == "edges absent":
            out[edge] = labelled
        else:
            out[edge] = {m: c for m, c in labelled.items() if rng.random() < 0.5}
    return out


def _two_phases(fam, spaces, given):
    """The lifting scan, then certify_map on every edge."""
    return autofill_witnesses(fam, spaces, complete_witnesses_scan(fam, spaces, given))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(seeds, st.sampled_from([COVARIANT, CONTRAVARIANT]),
       st.sampled_from(["edges absent", "generators absent", "complete"]),
       st.integers(min_value=1, max_value=40))
def test_complete_witnesses_matches_the_rescan(seed, direction, kind, length):
    # a certificate naming a generator the lower edge does not certify is
    # left to certify_map, so a valid spectrum always completes
    rng = random.Random(seed)
    index = chain(length) if rng.random() < 0.5 else random_directed_index(rng)
    s = random_spectrum(rng, index, direction)
    supplied = _supplied(rng, s, kind)
    before = {e: dict(c) for e, c in supplied.items()}
    got = outcome(complete_witnesses, s.fam, s.spaces, supplied)
    assert supplied == before
    assert got[0] == "value"
    assert got == outcome(_two_phases, s.fam, s.spaces, supplied)
    if kind == "complete":
        assert got == ("value", supplied)


def _chain_over(carrier, direction):
    """0 <= 1 <= 2 over `carrier`, a hand-built setoid whose elements are
    these three names, one of them possibly twice, with identity
    transports and one two-point space at every element."""
    names = ("0", "1", "2")
    index = index_of_pairs(carrier, [(a, b) for m, a in enumerate(names) for b in names[m:]])
    X = discrete(["p", "q"])
    fam = DirectFamily(index, direction, dict.fromkeys(names, X),
                       {p: SetoidFn(X, X, {"p": "p", "q": "q"})
                        for p in index.order_pairs()})
    sp = space(X, [RFun(X, {"p": 0, "q": 1})], ["g"])
    return fam, dict.fromkeys(names, sp)


def _labelled(n):
    return {0: CAdd(CGen(0), CConst(Fraction(n)))}


@pytest.mark.parametrize("direction", [COVARIANT, CONTRAVARIANT])
@pytest.mark.parametrize("els", [("0", "1", "2", "1"), ("0", "1", "2", "0"),
                                 ("2", "0", "1", "2"), ("1", "0", "1", "2")])
def test_complete_witnesses_on_an_element_named_twice(els, direction):
    # a bit at each position of the name: the middle is read off its first
    carrier = Setoid(els, {(x, x) for x in els})
    fam, spaces = _chain_over(carrier, direction)
    given = {("0", "1"): _labelled(1), ("1", "2"): _labelled(2)}
    got = complete_witnesses(fam, spaces, given)
    assert got == _two_phases(fam, spaces, given)
    assert got[("0", "2")] != {0: CGen(0)}  # lifted through 1, not certified


@pytest.mark.parametrize("direction", [COVARIANT, CONTRAVARIANT])
@pytest.mark.parametrize("stray", [("1", "0"), ("2", "1"), ("0", "9")])
def test_a_witness_on_a_non_order_pair_is_never_a_middle(stray, direction):
    # (1, 0) with (0, 2) known would lift (1, 2) through 0, and (2, 1) with
    # (0, 2) would lift (0, 1) through 2, were they order pairs
    fam, spaces = _chain_over(discrete(["0", "1", "2"]), direction)
    given = {stray: _labelled(7), ("0", "2"): _labelled(2)}
    got = complete_witnesses(fam, spaces, given)
    assert got == _two_phases(fam, spaces, given)
    assert got[stray] == _labelled(7)
    assert got[("0", "1")] == got[("1", "2")] == {0: CGen(0)}
