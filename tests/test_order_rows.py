"""Differential tests for the order read as bit rows: `validate_directed`,
`validate_cofinal`, `induced_order` and the monotonicity check of
`restrict_family`, each against the scan through `leq` that it replaced,
on preorders, merged bases, spoiled indices, broken moduli and
non-monotone restrictions.  Findings, their order, and the type and
message of what is raised must agree.  Hypothesis runs derandomized, so
the suite stays deterministic."""

import random

from hypothesis import given, settings, strategies as st

from bspec import order
from bspec.families import COVARIANT, restrict_family
from bspec.order import (
    CofinalSubset,
    NotDirected,
    chain,
    induced_order,
    make_directed,
    product_order,
    validate_cofinal,
    validate_directed,
)
from bspec.report import Finding
from bspec.setoid import (
    Pair,
    SetoidFn,
    UnknownElement,
    discrete,
    make_setoid,
    setoid_by_key,
)

from oracles import (
    check_monotone_scan,
    close_order_scan,
    first_upper_bounds_scan,
    fold_top,
    hasse_covers,
    index_of_pairs,
    induced_order_scan,
    induced_upper_scan,
    outcome,
    validate_cofinal_scan,
    validate_directed_scan,
)
from randgen import (
    merged_index,
    random_cofinal_instance,
    random_direct_family,
    random_directed_index,
    random_restriction,
    raw_index,
    spoil_cofinal,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
INDEX_KINDS = ["chain", "preorder", "merged", "raw"]


def _index(rng, kind):
    if kind == "chain":
        return chain(rng.randint(1, 5))
    if kind == "preorder":  # cycles between distinct elements happen
        return random_directed_index(rng, 5)
    return merged_index(rng) if kind == "merged" else raw_index(rng)


def _directed_case(seed, kind):
    return _index(random.Random(seed), kind)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(seeds, st.sampled_from(INDEX_KINDS))
def test_validate_directed_matches_the_scan(seed, kind):
    built = outcome(_directed_case, seed, kind)
    if built[0] != "value":  # a raw pair names z, off the base
        assert built[0] is UnknownElement
        return
    D = built[1]
    assert outcome(validate_directed, D) == outcome(validate_directed_scan, D)


def test_the_directed_cases_reach_every_law():
    """The generated cases find every law of validate_directed, and raise
    only where an index is built with an element off the base: no index
    holds one, so validate_directed never meets it."""
    laws, raised = set(), set()
    rng = random.Random(0)
    for _ in range(1500):
        case = (rng.randrange(2**32), rng.choice(INDEX_KINDS))
        got = outcome(_directed_case, *case)
        if got[0] == "value":
            laws.update(f.law for f in validate_directed(got[1]))
        else:
            raised.add(got[0])
    assert laws == {"leq-reflexive", "leq-transitive", "leq-extensional",
                    "upper-missing"}
    assert raised == {UnknownElement}


def test_transitivity_findings_follow_the_sorted_pairs():
    # the chain a < b < c < d < e without a <= c and c <= e: each missing
    # pair is found once, in order_pairs() order, whatever the hash seed
    names = "abcde"
    pairs = frozenset((x, y) for m, x in enumerate(names) for y in names[m:]
                      if (x, y) not in {("a", "c"), ("c", "e")})
    D = index_of_pairs(discrete(names), pairs)
    findings = validate_directed(D)
    assert [f for f in findings if f.law == "leq-transitive"] == [
        Finding("leq-transitive", ("a", "b", "c")),
        Finding("leq-transitive", ("c", "d", "e")),
    ]
    assert findings == validate_directed_scan(D)


def test_an_element_named_twice_is_listed_as_often_as_the_scan_lists_it():
    # a keyed carrier may name an element twice; the rows set a bit at each
    # of its positions, so a is missing above a <= b twice
    twice = setoid_by_key(("a", "b", "a"), "aba")
    D = index_of_pairs(twice, {("a", "b"), ("b", "a"), ("b", "b")})
    findings = validate_directed(D)
    assert findings == validate_directed_scan(D)
    assert findings.count(Finding("leq-transitive", ("a", "b", "a"))) == 2


def test_validate_directed_at_chain400():
    # the scan makes two leq calls per order pair and element, some 400^3
    # of them, so the answers are the ones the construction gives:
    # chain(400) is valid, and without the pair 0 <= 399 every
    # 0 <= j <= 399 fails transitivity and 0 and 399 have no common upper
    # bound
    D = chain(400)
    assert outcome(validate_directed, D) == ("value", [])
    spoiled = index_of_pairs(D.base, set(D.order_pairs()) - {("0", "399")})
    assert validate_directed(spoiled) == [
        Finding("leq-transitive", ("0", j, "399"))
        for i, j in spoiled.order_pairs() if i == "0" and j != "0"
    ] + [Finding("upper-missing", ("0", "399")),
         Finding("upper-missing", ("399", "0"))]


def test_validate_directed_at_a_product_of_chain24s():
    # 576 elements and 90,000 order pairs: as at chain(400), the answers
    # are the ones the construction gives.  The product is valid, and
    # without the pair bottom <= top every bottom <= j <= top fails
    # transitivity, and bottom and top have no common upper bound, since
    # top is the only element above top
    D = product_order(chain(24), chain(24))
    bottom, top = D.elements[0], D.elements[-1]
    assert (bottom, top) == (Pair(("0", "0")), Pair(("23", "23")))
    assert outcome(validate_directed, D) == ("value", [])
    spoiled = index_of_pairs(D.base, set(D.order_pairs()) - {(bottom, top)})
    assert validate_directed(spoiled) == [
        Finding("leq-transitive", (bottom, j, top))
        for i, j in spoiled.order_pairs() if i == bottom and j != bottom
    ] + [Finding("upper-missing", (bottom, top)),
         Finding("upper-missing", (top, bottom))]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(["none", "cof", "embed"]))
def test_cofinal_laws_and_induced_order_match_the_scans(seed, how):
    rng = random.Random(seed)
    D, C = random_cofinal_instance(rng)
    C = spoil_cofinal(rng, D, C, how)
    got = outcome(validate_cofinal, D, C)
    assert got == outcome(validate_cofinal_scan, D, C)
    if how == "none":
        assert got == ("value", [])
    J, K = induced_order(D, C), induced_order_scan(D, C)
    assert (J.base, J.rows, J.order_pairs()) == (K.base, K.rows, K.order_pairs())
    if how == "none":
        # the first top of the induced rows is where the modulus-built
        # bounds fold
        assert J.top == fold_top(J.elements, induced_upper_scan(D, C))


def test_the_cofinal_cases_reach_every_order_law():
    laws = set()
    rng = random.Random(0)
    for _ in range(300):
        D, C = random_cofinal_instance(rng)
        C = spoil_cofinal(rng, D, C, rng.choice(["cof", "embed"]))
        laws.update(f.law for f in validate_cofinal(D, C))
    assert {"cof1", "cof2", "cof3", "subset-directed", "embed-injective"} <= laws


# --- the subset-directed law read off the laws before it -----------------------

SPOILS = ["none", "embed-extensional", "embed-injective", "cof-extensional",
          "cof1", "cof2", "cof3"]


def _firsts(D):
    return list(dict.fromkeys(D.elements))


def spoiled_subset(rng, D, spoil):
    """A subset of D with the first-member-above modulus, holding a top
    when D has one, spoiled so that the named law fails when the draw
    allows it: members merged across the embedding, two members sent to
    one element, equal elements sent apart, a member sent elsewhere by the
    modulus, a random modulus, or an element sent below itself."""
    els = _firsts(D)
    members = [x for x in els if rng.random() < 0.5]
    try:
        members = list(dict.fromkeys(members + [D.top]))
    except NotDirected:
        members = members or [rng.choice(els)]
    embed = {j: j for j in members}
    cof = {i: next((m for m in members if D.leq(i, m)), rng.choice(members))
           for i in D.elements}
    carrier = discrete(members)
    other = {j: [m for m in members if m != j] for j in members}
    if spoil == "embed-extensional" and len(members) >= 2:
        carrier = make_setoid(members, [tuple(rng.sample(members, 2))])
    elif spoil == "embed-injective" and len(members) >= 2:
        a, b = rng.sample(members, 2)
        embed[a] = b
    elif spoil == "cof-extensional":
        split = [(i, i2) for i in els for i2 in els if i != i2 and D.base.eq(i, i2)]
        if split and len(members) >= 2:
            i, i2 = rng.choice(split)
            cof[i2] = rng.choice(other[cof[i]])
    elif spoil == "cof1" and len(members) >= 2:
        j = rng.choice(members)
        cof[j] = rng.choice(other[j])
    elif spoil == "cof2":
        cof = {i: rng.choice(members) for i in D.elements}
    elif spoil == "cof3":
        below = [(i, m) for i in els for m in members if not D.leq(i, m)]
        if below:
            i, m = rng.choice(below)
            cof[i] = m
    return CofinalSubset(carrier, SetoidFn(carrier, D.base, embed),
                         SetoidFn(D.base, carrier, cof))


def cofinal_draw(rng, kind, spoil):
    """(D, C), or None for a raw index that names an element off its base."""
    if kind == "raw":
        built = outcome(raw_index, rng)
        if built[0] is UnknownElement:
            return None
        D = built[1]
    else:
        D = _index(rng, kind)
    return D, spoiled_subset(rng, D, spoil)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(seeds, st.sampled_from(INDEX_KINDS), st.sampled_from(SPOILS))
def test_cofinal_laws_match_the_scan_on_every_spoil_and_base(seed, kind, spoil):
    drawn = cofinal_draw(random.Random(seed), kind, spoil)
    if drawn is not None:
        assert outcome(validate_cofinal, *drawn) == outcome(validate_cofinal_scan, *drawn)


def test_the_cofinal_draws_fail_each_law_first_and_reach_every_branch():
    """Each law before the subset-directed one is the first to fail in some
    draw, and lawful subsets are drawn over discrete and merged bases."""
    first, branches = set(), set()
    rng = random.Random(0)
    for _ in range(1500):
        drawn = cofinal_draw(rng, rng.choice(INDEX_KINDS), rng.choice(SPOILS))
        if drawn is None:
            continue
        D, C = drawn
        got = outcome(validate_cofinal_scan, D, C)
        if got[0] is NotDirected:
            branches.add("not directed")
            continue
        if got[1]:
            first.add(got[1][0].law)
        elif D.base.is_discrete():
            branches.add("lawful, discrete")
        else:
            branches.add("lawful, merged")
    assert first == set(SPOILS[1:])
    assert branches == {"not directed", "lawful, discrete", "lawful, merged"}


def test_the_subset_directed_law_fails_alone_only_where_equal_is_not_identical():
    # a merged base whose order is not extensional: p ~ q go to a ~ b, and
    # the modulus sends each back to the other, so cof1 holds up to
    # equality while a <= b <= a has no reflexive pair
    base = make_setoid(["a", "b", "c"], [("a", "b")])
    D = index_of_pairs(base, {("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "c")})
    members = make_setoid(["p", "q", "r"], [("p", "q")])
    C = CofinalSubset(members,
                      SetoidFn(members, base, {"p": "a", "q": "b", "r": "c"}),
                      SetoidFn(base, members, {"a": "q", "b": "p", "c": "r"}))
    assert validate_cofinal(D, C) == validate_cofinal_scan(D, C) == [
        Finding("subset-directed", ("p", "p")), Finding("subset-directed", ("q", "q"))]


def test_a_lawful_subset_of_a_discrete_index_with_a_top_makes_no_up_call(monkeypatch):
    calls = [0]
    up = order.DirectedIndex.up

    def counted(D, i, j):
        calls[0] += 1
        return up(D, i, j)

    monkeypatch.setattr(order.DirectedIndex, "up", counted)
    for seed in range(50):
        D, C = random_cofinal_instance(random.Random(seed))
        assert validate_cofinal(D, C) == []
    assert calls[0] == 0
    # a failed law runs the scan: here cof1 fails at 0
    D, members = chain(3), discrete(["0", "2"])
    C = CofinalSubset(members, SetoidFn(members, D.base, {"0": "0", "2": "2"}),
                      SetoidFn(D.base, members, {"0": "2", "1": "2", "2": "2"}))
    assert validate_cofinal(D, C) == validate_cofinal_scan(D, C)
    assert calls[0] > 0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(INDEX_KINDS), st.sampled_from(SPOILS))
def test_an_induced_order_is_monotone_into_its_index(seed, kind, spoil):
    # restrict_spectrum restricts along the embedding its sub-index is
    # ordered through, and skips the monotonicity scan on that path
    drawn = cofinal_draw(random.Random(seed), kind, spoil)
    if drawn is None:
        return
    D, C = drawn
    sub = induced_order(D, C)
    h = SetoidFn(sub.base, D.base, C.embed.table())
    assert outcome(check_monotone_scan, sub, D, h) == ("value", None)


def _restrict(F, sub, h):
    restrict_family(F, sub, h)  # raises NotMonotone unless h is monotone


def _monotonicity(F, sub, h):
    """restrict_family's answer on whether h is monotone: ("value", None),
    or the type and message of what it raised."""
    return outcome(_restrict, F, sub, h)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds)
def test_restrict_family_refuses_what_the_scan_refuses(seed):
    rng = random.Random(seed)
    F = random_direct_family(rng, random_directed_index(rng, 5), COVARIANT)
    sub, h = random_restriction(rng, F.index)
    assert _monotonicity(F, sub, h) == outcome(check_monotone_scan, sub, F.index, h)


def test_the_restrictions_are_both_monotone_and_not():
    kinds = set()
    rng = random.Random(0)
    for _ in range(200):
        F = random_direct_family(rng, random_directed_index(rng, 5), COVARIANT)
        kinds.add(_monotonicity(F, *random_restriction(rng, F.index))[0])
    assert len(kinds) == 2


# --- indices a pair set could not hold ------------------------------------------

def test_the_product_of_two_chain100s():
    # 10,000 elements and 25,502,500 order pairs, read off the factors' rows
    C = chain(100)
    D = product_order(C, C)
    assert D.top == Pair(("99", "99"))
    rng = random.Random(0)
    for _ in range(200):
        a, b = D.elements[rng.randrange(10_000)], D.elements[rng.randrange(10_000)]
        assert D.leq(a, b) == (C.leq(a[0], b[0]) and C.leq(a[1], b[1]))
        assert D.up(a, b) == Pair((C.up(a[0], b[0]), C.up(a[1], b[1])))


def test_the_chain1600_from_its_covers(monkeypatch):
    # make_directed reads the covers off the given pairs: the row walk of
    # DirectedIndex.covers resumes `_members` 1,280,800 times on this chain
    resumed = [0]
    members = order._members

    def counted(items, mask):
        for x in members(items, mask):
            resumed[0] += 1
            yield x

    monkeypatch.setattr(order, "_members", counted)
    names = [str(k) for k in range(1600)]
    D = make_directed(names, list(zip(names, names[1:])))
    assert D.covers == {**{names[k]: (names[k + 1],) for k in range(1599)}, "1599": ()}
    assert D.top == "1599"
    assert resumed[0] == 1600  # one per cover, and one for the top
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.randrange(1600), rng.randrange(1600)
        assert D.leq(names[a], names[b]) == (a <= b)
    pairs = D.order_pairs()
    assert len(pairs) == 1600 * 1601 // 2 == 1_280_800
    assert list(pairs[:5000]) == sorted(pairs[:5000])
    assert pairs[:3] == (("0", "0"), ("0", "1"), ("0", "10"))


# --- make_directed against the closure scan ---------------------------------------

def _given_pairs(rng):
    """(base, pairs, kind): a DAG listed in shuffled order, with repeated
    and reflexive pairs; the same with back edges, so with cycles; a base
    that merges two elements; pairs naming z, off the base; or the empty
    base."""
    kind = rng.choice(["dag", "dag", "cyclic", "merged", "off-base", "empty"])
    if kind == "empty":
        return make_setoid([], empty=True), rng.choice([[], [("a", "b")]]), kind
    n = rng.randint(1, 7)
    names = [f"e{k}" for k in range(n)]
    rank = names[:]
    rng.shuffle(rank)  # the DAG runs up this order, not the carrier's
    pairs = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.35]
    if rng.random() < 0.7:  # a top, so the index is directed
        pairs += [(x, rank[-1]) for x in rank[:-1]]
    pairs += [(x, x) for x in names if rng.random() < 0.1]
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))  # repeated
    if kind == "cyclic" and n > 1:
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(range(n), 2))
            pairs.append((rank[b], rank[a]))
    if kind == "off-base":
        pairs.insert(rng.randrange(len(pairs) + 1), rng.choice([("z", names[0]), (names[0], "z")]))
    rng.shuffle(pairs)
    merged = [tuple(rng.sample(names, 2))] if kind == "merged" and n > 1 else []
    return make_setoid(names, merged), pairs, kind


def _index_answers(D):
    return D.rows, D.top, D.order_pairs(), D.covers


def _by_the_scan(base, pairs):
    """What make_directed answers, read off close_order_scan: the rows of
    the closed relation, its top folded from the first upper bounds, its
    order pairs and the covers of its row pass; or the refusal."""
    closed = outcome(close_order_scan, base, pairs)
    if closed[0] != "value":
        return closed
    if not base.elements:
        return NotDirected, "no element is above every element"
    bounds = outcome(first_upper_bounds_scan, base.elements, closed[1])
    if bounds[0] != "value":
        return bounds
    D = index_of_pairs(base, closed[1])
    assert D.covers == hasse_covers(D)
    return "value", (D.rows, fold_top(base.elements, bounds[1]), D.order_pairs(), D.covers)


def _built(base, pairs):
    D = make_directed(base, pairs)
    assert "covers" in vars(D)  # read off the given pairs, not by the row pass
    return _index_answers(D)


def test_make_directed_matches_the_closure_scan():
    rng = random.Random(45)
    seen = set()
    for _ in range(3000):
        base, pairs, kind = _given_pairs(rng)
        got = outcome(_built, base, pairs)
        assert got == _by_the_scan(base, pairs), (base, pairs)
        if got[0] == "value":
            seen.add((kind, got[1][3] is not None))
        else:
            seen.add((kind, got[0]))
    assert seen >= {("dag", True), ("cyclic", False), ("merged", False),
                    ("dag", NotDirected), ("cyclic", NotDirected),
                    ("off-base", UnknownElement), ("empty", NotDirected)}
