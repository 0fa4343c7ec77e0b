"""Differential tests for the keyed deciders of the index and family laws:
the order closure, saturation and the family laws, each against the scan
it replaced.  Hypothesis runs derandomized, so the
suite stays deterministic."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bspec import dsl, families, order, runner
from bspec.cli import main
from bspec.dsl import elaborate, parse
from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    _direct_family_laws_hold,
    _held_family,
    _validate_direct_family_scan,
    validate_direct_family,
)
from bspec.order import NotDirected, chain, make_directed, validate_directed
from bspec.setoid import (
    SetoidFn,
    UnknownElement,
    compose,
    identity,
    make_setoid,
    setoid_by_key,
)

from oracles import (
    close_order_scan,
    first_upper_bounds_scan,
    index_of_pairs,
    leq_extensional_scan,
    leq_transitive_scan,
    outcome,
    saturate_rescan,
)
from randgen import (
    FAULTS,
    _heights,
    faulty_family,
    random_direct_family,
    random_directed_index,
    raw_map,
)

FAST = settings(derandomize=True, max_examples=80, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
directions = st.sampled_from([COVARIANT, CONTRAVARIANT])
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.bsp"))


# --- the order closure --------------------------------------------------------

@st.composite
def order_bases(draw):
    """A base with merged elements and order pairs with cycles; sometimes a
    pair names the element z outside the base."""
    n = draw(st.integers(min_value=1, max_value=6))
    els = [f"e{k}" for k in range(n)]
    two = st.tuples(st.sampled_from(els), st.sampled_from(els))
    base = make_setoid(els, draw(st.lists(two, max_size=3)))
    field = els + ["z"] if draw(st.integers(min_value=0, max_value=4)) == 0 else els
    pairs = draw(st.lists(st.tuples(st.sampled_from(field), st.sampled_from(field)),
                          max_size=12))
    return base, pairs


def _closure(base, pairs):
    """make_directed's closure of the pairs over base, as rows and order
    pairs.  The base gets a fresh element t above every element, so the
    index is directed whatever the pairs are; t reaches only itself, so
    the rows at the base's positions, t's bit cleared, are the closure's."""
    n = len(base.elements)
    topped = setoid_by_key(base.elements + ("t",),
                           [*map(base.class_id.get, base.elements), "t"])
    D = make_directed(topped, [*pairs, *((x, "t") for x in base.elements)])
    return ([row & ~(1 << n) for row in D.rows[:n]],
            tuple(p for p in D.order_pairs() if "t" not in p))


def _rows_and_pairs(base, rel):
    return index_of_pairs(base, rel).rows, tuple(sorted(rel))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(order_bases())
def test_close_order_matches_scan(case):
    base, pairs = case
    scanned = outcome(close_order_scan, base, pairs)
    closed = scanned[1] if scanned[0] == "value" else None
    want = scanned if closed is None else ("value", _rows_and_pairs(base, closed))
    assert outcome(_closure, base, pairs) == want
    # the first upper bounds, over the closure and over the raw pairs
    rels = [] if closed is None else [closed]
    if all(base.has(x) for p in pairs for x in p):  # no index holds z
        rels.append(frozenset(pairs))
    for rel in rels:
        assert (outcome(_up_table, index_of_pairs(base, rel))
                == outcome(first_upper_bounds_scan, base.elements, rel))
    # make_directed's rows are the closure's, and its refusal names the
    # pair the scan first meets
    if closed is not None:
        built = outcome(make_directed, base, pairs)
        if built[0] == "value":
            assert _rows_and_pairs(base, closed) == (built[1].rows, built[1].order_pairs())
            built = outcome(_up_table, built[1])
        assert built == outcome(first_upper_bounds_scan, base.elements, closed)


def _up_table(D):
    """`up` over every pair of D, in carrier order."""
    return {(i, j): D.up(i, j) for i in D.elements for j in D.elements}


def test_unknown_element_raises_as_the_scan_does():
    base = make_setoid(["a", "b"], [("a", "b")])
    for pairs in ([("a", "z")], [("z", "b")], [("a", "b"), ("b", "z")]):
        got = outcome(make_directed, base, pairs)
        assert got[0] is UnknownElement
        assert got == outcome(close_order_scan, base, pairs)


def test_closure_needs_an_equivalence_on_the_base():
    # a base is labelled by the builder that made it, so its equality is an
    # equivalence and the closure only ever meets class ids
    base = make_setoid(["a", "b"])
    D = make_directed(base, [("a", "b")])
    assert D.order_pairs() == (("a", "a"), ("a", "b"), ("b", "b"))
    # an empty base takes no element, named or not, and has no top
    empty = make_setoid([], empty=True)
    with pytest.raises(NotDirected):
        make_directed(empty, [("a", "b")])


def test_closure_of_a_long_chain():
    names = [str(k) for k in range(200)]
    D = make_directed(make_setoid(names), list(zip(names, names[1:])))
    assert len(D.order_pairs()) == 20_100
    assert (D.rows, D.order_pairs()) == (chain(200).rows, chain(200).order_pairs())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(order_bases(), st.booleans())
def test_leq_extensional_matches_the_quadruple_scan(case, closed):
    base, pairs = case
    pairs = [(i, j) for i, j in pairs if base.has(i) and base.has(j)]
    rel = close_order_scan(base, pairs) if closed else frozenset(pairs)
    D = index_of_pairs(base, rel)
    keyed = [f for f in validate_directed(D) if f.law == "leq-extensional"]
    assert keyed == leq_extensional_scan(D)
    if closed:
        assert keyed == []


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(order_bases(), st.booleans())
def test_leq_transitive_matches_the_scan(case, closed):
    base, pairs = case
    closed = closed and all(base.has(x) for p in pairs for x in p)
    rel = close_order_scan(base, pairs) if closed else frozenset(pairs)
    built = outcome(index_of_pairs, base, rel)
    if built[0] != "value":  # a raw pair names z, and no index holds it
        assert built[0] is UnknownElement
        return
    D = built[1]

    def keyed():
        return [f for f in validate_directed(D) if f.law == "leq-transitive"]

    assert outcome(keyed) == outcome(leq_transitive_scan, D)
    if closed:
        assert keyed() == []


# --- saturation ---------------------------------------------------------------

def _generating_edges(rng, fam, fault):
    """A random set of the family's edges to saturate from; with a fault,
    some of them are replaced by random tables, so composites along
    different middle indices differ."""
    given = {}
    for i, j in fam.order_pairs():
        if i != j and rng.random() < 0.6:
            fn = fam.transport(i, j)
            if fault and rng.random() < 0.5:
                fn = raw_map(rng, fn.dom, fn.cod)
            given[(i, j)] = fn
    return given


def _tables(known):
    return [(p, fn.dom.elements, fn.cod.elements, fn.mapping)
            for p, fn in known.items()]


def _saturated(index, carriers, given, direction=COVARIANT):
    """Every order pair of the family held from `given`, read: composed
    through its middle on first read, or made as an inverse when built."""
    fam = _held_family(index, direction, carriers, given)
    return {p: fam.transport(*p) for p in index.order_pairs()}


@FAST
@given(seeds, directions, st.booleans())
def test_saturate_matches_rescan(seed, direction, fault):
    rng = random.Random(seed)
    fam = random_direct_family(rng, random_directed_index(rng, 6), direction)
    given = _generating_edges(rng, fam, fault)
    got = outcome(_saturated, fam.index, fam.carriers, given, direction)
    want = outcome(saturate_rescan, fam.index, fam.carriers, given, direction)
    if got[0] == "value" and want[0] == "value":
        assert sorted(_tables(got[1])) == sorted(_tables(want[1]))
    else:
        assert got == want


def test_saturate_derives_inverses_across_cycles():
    index = order.make_directed(["a", "b"], [("a", "b"), ("b", "a")])
    X = make_setoid(["p", "q"])
    swap = SetoidFn(X, X, {"p": "q", "q": "p"})
    given = {("a", "b"): swap}
    fam = _held_family(index, COVARIANT, {"a": X, "b": X}, given)
    assert set(fam.transports) == {("a", "a"), ("a", "b"), ("b", "b"), ("b", "a")}
    got = _saturated(index, {"a": X, "b": X}, given)
    want = saturate_rescan(index, {"a": X, "b": X}, given)
    assert sorted(_tables(got)) == sorted(_tables(want))
    assert got[("b", "a")].mapping == {"p": "q", "q": "p"}


def test_the_cycle_document_holds_its_maps_back_as_inverses():
    # b -> a and c -> a have no middle when the sweep reaches them, so each
    # is made when the family is built, inverting the map the other way (a
    # -> c composed through b); a -> c and c -> b are composed on first read
    text = (ROOT / "tests" / "documents" / "cycle-inverses.bsp").read_text(encoding="utf-8")
    fam = elaborate(parse(text)).families["SWAPS"]
    assert sorted(p for p in fam.transports if p[0] != p[1]) == [
        ("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")]
    assert fam.middles == {("a", "c"): "b", ("c", "b"): "a"}
    assert fam.transport("b", "a").mapping == {"p": "q", "q": "p"}
    assert fam.transport("c", "a").mapping == {"p": "q", "q": "p"}
    assert fam.transport("c", "b").mapping == {"p": "p", "q": "q"}


def test_a_derived_transport_does_not_depend_on_the_hash_seed():
    """The diamond's a <= d is derived through b, its first middle in
    carrier order, under every hash seed; so the path through c is the one
    that disagrees.  A middle drawn from a set of names would follow the
    string hashes."""
    path = ROOT / "tests" / "hostile" / "disagreeing-paths.bsp"
    errs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "bspec.cli", "check", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        errs.add(proc.stderr)
    assert errs == {"bspec: 16:0: family-composition at a, c, d\n"}


# --- the family laws ----------------------------------------------------------

@FAST
@given(seeds, directions, st.sampled_from(FAULTS))
def test_family_laws_match_scan(seed, direction, fault):
    rng = random.Random(seed)
    fam = faulty_family(rng, random_directed_index(rng), direction, fault)
    assert validate_direct_family(fam) == _validate_direct_family_scan(fam)
    if fault == "none":
        assert _direct_family_laws_hold(fam)


def test_injected_faults_reach_every_law():
    laws = set()
    for seed in range(200):
        rng = random.Random(seed)
        direction = (COVARIANT, CONTRAVARIANT)[seed % 2]
        fam = faulty_family(rng, random_directed_index(rng), direction,
                             FAULTS[1 + seed % 3])
        laws |= {f.law for f in validate_direct_family(fam)}
    assert laws == {"family-identity", "family-composition",
                    "transport-extensional"}


# --- the scans do not run where the keyed paths decide ------------------------

def _refuse(*args, **kwargs):
    raise AssertionError("a scan ran")


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_keyed_paths_decide_every_fixture(path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(families, "_validate_direct_family_scan", _refuse)
    monkeypatch.setattr(runner, "_equivalence_scan", _refuse)
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    golden = ROOT / "tests" / "golden" / f"{path.stem}.json"
    assert out.read_bytes() == golden.read_bytes()


def _chain_document(n):
    """chain(n) with three-point carriers, one merged pair, and a
    non-identity map on every generating edge."""
    els = ", ".join(str(k) for k in range(n))
    order_text = ", ".join(f"{k} <= {k + 1}" for k in range(n - 1))
    lines = ["setoid S {", "  elements: p0, p1, p2", "  equal: p0 ~ p1", "}",
             "directed C {", f"  elements: {els}", f"  order: {order_text}",
             "  closure: auto", "}",
             "family F {", "  index: C", "  direction: covariant"]
    lines += [f"  carrier {k}: S" for k in range(n)]
    lines += [f"  map {k} -> {k + 1}: p0 => p2, p1 => p2, p2 => p0"
              for k in range(n - 1)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_chain40_document_elaborates_as_the_scans_do(monkeypatch):
    text = _chain_document(40)
    keyed = elaborate(parse(text))
    monkeypatch.setattr(dsl, "make_directed", lambda base, pairs: index_of_pairs(
        base, close_order_scan(base, pairs)))
    monkeypatch.setattr(families, "_direct_family_laws_hold", lambda F: False)
    scanned = elaborate(parse(text))
    D, E = keyed.directeds["C"], scanned.directeds["C"]
    assert D.rows == E.rows and D.order_pairs() == E.order_pairs()
    assert len(D.order_pairs()) == 820
    assert _up_table(D) == first_upper_bounds_scan(E.elements, set(E.order_pairs()))
    # the family holds its covers; a full read derives the rest, and so
    # does the scan of the laws on the family shown unlawful
    F, G = keyed.families["F"], scanned.families["F"]
    covers = {(str(k), str(k + 1)): F.transports[(str(k), str(k + 1))] for k in range(39)}
    want = _by_pair(saturate_rescan(D, F.carriers, covers))
    assert _by_pair({p: F.transport(*p) for p in D.order_pairs()}) == want
    assert _by_pair(G.transports) == want


def _by_pair(known):
    return {p: (fn.dom.elements, fn.cod.elements, fn.mapping) for p, fn in known.items()}


# --- random families ----------------------------------------------------------

@FAST
@given(seeds, directions)
def test_random_family_composites_are_the_step_folds(seed, direction):
    """Each transport is the fold of the level steps from the identity."""
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, direction)
    height = _heights(index)
    levels = sorted(set(height.values()))
    step = {}
    for i, j in index.order_pairs():
        if levels.index(height[j]) == levels.index(height[i]) + 1:
            step[(height[i], height[j])] = fam.transport(i, j)
    for i, j in index.order_pairs():
        lo, hi = levels.index(height[i]), levels.index(height[j])
        fns = [step[(levels[n], levels[n + 1])] for n in range(lo, hi)]
        if direction == COVARIANT:
            out = identity(fam.carrier(i))
            for f in fns:
                out = compose(out, f)
        else:
            out = identity(fam.carrier(j))
            for f in reversed(fns):
                out = compose(out, f)
        assert fam.transport(i, j).mapping == out.mapping
