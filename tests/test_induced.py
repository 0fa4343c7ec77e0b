"""The morphism-space spectrum builder against the four-shape builder it
replaced (`tests/oracles.py`): on every input both give the same direction,
transports, edge certificates and pools, or the same PoolNotClosed
refusal.  The new builder's tables are read in full through the accessors,
as it derives them on first use.  The inputs are each fixture and
test-document spectrum paired with each subbase of its document, seeded
random spectra of both directions with their pools whole and with one pool
cut, and hand-cut pools that are not closed, first pushed out of along a
cover or along a composite."""

import random
from pathlib import Path

import pytest

from bspec.dsl import elaborate, parse
from bspec.duality import DualityError, PoolNotClosed, enumerate_morphisms, induce_spectrum
from bspec.families import CONTRAVARIANT, COVARIANT
from bspec.limits import Limits

from oracles import induce_spectrum_by_shape, read_in_full
from randgen import random_spectrum
from structures import constant_cspec, x2_space

ROOT = Path(__file__).resolve().parent.parent
# every document but deep-lifted-witnesses, whose witnesses off its covers,
# read in full, are lifted from composites nested past the interpreter's
# limit (its check reads none of them)
DOCUMENTS = sorted([*ROOT.glob("fixtures/*.bsp"), *ROOT.glob("tests/documents/*.bsp")])
DOCUMENTS.remove(ROOT / "tests" / "documents" / "deep-lifted-witnesses.bsp")

SHAPE = {(COVARIANT, True): "A_i", (COVARIANT, False): "A_ii",
         (CONTRAVARIANT, True): "B_i", (CONTRAVARIANT, False): "B_ii"}


def _pools(s, fixed, hom_into):
    """The pool at each index, enumerated once per space, or None when a
    map space exceeds enumerate_morphisms' cap."""
    lims = Limits()
    try:
        return {i: lims.pool(*((s.space(i), fixed) if hom_into else (fixed, s.space(i))))
                for i in s.index.elements}
    except DualityError:
        return None


def _tables(spec):
    """A morphism-space spectrum as plain values, its transports and edge
    certificates read in full through the accessors."""
    spaces = {i: (sp.carrier.elements, sp.carrier.classes(),
                  [g.values for g in sp.gens], sp.names,
                  {n: (w.h.mapping, w.certs) for n, w in sp.witnesses.items()})
              for i, sp in spec.spaces.items()}
    transports, certs = read_in_full(spec)
    return (spec.direction, {p: fn.mapping for p, fn in transports.items()},
            certs, spaces, spec.pool)


def _built(build, *args):
    try:
        return _tables(build(*args))
    except PoolNotClosed as exc:
        return str(exc)


def _agree(s, fixed, hom_into, pools):
    """Compare the two builders on one input; the refusal, if any."""
    new = _built(induce_spectrum, s, fixed, hom_into, pools)
    old = _built(induce_spectrum_by_shape, s, fixed, SHAPE[(s.direction, hom_into)], pools)
    assert new == old
    return new if isinstance(new, str) else None


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_document_spectra_build_as_the_four_shape_builder(path):
    env = elaborate(parse(path.read_text(encoding="utf-8")))
    compared = 0
    for s in env.spectra.values():
        for fixed in env.subbases.values():
            for hom_into in (True, False):
                pools = _pools(s, fixed, hom_into)
                if pools is not None:
                    assert _agree(s, fixed, hom_into, pools) is None
                    compared += 1
    assert compared


@pytest.mark.parametrize("direction", [COVARIANT, CONTRAVARIANT])
def test_random_spectra_build_as_the_four_shape_builder(direction):
    rng = random.Random(38 if direction == COVARIANT else 83)
    refusals = 0
    for _ in range(300):
        s = random_spectrum(rng, direction=direction)
        fixed = rng.choice([x2_space(), s.space(rng.choice(s.index.elements))])
        for hom_into in (True, False):
            pools = _pools(s, fixed, hom_into)
            assert _agree(s, fixed, hom_into, pools) is None
            # one pool cut by one element: closed or not, both builders agree
            i = rng.choice(s.index.elements)
            cut = list(pools[i])
            if cut:
                del cut[rng.randrange(len(cut))]
                refusals += _agree(s, fixed, hom_into, {**pools, i: cut}) is not None
    assert refusals


def test_a_cut_pool_is_refused_alike():
    # a constant spectrum: every transport is the identity, so a pool
    # without m3 takes nothing in from a pool with it
    s, sp = constant_cspec(), x2_space()
    whole = {i: enumerate_morphisms(sp, sp) for i in s.index.elements}
    # homs into sp are pre-composed, from the pool at j into the pool at i
    assert (_agree(s, sp, True, {**whole, "0": whole["0"][:3]})
            == "edge (0, 1) pushes 1.m3 out of the pool")
    # homs out of sp are post-composed, from the pool at i into the pool at j
    assert (_agree(s, sp, False, {**whole, "2": whole["2"][:3]})
            == "edge (0, 2) pushes 0.m3 out of the pool")


@pytest.mark.parametrize("hom_into, cuts", [
    (True, {"1": ("1", "10"), "10": ("10", "11")}),
    (False, {"2": ("0", "2"), "1": ("0", "1")})])
def test_a_cut_pool_is_refused_at_its_first_edge_in_order(hom_into, cuts):
    # the cover-only chain(24) spectrum SU acts on its covers first; its
    # order pairs sort by name, so a pool cut by one map is pushed out of
    # first along a composite for the first cut, along a cover for the
    # second, and both builders name that edge
    path = ROOT / "tests" / "documents" / "cover-only-chains.bsp"
    env = elaborate(parse(path.read_text(encoding="utf-8")))
    s, fixed = env.spectra["SU"], env.subbases["S2"]
    pools = _pools(s, fixed, hom_into)
    for (i, (a, b)), cover in zip(cuts.items(), (False, True)):
        assert (b in s.index.covers[a]) == cover
        refused = _agree(s, fixed, hom_into, {**pools, i: pools[i][1:]})
        assert refused.startswith(f"edge ({a}, {b}) pushes ")
