"""Threads read off the top component, against the backtracking search they
replaced: the same threads, in the same order, with the same certificates,
on valid random spectra and on families broken by hand.  Thread order
reaches reports through the `thr{n}` generator names.  Hypothesis runs
derandomized, so the suite stays deterministic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bspec.families import COVARIANT, DirectFamily
from bspec.order import chain
from bspec.setoid import SetoidFn
from bspec.spectra import (
    Spectrum,
    SpectrumError,
    constant_spectrum,
    enumerate_threads,
)
from bspec.topology import RFun, Subbase

from oracles import enumerate_threads_backtracking
from randgen import random_rational, random_spectrum
from structures import x2_space
from thread_laws import validate_thread

seeds = st.integers(min_value=0, max_value=2**32 - 1)
FAULTS = ("none", "swapped-identity", "not-composing", "extra-generators")


def _class_map(rng, dom, cod):
    """A random extensional table: each class of `dom` to one element of `cod`."""
    table = {}
    for cls in dom.classes():
        v = rng.choice(cod.elements)
        table.update(dict.fromkeys(cls, v))
    return SetoidFn(dom, cod, table)


def _broken(seed, fault):
    """A covariant randgen spectrum, with one fault put in by hand:
    a transport along some i <= i that permutes the classes, transports
    along non-reflexive pairs replaced by random extensional tables (so
    composites need not agree), or random generators added at some
    indices (so lower indices list candidates that are no pullback)."""
    rng = random.Random(seed)
    s = random_spectrum(rng, n_base=rng.randint(1, 3))
    fam, index = s.fam, s.index
    transports, subbases = dict(fam.transports), dict(s.subbases)
    if fault == "swapped-identity":
        i = rng.choice(index.elements)
        X = fam.carrier(i)
        reps = [cls[0] for cls in X.classes()]
        moved = reps[1:] + reps[:1]
        to = {r: m for r, m in zip(reps, moved)}
        transports[(i, i)] = SetoidFn(
            X, X, {x: to[X.class_repr(x)] for x in X.elements})
    elif fault == "not-composing":
        edges = [p for p in index.order_pairs() if p[0] != p[1]] or index.order_pairs()
        for i, j in rng.sample(edges, rng.randint(1, len(edges))):
            transports[(i, j)] = _class_map(rng, fam.carrier(i), fam.carrier(j))
    elif fault == "extra-generators":
        for i in rng.sample(index.elements, rng.randint(1, len(index.elements))):
            X = fam.carrier(i)
            extra = []
            for _ in range(rng.randint(1, 2)):
                values = {}
                for cls in X.classes():
                    values.update(dict.fromkeys(cls, random_rational(rng, 0, 1, 2)))
                extra.append(RFun(X, values))
            sb = subbases[i]
            subbases[i] = Subbase(X, sb.gens + tuple(extra),
                                  sb.names + tuple(f"e{k}" for k in range(len(extra))))
    fam = DirectFamily(index, COVARIANT, fam.carriers, transports)
    return Spectrum(fam, subbases, s.witness_certs, s.pool)


def _listing(s, threads):
    return [(list(t.funcs), dict(t.certs),
             {i: t.at(i).values for i in t.funcs}) for t in threads]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seeds, st.sampled_from(FAULTS))
def test_threads_match_the_backtracking_search(seed, fault):
    s = _broken(seed, fault)
    got = enumerate_threads(s)
    assert _listing(s, got) == _listing(s, enumerate_threads_backtracking(s))
    assert all(validate_thread(s, t) == [] for t in got)


def test_faults_reject_threads():
    # the faults are not vacuous: on some seeds each removes threads the
    # valid spectrum has
    for fault in ("swapped-identity", "not-composing"):
        fewer = 0
        for seed in range(30):
            valid = len(enumerate_threads(_broken(seed, "none")))
            fewer += len(enumerate_threads(_broken(seed, fault))) < valid
        assert fewer > 0, fault


def test_threads_over_a_contravariant_spectrum_are_refused():
    s = constant_spectrum(chain(2), x2_space(), direction="contravariant")
    with pytest.raises(SpectrumError):
        enumerate_threads(s)


def test_thread_order_follows_candidate_positions():
    s = constant_spectrum(chain(3), x2_space(), pool=(1, 0))
    certs = [t.certs["2"] for t in enumerate_threads(s)]
    # generators first, then the pool in declared order
    assert [type(c).__name__ for c in certs] == ["CGen", "CConst", "CConst"]
    assert [c.value for c in certs[1:]] == [Fraction(1), Fraction(0)]
