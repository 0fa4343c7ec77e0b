"""Value tables: each shortcut that compares whole tables, class ids or
shared Fraction objects against the value-by-value path it stands for.
Hypothesis runs derandomized, so the suite stays deterministic."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bspec import dsl, spectra, topology
from bspec.cli import main
from bspec.families import COVARIANT, direct_sum_setoid
from bspec.report import Finding
from bspec.setoid import SetoidFn, setoid_by_key
from bspec.spectra import sum_space
from bspec.topology import (
    RFun,
    cert_conclusion,
    compose_rfun,
    space,
    validate_certificate,
)

from oracles import outcome
from randgen import (
    random_certificate,
    random_direct_family,
    random_directed_index,
    random_spectrum,
)

FAST = settings(derandomize=True, max_examples=150, deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
ROOT = Path(__file__).resolve().parent.parent


def _random_setoid(rng, elements):
    return setoid_by_key(elements, [rng.randrange(len(elements))
                                    for _ in elements])


def _class_constant(rng, carrier):
    """An RFun constant on classes, each value a fresh Fraction object, so
    equal values are not shared."""
    vals = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in carrier.classes()]
    return RFun(carrier, {x: Fraction(*vals[carrier.class_id[x]])
                          for x in carrier.elements})


def _pullback_by_value(f, h):
    """compose_rfun as the checked constructor computes it."""
    return RFun(h.dom, {x: f(h(x)) for x in h.dom.elements})


def _pull_back_by_value(f, h, checked, values=None):
    """topology._pull_back, which every pullback goes through, as the
    checked constructor computes it, reading f along h afresh."""
    return _pullback_by_value(f, h)


def _as_table(result):
    kind, value = result
    if kind == "value":
        return kind, value.carrier, list(value.values.items())
    return result


@FAST
@given(seeds)
def test_compose_rfun_matches_the_checked_pullback(seed):
    rng = random.Random(seed)
    ys = tuple(f"y{k}" for k in range(rng.randint(1, 4)))
    xs = tuple(f"x{k}" for k in range(rng.randint(1, 5)))
    Y = _random_setoid(rng, ys)
    f = _class_constant(rng, Y)
    # the codomain: Y itself, a copy of it, or the same elements with an
    # equality of their own
    cod = rng.choice([
        Y,
        setoid_by_key(ys, map(Y.class_id.get, ys)),
        _random_setoid(rng, ys),
        setoid_by_key(ys, ys),
        setoid_by_key(ys, [0] * len(ys)),
    ])
    X = rng.choice([_random_setoid(rng, xs), setoid_by_key(xs, xs)])
    if rng.random() < 0.5:
        # constant on the classes of X: extensional into cod
        pick = [rng.choice(ys) for _ in X.classes()]
        mapping = {x: pick[X.class_id[x]] for x in xs}
    else:
        mapping = {x: rng.choice(ys) for x in xs}
    h = SetoidFn(X, cod, mapping)
    fast = outcome(compose_rfun, f, h)
    slow = outcome(_pullback_by_value, f, h)
    assert _as_table(fast) == _as_table(slow)


@FAST
@given(seeds)
def test_product_generators_match_the_checked_pullback(seed):
    """product_space pulls each factor's generators back along its
    projection unchecked: the same tables as the checked constructor."""
    rng = random.Random(seed)
    X = _random_setoid(rng, ("a", "b", "c")[:rng.randint(1, 3)])
    Y = _random_setoid(rng, ("p", "q")[:rng.randint(1, 2)])
    b1 = space(X, [_class_constant(rng, X) for _ in range(2)])
    b2 = space(Y, [_class_constant(rng, Y)])
    sp, pr1, pr2 = topology.product_space(b1, b2)
    want = ([_pullback_by_value(g, pr1) for g in b1.gens]
            + [_pullback_by_value(g, pr2) for g in b2.gens])
    assert [_as_table(("value", g)) for g in sp.gens] == [
        _as_table(("value", g)) for g in want]


def test_compose_rfun_refuses_a_map_into_a_coarser_equality():
    Y = setoid_by_key(("p", "q"), ("p", "q"))
    f = RFun(Y, {"p": 0, "q": 1})
    coarse = setoid_by_key(("p", "q"), (0, 0))
    X = setoid_by_key(("a", "b"), (0, 0))
    h = SetoidFn(X, coarse, {"a": "p", "b": "q"})  # extensional into coarse
    with pytest.raises(topology.NotExtensional,
                       match="function separates equal elements 'a', 'b'"):
        compose_rfun(f, h)


def _value_scan(sp, f, c):
    """validate_certificate's last step, one element at a time."""
    conclusion = cert_conclusion(sp, c)
    for x in sp.carrier.elements:
        if conclusion(x) != f(x):
            return [Finding("value-mismatch", (x, str(f(x)), str(conclusion(x))))]
    return []


@FAST
@given(seeds)
def test_validate_certificate_matches_the_value_scan(seed):
    rng = random.Random(seed)
    elements = tuple(f"e{k}" for k in range(rng.randint(1, 5)))
    carrier = _random_setoid(rng, elements)
    sp = space(carrier, [_class_constant(rng, carrier)
                         for _ in range(rng.randint(0, 3))])
    c = random_certificate(rng, sp, depth=4)
    values = dict(cert_conclusion(sp, c).values)
    for cls in carrier.classes():
        if rng.random() < 0.4:  # move the target off the conclusion here
            moved = values[cls[0]] + rng.choice([-1, Fraction(1, 3), 2])
            values.update((x, moved) for x in cls)
    # half the time on the same classes listed in another order, so the
    # target's table is not in carrier order
    order = list(elements)
    rng.shuffle(order)
    where = rng.choice([carrier, setoid_by_key(
        order, [carrier.class_id[x] for x in order])])
    f = RFun(where, {x: Fraction(v.numerator, v.denominator)
                     for x, v in values.items()})
    rep = validate_certificate(sp, f, c)
    expected = _value_scan(sp, f, c)
    assert rep.findings == expected
    assert rep.ok == (not expected)


@FAST
@given(seeds)
def test_enumerated_threads_give_distinct_generators(seed):
    rng = random.Random(seed)
    index = random_directed_index(rng)
    fam = random_direct_family(rng, index, COVARIANT, allow_merged=True)
    pool = rng.choice([(0, 1), (0,), (1, 0, Fraction(1, 2)), ()])
    s = random_spectrum(rng, index, COVARIANT, family=fam, pool=pool)
    sum_s = direct_sum_setoid(fam)
    sp, threads = sum_space(s, sum_s)
    tables = [tuple(g.values[x] for x in sum_s.elements) for g in sp.gens]
    assert len(set(tables)) == len(tables) == len(threads)
    assert sp.names == tuple(f"thr{n}" for n in range(len(threads)))


def test_equal_rationals_parse_equal():
    assert dsl.parse_rational("2/4") == dsl.parse_rational("1/2") == Fraction(1, 2)
    assert dsl.parse_rational("-3") == Fraction(-3)


@FAST
@given(st.integers(-50, 50), st.integers(-9, 9).filter(bool))
def test_repeated_tokens_come_back_as_one_object(num, den):
    token = f"{num}/{den}"
    first = dsl.parse_rational(token)
    assert first == Fraction(num, den)
    assert dsl.parse_rational(token) is first


@pytest.mark.parametrize("token", ["1/0", "x", "1/2/3"])
def test_a_bad_token_is_refused_every_time(token):
    for _ in range(2):
        with pytest.raises(dsl.TypeMismatch, match="not a rational"):
            dsl.parse_rational(token)


FIXTURES = sorted((ROOT / "fixtures").glob("*.bsp"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_reports_do_not_depend_on_the_shortcuts(path, tmp_path, capsys,
                                                monkeypatch):
    """Every fixture's report with each rational parsed afresh and every
    pullback built by the checked constructor is its golden report."""
    monkeypatch.setattr(dsl, "_rational", dsl._rational.__wrapped__)
    for module in (topology, spectra):
        monkeypatch.setattr(module, "compose_rfun", _pullback_by_value)
    monkeypatch.setattr(topology, "_pull_back", _pull_back_by_value)
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    golden = ROOT / "tests" / "golden" / f"{path.stem}.json"
    assert out.read_bytes() == golden.read_bytes()
