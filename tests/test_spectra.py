from fractions import Fraction
from pathlib import Path

import pytest

from bspec.families import COVARIANT, DirectFamily, FamilyMap, direct_sum_setoid
from bspec.order import chain
from bspec.report import Finding
from bspec.setoid import Pair, SetoidFn, discrete, make_fn, make_setoid
from bspec.spectra import (
    Spectrum,
    SpectrumError,
    Thread,
    constant_spectrum,
    enumerate_threads,
    make_spectrum,
    product_spectrum,
    restrict_spectrum,
    sum_space,
    validate_spectrum,
)
from bspec.topology import (
    CConst,
    CGen,
    RFun,
    ceq,
    culim,
    rconst,
    space,
    validate_certificate,
)

from structures import chain3, constant_cspec, cspec, eo_cofinal, x2_space
from thread_laws import (
    ContinuousMap,
    IncompatibleThread,
    check_induced_square,
    check_sum_morphisms,
    identity_continuous,
    pullback_thread,
    thread_to_sum_function,
    validate_spectrum_map,
    validate_thread,
)


def test_constant_spectrum_valid():
    assert validate_spectrum(constant_cspec()) == []


def test_cspec_valid():
    assert validate_spectrum(cspec()) == []


def test_cspec_broken_witness_reported():
    s = cspec()
    bad = dict(s.witness_certs)
    # claim the pulled-back generator is constant 1 instead of 0
    bad[("1", "2")] = {0: CConst(Fraction(1))}
    from bspec.spectra import Spectrum

    broken = Spectrum(s.fam, s.spaces, bad, s.pool)
    laws = {f.law for f in validate_spectrum(broken)}
    assert any("witness-certificate" in law for law in laws)


def test_a_space_over_another_carrier_is_reported():
    # index 0 of chain(1) has no edge, so no edge map reads its space: the
    # carrier check is what finds the space's p ~ q the family does not have
    fam = constant_spectrum(chain(1), x2_space()).fam
    merged = make_setoid(["p", "q"], [("p", "q")])
    bad = space(merged, [RFun(merged, {"p": 0, "q": 0})])
    s = Spectrum(fam, {"0": bad}, {})
    assert validate_spectrum(s) == [Finding("space-carrier", ("0",))]
    good = Spectrum(fam, {"0": x2_space()}, {})
    assert validate_spectrum(good) == []


def test_autofill_witnesses():
    s = cspec()
    rebuilt = make_spectrum(s.fam, s.spaces, pool=s.pool)
    assert validate_spectrum(rebuilt) == []


def test_enumerate_threads_cspec():
    s = cspec()
    threads = enumerate_threads(s)
    tables = {
        tuple(t.at(i)(x) for i in ("0", "1", "2")
              for x in s.fam.carrier(i).elements)
        for t in threads
    }
    # constants 0 and 1 are compatible; the generator triple is not a thread
    # because the top generator pulls back to the constant 0, not to f0
    assert (Fraction(0),) * 5 in tables
    assert (Fraction(1),) * 5 in tables
    assert len(threads) == 2


def test_threads_on_constant_spectrum_include_generator():
    s = constant_cspec()
    threads = enumerate_threads(s)
    # the generator itself and both pool constants survive compatibility
    assert len(threads) == 3


def test_thread_functions_are_class_constant():
    s = cspec()
    sum_s = direct_sum_setoid(s.fam)
    for t in enumerate_threads(s):
        f = thread_to_sum_function(s, t, sum_s)
        for a in sum_s.elements:
            for b in sum_s.elements:
                if sum_s.eq(a, b):
                    assert f(a) == f(b)


def test_incompatible_thread_rejected():
    s = cspec()
    funcs = {
        "0": s.space("0").gens[0],            # (a:0, b:1)
        "1": rconst(s.fam.carrier("1"), 0),
        "2": rconst(s.fam.carrier("2"), 0),
    }
    with pytest.raises(IncompatibleThread):
        thread_to_sum_function(s, Thread(funcs), direct_sum_setoid(s.fam))


def test_constant_thread_gives_constant_sum_function():
    s = cspec()
    t = Thread({i: rconst(s.fam.carrier(i), 5) for i in s.index.elements})
    f = thread_to_sum_function(s, t, direct_sum_setoid(s.fam))
    assert set(f.values.values()) == {Fraction(5)}


def test_sum_space_carrier_and_gens():
    s = cspec()
    sp, threads = sum_space(s, direct_sum_setoid(s.fam))
    assert sp.carrier.class_count() == 1
    # two constant threads give two generators (0 and 1)
    assert len(sp.gens) == 2


def test_pullback_thread_identity():
    s = cspec()
    psi = identity_continuous(s)
    for t in enumerate_threads(s):
        back = pullback_thread(s, s, psi, t)
        for i in s.index.elements:
            assert back.at(i).values == t.at(i).values


def test_sum_morphisms_and_square():
    s = constant_cspec()
    psi = identity_continuous(s)
    assert validate_spectrum_map(s, s, psi) == []
    assert check_sum_morphisms(s, s, psi) == []
    for (i, j) in s.fam.order_pairs():
        assert check_induced_square(s, s, psi, (i, j))


def _rev():
    from pathlib import Path
    from bspec.dsl import elaborate, parse

    root = Path(__file__).resolve().parent.parent
    return elaborate(parse((root / "fixtures" / "inverse.bsp").read_text())).spectrum("REV")


def test_induced_square_on_a_contravariant_spectrum():
    s = _rev()
    psi = identity_continuous(s)
    for edge in s.fam.order_pairs():
        assert check_induced_square(s, s, psi, edge)
    # swap the two points at index 0: psi_0 . lambda_01 = lambda_01 . psi_1
    # fails, while every square away from index 0 still commutes
    comps = dict(psi.comps)
    carrier = s.fam.carrier("0")
    comps["0"] = make_fn(carrier, carrier, {"a": "b", "b": "a"})
    swapped = FamilyMap(comps)
    assert not check_induced_square(s, s, swapped, ("0", "1"))
    assert not check_induced_square(s, s, swapped, ("0", "2"))
    assert check_induced_square(s, s, swapped, ("1", "2"))


def test_validate_thread_refuses_a_contravariant_spectrum():
    s = _rev()
    t = Thread({i: s.space(i).gens[0] for i in s.index.elements})
    with pytest.raises(SpectrumError):
        validate_thread(s, t)


def test_collapse_map_to_constant_spectrum():
    s = cspec()
    # target: constant spectrum on the one-point space with subbase {0}
    from bspec.spectra import constant_spectrum
    from bspec.setoid import discrete
    from bspec.topology import space

    pt = discrete(["z"])
    tsp = constant_spectrum(chain3(), space(pt, [rconst(pt, 0)], ["c"]),
                            pool=(0, 1))
    comps = {
        i: make_fn(s.fam.carrier(i), pt,
                   {x: "z" for x in s.fam.carrier(i).elements})
        for i in s.index.elements
    }
    conts = {i: {0: CConst(Fraction(0))} for i in s.index.elements}
    psi = ContinuousMap(comps, conts)
    assert validate_spectrum_map(s, tsp, psi) == []
    assert check_sum_morphisms(s, tsp, psi) == []
    const_threads = enumerate_threads(tsp)
    for h in const_threads:
        back = pullback_thread(s, tsp, psi, h)
        for i in s.index.elements:
            rep = validate_certificate(s.space(i), back.at(i), back.certs[i])
            assert rep.ok


def test_restrict_spectrum_to_evens():
    s = constant_cspec()
    # reuse the same chain as EO(1): {0,1,2} with evens {0,2}
    cof = eo_cofinal(1)
    r = restrict_spectrum(s, cof)
    assert validate_spectrum(r) == []
    assert set(r.index.elements) == {"0", "2"}


def test_product_spectrum_valid():
    s = constant_cspec()
    t = constant_cspec()
    prod, projections = product_spectrum(s, t)
    assert validate_spectrum(prod) == []
    sp, threads = sum_space(prod, direct_sum_setoid(prod.fam))
    assert threads  # at least the pooled constants survive
    assert sp.carrier.class_count() == 4


def test_product_spectrum_cspec():
    s = cspec()
    prod, _ = product_spectrum(s, s)
    assert validate_spectrum(prod) == []
    sp, _ = sum_space(prod, direct_sum_setoid(prod.fam))
    assert sp.carrier.class_count() == 1


def test_sum_morphisms_flags_missing_continuity():
    s = constant_cspec()
    bare = ContinuousMap(identity_continuous(s).comps)
    findings = check_sum_morphisms(s, s, bare)
    assert any(f.law == "not-continuous" for f in findings)


def test_enumerated_threads_pass_validation_at_the_reflexive_pair():
    # a family whose transport along 0 <= 0 swaps the two points breaks the
    # family-identity law; the generator it moves is no compatible choice
    X = discrete(["a", "b"])
    index = chain(1)
    swap = SetoidFn(X, X, {"a": "b", "b": "a"})
    fam = DirectFamily(index, COVARIANT, {"0": X}, {("0", "0"): swap})
    sp = space(X, [RFun(X, {"a": 0, "b": 1})], ["f"])
    s = Spectrum(fam, {"0": sp}, {})
    threads = enumerate_threads(s)
    assert [t.certs["0"] for t in threads] == [CConst(Fraction(0)),
                                                CConst(Fraction(1))]
    assert all(validate_thread(s, t) == [] for t in threads)


def test_a_wrong_composite_certificate_fails_the_composite_law(monkeypatch):
    # every edge witness is right, but the composite 0 -> 1 -> 2 claims
    # the pulled-back generator of A2 is constant 1, where it is 0
    from bspec import spectra
    from bspec.dsl import parse
    from bspec.runner import run_suite

    compose_witnesses = spectra.compose_witnesses

    def wrong_first_cert(*args):
        w = compose_witnesses(*args)
        w.certs[0] = CConst(Fraction(1))
        return w

    monkeypatch.setattr(spectra, "compose_witnesses", wrong_first_cert)
    [bad] = validate_spectrum(cspec())
    assert (bad.law, bad.witness) == ("composite-witness-certificate",
                                      ("0", "1", "2"))
    text = (Path(__file__).parent.parent / "fixtures" / "cspec.bsp").read_text()
    text = text[:text.index("suite main")] + "suite main {\n check: spectrum CSPEC\n}\n"
    records = run_suite(parse(text)).records
    assert [(r.law, r.status) for r in records] == [
        ("spectrum.CSPEC.edge-witnesses", "pass"),
        ("spectrum.CSPEC.composite-witnesses", "fail")]
    assert records[1].witness[0].startswith(
        "composite-witness-certificate at 0, 1, 2")


@pytest.mark.parametrize("direction", ["covariant", "contravariant"])
@pytest.mark.parametrize("kind", ["eq", "ulim"])
def test_product_certificates_claim_tables_on_the_product_carrier(kind, direction):
    # the factor's certificate claims a table keyed on its own carrier; the
    # product's certificate is its lift along the projection, so the claimed
    # table is keyed on the product's carrier
    X = discrete(["a", "b"])
    g = RFun(X, {"a": 0, "b": 1})
    s = constant_spectrum(chain(2), space(X, [g]), direction=direction)
    s.witness_certs[("0", "1")] = {
        0: ceq(CGen(0), g) if kind == "eq" else culim(g, [(1, CGen(0))])}
    assert validate_spectrum(s) == []
    prod, _ = product_spectrum(s, s)
    assert validate_spectrum(prod) == []
    cert = prod.witness_certs[(Pair(("0", "0")), Pair(("1", "1")))][1]
    assert [x for x, _ in cert.table] == list(prod.space(Pair(("0", "0"))).carrier.elements)


UNCLAIMED = """
setoid X2 {
  elements: p, q
}

directed C3 {
  elements: 0, 1, 2
  order: 0 <= 1, 1 <= 2
  closure: auto
}

family F {
  index: C3
  direction: covariant
  carrier 0: X2
  carrier 1: X2
  carrier 2: X2
  map 0 -> 1: p => p, q => q
  map 1 -> 2: p => p, q => q
}

subbase FX2 {
  carrier: X2
  gen f: p => 0, q => 1
}

spectrum S {
  family: F
  space 0: FX2
  space 1: FX2
  space 2: FX2
  pool: 0, 1
  witness 0 -> 1 f: (gen f)
  witness 1 -> 2 f: (eq (gen f) (table p => 0))
}

suite main {
  check: spectrum S
  check: product S S
}
"""


def test_a_claimed_table_that_misses_an_element_is_reported_where_it_is_lifted():
    # the eq table at 1 -> 2 claims no value at q.  Lifting it to the
    # derived edge 0 -> 2, and to the product's edges, leaves out the
    # elements that go to q, so each lift misses them as the table misses
    # q, and the spectrum check names both edges; the product check builds
    # its product and passes
    from bspec.dsl import parse
    from bspec.runner import run_suite

    records = run_suite(parse(UNCLAIMED)).records
    assert [(r.law, r.status) for r in records] == [
        ("spectrum.S.edge-witnesses", "fail"),
        ("spectrum.S.composite-witnesses", "skipped"),
        ("product.SxS.bijection", "pass"),
        ("product.SxS.class-count", "pass")]
    assert [w.split(" (")[0] for w in records[0].witness] == [
        "edge-witness-certificate at 0, 2, f",
        "edge-witness-certificate at 1, 2, f"]
    assert all("equality node misses element 'q'" in w for w in records[0].witness)
