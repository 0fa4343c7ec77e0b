"""Canonical small structures used across the test suites.

CHAIN3: the three-element chain 0 <= 1 <= 2.
COLLAPSE: a covariant family over CHAIN3 whose carriers shrink to a point.
X2: the discrete two-point carrier {p, q}.
EO(m): the chain {0..2m} with its even members as a cofinal subset.
CSPEC: COLLAPSE with 0/1-valued generators and explicit edge certificates.

Also two witness builders: `morphism`, a witness checked on construction,
and `identity_witness`, the identity of a space by generator certificates.
"""

from __future__ import annotations

from fractions import Fraction

from bspec.families import COVARIANT, make_direct_family
from bspec.order import CofinalSubset, chain
from bspec.setoid import discrete, identity, make_fn
from bspec.spectra import Spectrum, complete_witnesses, constant_spectrum
from bspec.topology import (
    CConst,
    CGen,
    MissingCertificate,
    MorphismWitness,
    BSpace,
    RFun,
    check_morphism,
    space,
)


def chain3():
    return chain(3)


def collapse_carriers():
    return {
        "0": discrete(["a", "b"]),
        "1": discrete(["u", "v"]),
        "2": discrete(["z"]),
    }


def collapse_family():
    carriers = collapse_carriers()
    t01 = make_fn(carriers["0"], carriers["1"], {"a": "u", "b": "v"})
    t12 = make_fn(carriers["1"], carriers["2"], {"u": "z", "v": "z"})
    return make_direct_family(chain3(), COVARIANT, carriers,
                              {("0", "1"): t01, ("1", "2"): t12})


def x2():
    return discrete(["p", "q"])


def x2_space():
    carrier = x2()
    return space(carrier, [RFun(carrier, {"p": 0, "q": 1})], ["f"])


def eo_index(m):
    return chain(2 * m + 1)


def eo_cofinal(m):
    """Even members of {0..2m}; odd members round up, clamped at the top."""
    idx = eo_index(m)
    members = discrete([str(k) for k in range(0, 2 * m + 1, 2)])
    embed = make_fn(members, idx.base, {e: e for e in members.elements})
    table = {}
    for n in range(2 * m + 1):
        table[str(n)] = str(n) if n % 2 == 0 else str(min(n + 1, 2 * m))
    cof = make_fn(idx.base, members, table)
    return CofinalSubset(members, embed, cof)


def cspec(pool=(0, 1)):
    """COLLAPSE with 0/1-valued generators and explicit cover witnesses,
    the composite edge lifted from them."""
    fam = collapse_family()
    carriers = fam.carriers
    f0 = BSpace(carriers["0"], (RFun(carriers["0"], {"a": 0, "b": 1}),), ("f0",))
    f1 = BSpace(carriers["1"], (RFun(carriers["1"], {"u": 0, "v": 1}),), ("f1",))
    f2 = BSpace(carriers["2"], (RFun(carriers["2"], {"z": 0}),), ("f2",))
    witnesses = {
        ("0", "1"): {0: CGen(0)},       # f1 pulled back is exactly f0
        ("1", "2"): {0: CConst(Fraction(0))},
    }
    spaces = {"0": f0, "1": f1, "2": f2}
    return Spectrum(fam, spaces, complete_witnesses(fam, spaces, witnesses),
                    tuple(Fraction(q) for q in pool))


def constant_cspec(pool=(0, 1)):
    """Constant spectrum over CHAIN3 on the two-point space."""
    return constant_spectrum(chain3(), x2_space(), pool=pool)


def morphism(src, dst, h, certs):
    """The witness (h, certs), refused with MissingCertificate unless it
    shows h: src -> dst a morphism."""
    w = MorphismWitness(h, dict(certs))
    findings = check_morphism(src, dst, w)
    if findings:
        raise MissingCertificate(str(findings[0]))
    return w


def identity_witness(sp):
    return MorphismWitness(identity(sp.carrier), {k: CGen(k) for k in range(len(sp.gens))})
