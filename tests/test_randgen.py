import random

from bspec.families import (
    CONTRAVARIANT,
    COVARIANT,
    oriented,
    validate_direct_family,
)
from bspec.limits import validate_legs
from bspec.order import validate_cofinal, validate_directed
from bspec.spectra import validate_spectrum
from bspec.topology import cert_conclusion, check_morphism_as, validate_certificate

from randgen import (
    enumerate_directed_indices,
    random_certificate,
    random_cofinal_instance,
    random_direct_family,
    random_directed_index,
    random_map_chain,
    random_spectrum,
    random_spectrum_with_cocone,
    random_spectrum_with_cone,
)
from thread_laws import check_sum_morphisms, validate_spectrum_map


def test_enumerated_indices_are_valid_and_nontrivial():
    indices = enumerate_directed_indices(3)
    assert all(validate_directed(d) == [] for d in indices)
    sizes = {len(d.elements) for d in indices}
    assert sizes == {1, 2, 3}
    # chains, vees, diamonds and cyclic preorders all appear for size 3
    assert len([d for d in indices if len(d.elements) == 3]) >= 4


def test_random_indices_valid():
    rng = random.Random(0)
    for _ in range(40):
        assert validate_directed(random_directed_index(rng)) == []


def test_random_families_valid_both_directions():
    rng = random.Random(1)
    for _ in range(40):
        d = random_directed_index(rng)
        for direction in (COVARIANT, CONTRAVARIANT):
            fam = random_direct_family(rng, d, direction)
            assert validate_direct_family(fam) == []


def test_random_spectra_valid():
    rng = random.Random(2)
    for _ in range(15):
        s = random_spectrum(rng)
        assert validate_spectrum(s) == []
    for _ in range(15):
        s = random_spectrum(rng, direction=CONTRAVARIANT)
        assert validate_spectrum(s) == []


def test_random_map_chains_valid():
    # the maps and, over covariant spectra, the induced maps of sums with
    # their pulled-back threads
    rng = random.Random(3)
    for _ in range(12):
        s, t, u, psi, xi = random_map_chain(rng)
        assert validate_spectrum_map(s, t, psi) == []
        assert validate_spectrum_map(t, u, xi) == []
        assert check_sum_morphisms(s, t, psi) == []
        assert check_sum_morphisms(t, u, xi) == []
    for _ in range(6):
        s, t, u, psi, xi = random_map_chain(rng, direction=CONTRAVARIANT)
        assert validate_spectrum_map(s, t, psi) == []
        assert validate_spectrum_map(t, u, xi) == []


def _legs_are_morphisms(s, c):
    return all(check_morphism_as("leg", *oriented(s.direction, s.space(i), c.apex),
                                 c.legs[i], (i,)) == []
               for i in s.index.elements)


def test_random_cocones_and_cones_valid():
    rng = random.Random(4)
    for _ in range(12):
        s, cocone = random_spectrum_with_cocone(rng)
        assert validate_spectrum(s) == []
        assert validate_legs(s, cocone) == []
        assert _legs_are_morphisms(s, cocone)
    for _ in range(12):
        s, cone = random_spectrum_with_cone(rng)
        assert validate_spectrum(s) == []
        assert validate_legs(s, cone) == []
        assert _legs_are_morphisms(s, cone)


def test_random_cofinal_instances_valid():
    rng = random.Random(5)
    for _ in range(25):
        d, c = random_cofinal_instance(rng)
        assert validate_directed(d) == []
        assert validate_cofinal(d, c) == []


def test_random_certificates_validate_their_conclusions():
    rng = random.Random(6)
    s = random_spectrum(rng)
    i = s.index.elements[0]
    sp = s.space(i)
    for _ in range(50):
        c = random_certificate(rng, sp, depth=5)
        f = cert_conclusion(sp, c)
        assert validate_certificate(sp, f, c).ok
