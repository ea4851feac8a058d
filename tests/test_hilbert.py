import itertools

import numpy as np
import pytest

from spinbh.errors import InvalidSpecError
from spinbh.hilbert import (
    NAMED_STATES,
    FockBasis,
    basis_state,
    named_initial_state,
    outside,
    physical_mask,
    product_state,
)


def test_index_of_vacuum():
    assert FockBasis(3, 2).index_of([0, 0, 0]) == 0


def test_index_of_site_zero_least_significant():
    assert FockBasis(3, 2).index_of([1, 0, 0]) == 1


def test_index_of_mixed_radix():
    assert FockBasis(2, 3).index_of([2, 1]) == 2 + 1 * 3


def test_index_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        FockBasis(2, 2).index_of([2, 0])


@pytest.mark.parametrize("n_sites,d", [(1, 2), (3, 2), (2, 3), (3, 4)])
def test_occupation_round_trip(n_sites, d):
    basis = FockBasis(n_sites, d)
    for occ in itertools.product(range(d), repeat=n_sites):
        idx = basis.index_of(occ)
        assert tuple(idx // d**j % d for j in range(n_sites)) == occ


def test_basis_rejects_overflow():
    with pytest.raises(ValueError):
        FockBasis(40, 2)


def test_basis_lists_every_problem():
    with pytest.raises(InvalidSpecError,
                       match=r"^n_sites must be >= 1, got 0; local dimension must be >= 2, got 1$"):
        FockBasis(0, 1)


@pytest.mark.parametrize("n_sites, d, refused", [
    (31, 2, False), (32, 2, True), (19, 3, False), (20, 3, True), (10**9, 2, True), (10**9, 3, True),
])
def test_basis_size_verdict_needs_no_huge_power(n_sites, d, refused):
    # d**N at N = 10**9 would be an integer of hundreds of millions of digits
    if refused:
        with pytest.raises(ValueError, match=rf"^basis dimension {d}\*\*{n_sites} exceeds"):
            FockBasis(n_sites, d)
    else:
        assert FockBasis(n_sites, d).dim <= 2**31


def test_product_state_single_site():
    psi = product_state(FockBasis(1, 2), [(1.0, 1.0)])
    assert np.allclose(psi, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_product_state_two_sites_basis_vector():
    basis = FockBasis(2, 2)
    psi = product_state(basis, [(1.0, 0.0), (0.0, 1.0)])
    expected = np.zeros(4)
    expected[basis.index_of([0, 1])] = 1.0
    assert np.allclose(psi, expected)


def test_product_state_embedded_superposition():
    basis = FockBasis(2, 3)
    psi = product_state(basis, [(1.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    expected = np.zeros(9)
    expected[0] = expected[1] = 1 / np.sqrt(2)
    assert np.allclose(psi, expected)


def test_product_state_rejects_zero_ket():
    with pytest.raises(ValueError):
        product_state(FockBasis(1, 2), [(0.0, 0.0)])


def test_domain_wall_two_sites():
    basis = FockBasis(2, 2)
    psi = named_initial_state(basis, "domain_wall", "boson")
    assert psi[basis.index_of([1, 0])] == 1.0


def test_domain_wall_needs_even_chain():
    with pytest.raises(ValueError):
        named_initial_state(FockBasis(3, 2), "domain_wall", "boson")


def test_neel_spin_two_sites():
    basis = FockBasis(2, 2)
    psi = named_initial_state(basis, "neel", "spin")
    # up at site 0, down at site 1 <-> occupations (1, 0)
    assert psi[basis.index_of([1, 0])] == 1.0


def test_all_up_x_embeds_at_higher_cutoff():
    psi = named_initial_state(FockBasis(1, 3), "all_up_x", "boson")
    assert np.allclose(psi, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_spin_sector_requires_two_levels():
    with pytest.raises(ValueError):
        named_initial_state(FockBasis(2, 3), "neel", "spin")


@pytest.mark.parametrize("name", ["domain_wall", "all_up_x", "neel"])
@pytest.mark.parametrize("d", [2, 3])
def test_named_states_unit_norm(name, d):
    psi = named_initial_state(FockBasis(4, d), name, "boson")
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["domain_wall", "all_up_x", "neel"])
def test_boson_and_spin_variants_agree_through_mask(name):
    spin_basis = FockBasis(4, 2)
    boson_basis = FockBasis(4, 3)
    mask = physical_mask(boson_basis)
    spin_psi = named_initial_state(spin_basis, name, "spin")
    boson_psi = named_initial_state(boson_basis, name, "boson")
    assert np.allclose(boson_psi[mask], spin_psi)
    assert np.allclose(np.delete(boson_psi, mask), 0.0)


def test_physical_mask_identity_for_two_levels():
    assert np.array_equal(physical_mask(FockBasis(3, 2)), np.arange(8))


def test_physical_mask_three_levels():
    assert physical_mask(FockBasis(2, 3)).tolist() == [0, 1, 3, 4]
    assert physical_mask(FockBasis(1, 3)).tolist() == [0, 1]


@pytest.mark.parametrize("n_sites,d", [(1, 2), (2, 3), (3, 4), (4, 3)])
def test_physical_mask_size_and_content(n_sites, d):
    basis = FockBasis(n_sites, d)
    mask = physical_mask(basis)
    assert len(mask) == 2**n_sites
    occupations = [tuple(int(idx) // d**j % d for j in range(n_sites)) for idx in mask]
    assert all(n <= 1 for occ in occupations for n in occ)
    # ordering matches the two-level bit convention entry by entry
    for m, occ in enumerate(occupations):
        assert occ == tuple((m >> j) & 1 for j in range(n_sites))


def test_basis_state_sets_single_amplitude():
    basis = FockBasis(3, 2)
    psi = basis_state(basis, [0, 1, 1])
    assert psi[basis.index_of([0, 1, 1])] == 1.0
    assert np.linalg.norm(psi) == 1.0


def test_outside_is_the_indicator_of_the_complement():
    assert outside(5, [1, 3]).tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]
    assert not outside(4, physical_mask(FockBasis(2, 2))).any()


@pytest.mark.parametrize("d", [2, 3])
def test_states_are_complex_amplitude_arrays(d):
    basis = FockBasis(4, d)
    kets = [np.eye(d)[1]] * 4
    states = [named_initial_state(basis, name, "boson") for name in NAMED_STATES]
    states += [basis_state(basis, [1, 0, 1, 0]), product_state(basis, kets)]
    for psi in states:
        assert type(psi) is np.ndarray and psi.dtype == complex and psi.shape == (basis.dim,)
