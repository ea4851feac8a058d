import numpy as np
import pytest

import oracles
from spinbh.errors import InvalidSpecError
from spinbh.hilbert import FockBasis, physical_mask
from spinbh.mapping import derive_jja_params, exact_coupling
from spinbh.model import chain_circuit, chain_spec
from spinbh.operators import (
    DROP_THRESHOLD,
    build_h_dm,
    build_h_ebh,
    build_h_jja,
    build_h_spin,
    embed,
    local_ops,
    observable,
)


def table_circuit(n_sites):
    e_coup = exact_coupling(200.0, 15625.0, 1562.5)
    return chain_circuit(n_sites, 200.0, 12500.0, 1562.5, e_coup, include_boundary=True)


# ---------------------------------------------------------------- embed

def test_embed_sz_single_site():
    ops = local_ops(2)
    m = embed(FockBasis(1, 2), 0, ops.sz).dense()
    assert np.allclose(m, np.diag([-0.5, 0.5]))


def test_embed_number_on_second_site():
    ops = local_ops(2)
    m = embed(FockBasis(2, 2), 1, ops.n).dense()
    assert np.allclose(np.diag(m), [0, 0, 1, 1])


def test_embed_ladder_action():
    ops = local_ops(3)
    m = embed(FockBasis(1, 3), 0, ops.a).dense()
    vec = np.zeros(3)
    vec[2] = 1.0
    out = m @ vec
    assert np.isclose(out[1], np.sqrt(2))


def test_embed_rejects_wrong_shape():
    with pytest.raises(ValueError):
        embed(FockBasis(2, 3), 0, np.eye(2))


def test_embed_matches_dense_oracle():
    ops = local_ops(3)
    basis = FockBasis(3, 3)
    for site in range(3):
        mine = embed(basis, site, ops.adag).dense()
        ref = oracles.dense_embed(ops.adag, site, 3, 3)
        assert np.array_equal(mine, ref)


# ---------------------------------------------------------------- spin

def test_h_spin_single_site_field():
    h = build_h_spin(chain_spec(1, 0.0, 5.0))
    assert np.allclose(h.dense(), np.diag([-2.5, 2.5]))


def test_h_spin_two_site_spectrum():
    h = build_h_spin(chain_spec(2, 1.0, 0.0))
    vals = np.sort(np.linalg.eigvalsh(h.dense()))
    assert np.allclose(vals, [-0.25, -0.25, -0.25, 0.75], atol=1e-12)


def test_h_spin_free_spins_spectrum():
    h = build_h_spin(chain_spec(2, 0.0, 7.0))
    vals = np.sort(np.linalg.eigvalsh(h.dense()))
    assert np.allclose(vals, [-7.0, 0.0, 0.0, 7.0], atol=1e-12)


def test_h_spin_matches_xyz_form():
    spec = chain_spec(4, 2.5, 1.3)
    mine = build_h_spin(spec).dense()
    ref = oracles.dense_h_spin_xyz(4, spec.edges, spec.fields)
    assert np.max(np.abs(mine - ref)) < 1e-12


def test_h_spin_matches_dense_oracle():
    spec = chain_spec(3, 1.7, 0.4)
    ref = oracles.dense_h_spin(3, spec.edges, spec.fields)
    assert np.max(np.abs(build_h_spin(spec).dense() - ref)) < 1e-14


def test_h_spin_hermitian_flag():
    assert build_h_spin(chain_spec(3, 1.0, 0.5)).hermitian


def test_h_spin_rejects_oversized_chain():
    with pytest.raises(InvalidSpecError):
        build_h_spin(chain_spec(25, 1.0, 0.0))


def test_h_spin_reflection_invariant_spectrum():
    spec = chain_spec(5, 1.0, 0.7)
    reflected = type(spec)(
        n_sites=5,
        edges=tuple(sorted((4 - k, 4 - j, v) for j, k, v in spec.edges)),
        fields=spec.fields[::-1],
    )
    a = np.sort(np.linalg.eigvalsh(build_h_spin(spec).dense()))
    b = np.sort(np.linalg.eigvalsh(build_h_spin(reflected).dense()))
    assert np.max(np.abs(a - b)) < 1e-10


# ---------------------------------------------------------------- EBH

def test_h_ebh_two_level_equals_spin():
    spec = chain_spec(4, 3.0, 1.2)
    h_spin = build_h_spin(spec).dense()
    h_ebh = build_h_ebh(spec, FockBasis(4, 2)).dense()
    assert np.max(np.abs(h_ebh - h_spin)) < 1e-12


def test_h_ebh_no_leak_matrix_element():
    basis = FockBasis(2, 3)
    h = build_h_ebh(chain_spec(2, 1.0, 0.0), basis).dense()
    assert h[basis.index_of([2, 0]), basis.index_of([1, 1])] == 0.0


def test_h_ebh_single_site_field():
    basis = FockBasis(1, 2)
    h = build_h_ebh(chain_spec(1, 0.0, 3.0), basis).dense()
    assert np.allclose(h, np.diag([-1.5, 1.5]))


def test_h_ebh_matches_dense_oracle():
    spec = chain_spec(3, 1.9, 0.8)
    basis = FockBasis(3, 3)
    ref = oracles.dense_h_ebh(3, 3, spec.edges, spec.fields)
    assert np.max(np.abs(build_h_ebh(spec, basis).dense() - ref)) < 1e-14


@pytest.mark.parametrize("d", [3, 4])
def test_h_ebh_hard_core_invariance(d):
    rng = np.random.default_rng(7)
    for n in range(2, 5):
        spec = chain_spec(n, float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.0, 5.0)))
        basis = FockBasis(n, d)
        h = build_h_ebh(spec, basis).dense()
        mask = physical_mask(basis)
        comp = np.setdiff1d(np.arange(basis.dim), mask)
        assert np.max(np.abs(h[np.ix_(comp, mask)])) < 1e-12


def test_h_ebh_rejects_mismatched_basis():
    with pytest.raises(InvalidSpecError):
        build_h_ebh(chain_spec(3, 1.0, 0.0), FockBasis(2, 2))


# ---------------------------------------------------------------- DM

def test_h_dm_two_level_matches_ebh_exactly():
    spec = chain_spec(2, 1.0, 0.3)
    basis = FockBasis(2, 2)
    assert np.max(np.abs(build_h_dm(spec, basis).dense() - build_h_ebh(spec, basis).dense())) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_h_dm_physical_block_equals_ebh(d):
    spec = chain_spec(3, 1.4, 0.6)
    basis = FockBasis(3, d)
    mask = physical_mask(basis)
    h_dm = build_h_dm(spec, basis).dense()[np.ix_(mask, mask)]
    h_ebh = build_h_ebh(spec, basis).dense()[np.ix_(mask, mask)]
    assert np.max(np.abs(h_dm - h_ebh)) < 1e-12


def test_h_dm_non_hermitian_above_two_levels():
    op = build_h_dm(chain_spec(2, 1.0, 0.0), FockBasis(2, 3))
    assert not op.hermitian
    dev = np.max(np.abs(op.dense() - op.dense().conj().T))
    assert dev > 0.1


def test_h_dm_single_site_hermitian():
    op = build_h_dm(chain_spec(1, 0.0, 2.0), FockBasis(1, 3))
    assert op.hermitian
    assert np.allclose(op.dense(), np.diag([-1.0, 1.0, 3.0]))


def test_h_dm_matches_dense_oracle():
    spec = chain_spec(3, 0.9, 0.2)
    ref = oracles.dense_h_dm(3, 3, spec.edges, spec.fields)
    assert np.max(np.abs(build_h_dm(spec, FockBasis(3, 3)).dense() - ref)) < 1e-14


# ---------------------------------------------------------------- JJA

def test_h_jja_cross_kerr_diagonal():
    params = derive_jja_params(table_circuit(2))
    basis = FockBasis(2, 2)
    h = build_h_jja(params, basis).dense()
    d = np.real(np.diag(h))
    # second difference over occupations isolates the density-density coefficient
    kerr = d[basis.index_of([1, 1])] - d[basis.index_of([1, 0])] - d[basis.index_of([0, 1])] + d[0]
    assert np.isclose(kerr, -40.0, atol=1e-9)


def test_h_jja_full_equals_simplified_at_two_levels():
    params = derive_jja_params(table_circuit(3))
    basis = FockBasis(3, 2)
    full = build_h_jja(params, basis, "full").dense()
    simp = build_h_jja(params, basis, "simplified").dense()
    assert np.array_equal(full, simp)


def test_h_jja_full_differs_outside_physical_subspace():
    params = derive_jja_params(table_circuit(2))
    basis = FockBasis(2, 3)
    full = build_h_jja(params, basis, "full").dense()
    simp = build_h_jja(params, basis, "simplified").dense()
    mask = physical_mask(basis)
    assert np.max(np.abs(full[np.ix_(mask, mask)] - simp[np.ix_(mask, mask)])) < 1e-12
    assert np.max(np.abs(full - simp)) > 1.0


def test_h_jja_single_site():
    params = derive_jja_params(table_circuit(1))
    h = build_h_jja(params, FockBasis(1, 2)).dense()
    # no interior links: delta_tilde = 0, so the only term is (omega + delta_omega) n
    assert np.allclose(h, np.diag([0.0, 4800.0]))


def test_h_jja_hermitian():
    params = derive_jja_params(table_circuit(3))
    assert build_h_jja(params, FockBasis(3, 3)).hermitian
    assert build_h_jja(params, FockBasis(3, 3), "full").hermitian


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("variant", ["simplified", "full"])
def test_h_jja_matches_dense_oracle(d, variant):
    params = derive_jja_params(table_circuit(3))
    basis = FockBasis(3, d)
    ref = oracles.dense_h_jja(
        3, d, params.omega, params.delta_omega, params.t, params.delta,
        params.corr_t, params.corr_tp, params.delta_tilde, variant,
    )
    assert np.max(np.abs(build_h_jja(params, basis, variant).dense() - ref)) < 1e-12


def test_h_jja_rejects_unknown_variant():
    params = derive_jja_params(table_circuit(2))
    with pytest.raises(ValueError):
        build_h_jja(params, FockBasis(2, 2), "exotic")


# ---------------------------------------------------------------- observables

def test_observable_sz1_spin():
    m = observable("sz1", "spin", FockBasis(1, 2)).dense()
    assert np.allclose(m, np.diag([-0.5, 0.5]))


def test_observable_mx_boson_two_levels():
    m = observable("mx", "boson", FockBasis(1, 2)).dense()
    assert np.allclose(m, 0.5 * np.array([[0, 1], [1, 0]]))


def test_observable_cxx_boson_pattern():
    m = observable("cxx", "boson", FockBasis(2, 2)).dense()
    sigma_x = np.array([[0, 1], [1, 0]])
    assert np.allclose(m, 0.25 * np.kron(sigma_x, sigma_x))


def test_observable_spin_requires_two_levels():
    with pytest.raises(ValueError):
        observable("sz1", "spin", FockBasis(2, 3))


def test_observable_unknown_name():
    with pytest.raises(ValueError):
        observable("sy7", "spin", FockBasis(2, 2))


def test_observables_hermitian():
    basis = FockBasis(3, 3)
    for name in ("sz1", "mx", "cxx"):
        assert observable(name, "boson", basis).hermitian


# ---------------------------------------------------------------- commutators

def hp_spin_site(basis, site):
    ops = local_ops(basis.local_dim)
    return (
        embed(basis, site, ops.hp_sp).matrix,
        embed(basis, site, ops.hp_sm).matrix,
        embed(basis, site, ops.hp_sz).matrix,
    )


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_hp_commutators_on_physical_subspace(d, n_sites):
    basis = FockBasis(n_sites, d)
    mask = physical_mask(basis)
    block = lambda m: m.toarray()[np.ix_(mask, mask)]
    for j in range(n_sites):
        sp_j, sm_j, sz_j = hp_spin_site(basis, j)
        for k in range(n_sites):
            sp_k, sm_k, sz_k = hp_spin_site(basis, k)
            delta = 1.0 if j == k else 0.0
            comm_zp = sz_j @ sp_k - sp_k @ sz_j
            assert np.max(np.abs(block(comm_zp) - delta * block(sp_j))) < 1e-12
            comm_zm = sz_j @ sm_k - sm_k @ sz_j
            assert np.max(np.abs(block(comm_zm) + delta * block(sm_j))) < 1e-12
            comm_pm = sp_j @ sm_k - sm_k @ sp_j
            assert np.max(np.abs(block(comm_pm) - 2.0 * delta * block(sz_j))) < 1e-12


# ---------------------------------------------------------------- storage

def test_no_stored_near_zero_entries():
    spec = chain_spec(4, 1.0, 0.5)
    for op in (build_h_spin(spec), build_h_ebh(spec, FockBasis(4, 3))):
        if op.matrix.nnz:
            assert np.min(np.abs(op.matrix.data)) > DROP_THRESHOLD
