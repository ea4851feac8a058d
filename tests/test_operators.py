import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from spinbh.errors import InvalidSpecError
from spinbh.hilbert import FockBasis, physical_mask
from spinbh.mapping import derive_jja_params, exact_coupling
from spinbh.model import SpinModelSpec, chain_circuit, chain_spec
from spinbh.operators import (
    DROP_THRESHOLD,
    MAX_CUTOFF,
    SparseOperator,
    assemble,
    build_h_dm,
    build_h_ebh,
    build_h_jja,
    build_h_spin,
    closure,
    ebh_terms,
    embed,
    local_ops,
    observable,
    spin_terms,
)


def table_circuit(n_sites):
    e_coup = exact_coupling(200.0, 15625.0, 1562.5)
    return chain_circuit(n_sites, 200.0, 12500.0, 1562.5, e_coup, include_boundary=True)


# ---------------------------------------------------------------- embed

def test_embed_sz_single_site():
    ops = local_ops(2)
    m = embed(FockBasis(1, 2), 0, ops.hp_sz).dense()
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


@pytest.mark.parametrize("d", [1, MAX_CUTOFF + 1, 10**9])
def test_local_ops_rejects_cutoff_outside_its_range(d):
    with pytest.raises(ValueError, match="local dimension"):
        local_ops(d)


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
    with pytest.raises(InvalidSpecError, match="^spin builder limited to 16777216 states, got "):
        build_h_spin(chain_spec(25, 40.0, 4720.0))


def test_h_spin_builds_a_closure_of_a_chain_past_24_sites():
    # the limit counts the states built on, not the sites: the one-magnon
    # closure of 26 sites holds 26 states, and the DM build on it is the same
    spec = chain_spec(26, 40.0, 4720.0)
    full = FockBasis(26, 2)
    basis = closure(full, spin_terms(spec), [full.index_of([1] + [0] * 25)])
    assert basis.dim == 26
    spin, dm = build_h_spin(spec, basis), build_h_dm(spec, basis)
    assert np.array_equal(spin.matrix.indptr, dm.matrix.indptr)
    assert np.array_equal(spin.matrix.indices, dm.matrix.indices)
    assert spin.matrix.data.tobytes() == dm.matrix.data.tobytes()
    assert spin.hermitian and dm.hermitian


@pytest.mark.parametrize("basis", [FockBasis(3, 3), FockBasis(4, 2), FockBasis(3, 3, [0, 4])],
                         ids=["cutoff", "sites", "subset"])
def test_h_spin_refuses_a_basis_that_is_not_the_chains_spin_space(basis):
    with pytest.raises(InvalidSpecError,
                       match="^spin builder needs 3 sites at local dimension 2, got "):
        build_h_spin(chain_spec(3, 1.0, 0.5), basis)


@pytest.mark.parametrize("build", [
    build_h_spin,
    lambda spec: build_h_ebh(spec, FockBasis(3, 3)),
    lambda spec: build_h_dm(spec, FockBasis(3, 3)),
], ids=["spin", "ebh", "dm"])
def test_a_spec_with_short_fields_never_reaches_a_builder(build):
    # unchecked, each builder took this spec and left sites 1 and 2 without a
    # field: build_h_spin's diagonal began -3, 2.5, -2, not chain_spec's -8, -2.5, -2
    with pytest.raises(InvalidSpecError, match="fields has length 1, expected 3"):
        build(SpinModelSpec(3, ((0, 1, 1.0), (1, 2, 1.0)), (5.0,)))


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


def test_hermitian_flag_is_relative_to_the_largest_entry():
    # one ulp apart near 5e4 MHz: |M - M^H| = 7.3e-12, above 1e-12 but not
    # above 1e-12 times the largest entry
    near = np.nextafter(5e4, np.inf)
    assert SparseOperator.from_matrix([[1.0, 5e4], [near, 2.0]]).hermitian
    for clearly in ([[1.0, 5e4], [5e4 * (1 + 1e-9), 2.0]], [[0.0, 1.0], [0.0, 0.0]]):
        assert not SparseOperator.from_matrix(clearly).hermitian


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


@pytest.mark.parametrize("sector, d", [("spin", 2), ("boson", 3)])
@pytest.mark.parametrize("name", ["sz1", "mx", "cxx"])
def test_observable_is_a_real_csr_with_contiguous_data(name, sector, d):
    # csr.real would leave a strided view of the complex data, which every
    # sparse product would copy
    op = observable(name, sector, FockBasis(3, d))
    assert op.matrix.format == "csr" and op.matrix.dtype == np.float64
    assert op.matrix.data.flags.c_contiguous and op.hermitian


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


@pytest.mark.parametrize("dtype", [complex, float])
def test_from_matrix_leaves_the_callers_matrix_as_it_was(dtype):
    # a complex CSR shares its arrays with the cast, and a real one its index arrays;
    # the drop threshold and sorting must not edit them
    tiny = sp.csr_matrix(np.array([[1.0, 1e-16], [1e-16, 2.0]], dtype=dtype))
    unsorted = sp.csr_matrix((np.array([2.0, 1.0], dtype=dtype), np.array([1, 0]),
                              np.array([0, 2, 2])), shape=(2, 2))
    for m in (tiny, unsorted):
        before = [a.copy() for a in (m.data, m.indices, m.indptr)]
        SparseOperator.from_matrix(m)
        for got, want in zip((m.data, m.indices, m.indptr), before):
            assert np.array_equal(got, want)
    assert SparseOperator.from_matrix(tiny).matrix.nnz == 2
    assert SparseOperator.from_matrix(unsorted).matrix.toarray()[0].tolist() == [1.0, 2.0]


# ---------------------------------------------------------------- bases

def test_basis_of_some_states_ranks_them_in_order():
    basis = FockBasis(2, 3, np.array([1, 3, 4]))
    assert basis.dim == 3 and basis.full_dim == 9
    assert basis.rank(np.array([4, 0, 1, 8])).tolist() == [2, -1, 0, -1]
    assert physical_mask(basis).tolist() == [0, 1, 2]  # full indices 1, 3, 4
    assert basis.restrict(np.arange(9.0)).tolist() == [1.0, 3.0, 4.0]


@pytest.mark.parametrize("states", [[], [3, 1], [1, 1], [-1], [9], [[1]]])
def test_basis_refuses_states_that_are_not_sorted_unique_indices(states):
    with pytest.raises(ValueError, match="states"):
        FockBasis(2, 3, np.array(states, dtype=np.int64))


def test_basis_of_every_state_is_the_full_basis():
    assert FockBasis(2, 3, np.arange(9)).states is None


def test_closure_of_a_fock_state_is_its_particle_number_sector():
    spec = chain_spec(4, 40.0, 4720.0)
    full = FockBasis(4, 3)
    basis = closure(full, ebh_terms(spec, 3), [full.index_of([1, 1, 0, 0])])
    # the hard-core states with two particles: the EBH hopping never doubles a site
    occupations = [np.base_repr(i, 3).zfill(4)[::-1] for i in basis.states]
    assert sorted(occupations) == sorted("".join(p) for p in
                                         ["1100", "1010", "1001", "0110", "0101", "0011"])


def test_closure_covering_every_state_is_the_full_basis():
    spec = chain_spec(3, 40.0, 4720.0)
    seeds = np.arange(8)  # every hard-core state of FockBasis(3, 2)
    assert closure(FockBasis(3, 2), ebh_terms(spec, 2), seeds).states is None


def test_build_on_a_subset_keeps_its_block_and_the_largest_entry_leaving_it():
    params = derive_jja_params(table_circuit(3))
    full = build_h_jja(params, FockBasis(3, 3), "full")
    hard = physical_mask(FockBasis(3, 3))
    part = build_h_jja(params, FockBasis(3, 3, hard), "full")
    dense = full.dense()
    rest = np.setdiff1d(np.arange(27), hard)
    assert np.array_equal(part.dense(), dense[np.ix_(hard, hard)])
    assert part.dropped == np.max(np.abs(dense[np.ix_(rest, hard)])) > 0.0
    assert full.dropped == 0.0


def test_entries_leaving_the_basis_count_past_the_drop_threshold_only():
    # as in the full build, a leaving entry of 1.4e-16 is no entry at all
    ops = local_ops(3)
    terms = [(1e-16, ((0, ops.adag), (1, ops.a))), (1.0, ((0, ops.n),))]
    hard = physical_mask(FockBasis(2, 3))
    part = assemble(FockBasis(2, 3, hard), terms)
    assert part.dropped == 0.0
    assert part.matrix.nnz == 2  # n_0 on the two states with site 0 occupied


@pytest.mark.parametrize("states", [None, [1, 7]])
def test_supports_sharing_an_entry_are_summed_in_support_order(states):
    n = local_ops(2).n
    big, tiny, minus = (1e3, ((0, n),)), (3e-13, ((1, n),)), (-1e3, ((2, n),))
    in_order = ((0.0 + 1e3) + 3e-13) + -1e3
    minus_second = ((0.0 + 1e3) + -1e3) + 3e-13
    assert in_order != minus_second == 3e-13
    for terms, want in (([big, tiny, minus], in_order), ([big, minus, tiny], minus_second)):
        op = assemble(FockBasis(3, 2, states), terms)
        assert op.matrix[op.dim - 1, op.dim - 1] == want  # |111>, where all three sum


def _paper_chain(n_sites):
    return derive_jja_params(chain_circuit(n_sites, 200.0, 12500.0, 1562.5, 20.0,
                                           include_boundary=True))


@pytest.mark.parametrize("build", [
    lambda: build_h_jja(_paper_chain(9), FockBasis(9, 3), "full"),
    lambda: build_h_ebh(chain_spec(9, 40.0, 4720.0), FockBasis(9, 3)),
    lambda: build_h_spin(chain_spec(14, 40.0, 4720.0)),
], ids=["jja-full-9-3", "ebh-9-3", "spin-14"])
def test_full_space_builds_peak_below_150_bytes_per_stored_entry(build):
    import tracemalloc

    tracemalloc.start()
    try:
        op = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 150 * op.matrix.nnz
