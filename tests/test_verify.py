from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from spinbh.dynamics import EvolutionConfig, evolve
from spinbh.hilbert import FockBasis, named_initial_state, physical_mask
from spinbh.mapping import circuit_to_spin, derive_jja_params, exact_coupling
from spinbh.model import chain_circuit, chain_spec
from spinbh.operators import (
    SparseOperator,
    build_h_dm,
    build_h_ebh,
    build_h_jja,
    build_h_spin,
    observable,
)
from spinbh.verify import compare_projected, compare_trajectories, project


def table_circuit(n_sites):
    e_coup = exact_coupling(200.0, 15625.0, 1562.5)
    return chain_circuit(n_sites, 200.0, 12500.0, 1562.5, e_coup, include_boundary=True)


# ---------------------------------------------------------------- project

def test_project_full_mask_is_identity():
    h = build_h_spin(chain_spec(3, 1.0, 0.5))
    php, coupling = project(h, np.arange(8))
    assert np.array_equal(php.dense(), h.dense())
    assert coupling == 0.0


def test_project_hard_core_block_of_ebh():
    basis = FockBasis(3, 3)
    h = build_h_ebh(chain_spec(3, 1.7, 0.4), basis)
    php, coupling = project(h, physical_mask(basis))
    assert coupling < 1e-12
    assert php.dim == 8


def test_project_diagonal_matrix_never_couples():
    diag = SparseOperator.from_matrix(sp.diags(np.arange(1.0, 10.0)))
    _, coupling = project(diag, np.array([0, 2, 4]))
    assert coupling == 0.0


def test_project_rejects_empty_or_bad_mask():
    h = build_h_spin(chain_spec(2, 1.0, 0.0))
    with pytest.raises(ValueError):
        project(h, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        project(h, np.array([3, 1]))
    with pytest.raises(ValueError):
        project(h, np.array([0, 9]))


def test_project_of_a_build_on_some_states_counts_the_entries_it_dropped():
    params = derive_jja_params(table_circuit(3))
    full = FockBasis(3, 3)
    hard = FockBasis(3, 3, physical_mask(full))
    h = build_h_jja(params, hard, "full")
    want = project(build_h_jja(params, full, "full"), physical_mask(full))
    php, coupling = project(h, physical_mask(hard))
    assert coupling == want[1] > 0.0
    assert np.array_equal(php.dense(), want[0].dense())
    with pytest.raises(ValueError, match="all of it"):  # Q H Q would hide among the dropped
        project(h, np.arange(4))


# ---------------------------------------------------------------- compare_projected

def test_constructed_offset_is_recovered():
    h_spin = build_h_spin(chain_spec(3, 1.0, 0.5))
    shifted = SparseOperator.from_matrix(h_spin.matrix + 7.0 * sp.identity(8))
    report = compare_projected(shifted, h_spin, np.arange(8))
    assert np.isclose(report.offset_mhz, 7.0, atol=1e-12)
    assert report.residual_max < 1e-12
    assert report.residual_frobenius < 1e-11


def test_ebh_vs_spin_identity_at_any_cutoff():
    spec = chain_spec(3, 2.4, 1.1)
    h_spin = build_h_spin(spec)
    for d in (2, 3, 4):
        basis = FockBasis(3, d)
        report = compare_projected(build_h_ebh(spec, basis), h_spin, physical_mask(basis))
        assert abs(report.offset_mhz) < 1e-12  # same constant terms on both sides
        assert report.residual_max < 1e-12
        assert report.coupling_norm < 1e-12


def test_jja_vs_spin_table_design():
    circuit = table_circuit(4)
    basis = FockBasis(4, 3)
    h_jja = build_h_jja(derive_jja_params(circuit), basis)
    h_spin = build_h_spin(circuit_to_spin(circuit))
    report = compare_projected(h_jja, h_spin, physical_mask(basis))
    scale = np.max(np.abs(h_spin.matrix.data))
    assert report.residual_max < 1e-9 * scale
    assert report.coupling_norm < 1e-9  # measured, comes out at rounding level
    assert report.hermiticity_boson < 1e-12


def test_offset_fit_invariant_under_identity_shift():
    spec = chain_spec(3, 1.5, 0.7)
    basis = FockBasis(3, 3)
    h_boson = build_h_ebh(spec, basis)
    h_spin = build_h_spin(spec)
    mask = physical_mask(basis)
    base = compare_projected(h_boson, h_spin, mask)
    shifted = SparseOperator.from_matrix(h_boson.matrix + 3.25 * sp.identity(27))
    report = compare_projected(shifted, h_spin, mask)
    assert np.isclose(report.offset_mhz, base.offset_mhz + 3.25, atol=1e-12)
    assert abs(report.residual_max - base.residual_max) < 1e-12


def test_dm_and_ebh_reports_identical():
    spec = chain_spec(3, 1.2, 0.9)
    h_spin = build_h_spin(spec)
    for d in (2, 3, 4):
        basis = FockBasis(3, d)
        mask = physical_mask(basis)
        rep_dm = compare_projected(build_h_dm(spec, basis), h_spin, mask)
        rep_hp = compare_projected(build_h_ebh(spec, basis), h_spin, mask)
        assert abs(rep_dm.offset_mhz - rep_hp.offset_mhz) < 1e-12
        assert abs(rep_dm.residual_max - rep_hp.residual_max) < 1e-12
        assert abs(rep_dm.coupling_norm - rep_hp.coupling_norm) < 1e-12


def test_invariant_block_spectrum_is_subset():
    spec = chain_spec(3, 1.8, 0.6)
    basis = FockBasis(3, 3)
    h = build_h_ebh(spec, basis)
    php, coupling = project(h, physical_mask(basis))
    assert coupling < 1e-12
    full = np.linalg.eigvalsh(h.dense())
    block = np.linalg.eigvalsh(php.dense())
    scale = max(np.max(np.abs(full)), 1.0)
    for mu in block:
        assert np.min(np.abs(full - mu)) < 1e-9 * scale


def test_compare_projected_rejects_dim_mismatch():
    spec = chain_spec(3, 1.0, 0.0)
    basis = FockBasis(3, 3)
    with pytest.raises(ValueError):
        compare_projected(build_h_ebh(spec, basis), build_h_spin(chain_spec(2, 1.0, 0.0)),
                          physical_mask(basis))


def test_report_fields():
    spec = chain_spec(2, 1.0, 0.5)
    basis = FockBasis(2, 3)
    report = compare_projected(build_h_ebh(spec, basis), build_h_spin(spec),
                               physical_mask(basis))
    names = [f.name for f in fields(report)]
    assert "residual_max" in names and "coupling_norm" in names


# ---------------------------------------------------------------- trajectories

def spin_run(spec, name, obs_names, n_steps=101):
    basis = FockBasis(spec.n_sites, 2)
    obs = {o: observable(o, "spin", basis) for o in obs_names}
    psi0 = named_initial_state(basis, name, "spin")
    return evolve(build_h_spin(spec), psi0,
                  EvolutionConfig(t_max=0.2, n_steps=n_steps), obs)


def boson_run(spec, name, obs_names, d=2, n_steps=101):
    basis = FockBasis(spec.n_sites, d)
    obs = {o: observable(o, "boson", basis) for o in obs_names}
    psi0 = named_initial_state(basis, name, "boson")
    return evolve(build_h_ebh(spec, basis), psi0,
                  EvolutionConfig(t_max=0.2, n_steps=n_steps), obs,
                  leakage_mask=physical_mask(basis))


def test_identical_trajectories_report_zero():
    spec = chain_spec(2, 3.0, 1.0)
    traj = spin_run(spec, "neel", ["sz1"])
    report = compare_trajectories(traj, traj)
    assert report.max_abs == {"sz1": 0.0}
    assert report.rms == {"sz1": 0.0}
    assert report.overall_max == 0.0


def test_spin_vs_boson_trajectories_match():
    spec = chain_spec(4, 4.0, 2.0)
    a = spin_run(spec, "domain_wall", ["sz1", "mx"])
    b = boson_run(spec, "domain_wall", ["sz1", "mx"])
    report = compare_trajectories(a, b)
    assert report.overall_max < 1e-8


def test_spin_vs_higher_cutoff_boson_match():
    spec = chain_spec(3, 2.0, 1.0)
    a = spin_run(spec, "neel", ["sz1"])
    b = boson_run(spec, "neel", ["sz1"], d=3)
    report = compare_trajectories(a, b)
    assert report.overall_max < 1e-8
    assert np.max(b.leakage) < 1e-12


def test_compare_trajectories_rejects_grid_mismatch():
    spec = chain_spec(2, 1.0, 0.0)
    a = spin_run(spec, "neel", ["sz1"], n_steps=101)
    b = spin_run(spec, "neel", ["sz1"], n_steps=51)
    with pytest.raises(ValueError):
        compare_trajectories(a, b)
