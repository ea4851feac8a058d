import math
import warnings

import numpy as np
import pytest

from spinbh.errors import InvalidSpecError
from spinbh.mapping import (
    capacitive_energies,
    capacitance_regime_report,
    circuit_to_spin,
    constraint_residual,
    derive_jja_params,
    design_circuit,
    eprime_from_simplified_coupling,
    exact_coupling,
    parameter_sheet,
    ratio_uniformity,
    simplified_coupling,
)
from spinbh.model import chain_circuit, chain_spec
from spinbh.units import capacitance_to_mhz

E_C, E_J, EP = 200.0, 12500.0, 1562.5
E_L = E_J + 2 * EP  # 15625


def table_circuit(n_sites, e_coup=None, include_boundary=True):
    if e_coup is None:
        e_coup = exact_coupling(E_C, E_L, EP)
    return chain_circuit(n_sites, E_C, E_J, EP, e_coup, include_boundary=include_boundary)


# ------------------------------------------------------- capacitive energies

def test_capacitive_energies_decoupled_limit():
    e_c, e_coup = capacitive_energies([80.0, 80.0], [0.0, 0.0, 0.0])
    assert np.allclose(e_c, capacitance_to_mhz(80.0))
    assert np.allclose(e_coup, 0.0)


def test_capacitive_energies_homogeneous_interior():
    c, cp = 90.0, 2.0
    e_c, _ = capacitive_energies([c, c, c], [cp, cp, cp, cp])
    assert np.isclose(e_c[1], capacitance_to_mhz(c + 2 * cp))


def test_capacitive_energies_small_coupling_ratio():
    # choose C so that E_C ~ 200 MHz with C'/C = 0.01
    ratio = 0.01
    c = capacitance_to_mhz(1.0) / 200.0 / (1 + 2 * ratio)
    cp = ratio * c
    e_c, e_coup = capacitive_energies([c, c, c], [cp, cp, cp, cp])
    assert np.isclose(e_c[0], 200.0, rtol=1e-12)
    assert np.isclose(e_coup[1] / e_c[0], ratio / (1 + 2 * ratio), rtol=1e-12)
    assert abs(e_coup[1] / e_c[0] - ratio) < 0.05 * ratio


def test_capacitive_energies_reject_zero():
    with pytest.raises(ZeroDivisionError):
        capacitive_energies([0.0, 80.0], [1.0, 1.0, 1.0])


def test_capacitance_regime_warning():
    report = capacitance_regime_report([80.0, 80.0], [0.0, 20.0, 0.0])
    assert report and report[0].severity == "warning"
    assert capacitance_regime_report([80.0, 80.0], [0.0, 2.0, 0.0]) == []


# ------------------------------------------------------- derive_jja_params

def test_table_values_reproduced_exactly():
    params = derive_jja_params(table_circuit(4))
    assert params.e_l == (E_L,) * 4
    assert params.omega == (5000.0,) * 4
    assert params.delta_omega == (-200.0,) * 4
    assert params.delta == (40.0,) * 3
    assert params.corr_t == (20.0,) * 3
    assert params.corr_tp == (20.0,) * 3


def test_hopping_from_exact_constraint():
    params = derive_jja_params(table_circuit(3))
    assert np.allclose(params.t, -20.0, rtol=1e-9)
    # hopping equals -Delta/2 and the correlated couplings are Delta/2
    assert np.allclose(np.array(params.t), -0.5 * np.array(params.delta), rtol=1e-9)


def test_hopping_vanishes_with_simplified_coupling():
    circuit = table_circuit(3, e_coup=simplified_coupling(E_C, E_L, EP))
    params = derive_jja_params(circuit)
    assert np.allclose(params.t, 0.0, atol=1e-9)


def test_decoupled_josephson_links():
    circuit = chain_circuit(3, E_C, E_J, 1e-300, 18.4)  # effectively zero links
    params = derive_jja_params(circuit, warn=False)
    assert np.allclose(params.delta, 0.0, atol=1e-250)
    expected_t = math.sqrt(2) * 18.4 * math.sqrt(E_J / E_C)
    assert np.allclose(params.t, expected_t, rtol=1e-9)


def test_delta_tilde_edges_halved():
    params = derive_jja_params(table_circuit(4))
    assert params.delta_tilde == (20.0, 40.0, 40.0, 20.0)


def test_ratio_uniformity_warning_for_bare_edges():
    circuit = table_circuit(4, include_boundary=False)
    assert ratio_uniformity(circuit) > 0.05
    with pytest.warns(UserWarning):
        derive_jja_params(circuit)


# ------------------------------------------------------- constraint

def test_constraint_residual_zero_on_exact_coupling():
    assert np.max(np.abs(constraint_residual(table_circuit(4)))) < 1e-9


def test_constraint_residual_simplified_coupling():
    circuit = table_circuit(4, e_coup=20.0)
    resid = constraint_residual(circuit)
    assert np.allclose(resid, 1.6, rtol=1e-12)


def test_constraint_residual_trivial_circuit():
    circuit = chain_circuit(2, E_C, E_J, 1e-300, 0.0)
    assert np.allclose(constraint_residual(circuit), 0.0, atol=1e-250)


def test_exact_coupling_value():
    # 20 * (1 - 0.08) with the table energies
    assert np.isclose(exact_coupling(E_C, E_L, EP), 18.4, rtol=1e-12)


# ------------------------------------------------------- circuit -> spin

def test_circuit_to_spin_couplings():
    spin = circuit_to_spin(table_circuit(5))
    assert all(np.isclose(v, 40.0, rtol=1e-12) for _, _, v in spin.edges)


def test_circuit_to_spin_interior_field():
    spin = circuit_to_spin(table_circuit(5))
    assert np.isclose(spin.fields[2], 4720.0, rtol=1e-12)


def test_circuit_to_spin_edge_field():
    spin = circuit_to_spin(table_circuit(5))
    assert np.isclose(spin.fields[0], 4760.0, rtol=1e-12)
    assert np.isclose(spin.fields[-1], 4760.0, rtol=1e-12)


def test_circuit_to_spin_warns_off_constraint():
    with pytest.warns(UserWarning):
        circuit_to_spin(table_circuit(3, e_coup=20.0))


def test_circuit_to_spin_zero_coupling_reads_as_full_violation():
    # e_coup = 0 misses the exact coupling by all of it: relative violation 1
    with pytest.warns(UserWarning, match="violated by 1 relative"):
        circuit_to_spin(table_circuit(2, e_coup=0.0))
    # zero set and zero exact coupling (no link Josephson energy) is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        circuit_to_spin(chain_circuit(2, E_C, E_J, 0.0, 0.0))


def test_coupling_depends_on_capacitances_only_through_charging_energy():
    # same E_C from two different C / C' splits: J must not change
    c1, cp1 = 90.0, 1.0
    csum = c1 + 2 * cp1
    cp2 = 3.0
    c2 = csum - 2 * cp2
    e_c1, e_coup1 = capacitive_energies([c1] * 3, [cp1] * 4)
    e_c2, e_coup2 = capacitive_energies([c2] * 3, [cp2] * 4)
    assert np.isclose(e_c1[0], e_c2[0], rtol=1e-12)
    assert not np.isclose(e_coup1[1], e_coup2[1], rtol=1e-3)
    circuits = [
        chain_circuit(3, e_c[0], E_J, EP, e_coup[1], include_boundary=True)
        for e_c, e_coup in ((e_c1, e_coup1), (e_c2, e_coup2))
    ]
    spins = [circuit_to_spin(c, warn=False) for c in circuits]
    assert np.isclose(spins[0].edges[0][2], spins[1].edges[0][2], rtol=1e-12)


# ------------------------------------------------------- design

def test_design_reproduces_table_link_energy():
    circuit = design_circuit(chain_spec(4, 40.0, 0.0), e_c=E_C, e_j=E_J, match_field=False)
    assert np.isclose(circuit.eprime_j[1], 1562.5, rtol=1e-12)
    assert np.isclose(circuit.e_coup[1], 18.4, rtol=1e-9)


def test_design_matches_field_by_bisection():
    circuit = design_circuit(chain_spec(4, 40.0, 4720.0), e_c=E_C)
    assert np.isclose(circuit.e_j[0], E_J, atol=1e-3)
    spin = circuit_to_spin(circuit)
    assert np.isclose(spin.fields[1], 4720.0, atol=1e-6)
    assert np.isclose(spin.edges[0][2], 40.0, rtol=1e-9)


def test_design_decoupling_limit():
    circuit = design_circuit(chain_spec(3, 1e-9, 0.0), e_c=E_C, e_j=E_J, match_field=False)
    assert circuit.eprime_j[1] < 1e-7
    assert circuit.e_coup[1] < 1e-9


def test_design_rejects_large_coupling():
    with pytest.raises(InvalidSpecError):
        design_circuit(chain_spec(3, 250.0, 0.0), e_c=E_C, e_j=E_J, match_field=False)


def test_design_rejects_inhomogeneous_target():
    spec = chain_spec(3, 40.0, 0.0)
    bad = type(spec)(n_sites=3, edges=((0, 1, 40.0), (1, 2, 50.0)), fields=(0.0,) * 3)
    with pytest.raises(InvalidSpecError):
        design_circuit(bad, e_c=E_C)


def test_design_rejects_unbracketable_field():
    with pytest.raises(InvalidSpecError):
        design_circuit(chain_spec(3, 40.0, -1e9), e_c=E_C)


@pytest.mark.parametrize("ratio", [1e-4, 1e-2, 0.2, 0.49])
def test_design_round_trip(ratio):
    # bulk fields below sqrt(8) E_C - E_C are unreachable with E_J >= E_C,
    # so pick targets comfortably inside the bisection bracket
    coupling = ratio * E_C
    for field in (5.0 * E_C, 30.0 * E_C):
        target = chain_spec(5, coupling, field)
        circuit = design_circuit(target, e_c=E_C)
        spin = circuit_to_spin(circuit, warn=False)
        assert np.isclose(spin.edges[1][2], coupling, rtol=1e-6)
        assert np.isclose(spin.fields[2], field, rtol=1e-6)


def test_simplified_inverse_formula():
    assert np.isclose(eprime_from_simplified_coupling(E_C, E_J, 20.0), 1562.5, rtol=1e-12)
    with pytest.raises(InvalidSpecError):
        eprime_from_simplified_coupling(E_C, E_J, 120.0)


# ------------------------------------------------------- sheet

def test_parameter_sheet_table_row():
    sheet = parameter_sheet(table_circuit(10))
    header, row = sheet.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["E_C_MHz"]) == 200.0
    assert float(cells["E_J_MHz"]) == 12500.0
    assert float(cells["E_L_MHz"]) == 15625.0
    assert float(cells["Eprime_J_MHz"]) == 1562.5
    assert float(cells["omega_MHz"]) == 5000.0
    assert float(cells["T_MHz"]) == 20.0
    assert float(cells["delta_omega_MHz"]) == -200.0
    assert float(cells["Delta_MHz"]) == 40.0
    assert np.isclose(float(cells["E_coup_MHz"]), 18.4, rtol=1e-9)
    assert np.isclose(float(cells["E_coup_simplified_MHz"]), 20.0, rtol=1e-12)
    assert np.isclose(float(cells["t_MHz"]), -20.0, rtol=1e-9)
    assert np.isclose(float(cells["J_MHz"]), 40.0, rtol=1e-12)
    assert np.isclose(float(cells["h_bulk_MHz"]), 4720.0, rtol=1e-12)
    assert np.isclose(float(cells["h_edge_MHz"]), 4760.0, rtol=1e-12)
