import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbh.errors import InvalidSpecError
from spinbh.mapping import (
    circuit_to_spin,
    constraint_residual,
    derive_jja_params,
    design_circuit,
    eprime_from_simplified_coupling,
    exact_coupling,
    SHEET_SITES,
    parameter_sheet,
    simplified_coupling,
)
from spinbh.model import chain_circuit, chain_spec, validate

E_C, E_J, EP = 200.0, 12500.0, 1562.5
E_L = E_J + 2 * EP  # 15625


def table_circuit(n_sites, e_coup=None, include_boundary=True):
    if e_coup is None:
        e_coup = exact_coupling(E_C, E_L, EP)
    return chain_circuit(n_sites, E_C, E_J, EP, e_coup, include_boundary=include_boundary)


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
    params = derive_jja_params(circuit)
    assert np.allclose(params.delta, 0.0, atol=1e-250)
    expected_t = math.sqrt(2) * 18.4 * math.sqrt(E_J / E_C)
    assert np.allclose(params.t, expected_t, rtol=1e-9)


def test_delta_tilde_edges_halved():
    params = derive_jja_params(table_circuit(4))
    assert params.delta_tilde == (20.0, 40.0, 40.0, 20.0)


def test_ratio_uniformity_warning_for_bare_edges():
    # bare ends: E_L = 14062.5 at the edges, 15625 inside
    circuit = table_circuit(4, include_boundary=False)
    assert validate(circuit)[0].split(";")[0] == "E_C/E_L varies by 0.1 along the chain"
    derive_jja_params(circuit)  # computes without warning


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


def test_validate_warns_off_constraint():
    # 20 against the exact 18.4: 1.6 / 20 relative
    circuit = table_circuit(3, e_coup=20.0)
    assert validate(circuit) == [
        "coupling constraint violated by 0.08 relative; the emitted spin model is only approximate"
    ]
    circuit_to_spin(circuit)  # computes without warning


def test_zero_coupling_reads_as_full_violation():
    # e_coup = 0 misses the exact coupling by all of it: relative violation 1
    assert [w.split(";")[0] for w in validate(table_circuit(2, e_coup=0.0))] == [
        "coupling constraint violated by 1 relative"
    ]
    # zero set and zero exact coupling (E_C = 2 E_L, so 1 - sqrt(E_C/2E_L) = 0) is exact
    circuit = chain_circuit(2, E_C, 90.0, 10.0, 0.0)
    assert exact_coupling(E_C, 100.0, 10.0) == 0.0
    assert not [w for w in validate(circuit) if "constraint" in w]


# ------------------------------------------------------- design

def test_design_reproduces_table_link_energy():
    circuit = design_circuit(chain_spec(4, 40.0, 0.0), e_c=E_C, e_j=E_J, match_field=False)
    assert np.isclose(circuit.eprime_j[1], 1562.5, rtol=1e-12)
    assert np.isclose(circuit.e_coup[1], 18.4, rtol=1e-9)


def test_design_matches_field_in_closed_form():
    # the reference point inverts exactly: E_L = (4720 + 200 + 80)^2 / 1600 = 15625
    circuit = design_circuit(chain_spec(4, 40.0, 4720.0), e_c=E_C)
    assert circuit.e_j[0] == E_J
    assert circuit.eprime_j[1] == EP
    spin = circuit_to_spin(circuit)
    assert spin.fields[1] == 4720.0
    assert spin.edges[0][2] == 40.0


def test_design_without_boundary_meets_constraint_on_every_link():
    # bare ends lower the edge-site E_L, so the edge links need their own coupling
    circuit = design_circuit(chain_spec(4, 40.0, 4720.0), e_c=E_C, include_boundary=False)
    resid = constraint_residual(circuit)
    assert np.all(np.abs(resid) <= 1e-12 * np.array(circuit.e_coup[1:-1]))
    assert [w.split(" by ")[0] for w in validate(circuit)] == ["E_C/E_L varies"]
    # independent of the constraint formula: the hopping is -Delta/2 on every link
    params = derive_jja_params(circuit)
    assert np.allclose(params.t, -0.5 * np.array(params.delta), rtol=1e-12, atol=0.0)


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
    # so pick targets comfortably inside the E_J range
    coupling = ratio * E_C
    for field in (5.0 * E_C, 30.0 * E_C):
        target = chain_spec(5, coupling, field)
        circuit = design_circuit(target, e_c=E_C)
        spin = circuit_to_spin(circuit)
        assert all(abs(v - coupling) <= 1e-12 * coupling for _, _, v in spin.edges)
        assert abs(spin.fields[2] - field) <= 1e-9


def test_simplified_inverse_formula():
    assert np.isclose(eprime_from_simplified_coupling(E_C, E_J, 20.0), 1562.5, rtol=1e-12)
    with pytest.raises(InvalidSpecError):
        eprime_from_simplified_coupling(E_C, E_J, 120.0)


# ------------------------------------------------------- sheet

def test_parameter_sheet_table_row():
    cells = parameter_sheet(table_circuit(10))
    assert cells["E_C_MHz"] == 200.0
    assert cells["E_J_MHz"] == 12500.0
    assert cells["E_L_MHz"] == 15625.0
    assert cells["Eprime_J_MHz"] == 1562.5
    assert cells["omega_MHz"] == 5000.0
    assert cells["T_MHz"] == 20.0
    assert cells["delta_omega_MHz"] == -200.0
    assert cells["Delta_MHz"] == 40.0
    assert np.isclose(cells["E_coup_MHz"], 18.4, rtol=1e-9)
    assert np.isclose(cells["E_coup_simplified_MHz"], 20.0, rtol=1e-12)
    assert np.isclose(cells["t_MHz"], -20.0, rtol=1e-9)
    assert np.isclose(cells["J_MHz"], 40.0, rtol=1e-12)
    assert np.isclose(cells["h_bulk_MHz"], 4720.0, rtol=1e-12)
    assert np.isclose(cells["h_edge_MHz"], 4760.0, rtol=1e-12)


def sheet_bits(n_sites, params, include_boundary, match_field):
    """The column names and the float64 bits of the design's sheet."""
    coupling, field, e_c, e_j = params
    circuit = design_circuit(chain_spec(n_sites, coupling, field), e_c=e_c, e_j=e_j,
                             match_field=match_field, include_boundary=include_boundary)
    sheet = parameter_sheet(circuit)
    return list(sheet), np.array(list(sheet.values()), dtype=np.float64).view(np.uint64)


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=25, deadline=None)
@example(params=(40.0, 4720.0, E_C, E_J))
@given(params=st.tuples(positive(0.0, 0.99), positive(0.0, 1e5), positive(10.0, 2000.0),
                        positive(1e-3, 1e7)).map(lambda p: (p[0] * p[2], *p[1:])))
def test_a_homogeneous_sheet_is_the_four_site_sheet_bit_for_bit(params):
    # the design run builds SHEET_SITES sites at most and writes their sheet
    assert SHEET_SITES == 4
    for include_boundary in (True, False):
        for match_field in (True, False):
            try:
                names, bits = sheet_bits(SHEET_SITES, params, include_boundary, match_field)
            except InvalidSpecError:
                continue  # refused at every length alike
            for n_sites in (4, 5, 10, 1001):
                longer, longer_bits = sheet_bits(n_sites, params, include_boundary, match_field)
                assert longer == names
                assert np.array_equal(longer_bits, bits), (n_sites, include_boundary, match_field)


@pytest.mark.parametrize("match_field", [True, False])
def test_a_three_site_sheet_with_bare_ends_reads_an_edge_site(match_field):
    params = (40.0, 4720.0, E_C, E_J)
    _, bits = sheet_bits(3, params, False, match_field)
    _, bulk = sheet_bits(SHEET_SITES, params, False, match_field)
    assert not np.array_equal(bits, bulk)
