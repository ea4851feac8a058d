from dataclasses import replace

import pytest

from spinbh.errors import InvalidSpecError
from spinbh.model import (
    CircuitSpec,
    SpinModelSpec,
    chain_circuit,
    chain_spec,
    validate,
)


def test_chain_spec_minimal():
    spec = chain_spec(2, 40.0, 0.0)
    assert spec.edges == ((0, 1, 40.0),)
    assert spec.fields == (0.0, 0.0)


def test_chain_spec_ten_sites():
    spec = chain_spec(10, 40.0, 4720.0)
    assert len(spec.edges) == 9
    assert all(v == 40.0 for _, _, v in spec.edges)
    assert spec.fields == (4720.0,) * 10


def test_chain_spec_single_site():
    spec = chain_spec(1, 40.0, 5.0)
    assert spec.edges == ()
    assert spec.fields == (5.0,)


def test_chain_spec_rejects_zero_sites():
    with pytest.raises(InvalidSpecError):
        chain_spec(0, 1.0, 0.0)


def test_chain_spec_rejects_non_finite():
    with pytest.raises(InvalidSpecError):
        chain_spec(2, float("nan"), 0.0)


# a spin model is checked whole at construction: rebuilding it through
# dataclasses.replace runs every check again
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_chain_spec_always_validates(n):
    spec = chain_spec(n, 1.0, 0.5)
    assert replace(spec) == spec


def test_validate_clean_chain():
    spec = chain_spec(3, 1.0, 0.0)
    assert replace(spec) == spec


def test_validate_flags_edge_ordering():
    with pytest.raises(InvalidSpecError, match=r"^edge \(2,1\) violates j<k ordering$"):
        SpinModelSpec(n_sites=3, edges=((2, 1, 1.0),), fields=(0.0, 0.0, 0.0))


def test_validate_flags_duplicates_and_range():
    # one error lists every problem
    with pytest.raises(InvalidSpecError,
                       match=r"^duplicate edge \(0,1\); edge \(0,5\) out of range \[0,2\)$"):
        SpinModelSpec(
            n_sites=2, edges=((0, 1, 1.0), (0, 1, 2.0), (0, 5, 1.0)), fields=(0.0, 0.0)
        )


def test_a_problem_met_twice_is_listed_once():
    # a third copy of an edge and a repeated reversed edge each meet one problem again
    with pytest.raises(InvalidSpecError, match=r"^duplicate edge \(0,1\); "
                                               r"edge \(1,0\) violates j<k ordering; "
                                               r"duplicate edge \(1,0\)$"):
        SpinModelSpec(2, ((0, 1, 1.0), (0, 1, 2.0), (0, 1, 3.0), (1, 0, 1.0), (1, 0, 1.0)),
                      (0.0, 0.0))


def test_validate_flags_field_length():
    with pytest.raises(InvalidSpecError, match="fields has length 1, expected 3"):
        SpinModelSpec(n_sites=3, edges=(), fields=(0.0,))
    with pytest.raises(InvalidSpecError, match="fields has length 1, expected 3"):
        replace(chain_spec(3, 1.0, 0.0), fields=(0.0,))


@pytest.mark.parametrize("make, n", [
    (lambda n: SpinModelSpec(n, (), ()), -1),
    (lambda n: SpinModelSpec(n, ((0, 1, 1.0),), ()), -2),
    (lambda n: CircuitSpec(n, (), (), (), ()), -1),
    (lambda n: CircuitSpec(n, (1.0,), (1.0,), (1.0,), (1.0,)), 0),
], ids=["spin", "spin-edge", "circuit", "circuit-lengths"])
def test_a_bad_site_count_is_the_only_problem_reported(make, n):
    # no length or edge range is judged against a site count below 1
    with pytest.raises(InvalidSpecError, match=rf"^n_sites must be >= 1, got {n}$"):
        make(n)


def test_validate_is_pure_and_idempotent():
    circuit = chain_circuit(2, 200.0, 500.0, 50.0, 1.0)
    first = validate(circuit)
    second = validate(circuit)
    assert first == second and len(first) == 3  # e_c/e_j at both sites, and the constraint
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidSpecError) as info:
            SpinModelSpec(n_sites=2, edges=((1, 0, 1.0),), fields=(0.0, 0.0))
        messages.append(str(info.value))
    assert messages == ["edge (1,0) violates j<k ordering"] * 2


def test_circuit_regime_violation_at_large_coupling_ratio():
    # e_coup / e_c = 0.6 sits past the pole of the low-coupling inversion
    circuit = chain_circuit(3, 200.0, 12500.0, 1562.5, 120.0)
    with pytest.raises(InvalidSpecError, match=r"^link 1: e_coup/e_c = 0\.6 is at or beyond 0\.5.*"
                                               r"; link 2: e_coup/e_c = 0\.6"):
        validate(circuit)


def test_circuit_transmon_ratio_warning():
    circuit = chain_circuit(2, 200.0, 500.0, 50.0, 1.0)
    warnings = validate(circuit)  # a warning alone does not refuse the circuit
    assert any("e_c/e_j" in w for w in warnings)


def test_circuit_clean_table_values():
    circuit = chain_circuit(4, 200.0, 12500.0, 1562.5, 18.4, include_boundary=True)
    assert validate(circuit) == []


def test_circuit_boundary_links_may_be_zero_but_not_interior():
    circuit = CircuitSpec(
        n_sites=2,
        e_c=(200.0, 200.0),
        e_j=(12500.0, 12500.0),
        eprime_j=(0.0, 0.0, 0.0),
        e_coup=(0.0, 18.4, 0.0),
    )
    with pytest.raises(InvalidSpecError, match=r"eprime_j\[1\] must be positive on interior links"):
        validate(circuit)


@pytest.mark.parametrize("field", ["e_c", "e_j", "eprime_j", "e_coup"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_circuit_rejects_non_finite_energies(field, value):
    circuit = chain_circuit(3, 200.0, 12500.0, 1562.5, 18.4, include_boundary=True)
    energies = list(getattr(circuit, field))
    energies[1] = value
    with pytest.raises(InvalidSpecError, match=rf"^{field}\[1\] is not finite$"):
        replace(circuit, **{field: tuple(energies)})


def test_inductive_energies_include_both_links():
    circuit = chain_circuit(3, 200.0, 12500.0, 1562.5, 18.4, include_boundary=True)
    assert circuit.inductive_energies() == (15625.0, 15625.0, 15625.0)
    bare = chain_circuit(3, 200.0, 12500.0, 1562.5, 18.4)
    assert bare.inductive_energies() == (14062.5, 15625.0, 14062.5)
