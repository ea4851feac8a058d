"""Parameter arithmetic between the circuit, the array Hamiltonian, and the spin model.

Conventions (0-indexed, chain of N sites, N+1 links):

* link l joins sites l-1 and l; links 0 and N are grounded boundary links.
* per-site inductive energy  E_L[s] = E_J[s] + E'_J[s] + E'_J[s+1].
* interior-link arrays (hopping, cross-Kerr, correlated hopping) have length
  N-1 and entry i belongs to the link between sites i and i+1.
* "tilde" averages halve at the chain ends: a per-site average of the two
  adjacent interior-link values, with the grounded boundary contributing zero.

Formulas, with every energy an ordinary frequency in MHz:

    omega       = sqrt(8 E_C E_L)
    delta_omega = -E_C
    Delta       = 2 E'_J E_C / E_L          (= 2T = 2T')
    t           = sqrt(2) E_coup sqrt(E_L/E_C) - sqrt(2) E'_J sqrt(E_C/E_L)
    J           = 2 E'_J E_C / E_L          (= Delta = -2t on constraint)
    h           = sqrt(8 E_C E_L) - E_C - 4 Etilde'_J E_C / E_L

and the coupling-capacitance constraint that makes the array reproduce the
spin model exactly:

    E_coup = E'_J (E_C/E_L) (1 - sqrt(E_C / (2 E_L))).

On a homogeneous chain E_L = E_J + 2 E'_J and the bulk field is
h = sqrt(8 E_C E_L) - E_C - 2J, so a target (J, h) inverts in closed form:

    E_L  = (h + E_C + 2J)^2 / (8 E_C)
    E_J  = E_L (E_C - J) / E_C
    E'_J = E_L J / (2 E_C)          (= E_J J / (2 (E_C - J)))

The widely used low-coupling shortcut E_coup = E'_J E_C / E_L is kept only as
a diagnostic: feeding it back into the hopping formula makes the two leading
terms cancel (t = 0 instead of -Delta/2), so it cannot be used for design.

These formulas reproduce the spin model exactly on the constraint and at a
uniform E_C/E_L; ``model.validate`` reports a circuit that misses either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpecError
from .model import CircuitSpec, SpinModelSpec, chain_circuit

FIELD_SOLVE_BRACKET = 1e6  # upper bound of a designed E_J, in units of E_C
# A homogeneous design's sheet reads bulk site n//2, its links and its neighbours'
# links: all interior from 4 sites on, so every longer chain gives the 4-site sheet
# bit for bit (at 3 sites with bare ends, link 1's left site is an edge site).
SHEET_SITES = 4


@dataclass(frozen=True)
class JJAParams:
    """Rotating-wave array parameters derived from a CircuitSpec.

    Per site: omega (oscillator frequency), delta_omega (anharmonicity),
    e_l (inductive energy), delta_tilde (edge-halved cross-Kerr average).
    Per interior link: t (linear hopping), delta (cross-Kerr), corr_t and
    corr_tp (correlated hopping).  All MHz.
    """

    n_sites: int
    omega: tuple[float, ...]
    delta_omega: tuple[float, ...]
    e_l: tuple[float, ...]
    t: tuple[float, ...]
    delta: tuple[float, ...]
    corr_t: tuple[float, ...]
    corr_tp: tuple[float, ...]
    delta_tilde: tuple[float, ...]


def _edge_halved_average(link_values, n_sites: int) -> tuple[float, ...]:
    """Per-site mean of the two adjacent interior-link values; boundary counts as zero."""
    out = []
    for s in range(n_sites):
        left = link_values[s - 1] if s - 1 >= 0 else 0.0
        right = link_values[s] if s < n_sites - 1 else 0.0
        out.append(0.5 * (left + right))
    return tuple(out)


def derive_jja_params(circuit: CircuitSpec) -> JJAParams:
    """Populate every rotating-wave parameter of the array from raw energies.

    Link formulas evaluate E_C/E_L at the left site of each link, so they are
    exact only where that ratio is uniform along the chain; ``validate``
    reports when it is not.
    """
    n = circuit.n_sites
    e_l = circuit.inductive_energies()
    omega = tuple(math.sqrt(8.0 * circuit.e_c[s] * e_l[s]) for s in range(n))
    delta_omega = tuple(-circuit.e_c[s] for s in range(n))
    t, delta = [], []
    for i in range(n - 1):
        link = i + 1
        ec, el = circuit.e_c[i], e_l[i]
        ep, ecoup = circuit.eprime_j[link], circuit.e_coup[link]
        delta.append(2.0 * ep * ec / el)
        t.append(math.sqrt(2.0) * ecoup * math.sqrt(el / ec)
                 - math.sqrt(2.0) * ep * math.sqrt(ec / el))
    corr = tuple(0.5 * d for d in delta)
    return JJAParams(
        n_sites=n,
        omega=omega,
        delta_omega=delta_omega,
        e_l=e_l,
        t=tuple(t),
        delta=tuple(delta),
        corr_t=corr,
        corr_tp=corr,
        delta_tilde=_edge_halved_average(delta, n),
    )


def exact_coupling(e_c: float, e_l: float, eprime_j: float) -> float:
    """Coupling-capacitance energy that realizes the spin correspondence exactly."""
    return eprime_j * (e_c / e_l) * (1.0 - math.sqrt(e_c / (2.0 * e_l)))


def simplified_coupling(e_c: float, e_l: float, eprime_j: float) -> float:
    """Leading-order shortcut E'_J E_C / E_L; diagnostic only (gives t = 0)."""
    return eprime_j * e_c / e_l


def eprime_from_simplified_coupling(e_c: float, e_j: float, e_coup: float) -> float:
    """Invert the low-coupling shortcut for the link Josephson energy:
    E'_J = E_J (E_coup/E_C) / (1 - 2 E_coup/E_C)."""
    ratio = e_coup / e_c
    denom = 1.0 - 2.0 * ratio
    if denom <= 0.0:
        raise InvalidSpecError(f"E_coup/E_C = {ratio:.3g} is at or beyond 1/2; inversion diverges")
    return e_j * ratio / denom


def exact_couplings(circuit: CircuitSpec) -> tuple[float, ...]:
    """Exact coupling energy of every link (N+1 values, zero on the grounded
    boundary links), each at the E_C/E_L of the link's left site."""
    e_l = circuit.inductive_energies()
    interior = (
        exact_coupling(circuit.e_c[i], e_l[i], circuit.eprime_j[i + 1])
        for i in range(circuit.n_sites - 1)
    )
    return (0.0, *interior, 0.0)


def constraint_residual(circuit: CircuitSpec) -> np.ndarray:
    """Per-interior-link residual E_coup - E'_J (E_C/E_L)(1 - sqrt(E_C/2E_L)), MHz.

    Zero residual means the circuit realizes the Heisenberg correspondence
    exactly (hopping comes out at -Delta/2)."""
    return np.subtract(circuit.e_coup, exact_couplings(circuit))[1:-1]


def circuit_to_spin(circuit: CircuitSpec) -> SpinModelSpec:
    """Spin model simulated by the circuit.

    Couplings per interior link: J = Delta = 2 E'_J E_C / E_L.  Fields per
    site: h = omega - E_C - 4 Etilde'_J E_C / E_L, where Etilde'_J averages
    the adjacent interior-link Josephson energies and is therefore halved at
    the chain ends; edge fields come out larger than bulk ones.  The model is
    exact only on the coupling constraint; ``validate`` reports a miss.
    """
    n = circuit.n_sites
    params = derive_jja_params(circuit)
    edges = tuple((i, i + 1, params.delta[i]) for i in range(n - 1))
    ep_tilde = _edge_halved_average(circuit.eprime_j[1:n], n)
    fields = tuple(
        params.omega[s] - circuit.e_c[s] - 4.0 * ep_tilde[s] * circuit.e_c[s] / params.e_l[s]
        for s in range(n)
    )
    return SpinModelSpec(n_sites=n, edges=edges, fields=fields)


def homogeneous_parameters(spec: SpinModelSpec) -> tuple[float, float]:
    """(J, h) of a homogeneous nearest-neighbor chain; error if not one."""
    expected = [(j, j + 1) for j in range(spec.n_sites - 1)]
    if [(j, k) for j, k, _ in spec.edges] != expected:
        raise InvalidSpecError("target must be an open nearest-neighbor chain")
    couplings = {v for _, _, v in spec.edges}
    fields = set(spec.fields)
    if len(couplings) > 1 or len(fields) > 1:
        raise InvalidSpecError("target must be homogeneous (single J, single h)")
    coupling = couplings.pop() if couplings else 0.0
    return coupling, fields.pop()


def design_circuit(
    target: SpinModelSpec,
    e_c: float,
    e_j: float = 12500.0,
    match_field: bool = True,
    include_boundary: bool = True,
) -> CircuitSpec:
    """Homogeneous circuit realizing a homogeneous spin chain.

    The bulk inversion of the coupling formula with E_L = E_J + 2 E'_J gives
    E'_J = E_J J / (2 (E_C - J)), so the design is feasible only for J < E_C.
    With ``match_field`` the Josephson energy comes from the closed-form
    inverse E_J = (h + E_C + 2J)^2 (E_C - J) / (8 E_C^2) of the interior-site
    field, which must lie in [E_C, 1e6 E_C]; otherwise ``e_j`` is anchored as
    given (it must be positive) and the field follows.  Every link's
    coupling-capacitance energy is set from the exact constraint.

    Boundary links carry the interior Josephson energy by default so the
    oscillator frequency (and E_C/E_L) is uniform along the chain; pass
    ``include_boundary=False`` for bare grounded ends.
    """
    coupling, field = homogeneous_parameters(target)
    if not 0.0 <= coupling < e_c:
        raise InvalidSpecError(
            f"need 0 <= J < E_C for a positive link energy, got J={coupling}, E_C={e_c}"
        )
    if match_field:
        root = field + e_c + 2.0 * coupling  # sqrt(8 E_C E_L), so it must not be negative
        e_j = root * root / (8.0 * e_c) * (e_c - coupling) / e_c
        lo, hi = e_c, FIELD_SOLVE_BRACKET * e_c
        if not (root >= 0.0 and lo <= e_j <= hi):
            raise InvalidSpecError(
                f"target field {field} MHz is out of reach with E_J in [{lo}, {hi}] MHz"
            )
    elif not e_j > 0.0:  # NaN fails too
        raise InvalidSpecError(f"anchored E_J must be positive, got {e_j} MHz")
    eprime = e_j * coupling / (2.0 * (e_c - coupling))
    circuit = chain_circuit(
        target.n_sites, e_c, e_j, eprime, 0.0, include_boundary=include_boundary
    )
    return replace(circuit, e_coup=exact_couplings(circuit))


def parameter_sheet(circuit: CircuitSpec) -> dict[str, float]:
    """The design as ``{column: value}``, bulk values first, edge field last.

    Columns mirror the usual tabulation (E_C, E_J, E_L, E_coup, E'_J, omega,
    T, delta_omega, Delta) and append the hopping, both coupling-energy
    conventions, and the simulated spin parameters.
    """
    params = derive_jja_params(circuit)
    spin = circuit_to_spin(circuit)
    n = circuit.n_sites
    bulk = n // 2  # interior site/link for n >= 3, best available otherwise
    link = min(max(bulk, 1), n - 1) if n > 1 else 0
    e_l = params.e_l
    columns = [
        "E_C_MHz", "E_J_MHz", "E_L_MHz", "E_coup_MHz", "Eprime_J_MHz",
        "omega_MHz", "T_MHz", "delta_omega_MHz", "Delta_MHz",
        "t_MHz", "Tprime_MHz", "E_coup_simplified_MHz",
        "J_MHz", "h_bulk_MHz", "h_edge_MHz",
    ]
    if n > 1:
        ep = circuit.eprime_j[link]
        values = [
            circuit.e_c[bulk], circuit.e_j[bulk], e_l[bulk], circuit.e_coup[link], ep,
            params.omega[bulk], params.corr_t[link - 1], params.delta_omega[bulk],
            params.delta[link - 1], params.t[link - 1], params.corr_tp[link - 1],
            simplified_coupling(circuit.e_c[link - 1], e_l[link - 1], ep),
            spin.edges[link - 1][2],
            spin.fields[bulk] if n > 2 else spin.fields[0],
            spin.fields[0],
        ]
    else:
        values = [circuit.e_c[0], circuit.e_j[0], e_l[0], 0.0, circuit.eprime_j[0],
                  params.omega[0], 0.0, params.delta_omega[0], 0.0, 0.0, 0.0, 0.0,
                  0.0, spin.fields[0], spin.fields[0]]
    return dict(zip(columns, values))
