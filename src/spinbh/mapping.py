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

The widely used low-coupling shortcut E_coup = E'_J E_C / E_L is kept only as
a diagnostic: feeding it back into the hopping formula makes the two leading
terms cancel (t = 0 instead of -Delta/2), so it cannot be used for design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .model import CircuitSpec, SpinModelSpec, Violation, chain_circuit
from .units import capacitance_to_mhz

RATIO_UNIFORMITY_TOL = 1e-6
CAPACITANCE_RATIO_WARN = 0.1
FIELD_SOLVE_TOL = 1e-9  # MHz, on the residual of the field match
FIELD_SOLVE_BRACKET = 1e6  # upper bracket for E_J in units of E_C


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


def capacitive_energies(capacitances, coupling_capacitances):
    """Charging and coupling energies (MHz) from capacitances in fF.

    ``capacitances`` has one entry per site, ``coupling_capacitances`` one per
    link (N+1 values, grounded ends included).  Returns (e_c, e_coup) with
    e_coup per link, zero on the boundary links.
    """
    c = [float(x) for x in capacitances]
    cp = [float(x) for x in coupling_capacitances]
    n = len(c)
    if len(cp) != n + 1:
        raise ValueError(f"expected {n + 1} coupling capacitances, got {len(cp)}")
    if any(x <= 0 for x in c) or any(x < 0 for x in cp):
        raise ZeroDivisionError("capacitances must be positive (couplings nonnegative)")
    csum = [c[s] + cp[s] + cp[s + 1] for s in range(n)]
    e_c = tuple(capacitance_to_mhz(csum[s]) for s in range(n))
    e_coup = [0.0] * (n + 1)
    for link in range(1, n):
        e_coup[link] = e_c[link - 1] * cp[link] / csum[link]
    return e_c, tuple(e_coup)


def capacitance_regime_report(capacitances, coupling_capacitances) -> list[Violation]:
    """Warn where a coupling capacitance is not small against its site capacitance."""
    report = []
    c = [float(x) for x in capacitances]
    cp = [float(x) for x in coupling_capacitances]
    for link in range(1, len(c)):
        ratio = cp[link] / min(c[link - 1], c[link])
        if ratio > CAPACITANCE_RATIO_WARN:
            report.append(
                Violation("warning",
                          f"link {link}: C'/C = {ratio:.3g} exceeds {CAPACITANCE_RATIO_WARN}; "
                          "low-coupling expansion degrades")
            )
    return report


def ratio_uniformity(circuit: CircuitSpec) -> float:
    """Max relative spread of E_C/E_L across sites (the key homogeneity assumption)."""
    e_l = circuit.inductive_energies()
    ratios = [circuit.e_c[s] / e_l[s] for s in range(circuit.n_sites)]
    lo, hi = min(ratios), max(ratios)
    return (hi - lo) / hi if hi > 0 else 0.0


def derive_jja_params(circuit: CircuitSpec, warn: bool = True) -> JJAParams:
    """Populate every rotating-wave parameter of the array from raw energies.

    Link formulas evaluate E_C/E_L at the left site of each link; when the
    ratio is not uniform along the chain (checked to 1e-6 relative) the
    closed forms are only approximate and a warning is emitted.
    """
    n = circuit.n_sites
    e_l = circuit.inductive_energies()
    if warn and n > 1 and ratio_uniformity(circuit) > RATIO_UNIFORMITY_TOL:
        import warnings

        warnings.warn(
            f"E_C/E_L varies by {ratio_uniformity(circuit):.3g} along the chain; "
            "link parameters use the left-site ratio",
            stacklevel=2,
        )
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
        e_l=tuple(e_l),
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


def constraint_residual(circuit: CircuitSpec) -> np.ndarray:
    """Per-interior-link residual E_coup - E'_J (E_C/E_L)(1 - sqrt(E_C/2E_L)), MHz.

    Zero residual means the circuit realizes the Heisenberg correspondence
    exactly (hopping comes out at -Delta/2)."""
    e_l = circuit.inductive_energies()
    out = np.empty(max(circuit.n_sites - 1, 0))
    for i in range(circuit.n_sites - 1):
        link = i + 1
        out[i] = circuit.e_coup[link] - exact_coupling(
            circuit.e_c[i], e_l[i], circuit.eprime_j[link]
        )
    return out


def circuit_to_spin(circuit: CircuitSpec, warn: bool = True) -> SpinModelSpec:
    """Spin model simulated by the circuit.

    Couplings per interior link: J = 2 E'_J E_C / E_L.  Fields per site:
    h = sqrt(8 E_C E_L) - E_C - 4 Etilde'_J E_C / E_L, where Etilde'_J
    averages the adjacent interior-link Josephson energies and is therefore
    halved at the chain ends; edge fields come out larger than bulk ones.
    """
    n = circuit.n_sites
    if warn and n > 1:
        # residual relative to the larger of the set and the exact coupling;
        # a link where both are zero is exact
        rel = 0.0
        for link, resid in enumerate(constraint_residual(circuit), start=1):
            scale = max(abs(circuit.e_coup[link]), abs(circuit.e_coup[link] - resid))
            rel = max(rel, abs(resid) / scale if scale > 0.0 else 0.0)
        if rel > RATIO_UNIFORMITY_TOL:
            import warnings

            warnings.warn(
                f"coupling constraint violated by {rel:.3g} relative; "
                "the emitted spin model is only approximate",
                stacklevel=2,
            )
    e_l = circuit.inductive_energies()
    edges = []
    for i in range(n - 1):
        link = i + 1
        edges.append((i, i + 1, 2.0 * circuit.eprime_j[link] * circuit.e_c[i] / e_l[i]))
    interior_ep = [circuit.eprime_j[i + 1] for i in range(n - 1)]
    ep_tilde = _edge_halved_average(interior_ep, n)
    fields = tuple(
        math.sqrt(8.0 * circuit.e_c[s] * e_l[s]) - circuit.e_c[s]
        - 4.0 * ep_tilde[s] * circuit.e_c[s] / e_l[s]
        for s in range(n)
    )
    return SpinModelSpec(n_sites=n, edges=tuple(edges), fields=fields)


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


def _bulk_field(e_c: float, e_j: float, coupling: float) -> tuple[float, float]:
    """Interior-site field and link Josephson energy for a homogeneous design."""
    eprime = e_j * coupling / (2.0 * (e_c - coupling))
    e_l = e_j + 2.0 * eprime
    h = math.sqrt(8.0 * e_c * e_l) - e_c - 4.0 * eprime * e_c / e_l
    return h, eprime


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
    With ``match_field`` the Josephson energy is bisected in
    [E_C, 1e6 E_C] until the interior-site field matches the target within
    1e-9 MHz; otherwise ``e_j`` is anchored as given and the field follows.
    The coupling-capacitance energy is set from the exact constraint.

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
        lo, hi = e_c, FIELD_SOLVE_BRACKET * e_c
        f_lo = _bulk_field(e_c, lo, coupling)[0] - field
        f_hi = _bulk_field(e_c, hi, coupling)[0] - field
        if f_lo == 0.0:
            e_j = lo
        elif f_hi == 0.0:
            e_j = hi
        elif f_lo * f_hi > 0:
            raise InvalidSpecError(
                f"target field {field} MHz not bracketed by E_J in "
                f"[{lo}, {hi}] MHz (residuals {f_lo:.3g}, {f_hi:.3g})"
            )
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                f_mid = _bulk_field(e_c, mid, coupling)[0] - field
                if abs(f_mid) <= FIELD_SOLVE_TOL:
                    break
                if (f_lo < 0) == (f_mid < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            else:
                raise InvalidSpecError("field bisection did not converge")
            e_j = mid
    _, eprime = _bulk_field(e_c, e_j, coupling)
    e_l = e_j + 2.0 * eprime
    e_coup = exact_coupling(e_c, e_l, eprime) if coupling > 0 else 0.0
    return chain_circuit(
        target.n_sites, e_c, e_j, eprime, e_coup, include_boundary=include_boundary
    )


def parameter_sheet(circuit: CircuitSpec, precision: int = 12) -> str:
    """One-row CSV sheet of the design, bulk values first, edge field last.

    Columns mirror the usual tabulation (E_C, E_J, E_L, E_coup, E'_J, omega,
    T, delta_omega, Delta) and append the hopping, both coupling-energy
    conventions, and the simulated spin parameters.
    """
    params = derive_jja_params(circuit, warn=False)
    spin = circuit_to_spin(circuit, warn=False)
    n = circuit.n_sites
    bulk = n // 2  # interior site/link for n >= 3, best available otherwise
    link = min(max(bulk, 1), n - 1) if n > 1 else 0
    e_l = circuit.inductive_energies()

    def fmt(x: float) -> str:
        return format(x, f".{precision}g")

    header = [
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
    return ",".join(header) + "\n" + ",".join(fmt(v) for v in values) + "\n"
