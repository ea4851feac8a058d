"""Declarative specifications of the spin model and the circuit.

Sites are 0-indexed.  A chain of N sites has N+1 coupling links, indexed
0..N; link l joins sites l-1 and l, so links 0 and N join the edge sites to
ground.  All energies are ordinary frequencies nu = E/(2*pi*hbar) in MHz.

Both specs are valid by construction: a malformed one raises one
InvalidSpecError that lists every problem.  ``validate`` refuses a circuit
outside the regime the mapping assumes in the same way, and returns every
regime warning; nothing else in the package judges a circuit's regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpecError, refuse

# Above this ratio the charging energy is no longer a small perturbation of
# the Josephson well and the quadratic-oscillator treatment degrades.
TRANSMON_RATIO_WARN = 0.1
# The low-coupling inversion E'_J = E_J (E_coup/E_C) / (1 - 2 E_coup/E_C)
# changes sign at E_coup/E_C = 0.5.
COUPLING_RATIO_LIMIT = 0.5
# Relative E_C/E_L spread along the chain, and relative miss of the exact
# coupling on any interior link, above which the spin model is only approximate.
EXACT_REGIME_TOL = 1e-6


@dataclass(frozen=True)
class SpinModelSpec:
    """Coupling graph J_jk and local z-fields h_j of a Heisenberg spin-1/2 model.

    Positive couplings are ferromagnetic: the exchange enters the Hamiltonian
    with an overall minus sign.
    """

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(j), int(k), float(v)) for j, k, v in self.edges))
        object.__setattr__(self, "fields", tuple(float(h) for h in self.fields))
        n = self.n_sites
        problems = [] if n >= 1 else [f"n_sites must be >= 1, got {n}"]
        if n >= 1 and len(self.fields) != n:  # no length or range is judged against a bad n
            problems.append(f"fields has length {len(self.fields)}, expected {n}")
        seen = set()
        for j, k, v in self.edges:
            if n >= 1 and not (0 <= j < n and 0 <= k < n):
                problems.append(f"edge ({j},{k}) out of range [0,{n})")
            if j >= k:
                problems.append(f"edge ({j},{k}) violates j<k ordering")
            if (j, k) in seen:
                problems.append(f"duplicate edge ({j},{k})")
            seen.add((j, k))
            if not math.isfinite(v):
                problems.append(f"edge ({j},{k}) has non-finite coupling")
        problems += [f"field at site {j} is not finite"
                     for j, h in enumerate(self.fields) if not math.isfinite(h)]
        if problems:
            refuse(problems)


@dataclass(frozen=True)
class CircuitSpec:
    """Raw junction-array energies: per-site charging and Josephson energies,
    per-link coupling Josephson and capacitive-coupling energies.

    ``eprime_j`` and ``e_coup`` have length n_sites + 1; entries 0 and n_sites
    belong to the grounded boundary links and may be zero.
    """

    n_sites: int
    e_c: tuple[float, ...]
    e_j: tuple[float, ...]
    eprime_j: tuple[float, ...]
    e_coup: tuple[float, ...]

    def __post_init__(self):
        for name in ("e_c", "e_j", "eprime_j", "e_coup"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        n = self.n_sites
        problems = [] if n >= 1 else [f"n_sites must be >= 1, got {n}"]
        if n >= 1 and (len(self.e_c) != n or len(self.e_j) != n):
            problems.append("e_c and e_j must have one entry per site")
        if n >= 1 and (len(self.eprime_j) != n + 1 or len(self.e_coup) != n + 1):
            problems.append("eprime_j and e_coup must have n_sites+1 entries")
        for name in ("e_c", "e_j", "eprime_j", "e_coup"):
            problems += [f"{name}[{i}] is not finite"
                         for i, x in enumerate(getattr(self, name)) if not math.isfinite(x)]
        if problems:
            refuse(problems)

    def inductive_energies(self) -> tuple[float, ...]:
        """Per-site E_L: own Josephson energy plus both adjacent link energies."""
        return tuple(
            self.e_j[s] + self.eprime_j[s] + self.eprime_j[s + 1] for s in range(self.n_sites)
        )


def chain_spec(n_sites: int, coupling: float, field: float) -> SpinModelSpec:
    """Homogeneous open chain: nearest-neighbor coupling J and uniform field h."""
    if not (math.isfinite(coupling) and math.isfinite(field)):
        raise InvalidSpecError("coupling and field must be finite")
    edges = tuple((j, j + 1, coupling) for j in range(n_sites - 1))
    return SpinModelSpec(n_sites=n_sites, edges=edges, fields=(field,) * n_sites)


def chain_circuit(
    n_sites: int,
    e_c: float,
    e_j: float,
    eprime_j: float,
    e_coup: float,
    include_boundary: bool = False,
) -> CircuitSpec:
    """Homogeneous junction-array chain.

    ``include_boundary=True`` gives the grounded boundary links the same
    Josephson energy as the interior ones, which makes the per-site inductive
    energy (and hence the oscillator frequency) uniform along the chain.  The
    boundary capacitive coupling is always zero: a link to ground couples no
    pair of sites.
    """
    boundary = eprime_j if include_boundary else 0.0
    ep = (boundary,) + (eprime_j,) * (n_sites - 1) + (boundary,)
    ec = (0.0,) + (e_coup,) * (n_sites - 1) + (0.0,)
    return CircuitSpec(
        n_sites=n_sites,
        e_c=(e_c,) * n_sites,
        e_j=(e_j,) * n_sites,
        eprime_j=ep,
        e_coup=ec,
    )


def validate(circuit: CircuitSpec) -> list[str]:
    """Refuse a circuit outside the regime the mapping assumes with one
    InvalidSpecError that lists every regime error; return the regime warnings:
    a weakly anharmonic site, an E_C/E_L that varies along the chain, and a
    coupling that misses the exact constraint, the last two judged once the
    errors are clear.  Structural problems never get here: the constructor
    refuses them."""
    errors, warnings = [], []
    n = circuit.n_sites
    for s in range(n):
        e_c, e_j = circuit.e_c[s], circuit.e_j[s]
        if e_c <= 0:
            errors.append(f"e_c[{s}] must be positive")
        if e_j <= 0:
            errors.append(f"e_j[{s}] must be positive")
        elif e_c / e_j > TRANSMON_RATIO_WARN:
            warnings.append(f"site {s}: e_c/e_j = {e_c / e_j:.3g} exceeds {TRANSMON_RATIO_WARN}; "
                            "weakly anharmonic regime not satisfied")
    for link in range(n + 1):
        interior = 0 < link < n
        ep, ec = circuit.eprime_j[link], circuit.e_coup[link]
        if interior and ep <= 0:
            errors.append(f"eprime_j[{link}] must be positive on interior links")
        if not interior and ep < 0:
            errors.append(f"eprime_j[{link}] must be >= 0")
        if ec < 0:
            errors.append(f"e_coup[{link}] must be >= 0")
        if interior and circuit.e_c[link - 1] > 0:
            ratio = ec / circuit.e_c[link - 1]
            if ratio >= COUPLING_RATIO_LIMIT:
                errors.append(f"link {link}: e_coup/e_c = {ratio:.3g} is at or beyond "
                              f"{COUPLING_RATIO_LIMIT}, where the low-coupling inversion diverges")
    if errors:
        refuse(errors)
    from .mapping import exact_couplings  # needs positive energies; mapping imports this module

    e_l = circuit.inductive_energies()
    ratios = [circuit.e_c[s] / e_l[s] for s in range(n)]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    if spread > EXACT_REGIME_TOL:
        warnings.append(f"E_C/E_L varies by {spread:.3g} along the chain; "
                        "link parameters use the left-site ratio")
    # miss relative to the larger of the set and the exact coupling;
    # a link where both are zero is exact
    miss = 0.0
    for given, exact in zip(circuit.e_coup[1:n], exact_couplings(circuit)[1:n]):
        scale = max(abs(given), abs(exact))
        miss = max(miss, abs(given - exact) / scale if scale > 0.0 else 0.0)
    if miss > EXACT_REGIME_TOL:
        warnings.append(f"coupling constraint violated by {miss:.3g} relative; "
                        "the emitted spin model is only approximate")
    return warnings
