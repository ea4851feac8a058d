"""Tensor-product basis indexing, product states, and the hard-core subspace.

Site 0 is the least significant digit: a Fock state with occupations
(n_0, ..., n_{N-1}) sits at index sum_j n_j * d**j.  For local dimension 2
this is the usual spin bit convention with occupation 1 = spin up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DIM = 2**31


@dataclass(frozen=True)
class FockBasis:
    """N-site basis with uniform local dimension d (d=2 is the spin space)."""

    n_sites: int
    local_dim: int = 2

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be >= 2, got {self.local_dim}")
        if self.local_dim**self.n_sites > MAX_DIM:
            raise ValueError(
                f"basis dimension {self.local_dim}**{self.n_sites} exceeds {MAX_DIM}"
            )

    @property
    def dim(self) -> int:
        return self.local_dim**self.n_sites

    def index_of(self, occupations) -> int:
        occ = list(occupations)
        if len(occ) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} occupations, got {len(occ)}")
        idx = 0
        for site in reversed(range(self.n_sites)):
            n = int(occ[site])
            if not 0 <= n < self.local_dim:
                raise ValueError(f"occupation {n} at site {site} outside [0, {self.local_dim})")
            idx = idx * self.local_dim + n
        return idx

    def occupations_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        occ = []
        for _ in range(self.n_sites):
            index, n = divmod(index, self.local_dim)
            occ.append(n)
        return tuple(occ)


@dataclass
class StateVector:
    """Dense complex amplitudes over a FockBasis; unit norm by construction."""

    basis: FockBasis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError(f"amplitude length {amp.shape} does not match dim {self.basis.dim}")
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_state(basis: FockBasis, occupations) -> StateVector:
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.index_of(occupations)] = 1.0
    return StateVector(basis, amp)


def product_state(basis: FockBasis, local_kets) -> StateVector:
    """Normalized tensor product of one length-d ket per site."""
    kets = [np.asarray(k, dtype=complex) for k in local_kets]
    if len(kets) != basis.n_sites:
        raise ValueError(f"expected {basis.n_sites} local kets, got {len(kets)}")
    for site, k in enumerate(kets):
        if k.shape != (basis.local_dim,):
            raise ValueError(f"local ket at site {site} must have length {basis.local_dim}")
        if np.linalg.norm(k) == 0.0:
            raise ValueError(f"local ket at site {site} is zero; state would be degenerate")
    amp = np.array([1.0 + 0j])
    for k in kets:  # site 0 first keeps it the fastest-varying index
        amp = np.kron(k, amp)
    amp /= np.linalg.norm(amp)
    return StateVector(basis, amp)


NAMED_STATES = ("domain_wall", "all_up_x", "neel")


def named_initial_state(basis: FockBasis, name: str, sector: str = "boson") -> StateVector:
    """Benchmark product states.

    domain_wall  first half occupied / spin up, second half empty / down
    all_up_x     every site in (|0> + |1>)/sqrt(2)
    neel         alternating occupied/empty starting occupied at site 0
    """
    if sector not in ("spin", "boson"):
        raise ValueError(f"unknown sector {sector!r}")
    if sector == "spin" and basis.local_dim != 2:
        raise ValueError("spin sector requires local_dim = 2")
    n = basis.n_sites
    if name == "domain_wall":
        if n % 2 != 0:
            raise ValueError("domain_wall is defined for even chains only (half/half split)")
        occ = [1] * (n // 2) + [0] * (n // 2)
        return basis_state(basis, occ)
    if name == "neel":
        return basis_state(basis, [(site + 1) % 2 for site in range(n)])
    if name == "all_up_x":
        ket = np.zeros(basis.local_dim, dtype=complex)
        ket[0] = ket[1] = 1.0
        return product_state(basis, [ket] * n)
    raise ValueError(f"unknown initial state {name!r}; expected one of {NAMED_STATES}")


def physical_mask(basis: FockBasis) -> np.ndarray:
    """Indices of all hard-core states (every occupation <= 1), in an order
    matching the d=2 bit convention so entry m corresponds to spin index m."""
    d, n = basis.local_dim, basis.n_sites
    if d == 2:
        return np.arange(basis.dim, dtype=np.int64)
    sites = np.arange(n, dtype=np.int64)
    bits = (np.arange(2**n, dtype=np.int64)[:, None] >> sites) & 1
    return bits @ d**sites


def mask_complement(dim: int, mask) -> np.ndarray:
    """Indices in [0, dim) outside ``mask``, which must be sorted, unique and in range."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.ndim != 1 or np.any(mask < 0) or np.any(mask >= dim) or np.any(np.diff(mask) <= 0):
        raise ValueError("mask must be sorted, unique, and within range")
    return np.setdiff1d(np.arange(dim, dtype=np.int64), mask, assume_unique=True)
