"""Tensor-product basis indexing, product states, and the hard-core subspace.

Site 0 is the least significant digit: a Fock state with occupations
(n_0, ..., n_{N-1}) sits at index sum_j n_j * d**j.  For local dimension 2
this is the usual spin bit convention with occupation 1 = spin up.  A basis
may hold only some of the d**N states: a sorted array of their full-space
indices, whose position is then the state's index.  A state is its complex
amplitude array over the basis states, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, refuse

# operators.assemble keys each output by shift * len(blocks) + block in int64,
# |shift| up to d**N - 1: this cap keeps the key below 2**63 for < 2**32 supports
MAX_DIM = 2**31


@dataclass(frozen=True)
class FockBasis:
    """N-site basis with uniform local dimension d (d=2 is the spin space):
    all d**N states, or only ``states``, sorted unique full-space indices.
    A ``states`` that holds every index is stored as None, the full basis."""

    n_sites: int
    local_dim: int = 2
    states: np.ndarray | None = field(default=None, compare=False)  # bases compare by (N, d)

    def __post_init__(self):
        n, d = self.n_sites, self.local_dim
        problems = [] if n >= 1 else [f"n_sites must be >= 1, got {n}"]
        if d < 2:
            problems.append(f"local dimension must be >= 2, got {d}")
        # 2**32 > MAX_DIM, so a capped exponent keeps the verdict and skips a huge power
        if not problems and d ** min(n, 32) > MAX_DIM:
            problems.append(f"basis dimension {d}**{n} exceeds {MAX_DIM}")
        if not problems and self.states is not None:
            states = np.asarray(self.states, dtype=np.int64)
            if (states.ndim != 1 or not states.size or states[0] < 0
                    or states[-1] >= self.full_dim or np.any(np.diff(states) <= 0)):
                problems.append("states must be non-empty, sorted, unique and within range")
            object.__setattr__(self, "states", None if states.size == self.full_dim else states)
        if problems:
            refuse(problems)

    @property
    def full_dim(self) -> int:
        return self.local_dim**self.n_sites

    @property
    def dim(self) -> int:
        return self.full_dim if self.states is None else len(self.states)

    def restrict(self, amp: np.ndarray) -> np.ndarray:
        """The entries of a full-space array ``amp`` at the basis states."""
        return amp if self.states is None else amp[self.states]

    def rank(self, indices: np.ndarray) -> np.ndarray:
        """Basis position of each full-space index in ``indices``, -1 where
        absent; on the full basis, ``indices`` itself."""
        if self.states is None:
            return indices
        pos = np.searchsorted(self.states, indices)
        hit = self.states[np.minimum(pos, len(self.states) - 1)] == indices
        return np.where(hit, pos, -1)

    def index_of(self, occupations) -> int:
        """Full-space index of the occupations, whatever states the basis holds."""
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


def basis_state(basis: FockBasis, occupations) -> np.ndarray:
    amp = np.zeros(basis.full_dim, dtype=complex)
    amp[basis.index_of(occupations)] = 1.0
    return basis.restrict(amp)


def product_state(basis: FockBasis, local_kets) -> np.ndarray:
    """Normalized tensor product of one length-d ket per site, at the basis states."""
    kets = [np.asarray(k, dtype=complex) for k in local_kets]
    if len(kets) != basis.n_sites:
        raise ValueError(f"expected {basis.n_sites} local kets, got {len(kets)}")
    for site, k in enumerate(kets):
        if k.shape != (basis.local_dim,):
            raise ValueError(f"local ket at site {site} must have length {basis.local_dim}")
        if np.linalg.norm(k) == 0.0:
            raise ValueError(f"local ket at site {site} is zero; state would be degenerate")
    amp = np.array([1.0 + 0j])
    for k in kets:  # site 0 first keeps it the fastest-varying index; np.kron(k, amp)
        amp = np.multiply.outer(k, amp).ravel()
    norm = np.linalg.norm(amp)  # 1.0 for a basis state, which x / 1.0 would leave as it is
    return basis.restrict(amp if norm == 1.0 else np.divide(amp, norm, out=amp))


NAMED_STATES = ("domain_wall", "all_up_x", "neel")


def named_kets(name: str, n_sites: int, local_dim: int) -> list[np.ndarray]:
    """One length-``local_dim`` ket per site of a benchmark product state.

    domain_wall  first half occupied / spin up, second half empty / down
    all_up_x     every site in (|0> + |1>)/sqrt(2)
    neel         alternating occupied/empty starting occupied at site 0
    """
    if name not in NAMED_STATES:
        raise InvalidSpecError(f"unknown initial_state {name!r}; expected one of {NAMED_STATES}")
    if name == "domain_wall" and n_sites % 2 != 0:
        raise InvalidSpecError("domain_wall needs an even number of sites")
    empty, full = np.eye(local_dim, 2, dtype=complex).T
    if name == "all_up_x":
        return [empty + full] * n_sites
    if name == "neel":
        return [(full, empty)[site % 2] for site in range(n_sites)]
    return [full] * (n_sites // 2) + [empty] * (n_sites // 2)


def check_sector(basis: FockBasis, sector: str) -> None:
    """ValueError unless boson, or spin on two levels: there DM and HP are the spin model."""
    if sector not in ("spin", "boson"):
        raise ValueError(f"unknown sector {sector!r}")
    if sector == "spin" and basis.local_dim != 2:
        raise ValueError("spin sector requires local_dim = 2")


def named_initial_state(basis: FockBasis, name: str, sector: str = "boson") -> np.ndarray:
    """The product state of ``named_kets`` on the basis states."""
    check_sector(basis, sector)
    return product_state(basis, named_kets(name, basis.n_sites, basis.local_dim))


def site_offsets(d: int, sites, levels: int | None = None) -> np.ndarray:
    """Full-space index of every joint occupation below ``levels`` (default d)
    of ``sites`` (others empty), the first site varying fastest."""
    offsets = np.zeros(1, dtype=np.int64)
    for site in sites:
        offsets = (offsets + d**site * np.arange(levels or d, dtype=np.int64)[:, None]).ravel()
    return offsets


def physical_mask(basis: FockBasis) -> np.ndarray:
    """Indices of the basis's hard-core states (every occupation <= 1), in an
    order matching the d=2 bit convention, so on a basis holding all of them
    entry m corresponds to spin index m."""
    pos = basis.rank(site_offsets(basis.local_dim, range(basis.n_sites), 2))
    return pos[pos >= 0]


def outside(dim: int, mask) -> np.ndarray:
    """1.0 at every index in [0, dim) outside the sorted, unique ``mask``, else 0.0."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.ndim != 1 or np.any(mask < 0) or np.any(mask >= dim) or np.any(np.diff(mask) <= 0):
        raise ValueError("mask must be sorted, unique, and within range")
    indicator = np.ones(dim)
    indicator[mask] = 0.0
    return indicator
