"""Sparse Hamiltonians and observables, written as term lists.

A term ``(coeff, ((site, local), ...))`` is coeff times the product of its
site-local d x d factors.  Factors apply right to left, exactly as
composition of linear maps; several may sit on one site, and no
normal-ordering rewrites are performed.

``assemble`` multiplies each term's factors into a small dense block on the
term's sorted site support, sums the blocks that share a support, and
scatters each distinct support into the full space once by index
arithmetic: block entry (r, c) lands at (rest + offset[r], rest + offset[c])
for every full index ``rest`` that is empty on the support, where ``offset``
places the block digits at the support sites (first site least significant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .errors import InvalidSpecError
from .hilbert import FockBasis
from .model import SpinModelSpec

if TYPE_CHECKING:
    from .mapping import JJAParams

DROP_THRESHOLD = 1e-15
HERMITIAN_TOL = 1e-12
MAX_SPIN_SITES = 24
VARIANTS = ("simplified", "full")


@dataclass(frozen=True)
class SparseOperator:
    """Compressed-row complex matrix with a measured (never assumed) hermitian flag."""

    matrix: sp.csr_matrix
    hermitian: bool

    @classmethod
    def from_matrix(cls, matrix) -> "SparseOperator":
        m = sp.csr_matrix(matrix, dtype=complex)
        m.sum_duplicates()
        if m.nnz:
            m.data[np.abs(m.data) <= DROP_THRESHOLD] = 0.0
        m.eliminate_zeros()
        m.sort_indices()
        dev = hermiticity_deviation(m)
        return cls(matrix=m, hermitian=bool(dev <= HERMITIAN_TOL))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def hermiticity_deviation(matrix: sp.spmatrix) -> float:
    diff = matrix - matrix.getH()
    return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


@dataclass(frozen=True)
class LocalOperatorSet:
    """Site-local d x d matrices: ladder operators, number operator, identity,
    plus the hard-core boson images of the spin operators (valid on n <= 1)."""

    local_dim: int
    a: np.ndarray
    adag: np.ndarray
    n: np.ndarray
    ident: np.ndarray
    hp_sp: np.ndarray  # a^dag (1 - n)
    hp_sm: np.ndarray  # (1 - n) a
    hp_sz: np.ndarray  # n - 1/2


def local_ops(local_dim: int) -> LocalOperatorSet:
    d = local_dim
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    a = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        a[k - 1, k] = np.sqrt(k)
    adag = a.conj().T
    n = adag @ a
    ident = np.eye(d, dtype=complex)
    hp_sp = adag @ (ident - n)
    hp_sm = (ident - n) @ a
    hp_sz = n - 0.5 * ident
    return LocalOperatorSet(local_dim=d, a=a, adag=adag, n=n, ident=ident,
                            hp_sp=hp_sp, hp_sm=hp_sm, hp_sz=hp_sz)


def _site_offsets(d: int, sites) -> np.ndarray:
    """Full-space index of every joint occupation of ``sites`` (others empty),
    the first site varying fastest."""
    offsets = np.zeros(1, dtype=np.int64)
    for site in sites:
        offsets = (offsets + d**site * np.arange(d, dtype=np.int64)[:, None]).ravel()
    return offsets


def assemble(basis: FockBasis, terms) -> SparseOperator:
    """Sum of ``coeff * factor_1 @ factor_2 @ ...`` over ``terms``."""
    d, n_sites = basis.local_dim, basis.n_sites
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for coeff, factors in terms:
        support = tuple(sorted({site for site, _ in factors}))
        block = np.eye(d ** len(support), dtype=complex)
        for site, local in factors:
            local = np.asarray(local, dtype=complex)
            if local.shape != (d, d):
                raise ValueError(f"local operator must be {d}x{d}, got {local.shape}")
            if not 0 <= site < n_sites:
                raise ValueError(f"site {site} outside [0, {n_sites})")
            pos = support.index(site)
            high, low = np.eye(d ** (len(support) - pos - 1)), np.eye(d**pos)
            block = block @ np.kron(high, np.kron(local, low))
        blocks[support] = coeff * block + blocks.get(support, 0.0)
    # One sparse addition per support keeps the peak near the final nnz.
    total = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for support, block in blocks.items():
        rest = _site_offsets(d, [s for s in range(n_sites) if s not in support])[:, None]
        offsets = _site_offsets(d, support)
        r, c = np.nonzero(block)
        data = np.broadcast_to(block[r, c], (rest.size, r.size)).ravel()
        rows, cols = (rest + offsets[r]).ravel(), (rest + offsets[c]).ravel()
        total = total + sp.csr_matrix((data, (rows, cols)), shape=total.shape)
    return SparseOperator.from_matrix(total)


def _plus_adjoints(terms):
    """``terms`` followed by their adjoints: conjugated, daggered, reversed."""
    return terms + [(np.conj(coeff), tuple((site, m.conj().T) for site, m in reversed(factors)))
                    for coeff, factors in terms]


def embed(basis: FockBasis, site: int, local: np.ndarray) -> SparseOperator:
    """Identity everywhere except ``local`` acting on ``site``."""
    return assemble(basis, [(1.0, ((site, local),))])


def _field_terms(spec: SpinModelSpec, sz: np.ndarray):
    return [(field, ((j, sz),)) for j, field in enumerate(spec.fields) if field != 0.0]


def _dm_terms(spec: SpinModelSpec, ops: LocalOperatorSet):
    """S+ -> a+ (1 - n), S- -> a, Sz -> n - 1/2; at d=2 these are the spin matrices."""
    terms = []
    for j, k, coupling in spec.edges:
        terms += [(-0.5 * coupling, ((j, ops.hp_sp), (k, ops.a))),
                  (-0.5 * coupling, ((j, ops.a), (k, ops.hp_sp))),
                  (-coupling, ((j, ops.hp_sz), (k, ops.hp_sz)))]
    return terms + _field_terms(spec, ops.hp_sz)


def build_h_spin(spec: SpinModelSpec) -> SparseOperator:
    """Heisenberg Hamiltonian on the 2^N spin space,
    -sum_{j<k} J_jk ((S+_j S-_k + S-_j S+_k)/2 + S^z_j S^z_k) + sum_j h_j S^z_j.

    On two levels the DM encoding is the spin model, so this shares its terms."""
    if spec.n_sites > MAX_SPIN_SITES:
        raise InvalidSpecError(f"spin builder limited to {MAX_SPIN_SITES} sites")
    return assemble(FockBasis(spec.n_sites, 2), _dm_terms(spec, local_ops(2)))


def build_h_ebh(spec: SpinModelSpec, basis: FockBasis) -> SparseOperator:
    """Bosonic image of the spin model: extended Bose-Hubbard Hamiltonian with
    occupation-dependent hopping,

        -sum_{j<k} (J/2) (a+_j a_k - a+_j (n_j + n_k) a_k + h.c.)
        -sum_{j<k} J (n_j - 1/2)(n_k - 1/2) + sum_j h_j (n_j - 1/2).

    The correlated hopping cancels every matrix element out of the hard-core
    subspace, which stays exactly invariant at any local cutoff."""
    if basis.n_sites != spec.n_sites:
        raise InvalidSpecError("basis and spec disagree on the number of sites")
    ops = local_ops(basis.local_dim)
    terms = []
    for j, k, coupling in spec.edges:
        terms += _plus_adjoints([
            (-0.5 * coupling, ((j, ops.adag), (k, ops.a))),
            (0.5 * coupling, ((j, ops.adag), (j, ops.n), (k, ops.a))),
            (0.5 * coupling, ((j, ops.adag), (k, ops.n), (k, ops.a))),
        ])
        terms.append((-coupling, ((j, ops.hp_sz), (k, ops.hp_sz))))
    return assemble(basis, terms + _field_terms(spec, ops.hp_sz))


def build_h_dm(spec: SpinModelSpec, basis: FockBasis) -> SparseOperator:
    """Alternative boson encoding with S- mapped to a bare annihilator.

    Non-Hermitian whenever the cutoff exceeds 2 and any coupling is nonzero;
    on the hard-core subspace it agrees with the symmetric encoding."""
    if basis.n_sites != spec.n_sites:
        raise InvalidSpecError("basis and spec disagree on the number of sites")
    return assemble(basis, _dm_terms(spec, local_ops(basis.local_dim)))


def build_h_jja(params: "JJAParams", basis: FockBasis, variant: str = "simplified") -> SparseOperator:
    """Rotating-wave Hamiltonian of the Josephson-junction array.

    Per site: (omega + delta_omega - delta_tilde) n, and for the full variant
    the on-site anharmonicity (delta_omega/2) a+ a+ a a.  Per interior link:
    linear hopping t (a+_j a_{j+1} + h.c.), cross-Kerr -Delta n_j n_{j+1},
    correlated hopping T (a+_j n_j a_{j+1} + h.c.) + T' (a+_j n_{j+1} a_{j+1}
    + h.c.), and for the full variant the pair hopping
    -(Delta/4) (a_{j+1}^2 (a+_j)^2 + h.c.).

    At cutoff 2 the anharmonic and pair-hopping terms vanish identically, so
    both variants produce the same matrix.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if params.n_sites != basis.n_sites:
        raise InvalidSpecError("params and basis disagree on the number of sites")
    ops = local_ops(basis.local_dim)
    a, ad, n = ops.a, ops.adag, ops.n
    full = variant == "full"
    terms = []
    for s in range(basis.n_sites):
        terms.append((params.omega[s] + params.delta_omega[s] - params.delta_tilde[s], ((s, n),)))
        if full:
            terms.append((params.delta_omega[s] / 2.0, ((s, ad), (s, ad), (s, a), (s, a))))
    for j in range(basis.n_sites - 1):
        k = j + 1
        terms.append((-params.delta[j], ((j, n), (k, n))))
        hopping = [(params.t[j], ((j, ad), (k, a))),
                   (params.corr_t[j], ((j, ad), (j, n), (k, a))),
                   (params.corr_tp[j], ((j, ad), (k, n), (k, a)))]
        if full:
            hopping.append((-params.delta[j] / 4.0, ((k, a), (k, a), (j, ad), (j, ad))))
        terms += _plus_adjoints(hopping)
    return assemble(basis, terms)


OBSERVABLE_NAMES = ("sz1", "mx", "cxx")


def observable(name: str, sector: str, basis: FockBasis) -> SparseOperator:
    """Benchmark observables.

    sz1   z magnetization of the first site (boson: n_0 - 1/2)
    mx    mean x magnetization (boson: mean quadrature (a + a+)/2)
    cxx   x-x correlator of the first two sites

    On two levels n - 1/2 and (a + a+)/2 are S^z and S^x, so both sectors
    share the same local matrices.
    """
    if sector not in ("spin", "boson"):
        raise ValueError(f"unknown sector {sector!r}")
    if sector == "spin" and basis.local_dim != 2:
        raise ValueError("spin sector requires local_dim = 2")
    ops = local_ops(basis.local_dim)
    x = 0.5 * (ops.a + ops.adag)
    if name == "sz1":
        terms = [(1.0, ((0, ops.hp_sz),))]
    elif name == "mx":
        terms = [(1.0 / basis.n_sites, ((s, x),)) for s in range(basis.n_sites)]
    elif name == "cxx":
        if basis.n_sites < 2:
            raise ValueError("cxx needs at least two sites")
        terms = [(1.0, ((0, x), (1, x)))]
    else:
        raise ValueError(f"unknown observable {name!r}; expected one of {OBSERVABLE_NAMES}")
    return assemble(basis, terms)
