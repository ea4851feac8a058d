"""Sparse Hamiltonians and observables, written as term lists.

A term ``(coeff, ((site, local), ...))`` is coeff times the product of its
site-local d x d factors.  Factors apply right to left, exactly as
composition of linear maps; several may sit on one site, and no
normal-ordering rewrites are performed.

``assemble`` multiplies each term's factors site by site (factors on
different sites commute), takes the Kronecker product of the per-site
products as a small dense block on the term's sorted site support, and sums
the blocks that share a support.  It applies every support's block to the
basis states by digit arithmetic: a state is ``rest + offset[c]``, with ``c``
its digits on the support and ``offset`` placing block digits at the support
sites (first site least significant), and block entry (r, c) shifts it to
``rest + offset[r]``.  (On the full basis ``rest`` simply runs over every
occupation off the support, one support at a time.)  Two supports meet at a
matrix entry exactly when they shift one source state by the same amount, so
an output at a shift that one support alone makes is an entry of its own, and
the others are summed in one pass per (source, shift), from +0 in support
order.  That is the sum a running sparse sum over the supports makes, -0.0
parts turned +0.0 and exact zeros dropped, so every entry equals it bit for
bit.  The targets are then ranked among the basis states by ``searchsorted``.
A target outside the basis is an entry of Q H P for the basis projector P; of
those the operator keeps only the largest |value|, as ``dropped``.

``closure`` finds, by breadth-first search over the same block applications,
the states that terms reach from a set of seed states: the smallest basis
the operator never leaves, found from its own pattern, not from a named
conservation law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .errors import InvalidSpecError
from .hilbert import FockBasis, check_sector, site_offsets
from .model import SpinModelSpec

if TYPE_CHECKING:
    from .mapping import JJAParams

DROP_THRESHOLD = 1e-15
HERMITIAN_TOL = 1e-12
MAX_SPIN_STATES = 2**24
MAX_CUTOFF = 64  # a pair term's dense d**4 block stays within 268 MB
VARIANTS = ("simplified", "full")


@dataclass(frozen=True)
class SparseOperator:
    """Compressed-row matrix with a measured (never assumed) hermitian flag,
    |M - M^H| <= HERMITIAN_TOL * max |M|; complex, except the real observables.
    ``dropped`` is the largest |entry| that leaves the basis it was built on,
    0.0 on the full space."""

    matrix: sp.csr_matrix
    hermitian: bool
    dropped: float = 0.0

    @classmethod
    def from_matrix(cls, matrix) -> "SparseOperator":
        """Operator of a copy of ``matrix``, which is left as it was."""
        return cls._owning(sp.csr_matrix(matrix, dtype=complex, copy=True))

    @classmethod
    def _owning(cls, m: sp.csr_matrix, dropped: float = 0.0) -> "SparseOperator":
        """Operator that takes over the complex CSR ``m``, edited in place."""
        m.sum_duplicates()
        if m.nnz:
            m.data[np.abs(m.data) <= DROP_THRESHOLD] = 0.0
        m.eliminate_zeros()
        m.sort_indices()
        dev = hermiticity_deviation(m)
        scale = np.max(np.abs(m.data), initial=0.0)
        return cls(matrix=m, hermitian=bool(dev <= HERMITIAN_TOL * scale), dropped=dropped)

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
        raise InvalidSpecError(f"local dimension must be >= 2, got {d}")
    if d > MAX_CUTOFF:
        raise InvalidSpecError(f"local dimension {d} exceeds the limit of {MAX_CUTOFF} levels per site")
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


def _blocks(basis: FockBasis, terms) -> dict[tuple[int, ...], np.ndarray]:
    """Dense block of every distinct support: the sum of its terms' products."""
    d, n_sites = basis.local_dim, basis.n_sites
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for coeff, factors in terms:
        per_site: dict[int, np.ndarray] = {}  # factors on different sites commute
        for site, local in factors:
            local = np.asarray(local, dtype=complex)
            if local.shape != (d, d):
                raise ValueError(f"local operator must be {d}x{d}, got {local.shape}")
            if not 0 <= site < n_sites:
                raise ValueError(f"site {site} outside [0, {n_sites})")
            per_site[site] = per_site[site] @ local if site in per_site else local
        support = tuple(sorted(per_site))
        block = per_site[support[0]] if support else np.ones((1, 1), dtype=complex)
        for site in support[1:]:  # the first site ends up least significant, as np.kron puts it
            local = per_site[site]
            block = (local[:, None, :, None] * block[None, :, None, :]).reshape(
                len(local) * len(block), -1)
        # from +0.0, as a running sum's 0 + v: a block holds no -0.0 part
        blocks[support] = coeff * block + blocks.get(support, 0.0)
    return blocks


def _entries(basis: FockBasis, blocks: dict) -> tuple:
    """The nonzero entries of ``blocks`` (support -> block) column by column:
    (sites, first, shift, values, source).  Row i of ``sites`` lists the i-th
    support, padded with N (a site whose digit is 0).  With w the widest
    support, column c of the i-th block is column i * d**w + c; its entries
    are first[col] to first[col + 1], each moving a state by ``shift``, and
    ``source`` is the full-space index of c's digits on the support."""
    d = basis.local_dim
    width = max(map(len, blocks), default=0)
    sites = np.full((len(blocks), width), basis.n_sites)
    none = np.zeros(0, dtype=np.int64)  # no block: no entry
    ends, shifts, values, sources = [np.zeros(1, dtype=np.int64)], [none], [none + 0j], [none]
    for i, (support, block) in enumerate(blocks.items()):
        sites[i, : len(support)] = support
        c, r = np.nonzero(block.T)
        offsets = site_offsets(d, support)
        ends.append(ends[-1][-1] + np.searchsorted(c, np.arange(1, d**width + 1)))
        shifts.append(offsets[r] - offsets[c])
        values.append(block[r, c])
        sources.append(offsets[c])
    return sites, *map(np.concatenate, (ends, shifts, values, sources))


def _applied(basis: FockBasis, entries: tuple, states: np.ndarray | None, step: int = 1024):
    """Every entry of ``entries`` (see ``_entries``) applied to the full-space
    ``states``, in batches: (position of each output's source in ``states``,
    the output's entry), arrays that broadcast together.  The outputs of one
    source at one shift come in support order.  ``states`` None is all d**N
    states, one support per batch; else ``step`` states per batch."""
    sites, first, source = entries[0], entries[1], entries[4]
    d, (n_blocks, width) = basis.local_dim, sites.shape
    if states is None:  # each entry at every occupation of the other sites
        for i, support in enumerate(sites.tolist()):
            k = np.arange(first[i * d**width], first[(i + 1) * d**width])
            rest = site_offsets(d, sorted(set(range(basis.n_sites)) - set(support)))
            yield rest[:, None] + source[k], k
        return
    for lo in range(0, len(states), step):
        chunk = states[lo : lo + step]
        digits = np.zeros((len(chunk), basis.n_sites + 1), dtype=np.int64)  # site N stays 0
        digits[:, :-1] = chunk[:, None] // d ** np.arange(basis.n_sites) % d
        cols = np.tile(d**width * np.arange(n_blocks), (len(chunk), 1))  # state by block
        for i in range(width):
            cols += digits[:, sites[:, i]] * d**i
        cols = cols.ravel()
        counts = first[cols + 1] - first[cols]
        # an output's entry: its column's first, plus its rank among the column's outputs
        k = np.repeat(first[cols] - np.cumsum(counts) + counts, counts)
        k += np.arange(len(k))
        yield np.repeat(np.arange(lo, lo + len(chunk)).repeat(n_blocks), counts), k


def assemble(basis: FockBasis, terms) -> SparseOperator:
    """Sum of ``coeff * factor_1 @ factor_2 @ ...`` over ``terms`` on the basis
    states, with the largest entry leaving them as ``dropped``."""
    blocks = _blocks(basis, terms)
    sites, first, shift, values, _ = entries = _entries(basis, blocks)
    # An output at a shift that one support alone makes is a matrix entry of its
    # own.  Outputs at a shift that several supports make are summed in ``sums``
    # per (source, shift), from +0 in support order: np.add.at adds in index order.
    block = np.repeat(np.arange(len(blocks)), np.diff(first[:: basis.local_dim ** sites.shape[1]]))
    made, makers = np.unique(np.unique(shift * len(blocks) + block) // max(len(blocks), 1), return_counts=True)
    summed = made[makers > 1]
    slot, shared, width = np.searchsorted(summed, shift), np.isin(shift, summed), max(summed.size, 1)
    sums = np.zeros(basis.dim * width, dtype=complex)
    cols, moves, data = [], [], []
    for src, k in _applied(basis, entries, basis.states):
        on = shared[k]
        into = src[..., on] * width + slot[k[on]]
        np.add.at(sums, into.ravel(), np.broadcast_to(values[k[on]], into.shape).ravel())
        src, k = src[..., ~on], k[~on]
        cols.append(src.ravel())
        moves.append(np.broadcast_to(shift[k], src.shape).ravel())
        data.append(np.broadcast_to(values[k], src.shape).ravel())
    hit = np.flatnonzero(sums != 0)  # an exact zero is no entry, as in a sparse sum
    cols, targets = np.concatenate(cols + [hit // width]), np.concatenate(moves + [summed[hit % width]])
    targets += cols if basis.states is None else basis.states[cols]
    data = np.concatenate(data + [sums[hit]])
    rows = basis.rank(targets)
    kept = rows >= 0
    leaving = np.abs(data[~kept])
    dropped = float(np.max(leaving[leaving > DROP_THRESHOLD], initial=0.0))
    if not kept.all():
        data, rows, cols = data[kept], rows[kept], cols[kept]
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(basis.dim,) * 2)
    del sums, cols, targets, moves, data, rows, kept  # the hermiticity check needs the memory
    return SparseOperator._owning(matrix, dropped)


def closure(basis: FockBasis, terms, seeds) -> FockBasis:
    """Basis of the states that ``terms`` reach from ``seeds``, full-space
    indices of N sites at local dimension d, both read from ``basis``.
    Breadth-first: each round applies every support's nonzero entries to the
    states the previous round reached first, 4096 of them at a time."""
    entries = _entries(basis, _blocks(basis, terms))
    reached = frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    while frontier.size and reached.size < basis.full_dim:
        targets = np.unique(np.concatenate(
            [frontier[src] + entries[2][k] for src, k in _applied(basis, entries, frontier, 4096)]))
        pos = np.searchsorted(reached, targets)
        new = reached[np.minimum(pos, reached.size - 1)] != targets
        frontier = targets[new]
        reached = np.insert(reached, pos[new], frontier)  # stays sorted
    return FockBasis(basis.n_sites, basis.local_dim, reached)


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


def spin_terms(spec: SpinModelSpec):
    """Terms of ``build_h_spin``: on two levels the DM encoding is the spin model."""
    return _dm_terms(spec, local_ops(2))


def build_h_spin(spec: SpinModelSpec, basis: FockBasis | None = None) -> SparseOperator:
    """Heisenberg Hamiltonian on the spin states of ``basis`` (all 2^N by default,
    at most ``MAX_SPIN_STATES``),
    -sum_{j<k} J_jk ((S+_j S-_k + S-_j S+_k)/2 + S^z_j S^z_k) + sum_j h_j S^z_j."""
    basis = FockBasis(spec.n_sites, 2) if basis is None else basis  # O(1) to make
    if (basis.n_sites, basis.local_dim) != (spec.n_sites, 2):
        raise InvalidSpecError(f"spin builder needs {spec.n_sites} sites at local dimension 2, "
                               f"got {basis.n_sites} at {basis.local_dim}")
    if basis.dim > MAX_SPIN_STATES:
        raise InvalidSpecError(f"spin builder limited to {MAX_SPIN_STATES} states, got {basis.dim}")
    return assemble(basis, spin_terms(spec))


def ebh_terms(spec: SpinModelSpec, local_dim: int):
    """Terms of ``build_h_ebh`` at local dimension ``local_dim``."""
    ops = local_ops(local_dim)
    terms = []
    for j, k, coupling in spec.edges:
        terms += _plus_adjoints([
            (-0.5 * coupling, ((j, ops.adag), (k, ops.a))),
            (0.5 * coupling, ((j, ops.adag), (j, ops.n), (k, ops.a))),
            (0.5 * coupling, ((j, ops.adag), (k, ops.n), (k, ops.a))),
        ])
        terms.append((-coupling, ((j, ops.hp_sz), (k, ops.hp_sz))))
    return terms + _field_terms(spec, ops.hp_sz)


def build_h_ebh(spec: SpinModelSpec, basis: FockBasis) -> SparseOperator:
    """Bosonic image of the spin model: extended Bose-Hubbard Hamiltonian with
    occupation-dependent hopping,

        -sum_{j<k} (J/2) (a+_j a_k - a+_j (n_j + n_k) a_k + h.c.)
        -sum_{j<k} J (n_j - 1/2)(n_k - 1/2) + sum_j h_j (n_j - 1/2).

    The correlated hopping cancels every matrix element out of the hard-core
    subspace, which stays exactly invariant at any local cutoff."""
    if basis.n_sites != spec.n_sites:
        raise InvalidSpecError("basis and spec disagree on the number of sites")
    return assemble(basis, ebh_terms(spec, basis.local_dim))


def build_h_dm(spec: SpinModelSpec, basis: FockBasis) -> SparseOperator:
    """Alternative boson encoding with S- mapped to a bare annihilator.

    Non-Hermitian whenever the cutoff exceeds 2 and any coupling is nonzero;
    on the hard-core subspace it agrees with the symmetric encoding."""
    if basis.n_sites != spec.n_sites:
        raise InvalidSpecError("basis and spec disagree on the number of sites")
    return assemble(basis, _dm_terms(spec, local_ops(basis.local_dim)))


def full_variant(variant: str) -> bool:
    """Whether ``variant`` of ``build_h_jja`` adds the anharmonic and pair-hopping terms."""
    if variant not in VARIANTS:
        raise InvalidSpecError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant == "full"


def jja_terms(params: "JJAParams", local_dim: int, variant: str = "simplified"):
    """Terms of ``build_h_jja`` at local dimension ``local_dim``."""
    full = full_variant(variant)
    ops = local_ops(local_dim)
    a, ad, n = ops.a, ops.adag, ops.n
    terms = []
    for s in range(params.n_sites):
        terms.append((params.omega[s] + params.delta_omega[s] - params.delta_tilde[s], ((s, n),)))
        if full:
            terms.append((params.delta_omega[s] / 2.0, ((s, ad), (s, ad), (s, a), (s, a))))
    for j in range(params.n_sites - 1):
        k = j + 1
        terms.append((-params.delta[j], ((j, n), (k, n))))
        hopping = [(params.t[j], ((j, ad), (k, a))),
                   (params.corr_t[j], ((j, ad), (j, n), (k, a))),
                   (params.corr_tp[j], ((j, ad), (k, n), (k, a)))]
        if full:
            hopping.append((-params.delta[j] / 4.0, ((k, a), (k, a), (j, ad), (j, ad))))
        terms += _plus_adjoints(hopping)
    return terms


def build_h_jja(params: "JJAParams", basis: FockBasis,
                variant: str = "simplified") -> SparseOperator:
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
    if params.n_sites != basis.n_sites:
        raise InvalidSpecError("params and basis disagree on the number of sites")
    return assemble(basis, jja_terms(params, basis.local_dim, variant))


OBSERVABLE_NAMES = ("sz1", "mx", "cxx")


def observable_terms(name: str, n_sites: int, local_dim: int):
    """Terms of ``observable`` at local dimension ``local_dim``."""
    if name not in OBSERVABLE_NAMES:
        raise InvalidSpecError(f"unknown observable {name!r}; expected one of {OBSERVABLE_NAMES}")
    if name == "cxx" and n_sites < 2:
        raise InvalidSpecError("cxx needs at least two sites")
    ops = local_ops(local_dim)
    x = 0.5 * (ops.a + ops.adag)
    if name == "sz1":
        return [(1.0, ((0, ops.hp_sz),))]
    if name == "mx":
        return [(1.0 / n_sites, ((s, x),)) for s in range(n_sites)]
    return [(1.0, ((0, x), (1, x)))]


def observable(name: str, sector: str, basis: FockBasis) -> SparseOperator:
    """Benchmark observables.

    sz1   z magnetization of the first site (boson: n_0 - 1/2)
    mx    mean x magnetization (boson: mean quadrature (a + a+)/2)
    cxx   x-x correlator of the first two sites

    On two levels n - 1/2 and (a + a+)/2 are S^z and S^x, so both sectors
    share the same local matrices.  They are real, so the matrix is float64.
    """
    check_sector(basis, sector)
    op = assemble(basis, observable_terms(name, basis.n_sites, basis.local_dim))
    m = op.matrix  # csr.real would keep a strided data view, copied by every product
    real = sp.csr_matrix((np.ascontiguousarray(m.data.real), m.indices, m.indptr), shape=m.shape)
    return replace(op, matrix=real)
