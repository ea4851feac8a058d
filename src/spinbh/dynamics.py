"""Unitary time evolution and expectation-value recording.

Energies are ordinary frequencies nu = E/(2*pi*hbar) in MHz and times are in
us, so MHz * us = 1 and the propagated phase is exp(-i * 2*pi * nu * t).
H splits into the connected blocks of its sparsity pattern (the symmetry
sectors, such as fixed particle number, found without naming them), and a
state never leaves the union S of the blocks psi0 touches.
Propagators only propagate: each yields blocks of state columns, one column
per output time, in grid order.  The dense one takes the uniform grid as its
spacing and point count, diagonalizes every block of H it is handed and yields
columns 512 at a time (fewer past 4096 states, so a column block stays within
32 MB; best up to a few thousand states per H block), phased from two small
cos/sin tables.  A block with no imaginary stored value takes a real ``eigh``
and one real product per chunk; blocks whose eigenvectors and work arrays
would pass ``MAX_RUN_BYTES`` are refused before any is formed.  The
recorder reads each yielded block 64 columns at a time, and no block
outlives its recording, so one chunk is alive besides 64-column
temporaries.  The Lanczos one takes any target times and works in windows:
one basis of ``KRYLOV_DIM`` vectors, built at the last accepted time, serves
every following grid point whose error bound (Expokit's a-posteriori bound,
evaluated for many times at once) is within ``STEP_TOLERANCE``.  A block
never holds more than ``KRYLOV_DIM`` columns, so memory stays at two
basis-sized arrays.  When not even the next grid point fits, the window
halves a substep inside that interval until one fits.  It propagates
H - diag(c), c_b the midpoint of block b's Gershgorin interval, and gives
each column back its per-block phase exp(-i*2*pi*c_b*t), exactly since H
stores no entry between blocks; so a window's reach is set by the spread
within a block, not by the offsets between blocks.
``evolve`` finds the blocks once, restricts H, psi0, the observables and Q
to S unless S is every state, picks the propagator and records every
block on S in one loop, so observables that couple blocks keep their
cross-block coherences; leakage is one more of them, <Q> of the diagonal
projector Q off the mask, unless Q stores no entry on S and the leakage is
exactly zero.  A real observable (each built one, and Q) takes one real
product.  ``auto`` runs Lanczos past ``DENSE_DIM_LIMIT`` states in S, or
when one basis covers the grid: when the largest shifted phase
2*pi*w*t_max, w the widest touched block's Gershgorin half-width about c_b,
is at most ``KRYLOV_DIM`` rad.  A basis of m vectors is a polynomial of
degree m - 1 in H, and the Chebyshev coefficients of exp(-i*phi*x) become
small only past degree phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import HermiticityError, InvalidSpecError, NumericalError
from .hilbert import outside
from .operators import SparseOperator

TWO_PI = 2.0 * np.pi
DENSE_DIM_LIMIT = 4096
NORM_TOL = 1e-9
IMAG_TOL = 1e-9
MAX_HALVINGS = 60
KRYLOV_DIM = 30
STEP_TOLERANCE = 1e-10  # error bound of a Krylov window at each time it serves
MAX_GRID_POINTS = 10**6  # per recorded series 8 MB, and one output row each
MAX_RUN_BYTES = 4 * 2**30  # peak memory a run may plan for
MAX_PHASE = 2.0**33  # rad; a float64 phase this large is known to about 1e-6 rad
_GRID_CHUNK = 512
# L: grid offsets in one dense phase table, which a chunk's width divides by,
# and the widest slice of columns the recorder reads at once
_PHASE_STRIDE = 64
# entries of one dense chunk: 512 columns up to DENSE_DIM_LIMIT, fewer beyond
_CHUNK_ENTRIES = _GRID_CHUNK * DENSE_DIM_LIMIT
METHODS = ("dense_eig", "krylov", "auto")


@dataclass(frozen=True)
class EvolutionConfig:
    """Output grid and propagator choice.

    ``n_steps`` counts grid points (at most ``MAX_GRID_POINTS``) on the inclusive grid [0, t_max];
    ``method`` is one of dense_eig, krylov, auto.  ``auto`` runs Lanczos when
    the blocks of H that the initial state touches hold more than 4096
    states, or when the largest phase the per-block shifted Lanczos must
    resolve over the grid is at most ``KRYLOV_DIM`` rad; otherwise dense.
    """

    t_max: float
    n_steps: int = 2000
    method: str = "auto"

    def __post_init__(self):
        problems = [] if 0 < self.t_max < np.inf else [
            f"t_max must be positive and finite, got {self.t_max}"]
        if not 2 <= self.n_steps <= MAX_GRID_POINTS:
            problems.append(f"n_steps must be in [2, {MAX_GRID_POINTS}], got {self.n_steps}")
        if self.method not in METHODS:
            problems.append(f"method must be one of {METHODS}, got {self.method!r}")
        if problems:
            raise InvalidSpecError("; ".join(problems))

    def resolve_method(self, dim: int, phase: float = np.inf) -> str:
        """The method for ``dim`` touched states whose shifted Lanczos must
        resolve a phase of at most ``phase`` rad (unknown by default)."""
        if self.method != "auto":
            return self.method
        return "krylov" if dim > DENSE_DIM_LIMIT or phase <= KRYLOV_DIM else "dense_eig"


@dataclass
class Trajectory:
    """Time grid plus recorded real expectation values and diagnostics."""

    times: np.ndarray
    values: dict[str, np.ndarray]
    leakage: np.ndarray | None = None
    max_imag: float = 0.0
    max_norm_deviation: float = 0.0
    hamiltonian_label: str = ""


def _check_observable(op: SparseOperator, dim: int, name: str) -> None:
    if op.dim != dim:
        raise ValueError(f"{name} has dim {op.dim}, expected {dim}")
    if not op.hermitian:
        raise HermiticityError(f"{name} is not Hermitian")


def _expect_cols(matrix, cols: np.ndarray, bras: np.ndarray) -> tuple[np.ndarray, float]:
    """Real <psi|O|psi> of every column psi, and the largest |imaginary part|;
    ``bras`` is ``cols.conj()``, taken once per block by the caller.  A real
    ``matrix`` takes one real product on the interleaved parts of ``cols``,
    equal to the complex product bit for bit."""
    applied = (matrix @ cols.view(float)).view(complex) if np.isrealobj(matrix) else matrix @ cols
    raw = np.einsum("ij,ij->j", bras, applied)
    if not np.isfinite(raw).all():
        raise NumericalError("expectation value is not finite")
    imag = float(np.max(np.abs(raw.imag)))
    if not imag < IMAG_TOL:
        raise NumericalError(f"expectation imaginary part reached {imag:.3e}")
    return raw.real, imag


def _phased(evals: np.ndarray, dts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights[k] * exp(-i*2*pi*evals[k]*dt) at row k and column dt, fresh and C-ordered."""
    arg = -TWO_PI * np.outer(evals, dts)
    z = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=z.real)
    np.sin(arg, out=z.imag)
    z *= weights[:, None]
    return z


def _lanczos(matvec, v: np.ndarray, m: int):
    """Krylov basis of v of at most m vectors, and the propagator it gives.

    Returns (vecs, propagate).  ``vecs`` holds the orthonormal basis as rows.
    ``propagate(dts)`` returns the basis coefficients of exp(-i*2*pi*H*dt) v,
    one column per dt, from the exponential of the projected tridiagonal T,
    and each column's error bound: the weight it puts on the last basis
    vector times the next off-diagonal (0 when the space is invariant, which
    makes every propagation exact), 2*pi*dt and |v|.  Short Lanczos recurrence
    with full reorthogonalization.
    """
    nrm = np.linalg.norm(v)
    dim = v.shape[0]
    m = min(m, dim)
    vecs = np.empty((m, dim), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(max(m - 1, 1))  # beta[k] couples vecs[k] to vecs[k+1]
    vecs[0] = v / nrm
    k_used = m
    beta_next = 0.0
    for k in range(m):
        w = matvec(vecs[k])
        alpha[k] = np.vdot(vecs[k], w).real
        # full reorthogonalization keeps the basis numerically orthonormal
        # (conj(V) w = conj(V conj(w)) spares a copy of the basis)
        w -= vecs[: k + 1].T @ (vecs[: k + 1] @ w.conj()).conj()
        w -= vecs[: k + 1].T @ (vecs[: k + 1] @ w.conj()).conj()
        b = np.linalg.norm(w)
        if k + 1 == m:
            beta_next = b
            break
        if b < 1e-14 * nrm:
            k_used = k + 1  # invariant subspace reached: propagation is exact
            break
        beta[k] = b
        vecs[k + 1] = w / b
    if not (np.isfinite(alpha[:k_used]).all() and np.isfinite(beta[: k_used - 1]).all()):
        raise NumericalError("Lanczos coefficients are not finite")
    evals, evecs = sla.eigh_tridiagonal(alpha[:k_used], beta[: k_used - 1])

    def propagate(dts: np.ndarray):
        coeffs = nrm * (evecs @ _phased(evals, dts, evecs[0]))
        return coeffs, beta_next * np.abs(coeffs[-1]) * np.abs(TWO_PI * dts)

    return vecs[:k_used], propagate


def _krylov_blocks(matrix, psi0, times, shift):
    """Blocks of up to ``KRYLOV_DIM`` columns from Lanczos windows.

    Lanczos propagates H - diag(shift), where ``shift`` is constant on each
    connected block of H, so diag(shift) commutes with H; each yielded column
    then takes back its per-block phase exp(-i*2*pi*shift*(t - times[0])).
    The windows carry the shifted-frame state from one to the next.
    A window is one basis, built at the last accepted time t0.  It serves the
    longest run of following grid points whose error bound is within
    ``STEP_TOLERANCE``, ``KRYLOV_DIM`` columns per block, and the next window
    starts at the last of them.  A window that cannot reach even the next
    grid point takes the longest substep (interval / 2**k, k <=
    ``MAX_HALVINGS``) that fits and moves t0 there without yielding.
    """
    matvec = lambda x: matrix @ x - shift * x
    levels, level_of = np.unique(shift, return_inverse=True)  # one phase per block and time
    ones = np.ones(len(levels))
    cur, t0, idx = psi0, times[0], 1
    yield cur[:, None]
    while idx < len(times):
        vecs, propagate = _lanczos(matvec, cur, KRYLOV_DIM)
        first = idx
        while idx < len(times):
            targets = times[idx : idx + KRYLOV_DIM]
            coeffs, err = propagate(targets - t0)
            fits = err <= STEP_TOLERANCE  # NaN never fits
            n = len(fits) if fits.all() else int(np.argmin(fits))
            if n:
                cols = vecs.T @ coeffs[:, :n]
                yield cols * _phased(levels, targets[:n] - times[0], ones)[level_of]
                cur, idx = cols[:, -1], idx + n
            if n < len(fits):
                break
        if idx > first:
            cur, t0 = cur.copy(), times[idx - 1]  # a view would pin the whole block
            continue
        dts = (times[idx] - t0) * 0.5 ** np.arange(1, MAX_HALVINGS + 1)
        coeffs, err = propagate(dts)
        fits = err <= STEP_TOLERANCE
        if not fits.any():
            raise NumericalError(
                f"Krylov step at t={t0:.6g} failed after {MAX_HALVINGS} halvings "
                f"(err={err[-1]:.3e})"
            )
        k = int(np.argmax(fits))
        cur, t0 = vecs.T @ coeffs[:, k], t0 + dts[k]


def _components(matrix) -> np.ndarray:
    """Label of every state's weakly connected component in the sparsity pattern."""
    from scipy.sparse.csgraph import connected_components  # kept out of the import time

    csr = matrix.tocsr()
    # the pattern, not the values: a complex-to-real cast would drop imaginary hoppings
    pattern = sp.csr_matrix((np.ones(len(csr.indices)), csr.indices, csr.indptr), shape=csr.shape)
    return connected_components(pattern, directed=False)[1]


def _block_centers(diag, row_sums, labels):
    """Per state, the midpoint c_b of its block's Gershgorin interval (which
    holds every eigenvalue of the block), and the largest half-width of those
    intervals; ``row_sums`` are the rows' absolute sums, diagonal included."""
    radius = row_sums - np.abs(diag)
    lo, hi = np.full(labels.max() + 1, np.inf), np.full(labels.max() + 1, -np.inf)
    np.minimum.at(lo, labels, diag - radius)
    np.maximum.at(hi, labels, diag + radius)  # a label absent here keeps hi - lo = -inf
    return (lo[labels] + hi[labels]) / 2, float(np.max(hi - lo)) / 2


def _dense_blocks(matrix, psi0, labels, dt, n_points):
    """Column blocks of up to 512 columns (and ``_CHUNK_ENTRIES`` entries) from
    the spectral decomposition of every connected block of H, the states that
    share a label, at the times k*dt for k < n_points.

    Every state lies in one block, so each column is assembled block by block.
    The phase at k = q*L + r is the product of the phases at q*L, tabulated
    per chunk, and at r < L, tabulated once per block; so each eigenvalue
    takes about L + n_points/L cos/sin pairs, not n_points.  No chunk or
    phase array of one chunk is held while the next is formed.
    """
    csr = matrix.tocsr()  # sliceable even when the matrix only forwards attributes
    blocks = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    subs = [s if s.data.imag.any() else s.real for s in (csr[i][:, i] for i in blocks)]
    size = max(sub.shape[0] for sub in subs)
    # kept eigenvectors + 32 B per entry of the largest block (its array, evr's copy or evd's work)
    need = sum(sub.dtype.itemsize * sub.shape[0] ** 2 for sub in subs) + 32 * size**2
    if need > MAX_RUN_BYTES:
        raise InvalidSpecError(
            f"dense_eig would diagonalize a block of {size} states ({need / 2**30:.3g} GiB), "
            f"past the budget of {MAX_RUN_BYTES // 2**30} GiB; use method auto or krylov")
    step = min(_GRID_CHUNK, max(1, _CHUNK_ENTRIES // len(psi0)))
    stride = min(_PHASE_STRIDE, step)
    step -= step % stride  # chunks start at multiples of L; rounding down keeps _CHUNK_ENTRIES
    offsets = dt * np.arange(stride)
    spectra = []
    for idx, sub in zip(blocks, subs):
        evals, evecs = sla.eigh(sub.toarray(), driver="evd" if np.isrealobj(sub) else None)
        inner = _phased(evals, offsets, np.ones(len(evals)))
        spectra.append((idx, evals, evecs, evecs.conj().T @ psi0[idx], inner))
    for start in range(0, n_points, step):
        width = min(step, n_points - start)
        strides = dt * np.arange(start, start + width, stride)
        cols = np.empty((len(psi0), width), dtype=complex)
        for idx, evals, evecs, w0, inner in spectra:
            outer = _phased(evals, strides, w0)
            z = (outer[:, :, None] * inner[:, None, :]).reshape(len(evals), -1)[:, :width]
            # a real evecs takes one real product on z's parts
            cols[idx] = (evecs @ z.view(float)).view(complex) if np.isrealobj(evecs) else evecs @ z
        del z  # the last block's phases, as large as its share of the chunk
        yield cols
        del cols  # the next chunk is allocated with no other alive


def evolve(
    h: SparseOperator,
    psi0: np.ndarray,
    cfg: EvolutionConfig,
    observables: dict[str, SparseOperator],
    leakage_mask=None,
    hamiltonian_label: str = "",
) -> Trajectory:
    """Evolve psi0, a complex array of length ``h.dim``, under exp(-i*2*pi*H*t)
    and record observables on the grid; with ``leakage_mask``, also <Q> off
    the mask as ``Trajectory.leakage``.

    ``auto`` resolves on |S|, the states of the blocks of H that psi0
    touches, and on the widest touched block's Gershgorin half-width; both
    propagators run with H, psi0, the observables and Q restricted to S,
    which is exact because every state vanishes off S.  Each block of
    columns a propagator yields is recorded from contiguous copies of at
    most 64 columns, and released before the next block is formed.

    Non-Hermitian generators are refused; project them onto an invariant
    subspace first.  A grid whose largest phase 2*pi*rho*t_max is finite but
    past ``MAX_PHASE`` raises InvalidSpecError, where rho, the largest absolute
    row sum of H's stored values, bounds every |E|.  A psi0 whose norm is not 1,
    non-finite expectations or norms, norm drift beyond 1e-9 and expectation
    imaginary parts beyond 1e-9 raise NumericalError rather than being
    silently discarded.
    """
    if not h.hermitian:
        raise HermiticityError("evolution requires a Hermitian Hamiltonian")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.dim,):
        raise ValueError(f"state shape {psi0.shape} does not match Hamiltonian dim {h.dim}")
    for name, op in observables.items():
        _check_observable(op, h.dim, f"observable {name!r}")
    q = None if leakage_mask is None else outside(h.dim, leakage_mask)
    dev = abs(np.linalg.norm(psi0) - 1.0)
    if not dev < NORM_TOL:  # NaN fails too, and a zero psi0 touches no state
        raise NumericalError(f"initial state norm is off by {dev:.3e}")
    csr = h.matrix.tocsr()
    row_sums = np.asarray(sp.csr_matrix((np.abs(csr.data), csr.indices, csr.indptr),
                                        shape=csr.shape).sum(1)).ravel()
    rho = float(row_sums.max())
    phase = TWO_PI * rho * cfg.t_max
    if MAX_PHASE < phase < np.inf:  # an overflowing one fails the non-finite checks below
        raise InvalidSpecError(
            f"t_max = {cfg.t_max:.6g} us reaches a phase of {phase:.3g} rad "
            f"(|E| <= {rho:.6g} MHz), past the {MAX_PHASE:.3g} rad within which "
            "a float64 phase is known to 1e-6 rad")
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    labels = _components(csr)
    support = np.flatnonzero(np.isin(labels, labels[psi0 != 0]))
    matrix = h.matrix  # unsliced when S is every state, so a wrapper sees each product
    recorded = {name: op.matrix for name, op in observables.items()}
    if len(support) < h.dim:
        restrict = lambda m: m.tocsr()[support][:, support]
        csr = matrix = restrict(csr)
        psi0, labels, row_sums = psi0[support], labels[support], row_sums[support]
        recorded = {name: restrict(m) for name, m in recorded.items()}
        q = None if q is None else q[support]
    shift, width = _block_centers(csr.diagonal().real, row_sums, labels)
    if cfg.resolve_method(len(support), TWO_PI * width * cfg.t_max) == "dense_eig":
        blocks = _dense_blocks(matrix, psi0, labels, cfg.t_max / (cfg.n_steps - 1), cfg.n_steps)
    else:
        blocks = _krylov_blocks(matrix, psi0, times, shift)
    leak = None
    if q is not None:
        if q.any():  # Q under a key that names no observable
            recorded[None] = sp.diags(q, format="csr")
        else:  # nothing recorded can leave the mask
            leak = np.zeros(len(times))
    values = {name: np.empty(len(times)) for name in recorded}
    max_imag = max_norm_dev = 0.0
    start = 0
    for block in blocks:
        # 64 columns at a time keeps the temporaries small; each column's
        # values do not depend on its neighbours, and the products run faster
        # on a contiguous copy than on a strided view
        for lo in range(0, block.shape[1], _PHASE_STRIDE):
            cols = np.ascontiguousarray(block[:, lo : lo + _PHASE_STRIDE])
            stop = start + cols.shape[1]
            bras = cols.conj()
            for name, matrix in recorded.items():
                values[name][start:stop], imag = _expect_cols(matrix, cols, bras)
                max_imag = max(max_imag, imag)
            norms = np.sqrt(np.einsum("ij,ij->j", bras, cols).real)
            dev = float(np.max(np.abs(norms - 1.0)))
            if not dev < NORM_TOL:  # NaN fails too
                raise NumericalError(f"norm drifted by {dev:.3e}")
            max_norm_dev = max(max_norm_dev, dev)
            start = stop
        del block, cols, bras  # so the propagator forms the next block with none alive
    return Trajectory(
        times=times,
        leakage=values.pop(None, leak),
        values=values,
        max_imag=max_imag,
        max_norm_deviation=max_norm_dev,
        hamiltonian_label=hamiltonian_label,
    )
