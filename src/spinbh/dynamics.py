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
cos/sin tables into one phase array per run.  A block with no imaginary
stored value takes a real ``eigh`` and one real product per chunk, written
straight into the chunk when that block is S; blocks whose eigenvectors and
work arrays would pass ``MAX_RUN_BYTES`` are refused before any is formed;
one chunk is alive at a time.  The Lanczos one takes any target times and works in
windows: one basis of ``KRYLOV_DIM`` vectors, built at the last accepted
time, serves every following grid point whose error bound (Expokit's
a-posteriori bound, evaluated for many times at once) is within
``STEP_TOLERANCE``.  A block never holds more than ``KRYLOV_DIM`` columns,
so memory stays at two basis-sized arrays.  When not even the next grid
point fits, the window halves a substep inside that interval until one fits.
It propagates H - diag(c), c_b the midpoint of block b's Gershgorin interval,
and gives each column back its per-block phase exp(-i*2*pi*c_b*t), exactly
since H stores no entry between blocks; so a window's reach is set by the
spread within a block, not by the offsets between blocks.
``evolve`` finds the blocks once, restricts H, psi0, the observables and Q
to S unless S is every state, picks the propagator and records every state
on S in one loop, so observables that couple blocks keep their cross-block
coherences; leakage is one more of them, <Q> of the diagonal projector Q
off the mask, unless Q stores no entry on S and the leakage is exactly
zero.  A real observable (each built one, and Q) takes one real product on
columns.  ``auto`` runs Lanczos past ``DENSE_DIM_LIMIT`` states in S, or
when the largest shifted phase 2*pi*w*t_max, w the widest touched block's
Gershgorin half-width about c_b, is at most ``KRYLOV_DIM`` rad, which a few
bases cover.  A basis of m vectors is a polynomial of degree m - 1 in H, and
the Chebyshev coefficients of exp(-i*phi*x) become small only past degree
phi.  Where that rule says dense, ``auto`` first builds one basis from psi0
and evaluates its bound at every grid point: a psi0 on few eigenvectors
(``all_up_x`` on a uniform chain holds one energy per block) spans a Krylov
space that closes early (6 vectors on ``fig2_mx``), and that one basis runs
the whole grid, recorded from its m coefficients against every observable
projected onto it, so no state column is formed; otherwise the basis is
dropped, its products spent, and the dense one runs.
``Trajectory.method`` names the propagator that ran.
Only numpy.linalg diagonalizes; scipy serves sparse matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import HermiticityError, InvalidSpecError, NumericalError, refuse
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
# and the widest slice of the grid recorded at once
_PHASE_STRIDE = 64
# entries of one dense chunk: 512 columns up to DENSE_DIM_LIMIT, fewer beyond
_CHUNK_ENTRIES = _GRID_CHUNK * DENSE_DIM_LIMIT
METHODS = ("dense_eig", "krylov", "auto")
# the dense blocks' eigensolver: LAPACK syevd on a real block, heevd on a complex one
_block_eigh = np.linalg.eigh


@dataclass(frozen=True)
class EvolutionConfig:
    """Output grid and propagator choice.

    ``n_steps`` counts grid points (at most ``MAX_GRID_POINTS``) on the inclusive grid [0, t_max];
    ``method`` is one of dense_eig, krylov, auto.  ``auto`` runs Lanczos when
    the blocks of H that the initial state touches hold more than 4096
    states, or when the largest phase the per-block shifted Lanczos must
    resolve over the grid is at most ``KRYLOV_DIM`` rad, which a few of its
    bases cover; otherwise ``evolve`` runs Lanczos if one basis built from
    the initial state is within its error bound at every grid point.
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
            refuse(problems)

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
    method: str = ""  # the propagator that ran: dense_eig or krylov


def _check_observable(op: SparseOperator, dim: int, name: str) -> None:
    if op.dim != dim:
        raise ValueError(f"{name} has dim {op.dim}, expected {dim}")
    if not op.hermitian:
        raise HermiticityError(f"{name} is not Hermitian")


def _expect_cols(matrix, cols: np.ndarray, bras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of <psi|O|psi> of every column, ``bras`` their
    conjugates.  A real ``matrix`` takes one real product on the interleaved
    parts of ``cols``, equal to the complex product bit for bit."""
    applied = (matrix @ cols.view(float)).view(complex) if np.isrealobj(matrix) else matrix @ cols
    raw = np.einsum("ij,ij->j", bras, applied)
    return raw.real, raw.imag


def _record(slices, series: list[np.ndarray]) -> tuple[float, float]:
    """Fill ``series`` (one array per recorded matrix) from ``slices`` of the
    grid in order, each the real and imaginary parts of every expectation
    there (one row per matrix) and the states' squared norms; return the
    largest |imaginary part| and norm deviation.  Both recorders refuse here."""
    max_imag, max_dev, start = 0.0, 0.0, 0
    for real, imag, sq_norms in slices:
        if not (np.isfinite(real).all() and np.isfinite(imag).all()):
            raise NumericalError("expectation value is not finite")
        worst = float(np.max(np.abs(imag), initial=0.0))
        if not worst < IMAG_TOL:
            raise NumericalError(f"expectation imaginary part reached {worst:.3e}")
        dev = float(np.max(np.abs(np.sqrt(sq_norms) - 1.0)))
        if not dev < NORM_TOL:  # NaN fails too
            raise NumericalError(f"norm drifted by {dev:.3e}")
        for values, row in zip(series, real):
            values[start : start + len(row)] = row
        max_imag, max_dev, start = max(max_imag, worst), max(max_dev, dev), start + len(sq_norms)
    return max_imag, max_dev


def _column_slices(blocks, matrices):
    """The slices ``_record`` takes, from the columns ``blocks`` yields, read 64
    at a time: contiguous copies keep temporaries small and products fast."""
    for block in blocks:
        for lo in range(0, block.shape[1], _PHASE_STRIDE):
            cols = np.ascontiguousarray(block[:, lo : lo + _PHASE_STRIDE])
            bras = cols.conj()
            parts = [_expect_cols(m, cols, bras) for m in matrices]
            yield ([p[0] for p in parts], [p[1] for p in parts],
                   np.einsum("ij,ij->j", bras, cols).real)
        del block, cols, bras  # so the propagator forms the next block with none alive


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
    vector times the next off-diagonal (the residual at breakdown), 2*pi*dt
    and |v|.  The basis ends early where its space closes: when the residual
    is at most 1e-12 times T's largest |entry| so far.  Short Lanczos
    recurrence with full reorthogonalization.
    """
    nrm = np.linalg.norm(v)
    dim = v.shape[0]
    m = min(m, dim)
    vecs = np.empty((m, dim), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(max(m - 1, 1))  # beta[k] couples vecs[k] to vecs[k+1]
    vecs[0] = v / nrm
    scale = 0.0  # T's largest |entry| so far, a lower estimate of |T|
    for k in range(m):
        w = matvec(vecs[k])
        alpha[k] = np.vdot(vecs[k], w).real
        # full reorthogonalization keeps the basis numerically orthonormal
        # (conj(V) w = conj(V conj(w)) spares a copy of the basis)
        w -= vecs[: k + 1].T @ (vecs[: k + 1] @ w.conj()).conj()
        w -= vecs[: k + 1].T @ (vecs[: k + 1] @ w.conj()).conj()
        b = np.linalg.norm(w)
        scale = max(scale, abs(alpha[k]), b)
        if k + 1 == m or b <= 1e-12 * scale:  # the space closes: b is the residual
            break
        beta[k] = b
        vecs[k + 1] = w / b
    k_used, beta_next = k + 1, b
    if not (np.isfinite(alpha[:k_used]).all() and np.isfinite(beta[: k_used - 1]).all()):
        raise NumericalError("Lanczos coefficients are not finite")
    off = beta[: k_used - 1]
    evals, evecs = np.linalg.eigh(np.diag(alpha[:k_used]) + np.diag(off, 1) + np.diag(off, -1))

    def propagate(dts: np.ndarray):
        coeffs = nrm * (evecs @ _phased(evals, dts, evecs[0]))
        return coeffs, beta_next * np.abs(coeffs[-1]) * np.abs(TWO_PI * dts)

    return vecs[:k_used], propagate


def _shifted(matrix, shift):
    """v -> (H - diag(shift)) v, the product every Lanczos basis is built from."""
    return lambda x: matrix @ x - shift * x


def _covering_window(matrix, psi0, times, shift):
    """The Lanczos window (basis rows and propagator) built from psi0 at
    times[0] if its error bound is within ``STEP_TOLERANCE`` at every grid
    point, else None; ``_basis_slices`` records the whole grid from it.  The
    bound is taken ``_GRID_CHUNK`` points at a time and stops at the first
    chunk that fails, so no more than one chunk of coefficients is alive."""
    vecs, propagate = _lanczos(_shifted(matrix, shift), psi0, KRYLOV_DIM)
    dts = times[1:] - times[0]
    for lo in range(0, len(dts), _GRID_CHUNK):
        if not (propagate(dts[lo : lo + _GRID_CHUNK])[1] <= STEP_TOLERANCE).all():
            return None  # NaN never fits
    return vecs, propagate


def _basis_slices(vecs, propagate, shift, times, matrices):
    """The slices ``_record`` takes, from a covering window's coefficients
    c(t) on its basis V (``vecs``), ``_PHASE_STRIDE`` grid points at a time.

    With t from times[0], the states I_a of shift level c_a hold
    exp(-i*2*pi*c_a*t) V[:, I_a]^T c(t), so <O> sums exp(-i*2*pi*(c_b - c_a)*t)
    c^H M_ab c over the level pairs O couples, M_ab = conj(V[:, I_a]) O[I_a, I_b]
    V[:, I_b]^T; pairs with one gap c_b - c_a share one M.  The squared norm is
    c^H conj(V) V^T c, which still sees a basis that lost orthogonality.
    """
    levels, level_of = np.unique(shift, return_inverse=True)
    spans = [np.flatnonzero(level_of == a) for a in range(len(levels))]
    terms = {(len(matrices), 0.0): vecs.conj() @ vecs.T}  # (output row, gap): M; the norm's last
    for i, matrix in enumerate(matrices):
        csr = matrix.tocsr()
        for a, idx in enumerate(spans):
            rows = csr[idx]  # one level's rows bound every product's size
            for b in np.unique(level_of[rows.indices]):
                pair = vecs[:, idx].conj() @ (rows[:, spans[b]] @ vecs[:, spans[b]].T)
                key = (i, levels[b] - levels[a])
                terms[key] = terms.get(key, 0) + pair
    owner, gaps = map(np.array, zip(*terms))
    stack, ones = np.concatenate(list(terms.values())), np.ones(len(gaps))
    for lo in range(0, len(times), _PHASE_STRIDE):
        dts = times[lo : lo + _PHASE_STRIDE] - times[0]
        coeffs = propagate(dts)[0]
        applied = (stack @ coeffs).reshape(len(gaps), -1, len(dts))
        quad = np.einsum("kn,pkn->pn", coeffs.conj(), applied)  # c^H M_g c, one row per term
        raw = np.zeros((len(matrices) + 1, len(dts)), dtype=complex)
        np.add.at(raw, owner, _phased(gaps, dts, ones) * quad)
        yield raw[:-1].real, raw[:-1].imag, raw[-1].real


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
    matvec = _shifted(matrix, shift)
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
    """Label of every state's weakly connected component in the sparsity
    pattern, components numbered in the order of their lowest states.

    A vectorized union-find over the stored entries (the pattern, not the
    values: a zero or purely imaginary hopping still joins its states).
    Every state points at a root no larger than itself.  A round hooks the
    root at each end of every entry onto the smaller root at the other end,
    then jumps pointers until each state points at its root; entries whose
    ends share a root drop out.  Every round at least halves the number of
    trees in a component, and each component ends as one tree rooted at its
    lowest state.
    """
    csr = matrix.tocsr()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    cols = csr.indices
    root = np.arange(csr.shape[0])
    while True:
        a, b = root[rows], root[cols]
        split = a != b
        if not split.any():
            return np.unique(root, return_inverse=True)[1]
        rows, cols, a, b = rows[split], cols[split], a[split], b[split]
        np.minimum.at(root, a, b)
        np.minimum.at(root, b, a)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


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
    takes about L + n_points/L cos/sin pairs, not n_points.  Each block's
    phases are formed in one array per run, sized for the largest block;
    when one block is S, its product is written straight into the chunk.
    No chunk is held while the next is formed.
    """
    csr = matrix.tocsr()  # sliceable even when the matrix only forwards attributes
    blocks = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    subs = [s if s.data.imag.any() else s.real for s in (csr[i][:, i] for i in blocks)]
    size = max(sub.shape[0] for sub in subs)
    # every block's kept eigenvectors, and while the largest is diagonalized
    # four more arrays of its size: the dense block, eigh's copy of it and the
    # divide-and-conquer work (2n^2 doubles, or n^2 complex and 2n^2 doubles).
    # Besides the dense block, np.linalg.eigh measured 32.5 B per entry of a
    # real block of 6000 states and 64.7 B of a complex one of 4500, the
    # excess over 32 and 64 about 3 KB per state
    kept = [sub.dtype.itemsize * sub.shape[0] ** 2 for sub in subs]
    need = sum(kept) + 4 * max(kept)
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
        evals, evecs = _block_eigh(sub.toarray())
        inner = _phased(evals, offsets, np.ones(len(evals)))
        spectra.append((idx, evals, evecs, evecs.conj().T @ psi0[idx], inner))
    work = np.empty(size * step, dtype=complex)  # every block's phases, chunk after chunk
    for start in range(0, n_points, step):
        width = min(step, n_points - start)
        strides = dt * np.arange(start, start + width, stride)
        cols = np.empty((len(psi0), width), dtype=complex)
        for idx, evals, evecs, w0, inner in spectra:
            z = work[: len(evals) * len(strides) * stride].reshape(len(evals), len(strides), stride)
            np.multiply(_phased(evals, strides, w0)[:, :, None], inner[:, None, :], out=z)
            z = z.reshape(len(evals), -1)[:, :width]
            kind = float if np.isrealobj(evecs) else complex  # a real evecs takes z's parts
            if len(spectra) == 1:  # the block is S: the product fills the chunk in place
                np.matmul(evecs, z.view(kind), out=cols.view(kind))
            else:
                cols[idx] = (evecs @ z.view(kind)).view(complex)
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
    touches, and on the widest touched block's Gershgorin half-width, and
    where those pick dense, on whether one Lanczos basis from psi0 covers the
    grid; ``Trajectory.method`` names the propagator that ran.  Both
    propagators run with H, psi0, the observables and Q restricted to S,
    which is exact because every state vanishes off S.  Each block of
    columns a propagator yields is recorded from contiguous copies of at
    most 64 columns, and released before the next block is formed; a
    covering basis forms no column (``_basis_slices``).

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
    method = cfg.resolve_method(len(support), TWO_PI * width * cfg.t_max)
    window = None
    if method == "dense_eig" and cfg.method == "auto":
        # a psi0 with weight on few eigenvectors may still take one basis
        window = _covering_window(matrix, psi0, times, shift)
        method = "dense_eig" if window is None else "krylov"
    leak = None
    if q is not None:
        if q.any():  # Q under a key that names no observable
            recorded[None] = sp.diags(q, format="csr")
        else:  # nothing recorded can leave the mask
            leak = np.zeros(len(times))
    matrices = list(recorded.values())
    if window is not None:
        slices = _basis_slices(*window, shift, times, matrices)
    else:
        blocks = (_dense_blocks(matrix, psi0, labels, cfg.t_max / (cfg.n_steps - 1), cfg.n_steps)
                  if method == "dense_eig" else _krylov_blocks(matrix, psi0, times, shift))
        slices = _column_slices(blocks, matrices)
    values = {name: np.empty(len(times)) for name in recorded}
    max_imag, max_norm_dev = _record(slices, list(values.values()))
    return Trajectory(times=times, leakage=values.pop(None, leak), values=values,
                      max_imag=max_imag, max_norm_deviation=max_norm_dev,
                      hamiltonian_label=hamiltonian_label, method=method)
