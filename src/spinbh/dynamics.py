"""Unitary time evolution and expectation-value recording.

The propagated phase is exp(-i * 2*pi * H * t) with H in MHz and t in us.
Propagators only propagate: each takes (h, psi0, times) and yields blocks of
state columns, one column per output time, in grid order.  The dense one
diagonalizes once and yields 512 columns per block (best up to a few
thousand basis states); the adaptive Lanczos exponential yields one column
per block, so memory stays at one Krylov basis of ``KRYLOV_DIM`` vectors,
and halves a substep until its error estimate is within ``STEP_TOLERANCE``.
``evolve`` records every block in one loop, and the public ``expectation``
and ``leakage`` apply the same column helpers to one column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import HermiticityError, NumericalError
from .hilbert import StateVector, mask_complement
from .operators import SparseOperator
from .units import TWO_PI

DENSE_DIM_LIMIT = 4096
NORM_TOL = 1e-9
IMAG_TOL = 1e-9
MAX_HALVINGS = 60
KRYLOV_DIM = 30
STEP_TOLERANCE = 1e-10  # local error bound of one Krylov substep
_GRID_CHUNK = 512
METHODS = ("dense_eig", "krylov", "auto")


@dataclass(frozen=True)
class EvolutionConfig:
    """Output grid and propagator choice.

    ``n_steps`` counts grid points on the inclusive linear grid [0, t_max];
    ``method`` is one of dense_eig, krylov, auto (dense up to dim 4096).
    """

    t_max: float
    n_steps: int = 2000
    method: str = "auto"

    def __post_init__(self):
        if not 0 < self.t_max < np.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    def resolve_method(self, dim: int) -> str:
        if self.method != "auto":
            return self.method
        return "dense_eig" if dim <= DENSE_DIM_LIMIT else "krylov"


@dataclass
class Trajectory:
    """Time grid plus recorded real expectation values and diagnostics."""

    times: np.ndarray
    values: dict[str, np.ndarray]
    leakage: np.ndarray | None = None
    max_imag: float = 0.0
    max_norm_deviation: float = 0.0
    hamiltonian_label: str = ""
    initial_state_label: str = ""


def _check_observable(op: SparseOperator, dim: int, name: str) -> None:
    if op.dim != dim:
        raise ValueError(f"{name} has dim {op.dim}, expected {dim}")
    if not op.hermitian:
        raise HermiticityError(f"{name} is not Hermitian")


def _expect_cols(matrix, cols: np.ndarray) -> tuple[np.ndarray, float]:
    """Real <psi|O|psi> of every column psi, and the largest |imaginary part|."""
    raw = np.einsum("ij,ij->j", cols.conj(), matrix @ cols)
    if not np.isfinite(raw).all():
        raise NumericalError("expectation value is not finite")
    imag = float(np.max(np.abs(raw.imag)))
    if not imag < IMAG_TOL:
        raise NumericalError(f"expectation imaginary part reached {imag:.3e}")
    return raw.real, imag


def _outside_cols(cols: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Population of every column on the index set ``comp``, clamped to [0, 1].

    Summed over the complement of the mask directly, so a complete mask gives
    exactly 0 and small leakages are not lost to cancellation against the norm."""
    return np.clip(np.sum(np.abs(cols[comp]) ** 2, axis=0), 0.0, 1.0)


def expectation(op: SparseOperator, psi: StateVector) -> float:
    """Real part of <psi|O|psi>; the imaginary part must stay below 1e-9."""
    _check_observable(op, psi.basis.dim, "operator")
    values, _ = _expect_cols(op.matrix, psi.amplitudes[:, None])
    return float(values[0])


def leakage(psi: StateVector, mask) -> float:
    """Population outside the sorted, unique index set ``mask``, clamped to [0, 1]."""
    comp = mask_complement(psi.basis.dim, mask)
    return float(_outside_cols(psi.amplitudes[:, None], comp)[0])


def _lanczos_step(matvec, v: np.ndarray, dt: float, m: int):
    """One Krylov propagation of v by exp(-i*2*pi*dt*H).

    Returns (u, err_estimate).  Short Lanczos recurrence with full
    reorthogonalization; the error estimate is the weight the small
    exponential puts on the last basis vector times the next off-diagonal.
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
        w -= vecs[: k + 1].T @ (vecs[: k + 1].conj() @ w)
        w -= vecs[: k + 1].T @ (vecs[: k + 1].conj() @ w)
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
    phases = np.exp(-1j * TWO_PI * dt * evals)
    small = evecs @ (phases * evecs[0, :].conj())
    u = nrm * (vecs[:k_used].T @ small)
    err = beta_next * abs(small[-1]) * abs(TWO_PI * dt) * nrm
    return u, err


def _krylov_blocks(h, psi0, times):
    """One-column blocks: adaptive Lanczos substeps between grid points."""
    matvec = lambda x: h.matrix @ x
    cur = psi0
    yield cur[:, None]
    for idx in range(1, len(times)):
        span = times[idx] - times[idx - 1]
        remaining = span
        step = span
        halvings = 0
        while remaining > 1e-12 * span:
            dt = min(step, remaining)
            u, err = _lanczos_step(matvec, cur, dt, KRYLOV_DIM)
            if err > STEP_TOLERANCE:
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise NumericalError(
                        f"Krylov step at t={times[idx - 1]:.6g} failed after "
                        f"{MAX_HALVINGS} halvings (err={err:.3e})"
                    )
                step = dt / 2.0
                continue
            cur = u
            remaining -= dt
            if err < 0.01 * STEP_TOLERANCE:
                step = min(2.0 * step, span)
        yield cur[:, None]


def _dense_blocks(h, psi0, times):
    """Blocks of up to 512 columns from one spectral decomposition."""
    evals, evecs = sla.eigh(h.dense())
    w0 = evecs.conj().T @ psi0
    for start in range(0, len(times), _GRID_CHUNK):
        phases = np.exp(-1j * TWO_PI * np.outer(evals, times[start : start + _GRID_CHUNK]))
        yield evecs @ (phases * w0[:, None])


def evolve(
    h: SparseOperator,
    psi0: StateVector,
    cfg: EvolutionConfig,
    observables: dict[str, SparseOperator],
    leakage_mask=None,
    hamiltonian_label: str = "",
    initial_state_label: str = "",
) -> Trajectory:
    """Evolve psi0 under exp(-i*2*pi*H*t) and record observables on the grid.

    Non-Hermitian generators are refused; project them onto an invariant
    subspace first.  Non-finite expectations or norms, norm drift beyond 1e-9
    and expectation imaginary parts beyond 1e-9 raise NumericalError rather
    than being silently discarded.
    """
    if not h.hermitian:
        raise HermiticityError("evolution requires a Hermitian Hamiltonian")
    if h.dim != psi0.basis.dim:
        raise ValueError(f"Hamiltonian dim {h.dim} does not match state dim {psi0.basis.dim}")
    for name, op in observables.items():
        _check_observable(op, h.dim, f"observable {name!r}")
    comp = None if leakage_mask is None else mask_complement(h.dim, leakage_mask)
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    blocks = _dense_blocks if cfg.resolve_method(h.dim) == "dense_eig" else _krylov_blocks
    values = {name: np.empty(len(times)) for name in observables}
    leak = None if comp is None else np.empty(len(times))
    max_imag = max_norm_dev = 0.0
    start = 0
    for cols in blocks(h, psi0.amplitudes, times):
        stop = start + cols.shape[1]
        for name, op in observables.items():
            values[name][start:stop], imag = _expect_cols(op.matrix, cols)
            max_imag = max(max_imag, imag)
        if leak is not None:
            leak[start:stop] = _outside_cols(cols, comp)
        dev = float(np.max(np.abs(np.linalg.norm(cols, axis=0) - 1.0)))
        if not dev < NORM_TOL:  # NaN fails too
            raise NumericalError(f"norm drifted by {dev:.3e}")
        max_norm_dev = max(max_norm_dev, dev)
        start = stop
    return Trajectory(
        times=times,
        values=values,
        leakage=leak,
        max_imag=max_imag,
        max_norm_deviation=max_norm_dev,
        hamiltonian_label=hamiltonian_label,
        initial_state_label=initial_state_label,
    )
