"""Unitary time evolution and expectation-value recording.

The propagated phase is exp(-i * 2*pi * H * t) with H in MHz and t in us.
Two propagators are available: a one-shot spectral decomposition reused for
every output time (best up to a few thousand basis states), and an adaptive
short-recurrence Lanczos exponential for larger problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import HermiticityError, NumericalError
from .hilbert import StateVector
from .operators import SparseOperator
from .units import TWO_PI

DENSE_DIM_LIMIT = 4096
NORM_TOL = 1e-9
IMAG_TOL = 1e-9
MAX_HALVINGS = 60
_GRID_CHUNK = 512


@dataclass(frozen=True)
class EvolutionConfig:
    """Output grid and propagator choice.

    ``n_steps`` counts grid points on the inclusive linear grid [0, t_max];
    ``method`` is one of dense_eig, krylov, auto (dense up to dim 4096).
    ``step_tolerance`` bounds the local error of one Krylov substep.
    """

    t_max: float
    n_steps: int = 2000
    method: str = "auto"
    krylov_dim: int = 30
    step_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.krylov_dim < 2:
            raise ValueError(f"krylov_dim must be >= 2, got {self.krylov_dim}")
        if self.method not in ("dense_eig", "krylov", "auto"):
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
    states: list[np.ndarray] | None = field(default=None, repr=False)


def expectation(op: SparseOperator, psi: StateVector) -> float:
    """Real part of <psi|O|psi>; the imaginary part must stay below 1e-9."""
    if op.dim != psi.basis.dim:
        raise ValueError(f"operator dim {op.dim} does not match state dim {psi.basis.dim}")
    if not op.hermitian:
        raise HermiticityError("expectation values are defined for Hermitian observables")
    val = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
    if abs(val.imag) >= IMAG_TOL:
        raise NumericalError(f"expectation acquired imaginary part {val.imag:.3e}")
    return float(val.real)


def leakage(psi: StateVector, mask) -> float:
    """Population outside the index set ``mask``, clamped to [0, 1].

    Summed over the complement directly, so a complete mask gives exactly 0
    and small leakages are not lost to cancellation against the norm."""
    comp = np.setdiff1d(np.arange(psi.basis.dim), np.asarray(mask, dtype=np.int64))
    outside = float(np.sum(np.abs(psi.amplitudes[comp]) ** 2))
    return min(max(outside, 0.0), 1.0)


def _record(obs_mats, psi_cols: np.ndarray) -> tuple[list[np.ndarray], float]:
    """Expectations of each observable over state columns; returns max |imag|."""
    vals, worst = [], 0.0
    for mat in obs_mats:
        raw = np.einsum("ij,ij->j", psi_cols.conj(), mat @ psi_cols)
        worst = max(worst, float(np.max(np.abs(raw.imag))) if raw.size else 0.0)
        vals.append(raw.real.copy())
    return vals, worst


def _leak_cols(psi_cols: np.ndarray, comp: np.ndarray) -> np.ndarray:
    if comp.size == 0:
        return np.zeros(psi_cols.shape[1])
    outside = np.sum(np.abs(psi_cols[comp, :]) ** 2, axis=0)
    return np.clip(outside, 0.0, 1.0)


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
    evals, evecs = sla.eigh_tridiagonal(alpha[:k_used], beta[: k_used - 1])
    phases = np.exp(-1j * TWO_PI * dt * evals)
    small = evecs @ (phases * evecs[0, :].conj())
    u = nrm * (vecs[:k_used].T @ small)
    err = beta_next * abs(small[-1]) * abs(TWO_PI * dt) * nrm
    return u, err


def _evolve_krylov(h, psi0, times, cfg, obs_mats, comp, retain):
    matvec = lambda x: h.matrix @ x
    cur = psi0.copy()
    vals = [np.empty(len(times)) for _ in obs_mats]
    leak = np.empty(len(times)) if comp is not None else None
    states = [] if retain else None
    max_imag = 0.0
    max_norm_dev = 0.0

    def record(idx, vec):
        nonlocal max_imag, max_norm_dev
        col = vec[:, None]
        point_vals, imag = _record(obs_mats, col)
        max_imag = max(max_imag, imag)
        for series, pv in zip(vals, point_vals):
            series[idx] = pv[0]
        if leak is not None:
            leak[idx] = _leak_cols(col, comp)[0]
        max_norm_dev = max(max_norm_dev, abs(np.linalg.norm(vec) - 1.0))
        if states is not None:
            states.append(vec.copy())

    record(0, cur)
    for idx in range(1, len(times)):
        span = times[idx] - times[idx - 1]
        remaining = span
        step = span
        halvings = 0
        while remaining > 1e-12 * span:
            dt = min(step, remaining)
            u, err = _lanczos_step(matvec, cur, dt, cfg.krylov_dim)
            if err > cfg.step_tolerance:
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
            if err < 0.01 * cfg.step_tolerance:
                step = min(2.0 * step, span)
        record(idx, cur)
    return vals, leak, max_imag, max_norm_dev, states


def _evolve_dense(h, psi0, times, obs_mats, comp, retain):
    evals, evecs = sla.eigh(h.dense())
    w0 = evecs.conj().T @ psi0
    vals = [np.empty(len(times)) for _ in obs_mats]
    leak = np.empty(len(times)) if comp is not None else None
    states = [] if retain else None
    max_imag = 0.0
    max_norm_dev = 0.0
    for start in range(0, len(times), _GRID_CHUNK):
        chunk = times[start : start + _GRID_CHUNK]
        phases = np.exp(-1j * TWO_PI * np.outer(evals, chunk))
        cols = evecs @ (phases * w0[:, None])
        chunk_vals, imag = _record(obs_mats, cols)
        max_imag = max(max_imag, imag)
        for series, cv in zip(vals, chunk_vals):
            series[start : start + len(chunk)] = cv
        if leak is not None:
            leak[start : start + len(chunk)] = _leak_cols(cols, comp)
        norms = np.linalg.norm(cols, axis=0)
        max_norm_dev = max(max_norm_dev, float(np.max(np.abs(norms - 1.0))))
        if states is not None:
            states.extend(cols[:, i].copy() for i in range(cols.shape[1]))
    return vals, leak, max_imag, max_norm_dev, states


def evolve(
    h: SparseOperator,
    psi0: StateVector,
    cfg: EvolutionConfig,
    observables: dict[str, SparseOperator],
    leakage_mask=None,
    hamiltonian_label: str = "",
    initial_state_label: str = "",
    retain_states: bool = False,
) -> Trajectory:
    """Evolve psi0 under exp(-i*2*pi*H*t) and record observables on the grid.

    Non-Hermitian generators are refused; project them onto an invariant
    subspace first.  Norm drift beyond 1e-9 or expectation imaginary parts
    beyond 1e-9 raise NumericalError rather than being silently discarded.
    """
    if not h.hermitian:
        raise HermiticityError("evolution requires a Hermitian Hamiltonian")
    if h.dim != psi0.basis.dim:
        raise ValueError(f"Hamiltonian dim {h.dim} does not match state dim {psi0.basis.dim}")
    for name, op in observables.items():
        if op.dim != h.dim:
            raise ValueError(f"observable {name!r} has dim {op.dim}, expected {h.dim}")
        if not op.hermitian:
            raise HermiticityError(f"observable {name!r} is not Hermitian")
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    comp = None
    if leakage_mask is not None:
        comp = np.setdiff1d(
            np.arange(h.dim, dtype=np.int64), np.asarray(leakage_mask, dtype=np.int64)
        )
    obs_mats = [op.matrix for op in observables.values()]
    method = cfg.resolve_method(h.dim)
    if method == "dense_eig":
        vals, leak, max_imag, max_norm_dev, states = _evolve_dense(
            h, psi0.amplitudes, times, obs_mats, comp, retain_states
        )
    else:
        vals, leak, max_imag, max_norm_dev, states = _evolve_krylov(
            h, psi0.amplitudes, times, cfg, obs_mats, comp, retain_states
        )
    if max_imag >= IMAG_TOL:
        raise NumericalError(f"expectation imaginary part reached {max_imag:.3e}")
    if max_norm_dev >= NORM_TOL:
        raise NumericalError(f"norm drifted by {max_norm_dev:.3e}")
    return Trajectory(
        times=times,
        values={name: series for name, series in zip(observables.keys(), vals)},
        leakage=leak,
        max_imag=max_imag,
        max_norm_deviation=max_norm_dev,
        hamiltonian_label=hamiltonian_label,
        initial_state_label=initial_state_label,
        states=states,
    )
