"""Equivalence machinery: projected comparison of a boson Hamiltonian against
a spin Hamiltonian, leakage-block norms, and trajectory-distance reports.

Encoded Hamiltonians may differ from the spin model by a multiple of the
identity (constant terms are dropped at different stages of different
constructions), so matrix comparisons first fit a scalar offset by trace
matching, which is the least-squares optimal choice.  The comparison reads
only P H P and Q H P (stored entries whose row ``hilbert.outside`` marks and
whose column it does not).  So it takes a build on the hard-core states
alone, whose Q H P is the largest entry the build dropped (see ``operators``)
and over whose entries ``hermiticity_boson`` is then measured.

Results are returned as values; rendering them as text is the command line's
job.  A report holds only what the comparison measures: the chain length and
local dimension belong to the caller, who built the bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import Trajectory
from .hilbert import outside
from .operators import SparseOperator, hermiticity_deviation


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of comparing a projected boson Hamiltonian with a spin one; the
    command line writes the fields in this order, after the run's N and d."""

    physical_dim: int
    offset_mhz: float
    residual_max: float
    residual_frobenius: float
    coupling_norm: float  # largest |<q|H_boson|p>| out of the projected subspace
    hermiticity_boson: float
    hermiticity_spin: float


def project(op: SparseOperator, mask) -> tuple[SparseOperator, float]:
    """Sub-matrix on the index set ``mask`` plus the largest matrix element
    coupling the mask into its complement (rows outside, columns inside).
    The complement includes the states outside the basis ``op`` was built on,
    so a mask must cover that basis unless the build dropped no entry."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask must not be empty")
    if op.dropped and mask.size != op.dim:
        raise ValueError("an operator with entries leaving its basis projects only onto all of it")
    out = outside(op.dim, mask)
    if not out.any():  # P H P is H itself, and Q H P is what the build dropped
        return SparseOperator(matrix=op.matrix, hermitian=op.hermitian), op.dropped
    csr = op.matrix
    # a stored entry is in Q H P when its row is outside the mask (1) and its column inside (0)
    in_qhp = np.repeat(out, np.diff(csr.indptr)) > out[csr.indices]
    coupling = float(np.max(np.abs(csr.data[in_qhp]), initial=op.dropped))
    return SparseOperator.from_matrix(csr[mask][:, mask]), coupling


def compare_projected(h_boson: SparseOperator, h_spin: SparseOperator, mask) -> EquivalenceReport:
    """Fit the identity offset and report entrywise and Frobenius residuals of
    P H_boson P - (H_spin + c I) on the projected subspace."""
    php, coupling = project(h_boson, mask)
    if php.dim != h_spin.dim:
        raise ValueError(f"projected dim {php.dim} does not match spin dim {h_spin.dim}")
    dim = php.dim
    trace_boson = complex(php.matrix.diagonal().sum())
    trace_spin = complex(h_spin.matrix.diagonal().sum())
    offset = (trace_boson - trace_spin).real / dim
    resid = php.matrix - h_spin.matrix - offset * sp.identity(dim, dtype=complex, format="csr")
    return EquivalenceReport(
        physical_dim=dim,
        offset_mhz=offset,
        residual_max=float(np.max(np.abs(resid.data), initial=0.0)),
        residual_frobenius=float(np.sqrt(np.sum(np.abs(resid.data) ** 2))),
        coupling_norm=coupling,
        hermiticity_boson=hermiticity_deviation(h_boson.matrix),
        hermiticity_spin=hermiticity_deviation(h_spin.matrix),
    )


@dataclass(frozen=True)
class TrajectoryDistance:
    """Per-observable max-abs and RMS differences between two trajectories."""

    max_abs: dict[str, float]
    rms: dict[str, float]
    overall_max: float


def compare_trajectories(a: Trajectory, b: Trajectory) -> TrajectoryDistance:
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise ValueError("trajectories must share an identical time grid")
    if set(a.values) != set(b.values):
        raise ValueError("trajectories record different observables")
    max_abs, rms = {}, {}
    overall = 0.0
    for name in a.values:
        diff = np.abs(a.values[name] - b.values[name])
        max_abs[name] = float(np.max(diff))
        rms[name] = float(np.sqrt(np.mean(diff**2)))
        overall = max(overall, max_abs[name])
    return TrajectoryDistance(max_abs=max_abs, rms=rms, overall_max=overall)
