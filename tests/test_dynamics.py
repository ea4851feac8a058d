import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

import oracles
from spinbh import dynamics
from spinbh.dynamics import EvolutionConfig, evolve, expectation, leakage
from spinbh.errors import HermiticityError, NumericalError
from spinbh.hilbert import FockBasis, basis_state, named_initial_state, physical_mask, product_state
from spinbh.model import SpinModelSpec, chain_spec
from spinbh.operators import SparseOperator, build_h_dm, build_h_ebh, build_h_spin, observable


def cfg(t_max=0.5, n_steps=200, method="auto", **kw):
    return EvolutionConfig(t_max=t_max, n_steps=n_steps, method=method, **kw)


# ---------------------------------------------------------------- expectation

def test_expectation_number_offset():
    basis = FockBasis(1, 2)
    psi = basis_state(basis, [1])
    assert expectation(observable("sz1", "boson", basis), psi) == 0.5


def test_expectation_quadrature_plus_state():
    basis = FockBasis(1, 2)
    psi = product_state(basis, [(1.0, 1.0)])
    assert np.isclose(expectation(observable("mx", "boson", basis), psi), 0.5)


def test_expectation_off_diagonal_on_basis_state():
    basis = FockBasis(2, 2)
    psi = basis_state(basis, [1, 0])
    assert expectation(observable("cxx", "boson", basis), psi) == 0.0


def test_expectation_rejects_non_hermitian():
    spec = chain_spec(2, 1.0, 0.0)
    op = build_h_dm(spec, FockBasis(2, 3))
    psi = basis_state(FockBasis(2, 3), [1, 0])
    with pytest.raises(HermiticityError):
        expectation(op, psi)


def test_expectation_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        expectation(observable("sz1", "boson", FockBasis(2, 2)),
                    basis_state(FockBasis(3, 2), [0, 0, 0]))


# ---------------------------------------------------------------- leakage

def test_leakage_two_level_basis_is_zero():
    basis = FockBasis(2, 2)
    psi = named_initial_state(basis, "neel", "boson")
    assert leakage(psi, physical_mask(basis)) == 0.0


def test_leakage_fully_outside():
    basis = FockBasis(1, 3)
    psi = basis_state(basis, [2])
    assert leakage(psi, physical_mask(basis)) == 1.0


def test_leakage_half():
    basis = FockBasis(1, 3)
    amp = np.zeros(3, dtype=complex)
    amp[1] = amp[2] = 1 / np.sqrt(2)
    psi = type(named_initial_state(basis, "neel", "boson"))(basis, amp)
    assert np.isclose(leakage(psi, physical_mask(basis)), 0.5)


@pytest.mark.parametrize("mask", [[0, 1, 5], [-1, 0], [1, 0], [0, 0, 1]])
def test_leakage_rejects_invalid_mask(mask):
    psi = basis_state(FockBasis(1, 3), [0])
    with pytest.raises(ValueError):
        leakage(psi, mask)


# ---------------------------------------------------------------- analytic oracles

def larmor_reference(field, times):
    return 0.5 * np.cos(2 * np.pi * field * times)


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_single_spin_larmor(method):
    field = 5.0
    spec = chain_spec(1, 0.0, field)
    basis = FockBasis(1, 2)
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    c = cfg(t_max=1.0, n_steps=401, method=method)
    traj = evolve(build_h_spin(spec), psi0, c, {"mx": observable("mx", "spin", basis)})
    assert np.max(np.abs(traj.values["mx"] - larmor_reference(field, traj.times))) < 1e-8


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_two_spin_exchange(method):
    coupling = 40.0
    spec = chain_spec(2, coupling, 0.0)
    basis = FockBasis(2, 2)
    psi0 = named_initial_state(basis, "neel", "spin")  # |up down>
    c = cfg(t_max=0.125, n_steps=501, method=method)
    traj = evolve(build_h_spin(spec), psi0, c, {"sz1": observable("sz1", "spin", basis)})
    ref = 0.5 * np.cos(2 * np.pi * coupling * traj.times)
    assert np.max(np.abs(traj.values["sz1"] - ref)) < 1e-8


def test_time_zero_matches_static_expectation():
    spec = chain_spec(3, 2.0, 1.0)
    basis = FockBasis(3, 2)
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = observable("mx", "spin", basis)
    traj = evolve(build_h_spin(spec), psi0, cfg(n_steps=5), {"mx": obs})
    assert np.isclose(traj.values["mx"][0], expectation(obs, psi0), atol=1e-14)


def test_against_brute_force_expm():
    spec = chain_spec(3, 1.3, 0.7)
    basis = FockBasis(3, 2)
    h = build_h_spin(spec)
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = observable("sz1", "spin", basis)
    c = cfg(t_max=0.2, n_steps=21)
    traj = evolve(h, psi0, c, {"sz1": obs})
    ref = oracles.brute_force_expectation_series(
        h.dense(), psi0.amplitudes, obs.dense(), traj.times
    )
    assert np.max(np.abs(traj.values["sz1"] - ref)) < 1e-9


def expm_multiply_series(h, psi0, obs, t_max, n_steps):
    """Expectations on the linear grid from scipy's truncated-Taylor action."""
    states = expm_multiply(-2j * np.pi * h.matrix, psi0.amplitudes,
                           start=0.0, stop=t_max, num=n_steps, endpoint=True)
    return {name: np.einsum("ti,ti->t", states.conj(), (op.matrix @ states.T).T).real
            for name, op in obs.items()}


class CountingMatrix:
    """Sparse-matrix stand-in that counts H @ v products, one per vector."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.matvecs = 0

    def __matmul__(self, other):
        self.matvecs += 1 if other.ndim == 1 else other.shape[1]
        return self.matrix @ other

    def __getattr__(self, name):
        return getattr(self.matrix, name)


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_random_ebh_chain_matches_expm_multiply(method):
    # independent path: scipy's truncated-Taylor action of the exponential
    rng = np.random.default_rng(7)
    n = 6  # dim 3**6 = 729
    edges = [(j, j + 1, rng.uniform(10.0, 60.0)) for j in range(n - 1)] + [(0, 3, 15.0)]
    spec = SpinModelSpec(n, tuple(edges), tuple(rng.uniform(-30.0, 30.0, n)))
    basis = FockBasis(n, 3)
    h = build_h_ebh(spec, basis)
    psi0 = named_initial_state(basis, "all_up_x", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    traj = evolve(h, psi0, cfg(t_max=0.05, n_steps=41, method=method), obs,
                  leakage_mask=physical_mask(basis))
    ref = expm_multiply_series(h, psi0, obs, 0.05, 41)
    for name in obs:
        assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9
    assert np.max(traj.leakage) < 1e-20


def test_cutoff3_chain_of_ten_matches_expm_multiply_from_one_window():
    # dim 3**10 = 59049 on the fig2 grid spacing (0.5 us / 1999): all nine
    # intervals lie within reach of one or two Lanczos bases
    n_steps = 10
    t_max = (n_steps - 1) * 0.5 / 1999
    basis = FockBasis(10, 3)
    h = build_h_ebh(chain_spec(10, 40.0, 4720.0), basis)
    psi0 = named_initial_state(basis, "domain_wall", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    counted = CountingMatrix(h.matrix)
    traj = evolve(SparseOperator(matrix=counted, hermitian=True), psi0,
                  cfg(t_max, n_steps, "krylov"), obs)
    ref = expm_multiply_series(h, psi0, obs, t_max, n_steps)
    for name in obs:
        assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9
    assert counted.matvecs <= 2 * dynamics.KRYLOV_DIM


# ---------------------------------------------------------------- invariants

def run_pair(spec, basis, state_name, t_max=0.3, n_steps=151, d=None):
    h = build_h_spin(spec) if basis.local_dim == 2 else build_h_ebh(spec, basis)
    sector = "spin" if basis.local_dim == 2 else "boson"
    psi0 = named_initial_state(basis, state_name, sector)
    obs = {"sz1": observable("sz1", sector, basis), "mx": observable("mx", sector, basis)}
    out = {}
    for method in ("dense_eig", "krylov"):
        out[method] = evolve(h, psi0, cfg(t_max, n_steps, method), obs,
                             leakage_mask=physical_mask(basis))
    return out


def test_methods_agree_spin_chain():
    spec = chain_spec(4, 3.0, 1.5)
    runs = run_pair(spec, FockBasis(4, 2), "domain_wall")
    for name in ("sz1", "mx"):
        diff = np.abs(runs["dense_eig"].values[name] - runs["krylov"].values[name])
        assert np.max(diff) < 1e-8


def test_methods_agree_boson_chain():
    spec = chain_spec(3, 2.0, 1.0)
    runs = run_pair(spec, FockBasis(3, 3), "neel")
    for name in ("sz1", "mx"):
        diff = np.abs(runs["dense_eig"].values[name] - runs["krylov"].values[name])
        assert np.max(diff) < 1e-8


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_norm_and_energy_conserved(method):
    spec = chain_spec(4, 5.0, 2.0)
    basis = FockBasis(4, 2)
    h = build_h_spin(spec)
    psi0 = named_initial_state(basis, "domain_wall", "spin")
    traj = evolve(h, psi0, cfg(t_max=0.5, n_steps=101, method=method), {"energy": h})
    assert traj.max_norm_deviation < 1e-9
    energies = traj.values["energy"]
    scale = max(np.max(np.abs(energies)), 1.0)
    assert np.max(np.abs(energies - energies[0])) / scale < 1e-8


def test_total_sz_conserved():
    spec = chain_spec(4, 5.0, 2.0)
    basis = FockBasis(4, 2)
    from spinbh.operators import embed, local_ops

    total_sz = SparseOperator.from_matrix(
        sum(embed(basis, s, local_ops(2).hp_sz).matrix for s in range(4))
    )
    psi0 = named_initial_state(basis, "domain_wall", "spin")
    traj = evolve(build_h_spin(spec), psi0, cfg(n_steps=101), {"tsz": total_sz})
    assert np.max(np.abs(traj.values["tsz"] - traj.values["tsz"][0])) < 1e-10


@pytest.mark.parametrize("blocks", [dynamics._dense_blocks, dynamics._krylov_blocks],
                         ids=["dense_eig", "krylov"])
def test_time_reversal_returns_initial_state(blocks):
    h = build_h_spin(chain_spec(4, 3.0, 1.0))
    psi0 = named_initial_state(FockBasis(4, 2), "neel", "spin").amplitudes
    times = np.linspace(0.0, 0.4, 41)
    psi_t = np.hstack(list(blocks(h, psi0, times)))[:, -1]
    minus_h = SparseOperator.from_matrix(-h.matrix)
    back = np.hstack(list(blocks(minus_h, psi_t, times)))[:, -1]
    assert np.max(np.abs(back - psi0)) < 1e-8


def test_boson_total_number_conserved():
    spec = chain_spec(3, 2.0, 1.0)
    basis = FockBasis(3, 3)
    from spinbh.operators import embed, local_ops

    total_n = SparseOperator.from_matrix(
        sum(embed(basis, s, local_ops(3).n).matrix for s in range(3))
    )
    psi0 = named_initial_state(basis, "neel", "boson")
    traj = evolve(build_h_ebh(spec, basis), psi0, cfg(n_steps=101), {"tn": total_n})
    assert np.max(np.abs(traj.values["tn"] - traj.values["tn"][0])) < 1e-10


def test_hard_core_dynamics_never_leak():
    spec = chain_spec(3, 2.0, 1.0)
    basis = FockBasis(3, 3)
    psi0 = named_initial_state(basis, "neel", "boson")
    traj = evolve(build_h_ebh(spec, basis), psi0, cfg(n_steps=101),
                  {"sz1": observable("sz1", "boson", basis)},
                  leakage_mask=physical_mask(basis))
    assert np.max(traj.leakage) < 1e-12


# ---------------------------------------------------------------- guards

def test_evolve_refuses_non_hermitian():
    spec = chain_spec(2, 1.0, 0.0)
    basis = FockBasis(2, 3)
    with pytest.raises(HermiticityError):
        evolve(build_h_dm(spec, basis), named_initial_state(basis, "neel", "boson"),
               cfg(), {})


def test_evolve_rejects_dimension_mismatch():
    spec = chain_spec(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(build_h_spin(spec), named_initial_state(FockBasis(3, 2), "neel", "spin"),
               cfg(), {})


def test_evolve_rejects_invalid_leakage_mask():
    spec = chain_spec(2, 1.0, 0.0)
    basis = FockBasis(2, 2)
    with pytest.raises(ValueError):
        evolve(build_h_spin(spec), named_initial_state(basis, "neel", "spin"), cfg(), {},
               leakage_mask=[-1, 0, 1])


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_non_finite_dynamics_raise(method):
    # entries of 1e308 overflow the dense phases and the Lanczos norms
    basis = FockBasis(1, 2)
    h = SparseOperator.from_matrix(sp.diags([1e308, -1e308]))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        evolve(h, psi0, cfg(t_max=1.0, n_steps=3, method=method),
               {"mx": observable("mx", "spin", basis)})


def test_config_invariants():
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=0.0)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=np.inf)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, n_steps=1)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, method="magic")


def test_auto_method_selection():
    assert EvolutionConfig(t_max=1.0).resolve_method(4096) == "dense_eig"
    assert EvolutionConfig(t_max=1.0).resolve_method(4097) == "krylov"


def test_krylov_gives_up_after_sixty_halvings(monkeypatch):
    monkeypatch.setattr(dynamics, "KRYLOV_DIM", 4)
    monkeypatch.setattr(dynamics, "STEP_TOLERANCE", 0.0)
    spec = chain_spec(6, 40.0, 4720.0)  # dim 64 > KRYLOV_DIM, so err estimates stay finite
    basis = FockBasis(6, 2)
    psi0 = named_initial_state(basis, "domain_wall", "spin")
    with pytest.raises(NumericalError):
        evolve(build_h_spin(spec), psi0, cfg(t_max=0.5, n_steps=3, method="krylov"), {})


def test_krylov_windows_restart_and_halve_within_the_column_cap(monkeypatch):
    monkeypatch.setattr(dynamics, "KRYLOV_DIM", 6)
    rng = np.random.default_rng(11)
    n = 6  # dim 64
    spec = SpinModelSpec(n, tuple((j, j + 1, rng.uniform(10.0, 60.0)) for j in range(n - 1)),
                         tuple(rng.uniform(-30.0, 30.0, n)))
    h = build_h_spin(spec)
    psi0 = named_initial_state(FockBasis(n, 2), "all_up_x", "spin").amplitudes
    # 40 short intervals take two windows; the last, long one takes halved substeps
    times = np.append(np.linspace(0.0, 4e-4, 41), 2e-3)
    events = []  # "basis" per Lanczos basis, the column count per block
    lanczos = dynamics._lanczos

    def spy(*args):
        events.append("basis")
        return lanczos(*args)

    monkeypatch.setattr(dynamics, "_lanczos", spy)
    blocks = []
    for cols in dynamics._krylov_blocks(h, psi0, times):
        events.append(cols.shape[1])
        blocks.append(cols)
    assert all(cols.shape[1] <= 6 for cols in blocks)
    follows = list(zip(events, events[1:]))
    assert sum(a == "basis" and b != "basis" for a, b in follows) >= 2  # windows restart
    assert any("basis" not in pair for pair in follows)  # a basis serves two blocks
    assert ("basis", "basis") in follows  # a window that reaches no grid point
    dense = np.hstack(list(dynamics._dense_blocks(h, psi0, times)))
    assert np.max(np.abs(np.hstack(blocks) - dense)) < 1e-8


def test_krylov_subspace_smaller_than_dimension():
    # dim 4 < KRYLOV_DIM: happy breakdown must make it exact
    spec = chain_spec(2, 7.0, 3.0)
    basis = FockBasis(2, 2)
    psi0 = named_initial_state(basis, "neel", "spin")
    obs = {"sz1": observable("sz1", "spin", basis)}
    a = evolve(build_h_spin(spec), psi0, cfg(n_steps=31, method="krylov"), obs)
    b = evolve(build_h_spin(spec), psi0, cfg(n_steps=31, method="dense_eig"), obs)
    assert np.max(np.abs(a.values["sz1"] - b.values["sz1"])) < 1e-10
