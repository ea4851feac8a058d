import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

import oracles
from spinbh import dynamics
from spinbh.dynamics import EvolutionConfig, evolve
from spinbh.errors import HermiticityError, InvalidSpecError, NumericalError
from spinbh.hilbert import (FockBasis, basis_state, named_initial_state, outside, physical_mask,
                            product_state)
from spinbh.mapping import derive_jja_params, exact_couplings
from spinbh.model import SpinModelSpec, chain_circuit, chain_spec
from spinbh.operators import (
    SparseOperator,
    build_h_dm,
    build_h_ebh,
    build_h_jja,
    build_h_spin,
    closure,
    observable,
    spin_terms,
)


def cfg(t_max=0.5, n_steps=200, method="auto", **kw):
    return EvolutionConfig(t_max=t_max, n_steps=n_steps, method=method, **kw)


# ---------------------------------------------------------------- values at t = 0

def values_at_zero(psi, observables, leakage_mask=None):
    """Recorded values at t = 0, under H = 0 so that every time holds psi."""
    h = SparseOperator.from_matrix(sp.csr_matrix((len(psi), len(psi)), dtype=complex))
    traj = evolve(h, psi, cfg(n_steps=2, method="krylov"), observables,
                  leakage_mask=leakage_mask)
    return {name: series[0] for name, series in traj.values.items()}, traj.leakage


def test_expectation_number_offset():
    basis = FockBasis(1, 2)
    values, _ = values_at_zero(basis_state(basis, [1]), {"sz1": observable("sz1", "boson", basis)})
    assert values["sz1"] == 0.5


def test_expectation_quadrature_plus_state():
    basis = FockBasis(1, 2)
    values, _ = values_at_zero(product_state(basis, [(1.0, 1.0)]),
                               {"mx": observable("mx", "boson", basis)})
    assert np.isclose(values["mx"], 0.5)


def test_expectation_off_diagonal_on_basis_state():
    basis = FockBasis(2, 2)
    values, _ = values_at_zero(basis_state(basis, [1, 0]),
                               {"cxx": observable("cxx", "boson", basis)})
    assert values["cxx"] == 0.0


def test_expectation_rejects_non_hermitian():
    # the Dyson-Maleev generator is not Hermitian, so it cannot be an observable
    basis = FockBasis(2, 3)
    dm = build_h_dm(chain_spec(2, 1.0, 0.0), basis)
    with pytest.raises(HermiticityError):
        values_at_zero(basis_state(basis, [1, 0]), {"dm": dm})


def test_expectation_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        values_at_zero(basis_state(FockBasis(3, 2), [0, 0, 0]),
                       {"sz1": observable("sz1", "boson", FockBasis(2, 2))})


# ---------------------------------------------------------------- leakage

def test_leakage_two_level_basis_is_zero(monkeypatch):
    # at cutoff 2 the hard-core mask is every state, so Q stores no entry and
    # is never recorded: one column product per observable and block
    calls = []
    expect_cols = dynamics._expect_cols

    def spy(*args):
        calls.append(args[1].shape[1])
        return expect_cols(*args)

    monkeypatch.setattr(dynamics, "_expect_cols", spy)
    basis = FockBasis(4, 2)
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx")}
    for method in ("dense_eig", "krylov"):
        calls.clear()
        traj = evolve(build_h_ebh(chain_spec(4, 40.0, 4720.0), basis),
                      named_initial_state(basis, "all_up_x", "boson"),
                      cfg(t_max=0.01, n_steps=600, method=method), obs,
                      leakage_mask=physical_mask(basis))
        assert sum(calls) == len(obs) * len(traj.times)
        assert len(calls) % len(obs) == 0 and len(calls) > len(obs)  # several blocks
        assert traj.leakage.shape == traj.times.shape
        assert np.all(traj.leakage == 0.0) and not np.signbit(traj.leakage).any()


def test_leakage_fully_outside():
    basis = FockBasis(1, 3)
    _, leak = values_at_zero(basis_state(basis, [2]), {}, physical_mask(basis))
    assert leak[0] == 1.0


def test_leakage_half():
    basis = FockBasis(1, 3)
    amp = np.zeros(3, dtype=complex)
    amp[1] = amp[2] = 1 / np.sqrt(2)
    _, leak = values_at_zero(amp, {}, physical_mask(basis))
    assert np.isclose(leak[0], 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_leakage_is_the_population_outside_a_random_mask(seed):
    rng = np.random.default_rng(seed)
    basis = FockBasis(5, 3)
    amp = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amp[rng.random(basis.dim) < 0.5] *= 1e-4  # leave small and large populations
    psi = amp / np.linalg.norm(amp)
    inside = rng.random(basis.dim) < 0.3
    outside = np.sum(np.abs(psi[~inside]) ** 2)
    _, leak = values_at_zero(psi, {}, np.flatnonzero(inside))
    assert abs(leak[0] - outside) <= 1e-14
    _, leak = values_at_zero(psi, {}, np.arange(basis.dim))
    assert np.all(leak == 0.0)


@pytest.mark.parametrize("mask", [[0, 1, 5], [-1, 0], [1, 0], [0, 0, 1], [[0, 1]]])
def test_leakage_rejects_invalid_mask(mask):
    with pytest.raises(ValueError):
        values_at_zero(basis_state(FockBasis(1, 3), [0]), {}, mask)


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
    assert np.isclose(traj.values["mx"][0], np.vdot(psi0, obs.matrix @ psi0).real, atol=1e-14)


def test_against_brute_force_expm():
    spec = chain_spec(3, 1.3, 0.7)
    basis = FockBasis(3, 2)
    h = build_h_spin(spec)
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = observable("sz1", "spin", basis)
    c = cfg(t_max=0.2, n_steps=21)
    traj = evolve(h, psi0, c, {"sz1": obs})
    ref = oracles.brute_force_expectation_series(
        h.dense(), psi0, obs.dense(), traj.times
    )
    assert np.max(np.abs(traj.values["sz1"] - ref)) < 1e-9


def expm_multiply_series(h, psi0, obs, t_max, n_steps):
    """Expectations on the linear grid from scipy's truncated-Taylor action."""
    states = expm_multiply(-2j * np.pi * h.matrix, psi0,
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


OFF_CONSTRAINT_CIRCUIT = derive_jja_params(
    chain_circuit(4, 200.0, 12500.0, 1562.5, 10.0, include_boundary=True))


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
@pytest.mark.parametrize("state", ["domain_wall", "all_up_x"])
def test_leakage_series_matches_expm_population_outside_the_hard_core_states(state, method):
    # e_coup = 10 MHz is off the exact constraint, so the full circuit leaks
    # out of the hard-core states; the reference is dense expm of the oracle
    n, d = 4, 3
    p = OFF_CONSTRAINT_CIRCUIT
    basis = FockBasis(n, d)
    psi0 = named_initial_state(basis, state, "boson")
    traj = evolve(build_h_jja(p, basis, "full"), psi0, cfg(t_max=0.5, n_steps=26, method=method),
                  {}, leakage_mask=physical_mask(basis))
    h = oracles.dense_h_jja(n, d, p.omega, p.delta_omega, p.t, p.delta, p.corr_t, p.corr_tp,
                            p.delta_tilde, "full")
    off = np.ones(basis.dim, dtype=bool)
    off[oracles.dense_physical_mask(n, d)] = False
    ref = [np.sum(np.abs(sla.expm(-2j * np.pi * h * t) @ psi0)[off] ** 2)
           for t in traj.times]
    assert np.max(np.abs(traj.leakage - ref)) <= 1e-10
    assert np.max(traj.leakage) > 1e-3


def test_cutoff3_chain_of_ten_matches_expm_multiply_from_one_window(lanczos_starts):
    # dim 3**10 = 59049 on the fig2 grid spacing (0.5 us / 1999): all nine
    # intervals lie within reach of one or two Lanczos bases, each built on
    # the 252 states domain_wall touches
    n_steps = 10
    t_max = (n_steps - 1) * 0.5 / 1999
    basis = FockBasis(10, 3)
    h = build_h_ebh(chain_spec(10, 40.0, 4720.0), basis)
    psi0 = named_initial_state(basis, "domain_wall", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    traj = evolve(h, psi0, cfg(t_max, n_steps, "krylov"), obs)
    ref = expm_multiply_series(h, psi0, obs, t_max, n_steps)
    for name in obs:
        assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9
    assert 1 <= len(lanczos_starts) <= 2  # at most 2 * KRYLOV_DIM products
    assert set(lanczos_starts) == {(252,)}


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


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_time_reversal_returns_initial_state(method):
    columns = dense_columns if method == "dense_eig" else (
        lambda h, psi0, times: np.hstack(list(krylov_blocks(h, psi0, times))))
    h = build_h_spin(chain_spec(4, 3.0, 1.0))
    psi0 = named_initial_state(FockBasis(4, 2), "neel", "spin")
    times = np.linspace(0.0, 0.4, 41)
    psi_t = columns(h, psi0, times)[:, -1]
    minus_h = SparseOperator.from_matrix(-h.matrix)
    back = columns(minus_h, psi_t, times)[:, -1]
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


def test_evolve_accepts_the_array_named_initial_state_returns():
    spec = chain_spec(2, 1.0, 0.0)
    basis = FockBasis(2, 2)
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = {"mx": observable("mx", "spin", basis)}
    traj = evolve(build_h_spin(spec), psi0, cfg(n_steps=3), obs)
    assert traj.values["mx"][0] == pytest.approx(0.5, abs=1e-14)
    from_list = evolve(build_h_spin(spec), psi0.tolist(), cfg(n_steps=3), obs)
    assert np.array_equal(from_list.values["mx"], traj.values["mx"])


@pytest.mark.parametrize("shape", [(4, 1), (1, 4), (2, 2)], ids=["column", "row", "square"])
def test_evolve_rejects_a_state_that_is_not_one_dimensional(shape):
    spec = chain_spec(2, 1.0, 0.0)
    psi0 = np.zeros(shape, dtype=complex)
    psi0.flat[0] = 1.0
    with pytest.raises(ValueError, match="shape"):
        evolve(build_h_spin(spec), psi0, cfg(), {})


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
        EvolutionConfig(t_max=1.0, n_steps=dynamics.MAX_GRID_POINTS + 1)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, method="magic")
    # one InvalidSpecError lists every problem
    with pytest.raises(InvalidSpecError, match=r"^t_max must be positive and finite, got 0\.0; "
                                               r"n_steps must be in \[2, 1000000\], got 1; "
                                               r"method must be one of .*, got 'magic'$"):
        EvolutionConfig(t_max=0.0, n_steps=1, method="magic")


def test_auto_method_selection():
    auto = EvolutionConfig(t_max=1.0)
    limit, reach = dynamics.DENSE_DIM_LIMIT, dynamics.KRYLOV_DIM
    assert auto.resolve_method(limit) == "dense_eig"  # phase unknown: the dimension decides
    assert auto.resolve_method(limit + 1) == "krylov"
    assert auto.resolve_method(limit, reach) == "krylov"  # a few bases cover the grid
    assert auto.resolve_method(1, np.nextafter(reach, np.inf)) == "dense_eig"
    assert auto.resolve_method(limit + 1, 1e6) == "krylov"
    assert auto.resolve_method(limit, np.nan) == "dense_eig"
    for method in ("dense_eig", "krylov"):
        assert EvolutionConfig(t_max=1.0, method=method).resolve_method(limit + 1, 0.0) == method


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
    psi0 = named_initial_state(FockBasis(n, 2), "all_up_x", "spin")
    # 40 short intervals take two windows; the last, long one takes halved substeps
    times = np.append(np.linspace(0.0, 4e-4, 41), 2e-3)
    events = []  # "basis" per Lanczos basis, the column count per block
    lanczos = dynamics._lanczos

    def spy(*args):
        events.append("basis")
        return lanczos(*args)

    monkeypatch.setattr(dynamics, "_lanczos", spy)
    blocks = []
    for cols in krylov_blocks(h, psi0, times):
        events.append(cols.shape[1])
        blocks.append(cols)
    assert all(cols.shape[1] <= 6 for cols in blocks)
    follows = list(zip(events, events[1:]))
    assert sum(a == "basis" and b != "basis" for a, b in follows) >= 2  # windows restart
    assert any("basis" not in pair for pair in follows)  # a basis serves two blocks
    assert ("basis", "basis") in follows  # a window that reaches no grid point
    ref = full_eigh_columns(h.dense(), psi0, times)  # the dense propagator needs a uniform grid
    assert np.max(np.abs(np.hstack(blocks) - ref)) < 1e-8


def test_krylov_subspace_smaller_than_dimension():
    # dim 4 < KRYLOV_DIM: happy breakdown must make it exact
    spec = chain_spec(2, 7.0, 3.0)
    basis = FockBasis(2, 2)
    psi0 = named_initial_state(basis, "neel", "spin")
    obs = {"sz1": observable("sz1", "spin", basis)}
    a = evolve(build_h_spin(spec), psi0, cfg(n_steps=31, method="krylov"), obs)
    b = evolve(build_h_spin(spec), psi0, cfg(n_steps=31, method="dense_eig"), obs)
    assert np.max(np.abs(a.values["sz1"] - b.values["sz1"])) < 1e-10


# ---------------------------------------------------------------- dense blocks

def full_eigh_columns(h_dense, psi0, times):
    """State columns from one eigendecomposition of the whole matrix."""
    evals, evecs = np.linalg.eigh(h_dense)
    phases = np.exp(-2j * np.pi * np.outer(evals, times))
    return evecs @ (phases * (evecs.conj().T @ psi0)[:, None])


def krylov_blocks(h, psi0, times):
    """The Lanczos propagator's column blocks on every block of H, each block
    shifted by its Gershgorin midpoint as ``evolve`` shifts it."""
    labels = dynamics._components(h.matrix)
    row_sums = np.asarray(abs(h.matrix).sum(1)).ravel()
    shift, _ = dynamics._block_centers(h.matrix.diagonal().real, row_sums, labels)
    return dynamics._krylov_blocks(h.matrix, psi0, times, shift)


def dense_blocks(h, psi0, dt, n_points):
    """The dense propagator's column blocks on every block of H."""
    return dynamics._dense_blocks(h.matrix, psi0, dynamics._components(h.matrix), dt, n_points)


def dense_columns(h, psi0, times):
    """The dense propagator's columns on ``times``, a grid from np.linspace(0, t_max, n)."""
    n = len(times)
    assert np.array_equal(times, np.linspace(0.0, times[-1], n))
    return np.hstack(list(dense_blocks(h, psi0, times[-1] / (n - 1), n)))


class EighCalls(list):
    """Shapes of the diagonalized matrices in call order; their dtypes in ``dtypes``."""

    def __init__(self):
        super().__init__()
        self.dtypes = []

    def clear(self):
        super().clear()
        self.dtypes.clear()


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes (and dtypes) of the matrices the dense propagator diagonalizes:
    its blocks' solver, not the Lanczos tridiagonal's ``np.linalg.eigh``."""
    shapes = EighCalls()
    eigh = dynamics._block_eigh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        shapes.dtypes.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_block_eigh", spy)
    return shapes


def chain_and_oracle(n, d, edges, fields):
    """The package's Hamiltonian of a chain and the oracle's dense matrix of it."""
    spec = SpinModelSpec(n, tuple(edges), tuple(fields))
    if d == 2:
        return build_h_spin(spec), oracles.dense_h_spin(n, edges, fields)
    return build_h_ebh(spec, FockBasis(n, d)), oracles.dense_h_ebh(n, d, edges, fields)


def random_sparse_state(rng, dim, support):
    amp = np.zeros(dim, dtype=complex)
    idx = rng.choice(dim, size=min(support, dim), replace=False)
    amp[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    return amp / np.linalg.norm(amp)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(2, 6), d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       long_range=st.booleans(), state=st.sampled_from(["random", "neel", "all_up_x"]))
def test_dense_blocks_match_full_eigh_on_random_chains(n, d, seed, long_range, state):
    assume(d**n <= 243)
    rng = np.random.default_rng(seed)
    edges = [(j, j + 1, rng.uniform(-60.0, 60.0)) for j in range(n - 1)]
    if long_range and n > 2:
        edges.append((0, n - 1, rng.uniform(-60.0, 60.0)))
    fields = rng.uniform(-30.0, 30.0, n)
    basis = FockBasis(n, d)
    h, ref_h = chain_and_oracle(n, d, edges, fields)
    if state == "random":
        psi0 = random_sparse_state(rng, basis.dim, int(rng.integers(1, 6)))
    else:
        psi0 = named_initial_state(basis, state, "boson")
    times = np.linspace(0.0, 0.05, 7)
    cols = dense_columns(h, psi0, times)
    assert np.max(np.abs(cols - full_eigh_columns(ref_h, psi0, times))) < 1e-9


def test_dense_blocks_on_a_chain_cut_by_a_zero_link(eigh_shapes):
    # n=6 with link (2, 3) at zero: the halves conserve their own particle
    # numbers, so H splits into (3+1) * (3+1) blocks of size C(3, a) * C(3, b)
    n = 6
    edges = [(j, j + 1, 0.0 if j == 2 else 10.0 + 7.0 * j) for j in range(n - 1)]
    fields = [3.0, -1.0, 4.0, -1.5, 5.0, -9.0]
    h, ref_h = chain_and_oracle(n, 2, edges, fields)
    basis = FockBasis(n, 2)
    times = np.linspace(0.0, 0.1, 11)
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    cols = dense_columns(h, psi0, times)
    assert np.max(np.abs(cols - full_eigh_columns(ref_h, psi0, times))) < 1e-9
    sizes = sorted(shape[0] for shape in eigh_shapes)
    assert sizes == sorted(math.comb(3, a) * math.comb(3, b) for a in range(4) for b in range(4))
    # domain_wall: left half full, right half empty, so one 1-state block,
    # the only one evolve diagonalizes
    psi0 = named_initial_state(basis, "domain_wall", "spin")
    cols = dense_columns(h, psi0, times)
    assert np.allclose(np.abs(cols), np.abs(psi0)[:, None], atol=1e-14)
    eigh_shapes.clear()
    evolve(h, psi0, cfg(t_max=0.1, n_steps=11, method="dense_eig"), {})
    assert eigh_shapes == [(1, 1)]


def test_dense_blocks_of_a_diagonal_hamiltonian(eigh_shapes):
    # J = 0: every basis state is its own block and only picks up a phase
    n = 4
    fields = (5.0, -3.0, 2.0, 7.5)
    h = build_h_spin(SpinModelSpec(n, tuple((j, j + 1, 0.0) for j in range(n - 1)), fields))
    psi0 = named_initial_state(FockBasis(n, 2), "all_up_x", "spin")
    times = np.linspace(0.0, 0.2, 9)
    cols = dense_columns(h, psi0, times)
    energies = h.matrix.diagonal().real
    ref = psi0[:, None] * np.exp(-2j * np.pi * np.outer(energies, times))
    assert np.max(np.abs(cols - ref)) < 1e-13
    assert eigh_shapes == [(1, 1)] * 2**n


def test_dense_blocks_keep_purely_imaginary_hoppings(eigh_shapes):
    # states 0-1-2 are joined only by imaginary entries and state 3 stands alone;
    # blocks found from the real parts of the values would isolate state 0
    m = np.zeros((4, 4), dtype=complex)
    m[1, 0], m[2, 1] = 3.0j, -2.0j
    m += m.conj().T
    m[3, 3] = 1.0
    h = SparseOperator.from_matrix(m)
    assert h.hermitian
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    times = np.linspace(0.0, 0.3, 13)
    cols = dense_columns(h, psi0, times)
    assert np.max(np.abs(cols - full_eigh_columns(m, psi0, times))) < 1e-12
    assert np.max(np.abs(cols[1])) > 0.5
    assert eigh_shapes == [(3, 3), (1, 1)]
    # evolve finds the touched states from the same pattern
    eigh_shapes.clear()
    n1 = SparseOperator.from_matrix(sp.diags([0.0, 1.0, 0.0, 0.0]))
    traj = evolve(h, psi0, cfg(t_max=0.3, n_steps=13, method="dense_eig"), {"n1": n1})
    assert np.max(np.abs(traj.values["n1"] - np.abs(cols[1]) ** 2)) < 1e-12
    assert eigh_shapes == [(3, 3)]


def csgraph_labels(matrix):
    """The independent oracle: scipy's weakly connected components of the
    ones-valued pattern of ``matrix``."""
    from scipy.sparse.csgraph import connected_components

    csr = sp.csr_matrix(matrix)
    pattern = sp.csr_matrix((np.ones(len(csr.indices)), csr.indices, csr.indptr), shape=csr.shape)
    return connected_components(pattern, directed=False)[1]


@settings(derandomize=True, max_examples=60, deadline=None)
@example(kind="path", n=3000, density=0.0, one_sided=False, seed=1)
@example(kind="path", n=3000, density=0.0, one_sided=True, seed=2)
@given(kind=st.sampled_from(["random", "imaginary", "diagonal", "path"]),
       n=st.integers(1, 3000), density=st.floats(0.0, 3.0), one_sided=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_components_partition_states_as_csgraph_does(kind, n, density, one_sided, seed):
    # random patterns leave states isolated and may store zeros; purely
    # imaginary hoppings count as much as real ones; a diagonal H makes every
    # state its own block; a path through the states in random order is the
    # worst case of label propagation.  One-sided entries join weakly
    rng = np.random.default_rng(seed)
    if kind == "path":
        order = rng.permutation(n)
        rows, cols = order[:-1], order[1:]
    else:
        n = min(n, 200)
        m = 0 if kind == "diagonal" else int(density * n)
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
    values = rng.normal(size=len(rows)) * (1j if kind == "imaginary" else 1.0)
    if kind == "random":
        values[rng.random(len(rows)) < 0.1] = 0.0  # stored zeros still join their states
    m = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    if not one_sided:
        m = m + m.conj().T
    m = m + sp.diags(rng.normal(size=n))
    got, want = dynamics._components(m), csgraph_labels(m)
    assert len(got) == n
    # one label per component: the (got, want) pairs match one to one
    assert len(set(zip(got, want))) == len(set(got)) == len(set(want))
    # components are numbered in the order of their lowest states
    assert np.array_equal(np.unique(got), np.arange(len(set(got))))
    assert np.all(np.diff(np.unique(got, return_index=True)[1]) > 0)
    if kind == "diagonal":
        assert np.array_equal(got, np.arange(n))
    if kind == "path":
        assert not got.any()


def test_dense_blocks_take_real_arithmetic_only_on_real_blocks(eigh_shapes):
    # states 0-1-2 form a real block, states 3-4-5 one joined only by imaginary
    # hoppings; a complex psi0 touches both
    m = np.zeros((6, 6), dtype=complex)
    m[1, 0], m[2, 1], m[2, 0] = 7.0, -4.0, 2.5
    m[4, 3], m[5, 4] = 3.0j, -2.0j
    m += m.conj().T
    m[np.diag_indices(6)] = [1.0, -2.0, 0.5, 3.0, 0.0, -1.5]
    h = SparseOperator.from_matrix(m)
    psi0 = np.array([0.3 + 0.4j, 0.0, -0.2j, 0.0, 0.5 - 0.1j, 0.6])
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 0.3, 13)
    cols = dense_columns(h, psi0, times)
    assert np.max(np.abs(cols - full_eigh_columns(m, psi0, times))) < 1e-12
    assert eigh_shapes == [(3, 3)] * 2
    assert eigh_shapes.dtypes == [np.dtype(np.float64), np.dtype(np.complex128)]


def test_real_chain_from_a_complex_state_matches_expm_multiply(eigh_shapes):
    rng = np.random.default_rng(11)
    n = 8
    edges = [(j, j + 1, rng.uniform(10.0, 60.0)) for j in range(n - 1)]
    h = build_h_spin(SpinModelSpec(n, tuple(edges), tuple(rng.uniform(-30.0, 30.0, n))))
    basis = FockBasis(n, 2)
    psi0 = random_sparse_state(rng, basis.dim, 12)
    obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
    traj = evolve(h, psi0, cfg(t_max=0.05, n_steps=41, method="dense_eig"), obs)
    assert eigh_shapes and set(eigh_shapes.dtypes) == {np.dtype(np.float64)}
    ref = expm_multiply_series(h, psi0, obs, 0.05, 41)
    for name in obs:
        assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_dense_blocks_keep_cross_sector_coherences(d):
    # all_up_x spans every particle-number sector; mx couples N to N +- 1 and
    # cxx couples N to N +- 2, so both need the coherences between blocks
    rng = np.random.default_rng(31 + d)
    n = 5
    edges = [(j, j + 1, rng.uniform(10.0, 60.0)) for j in range(n - 1)]
    fields = rng.uniform(-30.0, 30.0, n)
    basis = FockBasis(n, d)
    sector = "spin" if d == 2 else "boson"
    h, ref_h = chain_and_oracle(n, d, edges, fields)
    psi0 = named_initial_state(basis, "all_up_x", sector)
    obs = {name: observable(name, sector, basis) for name in ("mx", "cxx")}
    traj = evolve(h, psi0, cfg(t_max=0.05, n_steps=9, method="dense_eig"), obs)
    for name, op in obs.items():
        ref = oracles.brute_force_expectation_series(ref_h, psi0, op.dense(),
                                                     traj.times)
        assert np.max(np.abs(traj.values[name] - ref)) < 1e-9
        assert np.max(np.abs(traj.values[name])) > 0.1


@pytest.mark.parametrize("hopping", ["real", "imaginary"])
@pytest.mark.parametrize("chunk, widths", [(None, [512, 512, 276]), (35, [35] * 37 + [5])],
                         ids=["chunk512", "chunk35"])
def test_dense_columns_cross_chunk_and_stride_boundaries_on_a_wide_spectrum(
        eigh_shapes, monkeypatch, hopping, chunk, widths):
    # J = 40 MHz and h = 4720 MHz over 0.5 us take phase arguments past 1e4
    # rad; 1300 points make full chunks and a last one that is not a multiple
    # of the 64 (or 35) grid offsets in one phase table
    basis = FockBasis(6, 2)
    h = build_h_spin(chain_spec(6, 40.0, 4720.0))
    m = h.dense()
    if hopping == "imaginary":  # the same pattern, so the complex block path
        m = np.diag(np.diag(m)) + 1j * np.triu(m, 1) - 1j * np.tril(m, -1)
        h = SparseOperator.from_matrix(m)
    if chunk:
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", chunk * basis.dim)
    psi0 = named_initial_state(basis, "all_up_x", "spin")  # touches all 7 blocks
    blocks = list(dense_blocks(h, psi0, 0.5 / 1299, 1300))
    assert [cols.shape[1] for cols in blocks] == widths
    times = np.linspace(0.0, 0.5, 1300)
    assert np.max(np.abs(np.hstack(blocks) - full_eigh_columns(m, psi0, times))) < 1e-9
    # the two one-state blocks hold no hopping, so they stay real
    hopping_blocks = {dtype for shape, dtype in zip(eigh_shapes, eigh_shapes.dtypes)
                      if shape[0] > 1}
    assert len(eigh_shapes) == 7
    assert hopping_blocks == {np.dtype(float if hopping == "real" else complex)}


def test_a_complex_observable_records_through_the_complex_product(recorded):
    # S^y on site 0 holds imaginary entries, so the real interleaved product
    # would be wrong for it; the real observables share the run
    basis = FockBasis(4, 2)
    sy = np.kron(np.eye(8), np.array([[0.0, 0.5j], [-0.5j, 0.0]]))
    obs = {"sy": SparseOperator.from_matrix(sy), "mx": observable("mx", "spin", basis)}
    assert obs["sy"].hermitian
    h = build_h_spin(chain_spec(4, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    traj = evolve(h, psi0, cfg(t_max=0.05, n_steps=41, method="dense_eig"), obs)
    assert {m.dtype for m, _ in recorded} == {np.dtype(complex), np.dtype(float)}
    cols = dense_columns(h, psi0, traj.times)
    for name, op in obs.items():
        ref = np.einsum("ij,ij->j", cols.conj(), op.dense() @ cols).real
        assert np.max(np.abs(traj.values[name] - ref)) < 1e-12
    assert np.max(np.abs(traj.values["sy"])) > 0.1


def test_a_real_observable_takes_the_complex_products_values():
    # mx on 10 spins over a 1024 x 512 block of columns, the size of fig2_mx's
    rng = np.random.default_rng(5)
    real = observable("mx", "spin", FockBasis(10, 2)).matrix
    cols = rng.normal(size=(1024, 512)) + 1j * rng.normal(size=(1024, 512))
    cols /= np.linalg.norm(cols, axis=0)
    as_complex = real.astype(complex)
    assert np.array_equal((real @ cols.view(float)).view(complex), as_complex @ cols)
    bras = cols.conj()
    for got, want in zip(dynamics._expect_cols(real, cols, bras),
                         dynamics._expect_cols(as_complex, cols, bras)):
        assert np.array_equal(got, want)


def whole_chunk_series(h, psi0, t_max, n_steps, ops):
    """Each of ``ops`` recorded with ``_expect_cols`` on every whole chunk the
    dense propagator yields, restricted as ``evolve`` restricts them to the
    states S of the blocks psi0 touches."""
    labels = dynamics._components(h.matrix)
    support = np.flatnonzero(np.isin(labels, labels[psi0 != 0]))
    cut = (lambda m: m) if len(support) == h.dim else (lambda m: m.tocsr()[support][:, support])
    series = {name: [] for name in ops}
    for cols in dynamics._dense_blocks(cut(h.matrix), psi0[support], labels[support],
                                       t_max / (n_steps - 1), n_steps):
        bras = cols.conj()
        for name, m in ops.items():
            series[name].append(dynamics._expect_cols(cut(m), cols, bras)[0])
    return {name: np.concatenate(parts) for name, parts in series.items()}


@pytest.mark.parametrize("case", ["mx", "sy", "leakage"])
def test_recording_a_chunk_in_slices_moves_no_bit(case):
    # 1300 points make chunks of 512, 512 and 276 columns, which the recorder
    # reads 64 at a time; every run touches several blocks of H
    t_max, n_steps = 0.5, 1300
    if case == "leakage":  # EBH at cutoff 3 from the sectors of 0 to 4 bosons, some off the mask
        basis = FockBasis(5, 3)
        h = build_h_ebh(chain_spec(5, 40.0, 4720.0), basis)
        psi0 = product_state(basis, [np.ones(3)] * 2 + [np.array([1.0, 0.0, 0.0])] * 3)
        mask = physical_mask(basis)
        ops = {None: sp.diags(outside(basis.dim, mask), format="csr")}
    else:
        basis = FockBasis(6, 2)
        h = build_h_spin(chain_spec(6, 40.0, 4720.0))
        psi0 = named_initial_state(basis, "all_up_x", "spin")
        mask = None
        if case == "mx":
            ops = {"mx": observable("mx", "spin", basis).matrix}
        else:
            sy = np.kron(np.eye(32), np.array([[0.0, 0.5j], [-0.5j, 0.0]]))
            ops = {"sy": sp.csr_matrix(sy)}
    traj = evolve(h, psi0, cfg(t_max, n_steps, "dense_eig"),
                  {name: SparseOperator.from_matrix(m) for name, m in ops.items() if name},
                  leakage_mask=mask)
    want = whole_chunk_series(h, psi0, t_max, n_steps, ops)
    got = {None: traj.leakage} if case == "leakage" else traj.values
    for name, series in want.items():
        assert np.array_equal(got[name], series)
        assert np.max(np.abs(series)) > 1e-3


def test_a_dense_record_of_every_sector_peaks_within_18_mb():
    # fig2_mx's spin side: all_up_x touches all 1024 states of N=10; a chunk
    # of 512 columns is 8.4 MB, and no second chunk may be alive beside it.
    # Recording whole chunks peaked at 32 MB, and a propagator still holding
    # its last chunk as it forms the next at 19.5 MB
    import tracemalloc

    basis = FockBasis(10, 2)
    h = build_h_spin(chain_spec(10, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = {"mx": observable("mx", "spin", basis)}
    evolve(h, psi0, cfg(0.5, 2, "dense_eig"), obs)  # lazy imports stay out of the count
    tracemalloc.start()
    try:
        evolve(h, psi0, cfg(0.5, 2000, "dense_eig"), obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 10**6


def test_a_dense_record_of_one_block_forms_no_product_beside_its_chunk():
    # fig2_sz's spin side: domain_wall's closure of 252 states, one block, so
    # the product is written into the 252 x 512 chunk (2 MB) and the phases
    # into one array per run.  A fresh phase array and product per chunk,
    # beside the chunk, peaked at 7.1 MB
    import tracemalloc

    spec = chain_spec(10, 40.0, 4720.0)
    full = FockBasis(10, 2)
    psi0 = named_initial_state(full, "domain_wall", "spin")
    basis = closure(full, spin_terms(spec), np.flatnonzero(psi0))
    h, psi0 = build_h_spin(spec, basis), basis.restrict(psi0)
    obs = {"sz1": observable("sz1", "spin", basis)}
    evolve(h, psi0, cfg(0.5, 2), obs)  # lazy imports stay out of the count
    tracemalloc.start()
    try:
        traj = evolve(h, psi0, cfg(0.5, 2000), obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dim == 252 and traj.method == "dense_eig"
    assert peak <= 6.5 * 10**6


def test_fig2_sz_diagonalizes_one_half_filling_block_per_side(eigh_shapes, tmp_path):
    from spinbh.cli import main

    assert main(["--preset", "fig2_sz", "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert eigh_shapes == [(252, 252)] * 2  # spin side, then the cutoff-2 boson side
    assert eigh_shapes.dtypes == [np.dtype(np.float64)] * 2  # both real symmetric


@pytest.mark.parametrize("preset, flags, method", [
    ("fig2_mx", [], "krylov"), ("fig2_sz", [], "dense_eig"), ("fig2_cxx", [], "dense_eig"),
    ("fig2_mx", ["--method", "dense_eig"], "dense_eig"),
    ("fig2_sz", ["--method", "krylov"], "krylov")])
def test_each_fig2_side_records_the_propagator_it_ran(monkeypatch, tmp_path, preset, flags,
                                                       method):
    # under auto, all_up_x on the uniform chain keeps one Lanczos basis over
    # the grid, and domain_wall and neel need the spectrum of their
    # 252-state block; a forced method is the one that runs
    from spinbh.cli import main

    methods = {}
    evolve = dynamics.evolve

    def spy(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        methods[kwargs["hamiltonian_label"]] = traj.method
        return traj

    monkeypatch.setattr(dynamics, "evolve", spy)
    assert main(["--preset", preset, *flags, "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert methods == {"compare:spin": method, "compare:boson": method}


def test_auto_keeps_one_lanczos_basis_that_covers_a_uniform_all_up_x_chain(eigh_shapes,
                                                                           lanczos_starts):
    # all_up_x on a uniform chain lies in the fully symmetric multiplet, one
    # energy per block, so up to rounding its Krylov space has 9 vectors; the
    # shifted phase over the fig2 grid is hundreds of rad, far past what
    # resolve_method lets Lanczos take, yet one basis serves all 2000 points
    n, t_max, n_steps = 8, 0.5, 2000
    basis = FockBasis(n, 2)
    h = build_h_spin(chain_spec(n, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
    auto = evolve(h, psi0, cfg(t_max, n_steps), obs)
    assert lanczos_starts == [(basis.dim,)]
    assert eigh_shapes == [] and auto.method == "krylov"
    krylov = evolve(h, psi0, cfg(t_max, n_steps, "krylov"), obs)  # one propagation, two recorders
    assert all(np.max(np.abs(auto.values[name] - krylov.values[name])) < 1e-11 for name in obs)
    dense = evolve(h, psi0, cfg(t_max, n_steps, "dense_eig"), obs)
    assert dense.method == "dense_eig" and len(eigh_shapes) == n + 1
    ref = expm_multiply_series(h, psi0, obs, t_max, n_steps)
    for name in obs:
        assert np.max(np.abs(auto.values[name] - dense.values[name])) < 1e-9
        assert np.max(np.abs(auto.values[name] - ref[name])) < 1e-9
    assert np.max(np.abs(auto.values["mx"])) > 0.1


def touched_shifted_energies(h_dense, psi0):
    """The distinct energies E - c_b (to 1e-9 MHz) of the eigenvectors psi0 has
    weight on, from a dense eigh of every block b of H (csgraph's components),
    c_b the midpoint of block b's Gershgorin interval."""
    labels = csgraph_labels(h_dense)
    energies = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        sub = h_dense[np.ix_(idx, idx)]
        diag = sub.diagonal().real
        radius = np.abs(sub).sum(1) - np.abs(diag)
        center = (np.min(diag - radius) + np.max(diag + radius)) / 2
        evals, evecs = np.linalg.eigh(sub)
        energies.extend(evals[np.abs(evecs.conj().T @ psi0[idx]) > 1e-8] - center)
    energies = np.sort(energies)
    return energies[np.append(True, np.diff(energies) > 1e-9)]


def test_a_covering_basis_records_without_forming_a_state_column(monkeypatch):
    # the whole grid is recorded from the probe basis's coefficients: neither
    # propagator is entered, and the probe's products are the run's only ones.
    # all_up_x holds one energy per block, and the blocks of n and N - n up
    # spins share their shifted energy, so the basis closes at N/2 + 1 vectors
    entered = []
    for name in ("_krylov_blocks", "_dense_blocks"):
        monkeypatch.setattr(dynamics, name, lambda *args, name=name: entered.append(name))
    for n, closed in ((10, 6), (12, 7)):
        basis = FockBasis(n, 2)
        h = build_h_spin(chain_spec(n, 40.0, 4720.0))
        psi0 = named_initial_state(basis, "all_up_x", "spin")
        assert len(touched_shifted_energies(h.dense(), psi0)) == closed
        obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
        counted = CountingMatrix(h.matrix)
        traj = evolve(SparseOperator(matrix=counted, hermitian=True), psi0, cfg(0.5, 2000), obs)
        assert traj.method == "krylov" and entered == []
        assert counted.matvecs == closed
        assert traj.max_norm_deviation < 1e-12 and np.max(np.abs(traj.values["mx"])) > 0.1


def test_a_lanczos_basis_on_two_opposite_energies_closes_though_every_alpha_is_zero():
    # psi0 on the eigenvectors of -E and +E of a hopping path: T is [[0, E], [E, 0]],
    # so the closing residual is judged against E, not against the zero diagonal
    h = 40.0 * (np.eye(60, k=1) + np.eye(60, k=-1))
    evals, evecs = np.linalg.eigh(h)
    psi0 = (evecs[:, 0] + evecs[:, -1]).astype(complex) / np.sqrt(2)
    vecs, propagate = dynamics._lanczos(lambda x: h @ x, psi0, dynamics.KRYLOV_DIM)
    coeffs, err = propagate(np.array([0.5]))
    exact = evecs @ (np.exp(-1j * dynamics.TWO_PI * evals * 0.5) * (evecs.T @ psi0))
    assert len(vecs) == 2 and err[0] <= dynamics.STEP_TOLERANCE
    assert np.max(np.abs(vecs.T @ coeffs[:, 0] - exact)) < 1e-12


def test_a_covering_record_of_twelve_sites_peaks_within_8_mb():
    # 4096 states over 2000 points: the probe basis (30 x 4096 complex, 2 MB)
    # and one level's slice of it per product.  Recording columns peaked at
    # 12.1 MB, with a 4096 x 30 block of columns and its products alive
    import tracemalloc

    basis = FockBasis(12, 2)
    h = build_h_spin(chain_spec(12, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
    evolve(h, psi0, cfg(0.5, 2), obs)  # lazy imports stay out of the count
    tracemalloc.start()
    try:
        traj = evolve(h, psi0, cfg(0.5, 2000), obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.method == "krylov"
    assert peak <= 8 * 10**6


def interleaved_blocks(rng, sizes, complex_values):
    """A Hermitian H of blocks of ``sizes``, every off-diagonal entry within a
    block of modulus 10 to 40 MHz (so every block's Gershgorin half-width is
    at least 10 MHz), block offsets of up to 5 GHz, and its states shuffled;
    returns H and each block's states."""
    n = sum(sizes)
    order = rng.permutation(n)
    h = np.zeros((n, n), dtype=complex)
    blocks, lo = [], 0
    for size in sizes:
        idx = np.sort(order[lo : lo + size])
        lo += size
        hop = rng.uniform(10.0, 40.0, (size, size)) * rng.choice([-1.0, 1.0], (size, size))
        if complex_values:
            hop = hop * np.exp(2j * np.pi * rng.uniform(size=(size, size)))
        sub = np.triu(hop, 1) + np.triu(hop, 1).conj().T
        sub += np.diag(rng.uniform(-5000.0, 5000.0) + rng.uniform(-20.0, 20.0, size))
        h[np.ix_(idx, idx)] = sub
        blocks.append(idx)
    return h, blocks


@settings(derandomize=True, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sizes=st.lists(st.integers(2, 6), min_size=2, max_size=4), n_eigvecs=st.integers(1, 3),
       complex_h=st.booleans(), complex_obs=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(sizes=[3, 4, 2, 5], n_eigvecs=3, complex_h=True, complex_obs=True, seed=1)
def test_a_covering_basis_records_what_a_full_eigh_gives(eigh_shapes, sizes, n_eigvecs,
                                                         complex_h, complex_obs, seed):
    # psi0 on a few eigenvectors of different blocks spans a Krylov space that
    # one basis holds, while the widest block's shifted phase over the grid
    # (2 pi w t_max >= 2 pi * 10 MHz * 0.5 us) is past what the phase rule lets
    # Lanczos take; the observable couples every block, the mask leaves states
    # of S out, and both are recorded on the basis alone
    eigh_shapes.clear()
    rng = np.random.default_rng(seed)
    h_dense, blocks = interleaved_blocks(rng, sizes, complex_h)
    n = len(h_dense)
    psi0 = np.zeros(n, dtype=complex)
    for b in rng.choice(len(blocks), size=min(n_eigvecs, len(blocks)), replace=False):
        idx = blocks[b]
        vec = np.linalg.eigh(h_dense[np.ix_(idx, idx)])[1][:, rng.integers(len(idx))]
        psi0[idx] += (rng.normal() + 1j * rng.normal()) * vec
    psi0 /= np.linalg.norm(psi0)
    o = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_obs else 0.0)
    o = (o + o.conj().T) / 2
    touched = np.flatnonzero(np.abs(psi0) > 0)
    mask = np.setdiff1d(rng.choice(n, size=n // 2, replace=False), touched[:1])
    t_max, n_steps = 0.5, 150
    traj = evolve(SparseOperator.from_matrix(h_dense), psi0, cfg(t_max, n_steps),
                  {"o": SparseOperator.from_matrix(o)}, leakage_mask=mask)
    assert traj.method == "krylov" and eigh_shapes == []
    cols = full_eigh_columns(h_dense, psi0, traj.times)
    ref = np.einsum("it,it->t", cols.conj(), o @ cols).real
    scale = np.linalg.norm(o, 2)
    assert np.max(np.abs(traj.values["o"] - ref)) < 1e-9 * scale
    ref_leak = np.sum(np.abs(np.delete(cols, mask, axis=0)) ** 2, axis=0)
    assert np.max(ref_leak) > 1e-6  # psi0 has weight off the mask
    assert np.max(np.abs(traj.leakage - ref_leak)) < 1e-9
    assert traj.max_norm_deviation < 1e-12


@settings(derandomize=True, max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([8, 10]), state=st.sampled_from(["neel", "domain_wall"]),
       seed=st.integers(0, 2**32 - 1))
def test_an_inhomogeneous_chain_whose_probe_fails_diagonalizes(eigh_shapes, lanczos_starts, n,
                                                               state, seed):
    # 70 or 252 states in one block, many eigenvectors in psi0, and a
    # shifted phase of hundreds of rad: one basis cannot cover the grid
    eigh_shapes.clear()
    lanczos_starts.clear()
    rng = np.random.default_rng(seed)
    edges = tuple((j, j + 1, rng.uniform(20.0, 60.0)) for j in range(n - 1))
    basis = FockBasis(n, 2)
    h = build_h_spin(SpinModelSpec(n, edges, tuple(rng.uniform(-30.0, 30.0, n))))
    psi0 = named_initial_state(basis, state, "spin")
    obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
    auto = evolve(h, psi0, cfg(0.5, 300), obs)
    assert len(lanczos_starts) == 1 and auto.method == "dense_eig" and eigh_shapes
    dense = evolve(h, psi0, cfg(0.5, 300, "dense_eig"), obs)
    assert all(np.array_equal(auto.values[name], dense.values[name]) for name in obs)
    assert auto.max_norm_deviation == dense.max_norm_deviation


def test_auto_diagonalizes_a_domain_wall_after_one_probe_basis(eigh_shapes, lanczos_starts):
    # over the fig2 grid the one 252-state block of domain_wall needs more
    # than one basis: the probe's bound fails, and the run is the dense one
    basis = FockBasis(10, 2)
    h = build_h_spin(chain_spec(10, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "domain_wall", "spin")
    obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
    auto = evolve(h, psi0, cfg(0.5, 2000), obs)
    assert lanczos_starts == [(252,)]
    assert eigh_shapes == [(252, 252)] and auto.method == "dense_eig"
    dense = evolve(h, psi0, cfg(0.5, 2000, "dense_eig"), obs)
    assert all(np.array_equal(auto.values[name], dense.values[name]) for name in obs)
    assert auto.max_norm_deviation == dense.max_norm_deviation


def test_auto_runs_lanczos_within_the_phase_rule_where_one_basis_does_not_cover(
        eigh_shapes, lanczos_starts):
    # domain_wall on 14 sites touches one block of 3432 states, which
    # _block_centers gives a half-width w = 260 MHz at J = 40 MHz, h = 4720 MHz;
    # over t_max = 0.0153 us the shifted phase 2 pi w t_max is about 25 rad,
    # within KRYLOV_DIM, yet one basis does not cover the grid: the probe
    # alone would fail there and diagonalize the block
    n, t_max, n_steps = 14, 0.0153, 50
    spec = chain_spec(n, 40.0, 4720.0)
    full = FockBasis(n, 2)
    psi0 = named_initial_state(full, "domain_wall", "spin")
    basis = closure(full, spin_terms(spec), np.flatnonzero(psi0))
    assert basis.dim == 3432
    h, psi0 = build_h_spin(spec, basis), basis.restrict(psi0)
    obs = {name: observable(name, "spin", basis) for name in ("sz1", "mx", "cxx")}
    auto = evolve(h, psi0, cfg(t_max, n_steps), obs)
    assert auto.method == "krylov" and eigh_shapes == []
    assert len(lanczos_starts) >= 2
    ref = expm_multiply_series(h, psi0, obs, t_max, n_steps)
    for name in obs:
        assert np.max(np.abs(auto.values[name] - ref[name])) < 1e-9


def test_forced_dense_cutoff3_chain_of_ten_matches_krylov():
    # dim 3**10 = 59049 is past DENSE_DIM_LIMIT, but domain_wall touches only the
    # 252 hard-core states at half filling, which H never leaves
    n_steps = 10
    t_max = (n_steps - 1) * 0.5 / 1999
    basis = FockBasis(10, 3)
    h = build_h_ebh(chain_spec(10, 40.0, 4720.0), basis)
    psi0 = named_initial_state(basis, "domain_wall", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    runs = {method: evolve(h, psi0, cfg(t_max, n_steps, method), obs,
                           leakage_mask=physical_mask(basis))
            for method in ("dense_eig", "krylov")}
    for name in obs:
        diff = runs["dense_eig"].values[name] - runs["krylov"].values[name]
        assert np.max(np.abs(diff)) < 1e-8
    assert np.all(runs["dense_eig"].leakage == 0.0)


def test_dense_chunks_shrink_past_the_dense_limit():
    # a 13-site chain with every second link at zero splits into blocks of at
    # most 2**6 states, but all_up_x touches all 8192 > DENSE_DIM_LIMIT of
    # them; full-length chunks shrink, so memory stays bounded
    n = 13
    h = build_h_spin(SpinModelSpec(
        n, tuple((j, j + 1, 40.0 if j % 2 == 0 else 0.0) for j in range(n - 1)), (4720.0,) * n))
    psi0 = named_initial_state(FockBasis(n, 2), "all_up_x", "spin")
    widths = [cols.shape[1] for cols in dense_blocks(h, psi0, 0.5 / 1999, 80)]
    assert sum(widths) == 80 and max(widths) * 2**n <= dynamics._CHUNK_ENTRIES


# ---------------------------------------------------------------- touched support

@pytest.mark.parametrize("method", ["dense_eig", "krylov", "auto"])
@pytest.mark.parametrize("state", ["zero", "nan"])
def test_a_zero_or_nan_initial_state_raises(state, method):
    # a zero state touches no block of H; a NaN amplitude touches one
    basis = FockBasis(4, 3)
    psi0 = np.zeros(basis.dim, dtype=complex)
    if state == "nan":
        psi0 = named_initial_state(basis, "neel", "boson")
        psi0[7] = np.nan
    with pytest.raises(NumericalError):
        evolve(build_h_ebh(chain_spec(4, 40.0, 4720.0), basis), psi0,
               cfg(t_max=0.01, n_steps=5, method=method),
               {"sz1": observable("sz1", "boson", basis)}, leakage_mask=physical_mask(basis))


def random_cutoff3_hamiltonian(rng, n, model):
    """An inhomogeneous EBH chain, or a full circuit whose interior links are
    each off the exact constraint by their own amount, at cutoff 3."""
    basis = FockBasis(n, 3)
    if model == "ebh":
        edges = [(j, j + 1, rng.uniform(-60.0, 60.0)) for j in range(n - 1)]
        spec = SpinModelSpec(n, tuple(edges), tuple(rng.uniform(-30.0, 30.0, n)))
        return build_h_ebh(spec, basis)
    circuit = chain_circuit(n, 200.0, rng.uniform(11000.0, 14000.0), 1562.5, 0.0,
                            include_boundary=True)
    e_coup = (0.0, *rng.uniform(5.0, 20.0, n - 1), 0.0)
    return build_h_jja(derive_jja_params(dataclasses.replace(circuit, e_coup=e_coup)),
                       basis, "full")


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(3, 6), model=st.sampled_from(["ebh", "jja"]),
       state=st.sampled_from(["random", "domain_wall", "neel"]), seed=st.integers(0, 2**32 - 1))
def test_evolve_on_the_touched_states_matches_expm_multiply_on_the_full_space(n, model, state,
                                                                              seed):
    # a random sparse start spans several particle-number sectors and
    # non-hard-core states, so the touched states hold leakage and coherences
    assume(state != "domain_wall" or n % 2 == 0)
    rng = np.random.default_rng(seed)
    basis = FockBasis(n, 3)
    h = random_cutoff3_hamiltonian(rng, n, model)
    if state == "random":
        psi0 = random_sparse_state(rng, basis.dim, int(rng.integers(2, 7)))
    else:
        psi0 = named_initial_state(basis, state, "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    t_max, n_steps = 0.02, 11
    states = expm_multiply(-2j * np.pi * h.matrix, psi0,
                           start=0.0, stop=t_max, num=n_steps, endpoint=True)
    ref = {name: np.einsum("ti,ti->t", states.conj(), (op.matrix @ states.T).T).real
           for name, op in obs.items()}
    off = np.ones(basis.dim, dtype=bool)
    off[physical_mask(basis)] = False
    ref_leak = np.sum(np.abs(states[:, off]) ** 2, axis=1)
    for method in ("auto", "dense_eig", "krylov"):
        traj = evolve(h, psi0, cfg(t_max, n_steps, method), obs,
                      leakage_mask=physical_mask(basis))
        for name in obs:
            assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9
        assert np.max(np.abs(traj.leakage - ref_leak)) < 1e-9


def test_auto_evolves_a_cutoff3_chain_of_ten_on_its_touched_states(eigh_shapes, lanczos_starts,
                                                                   monkeypatch):
    # dim 3**10 = 59049 is past DENSE_DIM_LIMIT, but domain_wall touches only the
    # 252 hard-core states at half filling.  Over nine intervals at the fig2
    # spacing their shifted phase is 2.5 rad, which one Lanczos basis
    # covers; over the whole fig2 grid it is hundreds of rad, so auto tries
    # one basis, whose bound fails, then diagonalizes and records on those
    # states instead
    n_steps = 10
    t_max = (n_steps - 1) * 0.5 / 1999
    basis = FockBasis(10, 3)
    h = build_h_ebh(chain_spec(10, 40.0, 4720.0), basis)
    psi0 = named_initial_state(basis, "domain_wall", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    lengths = []
    dense_blocks = dynamics._dense_blocks

    def spy(*args):
        for cols in dense_blocks(*args):
            lengths.append(cols.shape[0])
            yield cols

    monkeypatch.setattr(dynamics, "_dense_blocks", spy)
    auto = evolve(h, psi0, cfg(t_max, n_steps), obs, leakage_mask=physical_mask(basis))
    assert lanczos_starts == [(252,)]
    assert eigh_shapes == [] and lengths == []
    assert np.all(auto.leakage == 0.0) and auto.method == "krylov"
    dense = evolve(h, psi0, cfg(t_max, n_steps, "dense_eig"), obs)
    for name in obs:
        assert np.max(np.abs(auto.values[name] - dense.values[name])) < 1e-8
    lanczos_starts.clear()
    eigh_shapes.clear()
    fig2 = evolve(h, psi0, cfg(0.5, 2000), obs, leakage_mask=physical_mask(basis))
    assert lanczos_starts == [(252,)]
    assert eigh_shapes == [(252, 252)]
    assert set(lengths) == {252}
    assert np.all(fig2.leakage == 0.0) and fig2.method == "dense_eig"


@settings(derandomize=True, max_examples=15, deadline=None)
@given(n=st.integers(3, 5), state=st.sampled_from(["all_up_x", "random"]),
       t_max=st.floats(1e-3, 0.05), n_steps=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_shifted_lanczos_matches_expm_multiply_on_random_full_circuits(n, state, t_max, n_steps,
                                                                       seed):
    # each particle-number sector of an off-constraint full circuit sits
    # about 5000 MHz per photon from the next; all_up_x touches every sector
    # and a random sparse start several, so mx and cxx read the per-block
    # phases that Lanczos on H - diag(c) leaves out and the columns get back
    rng = np.random.default_rng(seed)
    basis = FockBasis(n, 3)
    h = random_cutoff3_hamiltonian(rng, n, "jja")
    if state == "random":
        psi0 = random_sparse_state(rng, basis.dim, int(rng.integers(2, 7)))
    else:
        psi0 = named_initial_state(basis, state, "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    states = expm_multiply(-2j * np.pi * h.matrix, psi0,
                           start=0.0, stop=t_max, num=n_steps, endpoint=True)
    ref = {name: np.einsum("ti,ti->t", states.conj(), (op.matrix @ states.T).T).real
           for name, op in obs.items()}
    off = np.ones(basis.dim, dtype=bool)
    off[physical_mask(basis)] = False
    traj = evolve(h, psi0, cfg(t_max, n_steps, "krylov"), obs, leakage_mask=physical_mask(basis))
    for name in obs:
        assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9
    assert np.max(np.abs(traj.leakage - np.sum(np.abs(states[:, off]) ** 2, axis=1))) < 1e-9


def test_a_full_circuit_crosses_forty_fig2_intervals_in_few_lanczos_bases(lanczos_starts):
    # full JJA at N=8, cutoff 3, exact coupling: all_up_x touches the sectors
    # of 0 to 8 photons, 3834 of 6561 states, about 5000 MHz per photon apart.
    # Unshifted, Lanczos resolved those offsets too and took 78 bases over
    # these 39 intervals; the widest sector's Gershgorin half-width is 540 MHz
    n, n_steps = 8, 40
    t_max = (n_steps - 1) * 0.5 / 1999
    circuit = chain_circuit(n, 200.0, 12500.0, 1562.5, 0.0, include_boundary=True)
    params = derive_jja_params(dataclasses.replace(circuit, e_coup=exact_couplings(circuit)))
    basis = FockBasis(n, 3)
    h = build_h_jja(params, basis, "full")
    psi0 = named_initial_state(basis, "all_up_x", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx")}
    traj = evolve(h, psi0, cfg(t_max, n_steps, "krylov"), obs)
    assert 1 <= len(lanczos_starts) <= 4
    assert set(lanczos_starts) == {(3834,)}
    ref = expm_multiply_series(h, psi0, obs, t_max, n_steps)
    for name in obs:
        assert np.max(np.abs(traj.values[name] - ref[name])) < 1e-9


@pytest.fixture
def lanczos_starts(monkeypatch):
    """Shapes of the vectors the Lanczos bases start from, in call order."""
    shapes = []
    lanczos = dynamics._lanczos

    def spy(*args):
        shapes.append(args[1].shape)
        return lanczos(*args)

    monkeypatch.setattr(dynamics, "_lanczos", spy)
    return shapes


@pytest.fixture
def recorded(monkeypatch):
    """(matrix, column length) of every expectation the recorder takes, in call order."""
    calls = []
    expect_cols = dynamics._expect_cols

    def spy(matrix, cols, bras):
        calls.append((matrix, cols.shape[0]))
        return expect_cols(matrix, cols, bras)

    monkeypatch.setattr(dynamics, "_expect_cols", spy)
    return calls


def test_auto_builds_lanczos_bases_when_the_touched_states_pass_the_dense_limit(
        eigh_shapes, lanczos_starts, recorded):
    # every site in (|0> + |1> + |2>)/sqrt(3) touches all 3**8 = 6561 states
    basis = FockBasis(8, 3)
    h = build_h_ebh(chain_spec(8, 40.0, 4720.0), basis)
    psi0 = product_state(basis, [np.ones(3)] * 8)
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx")}
    counted = CountingMatrix(h.matrix)
    traj = evolve(SparseOperator(matrix=counted, hermitian=True), psi0, cfg(t_max=1e-3, n_steps=3),
                  obs)
    assert lanczos_starts and set(lanczos_starts) == {(basis.dim,)}
    assert eigh_shapes == []
    assert traj.max_norm_deviation < 1e-9
    # S is the whole space, so every Lanczos product goes through the matrix
    # handed in, and each observable is recorded through its own matrix, not
    # a sliced copy, on full-length columns
    assert counted.matvecs == dynamics.KRYLOV_DIM * len(lanczos_starts)
    assert {id(m) for m, _ in recorded} == {id(op.matrix) for op in obs.values()}
    assert {rows for _, rows in recorded} == {basis.dim}


def test_forced_krylov_records_a_cutoff3_chain_of_ten_on_its_touched_states(lanczos_starts,
                                                                             recorded):
    # of the 59049 states, Lanczos propagates and recording reads only the 252
    # hard-core states at half filling that domain_wall touches, where Q is zero
    n_steps = 10
    t_max = (n_steps - 1) * 0.5 / 1999
    basis = FockBasis(10, 3)
    h = build_h_ebh(chain_spec(10, 40.0, 4720.0), basis)
    psi0 = named_initial_state(basis, "domain_wall", "boson")
    obs = {name: observable(name, "boson", basis) for name in ("sz1", "mx", "cxx")}
    krylov = evolve(h, psi0, cfg(t_max, n_steps, "krylov"), obs,
                    leakage_mask=physical_mask(basis))
    assert lanczos_starts and set(lanczos_starts) == {(252,)}
    assert {(m.shape, rows) for m, rows in recorded} == {((252, 252), 252)}
    assert len(recorded) % len(obs) == 0  # no block records Q
    assert np.all(krylov.leakage == 0.0)
    dense = evolve(h, psi0, cfg(t_max, n_steps, "dense_eig"), obs)
    for name in obs:
        assert np.max(np.abs(krylov.values[name] - dense.values[name])) < 1e-8


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
@pytest.mark.parametrize("state, touched", [("domain_wall", 20), ("all_up_x", 64)])
def test_evolve_finds_the_blocks_once(monkeypatch, lanczos_starts, method, state, touched):
    # domain_wall touches the 20 half-filling states of 64, all_up_x every state
    calls = []
    components = dynamics._components

    def spy(matrix):
        calls.append(matrix.shape)
        return components(matrix)

    monkeypatch.setattr(dynamics, "_components", spy)
    basis = FockBasis(6, 2)
    h = build_h_spin(chain_spec(6, 40.0, 4720.0))
    psi0 = named_initial_state(basis, state, "spin")
    evolve(h, psi0, cfg(t_max=0.01, n_steps=5, method=method),
           {"sz1": observable("sz1", "spin", basis)})
    assert calls == [(64, 64)]
    assert set(lanczos_starts) == (set() if method == "dense_eig" else {(touched,)})


def test_forced_dense_refuses_a_block_past_the_memory_budget(eigh_shapes, lanczos_starts):
    # all_up_x touches every sector of a 16-site chain; its largest block holds
    # C(16, 8) = 12870 states, and with every block's real eigenvectors the
    # estimate is 9.4 GiB
    basis = FockBasis(16, 2)
    h = build_h_spin(chain_spec(16, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    obs = {"sz1": observable("sz1", "spin", basis)}
    with pytest.raises(InvalidSpecError, match="block of 12870 states"):
        evolve(h, psi0, cfg(t_max=1e-3, n_steps=3, method="dense_eig"), obs)
    assert eigh_shapes == []
    traj = evolve(h, psi0, cfg(t_max=1e-3, n_steps=3), obs)  # auto runs Lanczos
    assert lanczos_starts and set(lanczos_starts) == {(basis.dim,)}
    assert eigh_shapes == []
    assert traj.max_norm_deviation < 1e-9


def test_forced_dense_budget_counts_the_eigenvectors_of_every_touched_block(
        eigh_shapes, monkeypatch):
    # all_up_x on 6 sites touches real blocks of 1, 6, 15, 20, 15, 6 and 1 states:
    # their eigenvectors take 8 B per entry (924 entries), plus 32 B per entry of
    # the 20-state block; one byte less is refused, though three complex arrays
    # of the largest block alone (19 200 B) would fit
    basis = FockBasis(6, 2)
    h = build_h_spin(chain_spec(6, 40.0, 4720.0))
    psi0 = named_initial_state(basis, "all_up_x", "spin")
    need = 8 * 924 + 32 * 20**2
    monkeypatch.setattr(dynamics, "MAX_RUN_BYTES", need)
    traj = evolve(h, psi0, cfg(t_max=1e-3, n_steps=3, method="dense_eig"), {})
    assert traj.max_norm_deviation < 1e-9
    assert sorted(eigh_shapes) == sorted((math.comb(6, k),) * 2 for k in range(7))
    eigh_shapes.clear()
    monkeypatch.setattr(dynamics, "MAX_RUN_BYTES", need - 1)
    with pytest.raises(InvalidSpecError, match="block of 20 states"):
        evolve(h, psi0, cfg(t_max=1e-3, n_steps=3, method="dense_eig"), {})
    assert eigh_shapes == []
