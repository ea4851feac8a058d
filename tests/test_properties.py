"""Property tests: every builder against the dense oracles on random
inhomogeneous specs, with couplings on arbitrary (also non-adjacent) pairs,
builds on a subset of the states (the hard-core states, closures of the
named states, random subsets) against the sliced full builds, ``project``
against dense slicing on random chains and circuits, command-line runs on
closures against library runs on the full space, the circuit designer
on random homogeneous targets, the command line on random, often
broken, experiment configs, and Lanczos bases from a few eigenvectors
against ``expm_multiply``.

Examples are derandomized so the suite stays deterministic.  The dense
oracles cost O(dim^3) per term, so (N, cutoff) pairs above dim 256 are not
drawn; that leaves out only N=5 at cutoff 4.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

import oracles
import spinbh.mapping
import spinbh.model
from spinbh.cli import main
from spinbh.config import ENCODINGS, KINDS
from spinbh.dynamics import (
    KRYLOV_DIM,
    STEP_TOLERANCE,
    EvolutionConfig,
    _block_centers,
    _components,
    _lanczos,
    _shifted,
    evolve,
)
from spinbh.errors import InvalidSpecError
from spinbh.hilbert import NAMED_STATES, FockBasis, named_initial_state, physical_mask
from spinbh.mapping import (
    FIELD_SOLVE_BRACKET,
    JJAParams,
    circuit_to_spin,
    constraint_residual,
    derive_jja_params,
    design_circuit,
    parameter_sheet,
)
from spinbh.model import (
    EXACT_REGIME_TOL,
    CircuitSpec,
    SpinModelSpec,
    chain_circuit,
    chain_spec,
    validate,
)
from spinbh.operators import (
    DROP_THRESHOLD,
    HERMITIAN_TOL,
    OBSERVABLE_NAMES,
    assemble,
    build_h_dm,
    build_h_ebh,
    build_h_jja,
    build_h_spin,
    closure,
    ebh_terms,
    jja_terms,
    local_ops,
    observable,
    spin_terms,
)
from spinbh.verify import project

REL_TOL = 1e-14
MAX_ORACLE_DIM = 256

examples = settings(derandomize=True, max_examples=40, deadline=None)


def mhz(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def per(n, values):
    return st.lists(values, min_size=n, max_size=n).map(tuple)


@st.composite
def sites_and_cutoff(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, 4).filter(lambda d: d**n <= MAX_ORACLE_DIM))
    return n, d


@st.composite
def spin_specs(draw, n):
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = tuple((j, k, draw(mhz(-100.0, 100.0))) for j, k in sorted(chosen))
    return SpinModelSpec(n, edges, draw(per(n, mhz(-5000.0, 5000.0))))


@st.composite
def jja_params(draw, n):
    site = lambda lo, hi: draw(per(n, mhz(lo, hi)))
    link = lambda lo, hi: draw(per(n - 1, mhz(lo, hi)))
    return JJAParams(
        n_sites=n, omega=site(4000.0, 6000.0), delta_omega=site(-300.0, 0.0),
        e_l=site(10000.0, 20000.0), t=link(-50.0, 50.0), delta=link(0.0, 100.0),
        corr_t=link(-10.0, 10.0), corr_tp=link(-10.0, 10.0), delta_tilde=site(0.0, 100.0),
    )


def assert_matches(op, ref):
    # entries at or below the absolute drop threshold are not stored
    bound = max(REL_TOL * np.max(np.abs(ref)), DROP_THRESHOLD)
    assert np.max(np.abs(op.dense() - ref)) <= bound


@examples
@given(st.integers(2, 5).flatmap(spin_specs))
def test_h_spin_matches_oracle_on_random_graphs(spec):
    assert_matches(build_h_spin(spec), oracles.dense_h_spin(spec.n_sites, spec.edges, spec.fields))


@examples
@given(st.data())
def test_boson_encodings_match_oracles_on_random_graphs(data):
    n, d = data.draw(sites_and_cutoff())
    spec = data.draw(spin_specs(n))
    basis = FockBasis(n, d)
    assert_matches(build_h_ebh(spec, basis), oracles.dense_h_ebh(n, d, spec.edges, spec.fields))
    assert_matches(build_h_dm(spec, basis), oracles.dense_h_dm(n, d, spec.edges, spec.fields))


@examples
@given(st.data())
def test_h_jja_matches_oracle_on_random_params(data):
    n, d = data.draw(sites_and_cutoff())
    p = data.draw(jja_params(n))
    basis = FockBasis(n, d)
    for variant in ("simplified", "full"):
        ref = oracles.dense_h_jja(n, d, p.omega, p.delta_omega, p.t, p.delta,
                                  p.corr_t, p.corr_tp, p.delta_tilde, variant)
        assert_matches(build_h_jja(p, basis, variant), ref)


# ------------------------------------------------ builds on some of the states

@st.composite
def ebh_chains(draw, n):
    """Chain with per-link J (zero allowed), per-site h and an optional
    non-adjacent edge."""
    coupling = mhz(-100.0, 100.0) | st.just(0.0)
    edges = [(j, j + 1, draw(coupling)) for j in range(n - 1)]
    if n > 2 and draw(st.booleans()):
        j = draw(st.integers(0, n - 3))
        edges.append((j, draw(st.integers(j + 2, n - 1)), draw(coupling)))
    return SpinModelSpec(n, tuple(sorted(edges)), draw(per(n, mhz(-5000.0, 5000.0))))


@examples
@given(st.integers(2, 5).flatmap(spin_specs) | st.integers(2, 8).flatmap(ebh_chains))
def test_every_drawn_spin_spec_validates(spec):
    # a spin model is checked whole at construction: a rebuild passes every check again
    assert replace(spec) == spec


@st.composite
def hardcore_cases(draw, max_sites=8):
    """(encoding, spec or JJA params, cutoff): N 2 to ``max_sites`` at cutoff 3 or 4."""
    n, d = draw(st.integers(2, max_sites)), draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        return "ebh", draw(ebh_chains(n)), d
    return draw(st.sampled_from(["simplified", "full"])), draw(jja_params(n)), d


PAPER_CIRCUIT_11 = derive_jja_params(chain_circuit(11, 200.0, 12500.0, 1562.5, 20.0,
                                                   include_boundary=True))


def builder(encoding, model):
    """The basis -> operator build of ``encoding`` (ebh, dm, simplified, full)."""
    if encoding == "ebh":
        return lambda basis: build_h_ebh(model, basis)
    if encoding == "dm":
        return lambda basis: build_h_dm(model, basis)
    return lambda basis: build_h_jja(model, basis, encoding)


def model_terms(encoding, model, d):
    return ebh_terms(model, d) if encoding == "ebh" else jja_terms(model, d, encoding)


@st.composite
def subset_cases(draw):
    """(encoding, model, cutoff, subset): EBH, DM or JJA chains at N 2-7 and
    cutoff 2-4 (dim <= 4096), with the hard-core states, a closure of a named
    state's support (not for DM, which no run evolves) or a random sorted subset
    (seed, share of states kept)."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(2, 4).filter(lambda d: d**n <= 4096))
    encoding = draw(st.sampled_from(["ebh", "dm", "simplified", "full"]))
    model = draw(ebh_chains(n) if encoding in ("ebh", "dm") else jja_params(n))
    kind = draw(st.sampled_from(["hard-core", "random"] + ["closure"] * (encoding != "dm")))
    if kind == "closure":
        subset = draw(st.sampled_from([s for s in NAMED_STATES if s != "domain_wall" or n % 2 == 0]))
    elif kind == "random":
        subset = draw(st.tuples(st.integers(0, 2**16), st.sampled_from([0.1, 0.5, 0.9])))
    else:
        subset = kind
    return encoding, model, d, subset


def subset_states(encoding, model, d, subset):
    full = FockBasis(model.n_sites, d)
    if subset == "hard-core":
        return physical_mask(full)
    if isinstance(subset, str):
        seeds = np.flatnonzero(named_initial_state(full, subset))
        return closure(full, model_terms(encoding, model, d), seeds).states
    seed, kept = subset
    rng = np.random.default_rng(seed)
    inside = rng.random(full.dim) < kept
    inside[rng.integers(full.dim)] = True
    return np.flatnonzero(inside)


def assert_same_csr(got, want):
    want = want.sorted_indices()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


@examples
@given(subset_cases())
@example(("ebh", chain_spec(11, 40.0, 4720.0), 3, "hard-core"))
@example(("full", PAPER_CIRCUIT_11, 3, "hard-core"))
@example(("full", PAPER_CIRCUIT_11, 3, "all_up_x"))
def test_subset_builds_equal_sliced_full_builds(case):
    encoding, model, d, subset = case
    build = builder(encoding, model)
    states = subset_states(*case)
    full_basis = FockBasis(model.n_sites, d)
    basis = FockBasis(model.n_sites, d, states)
    if basis.states is None:  # a closure of every state is the full basis
        states = np.arange(full_basis.dim)
    full, part = build(full_basis), build(basis)
    assert_same_csr(part.matrix, full.matrix[states][:, states])
    for name in OBSERVABLE_NAMES:
        sliced = observable(name, "boson", full_basis).matrix[states][:, states]
        assert_same_csr(observable(name, "boson", basis).matrix, sliced)
    if subset == "hard-core":  # verify's build: its dropped entries are Q H P
        assert part.dropped == project(full, states)[1]
        assert project(part, np.arange(part.dim))[1] == part.dropped
    elif isinstance(subset, str):  # H never leaves a closure
        assert part.dropped == 0.0


@examples
@given(st.data())
def test_spin_closure_is_the_touched_blocks_and_builds_slice_the_full_space(data):
    # the command line's spin side: built and observed on the closure of psi0
    # under the spin terms, which holds the blocks of H that psi0 touches, with
    # every operator the full-space one sliced to it, bit for bit
    spec = data.draw(st.integers(2, 8).flatmap(spin_specs))
    name = data.draw(st.sampled_from(
        [s for s in NAMED_STATES if s != "domain_wall" or spec.n_sites % 2 == 0]))
    full_basis = FockBasis(spec.n_sites, 2)
    psi0 = named_initial_state(full_basis, name, "spin")
    basis = closure(full_basis, spin_terms(spec), np.flatnonzero(psi0))
    full = build_h_spin(spec)
    labels = _components(full.matrix)
    states = np.arange(full.dim) if basis.states is None else basis.states
    touched = np.flatnonzero(np.isin(labels, labels[psi0 != 0]))
    assert np.isin(touched, states).all()
    # a hopping J/2 at or below DROP_THRESHOLD is no stored entry of H, but the
    # closure still follows it; with every hopping stored it holds no more states
    if all(abs(0.5 * coupling) > DROP_THRESHOLD for _, _, coupling in spec.edges if coupling):
        assert np.array_equal(states, touched)
    pairs = [(build_h_spin(spec, basis), full)] + [
        (observable(o, "spin", basis), observable(o, "spin", full_basis)) for o in OBSERVABLE_NAMES]
    for got, want in pairs:
        sliced = want.matrix[states][:, states].sorted_indices()
        assert np.array_equal(got.matrix.indptr, sliced.indptr)
        assert np.array_equal(got.matrix.indices, sliced.indices)
        assert np.array_equal(got.matrix.data.view(np.int64), sliced.data.view(np.int64))
        assert got.hermitian == want.hermitian


@st.composite
def term_lists(draw):
    """(N, d, states, terms): one to ten random complex terms of one to three
    factors on any sites (several may share one), with entries from a set that
    cancels exactly, with or without their adjoints (whose conjugated zeros are
    -0.0), on all d**N <= 1024 states (states None) or a random sorted subset."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(2, 4).filter(lambda d: d**n <= 1024))
    entry = st.sampled_from([0j] * 5 + [1, -1, 0.5, 1j, -0.25j, 1 + 1j, 1e3, 3e-13])
    local = st.lists(entry, min_size=d * d, max_size=d * d).map(
        lambda v: np.array(v, dtype=complex).reshape(d, d))
    coeff = st.sampled_from([1.0, -0.5, 2.0]) | st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    term = st.tuples(coeff, st.lists(st.tuples(st.integers(0, n - 1), local), min_size=1,
                                     max_size=3).map(tuple))
    terms = draw(st.lists(term, min_size=1, max_size=10))
    if draw(st.booleans()):
        terms += [(np.conj(c), tuple((s, m.conj().T) for s, m in reversed(f))) for c, f in terms]
    kept = draw(st.sampled_from([None, 0.1, 0.5, 0.9]))
    if kept is None:
        return n, d, None, terms
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    inside = rng.random(d**n) < kept
    inside[rng.integers(d**n)] = True
    return n, d, np.flatnonzero(inside), terms


OPS3 = local_ops(3)
HARD_CORE_11 = np.sort(physical_mask(FockBasis(11, 3)))


@examples
@given(term_lists())
# a single-site off-diagonal factor hits the entries of a pair support
@example((2, 3, None, [(0.7, ((0, OPS3.adag),)), (1.3, ((0, OPS3.adag), (1, OPS3.n))),
                       (-0.7, ((0, OPS3.adag),))]))
@example((11, 3, HARD_CORE_11, jja_terms(PAPER_CIRCUIT_11, 3, "full")))
@example((11, 3, HARD_CORE_11, jja_terms(PAPER_CIRCUIT_11, 3, "simplified")))
def test_one_pass_sum_equals_the_running_sum_bit_for_bit(case):
    n, d, states, terms = case
    basis = FockBasis(n, d, states)
    op = assemble(basis, terms)
    want, dropped, hermitian = oracles.running_sum_assemble(n, d, basis.states, terms,
                                                            DROP_THRESHOLD, HERMITIAN_TOL)
    assert np.array_equal(op.matrix.indptr, want.indptr)
    assert np.array_equal(op.matrix.indices, want.indices)
    assert np.array_equal(op.matrix.data.view(np.int64), want.data.view(np.int64))  # signed zeros too
    assert (op.dropped, op.hermitian) == (dropped, hermitian)


@examples
@given(hardcore_cases(max_sites=5),
       st.none() | st.tuples(st.integers(0, 2**16), st.sampled_from([0.1, 0.5, 1.0])))
def test_project_matches_dense_slicing(case, random_mask):
    """P H P and the largest |Q H P| entry against slices of the dense matrix,
    for the hard-core mask (None) or a random one: (seed, share of states kept)."""
    encoding, model, d = case
    basis = FockBasis(model.n_sites, d)
    build = builder(encoding, model)
    op = build(basis)
    if random_mask is None:
        mask = physical_mask(basis)
    else:
        seed, kept = random_mask
        rng = np.random.default_rng(seed)
        inside = rng.random(basis.dim) < kept
        inside[rng.integers(basis.dim)] = True
        mask = np.flatnonzero(inside)
    rest = np.setdiff1d(np.arange(basis.dim), mask)
    dense = op.dense()
    qhp = np.abs(dense[np.ix_(rest, mask)])
    php, coupling = project(op, mask)
    assert coupling == (np.max(qhp) if qhp.size else 0.0)
    assert np.array_equal(php.dense(), dense[np.ix_(mask, mask)])
    if random_mask is None:  # the hard-core build keeps Q H P only as its largest entry
        assert project(build(FockBasis(basis.n_sites, d, mask)), np.arange(len(mask)))[1] == coupling


# ------------------------------------------------------- regime warnings

@st.composite
def accepted_circuits(draw):
    """Inhomogeneous circuits that ``validate`` accepts, near and far from the
    exact scheme: per-site E_J, per-link E'_J (a boundary link zero or not), E_C
    at one E_C/E_L ratio times a per-site factor, and each interior E_coup at
    its exact value times a per-link factor.  A factor is 1, within 3e-6 of 1
    (either side of the 1e-6 tolerance) or anywhere in [0.5, 1.5]."""
    n = draw(st.integers(1, 6))
    factor = st.just(1.0) | mhz(1.0 - 3e-6, 1.0 + 3e-6) | mhz(0.5, 1.5)
    boundary = st.just(0.0) | mhz(0.0, 250.0)
    e_j = draw(per(n, mhz(1e3, 3e4)))
    eprime = (draw(boundary), *draw(per(n - 1, mhz(1.0, 250.0))), draw(boundary))
    e_l = [e_j[s] + eprime[s] + eprime[s + 1] for s in range(n)]
    ratio = draw(mhz(0.005, 0.05))
    e_c = tuple(ratio * e_l[s] * draw(factor) for s in range(n))
    exact = [eprime[i + 1] * e_c[i] / e_l[i] * (1.0 - math.sqrt(e_c[i] / (2.0 * e_l[i])))
             for i in range(n - 1)]
    e_coup = (0.0, *(x * draw(factor) for x in exact), 0.0)
    return CircuitSpec(n, e_c, e_j, eprime, e_coup)


@examples
@given(accepted_circuits())
def test_validate_warns_exactly_when_the_circuit_is_not_exact(circuit):
    warned = validate(circuit)
    n, e_c = circuit.n_sites, np.array(circuit.e_c)
    e_l = np.add(circuit.e_j, circuit.eprime_j[:-1]) + circuit.eprime_j[1:]
    ratio = e_c / e_l
    spread = (ratio.max() - ratio.min()) / ratio.max()
    left = slice(0, n - 1)
    exact = np.multiply(circuit.eprime_j[1:n], ratio[left]) * (1.0 - np.sqrt(ratio[left] / 2.0))
    given = np.array(circuit.e_coup[1:n])
    miss = np.max(np.abs(given - exact) / np.maximum(given, exact), initial=0.0)
    for value, prefix in ((spread, "E_C/E_L varies by"), (miss, "coupling constraint violated")):
        if abs(value / EXACT_REGIME_TOL - 1.0) > 1e-9:  # rounding decides within the band
            assert any(w.startswith(prefix) for w in warned) == (value > EXACT_REGIME_TOL)
    # the mapping computes and never warns (pytest.ini makes any UserWarning an error)
    derive_jja_params(circuit)
    circuit_to_spin(circuit)
    parameter_sheet(circuit)


def bulk_field(e_c, coupling, e_j):
    """Interior-site field of the homogeneous design with Josephson energy e_j."""
    return math.sqrt(8.0 * e_c * e_j * e_c / (e_c - coupling)) - e_c - 2.0 * coupling


@st.composite
def design_targets(draw):
    """(E_C, J, reachable h, N, include_boundary).  E_J/E_C stays below 1e4,
    which keeps h under ~2e5 MHz, where 1e-9 MHz is still far above the
    double-precision spacing."""
    e_c = draw(mhz(50.0, 500.0))
    coupling = draw(mhz(0.0, 0.49 * e_c))
    field = bulk_field(e_c, coupling, e_c * 10.0 ** draw(st.floats(0.001, 4.0)))
    return e_c, coupling, field, draw(st.integers(3, 6)), draw(st.booleans())


@examples
@given(design_targets())
def test_designer_hits_field_coupling_and_constraint(target):
    e_c, coupling, field, n, include_boundary = target
    circuit = design_circuit(chain_spec(n, coupling, field), e_c, include_boundary=include_boundary)
    spin = circuit_to_spin(circuit)  # a constraint warning fails the test
    assert max(abs(h - field) for h in spin.fields[1:-1]) <= 1e-9
    # bare grounded ends lower site 0's E_L, which sets the first link's J
    bulk = spin.edges if include_boundary else spin.edges[1:]
    assert all(abs(v - coupling) <= 1e-12 * coupling for _, _, v in bulk)
    resid = constraint_residual(circuit)
    assert np.all(np.abs(resid) <= 1e-12 * np.array(circuit.e_coup[1:-1]))
    # independent of the constraint formula: the hopping is -Delta/2 on every link
    params = derive_jja_params(circuit)
    assert np.allclose(params.t, -0.5 * np.array(params.delta), rtol=1e-9, atol=0.0)


@examples
@given(design_targets(), st.sampled_from(["below", "above", "mirrored"]), st.floats(1e-6, 1.0))
def test_designer_rejects_fields_out_of_reach(target, where, margin):
    e_c, coupling, field, n, _ = target
    lowest = bulk_field(e_c, coupling, e_c)
    highest = bulk_field(e_c, coupling, FIELD_SOLVE_BRACKET * e_c)
    unreachable = {
        "below": lowest - margin * abs(lowest),
        "above": highest * (1.0 + margin),
        # same (h + E_C + 2J)^2, hence an E_J in range, but a negative root
        "mirrored": -field - 2.0 * (e_c + 2.0 * coupling),
    }[where]
    with pytest.raises(InvalidSpecError):
        design_circuit(chain_spec(n, coupling, unreachable), e_c)


# ------------------------------------------------------- command line

ENERGIES = {"j": 40.0, "h": 4720.0, "e_c": 200.0, "e_j": 12500.0, "eprime_j": 1562.5}


@st.composite
def config_dicts(draw):
    """Sections for config.from_mapping: every kind and encoding, N 2-6 and
    cutoff 2-3 (dim <= 729, far below DENSE_DIM_LIMIT), and up to two
    energies missing, zero, negative, NaN or infinite."""
    broken = draw(st.sets(st.sampled_from(sorted(ENERGIES)), max_size=2))
    model = {"n_sites": draw(st.integers(2, 6)), "include_boundary": draw(st.booleans())}
    for key, value in ENERGIES.items():
        if key in broken:
            value = draw(st.sampled_from((None, 0.0, -value, math.nan, math.inf)))
        if value is not None:
            model[key] = value
    e_coup = draw(st.sampled_from((None, 18.4, 0.0, math.nan, 150.0)))  # None: exact value
    if e_coup is not None:
        model["e_coup"] = e_coup
    data = {
        "model": model,
        "evolution": {"t_max": draw(st.floats(1e-4, 0.02)), "n_steps": draw(st.integers(2, 5))},
        "experiment": {
            "kind": draw(st.sampled_from(KINDS)),
            "encoding": draw(st.sampled_from(ENCODINGS)),
            "cutoff": draw(st.integers(2, 3)),
            "observables": draw(st.lists(st.sampled_from(OBSERVABLE_NAMES), min_size=1)),
            "initial_state": draw(st.sampled_from(NAMED_STATES)),
            "match_field": draw(st.booleans()),
        },
    }
    typo = draw(st.integers(0, 8))  # now and then an unknown key or section
    if typo == 0:
        model["n_sights"] = 1
    elif typo == 1:
        data["plots"] = {"style": 1}
    return data


def expected_outputs(experiment):
    kind, names = experiment["kind"], experiment["observables"]
    if kind == "design":
        return {"parameter_sheet.csv"}
    if kind == "verify":
        return {"equivalence_report.txt"}
    if kind == "compare":
        return {f"compare_{o}.csv" for o in names} | {"trajectory_distance.csv"}
    return {f"{o}_{'spin' if kind == 'spin' else 'boson'}.csv" for o in names}


@settings(examples, max_examples=100)
@given(config_dicts())
@example({"model": {"n_sites": 20, **ENERGIES}, "experiment": {"kind": "verify", "cutoff": 3}})
@example({"model": {"n_sites": 2, "j": None, "h": 4720.0}, "experiment": {"kind": "spin"}})
@example({"model": {"n_sites": 2, **ENERGIES}, "evolution": {"t_max": 0.01, "n_steps": 3},
          "experiment": {"kind": "jja", "cutoff": 3, "observables": ["sz1"]}})
@example({"model": {"n_sites": 2, "j": 40.0, "h": 4720.0}, "evolution": {"n_steps": 10**15},
          "experiment": {"kind": "spin"}})
@example({"model": {"n_sites": 1, "j": 40.0, "h": 4720.0},
          "experiment": {"kind": "boson", "cutoff": 10**9, "initial_state": "neel"}})
@example({"model": {"n_sites": 5, "j": 40.0, "h": 4720.0},
          "experiment": {"kind": "boson", "cutoff": 64, "initial_state": "neel"}})
@example({"model": {"n_sites": 19, "j": 40.0, "h": 4720.0},
          "experiment": {"kind": "boson", "cutoff": 3, "initial_state": "neel"}})
def test_every_config_ends_in_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(data, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):  # a Python warning would raise (pytest.ini)
            code = main(["run", path, "--out-dir", out, "--quiet"])
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert expected_outputs(data["experiment"]) <= set(os.listdir(out))
        elif code in (1, 2):  # one line lists every problem, and nothing is written
            errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]
            assert len(errors) == 1
            assert not os.path.exists(out)


# ------------------------------------ closure runs against full-space runs

@contextlib.contextmanager
def cli_model(encoding, model):
    """The command line builds ``model`` (a spin spec or JJA parameters)
    whatever energies its config names."""
    with pytest.MonkeyPatch.context() as patch:
        if encoding == "ebh":
            patch.setattr(spinbh.model, "chain_spec", lambda *args, **kwargs: model)
        else:
            patch.setattr(spinbh.mapping, "derive_jja_params", lambda circuit: model)
        yield


def run_boson(tmp, encoding, model, kind, state, cutoff, method, n_steps=7):
    """Boson series (per observable, plus leakage) of a command-line run,
    read back at 17 digits, and the run's output directory."""
    energies = {"j": 40.0, "h": 4720.0} if encoding == "ebh" else {
        key: ENERGIES[key] for key in ("e_c", "e_j", "eprime_j")}
    experiment = {"kind": kind, "cutoff": cutoff, "initial_state": state,
                  "observables": list(OBSERVABLE_NAMES)}
    if kind == "compare":
        experiment.update(encoding="ebh" if encoding == "ebh" else "jja",
                          **({} if encoding == "ebh" else {"variant": encoding}))
    elif kind == "jja":
        experiment["variant"] = encoding
    data = {"model": {"n_sites": model.n_sites, **energies},
            "evolution": {"t_max": 0.01, "n_steps": n_steps, "method": method},
            "experiment": experiment, "output": {"precision": 17}}
    path, out = os.path.join(tmp, f"{cutoff}.json"), os.path.join(tmp, f"out{cutoff}")
    with open(path, "w") as fh:
        json.dump(data, fh)
    with cli_model(encoding, model), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", path, "--out-dir", out, "--quiet"]) == 0
    series = {}
    for name in OBSERVABLE_NAMES:
        table = f"compare_{name}.csv" if kind == "compare" else f"{name}_boson.csv"
        with open(os.path.join(out, table)) as fh:
            rows = [[float(cell) for cell in line.split(",")] for line in fh.readlines()[1:]]
        series[name], series[None] = [r[-3 if kind == "compare" else 1] for r in rows], \
            [r[-1] for r in rows]
    return series, out


@st.composite
def closure_runs(draw):
    """(encoding, model, kind, initial state, cutoff, method): random
    inhomogeneous EBH or JJA chains, N 2-6 and cutoff 2-4 (dim <= 4096), run
    as compare or as the boson kind of their encoding."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4).filter(lambda d: d**n <= 4096))
    encoding = draw(st.sampled_from(["ebh", "simplified", "full"]))
    model = draw(ebh_chains(n) if encoding == "ebh" else jja_params(n))
    kind = draw(st.sampled_from(["compare", "boson" if encoding == "ebh" else "jja"]))
    state = draw(st.sampled_from([s for s in NAMED_STATES if s != "domain_wall" or n % 2 == 0]))
    return encoding, model, kind, state, d, draw(st.sampled_from(["auto", "krylov"]))


@settings(examples, max_examples=30)
@given(closure_runs())
def test_closure_runs_record_what_full_space_runs_record(case):
    encoding, model, kind, state, d, method = case
    full = FockBasis(model.n_sites, d)
    observables = {name: observable(name, "boson", full) for name in OBSERVABLE_NAMES}
    ref = evolve(builder(encoding, model)(full), named_initial_state(full, state),
                 EvolutionConfig(t_max=0.01, n_steps=7, method=method), observables,
                 leakage_mask=physical_mask(full))
    with tempfile.TemporaryDirectory() as tmp:
        got, _ = run_boson(tmp, encoding, model, kind, state, d, method)
    for name, want in [*ref.values.items(), (None, ref.leakage)]:
        if method == "krylov":
            assert np.max(np.abs(np.array(got[name]) - want)) <= 1e-12
        else:  # the same blocks diagonalized: bit for bit
            assert got[name] == want.tolist()


def occupations(basis):
    states = np.arange(basis.dim) if basis.states is None else basis.states
    return [tuple(s // basis.local_dim**j % basis.local_dim for j in range(basis.n_sites))
            for s in states.tolist()]


@settings(examples, max_examples=20)
@given(st.data())
def test_a_cutoff_past_the_particle_number_changes_no_closure_and_no_value(data):
    """H conserves particle number, so a site never holds more than psi0's
    largest particle number p; cutoffs past p reach the same states."""
    n = data.draw(st.integers(2, 5))
    state = data.draw(st.sampled_from([s for s in NAMED_STATES if s != "domain_wall" or n % 2 == 0]))
    particles = {"domain_wall": n // 2, "neel": (n + 1) // 2, "all_up_x": n}[state]
    low = particles + 1
    high = data.draw(st.integers(low + 1, low + 2).filter(lambda d: d**n <= 4096))
    encoding = data.draw(st.sampled_from(["ebh", "simplified", "full"]))
    model = data.draw(ebh_chains(n) if encoding == "ebh" else jja_params(n))
    kind = data.draw(st.sampled_from(["compare", "boson" if encoding == "ebh" else "jja"]))
    method = data.draw(st.sampled_from(["auto", "krylov"]))
    closures = []
    for d in (low, high):
        full = FockBasis(n, d)
        seeds = np.flatnonzero(named_initial_state(full, state))
        closures.append(occupations(closure(full, model_terms(encoding, model, d), seeds)))
    assert closures[0] == closures[1]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [run_boson(tmp, encoding, model, kind, state, d, method)[1] for d in (low, high)]
        for name in sorted(os.listdir(outs[0])):
            with open(os.path.join(outs[0], name)) as a, open(os.path.join(outs[1], name)) as b:
                assert a.read() == b.read(), name


# ------------------------------------------------ Lanczos bases that close early

def shifted_lanczos(h, psi0):
    """``_lanczos`` from psi0 on H - diag(c), c the per-block shift ``evolve``
    applies, and H - diag(c) as a sparse matrix."""
    csr = h.matrix.tocsr()
    shift, _ = _block_centers(csr.diagonal().real, np.asarray(abs(csr).sum(1)).ravel(),
                              _components(csr))
    return _lanczos(_shifted(csr, shift), psi0, KRYLOV_DIM), csr - sp.diags(shift)


@st.composite
def eigenvector_starts(draw):
    """(H, psi0, k): a spin chain of 2-8 sites or an EBH chain of 2-5 sites at
    cutoff 3, drawn as ``ebh_chains`` draws them, and psi0 a normalized
    complex combination of k <= 4 eigenvectors from one full
    ``np.linalg.eigh`` of H, each cut to the block of H it has most weight on
    (an eigenvector of a level shared by several blocks may spread over them)."""
    d = draw(st.sampled_from([2, 3]))
    spec = draw(st.integers(2, 8 if d == 2 else 5).flatmap(ebh_chains))
    h = build_h_spin(spec) if d == 2 else build_h_ebh(spec, FockBasis(spec.n_sites, d))
    evecs = np.linalg.eigh(h.dense())[1]
    labels = _components(h.matrix)
    picks = draw(st.lists(st.integers(0, h.dim - 1), min_size=1, max_size=4, unique=True))
    weight = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    psi0 = np.zeros(h.dim, dtype=complex)
    for j in picks:
        vec = evecs[:, j]
        block = labels == labels[np.argmax(np.abs(vec))]
        psi0[block] += draw(weight) * vec[block] / np.linalg.norm(vec[block])
    assume(np.linalg.norm(psi0) > 1e-3)
    return h, psi0 / np.linalg.norm(psi0), len(picks)


@examples
@given(eigenvector_starts())
def test_a_lanczos_basis_closes_on_a_few_eigenvectors_of_random_chains(case):
    # k eigenvectors span a Krylov space of at most k vectors; the residual the
    # basis ends on stays in its bound, and the propagated state is scipy's
    # truncated-Taylor one.  Both at 0.05 us: on blocks 6 GHz wide (fields of
    # +-5 GHz) expm_multiply itself drifts by 2e-10 over the fig2 0.5 us
    h, psi0, k = case
    t_max = 0.05
    (vecs, propagate), shifted = shifted_lanczos(h, psi0)
    assert len(vecs) <= k
    coeffs, err = propagate(np.array([t_max]))
    assert err[0] <= STEP_TOLERANCE
    ref = expm_multiply(-2j * np.pi * t_max * shifted, psi0)
    assert np.max(np.abs(vecs.T @ coeffs[:, 0] - ref)) <= 1e-10


@examples
@given(per(9, mhz(20.0, 100.0) | mhz(-100.0, -20.0)), per(10, mhz(-5000.0, 5000.0)))
def test_a_domain_wall_builds_every_lanczos_vector_on_random_chains(couplings, fields):
    # a product state holds many eigenvectors: nothing closes within KRYLOV_DIM
    spec = SpinModelSpec(10, tuple((j, j + 1, c) for j, c in enumerate(couplings)), fields)
    psi0 = named_initial_state(FockBasis(10, 2), "domain_wall", "spin")
    (vecs, _), _ = shifted_lanczos(build_h_spin(spec), psi0)
    assert len(vecs) == KRYLOV_DIM
