"""Property tests: every builder against the dense oracles on random
inhomogeneous specs, with couplings on arbitrary (also non-adjacent) pairs.

Examples are derandomized so the suite stays deterministic.  The dense
oracles cost O(dim^3) per term, so (N, cutoff) pairs above dim 256 are not
drawn; that leaves out only N=5 at cutoff 4.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinbh.hilbert import FockBasis
from spinbh.mapping import JJAParams
from spinbh.model import SpinModelSpec
from spinbh.operators import DROP_THRESHOLD, build_h_dm, build_h_ebh, build_h_jja, build_h_spin

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
