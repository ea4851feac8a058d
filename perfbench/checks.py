"""Output checks for benchmark operations, at the acceptance gate's tolerances.

Every check returns a list of problems; an empty list is a pass.  The spin
side of a compare run is checked against ``tests/oracles.py``'s brute-force
``expm`` series on a spin Hamiltonian built here from bit arithmetic, so
the reference shares no code with the package.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import os

import numpy as np

COMPARE_TOL = 1e-8  # criterion 3: max |spin - boson|
ORACLE_TOL = 1e-8  # criterion 7: dynamics against an independent reference
EBH_REL_TOL = 1e-12  # criterion 4, relative to the Hamiltonian's scale
JJA_REL_TOL = 1e-9  # criterion 6
COMPARE_HEADER = ["time_us", "value_spin", "value_boson", "abs_diff", "leakage"]
DISTANCE_HEADER = ["observable", "max_abs_diff", "rms_diff", "max_leakage"]


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("spinbh_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(n_sites: int) -> np.ndarray:
    """bits[s, j] = occupation of site j in basis state s (site 0 least significant)."""
    states = np.arange(2**n_sites)
    return (states[:, None] >> np.arange(n_sites)) & 1


def spin_hamiltonian(n_sites: int, coupling: float, field: float) -> np.ndarray:
    """Dense open Heisenberg chain, -J sum (S+S- + S-S+)/2 + SzSz, + h sum Sz."""
    bits = _bits(n_sites)
    sz = bits - 0.5
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    diag = field * sz.sum(axis=1)
    states = np.arange(dim)
    for j in range(n_sites - 1):
        diag -= coupling * sz[:, j] * sz[:, j + 1]
        flip = bits[:, j] != bits[:, j + 1]
        partner = states ^ ((1 << j) | (1 << (j + 1)))
        h[states[flip], partner[flip]] = -coupling / 2.0
    h[states, states] = diag
    return h


def spin_observable(name: str, n_sites: int) -> np.ndarray:
    dim = 2**n_sites
    states = np.arange(dim)
    op = np.zeros((dim, dim), dtype=complex)
    if name == "sz1":
        op[states, states] = _bits(n_sites)[:, 0] - 0.5
    elif name == "mx":
        for j in range(n_sites):
            op[states, states ^ (1 << j)] += 0.5 / n_sites
    elif name == "cxx":
        op[states, states ^ 0b11] = 0.25
    else:
        raise ValueError(f"no oracle observable {name!r}")
    return op


def spin_state(name: str, n_sites: int) -> np.ndarray:
    dim = 2**n_sites
    psi = np.zeros(dim, dtype=complex)
    if name == "all_up_x":
        psi[:] = 1.0 / math.sqrt(dim)
        return psi
    if name == "domain_wall":
        occupied = range(n_sites // 2)
    elif name == "neel":
        occupied = range(0, n_sites, 2)
    else:
        raise ValueError(f"no oracle initial state {name!r}")
    psi[sum(1 << j for j in occupied)] = 1.0
    return psi


def oracle_series(oracles, check: dict, obs: str, cache: dict) -> tuple[np.ndarray, list[int]]:
    """Brute-force spin expectations of ``obs`` at grid index 0 and the checked index."""
    indices = [0, check["check_index"]]
    key = (check["n_sites"], check["J"], check["h"], check["initial_state"], obs,
           check["t_max"], check["n_steps"], tuple(indices))
    if key not in cache:
        times = np.linspace(0.0, check["t_max"], check["n_steps"])[indices]
        cache[key] = oracles.brute_force_expectation_series(
            spin_hamiltonian(check["n_sites"], check["J"], check["h"]),
            spin_state(check["initial_state"], check["n_sites"]),
            spin_observable(obs, check["n_sites"]),
            times,
        )
    return cache[key], indices


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def _check_compare(out_dir: str, check: dict, oracles, cache: dict) -> list[str]:
    problems = []
    n_steps = check["n_steps"]
    times = np.linspace(0.0, check["t_max"], n_steps)
    for obs in check["observables"]:
        rows = _read_rows(os.path.join(out_dir, f"compare_{obs}.csv"))
        if rows[0] != COMPARE_HEADER or len(rows) != n_steps + 1:
            problems.append(f"compare_{obs}.csv: header or row count wrong ({len(rows)} rows)")
            continue
        table = np.array(rows[1:], dtype=float)
        t, spin, boson, diff, leak = table.T
        if not np.allclose(t, times, rtol=1e-10, atol=1e-15):
            problems.append(f"compare_{obs}.csv: time column is not the grid")
        worst = float(np.max(np.abs(spin - boson)))
        if not worst < COMPARE_TOL or not float(np.max(diff)) < COMPARE_TOL:
            problems.append(f"compare_{obs}.csv: max |spin - boson| = {worst:.3e}")
        if np.any(leak != 0.0):
            problems.append(f"compare_{obs}.csv: nonzero leakage {float(np.max(leak)):.3e}")
        if np.any(np.abs(spin) > 0.5):
            problems.append(f"compare_{obs}.csv: |value| above 1/2")
        for sector, column in (("spin", 1), ("boson", 2)):
            dat = _read_rows(os.path.join(out_dir, f"{obs}_{sector}.dat"))
            if [line[0].split(" ")[1] for line in dat] != [r[column] for r in rows[1:]]:
                problems.append(f"{obs}_{sector}.dat differs from compare_{obs}.csv")
        if oracles is not None:
            ref, indices = oracle_series(oracles, check, obs, cache)
            err = float(np.max(np.abs(spin[indices] - ref)))
            if not err < ORACLE_TOL:
                problems.append(f"compare_{obs}.csv: spin side off the oracle by {err:.3e} "
                                f"at grid indices {indices}")
    rows = _read_rows(os.path.join(out_dir, "trajectory_distance.csv"))
    if rows[0] != DISTANCE_HEADER or [r[0] for r in rows[1:]] != list(check["observables"]):
        problems.append("trajectory_distance.csv: header or observables wrong")
    else:
        for name, max_abs, rms, max_leak in rows[1:]:
            if not (float(max_abs) < COMPARE_TOL and float(rms) < COMPARE_TOL):
                problems.append(f"trajectory_distance.csv: {name} differs by {max_abs}")
            if float(max_leak) != 0.0:
                problems.append(f"trajectory_distance.csv: {name} leakage {max_leak}")
    return problems


def _check_verify(out_dir: str, check: dict) -> list[str]:
    with open(os.path.join(out_dir, "equivalence_report.txt"), encoding="ascii") as fh:
        report = dict(line.split(" = ") for line in fh.read().splitlines())
    n = check["n_sites"]
    problems = []
    if (int(report["n_sites"]), int(report["local_dim"]), int(report["physical_dim"])) != (n, 3, 2**n):
        problems.append("equivalence_report.txt: wrong n_sites, local_dim or physical_dim")
    rel = EBH_REL_TOL if check["encoding"] == "ebh" else JJA_REL_TOL
    tol = rel * check["scale"]
    for key in ("residual_max", "coupling_norm", "hermiticity_boson", "hermiticity_spin"):
        if not float(report[key]) <= tol:
            problems.append(f"equivalence_report.txt: {key} = {report[key]} above {tol:.3e}")
    return problems


def _check_design(out_dir: str, check: dict) -> list[str]:
    rows = _read_rows(os.path.join(out_dir, "parameter_sheet.csv"))
    if len(rows) != 2 or "J_MHz" not in rows[0]:
        return ["parameter_sheet.csv: expected a header and one row with J_MHz"]
    value = float(rows[1][rows[0].index("J_MHz")])
    if not math.isclose(value, check["J"], rel_tol=1e-9):
        return [f"parameter_sheet.csv: J_MHz = {value}, expected {check['J']}"]
    return []


def check_output(out_dir: str, check: dict, oracles=None, cache=None) -> list[str]:
    """Problems found in one operation's output directory; [] when it passes."""
    try:
        if check["kind"] == "compare":
            return _check_compare(out_dir, check, oracles, {} if cache is None else cache)
        if check["kind"] == "verify":
            return _check_verify(out_dir, check)
        return _check_design(out_dir, check)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
