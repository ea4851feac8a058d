"""Workload definitions: the operations each workload runs and how to check them.

An operation is one call of ``spinbh.cli.main`` with ordinary CLI arguments
(a preset name, or a generated config file), plus the facts the output
checks need.  The checks never read the package's own data: the preset
parameters are restated here.

Seeded workloads draw their model parameters within a few percent of the
paper values, so the program sees different inputs for different seeds
while the dimension, grid and code path stay the same.
"""

from __future__ import annotations

import os
import random

PAPER_J = 40.0  # MHz
PAPER_H = 4720.0  # MHz, interior-site field of the reference circuit
PAPER_E_C = 200.0
PAPER_E_J = 12500.0
PAPER_EPRIME_J = 1562.5
SPREAD = 0.03  # relative half-width of the seeded parameter draws

FIG2_T_MAX = 0.5  # us
FIG2_POINTS = 2000
FIG2_SPACING = FIG2_T_MAX / (FIG2_POINTS - 1)

# The cutoff-3 compare keeps the fig2 spacing on a shortened grid: the gain of
# a multi-window propagator depends on output-point density, not grid length.
KRYLOV_POINTS = 10
KRYLOV_SITES = 10
# dim 177147; N=12 (dim 531441, 0.9 GB) gives too few passes per run to be steady
VERIFY_SITES = 11

# The three fig2 presets as the package documents them.
FIG2_PRESETS = {
    "fig2_sz": ("sz1", "domain_wall"),
    "fig2_mx": ("mx", "all_up_x"),
    "fig2_cxx": ("cxx", "neel"),
}

# Smoke sizes keep every code path (Krylov included) but finish in seconds.
SMOKE = {"krylov_sites": 4, "krylov_points": 6, "verify_sites": 4}


def _draw(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-SPREAD, SPREAD))


def _write_ini(path: str, sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in entries.items())
        lines.append("")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
    return path


def _compare_check(n_sites, coupling, field, initial_state, observables,
                   t_max, n_steps, check_index):
    return {
        "kind": "compare", "n_sites": n_sites, "J": coupling, "h": field,
        "initial_state": initial_state, "observables": list(observables),
        "t_max": t_max, "n_steps": n_steps, "check_index": check_index,
    }


def _presets(rng: random.Random, input_dir: str, smoke: bool) -> list[dict]:
    ops = []
    for name, (obs, state) in FIG2_PRESETS.items():
        index = rng.randrange(1, FIG2_POINTS)
        ops.append({
            "name": name,
            "argv": ["--preset", name],
            "check": _compare_check(10, PAPER_J, PAPER_H, state, [obs],
                                    FIG2_T_MAX, FIG2_POINTS, index),
        })
    ops.append({
        "name": "table1_design",
        "argv": ["--preset", "table1_design"],
        "check": {"kind": "design", "J": PAPER_J},
    })
    return ops


def _krylov_c3(rng: random.Random, input_dir: str, smoke: bool) -> list[dict]:
    n_sites = SMOKE["krylov_sites"] if smoke else KRYLOV_SITES
    n_steps = SMOKE["krylov_points"] if smoke else KRYLOV_POINTS
    t_max = FIG2_SPACING * (n_steps - 1)
    coupling, field = _draw(rng, PAPER_J), _draw(rng, PAPER_H)
    observables = ("sz1", "mx", "cxx")
    # auto would pick dense below dim 4096; the smoke size forces the Krylov path
    method = "krylov" if smoke else "auto"
    path = _write_ini(os.path.join(input_dir, "krylov_c3.ini"), {
        "model": {"n_sites": n_sites, "J": coupling, "h": field},
        "evolution": {"t_max": t_max, "n_steps": n_steps, "method": method},
        "experiment": {"kind": "compare", "observables": ", ".join(observables),
                       "initial_state": "domain_wall", "cutoff": 3, "encoding": "ebh"},
    })
    check = _compare_check(n_sites, coupling, field, "domain_wall", observables,
                           t_max, n_steps, rng.randrange(1, n_steps))
    return [{"name": "krylov_c3", "argv": ["run", path], "check": check}]


def _verify_c3(rng: random.Random, input_dir: str, smoke: bool) -> list[dict]:
    n_sites = SMOKE["verify_sites"] if smoke else VERIFY_SITES
    coupling, field = _draw(rng, PAPER_J), _draw(rng, PAPER_H)
    e_j, eprime_j = _draw(rng, PAPER_E_J), _draw(rng, PAPER_EPRIME_J)
    ebh = _write_ini(os.path.join(input_dir, "verify_ebh.ini"), {
        "model": {"n_sites": n_sites, "J": coupling, "h": field},
        "experiment": {"kind": "verify", "cutoff": 3, "encoding": "ebh"},
    })
    jja = _write_ini(os.path.join(input_dir, "verify_jja.ini"), {
        "model": {"n_sites": n_sites, "e_c": PAPER_E_C, "e_j": e_j, "eprime_j": eprime_j},
        "experiment": {"kind": "verify", "cutoff": 3, "encoding": "jja", "variant": "full"},
    })
    # Largest |entry| of the spin Hamiltonian is below sum|h|/2 + sum|J|/4;
    # the circuit's fields stay below its oscillator frequency sqrt(8 E_C E_L).
    omega = (8.0 * PAPER_E_C * (e_j + 2.0 * eprime_j)) ** 0.5
    return [
        {"name": "verify_ebh", "argv": ["run", ebh],
         "check": {"kind": "verify", "n_sites": n_sites, "encoding": "ebh",
                   "scale": n_sites * (abs(field) / 2 + abs(coupling) / 4)}},
        {"name": "verify_jja_full", "argv": ["run", jja],
         "check": {"kind": "verify", "n_sites": n_sites, "encoding": "jja",
                   "scale": n_sites * (omega / 2 + PAPER_J)}},
    ]


def _cutoff3(rng: random.Random, input_dir: str, smoke: bool) -> list[dict]:
    return _krylov_c3(rng, input_dir, smoke) + _verify_c3(rng, input_dir, smoke)


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {"presets": _presets, "cutoff3": _cutoff3}


def build_ops(workload: str, seed: int, input_dir: str, smoke: bool = False) -> list[dict]:
    """Operations of one pass of ``workload``; config files go to ``input_dir``."""
    os.makedirs(input_dir, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), input_dir, smoke)
