import json
import math
import os

import numpy as np
import pytest

from spinbh.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from spinbh.config import load_config, preset_config, validate_config

COMPARE_INI = """\
[model]
n_sites = 4
J = 40.0
h = 4720.0

[evolution]
t_max = 0.05
n_steps = 41
method = auto

[experiment]
kind = compare
observables = sz1, mx, cxx
initial_state = domain_wall
cutoff = 2

[output]
precision = 12
"""


JJA_INI = """\
[model]
n_sites = 2
e_c = 200.0
e_j = 12500.0
eprime_j = 1562.5

[evolution]
t_max = 0.02
n_steps = 11

[experiment]
kind = jja
observables = sz1
initial_state = neel
cutoff = 3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return main(args)


# ---------------------------------------------------------------- config parsing

def test_load_ini_config(tmp_path):
    cfg = load_config(write(tmp_path, "c.ini", COMPARE_INI))
    assert cfg.n_sites == 4
    assert cfg.coupling == 40.0
    assert cfg.fieldstrength == 4720.0
    assert cfg.observables == ("sz1", "mx", "cxx")
    assert validate_config(cfg) == []


def test_out_dir_preserves_case(tmp_path):
    ini = COMPARE_INI + "out_dir = MixedCase/Out\n"
    cfg = load_config(write(tmp_path, "c.ini", ini))
    assert cfg.out_dir == "MixedCase/Out"


def test_load_json_mirror(tmp_path):
    data = {
        "model": {"n_sites": 4, "J": 40.0, "h": 4720.0},
        "evolution": {"t_max": 0.05, "n_steps": 11},
        "experiment": {"kind": "spin", "observables": ["sz1"],
                       "initial_state": "neel"},
    }
    cfg = load_config(write(tmp_path, "c.json", json.dumps(data)))
    assert cfg.kind == "spin"
    assert cfg.coupling == 40.0
    assert validate_config(cfg) == []


def test_unknown_key_rejected(tmp_path):
    from spinbh.errors import InvalidSpecError

    # krylov_dim is no key: the Krylov dimension is the constant dynamics.KRYLOV_DIM
    for text in ("[model]\nn_sights = 3\n", "[evolution]\nkrylov_dim = 30\n"):
        path = write(tmp_path, "c.ini", text)
        with pytest.raises(InvalidSpecError):
            load_config(path)
        assert run_cli(["run", path]) == EXIT_USAGE


def test_readme_config_block_is_valid(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    assert validate_config(load_config(write(tmp_path, "readme.ini", block))) == []


def test_validate_config_catches_bad_values():
    cfg = preset_config("fig2_sz")
    from dataclasses import replace

    assert validate_config(replace(cfg, t_max=0.0))
    assert validate_config(replace(cfg, t_max=math.inf))
    assert validate_config(replace(cfg, cutoff=1))
    assert validate_config(replace(cfg, observables=("sy",)))
    assert validate_config(replace(cfg, n_sites=5))  # domain wall needs even chains


def test_presets_parse_clean():
    for name in ("fig2_sz", "fig2_mx", "fig2_cxx", "table1_design"):
        assert validate_config(preset_config(name)) == []


# ---------------------------------------------------------------- exit codes

def test_usage_error_without_arguments():
    assert run_cli([]) == EXIT_USAGE


def test_usage_error_missing_file(tmp_path):
    assert run_cli(["run", str(tmp_path / "absent.ini")]) == EXIT_USAGE


def test_usage_error_bad_ini(tmp_path):
    path = write(tmp_path, "broken.ini", "model]\nJ = 40\n")
    assert run_cli(["run", path]) == EXIT_USAGE


def test_usage_error_bad_json(tmp_path):
    path = write(tmp_path, "broken.json", "{ not json }")
    assert run_cli(["run", path]) == EXIT_USAGE


def test_validation_error_zero_horizon(tmp_path):
    bad = COMPARE_INI.replace("t_max = 0.05", "t_max = 0.0")
    path = write(tmp_path, "bad.ini", bad)
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_validation_error_cutoff_override_zero(tmp_path):
    path = write(tmp_path, "cmp.ini", COMPARE_INI)
    args = ["run", path, "--out-dir", str(tmp_path / "o"), "--cutoff", "0"]
    assert run_cli(args) == EXIT_VALIDATION


def test_validation_error_circuit_regime(tmp_path):
    ini = """\
[model]
n_sites = 3
e_c = 200.0
e_j = 12500.0
eprime_j = 1562.5
e_coup = 150.0

[experiment]
kind = verify
encoding = jja
cutoff = 3
"""
    path = write(tmp_path, "circuit.ini", ini)
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION


@pytest.mark.parametrize("kind", ["spin", "compare"])
def test_validation_error_infinite_horizon(tmp_path, kind):
    bad = COMPARE_INI.replace("t_max = 0.05", "t_max = inf").replace("kind = compare", f"kind = {kind}")
    path = write(tmp_path, "bad.ini", bad)
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("good, bad", [
    ("e_c = 200.0", "e_c = nan"),
    ("e_j = 12500.0", "e_j = inf"),
    ("eprime_j = 1562.5", "eprime_j = nan"),
    ("e_c = 200.0", "e_c = 0.0"),
])
def test_validation_error_bad_circuit_energy(tmp_path, good, bad):
    path = write(tmp_path, "jja.ini", JJA_INI.replace(good, bad))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION


# ---------------------------------------------------------------- compare runs

@pytest.fixture()
def compare_out(tmp_path):
    cfg_path = write(tmp_path, "cmp.ini", COMPARE_INI)
    out = tmp_path / "out"
    assert run_cli(["run", cfg_path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    return out


def test_compare_writes_expected_files(compare_out):
    names = sorted(os.listdir(compare_out))
    assert names == sorted(
        [f"compare_{o}.csv" for o in ("sz1", "mx", "cxx")]
        + [f"{o}_{s}.dat" for o in ("sz1", "mx", "cxx") for s in ("spin", "boson")]
        + ["trajectory_distance.csv"]
    )


def test_compare_csv_layout_and_consistency(compare_out):
    lines = (compare_out / "compare_sz1.csv").read_text().splitlines()
    assert lines[0] == "time_us,value_spin,value_boson,abs_diff,leakage"
    assert len(lines) == 42
    for line in lines[1:]:
        t, a, b, diff, leak = (float(x) for x in line.split(","))
        # printed difference consistent with printed values at 12 digits
        tol = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b), 1e-300))) - 11)
        assert abs(abs(a - b) - diff) <= 2 * tol
        assert leak == 0.0
    final_time = float(lines[-1].split(",")[0])
    assert np.isclose(final_time, 0.05)


def test_compare_exact_sector_diff_small(compare_out):
    rows = (compare_out / "trajectory_distance.csv").read_text().splitlines()
    assert rows[0] == "observable,max_abs_diff,rms_diff,max_leakage"
    for row in rows[1:]:
        _, max_abs, rms, leak = row.split(",")
        assert float(max_abs) < 1e-8
        assert float(rms) < 1e-8
        assert float(leak) == 0.0


def test_dat_files_two_columns(compare_out):
    lines = (compare_out / "mx_boson.dat").read_text().splitlines()
    assert len(lines) == 41
    assert all(len(line.split()) == 2 for line in lines)


def test_reruns_byte_identical(tmp_path):
    cfg_path = write(tmp_path, "cmp.ini", COMPARE_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", cfg_path, "--out-dir", str(out_a), "--quiet"]) == EXIT_OK
    assert run_cli(["run", cfg_path, "--out-dir", str(out_b), "--quiet"]) == EXIT_OK
    for name in os.listdir(out_a):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cutoff_override_records_leakage(tmp_path):
    cfg_path = write(tmp_path, "cmp.ini", COMPARE_INI)
    out = tmp_path / "o3"
    assert run_cli(["run", cfg_path, "--out-dir", str(out), "--cutoff", "3",
                    "--quiet"]) == EXIT_OK
    rows = (out / "compare_sz1.csv").read_text().splitlines()[1:]
    leaks = [float(r.split(",")[4]) for r in rows]
    assert max(leaks) < 1e-12  # hard-core subspace stays exactly invariant


# ---------------------------------------------------------------- other kinds

def test_single_spin_run(tmp_path):
    ini = """\
[model]
n_sites = 2
J = 40.0
h = 0.0

[evolution]
t_max = 0.05
n_steps = 11

[experiment]
kind = spin
observables = sz1
initial_state = neel
"""
    out = tmp_path / "spin"
    path = write(tmp_path, "spin.ini", ini)
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["sz1_spin.csv", "sz1_spin.dat"]
    header = (out / "sz1_spin.csv").read_text().splitlines()[0]
    assert header == "time_us,value"


def test_jja_run_with_leakage_column(tmp_path):
    out = tmp_path / "jja"
    path = write(tmp_path, "jja.ini", JJA_INI)
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    lines = (out / "sz1_boson.csv").read_text().splitlines()
    assert lines[0] == "time_us,value,leakage"


def test_compare_jja_encoding_full_pipeline(tmp_path):
    # circuit energies -> array Hamiltonian on one side, mapped spin model on
    # the other; trajectories must agree and the hard-core block must not leak
    ini = """\
[model]
n_sites = 4
e_c = 200.0
e_j = 12500.0
eprime_j = 1562.5

[evolution]
t_max = 0.05
n_steps = 21

[experiment]
kind = compare
encoding = jja
observables = sz1, mx
initial_state = domain_wall
cutoff = 3
"""
    out = tmp_path / "jja_cmp"
    path = write(tmp_path, "jja_cmp.ini", ini)
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    for obs in ("sz1", "mx"):
        rows = (out / f"compare_{obs}.csv").read_text().splitlines()[1:]
        diffs = [float(r.split(",")[3]) for r in rows]
        leaks = [float(r.split(",")[4]) for r in rows]
        assert max(diffs) < 1e-8
        assert max(leaks) < 1e-12


def test_verify_kind_jja(tmp_path):
    ini = """\
[model]
n_sites = 3
e_c = 200.0
e_j = 12500.0
eprime_j = 1562.5

[experiment]
kind = verify
encoding = jja
cutoff = 3
"""
    out = tmp_path / "ver"
    path = write(tmp_path, "verify.ini", ini)
    assert run_cli(["run", path, "--out-dir", str(out)]) == EXIT_OK
    text = (out / "equivalence_report.txt").read_text()
    entries = dict(line.split(" = ") for line in text.splitlines())
    assert float(entries["residual_max"]) < 1e-9
    assert float(entries["coupling_norm"]) < 1e-9
    assert int(entries["physical_dim"]) == 8


def test_method_override_changes_propagator_not_results(tmp_path):
    cfg_path = write(tmp_path, "cmp.ini", COMPARE_INI.replace("n_steps = 41", "n_steps = 11"))
    out_auto, out_kry = tmp_path / "auto", tmp_path / "kry"
    assert run_cli(["run", cfg_path, "--out-dir", str(out_auto), "--quiet"]) == EXIT_OK
    assert run_cli(["run", cfg_path, "--out-dir", str(out_kry), "--method", "krylov",
                    "--quiet"]) == EXIT_OK
    rows_a = (out_auto / "compare_sz1.csv").read_text().splitlines()[1:]
    rows_k = (out_kry / "compare_sz1.csv").read_text().splitlines()[1:]
    for ra, rk in zip(rows_a, rows_k):
        va, vk = float(ra.split(",")[1]), float(rk.split(",")[1])
        assert abs(va - vk) < 1e-8


def test_verify_kind_ebh(tmp_path):
    ini = """\
[model]
n_sites = 3
J = 2.0
h = 1.0

[experiment]
kind = verify
encoding = ebh
cutoff = 4
"""
    out = tmp_path / "ver_ebh"
    path = write(tmp_path, "verify.ini", ini)
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    entries = dict(
        line.split(" = ")
        for line in (out / "equivalence_report.txt").read_text().splitlines()
    )
    assert float(entries["residual_max"]) < 1e-12
    assert float(entries["coupling_norm"]) < 1e-12
    assert abs(float(entries["offset_mhz"])) < 1e-12
    assert int(entries["local_dim"]) == 4


def test_design_preset_matches_table(tmp_path):
    out = tmp_path / "design"
    assert run_cli(["--preset", "table1_design", "--out-dir", str(out), "--quiet"]) == EXIT_OK
    header, row = (out / "parameter_sheet.csv").read_text().strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["Eprime_J_MHz"]) == 1562.5
    assert float(cells["omega_MHz"]) == 5000.0
    assert float(cells["Delta_MHz"]) == 40.0
    assert float(cells["T_MHz"]) == 20.0
    assert float(cells["delta_omega_MHz"]) == -200.0


def test_fig2_preset_equals_config_file(tmp_path):
    # the preset is exactly expressible as a config file
    cfg = preset_config("fig2_sz")
    assert cfg.kind == "compare"
    assert cfg.n_sites == 10
    assert cfg.coupling == 40.0
    assert cfg.fieldstrength == 4720.0
    assert cfg.n_steps == 2000
    assert cfg.t_max == 0.5


def test_unknown_preset():
    assert run_cli(["--preset", "fig9"]) == EXIT_USAGE


def test_emit_plotdata_empty_warns(tmp_path, capsys):
    from spinbh.cli import emit_plotdata

    written = emit_plotdata(str(tmp_path), [])
    assert written == []
    assert "warning" in capsys.readouterr().err
