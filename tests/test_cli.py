import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from spinbh import operators
from spinbh.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from spinbh.config import load_config, preset_config, validate_config
from spinbh.errors import InvalidSpecError
from spinbh.hilbert import FockBasis, physical_mask

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

DESIGN_INI = """\
[model]
n_sites = 4
J = 40.0
e_c = 200.0
e_j = 12500.0

[experiment]
kind = design
match_field = false
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return main(args)


def readme_block(language):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


# ---------------------------------------------------------------- config parsing

def test_load_ini_config(tmp_path):
    cfg = load_config(write(tmp_path, "c.ini", COMPARE_INI))
    assert cfg.n_sites == 4
    assert cfg.coupling == 40.0
    assert cfg.fieldstrength == 4720.0
    assert cfg.observables == ("sz1", "mx", "cxx")
    validate_config(cfg)  # raises InvalidSpecError on any problem


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
    validate_config(cfg)


def test_unknown_key_rejected(tmp_path):
    # krylov_dim is no key: the Krylov dimension is the constant dynamics.KRYLOV_DIM
    for text in ("[model]\nn_sights = 3\n", "[evolution]\nkrylov_dim = 30\n"):
        path = write(tmp_path, "c.ini", text)
        with pytest.raises(InvalidSpecError):
            load_config(path)
        assert run_cli(["run", path]) == EXIT_USAGE


def test_readme_config_block_is_valid(tmp_path):
    block = readme_block("ini")
    validate_config(load_config(write(tmp_path, "readme.ini", block)))


def test_readme_library_example_matches_circuit_spin_model():
    namespace = {}
    exec(compile(readme_block("python"), "README.md", "exec"), namespace)
    scale = float(np.max(np.abs(namespace["h_circuit_spin"].matrix.data)))
    assert namespace["report"].residual_max < 1e-9 * scale


def test_readme_config_block_lists_every_key():
    from spinbh.config import _SECTIONS

    block = readme_block("ini")
    missing = [key for keys in _SECTIONS.values() for key in keys
               if not re.search(rf"^[#\s]*{key}\s*=", block, re.IGNORECASE | re.MULTILINE)]
    assert not missing


# one non-default value per field type: (JSON value, its text)
FIELD_SAMPLES = {int: (7, "7"), float: (2.5, "2.5"), bool: (False, "false"),
                 str: ("Text", "Text"), tuple: (["sz1", "mx"], "sz1, mx")}


def test_every_field_is_set_by_one_key_read_as_its_type(tmp_path):
    # the reader takes each key's type from its ExperimentConfig field
    from spinbh.config import _SECTIONS, ExperimentConfig

    hints = get_type_hints(ExperimentConfig)
    kinds = {int: int, float: float, float | None: float, bool: bool, str: str,
             tuple[str, ...]: tuple}
    default = ExperimentConfig()
    set_by = []
    for section, keys in _SECTIONS.items():
        for key in keys:
            attr = {"j": "coupling", "h": "fieldstrength"}.get(key, key)
            kind = kinds[hints[attr]]
            value, text = FIELD_SAMPLES[kind]
            read = [load_config(write(tmp_path, "k.ini", f"[{section}]\n{key} = {text}\n")),
                    load_config(write(tmp_path, "k.json", json.dumps({section: {key: value}}))),
                    load_config(write(tmp_path, "t.json", json.dumps({section: {key: text}})))]
            for cfg in read:
                changed = [f.name for f in fields(cfg)
                           if getattr(cfg, f.name) != getattr(default, f.name)]
                assert changed == [attr], key
                assert type(getattr(cfg, attr)) is kind, key
                assert getattr(cfg, attr) == getattr(read[0], attr), key
            set_by.append(attr)
    assert sorted(set_by) == sorted(f.name for f in fields(ExperimentConfig))


@pytest.mark.parametrize("form", ["ini", "json", "json-text"])
def test_number_keys_read_alike_in_every_form(tmp_path, capsys, form):
    def load(**model):
        if form == "ini":
            text = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in model.items())
            return write(tmp_path, "n.ini", text)
        if form == "json-text":
            model = {k: str(v) for k, v in model.items()}
        return write(tmp_path, "n.json", json.dumps({"model": model}))

    cfg = load_config(load(n_sites=4.0, e_c=200))
    assert (cfg.n_sites, cfg.e_c) == (4, 200.0)
    assert type(cfg.n_sites) is int and type(cfg.e_c) is float
    if form != "json":  # integer text is read exactly, not through a float
        assert load_config(load(n_sites="10000000000000001")).n_sites == 10**16 + 1
    for key, value, problem in [("n_sites", "abc", "n_sites must be an integer, got 'abc'"),
                                ("n_sites", 2.5, "n_sites must be an integer, got "),
                                ("e_c", "abc", "e_c must be a number, got 'abc'")]:
        if form == "json" and value == "abc":
            continue  # a JSON string is the json-text form
        path = load(**{key: value})
        assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {problem}")
        assert not (tmp_path / "o").exists()


def test_validate_config_catches_bad_values():
    cfg = preset_config("fig2_sz")
    from dataclasses import replace

    for bad, message in [
        ({"t_max": 0.0}, r"^t_max must be positive and finite, got 0\.0$"),
        ({"t_max": math.inf}, r"^t_max must be positive and finite, got inf$"),
        ({"cutoff": 1}, r"^local dimension must be >= 2, got 1$"),
        ({"observables": ("sy",)}, r"^unknown observable 'sy'"),
        ({"n_sites": 5}, r"^domain_wall needs an even number of sites$"),
    ]:
        with pytest.raises(InvalidSpecError, match=message):
            validate_config(replace(cfg, **bad))
    # one error lists every problem, in the order of the checks
    with pytest.raises(InvalidSpecError, match=r"^local dimension must be >= 2, got 1; t_max must be"):
        validate_config(replace(cfg, t_max=0.0, cutoff=1))
    with pytest.raises(InvalidSpecError, match=r"^n_steps must be in \[2, 1000000\], got 1; "
                                               r"method must be one of .*, got 'foo'$"):
        validate_config(replace(cfg, n_steps=1, method="foo"))
    with pytest.raises(InvalidSpecError, match=r"^kind must be one of .*, got 'spins'$"):
        validate_config(replace(cfg, kind="spins", t_max=0.0))  # the kind stops the check
    # each verdict, whatever its message: refused (True) or accepted
    for changes, refused in [
        ({"kind": "verify", "method": "foo"}, True),
        ({"kind": "verify", "t_max": 0.0}, False),  # verify evolves nothing
        ({"kind": "spin", "cutoff": 1}, True),
        ({"kind": "spin", "cutoff": 3, "n_sites": 21, "initial_state": "neel"}, False),
        ({"kind": "design", "e_c": 200.0, "observables": ("foo",)}, False),
        ({"kind": "design", "e_c": 200.0, "n_sites": 0}, True),
        ({"kind": "spin", "variant": "x"}, True),
        ({"kind": "boson", "cutoff": 65, "n_sites": 1, "initial_state": "neel"}, True),
        ({"kind": "spin", "n_sites": 10**9}, True),
        ({"kind": "boson", "cutoff": 3, "n_sites": 10**9}, True),
        ({"kind": "compare", "observables": ("cxx",), "n_sites": 1, "initial_state": "neel"}, True),
        # verify builds both sides on the 2**n_sites hard-core states
        ({"kind": "verify", "cutoff": 3, "n_sites": 19}, False),
        ({"kind": "verify", "cutoff": 3, "n_sites": 20}, True),  # 3**20 states past the cap
        ({"kind": "verify", "cutoff": 2, "n_sites": 22}, True),  # 8 GiB for 2**22 states
        ({"kind": "verify", "cutoff": 64, "n_sites": 5}, False),
    ]:
        start = time.perf_counter()
        try:
            validate_config(replace(cfg, **changes))
            assert not refused, changes
        except InvalidSpecError:
            assert refused, changes
        # 3**(10**9) alone would take minutes: no verdict forms a huge power
        assert time.perf_counter() - start < 1.0, changes


def test_presets_parse_clean():
    for name in ("fig2_sz", "fig2_mx", "fig2_cxx", "table1_design"):
        validate_config(preset_config(name))


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


@pytest.mark.parametrize("kind", ["spin", "boson", "design"])
def test_validation_error_jja_encoding_outside_compare_and_verify(tmp_path, capsys, kind):
    ini = COMPARE_INI.replace("h = 4720.0", "h = 4720.0\ne_c = 200.0")
    valid = ini.replace("kind = compare", f"kind = {kind}")
    path = write(tmp_path, "ok.ini", valid)
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "ok"), "--quiet"]) == EXIT_OK
    path = write(tmp_path, "bad.ini", valid.replace("cutoff = 2", "cutoff = 2\nencoding = jja"))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert "kind = jja" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validation_error_circuit_regime(tmp_path, capsys):
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
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: link 1: e_coup/e_c = 0.75")
    assert "; link 2: e_coup/e_c = 0.75" in lines[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("observables, problem", [
    ("sz1, sz1", "observable 'sz1' is listed 2 times"),
    ("mx, sz1, mx, MX", "observable 'mx' is listed 3 times"),
])
def test_validation_error_repeated_observable(tmp_path, capsys, observables, problem):
    # a repeated name would write its compare file twice and repeat its distance row
    bad = COMPARE_INI.replace("observables = sz1, mx, cxx", f"observables = {observables}")
    path = write(tmp_path, "bad.ini", bad)
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [f"error: {problem}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["spin", "compare"])
def test_validation_error_infinite_horizon(tmp_path, kind):
    bad = COMPARE_INI.replace("t_max = 0.05", "t_max = inf").replace("kind = compare", f"kind = {kind}")
    path = write(tmp_path, "bad.ini", bad)
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
def test_validation_error_phase_past_float64_resolution(tmp_path, capsys, method):
    # at t = 5e299 us the phases are ~3e304 rad, which a float64 cannot resolve;
    # unrefused, dense_eig printed mx = 0.0587 there and krylov -0.282
    data = {"model": {"n_sites": 4, **SPIN_KEYS},
            "evolution": {"t_max": 1e300, "n_steps": 3, "method": method},
            "experiment": {"kind": "spin", "observables": ["mx"], "initial_state": "all_up_x"}}
    path = write(tmp_path, "long.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: t_max = 1e+300 us reaches a phase")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("good, bad", [
    ("e_c = 200.0", "e_c = nan"),
    ("e_j = 12500.0", "e_j = inf"),
    ("eprime_j = 1562.5", "eprime_j = nan"),
    ("e_c = 200.0", "e_c = 0.0"),
    ("e_c = 200.0", "e_c = -200.0"),
    ("e_j = 12500.0", "e_j = -20000.0"),
    # the whole config swapped for a design anchored at a negative or zero E_J
    pytest.param(JJA_INI, DESIGN_INI.replace("e_j = 12500.0", "e_j = -100.0"),
                 id="design-e_j = -100.0"),
    pytest.param(JJA_INI, DESIGN_INI.replace("e_j = 12500.0", "e_j = 0.0"),
                 id="design-e_j = 0.0"),
])
def test_validation_error_bad_circuit_energy(tmp_path, capsys, good, bad):
    path = write(tmp_path, "jja.ini", JJA_INI.replace(good, bad))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()  # one line lists every problem
    assert len(lines) == 1 and lines[0].startswith("error: ")
    key, _, value = bad.partition(" = ")
    if value in ("nan", "inf"):  # the circuit refuses it
        assert f"{key}[1] is not finite" in lines[0]
    assert not (tmp_path / "o").exists()


SPIN_KEYS = {"j": 40.0, "h": 4720.0}
CIRCUIT_KEYS = {"e_c": 200.0, "e_j": 12500.0, "eprime_j": 1562.5}


@pytest.mark.parametrize("kind, n_sites, cutoff, message", [
    ("verify", 20, 3, "3**20 exceeds"),
    ("boson", 20, 3, "3**20 exceeds"),
    ("jja", 20, 3, "3**20 exceeds"),
    ("spin", 40, 2, "2**40 exceeds"),
])
def test_validation_error_oversized_basis(tmp_path, capsys, kind, n_sites, cutoff, message):
    model = {"n_sites": n_sites, **(CIRCUIT_KEYS if kind == "jja" else SPIN_KEYS)}
    data = {"model": model, "experiment": {"kind": kind, "cutoff": cutoff}}
    path = write(tmp_path, "big.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validation_error_forced_dense_block_past_the_budget(tmp_path, capsys):
    # the run's estimate (2 KiB per state, 128 MiB) passes, but all_up_x touches a
    # C(16, 8) = 12870-state block that dense_eig would hold three times over
    data = {"model": {"n_sites": 16, **SPIN_KEYS}, "evolution": {"method": "dense_eig"},
            "experiment": {"kind": "spin", "initial_state": "all_up_x"}}
    path = write(tmp_path, "dense.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert "error: dense_eig would diagonalize a block of 12870 states" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# both pass every other check; unchecked, numpy raises MemoryError for the
# grid and ValueError ("array is too big") for the local operators
@pytest.mark.parametrize("data, message", [
    pytest.param({"model": {"n_sites": 2, **SPIN_KEYS}, "evolution": {"n_steps": 10**15},
                  "experiment": {"kind": "spin"}}, "n_steps must be in [2, 1000000]",
                 id="grid"),
    pytest.param({"model": {"n_sites": 1, **SPIN_KEYS},
                  "experiment": {"kind": "boson", "cutoff": 10**9, "initial_state": "neel"}},
                 "limit of 64 levels", id="cutoff"),
])
def test_validation_error_grid_or_cutoff_beyond_the_limit(tmp_path, capsys, data, message):
    path = write(tmp_path, "big.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_refusal_that_validation_misses_still_exits_2(tmp_path, capsys, monkeypatch):
    # the owner of a limit refuses with InvalidSpecError, also past a validation
    # that misses it, so the run exits 2 before it writes anything
    import spinbh.config

    monkeypatch.setattr(spinbh.config, "validate_config", lambda cfg: None)
    data = {"model": {"n_sites": 2, **SPIN_KEYS}, "evolution": {"n_steps": 1},
            "experiment": {"kind": "spin"}}
    path = write(tmp_path, "c.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: n_steps must be in [2, 1000000], got 1"]
    assert not (tmp_path / "o").exists()


# both pass the basis-size checks, yet the initial state alone would be 17-19 GB
@pytest.mark.parametrize("n_sites, cutoff", [(5, 64), (19, 3)])
def test_validation_error_run_beyond_the_memory_budget(tmp_path, capsys, n_sites, cutoff):
    data = {"model": {"n_sites": n_sites, **SPIN_KEYS},
            "experiment": {"kind": "boson", "cutoff": cutoff, "initial_state": "neel"}}
    path = write(tmp_path, "big.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "estimated peak memory" in err and "budget of 4 GiB" in err
    assert not (tmp_path / "o").exists()


# a design builds at most SHEET_SITES sites, whose sheet every longer chain shares
@pytest.mark.parametrize("n_sites, code", [(100, EXIT_OK), (10**8, EXIT_OK), (10**18, EXIT_OK),
                                           (0, EXIT_VALIDATION)])
def test_design_run_within_the_memory_budget(tmp_path, capsys, n_sites, code):
    four = write(tmp_path, "four.ini", DESIGN_INI)  # run first, so the timing below imports nothing
    assert run_cli(["run", four, "--out-dir", str(tmp_path / "four"), "--quiet"]) == EXIT_OK
    path = write(tmp_path, "design.ini", DESIGN_INI.replace("n_sites = 4", f"n_sites = {n_sites}"))
    start = time.perf_counter()
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == code
    assert time.perf_counter() - start < 1.0
    if code == EXIT_OK:
        sheet = (tmp_path / "o" / "parameter_sheet.csv").read_bytes()
        assert sheet == (tmp_path / "four" / "parameter_sheet.csv").read_bytes()
    else:
        assert capsys.readouterr().err.splitlines() == ["error: n_sites must be >= 1, got 0"]
        assert not (tmp_path / "o").exists()


def test_weakly_anharmonic_design_warns_for_the_sites_it_builds(tmp_path, capsys):
    # every site of a homogeneous design has the same ratio; the run builds four
    ini = DESIGN_INI.replace("n_sites = 4", "n_sites = 6").replace("e_j = 12500.0", "e_j = 1000.0")
    assert run_cli(["run", write(tmp_path, "design.ini", ini), "--out-dir", str(tmp_path / "o"),
                    "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        f"warning: site {s}: e_c/e_j = 0.2 exceeds 0.1; weakly anharmonic regime not satisfied"
        for s in range(4)]


@pytest.mark.parametrize("key, value", [
    ("j", None), ("n_sites", [2]), ("n_sites", 2.7), ("j", True),
])
def test_usage_error_json_value_of_wrong_type(tmp_path, capsys, key, value):
    data = {
        "model": {"n_sites": 2, **SPIN_KEYS, key: value},
        "evolution": {"t_max": 0.01, "n_steps": 3},
        "experiment": {"kind": "spin", "initial_state": "neel"},
    }
    path = write(tmp_path, "typed.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE
    assert f"error: {path}: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("output", "out_dir", None), ("output", "out_dir", {"x": 1}), ("experiment", "kind", None),
    ("experiment", "kind", True), ("evolution", "method", ["auto"]),
    ("experiment", "initial_state", False), ("experiment", "observables", None),
    ("experiment", "observables", ["sz1", None]),
])
def test_usage_error_json_string_key_of_wrong_type(tmp_path, capsys, section, key, value):
    data = {"model": {"n_sites": 2, **SPIN_KEYS}, "evolution": {"t_max": 0.01, "n_steps": 3},
            "experiment": {"kind": "spin", "initial_state": "neel"}}
    data.setdefault(section, {})[key] = value
    path = write(tmp_path, "typed.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {key} must be a string, got ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key, value", [
    ("model", "include_boundary", None), ("model", "include_boundary", [1]),
    ("model", "include_boundary", {"x": 1}), ("model", "include_boundary", "maybe"),
    ("model", "include_boundary", 2), ("experiment", "match_field", None),
    ("experiment", "match_field", 0.5),
])
def test_usage_error_json_bool_key_of_wrong_type(tmp_path, capsys, section, key, value):
    data = {"model": {"n_sites": 2, **SPIN_KEYS}, "evolution": {"t_max": 0.01, "n_steps": 3},
            "experiment": {"kind": "spin", "initial_state": "neel"}}
    data[section][key] = value
    path = write(tmp_path, "typed.json", json.dumps(data))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: {key} must be a boolean, got {value!r}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["spin", "boson"])
def test_validation_error_spin_kind_without_model_names_no_encoding(tmp_path, capsys, kind):
    # spin and boson runs read no encoding, so the message names none
    path = write(tmp_path, "bare.ini", f"[experiment]\nkind = {kind}\ninitial_state = neel\n")
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: kind={kind} requires model key J; kind={kind} requires model key h"]
    path = write(tmp_path, "bare.ini", "[experiment]\nkind = verify\n")
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_VALIDATION
    assert "kind=verify with encoding=ebh requires model key J" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validation_error_empty_out_dir(tmp_path, capsys):
    path = write(tmp_path, "cmp.ini", COMPARE_INI + "out_dir =\n")
    assert run_cli(["run", path, "--quiet"]) == EXIT_VALIDATION
    path = write(tmp_path, "cmp.ini", COMPARE_INI + f"out_dir = {tmp_path / 'o'}\n")
    assert run_cli(["run", path, "--out-dir", "", "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["error: out_dir must not be empty"] * 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "2.5"])
def test_usage_error_bad_thread_count(tmp_path, threads):
    # refused before numpy loads, so no BLAS pool ever sees the value
    src = os.path.dirname(os.path.dirname(operators.__file__))
    env = dict(os.environ, PYTHONPATH=src, SPINBH_THREADS=threads)
    code = ("import sys, spinbh.cli; code = spinbh.cli.main(sys.argv[1:]); "
            "assert 'numpy' not in sys.modules; sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code, "--preset", "fig2_sz",
                           "--out-dir", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines() == [
        f"error: SPINBH_THREADS must be a positive integer, got {threads!r}"]
    assert not (tmp_path / "o").exists()


def test_flags_read_like_their_file_keys(tmp_path, capsys):
    small = COMPARE_INI.replace("n_steps = 41", "n_steps = 11")
    flagged = write(tmp_path, "flag.ini", small)
    path = write(tmp_path, "key.ini", small.replace("method = auto", "method = KRYLOV"))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "k"), "--quiet"]) == EXIT_OK
    assert run_cli(["run", flagged, "--out-dir", str(tmp_path / "f"), "--method", "KRYLOV",
                    "--quiet"]) == EXIT_OK
    flagged_verify = write(tmp_path, "flag_v.ini", verify_ini("ebh", 4, 2))
    path = write(tmp_path, "key_v.ini", verify_ini("ebh", 4, "3.0"))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "k3"), "--quiet"]) == EXIT_OK
    assert run_cli(["run", flagged_verify, "--out-dir", str(tmp_path / "f3"), "--cutoff", "3.0",
                    "--quiet"]) == EXIT_OK
    for a, b in (("k", "f"), ("k3", "f3")):
        names = sorted(os.listdir(tmp_path / a))
        assert names == sorted(os.listdir(tmp_path / b))
        for name in names:
            assert (tmp_path / a / name).read_bytes() == (tmp_path / b / name).read_bytes()
    assert "local_dim = 3\n" in (tmp_path / "f3" / "equivalence_report.txt").read_text()
    capsys.readouterr()
    out = tmp_path / "bad"
    assert run_cli(["--preset", "fig2_sz", "--cutoff", "abc", "--out-dir", str(out)]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "cutoff must be an integer, got 'abc'" in lines[0] and "None" not in lines[0]
    assert not out.exists()


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

SPIN_INI = """\
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


def test_single_spin_run(tmp_path):
    out = tmp_path / "spin"
    path = write(tmp_path, "spin.ini", SPIN_INI)
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["sz1_spin.csv", "sz1_spin.dat"]
    header = (out / "sz1_spin.csv").read_text().splitlines()[0]
    assert header == "time_us,value"


def test_spin_run_refuses_a_cutoff_past_the_limit(tmp_path, capsys):
    # a spin run reads no cutoff, but every kind holds it to MAX_CUTOFF alike
    path = write(tmp_path, "spin.ini", SPIN_INI + "cutoff = 100\n")
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "spin"), "--quiet"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: local dimension 100 exceeds the limit of 64 levels per site"]
    assert not (tmp_path / "spin").exists()


@pytest.mark.parametrize("method", ["dense_eig", "krylov"])
@pytest.mark.parametrize("state", ["domain_wall", "neel"])
def test_spin_run_on_the_closure_writes_the_full_space_series_bit_for_bit(tmp_path, state, method):
    # the command line builds the spin side on the closure of psi0; evolve
    # still takes the full 2**N space and restricts it to the touched blocks
    from spinbh.dynamics import EvolutionConfig, evolve
    from spinbh.hilbert import named_initial_state
    from spinbh.model import chain_spec

    names = ("sz1", "mx", "cxx")
    ini = (SPIN_INI.replace("n_sites = 2", "n_sites = 6").replace("h = 0.0", "h = 4720.0")
           .replace("n_steps = 11", f"n_steps = 11\nmethod = {method}").replace("neel", state)
           .replace("observables = sz1", f"observables = {', '.join(names)}")
           + "\n[output]\nprecision = 17\n")
    out = tmp_path / "spin"
    assert run_cli(["run", write(tmp_path, "spin.ini", ini), "--out-dir", str(out),
                    "--quiet"]) == EXIT_OK
    full = FockBasis(6, 2)
    ref = evolve(operators.build_h_spin(chain_spec(6, 40.0, 4720.0)),
                 named_initial_state(full, state, "spin"), EvolutionConfig(0.05, 11, method),
                 {name: operators.observable(name, "spin", full) for name in names})
    for name in names:
        rows = (out / f"{name}_spin.csv").read_text().splitlines()[1:]
        got = np.array([float(row.split(",")[1]) for row in rows])  # %.17g reads back exactly
        assert np.array_equal(got.view(np.int64), ref.values[name].view(np.int64))


def test_jja_run_with_leakage_column(tmp_path):
    out = tmp_path / "jja"
    path = write(tmp_path, "jja.ini", JJA_INI)
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    lines = (out / "sz1_boson.csv").read_text().splitlines()
    assert lines[0] == "time_us,value,leakage"


def test_circuit_without_boundary_gets_exact_coupling_on_every_link(tmp_path, capsys):
    from spinbh.cli import _build_circuit
    from spinbh.mapping import constraint_residual, derive_jja_params

    ini = JJA_INI.replace("n_sites = 2", "n_sites = 4\ninclude_boundary = false")
    path = write(tmp_path, "jja.ini", ini)
    circuit = _build_circuit(load_config(path))
    resid = constraint_residual(circuit)
    assert np.all(np.abs(resid) <= 1e-12 * np.array(circuit.e_coup[1:-1]))
    params = derive_jja_params(circuit)
    assert np.allclose(params.t, -0.5 * np.array(params.delta), rtol=1e-12, atol=0.0)
    capsys.readouterr()
    # bare ends make E_C/E_L uneven: that warning is printed once, and nothing else
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
    assert [line.split(";")[0] for line in capsys.readouterr().err.splitlines()] == [
        "warning: E_C/E_L varies by 0.1 along the chain"
    ]


def test_every_run_reports_each_regime_warning_once(tmp_path, capsys):
    # Python's warning registry once hid these on every run after the first
    ini = JJA_INI.replace("n_sites = 2", "n_sites = 4\ninclude_boundary = false\ne_coup = 18")
    path = write(tmp_path, "jja.ini", ini.replace("kind = jja", "kind = compare\nencoding = jja"))
    for run in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["run", path, "--out-dir", str(tmp_path / f"o{run}"), "--quiet"]) == 0
        assert not caught
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" by ")[0] for line in lines] == [
            "warning: E_C/E_L varies", "warning: coupling constraint violated"
        ]


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


@pytest.mark.parametrize("model, n_sites, cutoff", [("jja", 3, 3), ("ebh", 1, 4)],
                         ids=["jja", "ebh"])
def test_verify_report_head(tmp_path, model, n_sites, cutoff):
    # the report's first rows are the run's N and d, then the projected dimension
    if model == "jja":
        ini = (f"[model]\nn_sites = {n_sites}\ne_c = 200.0\ne_j = 12500.0\n"
               f"eprime_j = 1562.5\n\n[experiment]\nkind = verify\nencoding = jja\n"
               f"cutoff = {cutoff}\n")
    else:
        ini = verify_ini(model, n_sites, cutoff)
    out = tmp_path / "ver"
    path = write(tmp_path, "verify.ini", ini)
    assert run_cli(["run", path, "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "equivalence_report.txt").read_text().splitlines()
    assert lines[:3] == [f"n_sites = {n_sites}", f"local_dim = {cutoff}",
                         f"physical_dim = {2**n_sites}"]
    entries = dict(line.split(" = ") for line in lines)
    assert float(entries["residual_max"]) < 1e-9
    assert float(entries["coupling_norm"]) < 1e-9


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


def test_forced_krylov_compare_runs_both_sides_on_the_touched_states(tmp_path, monkeypatch):
    # domain_wall at N=8 touches the C(8, 4) = 70 half-filling states of the
    # 256 spin states, and its cutoff-3 closure is the same 70 hard-core states
    from spinbh import dynamics

    starts = {}  # Lanczos start lengths under each side's label
    evolve, lanczos = dynamics.evolve, dynamics._lanczos

    def evolve_spy(*args, **kwargs):
        starts[kwargs["hamiltonian_label"]] = []
        return evolve(*args, **kwargs)

    def lanczos_spy(matvec, v, m):
        list(starts.values())[-1].append(len(v))
        return lanczos(matvec, v, m)

    monkeypatch.setattr(dynamics, "evolve", evolve_spy)
    monkeypatch.setattr(dynamics, "_lanczos", lanczos_spy)
    ini = COMPARE_INI.replace("n_sites = 4", "n_sites = 8").replace("cutoff = 2", "cutoff = 3")
    out = tmp_path / "kry"
    assert run_cli(["run", write(tmp_path, "cmp.ini", ini), "--method", "krylov",
                    "--out-dir", str(out), "--quiet"]) == EXIT_OK
    assert list(starts) == ["compare:spin", "compare:boson"]
    assert all(lengths and set(lengths) == {70} for lengths in starts.values())
    for row in (out / "trajectory_distance.csv").read_text().splitlines()[1:]:
        _, max_abs, rms, _ = row.split(",")
        assert float(max_abs) < 1e-12 and float(rms) < 1e-12


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


def test_cutoff3_verify_reaches_17_sites(tmp_path):
    # 3**17 boson states, of which verify builds on the 2**17 hard-core ones
    out = tmp_path / "ver"
    path = write(tmp_path, "verify.ini", verify_ini("ebh", 17, 3))
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    assert "residual_max = 0\n" in (out / "equivalence_report.txt").read_text()


def verify_ini(model, n_sites, cutoff):
    """Verify config of the paper chain (``model`` ebh) or circuit (a JJA variant)."""
    if model == "ebh":
        energies, encoding = "J = 40.0\nh = 4720.0", "encoding = ebh"
    else:
        energies = "e_c = 200.0\ne_j = 12500.0\neprime_j = 1562.5"
        encoding = f"encoding = jja\nvariant = {model}"
    return (f"[model]\nn_sites = {n_sites}\n{energies}\n\n"
            f"[experiment]\nkind = verify\ncutoff = {cutoff}\n{encoding}\n")


def spy_builds(monkeypatch, names=("build_h_ebh", "build_h_jja", "build_h_spin", "observable")):
    """(function name, basis or None, operator) of every build the command line makes."""
    built = []
    for name in names:
        def spy(*args, _name=name, _build=getattr(operators, name), **kwargs):
            basis = next((a for a in args if isinstance(a, FockBasis)), None)
            built.append((_name, basis, _build(*args, **kwargs)))
            return built[-1][2]
        monkeypatch.setattr(operators, name, spy)
    return built


@pytest.mark.parametrize("model", ["ebh", "simplified", "full"])
def test_verify_builds_no_entry_between_two_states_outside_the_hard_core_set(
        tmp_path, monkeypatch, model):
    built = spy_builds(monkeypatch, ("build_h_ebh", "build_h_jja"))
    path = write(tmp_path, "verify.ini", verify_ini(model, 4, 4))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    [(_, basis, h)] = built
    # built on the hard-core states P alone: every stored entry is in P H P, and
    # of Q H P only its largest entry is kept
    assert np.array_equal(basis.states, physical_mask(FockBasis(4, 4)))
    assert h.dim == 16 and h.matrix.nnz
    report = dict(line.split(" = ") for line in
                  (tmp_path / "out" / "equivalence_report.txt").read_text().splitlines())
    assert report["coupling_norm"] == f"{h.dropped:.12g}"


def test_compare_builds_both_sides_on_the_closure_of_psi0_only(tmp_path, monkeypatch):
    # domain_wall at N=10 reaches the 252 hard-core states with five particles of
    # 3**10 on the boson side, and the 252 states with five spins up of 2**10 on the spin side
    built = spy_builds(monkeypatch)
    ini = verify_ini("ebh", 10, 3).replace("kind = verify", "kind = compare\n"
                                           "initial_state = domain_wall\nobservables = sz1, mx, cxx")
    path = write(tmp_path, "c3.ini", ini + "\n[evolution]\nt_max = 0.001\nn_steps = 3\n")
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    boson = [op.dim for name, basis, op in built if basis is not None and basis.local_dim == 3]
    spin = [op.dim for name, basis, op in built if basis.local_dim == 2]
    assert boson == [252] * 4 and spin == [252] * 4  # H and three observables a side


@pytest.mark.parametrize("model", ["ebh", "full"])
def test_verify_builds_on_the_hard_core_states_only(tmp_path, monkeypatch, model):
    built = spy_builds(monkeypatch)
    path = write(tmp_path, "verify.ini", verify_ini(model, 9, 3))
    assert run_cli(["run", path, "--out-dir", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert [op.dim for _, _, op in built] == [2**9, 2**9]


def test_full_circuit_compare_of_twelve_sites_at_cutoff_three(tmp_path, monkeypatch):
    """8074 of 3**12 states, half filling: Lanczos on the closure, not the full space."""
    built = spy_builds(monkeypatch, ("build_h_jja",))
    ini = (verify_ini("full", 12, 3).replace("kind = verify", "kind = compare\n"
                                             "initial_state = domain_wall\nobservables = sz1, cxx")
           + "\n[evolution]\nt_max = 0.0025\nn_steps = 11\n")
    out = tmp_path / "out"
    assert run_cli(["run", write(tmp_path, "c.ini", ini), "--out-dir", str(out), "--quiet"]) == EXIT_OK
    assert [op.dim for _, _, op in built] == [8074]
    for obs in ("sz1", "cxx"):
        rows = (out / f"compare_{obs}.csv").read_text().splitlines()[1:]
        assert len(rows) == 11
        assert max(float(r.split(",")[3]) for r in rows) < 1e-8
        assert max(float(r.split(",")[4]) for r in rows) < 1e-12


@pytest.mark.parametrize("model, bound", [("ebh", 1e-12), ("full", 1e-9)])
def test_verify_chain_of_twelve_at_cutoff_three(tmp_path, model, bound):
    """Criterion 4 and 6 bounds, relative to the spin Hamiltonian's scale."""
    out = tmp_path / "ver"
    path = write(tmp_path, "verify.ini", verify_ini(model, 12, 3))
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    entries = dict(line.split(" = ")
                   for line in (out / "equivalence_report.txt").read_text().splitlines())
    assert (entries["n_sites"], entries["local_dim"], entries["physical_dim"]) == ("12", "3", "4096")
    scale = 12 * (4720.0 / 2 + 40.0 / 4) if model == "ebh" else 12 * (5000.0 / 2 + 40.0)
    for key in ("residual_max", "coupling_norm", "hermiticity_boson", "hermiticity_spin"):
        assert float(entries[key]) < bound * scale


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


# ---------------------------------------------------------------- output format

def test_write_table_streams_rows(tmp_path):
    import tracemalloc

    from spinbh.cli import _write_table

    columns = np.random.default_rng(0).standard_normal((5, 200_000))
    tracemalloc.start()
    try:
        _write_table(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], zip(*columns), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 200_001


@pytest.mark.parametrize("precision", [1, 5, 17])
def test_write_table_formats_floats_only(tmp_path, precision):
    from spinbh.cli import _write_table

    row = ["sz1", 7, 0.1, np.float64(-2.5e-7), -0.0, math.nan, math.inf]
    _write_table(tmp_path / "t.csv", None, [row], precision)
    spec = f".{precision}g"
    expected = ["sz1", "7", *(format(x, spec) for x in row[2:])]
    assert (tmp_path / "t.csv").read_text() == ",".join(expected) + "\n"


def test_write_table_round_trips_floats_at_precision_17(tmp_path):
    from spinbh.cli import _write_table

    rng = np.random.default_rng(1)
    values = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    values = np.append(values, [1 / 3, 5e-324, np.finfo(float).max, -0.0])
    _write_table(tmp_path / "t.dat", None, zip(values), 17)
    parsed = np.array([float(x) for x in (tmp_path / "t.dat").read_text().split()])
    assert np.array_equal(parsed, values) and np.array_equal(np.signbit(parsed), np.signbit(values))


def test_verify_report_at_precision_one(tmp_path):
    out = tmp_path / "ver"
    path = write(tmp_path, "verify.ini", verify_ini("full", 4, 3) + "\n[output]\nprecision = 1\n")
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    entries = dict(line.split(" = ")
                   for line in (out / "equivalence_report.txt").read_text().splitlines())
    assert (entries["n_sites"], entries["local_dim"], entries["physical_dim"]) == ("4", "3", "16")
    floats = [v for k, v in entries.items() if k not in ("n_sites", "local_dim", "physical_dim")]
    assert any(float(v) != 0.0 for v in floats)
    for v in floats:
        assert v == format(float(v), ".1g") and len(v.lstrip("-").split("e")[0]) == 1


def test_output_files_keep_their_key_and_column_order(tmp_path):
    out = tmp_path / "ver"
    path = write(tmp_path, "verify.ini", verify_ini("ebh", 4, 3))
    assert run_cli(["run", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
    keys = [line.split(" = ")[0]
            for line in (out / "equivalence_report.txt").read_text().splitlines()]
    assert keys == ["n_sites", "local_dim", "physical_dim", "offset_mhz", "residual_max",
                    "residual_frobenius", "coupling_norm", "hermiticity_boson",
                    "hermiticity_spin"]
    assert run_cli(["--preset", "table1_design", "--out-dir", str(tmp_path / "d"),
                    "--quiet"]) == EXIT_OK
    header = (tmp_path / "d" / "parameter_sheet.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "E_C_MHz", "E_J_MHz", "E_L_MHz", "E_coup_MHz", "Eprime_J_MHz",
        "omega_MHz", "T_MHz", "delta_omega_MHz", "Delta_MHz",
        "t_MHz", "Tprime_MHz", "E_coup_simplified_MHz",
        "J_MHz", "h_bulk_MHz", "h_edge_MHz",
    ]
