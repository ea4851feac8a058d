"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

Smoke-size runs of every workload through run.py, the output checks against
a deliberately corrupted output, the bit-built spin oracle against
tests/oracles.py, and the refusal to run outside a spinbh checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [("presets", 1), ("cutoff3", 0), ("cutoff3", 1)])
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(m["unit"] == expected[k] for k, m in result["metrics"].items())
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["operators.build_calls"] > 0 and metrics["operators.nnz"] > 0
        name = f"{workload}-seed3-trace1-smoke"
        with open(os.path.join(run.RUNS_DIR, name, "trace.json"), encoding="utf-8") as fh:
            trace_file = json.load(fh)
        assert all(s["end"] >= s["start"] for s in trace_file["spans"])
        # the layers' self times account for the traced passes' wall time
        for per_pass in trace_file["per_pass"]:
            assert abs(per_pass["trace.unaccounted_s"]) < 0.05
        methods = {(s["sector"], s["method"]) for s in trace_file["sectors"]}
        if workload == "presets":
            assert methods == {("compare:spin", "dense_eig"), ("compare:boson", "dense_eig")}
        if workload == "cutoff3":
            assert ("compare:boson", "krylov") in methods
            assert metrics["dynamics.matvecs"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _run_ops(ops, out_root):
    from spinbh.cli import main

    done = []
    for op in ops:
        out_dir = os.path.join(out_root, op["name"])
        done.append({"name": op["name"], "out_dir": out_dir, "error": None,
                     "rc": main(op["argv"] + ["--out-dir", out_dir, "--quiet"])})
    return [{"index": 0, "ops": done}]


def test_corrupted_csv_value_counts_as_failed_operation(tmp_path):
    ops = workloads.build_ops("cutoff3", 5, str(tmp_path / "inputs"), smoke=True)
    assert ops[0]["check"]["kind"] == "compare"
    passes = _run_ops(ops, str(tmp_path / "out"))
    oracles = checks.load_oracles(ROOT)
    assert run.check_passes(passes, ops, oracles) == (len(ops), 0, [])

    path = os.path.join(passes[0]["ops"][0]["out_dir"], "compare_mx.csv")
    with open(path, encoding="ascii") as fh:
        rows = fh.read().splitlines()
    cells = rows[3].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)  # one boson value, off by 1e-6
    rows[3] = ",".join(cells)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")

    attempted, failed, problems = run.check_passes(passes, ops, oracles)
    assert (attempted, failed) == (len(ops), 1)
    assert any("compare_mx.csv" in p for p in problems)


def test_nonzero_exit_code_counts_as_failed_operation():
    ops = [{"name": "op", "check": {"kind": "design", "J": 40.0}}]
    passes = [{"index": 0, "ops": [{"name": "op", "out_dir": "", "rc": 2, "error": None}]}]
    attempted, failed, problems = run.check_passes(passes, ops, None)
    assert (attempted, failed) == (1, 1) and "exit code 2" in problems[0]


def test_bit_built_spin_oracle_matches_dense_oracle():
    oracles = checks.load_oracles(ROOT)
    n, coupling, field = 4, 41.3, 4650.0
    edges = [(j, j + 1, coupling) for j in range(n - 1)]
    ref = oracles.dense_h_spin(n, edges, [field] * n)
    assert np.max(np.abs(checks.spin_hamiltonian(n, coupling, field) - ref)) < 1e-9


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
