"""spinbh benchmark: one workload per run, every metric on the last output line.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py and README.md): presets, cutoff3.

The run starts a fresh worker process that imports the package from this
checkout's ``src/`` and calls ``spinbh.cli.main`` for each operation of the
workload, pass after pass, for ``--seconds``.  Afterwards this process
checks every operation's output and prints one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: setup_s (median cold import
over several fresh processes), wall_s and cpu_s (median per pass),
peak_rss_mb (worker process).  ``--trace 1`` reports the per-layer metrics
from traced passes and writes the spans to ``.perfbench_runs/``.

The worker runs with one BLAS thread (SPINBH_THREADS=1): on a few shared
cores, a second thread mostly measures the host's scheduler.  It also runs
with NUMPY_MADVISE_HUGEPAGE=0, so that peak memory does not depend on how
many huge pages the host has free.  The output checks in this process run
afterwards with the library's default threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
THREADS = 1  # BLAS threads of the worker and the import probes
# Fresh import-only processes besides the worker's own import, half of them
# before the worker and half after, so that they sample the machine at both ends.
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 30.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dynamics.dense_s": "s", "dynamics.dense_calls": "count",
    "dynamics.krylov_s": "s", "dynamics.matvecs": "count",
    "dynamics.grid_points": "count", "hilbert.dim_max": "states",
    "operators.build_s": "s", "operators.build_calls": "count",
    "operators.nnz": "count", "operators.observable_s": "s",
    "verify.s": "s", "cli.self_s": "s", "cli.plot_s": "s", "output.bytes": "B",
    "config.s": "s", "mapping.s": "s", "hilbert.s": "s", "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def child_environment() -> dict:
    """Thread caps and import path of every child process; this one keeps its own."""
    env = dict(os.environ)
    for var in ("SPINBH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"  # see the module docstring
    src = os.path.join(ROOT, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a worker process to completion; its stdout is returned, stderr passes through."""
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=False,
                          env=child_environment())


def probe_setup(count: int, samples: list[float]) -> bool:
    """Append ``count`` cold-import times, each from a fresh process."""
    for _ in range(count):
        probe = _child(["--probe"], timeout=60)
        if probe.returncode != 0:
            print("error: import probe failed", file=sys.stderr)
            return False
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return True


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def check_passes(passes: list[dict], ops: list[dict], oracles) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass."""
    from checks import check_output

    attempted = failed = 0
    problems = []
    cache: dict = {}
    for p in passes:
        for op, done in zip(ops, p["ops"]):
            attempted += 1
            if done["rc"] != 0:
                found = [f"exit code {done['rc']}" + (f"\n{done['error']}" if done["error"] else "")]
            else:
                found = check_output(done["out_dir"], op["check"], oracles, cache)
            if found:
                failed += 1
                problems.extend(f"pass {p['index']} {op['name']}: {msg}" for msg in found)
    return attempted, failed, problems


def layer_metrics(result: dict) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced passes) and the trace file's summary."""
    from spans import add_self_times, pass_metrics

    spans = result["spans"]
    add_self_times(spans)
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        values = pass_metrics([s for s in spans if s["pass"] == p["index"]])
        values["output.bytes"] = sum(_dir_bytes(op["out_dir"]) for op in p["ops"])
        values["trace.unaccounted_s"] = p["wall_s"] - values.get("trace.root_s", 0.0)
        per_pass.append(values)
    metrics = {name: statistics.median(v.get(name, 0) for v in per_pass)
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    sectors = [{k: s[k] for k in ("pass", "op", "sector", "method", "dim", "matvecs", "grid_points")}
               for s in spans if s["role"] == "evolve"]
    return metrics, {"per_pass": per_pass, "sectors": sectors}


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    for needed in (os.path.join("src", "spinbh", "__init__.py"), os.path.join("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a spinbh checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, build_ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = os.path.join(RUNS_DIR, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = build_ops(args.workload, args.seed, os.path.join(run_dir, "inputs"), smoke=args.smoke)

    setup_samples = []
    probes = 0 if args.trace else SETUP_PROBES // 2
    if not probe_setup(probes, setup_samples):
        return 3

    plan = {"root": ROOT, "run_dir": run_dir, "ops": ops, "seconds": args.seconds,
            "trace": bool(args.trace), "result": os.path.join(run_dir, "worker.json")}
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    budget = RUN_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - started)
    try:
        worker = _child([plan_path], timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 3
    sys.stderr.write(worker.stdout)
    if worker.returncode != 0:
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 3
    if not probe_setup(probes, setup_samples):
        return 3
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(plan["result"])

    from checks import load_oracles

    attempted, failed, problems = check_passes(result["passes"], ops, load_oracles(ROOT))
    untraced = [p for p in result["passes"] if not p["traced"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": THREADS, "env": result["env"],
              "passes": [{k: p[k] for k in ("index", "traced", "wall_s", "cpu_s")}
                         for p in result["passes"]],
              "attempted": attempted, "failed": failed, "problems": problems}
    if args.trace:
        metrics, summary = layer_metrics(result)
        units = PER_LAYER
        with open(os.path.join(run_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({**record, **summary, "spans": result["spans"]}, fh, indent=1)
        record["unaccounted_s"] = [v["trace.unaccounted_s"] for v in summary["per_pass"]]
        record["sectors"] = sorted({(s["op"], s["sector"], s["method"], s["dim"])
                                    for s in summary["sectors"]})
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples + [result["setup_s"]]),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        record["setup_samples_s"] = setup_samples + [result["setup_s"]]
    record["metrics"] = metrics
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(os.path.join(run_dir, "out"), ignore_errors=True)

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['passes'])}  "
          f"nproc {env['nproc']}  SPINBH_THREADS {env['spinbh_threads']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"openblas {env['openblas_numpy']}/{env['openblas_scipy']}")
    for msg in problems:
        print(f"FAILED {msg}")
    if args.trace:
        for op, sector, method, dim in record["sectors"]:
            print(f"sector {op} {sector}: {method}, dim {dim}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
