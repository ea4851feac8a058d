"""Measure the benchmark's spread and record the baseline of the code in this checkout.

    python3 perfbench/baseline.py --seeds 301-310 [--workload presets] [--write]

For each workload, runs ``run.py --trace 0`` once per seed and prints, for
every end-to-end metric, the median, the quartiles and the distance between
the quartiles over the median (``statistics.quantiles(values, n=4)``).
With ``--write`` it adds one traced run (seed 7) per workload and writes all
of it to ``perfbench/baseline.json``.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEED = 7


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, plus the run's result.json."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    name = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(ROOT, ".perfbench_runs", name, "result.json"), encoding="utf-8") as fh:
        line["record"] = json.load(fh)
    return line


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 301-310")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--machine", default="", help="hardware description for the record")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"run_seconds": args.seconds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(bench(workload, seed, args.seconds, 0))
            values = {k: round(m["value"], 4) for k, m in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        entry = {
            "seeds": _seeds(args.seeds), "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: spread([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
        }
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4g}  IQR/median "
                  f"{s['iqr_over_median']:.3f}  bound {bounds[name]}", flush=True)
        if args.write:
            traced = bench(workload, TRACE_SEED, args.seconds, 1)
            entry["per_layer_seed"] = TRACE_SEED
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["sectors"] = traced["record"]["sectors"]
        out["workloads"][workload] = entry
    if args.write:
        out = {"measured_on": {"machine": args.machine, **runs[-1]["record"]["env"]}, **out}
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
