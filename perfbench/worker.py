"""Workload process: a cold import, then passes of CLI operations for a time budget.

    python3 worker.py <plan.json>   run the plan, write its result file
    python3 worker.py --probe       print only the cold-import time as JSON

The plan lists the operations (CLI argument lists), the budget in seconds,
whether to trace, and where to write outputs.  Every operation goes through
``spinbh.cli.main``.  A pass runs every operation once; passes repeat until
the next one would end more than half a pass past the budget.  A traced run alternates untraced
and traced passes, so the tracing overhead is measured in the same process.
Only the operations are timed: before each one, the previous one's cyclic
garbage is collected outside the timed window.  Peak resident memory is read
after the first pass, so it is what one fresh CLI process would reach.
Output checks happen later, in the parent process, outside the timed window.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import sys
import time
import traceback

# The package modules the CLI loads; importing them pulls in numpy and scipy.
CLI_MODULES = (
    "spinbh.cli", "spinbh.config", "spinbh.model", "spinbh.hilbert",
    "spinbh.operators", "spinbh.mapping", "spinbh.dynamics", "spinbh.verify",
)


def cold_import() -> float:
    start = time.perf_counter()
    for name in CLI_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_version(module) -> str:
    try:
        return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "spinbh_threads": os.environ.get("SPINBH_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
    }


def _run_op(op: dict, out_dir: str) -> dict:
    import spinbh.cli

    try:
        rc, error = spinbh.cli.main(op["argv"] + ["--out-dir", out_dir, "--quiet"]), None
    except Exception:  # a crashing operation is a failed one; the run goes on
        rc, error = None, traceback.format_exc()
    return {"name": op["name"], "out_dir": out_dir, "rc": rc, "error": error}


def run_plan(plan: dict) -> dict:
    setup_s = cold_import()
    import spinbh

    expected = os.path.join(plan["root"], "src", "spinbh")
    if os.path.dirname(os.path.abspath(spinbh.__file__)) != expected:
        raise SystemExit(f"spinbh imported from {spinbh.__file__}, not {expected}")

    tracer = None
    if plan["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        uninstall = install(tracer) if traced else None
        if traced:
            tracer.pass_index = index
        ops = []
        wall = cpu = 0.0
        for op in plan["ops"]:
            if traced:
                tracer.op = op["name"]
            # free the previous operation's cyclic garbage outside the timed window,
            # as a fresh CLI process would start without it
            gc.collect()
            wall0, cpu0 = time.perf_counter(), _cpu_s()
            ops.append(_run_op(op, os.path.join(plan["run_dir"], "out", f"p{index}", op["name"])))
            wall, cpu = wall + time.perf_counter() - wall0, cpu + _cpu_s() - cpu0
        if uninstall is not None:
            uninstall()
        if index == 0:
            peak_rss_mb = _peak_rss_mb()
        passes.append({"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu, "ops": ops})
        # stop once another pass would end more than half a pass past the budget
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + wall / 2 > plan["seconds"]:
            break
    return {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "spans": tracer.spans if tracer is not None else [],
        "env": environment(),
    }


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps({"setup_s": cold_import()}))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run_plan(plan)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
