"""Span tracing from outside the package.

``install`` replaces the public functions that ``spinbh.cli`` looks up at
call time with wrappers that record one span per call: name, layer, start,
end and parent, plus counts at the same boundary.  Nothing under ``src/``
is edited; ``uninstall`` puts the originals back.

Layers are the package modules.  A layer's self time is the duration of its
spans minus the part covered by child spans, so the self times of all
layers add up to the duration of the root ``cli.main`` spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, function, layer, role); role selects the counts the span records.
TRACED = (
    ("cli", "main", "cli", "root"),
    ("cli", "emit_plotdata", "cli", "plot"),
    ("config", "preset_config", "config", None),
    ("config", "load_config", "config", None),
    ("config", "validate_config", "config", None),
    ("mapping", "circuit_to_spin", "mapping", None),
    ("mapping", "derive_jja_params", "mapping", None),
    ("mapping", "exact_coupling", "mapping", None),
    ("mapping", "design_circuit", "mapping", None),
    ("mapping", "parameter_sheet", "mapping", None),
    ("hilbert", "named_initial_state", "hilbert", None),
    ("hilbert", "physical_mask", "hilbert", None),
    ("operators", "build_h_spin", "operators", "build"),
    ("operators", "build_h_ebh", "operators", "build"),
    ("operators", "build_h_jja", "operators", "build"),
    ("operators", "observable", "operators", "observable"),
    ("dynamics", "evolve", "dynamics", "evolve"),
    ("verify", "compare_projected", "verify", None),
    ("verify", "compare_trajectories", "verify", None),
)


class _CountingMatrix:
    """Sparse-matrix stand-in that counts H @ v products, one per vector."""

    def __init__(self, matrix, record: dict):
        self._matrix = matrix
        self._record = record

    def __matmul__(self, other):
        self._record["matvecs"] += 1 if other.ndim == 1 else other.shape[1]
        return self._matrix @ other

    def __getattr__(self, name):
        return getattr(self._matrix, name)


class Tracer:
    """Spans kept in memory; ``op`` and ``pass_index`` tag the spans that follow."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = ""
        self.pass_index = -1

    def _open(self, name: str, layer: str, role) -> dict:
        span = {
            "id": len(self.spans), "name": name, "layer": layer, "role": role,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_index, "op": self.op,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, func, name: str, layer: str, role):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name, layer, role)
            try:
                if role == "evolve":
                    return self._evolve(func, span, *args, **kwargs)
                result = func(*args, **kwargs)
                if role == "build":
                    span["nnz"] = int(result.matrix.nnz)
                    span["dim"] = int(result.dim)
                return result
            finally:
                self._close(span)

        return traced

    @staticmethod
    def _evolve(func, span, h, psi0, cfg, *args, **kwargs):
        from spinbh.operators import SparseOperator

        span.update(
            dim=int(h.dim), method=cfg.resolve_method(h.dim), grid_points=int(cfg.n_steps),
            sector=kwargs.get("hamiltonian_label", ""), matvecs=0,
        )
        counted = SparseOperator(matrix=_CountingMatrix(h.matrix, span), hermitian=h.hermitian)
        return func(counted, psi0, cfg, *args, **kwargs)


def install(tracer: Tracer):
    """Wrap every traced function; returns the callable that restores them."""
    saved = []
    for module_name, func_name, layer, role in TRACED:
        module = importlib.import_module(f"spinbh.{module_name}")
        original = getattr(module, func_name)
        saved.append((module, func_name, original))
        setattr(module, func_name,
                tracer.wrap(original, f"{module_name}.{func_name}", layer, role))

    def uninstall():
        for module, func_name, original in saved:
            setattr(module, func_name, original)

    return uninstall


def add_self_times(spans: list[dict]) -> None:
    """Store in each span its duration minus the durations of its direct children."""
    for span in spans:
        span["self_s"] = span["end"] - span["start"]
    for span in spans:
        if span["parent"] is not None:
            spans[span["parent"]]["self_s"] -= span["end"] - span["start"]


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass; needs ``add_self_times`` first."""
    out = defaultdict(float)
    for span in spans:
        role, layer, self_s = span["role"], span["layer"], span["self_s"]
        if layer == "operators":
            out["operators.build_s" if role == "build" else "operators.observable_s"] += self_s
        elif layer == "dynamics":
            out[f"dynamics.{'dense' if span['method'] == 'dense_eig' else 'krylov'}_s"] += self_s
        elif layer == "cli":
            out["cli.self_s"] += self_s
        else:
            out[f"{layer}.s"] += self_s
        if role == "plot":
            out["cli.plot_s"] += span["end"] - span["start"]
        if role == "build":
            out["operators.build_calls"] += 1
            out["operators.nnz"] += span.get("nnz", 0)
            out["hilbert.dim_max"] = max(out["hilbert.dim_max"], span.get("dim", 0))
        if role == "evolve":
            out["dynamics.dense_calls"] += span["method"] == "dense_eig"
            out["dynamics.matvecs"] += span["matvecs"]
            out["dynamics.grid_points"] += span["grid_points"]
            out["hilbert.dim_max"] = max(out["hilbert.dim_max"], span["dim"])
        if role == "root":
            out["trace.root_s"] += span["end"] - span["start"]
    return dict(out)
