"""Heisenberg spin chains encoded as hard-core boson lattices and
Josephson-junction-array circuits, with parameter mapping in both directions
and cross-validated time evolution.

Submodules are imported lazily so the command-line entry point can configure
linear-algebra thread pools before anything numerical loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # model
    "SpinModelSpec": "model",
    "CircuitSpec": "model",
    "chain_spec": "model",
    "chain_circuit": "model",
    "validate": "model",
    # hilbert
    "FockBasis": "hilbert",
    "basis_state": "hilbert",
    "product_state": "hilbert",
    "named_initial_state": "hilbert",
    "physical_mask": "hilbert",
    # operators
    "SparseOperator": "operators",
    "LocalOperatorSet": "operators",
    "local_ops": "operators",
    "embed": "operators",
    "build_h_spin": "operators",
    "build_h_ebh": "operators",
    "build_h_dm": "operators",
    "build_h_jja": "operators",
    "observable": "operators",
    # mapping
    "JJAParams": "mapping",
    "derive_jja_params": "mapping",
    "constraint_residual": "mapping",
    "exact_coupling": "mapping",
    "simplified_coupling": "mapping",
    "eprime_from_simplified_coupling": "mapping",
    "circuit_to_spin": "mapping",
    "design_circuit": "mapping",
    "parameter_sheet": "mapping",
    # dynamics
    "EvolutionConfig": "dynamics",
    "Trajectory": "dynamics",
    "evolve": "dynamics",
    # verify
    "EquivalenceReport": "verify",
    "TrajectoryDistance": "verify",
    "project": "verify",
    "compare_projected": "verify",
    "compare_trajectories": "verify",
    # config
    "ExperimentConfig": "config",
    "load_config": "config",
    "preset_config": "config",
    # errors
    "SpinBHError": "errors",
    "InvalidSpecError": "errors",
    "HermiticityError": "errors",
    "NumericalError": "errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
