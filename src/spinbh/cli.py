"""Config-driven experiment runner.

Usage:
    spinbh run <config.{ini,json}> [--out-dir D] [--method M] [--cutoff N] [--quiet]
    spinbh --preset <name>         [--out-dir D] [--method M] [--cutoff N] [--quiet]

Exit codes: 0 success, 1 usage/parse error, 2 validation failure,
3 numerical failure.  Outputs are deterministic: rerunning the same config
produces byte-identical files.

Heavy imports happen inside main() so the SPINBH_THREADS environment
variable can cap the linear-algebra thread pools before they start.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _write_table(path, header, columns, precision: int, sep: str = ",") -> None:
    """One row per entry of the equal-length ``columns`` under an optional
    ``header``; numbers get ``precision`` significant digits, strings pass through."""
    cells = [[c if isinstance(c, str) else _fmt(c, precision) for c in col] for col in columns]
    rows = [sep.join(header)] if header else []
    rows += map(sep.join, zip(*cells))
    _write_text(path, "\n".join(rows) + "\n")


def emit_plotdata(out_dir, labeled_trajectories, precision: int = 12) -> list[str]:
    """One two-column series file per recorded curve, named <observable>_<sector>.dat.

    ``labeled_trajectories`` is an iterable of (sector, Trajectory).  Returns
    the written paths; an empty input writes nothing and warns on stderr.
    """
    labeled = list(labeled_trajectories)
    if not labeled:
        print("warning: no trajectories to emit", file=sys.stderr)
        return []
    written = []
    for sector, traj in labeled:
        for obs, series in traj.values.items():
            path = os.path.join(out_dir, f"{obs}_{sector}.dat")
            _write_table(path, None, [traj.times, series], precision, sep=" ")
            written.append(path)
    return written


def _build_spin_side(cfg):
    from .model import chain_spec

    return chain_spec(cfg.n_sites, cfg.coupling, cfg.fieldstrength)


def _build_circuit(cfg):
    from .mapping import exact_coupling
    from .model import chain_circuit

    e_coup = cfg.e_coup
    if e_coup is None:
        e_l = cfg.e_j + 2.0 * cfg.eprime_j
        e_coup = exact_coupling(cfg.e_c, e_l, cfg.eprime_j)
    return chain_circuit(
        cfg.n_sites, cfg.e_c, cfg.e_j, cfg.eprime_j, e_coup,
        include_boundary=cfg.include_boundary,
    )


def _report_violations(violations) -> bool:
    from .model import has_errors

    for v in violations:
        print(str(v), file=sys.stderr)
    return has_errors(violations)


def run_experiment(cfg, quiet: bool = False) -> int:
    """Execute one validated experiment; returns a process exit code."""
    from . import dynamics, mapping, operators, verify
    from .config import model_source, validate_config
    from .hilbert import FockBasis, named_initial_state, physical_mask
    from .model import validate

    violations = validate_config(cfg)
    if _report_violations(violations):
        return EXIT_VALIDATION
    os.makedirs(cfg.out_dir, exist_ok=True)

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    if cfg.kind == "design":
        from .model import chain_spec

        target = chain_spec(cfg.n_sites, cfg.coupling, cfg.fieldstrength or 0.0)
        circuit = mapping.design_circuit(
            target,
            e_c=cfg.e_c,
            e_j=cfg.e_j if cfg.e_j is not None else 12500.0,
            match_field=cfg.match_field and cfg.fieldstrength is not None,
            include_boundary=cfg.include_boundary,
        )
        if _report_violations(validate(circuit)):
            return EXIT_VALIDATION
        sheet = mapping.parameter_sheet(circuit, precision=cfg.precision)
        path = os.path.join(cfg.out_dir, "parameter_sheet.csv")
        _write_text(path, sheet)
        say(f"wrote {path}")
        return EXIT_OK

    # Resolve the models required by the remaining kinds.
    spin_spec = circuit = None
    source = model_source(cfg)
    if source == "spin":
        spin_spec = _build_spin_side(cfg)
        if _report_violations(validate(spin_spec)):
            return EXIT_VALIDATION
    elif source == "circuit":
        circuit = _build_circuit(cfg)
        if _report_violations(validate(circuit)):
            return EXIT_VALIDATION
        spin_spec = mapping.circuit_to_spin(circuit, warn=not quiet)

    def boson_hamiltonian(basis):
        if circuit is not None:
            params = mapping.derive_jja_params(circuit, warn=not quiet)
            return operators.build_h_jja(params, basis, variant=cfg.variant)
        return operators.build_h_ebh(spin_spec, basis)

    if cfg.kind == "verify":
        basis = FockBasis(cfg.n_sites, cfg.cutoff)
        h_boson = boson_hamiltonian(basis)
        h_spin = operators.build_h_spin(spin_spec)
        report = verify.compare_projected(h_boson, h_spin, physical_mask(basis))
        path = os.path.join(cfg.out_dir, "equivalence_report.txt")
        _write_text(path, "\n".join(report.lines(cfg.precision)) + "\n")
        say(f"wrote {path}")
        say(f"residual_max = {report.residual_max:.3e} MHz, "
            f"coupling_norm = {report.coupling_norm:.3e} MHz")
        return EXIT_OK

    evo = dynamics.EvolutionConfig(t_max=cfg.t_max, n_steps=cfg.n_steps, method=cfg.method)

    def run_sector(sector: str):
        if sector == "spin":
            basis = FockBasis(cfg.n_sites, 2)
            h = operators.build_h_spin(spin_spec)
            mask = None
        else:
            basis = FockBasis(cfg.n_sites, cfg.cutoff)
            h = boson_hamiltonian(basis)
            mask = physical_mask(basis)
        obs = {name: operators.observable(name, sector, basis) for name in cfg.observables}
        psi0 = named_initial_state(basis, cfg.initial_state, sector)
        return dynamics.evolve(
            h, psi0, evo, obs, leakage_mask=mask,
            hamiltonian_label=f"{cfg.kind}:{sector}",
            initial_state_label=cfg.initial_state,
        )

    if cfg.kind in ("spin", "boson", "jja"):
        sector = "spin" if cfg.kind == "spin" else "boson"
        traj = run_sector(sector)
        leak = [] if traj.leakage is None else [traj.leakage]
        header = ["time_us", "value", "leakage"][: 2 + len(leak)]
        for obs in cfg.observables:
            path = os.path.join(cfg.out_dir, f"{obs}_{sector}.csv")
            _write_table(path, header, [traj.times, traj.values[obs], *leak], cfg.precision)
            say(f"wrote {path}")
        emit_plotdata(cfg.out_dir, [(sector, traj)], cfg.precision)
        return EXIT_OK

    # kind == "compare"
    spin_traj = run_sector("spin")
    boson_traj = run_sector("boson")
    distance = verify.compare_trajectories(spin_traj, boson_traj)
    leak = boson_traj.leakage  # the boson side always records leakage
    for obs in cfg.observables:
        path = os.path.join(cfg.out_dir, f"compare_{obs}.csv")
        a, b = spin_traj.values[obs], boson_traj.values[obs]
        _write_table(path, ["time_us", "value_spin", "value_boson", "abs_diff", "leakage"],
                     [spin_traj.times, a, b, abs(a - b), leak], cfg.precision)
        say(f"wrote {path}")
    emit_plotdata(cfg.out_dir, [("spin", spin_traj), ("boson", boson_traj)], cfg.precision)
    names = cfg.observables
    _write_table(
        os.path.join(cfg.out_dir, "trajectory_distance.csv"),
        ["observable", "max_abs_diff", "rms_diff", "max_leakage"],
        [names, [distance.max_abs[o] for o in names], [distance.rms[o] for o in names],
         [float(leak.max())] * len(names)],
        cfg.precision,
    )
    say(f"max |spin - boson| over all observables: {distance.overall_max:.3e}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinbh", description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("run",), help="run a config file")
    parser.add_argument("config", nargs="?", help="path to an INI or JSON experiment file")
    parser.add_argument("--preset", help="built-in experiment name")
    parser.add_argument("--out-dir", help="override the output directory")
    parser.add_argument("--method", help="override the propagator (dense_eig, krylov, auto)")
    parser.add_argument("--cutoff", type=int, help="override the boson local dimension")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("SPINBH_THREADS")
    if threads:
        for var in _THREAD_ENV_VARS:
            os.environ.setdefault(var, threads)

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if bool(args.preset) == bool(args.command):
            parser.error("exactly one of 'run <config>' or '--preset <name>' is required")
        if args.command == "run" and not args.config:
            parser.error("'run' needs a config file path")
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)

    import configparser
    import json

    from .config import load_config, preset_config
    from .errors import InvalidSpecError, SpinBHError

    try:
        if args.preset:
            cfg = preset_config(args.preset)
        else:
            cfg = load_config(args.config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: {args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_USAGE
    except configparser.Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from dataclasses import replace

    overrides = {}
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    if args.method:
        overrides["method"] = args.method
    if args.cutoff is not None:
        overrides["cutoff"] = args.cutoff
    if overrides:
        cfg = replace(cfg, **overrides)

    try:
        return run_experiment(cfg, quiet=args.quiet)
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpinBHError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
