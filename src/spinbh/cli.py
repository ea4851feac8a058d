"""Config-driven experiment runner.

Usage:
    spinbh run <config.{ini,json}> [--out-dir D] [--method M] [--cutoff N] [--quiet]
    spinbh --preset <name>         [--out-dir D] [--method M] [--cutoff N] [--quiet]

Exit codes: 0 success, 1 usage/parse error, 2 validation failure,
3 numerical failure.  Outputs are deterministic: rerunning the same config
produces byte-identical files.  Every output file goes through one streamed
row writer, the only place where a number becomes text.  The boson side is
built only on the states a run can reach: the closure of the initial state
under H for dynamics, the hard-core states for verify.  The spin side keeps
its 2**N states.

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


def _write_table(path, header, rows, precision: int, sep: str = ",") -> None:
    """Write an optional ``header`` line, then each row as soon as it is formatted:
    floats get ``precision`` significant digits, every other cell is ``str``.
    The file's directory is made here, so a refused run leaves none behind."""
    formats = {}  # one %-format per tuple of cell types: the report mixes them in a column
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if header:
            fh.write(sep.join(header) + "\n")
        for row in map(tuple, rows):
            types = tuple(map(type, row))
            fmt = formats.get(types) or formats.setdefault(types, sep.join(
                f"%.{precision}g" if issubclass(t, float) else "%s" for t in types) + "\n")
            fh.write(fmt % row)


def emit_plotdata(out_dir, labeled_trajectories, precision: int = 12) -> None:
    """One two-column series file per recorded curve, named <observable>_<sector>.dat;
    ``labeled_trajectories`` is an iterable of (sector, Trajectory)."""
    for sector, traj in labeled_trajectories:
        for obs, series in traj.values.items():
            path = os.path.join(out_dir, f"{obs}_{sector}.dat")
            _write_table(path, None, zip(traj.times, series), precision, sep=" ")


def _checked(circuit):
    """``circuit`` once ``validate`` accepts it, each regime warning on stderr."""
    from .model import validate

    for msg in validate(circuit):
        print(f"warning: {msg}", file=sys.stderr)
    return circuit


def _build_circuit(cfg):
    from dataclasses import replace

    from .mapping import exact_couplings
    from .model import chain_circuit, validate

    circuit = chain_circuit(
        cfg.n_sites, cfg.e_c, cfg.e_j, cfg.eprime_j, cfg.e_coup or 0.0,
        include_boundary=cfg.include_boundary,
    )
    if cfg.e_coup is None:  # the exact coupling needs the positive energies validate ensures
        validate(circuit)
        circuit = replace(circuit, e_coup=exact_couplings(circuit))
    return _checked(circuit)


def run_experiment(cfg, quiet: bool = False) -> int:
    """Execute one experiment and return a process exit code; a refused config
    raises InvalidSpecError before any output file is written."""
    from dataclasses import asdict

    from . import dynamics, mapping, operators, verify
    from .config import model_source, validate_config
    from .hilbert import FockBasis, named_initial_state, physical_mask
    from .model import chain_spec

    validate_config(cfg)

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    if cfg.kind == "design":
        target = chain_spec(cfg.n_sites, cfg.coupling, cfg.fieldstrength or 0.0)
        circuit = _checked(mapping.design_circuit(
            target,
            e_c=cfg.e_c,
            e_j=cfg.e_j if cfg.e_j is not None else 12500.0,
            match_field=cfg.match_field and cfg.fieldstrength is not None,
            include_boundary=cfg.include_boundary,
        ))
        sheet = mapping.parameter_sheet(circuit)
        path = os.path.join(cfg.out_dir, "parameter_sheet.csv")
        _write_table(path, sheet, [sheet.values()], cfg.precision)
        say(f"wrote {path}")
        return EXIT_OK

    # Resolve the models required by the remaining kinds.
    spin_spec = circuit = None
    source = model_source(cfg)
    if source == "spin":
        spin_spec = chain_spec(cfg.n_sites, cfg.coupling, cfg.fieldstrength)
    elif source == "circuit":
        circuit = _build_circuit(cfg)
        spin_spec = mapping.circuit_to_spin(circuit)

    if circuit is not None:  # the boson side, read only by the kinds that have one
        params = mapping.derive_jja_params(circuit)
        boson_terms = lambda: operators.jja_terms(params, cfg.cutoff, cfg.variant)
        build_boson = lambda basis: operators.build_h_jja(params, basis, variant=cfg.variant)
    else:
        boson_terms = lambda: operators.ebh_terms(spin_spec, cfg.cutoff)
        build_boson = lambda basis: operators.build_h_ebh(spin_spec, basis)

    if cfg.kind == "verify":
        # P H P and Q H P are all the report reads, so Q H Q is never built:
        # on the hard-core states, H keeps P H P and the largest Q H P entry
        hard_core = physical_mask(FockBasis(cfg.n_sites, cfg.cutoff))
        basis = FockBasis(cfg.n_sites, cfg.cutoff, hard_core)
        h_boson = build_boson(basis)
        h_spin = operators.build_h_spin(spin_spec)
        report = verify.compare_projected(h_boson, h_spin, physical_mask(basis))
        path = os.path.join(cfg.out_dir, "equivalence_report.txt")
        rows = [("n_sites", cfg.n_sites), ("local_dim", cfg.cutoff), *asdict(report).items()]
        _write_table(path, None, rows, cfg.precision, sep=" = ")
        say(f"wrote {path}")
        say(f"residual_max = {report.residual_max:.3e} MHz, "
            f"coupling_norm = {report.coupling_norm:.3e} MHz")
        return EXIT_OK

    evo = dynamics.EvolutionConfig(t_max=cfg.t_max, n_steps=cfg.n_steps, method=cfg.method)

    def run_sector(sector: str):
        if sector == "spin":
            basis = FockBasis(cfg.n_sites, 2)
            psi0 = named_initial_state(basis, cfg.initial_state, sector)
            h = operators.build_h_spin(spin_spec)
            mask = None
        else:  # on the closure of psi0: the states H reaches from it
            full = FockBasis(cfg.n_sites, cfg.cutoff)
            psi0 = named_initial_state(full, cfg.initial_state, sector)
            basis = operators.closure(full, boson_terms(), psi0.nonzero()[0])
            psi0 = basis.restrict(psi0)
            h = build_boson(basis)
            mask = physical_mask(basis)
        obs = {name: operators.observable(name, sector, basis) for name in cfg.observables}
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
            _write_table(path, header, zip(traj.times, traj.values[obs], *leak), cfg.precision)
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
                     zip(spin_traj.times, a, b, abs(a - b), leak), cfg.precision)
        say(f"wrote {path}")
    emit_plotdata(cfg.out_dir, [("spin", spin_traj), ("boson", boson_traj)], cfg.precision)
    names = cfg.observables
    _write_table(
        os.path.join(cfg.out_dir, "trajectory_distance.csv"),
        ["observable", "max_abs_diff", "rms_diff", "max_leakage"],
        [(o, distance.max_abs[o], distance.rms[o], float(leak.max())) for o in names],
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
    parser.add_argument("--cutoff", help="override the boson local dimension")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("SPINBH_THREADS")
    if threads:
        if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
            print(f"error: SPINBH_THREADS must be a positive integer, got {threads!r}",
                  file=sys.stderr)
            return EXIT_USAGE
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

    from .config import from_mapping, load_config, preset_config
    from .errors import InvalidSpecError, SpinBHError

    source = args.config
    flags = (("output", "out_dir"), ("evolution", "method"), ("experiment", "cutoff"))
    try:
        cfg = preset_config(args.preset) if args.preset else load_config(args.config)
        source = "command line"  # a flag is read exactly like its file key
        cfg = from_mapping({section: {key: getattr(args, key)} for section, key in flags
                            if getattr(args, key) is not None}, cfg)
    except (FileNotFoundError, configparser.Error, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:  # a ValueError subclass, so it must come first
        print(f"error: {args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {source}: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
