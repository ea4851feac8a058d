"""Experiment configuration: flat-sectioned key=value files, a JSON mirror,
and the built-in presets.

The native format is INI-style text with [model], [evolution], [experiment]
and [output] sections.  A JSON object with the same section/key layout is
accepted interchangeably (files ending in .json, or whose first character is
'{').  Keys are case-insensitive.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, replace
from typing import get_type_hints

from .dynamics import MAX_RUN_BYTES, EvolutionConfig
from .errors import InvalidSpecError
from .hilbert import FockBasis, named_kets
from .mapping import SHEET_SITES
from .model import chain_spec
from .operators import full_variant, local_ops, observable_terms

KINDS = ("spin", "boson", "jja", "compare", "design", "verify")
ENCODINGS = ("ebh", "jja")

# A run's peak memory, estimated before anything is built, must stay within
# MAX_RUN_BYTES: BYTES_PER_STATE per state of the largest basis it builds on.  Measured
# peaks: about 1.5 KB per state of an evolving run, 1.2 KB per hard-core state of a verify.
BYTES_PER_STATE = 2048


@dataclass(frozen=True)
class ExperimentConfig:
    # model
    n_sites: int = 2
    coupling: float | None = None  # J, MHz
    fieldstrength: float | None = None  # h, MHz
    e_c: float | None = None
    e_j: float | None = None
    eprime_j: float | None = None
    e_coup: float | None = None  # omitted -> exact constraint value
    include_boundary: bool = True
    # evolution
    t_max: float = 0.5
    n_steps: int = 2000
    method: str = "auto"
    # experiment
    kind: str = "compare"
    observables: tuple[str, ...] = ("sz1",)
    initial_state: str = "domain_wall"
    cutoff: int = 2
    encoding: str = "ebh"
    variant: str = "simplified"
    match_field: bool = True
    # output
    out_dir: str = "."
    precision: int = 12


# The keys of each section.  A key sets the ExperimentConfig field of its own
# name, or of its alias, and is read as that field's type.
_SECTIONS = {
    "model": ("n_sites", "j", "h", "e_c", "e_j", "eprime_j", "e_coup", "include_boundary"),
    "evolution": ("t_max", "n_steps", "method"),
    "experiment": ("kind", "observables", "initial_state", "cutoff", "encoding", "variant",
                   "match_field"),
    "output": ("out_dir", "precision"),
}
_ALIASES = {"j": "coupling", "h": "fieldstrength"}
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _scalar(key: str, raw, what: str) -> None:
    """Refuse JSON null, bools, lists and objects for a key that takes ``what``."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ValueError(f"{key} must be {what}, got {raw!r}")


def _number(key: str, raw, kind: type):
    """``raw`` as an int or float, read alike from text and JSON numbers.  An int
    key takes any integral value, and reads its text as an exact int first."""
    _scalar(key, raw, "a number")
    what = "an integer" if kind is int else "a number"
    if kind is int and not isinstance(raw, float):
        try:
            return int(raw)
        except ValueError:
            pass  # "3.0" or "1e3" is still integral
    try:
        value = float(raw)
    except (ValueError, OverflowError):
        value = None
    if value is None or kind is int and not value.is_integer():
        raise ValueError(f"{key} must be {what}, got {raw!r}")
    return int(value) if kind is int else value


def _text(key: str, raw) -> str:
    _scalar(key, raw, "a string")
    return str(raw).strip()


def _flag(key: str, raw) -> bool:
    """``raw`` as a bool: JSON true or false, or 1/0, true/false, yes/no, on/off."""
    if isinstance(raw, bool):
        return raw
    _scalar(key, raw, "a boolean")
    low = str(raw).strip().lower()
    if low not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"{key} must be a boolean, got {raw!r}")
    return low in ("1", "true", "yes", "on")


def _coerce(section: str, key: str, raw) -> tuple[str, object]:
    if key not in _SECTIONS[section]:
        raise InvalidSpecError(f"unknown key {key!r} in section [{section}]")
    attr = _ALIASES.get(key, key)
    if attr == "observables":
        if isinstance(raw, (list, tuple)):
            return attr, tuple(_text(key, x).lower() for x in raw)
        return attr, tuple(part.strip().lower() for part in _text(key, raw).split(",") if part.strip())
    if attr == "out_dir":  # a path keeps its case, unlike the enum-valued strings
        return attr, _text(key, raw)
    kind = _FIELD_TYPES[attr]
    if kind is bool:
        return attr, _flag(key, raw)
    if kind is str:
        return attr, _text(key, raw).lower()
    return attr, _number(key, raw, int if kind is int else float)


def from_mapping(data: dict, base: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """``base`` with the keys of nested {section: {key: value}} data applied."""
    updates = {}
    for section, entries in data.items():
        sec = str(section).strip().lower()
        if sec not in _SECTIONS:
            raise InvalidSpecError(f"unknown section [{sec}]")
        if not isinstance(entries, dict):
            raise InvalidSpecError(f"section [{sec}] must hold key = value entries")
        updates.update(_coerce(sec, str(key).strip().lower(), value)
                       for key, value in entries.items())
    return replace(base, **updates)


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI or JSON experiment file (JSON if extension or content says so)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        data = json.loads(text)  # raises json.JSONDecodeError with line/col
        if not isinstance(data, dict):
            raise InvalidSpecError("top-level JSON value must be an object of sections")
        return from_mapping(data)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text, source=path)  # raises configparser.Error with line info
    data = {section: dict(parser.items(section)) for section in parser.sections()}
    return from_mapping(data)


def model_source(cfg: ExperimentConfig) -> str | None:
    """The model a run starts from: "spin" (keys J, h), "circuit" (junction
    energies, mapped to the spin model), or None for design runs."""
    if cfg.kind in ("compare", "verify"):
        return {"ebh": "spin", "jja": "circuit"}.get(cfg.encoding)
    return {"spin": "spin", "boson": "spin", "jja": "circuit"}.get(cfg.kind)


def validate_config(cfg: ExperimentConfig) -> None:
    """Refuse ``cfg`` with one InvalidSpecError that lists every problem.  Each
    limit on a value is judged by the library constructor that owns it, asked
    here on the config's values."""
    if cfg.kind not in KINDS:  # the checks below depend on the kind
        raise InvalidSpecError(f"kind must be one of {KINDS}, got {cfg.kind!r}")
    problems: list[str] = []
    err = problems.append

    def ask(owner, *args):  # what owner returns, or None once its refusal is recorded
        try:
            return owner(*args)
        except InvalidSpecError as exc:
            err(str(exc))

    spin_side = cfg.kind in ("spin", "compare", "verify")
    boson_side = cfg.kind in ("boson", "jja", "compare", "verify")
    ask(local_ops, cfg.cutoff)  # one rule for every kind, read or not
    # the bases of the run's sides, spin side first, O(1) to make; once they are
    # accepted, n_sites is small enough for the term lists and the budget below
    bases = [ask(FockBasis, cfg.n_sites, d) for d in [2] * spin_side + [cfg.cutoff] * boson_side]
    evolves = cfg.kind in ("spin", "boson", "jja", "compare")
    grid = cfg if evolves else ExperimentConfig()  # the other kinds read only the method
    ask(EvolutionConfig, grid.t_max, grid.n_steps, cfg.method)
    ask(full_variant, cfg.variant)
    if cfg.encoding not in ENCODINGS:
        err(f"encoding must be one of {ENCODINGS}, got {cfg.encoding!r}")
    elif cfg.encoding == "jja" and cfg.kind in ("spin", "boson", "design"):
        err(f"encoding = jja selects the boson side of compare and verify only; "
            f"kind = {cfg.kind} ignores it (use kind = jja for a circuit run)")
    if cfg.precision < 1 or cfg.precision > 17:
        err(f"precision must be in [1, 17], got {cfg.precision}")
    if not cfg.out_dir:
        err("out_dir must not be empty")

    if evolves:  # an evolving run has a side, so its bases bound n_sites once accepted
        if not cfg.observables:
            err("at least one observable is required")
        for name in dict.fromkeys(cfg.observables):  # each name once, in order
            count = cfg.observables.count(name)
            if count > 1:  # its output files would be written twice
                err(f"observable {name!r} is listed {count} times")
            if all(bases):
                ask(observable_terms, name, cfg.n_sites, 2)
        if all(bases):
            ask(named_kets, cfg.initial_state, cfg.n_sites, 2)

    source = model_source(cfg)
    if source == "spin":
        run = f"kind={cfg.kind}" + (" with encoding=ebh" if cfg.kind in ("compare", "verify") else "")
        if cfg.coupling is None:
            err(f"{run} requires model key J")
        if cfg.fieldstrength is None:
            err(f"{run} requires model key h")
    elif source == "circuit":
        if cfg.e_c is None or cfg.e_j is None or cfg.eprime_j is None:
            err("circuit experiments require model keys e_c, e_j, eprime_j")
    if cfg.kind == "design":  # the chain it builds: a sheet reads at most SHEET_SITES sites
        ask(chain_spec, min(cfg.n_sites, SHEET_SITES), cfg.coupling or 0.0, cfg.fieldstrength or 0.0)
        if cfg.coupling is None:
            err("design requires model key J")
        if cfg.e_c is None:
            err("design requires model key e_c")
        if cfg.match_field and cfg.fieldstrength is None and cfg.e_j is None:
            err("design needs either a target field h or an anchored e_j")
    if not problems:  # verify builds both sides on the 2**n_sites hard-core states
        built = bases[:1] if cfg.kind == "verify" else bases  # a design builds none
        need = BYTES_PER_STATE * max([basis.full_dim for basis in built], default=0)
        if need > MAX_RUN_BYTES:
            err(f"estimated peak memory {need / 2**30:.3g} GiB exceeds the "
                f"budget of {MAX_RUN_BYTES // 2**30} GiB")
    if problems:  # each once: two owners may refuse one value alike, as both bases n_sites = 0
        raise InvalidSpecError("; ".join(dict.fromkeys(problems)))


PRESETS: dict[str, dict] = {
    # Homogeneous 10-site chain at the circuit design point: J = 40 MHz and
    # the interior-site field 4720 MHz that the mapped circuit produces.
    "fig2_sz": {
        "model": {"n_sites": 10, "j": 40.0, "h": 4720.0},
        "evolution": {"t_max": 0.5, "n_steps": 2000, "method": "auto"},
        "experiment": {"kind": "compare", "observables": "sz1",
                       "initial_state": "domain_wall", "cutoff": 2, "encoding": "ebh"},
    },
    "fig2_mx": {
        "model": {"n_sites": 10, "j": 40.0, "h": 4720.0},
        "evolution": {"t_max": 0.5, "n_steps": 2000, "method": "auto"},
        "experiment": {"kind": "compare", "observables": "mx",
                       "initial_state": "all_up_x", "cutoff": 2, "encoding": "ebh"},
    },
    "fig2_cxx": {
        "model": {"n_sites": 10, "j": 40.0, "h": 4720.0},
        "evolution": {"t_max": 0.5, "n_steps": 2000, "method": "auto"},
        "experiment": {"kind": "compare", "observables": "cxx",
                       "initial_state": "neel", "cutoff": 2, "encoding": "ebh"},
    },
    # Circuit design anchored at typical charging/Josephson energies.
    "table1_design": {
        "model": {"n_sites": 10, "j": 40.0, "e_c": 200.0, "e_j": 12500.0},
        "experiment": {"kind": "design", "match_field": "false"},
    },
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise InvalidSpecError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return from_mapping(PRESETS[name])
