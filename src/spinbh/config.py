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
import math
from dataclasses import dataclass, replace

from .dynamics import METHODS
from .errors import InvalidSpecError
from .hilbert import NAMED_STATES
from .model import Violation
from .operators import OBSERVABLE_NAMES, VARIANTS

KINDS = ("spin", "boson", "jja", "compare", "design", "verify")
ENCODINGS = ("ebh", "jja")


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


_SECTION_KEYS = {
    "model": {
        "n_sites": int,
        "j": ("coupling", float),
        "h": ("fieldstrength", float),
        "e_c": float,
        "e_j": float,
        "eprime_j": float,
        "e_coup": float,
        "include_boundary": bool,
    },
    "evolution": {
        "t_max": float,
        "n_steps": int,
        "method": str,
    },
    "experiment": {
        "kind": str,
        "observables": "obs_list",
        "initial_state": str,
        "cutoff": int,
        "encoding": str,
        "variant": str,
        "match_field": bool,
    },
    "output": {
        "out_dir": "path",
        "precision": int,
    },
}


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _coerce(section: str, key: str, raw) -> tuple[str, object]:
    spec = _SECTION_KEYS[section].get(key)
    if spec is None:
        raise InvalidSpecError(f"unknown key {key!r} in section [{section}]")
    attr = key
    if isinstance(spec, tuple):
        attr, spec = spec
    if spec == "obs_list":
        if isinstance(raw, (list, tuple)):
            names = [str(x).strip().lower() for x in raw]
        else:
            names = [part.strip().lower() for part in str(raw).split(",") if part.strip()]
        return "observables", tuple(names)
    if spec == "path":  # preserve case, unlike the enum-valued strings
        return attr, str(raw).strip()
    if spec is bool:
        return attr, raw if isinstance(raw, bool) else _parse_bool(raw)
    if spec is int:
        return attr, int(raw)
    if spec is float:
        return attr, float(raw)
    return attr, str(raw).strip().lower()


def from_mapping(data: dict) -> ExperimentConfig:
    """Build a config from nested {section: {key: value}} data."""
    updates = {}
    for section, entries in data.items():
        sec = str(section).strip().lower()
        if sec not in _SECTION_KEYS:
            raise InvalidSpecError(f"unknown section [{sec}]")
        if not isinstance(entries, dict):
            raise InvalidSpecError(f"section [{sec}] must hold key = value entries")
        for key, value in entries.items():
            attr, coerced = _coerce(sec, str(key).strip().lower(), value)
            updates[attr] = coerced
    return replace(ExperimentConfig(), **updates)


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


def validate_config(cfg: ExperimentConfig) -> list[Violation]:
    report: list[Violation] = []

    def err(msg: str) -> None:
        report.append(Violation("error", msg))

    if cfg.kind not in KINDS:
        err(f"kind must be one of {KINDS}, got {cfg.kind!r}")
        return report
    if cfg.n_sites < 1:
        err(f"n_sites must be >= 1, got {cfg.n_sites}")
    if cfg.cutoff < 2:
        err(f"cutoff must be >= 2, got {cfg.cutoff}")
    if cfg.method not in METHODS:
        err(f"method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.encoding not in ENCODINGS:
        err(f"encoding must be one of {ENCODINGS}, got {cfg.encoding!r}")
    if cfg.variant not in VARIANTS:
        err(f"variant must be one of {VARIANTS}, got {cfg.variant!r}")
    if cfg.precision < 1 or cfg.precision > 17:
        err(f"precision must be in [1, 17], got {cfg.precision}")

    needs_evolution = cfg.kind in ("spin", "boson", "jja", "compare")
    if needs_evolution:
        if not 0 < cfg.t_max < math.inf:
            err(f"t_max must be positive and finite, got {cfg.t_max}")
        if cfg.n_steps < 2:
            err(f"n_steps must be >= 2, got {cfg.n_steps}")
        if not cfg.observables:
            err("at least one observable is required")
        for name in cfg.observables:
            if name not in OBSERVABLE_NAMES:
                err(f"unknown observable {name!r}; expected one of {OBSERVABLE_NAMES}")
        if cfg.initial_state not in NAMED_STATES:
            err(f"unknown initial_state {cfg.initial_state!r}; expected one of {NAMED_STATES}")
        if cfg.initial_state == "domain_wall" and cfg.n_sites % 2 != 0:
            err("domain_wall needs an even number of sites")
        if "cxx" in cfg.observables and cfg.n_sites < 2:
            err("cxx needs at least two sites")

    source = model_source(cfg)
    if source == "spin":
        if cfg.coupling is None:
            err(f"kind={cfg.kind} with encoding=ebh requires model key J")
        if cfg.fieldstrength is None:
            err(f"kind={cfg.kind} with encoding=ebh requires model key h")
    elif source == "circuit":
        if cfg.e_c is None or cfg.e_j is None or cfg.eprime_j is None:
            err("circuit experiments require model keys e_c, e_j, eprime_j")
    if cfg.kind == "design":
        if cfg.coupling is None:
            err("design requires model key J")
        if cfg.e_c is None:
            err("design requires model key e_c")
        if cfg.match_field and cfg.fieldstrength is None and cfg.e_j is None:
            err("design needs either a target field h or an anchored e_j")
    return report


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
