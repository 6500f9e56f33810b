"""Experiment specification files.

A spec is a single JSON document: named systems (distribution records plus
cross-layer factors, or load marginals plus an allocation strategy), a
p-grid, the run mode, and Monte Carlo parameters.  Parse errors name the
offending field.  The parsed spec keeps a fully resolved, JSON-able copy of
itself so output files can embed exactly what produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .allocate import (
    AllocationStrategy,
    EqualFreeSpace,
    EqualToleranceFactor,
    LayerWeightedEqual,
    PerLayerEqual,
    apply_strategy,
)
from .distributions import (
    DistributionError,
    EmpiricalJoint,
    IndependentJoint,
    marginal_from_dict,
)
from .meanfield import CrossLayerFactors, SystemConfig

MODES = ("analytic", "simulate", "both")

# Strategy classes by spec name; their dataclass fields are the spec's keys.
_STRATEGIES = {
    "layer_weighted_equal": LayerWeightedEqual,
    "equal_free_space": EqualFreeSpace,
    "equal_tolerance_factor": EqualToleranceFactor,
    "per_layer_equal": PerLayerEqual,
}

# Keys of a system record besides beta_a/beta_b, by the record's kind.
_SYSTEM_FIELDS = {
    "samples": ("samples",),
    "allocation": ("allocation", "load_a", "load_b"),
    "marginals": ("load_a", "free_a", "load_b", "free_b"),
}


class ConfigError(ValueError):
    """Invalid experiment specification; message names the field."""


@dataclass(frozen=True)
class SimParams:
    n: int
    runs: int
    seed_base: int
    resample_population: bool = True


@dataclass(frozen=True)
class OutputParams:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv",)


@dataclass(frozen=True)
class ExperimentSpec:
    systems: dict[str, SystemConfig]
    p_grid: list[float] | None
    mode: str
    sim: SimParams | None
    output: OutputParams
    resolved: dict

    @property
    def canonical(self) -> str:
        return json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))

    @property
    def checksum(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _field(record: dict, name: str, where: str, kind=None, required: bool = True,
           default=None):
    if name not in record:
        if required:
            raise ConfigError(f"{where}.{name}: missing")
        return default
    value = record[name]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{name}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}.{name}: expected an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}.{name}: expected a boolean, got {value!r}")
        return value
    return value


def _check_keys(record: dict, allowed, where: str) -> None:
    """Reject a key the record type does not define, naming it."""
    for key in record:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown field; expected one of "
                              f"{sorted(allowed)}")


def _parse_strategy(record: dict, where: str) -> AllocationStrategy:
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: expected an object, got {record!r}")
    name = _field(record, "strategy", where)
    if not isinstance(name, str) or name not in _STRATEGIES:
        raise ConfigError(
            f"{where}.strategy: expected one of {sorted(_STRATEGIES)}, got {name!r}")
    cls = _STRATEGIES[name]
    _check_keys(record, {"strategy", *(f.name for f in fields(cls))}, where)
    # A field is required iff it has no default.
    try:
        return cls(**{f.name: _field(record, f.name, where, float,
                                     required=f.default is MISSING)
                      for f in fields(cls)})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _load_samples(path_value, base_dir: Path, where: str) -> np.ndarray:
    if not isinstance(path_value, str):
        raise ConfigError(f"{where}.samples: expected a file path, got {path_value!r}")
    path = Path(path_value)
    if not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise ConfigError(f"{where}: sample file not found: {path}")
    try:
        if path.suffix == ".npy":
            return np.load(path)
        return np.loadtxt(path, delimiter=",")
    except Exception as exc:
        raise ConfigError(f"{where}: could not read samples: {exc}") from exc


def parse_system(record: dict, where: str, base_dir: Path) -> tuple[SystemConfig, dict]:
    """Build one SystemConfig plus its resolved JSON description."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: expected an object, got {record!r}")
    beta_a = _field(record, "beta_a", where, float, required=False, default=0.0)
    beta_b = _field(record, "beta_b", where, float, required=False, default=0.0)
    try:
        factors = CrossLayerFactors(beta_a, beta_b)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    kind = next((k for k in ("samples", "allocation") if k in record), "marginals")
    _check_keys(record, {"beta_a", "beta_b", *_SYSTEM_FIELDS[kind]}, where)
    try:
        if kind == "samples":
            samples = _load_samples(_field(record, "samples", where), base_dir, where)
            try:
                joint = EmpiricalJoint(samples)
            except DistributionError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            cfg = SystemConfig(replace(joint, source={"samples": record["samples"],
                                                      "count": joint.sample_count}), factors)
        elif kind == "allocation":
            strategy = _parse_strategy(record["allocation"], f"{where}.allocation")
            load_a = marginal_from_dict(_field(record, "load_a", where), f"{where}.load_a")
            load_b = marginal_from_dict(_field(record, "load_b", where), f"{where}.load_b")
            cfg = apply_strategy(strategy, load_a, load_b, factors)
        else:
            joint = IndependentJoint(
                marginal_from_dict(_field(record, "load_a", where), f"{where}.load_a"),
                marginal_from_dict(_field(record, "free_a", where), f"{where}.free_a"),
                marginal_from_dict(_field(record, "load_b", where), f"{where}.load_b"),
                marginal_from_dict(_field(record, "free_b", where), f"{where}.free_b"),
            )
            cfg = SystemConfig(joint, factors)
    except DistributionError as exc:
        raise ConfigError(str(exc)) from exc

    resolved = {"beta_a": beta_a, "beta_b": beta_b, **cfg.joint.to_dict()}
    if kind == "allocation":
        resolved["allocation"] = dict(record["allocation"])
    return cfg, resolved


def _parse_p_grid(value, where: str) -> list[float]:
    if isinstance(value, dict):
        _check_keys(value, ("min", "max", "count"), where)
        lo = _field(value, "min", where, float)
        hi = _field(value, "max", where, float)
        count = _field(value, "count", where, int)
        if count < 1:
            raise ConfigError(f"{where}.count: must be >= 1, got {count}")
        grid = [float(p) for p in np.linspace(lo, hi, count)]
    elif isinstance(value, list):
        grid = []
        for i, p in enumerate(value):
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ConfigError(f"{where}[{i}]: expected a number, got {p!r}")
            grid.append(float(p))
    else:
        raise ConfigError(f"{where}: expected a list or a min/max/count object")
    if not grid:
        raise ConfigError(f"{where}: must not be empty")
    for p in grid:
        if not (0.0 < p < 1.0) or not math.isfinite(p):
            raise ConfigError(f"{where}: values must lie strictly in (0, 1), got {p}")
    return grid


def parse_experiment(document: dict, base_dir: Path | None = None) -> ExperimentSpec:
    if not isinstance(document, dict):
        raise ConfigError("spec: expected a JSON object at the top level")
    base_dir = base_dir or Path.cwd()
    _check_keys(document, ("systems", "mode", "p_grid", "sim", "output"), "spec")

    systems_record = _field(document, "systems", "spec")
    if not isinstance(systems_record, dict) or not systems_record:
        raise ConfigError("spec.systems: expected a non-empty object of named systems")
    systems: dict[str, SystemConfig] = {}
    resolved_systems: dict[str, dict] = {}
    for name, record in systems_record.items():
        cfg, resolved = parse_system(record, f"spec.systems.{name}", base_dir)
        systems[name] = cfg
        resolved_systems[name] = resolved

    mode = _field(document, "mode", "spec", required=False, default="analytic")
    if mode not in MODES:
        raise ConfigError(f"spec.mode: expected one of {MODES}, got {mode!r}")

    p_grid = None
    if "p_grid" in document:
        p_grid = _parse_p_grid(document["p_grid"], "spec.p_grid")

    sim = None
    if "sim" in document:
        record = document["sim"]
        if not isinstance(record, dict):
            raise ConfigError("spec.sim: expected an object")
        _check_keys(record, ("n", "runs", "seed_base", "resample_population"), "spec.sim")
        sim = SimParams(
            n=_field(record, "n", "spec.sim", int),
            runs=_field(record, "runs", "spec.sim", int),
            seed_base=_field(record, "seed_base", "spec.sim", int),
            resample_population=_field(record, "resample_population", "spec.sim",
                                       bool, required=False, default=True),
        )
        if sim.n < 1:
            raise ConfigError(f"spec.sim.n: must be >= 1, got {sim.n}")
        if sim.runs < 1:
            raise ConfigError(f"spec.sim.runs: must be >= 1, got {sim.runs}")
    if mode in ("simulate", "both") and sim is None:
        raise ConfigError(f"spec.sim: required when mode is {mode!r}")

    output = OutputParams()
    if "output" in document:
        record = document["output"]
        if not isinstance(record, dict):
            raise ConfigError("spec.output: expected an object")
        _check_keys(record, ("directory", "formats"), "spec.output")
        directory = _field(record, "directory", "spec.output", required=False,
                           default="out")
        formats = _field(record, "formats", "spec.output", required=False,
                         default=["csv"])
        if not isinstance(formats, list) or not formats or \
                any(f not in ("csv", "json") for f in formats):
            raise ConfigError("spec.output.formats: expected a list drawn from "
                              "['csv', 'json']")
        output = OutputParams(directory=str(directory), formats=tuple(formats))

    resolved = {
        "systems": resolved_systems,
        "mode": mode,
    }
    if p_grid is not None:
        resolved["p_grid"] = p_grid
    if sim is not None:
        resolved["sim"] = {"n": sim.n, "runs": sim.runs, "seed_base": sim.seed_base,
                           "resample_population": sim.resample_population}

    return ExperimentSpec(systems=systems, p_grid=p_grid, mode=mode, sim=sim,
                          output=output, resolved=resolved)


def _reject_duplicate_keys(pairs):
    record = {}
    for key, value in pairs:
        if key in record:
            raise ConfigError(f"duplicate key {key!r} in the same object")
        record[key] = value
    return record


def load_experiment(path: Path) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_experiment(document, base_dir=Path(path).parent)
