"""Experiment specification files.

A spec is a single JSON document: named systems (distribution records plus
cross-layer factors, or load marginals plus an allocation strategy), a
p-grid, the run mode, and Monte Carlo parameters.  Each kind of record has
one schema, a module constant mapping each field to its kind and default,
and every record is read against its schema by ``_read``: an unknown key,
a missing field or a wrong-typed value fails with an error that names the
field.  A marginal or allocation record is tagged: its ``kind`` or
``strategy`` is read first and picks the class whose schema the rest of the
record is read against.  The parsed spec keeps a resolved, JSON-able copy
of itself for output files to embed: each system's records as read, their
numbers as floats (an allocation with the fields it gave), a sample file's
row count, and what an allocation derived, Dirac free spaces or the
tolerance factor alpha.  The tolerance-factor joint is exact, so its record
names no sample.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .allocate import (
    EqualFreeSpace,
    EqualToleranceFactor,
    LayerWeightedEqual,
    PerLayerEqual,
    apply_strategy,
)
from .distributions import (
    Dirac,
    DistributionError,
    EmpiricalJoint,
    IndependentJoint,
    Pareto,
    Uniform,
    Weibull,
)
from .meanfield import CrossLayerFactors, SystemConfig

MODES = ("analytic", "simulate", "both")


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
    resolved_systems: dict[str, dict]

    @property
    def resolved(self) -> dict:
        """The JSON-able spec that produced a run, as output files embed it."""
        resolved = {"systems": self.resolved_systems, "mode": self.mode}
        if self.p_grid is not None:
            resolved["p_grid"] = self.p_grid
        if self.sim is not None:
            resolved["sim"] = asdict(self.sim)
        return resolved

    def budget(self, name: str) -> float | None:
        """System ``name``'s total free-space budget: an allocation's
        ``s_total``, or the sum of its free-space means for four marginals.
        None for a sample file, and for an allocation given per layer or by
        alpha alone."""
        resolved = self.resolved_systems[name]
        if "allocation" in resolved:
            return resolved["allocation"].get("s_total")
        if "free_a" in resolved:
            return sum(self.systems[name].joint.mean_frees)
        return None

    @property
    def canonical(self) -> str:
        return json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))

    @property
    def checksum(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


# A field's kind is a type or a union of types, or a tuple of the strings it
# may be.  A number is any real, an integer any integral value (numpy scalars
# too, never a bool), and each is read as a Python float or int.
_NUMBERS = {float: numbers.Real, int: numbers.Integral}
# A p grid is a sequence of numbers, or a range object.
_P_GRID = list | tuple | np.ndarray | dict
_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
               list: "a list", dict: "an object",
               _P_GRID: "a list, a tuple, a 1-D array or a min/max/count object"}


def _value(value, kind, where: str):
    """One field's value, checked against its kind; a number comes back as a Python float or int."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{where}: expected one of {list(kind)}, got {value!r}")
        return value
    number = _NUMBERS.get(kind)
    if not isinstance(value, number or kind) or (number and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value) if number else value


def _read(record, where: str, schema: dict) -> dict:
    """The fields of one spec record, checked against ``schema``.

    The schema maps each field name to its kind and default; a field whose
    default is ``MISSING`` is required.  Left-out fields get their defaults.
    """
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: expected an object, got {record!r}")
    for key in record:
        if key not in schema:
            raise ConfigError(f"{where}.{key}: unknown field; expected one of "
                              f"{sorted(schema)}")
    values = {}
    for name, (kind, default) in schema.items():
        if name in record:
            values[name] = _value(record[name], kind, f"{where}.{name}")
        elif default is MISSING:
            raise ConfigError(f"{where}.{name}: missing")
        else:
            values[name] = default
    return values


def _schema(cls, kind=None, **kinds) -> dict:
    """A dataclass's fields as a schema, each with its dataclass default and
    the kind ``kinds`` gives it, else ``kind``."""
    return {f.name: (kinds.get(f.name, kind), f.default) for f in fields(cls)}


_FACTORS = _schema(CrossLayerFactors, float)
_MARGINAL = (dict, MISSING)
# A system record's kind is the first of these keys it holds, else "marginals".
_SYSTEMS = {
    "samples": {**_FACTORS, "samples": (str, MISSING)},
    "allocation": {**_FACTORS, "allocation": (dict, MISSING),
                   "load_a": _MARGINAL, "load_b": _MARGINAL},
    "marginals": {**_FACTORS, "load_a": _MARGINAL, "free_a": _MARGINAL,
                  "load_b": _MARGINAL, "free_b": _MARGINAL},
}
# Tagged records: the tag's value names the class, whose schema holds the
# other fields in constructor order.  A marginal's fields are required
# numbers; a strategy's are its dataclass fields as numbers.
_MARGINALS = {kind: (cls, {name: (float, MISSING) for name in names}) for kind, cls, names in (
    ("uniform", Uniform, ("min", "max")), ("pareto", Pareto, ("min", "b")),
    ("weibull", Weibull, ("min", "lambda", "k")), ("dirac", Dirac, ("value",)))}
_ALLOCATIONS = {name: (cls, _schema(cls, float)) for name, cls in (
    ("layer_weighted_equal", LayerWeightedEqual), ("equal_free_space", EqualFreeSpace),
    ("equal_tolerance_factor", EqualToleranceFactor), ("per_layer_equal", PerLayerEqual))}
_P_RANGE = {"min": (float, MISSING), "max": (float, MISSING), "count": (int, MISSING)}
_SIM = _schema(SimParams, int, resample_population=bool)
_OUTPUT = _schema(OutputParams, directory=str, formats=list)
_SPEC = {"systems": (dict, MISSING), "mode": (MODES, "analytic"),
         "p_grid": (_P_GRID, None), "sim": (dict, None), "output": (dict, {})}


def _construct(record: dict, where: str, tag: str, classes: dict) -> tuple[object, dict]:
    """The object a tagged record describes, and the record as read;
    ``classes`` maps each tag value to its class and the schema of the
    record's other fields."""
    # The tag picks the schema of the rest of the record, so it is read first.
    tags = {tag: (tuple(sorted(classes)), MISSING)}
    name = _read({k: v for k, v in record.items() if k == tag}, where, tags)[tag]
    cls, schema = classes[name]
    values = _read(record, where, {**tags, **schema})
    try:
        return cls(*(values[field] for field in schema)), values
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _load_samples(path_value: str, base_dir: Path, where: str) -> EmpiricalJoint:
    path = Path(path_value)
    if not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise ConfigError(f"{where}: sample file not found: {path}")
    try:
        samples = np.load(path) if path.suffix == ".npy" else np.loadtxt(path, delimiter=",")
    except Exception as exc:
        raise ConfigError(f"{where}: could not read samples: {exc}") from exc
    try:
        # No caller holds the loaded matrix, so the joint keeps it uncopied.
        samples = np.asarray(samples, dtype=float, order="C")
        return EmpiricalJoint._adopt(samples)
    except DistributionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_system(record: dict, where: str, base_dir: Path) -> tuple[SystemConfig, dict]:
    """Build one SystemConfig plus its resolved JSON description."""
    kind = next((k for k in ("samples", "allocation")
                 if isinstance(record, dict) and k in record), "marginals")
    values = _read(record, where, _SYSTEMS[kind])
    try:
        factors = CrossLayerFactors(values.pop("beta_a"), values.pop("beta_b"))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    resolved = {"beta_a": factors.beta_a, "beta_b": factors.beta_b}

    if kind == "samples":
        joint = _load_samples(values["samples"], base_dir, where)
        resolved.update(samples=values["samples"], count=joint.sample_count)
        return SystemConfig(joint, factors), resolved

    strategy = None
    if kind == "allocation":
        strategy, allocation = _construct(values.pop("allocation"), f"{where}.allocation",
                                          "strategy", _ALLOCATIONS)
    marginals = []
    for name, value in values.items():
        marginal, resolved[name] = _construct(value, f"{where}.{name}", "kind", _MARGINALS)
        marginals.append(marginal)
    if strategy is None:
        return SystemConfig(IndependentJoint(*marginals), factors), resolved

    cfg = apply_strategy(strategy, *marginals, factors)
    if isinstance(strategy, EqualToleranceFactor):
        resolved["alpha"] = cfg.joint.alpha
    else:
        # every other strategy gives each layer one (Dirac) free space
        resolved.update(free_a={"kind": "dirac", "value": cfg.joint.free_a.value},
                        free_b={"kind": "dirac", "value": cfg.joint.free_b.value})
    # the fields given, as read: the tag and float numbers
    resolved["allocation"] = {key: allocation[key] for key in record["allocation"]}
    return cfg, resolved


def _parse_p_grid(value, where: str) -> list[float]:
    if isinstance(value, dict):
        bounds = _read(value, where, _P_RANGE)
        if bounds["count"] < 1:
            raise ConfigError(f"{where}.count: must be >= 1, got {bounds['count']}")
        grid = [float(p) for p in np.linspace(bounds["min"], bounds["max"], bounds["count"])]
    else:
        if isinstance(value, np.ndarray) and value.ndim != 1:
            raise ConfigError(f"{where}: expected a 1-D array, got shape {value.shape}")
        grid = [_value(p, float, f"{where}[{i}]") for i, p in enumerate(value)]
    if not grid:
        raise ConfigError(f"{where}: must not be empty")
    for p in grid:
        if not (0.0 < p < 1.0) or not math.isfinite(p):
            raise ConfigError(f"{where}: values must lie strictly in (0, 1), got {p}")
    return grid


def parse_experiment(document: dict, base_dir: Path | None = None) -> ExperimentSpec:
    spec = _read(document, "spec", _SPEC)
    base_dir = base_dir or Path.cwd()
    if not spec["systems"]:
        raise ConfigError("spec.systems: expected a non-empty object of named systems")
    systems: dict[str, SystemConfig] = {}
    resolved_systems: dict[str, dict] = {}
    for name, record in spec["systems"].items():
        systems[name], resolved_systems[name] = parse_system(
            record, f"spec.systems.{name}", base_dir)

    p_grid = None
    if spec["p_grid"] is not None:
        p_grid = _parse_p_grid(spec["p_grid"], "spec.p_grid")

    sim = None
    if spec["sim"] is not None:
        values = _read(spec["sim"], "spec.sim", _SIM)
        for name, low in (("n", 1), ("runs", 1), ("seed_base", 0)):
            if values[name] < low:
                raise ConfigError(f"spec.sim.{name}: must be >= {low}, got {values[name]}")
        sim = SimParams(**values)
    if spec["mode"] in ("simulate", "both") and sim is None:
        raise ConfigError(f"spec.sim: required when mode is {spec['mode']!r}")

    values = _read(spec["output"], "spec.output", _OUTPUT)
    if not values["formats"] or any(f not in ("csv", "json") for f in values["formats"]):
        raise ConfigError("spec.output.formats: expected a list drawn from "
                          "['csv', 'json']")
    output = OutputParams(values["directory"], tuple(values["formats"]))

    return ExperimentSpec(systems=systems, p_grid=p_grid, mode=spec["mode"], sim=sim,
                          output=output, resolved_systems=resolved_systems)


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: could not read the spec: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_experiment(document, base_dir=Path(path).parent)
