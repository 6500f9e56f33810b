"""Experiment runner for curve, critical, stable-set, optimize, and simulate.

Reads a JSON experiment spec, dispatches to the analytic solver / simulator /
allocator, and writes CSV (or JSON) artifacts.  Every output embeds the
sha256 of the resolved spec, and all randomness is seed-derived, so the same
spec and seed produce byte-identical files.

Every command hands its table to one writer as columns, one sequence per
header field.  The numeric array columns of a table are formatted together,
once per distinct value of each dtype, and the strings repeated, so the
160,000-row stable-set grid formats each axis point once and each value its
two stability sides share once.  CSV and JSON rows come from that one pass.

Exit codes: 0 success, 2 configuration or usage error, 3 nonconvergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import allocate, meanfield, simulate
from .config import ConfigError, ExperimentSpec, OutputParams, load_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3

SCHEMA_VERSION = 1


def _resolve_config_path(value: str) -> Path:
    path = Path(value)
    if path.exists():
        return path
    name = value if value.endswith(".json") else f"{value}.json"
    bundled = resources.files("multiflow") / "configs" / name
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config not found: {value!r} (no such file or bundled config)")


def _apply_flags(spec: ExperimentSpec, args) -> ExperimentSpec:
    """``spec`` with each of ``--seed``, ``--out`` and ``--format`` given written into it."""
    sim = spec.sim
    if args.seed is not None and sim is not None:
        sim = dataclasses.replace(sim, seed_base=args.seed)
    output = OutputParams(spec.output.directory if args.out is None else args.out,
                          spec.output.formats if args.format is None else (args.format,))
    return dataclasses.replace(spec, sim=sim, output=output)


def _fmt(value) -> str:
    # float() drops a numpy scalar's type name from the repr.
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _values(column):
    """An array column as a list of Python values (a bool array as 0/1);
    any other sequence as it is."""
    if isinstance(column, np.ndarray):
        return (column.astype(int) if column.dtype == bool else column).tolist()
    return column


def _cells(columns, text=_fmt, number=repr) -> list[list[str]]:
    """The text of each cell of a table, one list per column: ``text`` of
    each value, or ``number`` of each Python int or float of a numeric array.

    The numeric arrays of one dtype are formatted together, once per
    distinct value in the table, so a grid axis repeated across 160,000
    rows costs one ``number`` call per axis point, and a value that two
    columns share costs one call.  Values are told apart by bit pattern (by
    value, -0.0 would merge into 0.0), and arrays of different dtypes share
    no string, so an int 1 and a float 1.0 keep their own texts.
    """
    cells = [None] * len(columns)
    groups = {}
    for i, column in enumerate(columns):
        if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
            groups.setdefault(column.dtype, []).append(i)
        else:
            cells[i] = [text(v) for v in _values(column)]
    for dtype, members in groups.items():
        key_type = f"i{dtype.itemsize}" if dtype.kind == "f" else dtype
        # sort each column's keys, then the union of their distinct keys: no
        # sort longer than a column keeps the table's memory peak low
        distincts, inverses = zip(*(np.unique(columns[i].view(key_type), return_inverse=True)
                                    for i in members))
        distinct, merged = np.unique(np.concatenate(distincts), return_inverse=True)
        # repr of a Python int or float is the text _fmt gives it
        strings = np.array([number(v) for v in _values(distinct.view(dtype))], dtype=object)
        ends = np.cumsum([d.size for d in distincts])
        for i, inverse, part in zip(members, inverses, np.split(merged, ends[:-1])):
            cells[i] = strings[part][inverse].tolist()
    return cells


def _write_csv(path: Path, comments: list[str], header: list[str], columns) -> None:
    """Write a table given as one sequence per header field."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*_cells(columns))))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_value(value) -> str:
    """The JSON text of one cell; ``repr`` is that text for an int or a finite float."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


def _json_rows(header: list[str], columns) -> str:
    """The ``"rows"`` list of row objects, indented two levels deep, as text.

    The values are the cells of ``_cells`` with ``_json_value`` as the number
    format; each row adds its keys, in sorted order, as it is assembled.
    """
    order = sorted(range(len(header)), key=header.__getitem__)
    template = "{\n      " + ",\n      ".join(
        json.dumps(header[i]).replace("%", "%%") + ": %s" for i in order) + "\n    }"
    cells = _cells([columns[i] for i in order], _json_value, _json_value)
    rows = [template % values for values in zip(*cells)]
    if not rows:
        return "[]"
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def _write_json(path: Path, payload: dict, rows=None) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)``, with ``rows``, a
    (header, columns) pair, as the payload's ``"rows"`` list of row objects."""
    # a value one level deep is its own dump shifted by one indent
    fields = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
              for key, value in payload.items()}
    if rows is not None:
        fields["rows"] = _json_rows(*rows)
    body = ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + body + "\n}\n", encoding="utf-8")


def _provenance(spec: ExperimentSpec, kind: str, system: str | None) -> list[str]:
    """Leading comment lines of a CSV artifact: schema, config and system."""
    comments = [f"multiflow {kind} schema={SCHEMA_VERSION}",
                f"config_sha256={spec.checksum}",
                f"config={spec.canonical}"]
    if system is not None:
        comments.append(f"system={system}")
    return comments


def _json_provenance(spec: ExperimentSpec, kind: str, system: str | None) -> dict:
    """The same provenance as the leading fields of a JSON artifact."""
    payload = {"schema": f"multiflow.{kind}/{SCHEMA_VERSION}",
               "config_sha256": spec.checksum,
               "config": spec.resolved}
    if system is not None:
        payload["system"] = system
    return payload


def _table(spec: ExperimentSpec, kind: str, system: str | None,
           header: list[str], columns, notes: dict | None = None,
           stem: str | None = None) -> None:
    """Write one sequence per header field to ``<stem>.<format>`` for each format.

    Each of ``notes`` is a ``key=value`` comment of the CSV and a field of the JSON.
    """
    if stem is None:
        stem = kind if system is None else f"{kind}_{system}"
    notes = notes or {}
    out = Path(spec.output.directory)
    for fmt in spec.output.formats:
        if fmt == "json":
            _write_json(out / f"{stem}.json",
                        {**_json_provenance(spec, kind, system), **notes},
                        rows=(header, columns))
        else:
            _write_csv(out / f"{stem}.csv",
                       _provenance(spec, kind, system)
                       + [f"{key}={value}" for key, value in notes.items()],
                       header, columns)


def _monte_carlo(args, spec: ExperimentSpec, name: str, cfg) -> simulate.RobustnessCurve:
    """The spec's Monte Carlo curve of one system; stderr counts any cascade
    whose trajectory was truncated, and the tables do not change."""
    curve = simulate.monte_carlo_curve(
        cfg, spec.sim.n, spec.p_grid, spec.sim.runs, spec.sim.seed_base,
        workers=args.threads, resample_population=spec.sim.resample_population)
    truncated = int(np.count_nonzero(curve.truncated))
    if truncated:
        print(f"warning: {name}: {truncated} of {curve.truncated.size} Monte Carlo cascades "
              "truncated their trajectory", file=sys.stderr)
    return curve


def cmd_curve(args, spec: ExperimentSpec) -> int:
    if spec.p_grid is None:
        raise ConfigError("spec.p_grid: required for the curve command")
    with_sim = spec.mode in ("simulate", "both")
    exit_code = EXIT_OK
    for name, cfg in spec.systems.items():
        nonconverged = []
        analytic = []
        for p in spec.p_grid:
            steady = meanfield.iterate_to_steady_state(p, cfg)
            analytic.append(steady.n_inf)
            if not steady.converged:
                nonconverged.append(p)
        header = ["p", "n_inf_analytic"]
        columns = [spec.p_grid, analytic]
        if with_sim:
            curve = _monte_carlo(args, spec, name, cfg)
            header += ["sim_mean", "sim_std"]
            columns += [curve.mean, curve.std]
        notes = {}
        if nonconverged:
            notes["nonconverged_p"] = nonconverged
            exit_code = EXIT_NONCONVERGED
        _table(spec, "curve", name, header, columns, notes)
    return exit_code


def cmd_critical(args, spec: ExperimentSpec) -> int:
    header = ["system", "p_hat", "lower", "upper", "tol_p", "budget_bound", "degenerate"]
    rows = []
    exit_code = EXIT_OK
    for name, cfg in spec.systems.items():
        result = meanfield.critical_attack_size(cfg, tol_p=args.tol_p)
        bound = allocate.optimal_critical_attack(
            *cfg.joint.mean_loads, cfg.factors, sum(cfg.joint.mean_frees))
        rows.append((name, result.p_hat, result.lower, result.upper, args.tol_p,
                     bound, int(result.degenerate)))
        print(f"{name}: p_hat={result.p_hat:.6f} (+/- {args.tol_p:g}), "
              f"budget bound {bound:.6f}"
              + (" [degenerate]" if result.degenerate else "")
              + (f" [{result.nonconverged} nonconverged solves]"
                 if result.nonconverged else ""))
        if result.nonconverged:
            exit_code = EXIT_NONCONVERGED
    _table(spec, "critical", None, header, list(zip(*rows)))
    return exit_code


def _single_system(args, spec: ExperimentSpec):
    if args.system is not None:
        if args.system not in spec.systems:
            raise ConfigError(f"--system: unknown system {args.system!r}; "
                              f"spec defines {sorted(spec.systems)}")
        return args.system, spec.systems[args.system]
    if len(spec.systems) != 1:
        raise ConfigError("spec defines several systems; choose one with --system")
    return next(iter(spec.systems.items()))


def cmd_stable_set(args, spec: ExperimentSpec) -> int:
    name, cfg = _single_system(args, spec)
    grid = meanfield.stable_set_grid(args.p, cfg, x_max=args.x_max, y_max=args.y_max,
                                     resolution=args.resolution)
    header = ["x", "y", "lhs_a", "lhs_b", "stable"]
    # row (ix, iy) in C order: x varies slowest
    columns = [np.repeat(grid.x, grid.y.size), np.tile(grid.y, grid.x.size),
               grid.lhs_a.ravel(), grid.lhs_b.ravel(), grid.stable.ravel()]
    minimum = grid.minimum
    out_dir = Path(spec.output.directory)
    if "csv" in spec.output.formats:
        comments = [f"p={args.p!r}", f"threshold={grid.threshold!r}",
                    f"empty={int(grid.empty)}"]
        _write_csv(out_dir / f"stable_set_{name}.csv",
                   _provenance(spec, "stable_set", name) + comments, header, columns)
    sidecar = {
        **_json_provenance(spec, "stable_set", name),
        "p": args.p,
        "threshold": grid.threshold,
        "empty": grid.empty,
        "x_star": None if minimum is None else minimum[0],
        "y_star": None if minimum is None else minimum[1],
        "resolution": args.resolution,
    }
    _write_json(out_dir / f"stable_set_{name}.json", sidecar,
                rows=(header, columns) if "json" in spec.output.formats else None)
    if grid.empty:
        # A coarse or short grid can miss a stable region the solver reaches.
        steady = meanfield.iterate_to_steady_state(args.p, cfg)
        if steady.collapsed:
            print(f"{name}: no stable points at p={args.p} (total collapse)")
        else:
            print(f"{name}: the grid holds no stable cell at p={args.p}, but the "
                  f"steady state ({steady.x_star:.6g}, {steady.y_star:.6g}) survives; "
                  f"narrow it with --x-max/--y-max or refine it with --resolution")
    else:
        print(f"{name}: element-wise minimum stable point "
              f"({minimum[0]:.6g}, {minimum[1]:.6g}) at p={args.p}")
    return EXIT_OK


def cmd_optimize(args, spec: ExperimentSpec) -> int:
    name, cfg = _single_system(args, spec)
    mean_a, mean_b = cfg.joint.mean_loads
    s_total = args.budget
    if s_total is None:
        s_total = spec.budget(name)
    if s_total is None:
        raise ConfigError("free-space budget missing (give --budget or an allocation "
                          "with s_total)")

    if (args.mu_a is None) != (args.mu_b is None):
        raise ConfigError("give both --mu-a and --mu-b or neither")
    strategies = [("layer_weighted_equal", allocate.LayerWeightedEqual(s_total)),
                  ("equal_free_space", allocate.EqualFreeSpace(s_total)),
                  ("equal_tolerance_factor", allocate.EqualToleranceFactor(s_total=s_total))]
    if args.mu_a is not None:
        strategies.append(("per_layer_equal", allocate.PerLayerEqual(args.mu_a, args.mu_b)))
    rows = []
    for label, strategy in strategies:
        allocation = strategy.allocation(mean_a, mean_b, cfg.factors)
        rows.append((label, *("" if value is None else value for value in allocation)))
    header = ["strategy", "s_a", "s_b", "alpha", "predicted_critical"]
    width = max(len(row[0]) for row in rows)
    print(f"loads: E[L_A]={mean_a:.6g}, E[L_B]={mean_b:.6g}; "
          f"beta=({cfg.factors.beta_a:g}, {cfg.factors.beta_b:g}); "
          f"budget={s_total:g}")
    for label, *values in rows:
        print("  ".join([f"{label:<{width}}"] + [
            f"{key}=-" if value == "" else f"{key}={value:.6g}"
            for key, value in zip(("s_a", "s_b", "alpha", "p_opt"), values)]))
    _table(spec, "optimize", name, header, list(zip(*rows)))
    return EXIT_OK


def cmd_simulate(args, spec: ExperimentSpec) -> int:
    if spec.p_grid is None:
        raise ConfigError("spec.p_grid: required for the simulate command")
    if spec.sim is None:
        raise ConfigError("spec.sim: required for the simulate command")
    for name, cfg in spec.systems.items():
        curve = _monte_carlo(args, spec, name, cfg)
        count = len(spec.p_grid)
        _table(spec, "simulate", name,
               ["p", "mean_n_inf", "std_n_inf", "runs", "n"],
               [spec.p_grid, curve.mean, curve.std, [spec.sim.runs] * count,
                [spec.sim.n] * count])
        if args.raw:
            runs = spec.sim.runs
            _table(spec, "simulate_runs", name, ["p", "run", "n_inf"],
                   [np.repeat(spec.p_grid, runs), np.tile(np.arange(runs), count),
                    curve.samples.ravel()],
                   stem=f"simulate_{name}_runs")
    return EXIT_OK


def _integer_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _float_between(low: float, high: float = math.inf):
    """An argparse type: a number strictly between ``low`` and ``high``, so never nan."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low:g}, {high:g}), got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiflow",
        description="Cascading-failure analysis of two-layer multiplex flow networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True,
                       help="experiment spec (path or bundled config name)")
        p.add_argument("--out", default=None,
                       help="output directory (default: the spec's, or ./out)")
        p.add_argument("--threads", type=_integer_at_least(1), default=os.cpu_count() or 1,
                       help="worker processes for Monte Carlo runs")
        p.add_argument("--seed", type=_integer_at_least(0), default=None,
                       help="override the spec's sim.seed_base")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: the spec's, or csv)")

    common(sub.add_parser("curve", help="robustness curve n_inf(p) per system"))

    p_critical = sub.add_parser("critical", help="bisect the critical attack size")
    common(p_critical)
    p_critical.add_argument("--tol-p", type=_float_between(0, 0.5), default=meanfield.DEFAULT_TOL_P)

    p_stable = sub.add_parser("stable-set", help="scan the stable set at one attack size")
    common(p_stable)
    p_stable.add_argument("--p", type=_float_between(0, 1), required=True)
    p_stable.add_argument("--resolution", type=_integer_at_least(2),
                          default=meanfield.DEFAULT_GRID_RESOLUTION)
    p_stable.add_argument("--x-max", type=_float_between(0), default=None)
    p_stable.add_argument("--y-max", type=_float_between(0), default=None)
    p_stable.add_argument("--system", default=None)

    p_opt = sub.add_parser("optimize", help="allocation table for all strategies")
    common(p_opt)
    p_opt.add_argument("--budget", type=_float_between(0), default=None,
                       help="total free-space budget (overrides the spec)")
    p_opt.add_argument("--mu-a", type=_float_between(0), default=None,
                       help="fixed layer-A free-space mean (adds the per-layer row)")
    p_opt.add_argument("--mu-b", type=_float_between(0), default=None,
                       help="fixed layer-B free-space mean (adds the per-layer row)")
    p_opt.add_argument("--system", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo curve only")
    common(p_sim)
    p_sim.add_argument("--raw", action="store_true", help="also write per-run fractions")

    return parser


_COMMANDS = {
    "curve": cmd_curve,
    "critical": cmd_critical,
    "stable-set": cmd_stable_set,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        spec = _apply_flags(load_experiment(_resolve_config_path(args.config)), args)
        # A file in the output directory's way is refused before any solve, and
        # nothing is created; a path that cannot be read is left to the write.
        out = Path(spec.output.directory)
        at = next((at for at in (out, *out.parents) if os.path.exists(at)), None)
        if at is not None and not at.is_dir():
            raise ConfigError(f"output directory {str(out)!r}: {str(at)!r} is not a directory")
        return _COMMANDS[args.command](args, spec)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
