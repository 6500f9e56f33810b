"""Spans and counts at the multiflow layer boundaries, recorded from outside.

``Tracer.install`` replaces the public functions and methods listed in
``BOUNDARIES`` (and every alias of them in ``multiflow.*`` namespaces, since
modules import each other's names) with wrappers that record a span:
``[id, parent_id, name, start_ns, end_ns, attrs]``.  ``uninstall`` puts the
originals back.  Spans are kept in memory; ``run.py`` writes them out when the
run ends.  Nothing in ``src/`` is changed.

A boundary missing from the program raises ``MissingBoundary`` and the run
fails: metrics built on a boundary that is no longer called would read 0,
which looks like a gain.  A change that renames or removes a boundary updates
the lists below in the same change.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function) pairs wrapped by name.
FUNCTIONS = (
    ("multiflow.cli", "main"),
    ("multiflow.config", "load_experiment"),
    ("multiflow.allocate", "apply_strategy"),
    ("multiflow.meanfield", "final_size"),
    ("multiflow.meanfield", "iterate_to_steady_state"),
    ("multiflow.meanfield", "critical_attack_size"),
    ("multiflow.meanfield", "stable_set_grid"),
    ("multiflow.simulate", "monte_carlo_curve"),
    ("multiflow.simulate", "build_population"),
    ("multiflow.simulate", "run_cascade"),
)
# Methods wrapped on every JointLoadSpace class that defines them.
JOINT_METHODS = ("sample_population", "survival_stats", "joint_survival",
                 "partial_load_expectation", "cascade_cursor")
JOINT_QUERIES = ("survival_stats", "joint_survival", "partial_load_expectation")
# The tolerance-factor joint builds its stored sample in this cached property.
STORED_SAMPLE = ("ProportionalJoint", "_empirical")
CLI_COMMANDS = ("curve", "critical", "stable-set", "optimize")
# Percentile of the ``_tail`` duration metrics.
TAIL = 0.99


class MissingBoundary(LookupError):
    """A boundary the tracer wraps is not in the program."""


def _attrs_run_cascade(args, kwargs, result):
    return {"rounds": int(result.rounds), "truncated": bool(result.truncated)}


def _attrs_steady(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _attrs_grid(args, kwargs, result):
    return {"cells": int(result.stable.size)}


ATTRS = {
    "simulate.run_cascade": _attrs_run_cascade,
    "meanfield.iterate_to_steady_state": _attrs_steady,
    "meanfield.stable_set_grid": _attrs_grid,
}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cursor_classes: set[type] = set()

    def _wrap(self, name, fn, name_of=None):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1,
                      name_of(args, kwargs) if name_of else name,
                      time.perf_counter_ns(), 0, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter_ns()
                stack.pop()
            if attrs_of is not None:
                record[5] = attrs_of(args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapped):
        """Replace ``original`` under every name that binds it in multiflow."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("multiflow"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _wrap_cursor_factory(self, name, fn):
        traced_factory = self._wrap(name, fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            cursor = traced_factory(*args, **kwargs)
            cls = type(cursor)
            if cls not in self._cursor_classes:
                if "advance" not in vars(cls):
                    raise MissingBoundary(f"{name} returned a {cls.__name__} without "
                                          "its own advance method")
                self._cursor_classes.add(cls)
                self._patch(cls, "advance",
                            self._wrap(f"distributions.{cls.__name__}.advance", cls.advance))
            return cursor
        return factory

    def install(self) -> None:
        """Wrap every boundary; raises MissingBoundary, with nothing wrapped,
        if one is not in the program."""
        missing = missing_boundaries()
        if missing:
            raise MissingBoundary("boundaries missing from the program: " + ", ".join(missing))
        for module_name, attr in FUNCTIONS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            short = f"{module_name.split('.')[-1]}.{attr}"
            name_of = _cli_name if short == "cli.main" else None
            self._patch_everywhere(original, self._wrap(short, original, name_of))

        distributions = sys.modules["multiflow.distributions"]
        for cls in _joint_classes():
            for method in JOINT_METHODS:
                if method not in vars(cls):
                    continue
                name = f"distributions.{cls.__name__}.{method}"
                original = vars(cls)[method]
                wrapped = (self._wrap_cursor_factory(name, original)
                           if method == "cascade_cursor" else self._wrap(name, original))
                self._patch(cls, method, wrapped)

        owner = getattr(distributions, STORED_SAMPLE[0])
        prop = vars(owner)[STORED_SAMPLE[1]]
        replacement = functools.cached_property(
            self._wrap("distributions.stored_sample_build", prop.func))
        replacement.__set_name__(owner, STORED_SAMPLE[1])
        self._patch(owner, STORED_SAMPLE[1], replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._cursor_classes.clear()


def _joint_classes() -> list[type]:
    """JointLoadSpace and all its subclasses."""
    classes = [sys.modules["multiflow.distributions"].JointLoadSpace]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return classes


def missing_boundaries() -> list[str]:
    """The boundaries in FUNCTIONS, JOINT_METHODS and STORED_SAMPLE that the
    imported program lacks."""
    missing = [f"{module}.{attr}" for module, attr in FUNCTIONS
               if not callable(getattr(sys.modules.get(module), attr, None))]
    classes = _joint_classes()
    missing += [f"JointLoadSpace.{method}" for method in JOINT_METHODS
                if not any(method in vars(cls) for cls in classes)]
    owner = getattr(sys.modules["multiflow.distributions"], STORED_SAMPLE[0], None)
    prop = vars(owner).get(STORED_SAMPLE[1]) if owner is not None else None
    if not isinstance(prop, functools.cached_property):
        missing.append(f"{'.'.join(STORED_SAMPLE)} (a cached_property)")
    return missing


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns).

    Calls are single-threaded and nested, so direct children never overlap
    and their durations can simply be summed.
    """
    self_ns = [s[4] - s[3] for s in spans]
    first = spans[0][0] if spans else 0
    for s in spans:
        if s[1] >= first:
            self_ns[s[1] - first] -= s[4] - s[3]
    return self_ns


def profile(spans: list[list]) -> dict:
    """Per span name: calls, total and self time in ms."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[2], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (span[4] - span[3]) / 1e6
        row["self_ms"] += own / 1e6
    return table


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, level: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(level * len(ordered)))])


def pass_summary(spans: list[list], io_counts: dict) -> dict:
    """Counts, time totals and duration samples of one traced pass."""
    first = spans[0][0] if spans else 0
    names = {s[0]: s[2] for s in spans}

    def parent_name(s):
        return names.get(s[1], "")

    def ancestors(s):
        parent = s[1]
        while parent >= first:
            record = spans[parent - first]
            yield record[2]
            parent = record[1]

    def ms(s):
        return (s[4] - s[3]) / 1e6

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def matching(suffix):
        return [s for name, group in by_name.items() if name.endswith(suffix) for s in group]

    cascades = by_name.get("simulate.run_cascade", [])
    solves = by_name.get("meanfield.iterate_to_steady_state", [])
    searches = by_name.get("meanfield.critical_attack_size", [])
    grids = by_name.get("meanfield.stable_set_grid", [])
    samples = [s for s in matching(".sample_population")
               if not parent_name(s).endswith(".sample_population")]
    queries = [s for q in JOINT_QUERIES for s in matching(f".{q}")
               if not any(parent_name(s).endswith(f".{q2}") for q2 in JOINT_QUERIES)]
    advances = matching(".advance")
    builds = by_name.get("distributions.stored_sample_build", [])
    own = self_times(spans)
    cli_self = {cmd: sum(own[s[0] - first] for s in by_name.get(f"cli.{cmd}", [])) / 1e6
                for cmd in CLI_COMMANDS}
    return {
        "counts": {
            "simulate.cascades": len(cascades),
            "simulate.truncated": sum(s[5]["truncated"] for s in cascades),
            "simulate.populations_built": len(by_name.get("simulate.build_population", [])),
            "distributions.sample_population_calls": len(samples),
            "distributions.stored_sample_builds": len(builds),
            "distributions.cursor_advances": len(advances),
            "distributions.joint_query_calls": len(queries),
            "meanfield.solves": len(solves),
            "meanfield.iterations_total": sum(s[5]["iterations"] for s in solves),
            "meanfield.iterations_max": max((s[5]["iterations"] for s in solves), default=0),
            "meanfield.nonconverged": sum(not s[5]["converged"] for s in solves),
            "meanfield.critical_searches": len(searches),
            "meanfield.solves_per_search": (
                sum("meanfield.critical_attack_size" in ancestors(s) for s in solves)
                / len(searches) if searches else 0.0),
            "meanfield.stable_grid_cells": sum(s[5]["cells"] for s in grids),
            "allocate.apply_strategy_calls": len(by_name.get("allocate.apply_strategy", [])),
            "cli.rows_written": io_counts.get("rows", 0),
            "cli.bytes_written": io_counts.get("bytes", 0),
        },
        "rounds": [s[5]["rounds"] for s in cascades],
        "totals": {
            "distributions.stored_sample_build_s": sum(ms(s) for s in builds) / 1e3,
            "distributions.joint_query_ms": sum(ms(s) for s in queries),
            "meanfield.stable_grid_ms": sum(ms(s) for s in grids),
            "config.load_experiment_ms": sum(ms(s) for s in
                                             by_name.get("config.load_experiment", [])),
            **{f"cli.self_ms.{cmd}": v for cmd, v in cli_self.items()},
        },
        "samples": {
            "cascade_ms": [ms(s) for s in cascades],
            "cascade_short_ms": [ms(s) for s in cascades if s[5]["rounds"] <= 1],
            "cascade_long_ms": [ms(s) for s in cascades if s[5]["rounds"] >= 5],
            "build_population_ms": [ms(s) for s in by_name.get("simulate.build_population", [])],
            "sample_population_ms": [ms(s) for s in samples],
            "advance_us": [ms(s) * 1e3 for s in advances],
            "solve_ms": [ms(s) for s in solves],
        },
    }


def layer_metrics(passes: list[dict], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass (they repeat exactly
    for a fixed seed), durations pooled over the run's fixed number of traced
    passes, time totals as the median over passes."""
    first = passes[0]
    pooled = {key: [v for p in passes for v in p["samples"][key]] for key in first["samples"]}
    rounds = sorted(first["rounds"])
    metrics = dict(first["counts"])
    metrics.update({
        "simulate.cascade_ms_p50": _median(pooled["cascade_ms"]),
        "simulate.cascade_ms_tail": percentile(pooled["cascade_ms"], TAIL),
        "simulate.cascade_ms_short_p50": _median(pooled["cascade_short_ms"]),
        "simulate.cascade_ms_long_p50": _median(pooled["cascade_long_ms"]),
        "simulate.cascade_rounds_p50": _median(rounds),
        "simulate.cascade_rounds_p90": percentile(rounds, 0.9),
        "simulate.cascade_rounds_max": float(max(rounds, default=0)),
        "simulate.build_population_ms_p50": _median(pooled["build_population_ms"]),
        "distributions.sample_population_ms_p50": _median(pooled["sample_population_ms"]),
        "distributions.cursor_advance_us_p50": _median(pooled["advance_us"]),
        "meanfield.solve_ms_p50": _median(pooled["solve_ms"]),
        "meanfield.solve_ms_tail": percentile(pooled["solve_ms"], TAIL),
        "trace.overhead_frac": overhead_frac,
    })
    for key in first["totals"]:
        metrics[key] = _median([p["totals"][key] for p in passes])
    return metrics


def sample_counts(passes: list[dict]) -> dict[str, int]:
    """How many pooled samples each duration metric rests on."""
    return {key: sum(len(p["samples"][key]) for p in passes) for key in passes[0]["samples"]}
