"""The four benchmark workloads: inputs from the seed, one timed pass, checks.

Each workload object is built from the seed before ``multiflow`` is imported
(``generate`` writes any derived spec files), then ``prepare`` loads what the
passes need.  ``units`` lists one pass as labelled calls that the runner
times one by one, ``pass_stats`` reports counts after a pass and ``check``
verifies the outputs.  Every pass of a run repeats the same inputs, so passes are repeat
measurements of the same work and their counts are identical.

Load generation is a closed loop from one process: the next call starts when
the previous one returns.  Monte Carlo runs use one worker
(``workers=1``), and CLI commands run in-process through
``multiflow.cli.main(argv)`` with ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

import oracle

ALLOC_CONFIGS = ("alloc_pareto_uniform", "alloc_uniform_weibull", "alloc_weibull_pareto")
ALLOC_SYSTEMS = ("layer_weighted_equal", "equal_free_space", "equal_tolerance_factor")
BETA_SYSTEMS = ("beta_0.00", "beta_0.25", "beta_0.50", "beta_1.00")

# Criterion 2 of the acceptance gate compares the simulated mean with the
# analytic curve outside +-0.01 windows around its jumps.  At N = 10^5 a
# surviving fraction has a binomial standard error of at most
# sqrt(0.25 / N) = 0.0016; the tolerance is three of those, rounded up.  The
# largest gap measured at one run per p, over seeds 1-30, is 0.0007.
CRIT2_TOL, CRIT2_WINDOW, CRIT2_JUMP = 0.005, 0.01, 0.03
P_HAT_TOL = 1e-3
# The stored 10^6-row sample estimates survival probabilities with a
# standard error of about 5e-4; 10x that bounds its final-size error away
# from the transition.
STORED_SAMPLE_TOL = 5e-3
ORACLE_N = 2000

# Per-workload sizes; "tiny" serves the smoke test.
SIZES = {
    "mc_sweep": {"full": {"n": 100_000, "points": 50, "runs": 1},
                 "tiny": {"n": 100_000, "points": 5, "runs": 1}},
    "mc_reuse_critical": {"full": {"n": 100_000, "points": 13, "runs": 3},
                          "tiny": {"n": 100_000, "points": 3, "runs": 1}},
    "analytic_alloc": {"full": {"configs": 3, "points": 8, "resolution": 16},
                       "tiny": {"configs": 1, "points": 2, "resolution": 4}},
    "cli_closed_form": {"full": {"configs": 3, "resolution": 400},
                        "tiny": {"configs": 1, "resolution": 20}},
}


class Check(NamedTuple):
    """Outcome of one output check."""

    name: str
    ok: bool
    detail: str = ""


def _bundled(root: Path, config: str) -> Path:
    return root / "src" / "multiflow" / "configs" / f"{config}.json"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a multiflow CSV (comment lines skipped)."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header, rows, name, kind=float):
    i = header.index(name)
    return [kind(r[i]) for r in rows]


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, tiny: bool, work: Path):
        self.root, self.seed, self.work = root, seed, work / self.name
        self.size = SIZES[self.name]["tiny" if tiny else "full"]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = oracle.load_reference()["critical"]
        self.spec_paths: list[Path] = []
        self.checks: list[Check] = []

    def generate(self) -> None:
        """Write derived inputs; runs before multiflow is imported."""

    def units(self) -> list[tuple[str, object]]:
        """One pass as (label, call) pairs."""
        raise NotImplementedError

    def pass_stats(self, traced: bool) -> dict:
        return {}

    def prepare(self, mf) -> None:
        self.mf = mf
        self.specs = {str(p): mf.config.load_experiment(p) for p in self.spec_paths}

    def config_sha256(self) -> dict[str, str]:
        return {str(Path(p).relative_to(self.root)): s.checksum for p, s in self.specs.items()}

    def check(self) -> list[Check]:
        return self.checks


class MonteCarlo(Workload):
    """Shared by both Monte Carlo workloads: beta_sweep systems, one worker."""

    resample = True

    def generate(self) -> None:
        self.spec_paths = [_bundled(self.root, "beta_sweep")]
        self.seed_bases = [self.rng.randrange(2 ** 31) for _ in BETA_SYSTEMS]
        self.outcomes: list[tuple[int, bool]] = []

    def prepare(self, mf) -> None:
        super().prepare(mf)
        self.systems = self.specs[str(self.spec_paths[0])].systems
        # Observe every cascade's round count and truncation flag; one list
        # append per cascade of ~10 ms.
        original = mf.simulate.run_cascade
        outcomes = self.outcomes

        def observed(*args, **kwargs):
            outcome = original(*args, **kwargs)
            outcomes.append((outcome.rounds, outcome.truncated))
            return outcome
        mf.simulate.run_cascade = observed

    def grids(self) -> dict[str, list[float]]:
        raise NotImplementedError

    def units(self) -> list[tuple[str, object]]:
        self.pass_start = len(self.outcomes)
        self.curves = {}
        return [("mc", functools.partial(self._curve, name, grid, seed_base))
                for (name, grid), seed_base in zip(self.grids().items(), self.seed_bases)]

    def _curve(self, name: str, grid: list[float], seed_base: int) -> None:
        self.curves[name] = self.mf.simulate.monte_carlo_curve(
            self.systems[name], self.size["n"], grid, self.size["runs"], seed_base,
            workers=1, resample_population=self.resample)

    def pass_stats(self, traced: bool) -> dict:
        return {"cascades": len(self.outcomes) - self.pass_start}

    def check(self) -> list[Check]:
        truncated = sum(t for _, t in self.outcomes)
        self.checks.append(Check("no truncated trajectory", truncated == 0,
                                 f"{truncated} of {len(self.outcomes)} truncated"))
        self.checks.extend(self._oracle_checks())
        return self.checks

    def _oracle_checks(self) -> list[Check]:
        """run_cascade and run_cascade_naive fail the same nodes at small n."""
        simulate = self.mf.simulate
        checks = []
        for index, name in enumerate(BETA_SYSTEMS):
            cfg = self.systems[name]
            p_star = self.reference[f"beta_sweep/{name}"]
            pop = simulate.build_population(cfg, ORACLE_N, self.seed_bases[index])
            for p in (0.5 * p_star, p_star, min(0.95, p_star + 0.02)):
                fast = simulate.run_cascade(pop, p, cfg.factors, self.seed_bases[index] + 1)
                slow = simulate.run_cascade_naive(pop, p, cfg.factors,
                                                  self.seed_bases[index] + 1)
                same = bool((fast.failed == slow.failed).all())
                checks.append(Check(f"oracle failed set {name} p={p:.4f}", same,
                                    f"{int(fast.failed.sum())} vs {int(slow.failed.sum())} failed"))
        return checks


class McSweep(MonteCarlo):
    name = "mc_sweep"

    def grids(self):
        grid = [0.02 + 0.96 * i / (self.size["points"] - 1) for i in range(self.size["points"])]
        return {name: grid for name in BETA_SYSTEMS}

    def units(self):
        return [("analytic", self._analytic), *super().units()]

    def _analytic(self) -> None:
        grid = self.grids()[BETA_SYSTEMS[0]]
        final_size = self.mf.meanfield.final_size
        self.analytic = {name: [final_size(p, self.systems[name]) for p in grid]
                         for name in BETA_SYSTEMS}

    def check(self) -> list[Check]:
        for name in BETA_SYSTEMS:
            system = oracle.System(oracle.bundled_record("beta_sweep", name))
            grid, analytic = self.grids()[name], self.analytic[name]
            jumps = _jumps(system, grid, analytic)
            keep = [all(abs(p - j) > CRIT2_WINDOW for j in jumps) for p in grid]
            mean = self.curves[name].mean
            gap = max((abs(float(m) - a) for m, a, k in zip(mean, analytic, keep) if k),
                      default=0.0)
            enough = sum(keep) >= 0.8 * len(grid)
            self.checks.append(Check(
                f"criterion-2 gap {name}", enough and gap <= CRIT2_TOL,
                f"max gap {gap:.4f} <= {CRIT2_TOL} over {sum(keep)}/{len(grid)} points, "
                f"jumps at {[round(j, 4) for j in jumps]}"))
        return super().check()


def _jumps(system: oracle.System, grid, values) -> list[float]:
    """Bisect every adjacent drop larger than CRIT2_JUMP to 1e-4 (oracle solves)."""
    locations = []
    for i in range(len(grid) - 1):
        if values[i] - values[i + 1] <= CRIT2_JUMP:
            continue
        lo, hi = grid[i], grid[i + 1]
        middle = 0.5 * (values[i] + values[i + 1])
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if system.final_size(mid) > middle:
                lo = mid
            else:
                hi = mid
        locations.append(0.5 * (lo + hi))
    return locations


class McReuseCritical(MonteCarlo):
    name = "mc_reuse_critical"
    resample = False

    def generate(self) -> None:
        super().generate()
        offset = self.rng.random()
        count = self.size["points"]
        # evenly spaced across p* +- 0.03, shifted by a seeded fraction of a step
        self._grids = {
            name: [self.reference[f"beta_sweep/{name}"] - 0.03 + 0.06 * (k + offset) / count
                   for k in range(count)]
            for name in BETA_SYSTEMS}

    def grids(self):
        return self._grids


class CliWorkload(Workload):
    """Runs CLI commands in-process; each invocation has its own output directory."""

    def generate(self) -> None:
        self.invocations: list[list[str]] = []

    def add(self, *argv: str) -> Path:
        out = self.work / "out" / str(len(self.invocations))
        self.invocations.append([*argv, "--out", str(out), "--threads", "1"])
        return out

    def units(self):
        return [(argv[0], functools.partial(self._invoke, argv)) for argv in self.invocations]

    def _invoke(self, argv: list[str]) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.mf.cli.main(list(argv))
        self.checks.append(Check(f"exit 0: {' '.join(argv[:3])}", code == 0,
                                 f"exit {code}: {stderr.getvalue().strip()[-300:]}"))

    def pass_stats(self, traced: bool) -> dict:
        return self.io_counts() if traced else {}

    def io_counts(self) -> dict[str, int]:
        """Rows and bytes the last pass wrote (each invocation overwrites its own)."""
        rows = size = 0
        for path in sorted((self.work / "out").rglob("*")):
            if not path.is_file():
                continue
            size += path.stat().st_size
            if path.suffix == ".csv":
                rows += len(read_csv(path)[1])
        return {"rows": rows, "bytes": size}

    def _stable_set_check(self, out: Path, spec_path: Path, system: str, p: float,
                          resolution: int) -> Check:
        header, rows = read_csv(out / f"stable_set_{system}.csv")
        xs, ys = _column(header, rows, "x"), _column(header, rows, "y")
        stable = _column(header, rows, "stable", int)
        marked = [(x, y) for x, y, s in zip(xs, ys, stable) if s]
        cfg = self.mf.config.load_experiment(spec_path).systems[system]
        steady = self.mf.meanfield.iterate_to_steady_state(p, cfg)
        cell_x = sorted(set(xs))[1] - min(xs)
        cell_y = sorted(set(ys))[1] - min(ys)
        ok = len(rows) == resolution ** 2 and bool(marked)
        detail = f"{len(rows)} rows, {len(marked)} stable"
        if marked:
            min_x, min_y = min(x for x, _ in marked), min(y for _, y in marked)
            ok = (ok and abs(min_x - steady.x_star) <= cell_x + 1e-9
                  and abs(min_y - steady.y_star) <= cell_y + 1e-9)
            detail += (f"; minimum ({min_x:.4f}, {min_y:.4f}) vs steady state "
                       f"({steady.x_star:.4f}, {steady.y_star:.4f}), cell ({cell_x:.4f}, {cell_y:.4f})")
        return Check(f"stable set {spec_path.stem}/{system} p={p:.4f}", ok, detail)


def _dirac_bound(system: oracle.System, s_a: float, s_b: float) -> float:
    """Closed-form critical attack of Dirac free spaces (s_a, s_b): the weaker layer's bound."""
    p_a = s_a / (s_a + system.mean_a + system.beta_b * system.mean_b)
    p_b = s_b / (s_b + system.mean_b + system.beta_a * system.mean_a)
    return min(p_a, p_b)


class AnalyticAlloc(CliWorkload):
    name = "analytic_alloc"

    def generate(self) -> None:
        super().generate()
        count = self.size["points"]
        offset = self.rng.random()
        grid = [0.02 + 0.96 * (k + offset) / count for k in range(count)]
        self.outs = {}
        specs_dir = self.work / "specs"
        specs_dir.mkdir(parents=True, exist_ok=True)
        for config in ALLOC_CONFIGS[:self.size["configs"]]:
            document = json.loads(_bundled(self.root, config).read_text(encoding="utf-8"))
            document["p_grid"] = grid
            path = specs_dir / f"{config}.json"
            path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
            self.spec_paths.append(path)
            system = oracle.System(oracle.bundled_record(config, "equal_tolerance_factor"))
            p_set = self.reference[f"{config}/equal_tolerance_factor"] * self.rng.uniform(0.3, 0.8)
            # The default extent reaches the far tail quantile of the heavy-tailed
            # loads, where a coarse grid misses the stable region; twice the
            # steady-state excess loads frames it.
            _, q_a, q_b = system.steady_state(p_set)
            self.outs[config] = (self.add("curve", "--config", str(path)),
                                 self.add("critical", "--config", str(path)),
                                 self.add("stable-set", "--config", str(path),
                                          "--system", "equal_tolerance_factor",
                                          "--p", repr(p_set), "--x-max", repr(2 * q_a),
                                          "--y-max", repr(2 * q_b),
                                          "--resolution", str(self.size["resolution"])),
                                 p_set)
        self.grid = grid

    def check(self) -> list[Check]:
        for path, config in zip(self.spec_paths, self.outs):
            curve_out, critical_out, stable_out, p_set = self.outs[config]
            header, rows = read_csv(critical_out / "critical.csv")
            p_hat = dict(zip(_column(header, rows, "system", str), _column(header, rows, "p_hat")))
            for name in ALLOC_SYSTEMS:
                system = oracle.System(oracle.bundled_record(config, name))
                if system.alpha is None:
                    expected = _dirac_bound(system, system.free_a.mean(),
                                            system.free_b.mean())
                    self._check_dirac_curve(curve_out, config, name, expected)
                else:
                    expected = self.reference[f"{config}/{name}"]
                    self._check_tolerance_curve(curve_out, config, name, system, expected)
                got = p_hat.get(name, math.nan)
                self.checks.append(Check(f"p_hat {config}/{name}",
                                         abs(got - expected) <= P_HAT_TOL,
                                         f"{got:.6f} vs reference {expected:.6f}"))
            self.checks.append(self._stable_set_check(stable_out, path, "equal_tolerance_factor",
                                                      p_set, self.size["resolution"]))
        return self.checks

    def _curve(self, out: Path, name: str):
        header, rows = read_csv(out / f"curve_{name}.csv")
        return _column(header, rows, "p"), _column(header, rows, "n_inf_analytic")

    def _check_dirac_curve(self, out, config, name, bound) -> None:
        """Below its bound a Dirac allocation loses only the attacked nodes; above, all."""
        worst = 0.0
        for p, n_inf in zip(*self._curve(out, name)):
            if abs(p - bound) > P_HAT_TOL:
                worst = max(worst, abs(n_inf - ((1.0 - p) if p < bound else 0.0)))
        self.checks.append(Check(f"curve {config}/{name}", worst <= 1e-9,
                                 f"max |n_inf - closed form| {worst:.3g}"))

    def _check_tolerance_curve(self, out, config, name, system, p_star) -> None:
        worst = 0.0
        for p, n_inf in zip(*self._curve(out, name)):
            if abs(p - p_star) > CRIT2_WINDOW:
                worst = max(worst, abs(n_inf - system.final_size(p)))
        self.checks.append(Check(f"curve {config}/{name}", worst <= STORED_SAMPLE_TOL,
                                 f"max |n_inf - exact| {worst:.3g} <= {STORED_SAMPLE_TOL}"))


class CliClosedForm(CliWorkload):
    name = "cli_closed_form"

    def generate(self) -> None:
        super().generate()
        configs = ALLOC_CONFIGS[:self.size["configs"]]
        self.spec_paths = [_bundled(self.root, c)
                           for c in ("uniform_symmetric", "mixed_families", *configs)]
        p_star = self.reference["uniform_symmetric/uniform_symmetric"]
        self.p_set = p_star * self.rng.uniform(0.3, 0.8)
        self.budget = round(self.rng.uniform(600.0, 840.0), 3)
        self.stable_out = self.add("stable-set", "--config", "uniform_symmetric",
                                   "--p", repr(self.p_set),
                                   "--resolution", str(self.size["resolution"]))
        self.critical_out = self.add("critical", "--config", "mixed_families")
        self.optimize_outs = {(c, s): self.add("optimize", "--config", c, "--system", s,
                                               "--budget", repr(self.budget))
                              for c in configs for s in ALLOC_SYSTEMS}

    def check(self) -> list[Check]:
        self.checks.append(self._stable_set_check(
            self.stable_out, self.spec_paths[0], "uniform_symmetric", self.p_set,
            self.size["resolution"]))
        header, rows = read_csv(self.critical_out / "critical.csv")
        for name, p_hat in zip(_column(header, rows, "system", str), _column(header, rows, "p_hat")):
            expected = self.reference[f"mixed_families/{name}"]
            self.checks.append(Check(f"p_hat mixed_families/{name}",
                                     abs(p_hat - expected) <= P_HAT_TOL,
                                     f"{p_hat:.6f} vs reference {expected:.6f}"))
        for (config, name), out in self.optimize_outs.items():
            self.checks.append(self._optimize_check(config, name, out))
        return self.checks

    def _optimize_check(self, config: str, name: str, out: Path) -> Check:
        """The optimize table against the closed forms at the seeded budget."""
        system = oracle.System(oracle.bundled_record(config, name))
        mean_a, mean_b, s = system.mean_a, system.mean_b, self.budget
        eff = (1 + system.beta_a) * mean_a + (1 + system.beta_b) * mean_b
        expected = {"layer_weighted_equal": s / (s + eff),
                    "equal_free_space": _dirac_bound(system, 0.5 * s, 0.5 * s)}
        header, rows = read_csv(out / f"optimize_{name}.csv")
        table = {r[0]: r for r in rows}
        worst = max(abs(float(table[k][header.index("predicted_critical")]) - v)
                    for k, v in expected.items())
        alpha = float(table["equal_tolerance_factor"][header.index("alpha")])
        alpha_err = abs(alpha / (s / (mean_a + mean_b)) - 1.0)
        return Check(f"optimize {config}/{name} budget={s}",
                     worst <= P_HAT_TOL and alpha_err <= 1e-2,
                     f"max p_opt error {worst:.3g}, alpha relative error {alpha_err:.3g}")


WORKLOADS = {cls.name: cls for cls in (McSweep, McReuseCritical, AnalyticAlloc, CliClosedForm)}
