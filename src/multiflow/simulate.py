"""Finite-N Monte Carlo cascades under global load redistribution.

``run_cascade`` tracks the cascade through two scalar aggregates per layer:
the total initial load of all failed nodes divided by the survivor count.
Global equal redistribution gives every survivor the same added load, so
this is an exact rewrite of per-node bookkeeping; ``run_cascade_naive``
keeps the literal per-node load vectors and serves as the independent
oracle at small n.

Most cascades stop after a round or two, so ``run_cascade`` pays only for
the rounds it runs: early rounds are masked vector comparisons, and only a
cascade that runs past ``MASKED_ROUNDS`` sorts the population's free spaces
(once per population, cached on it) and sweeps them in order.

Survival is the non-strict comparison free_space >= effective excess (ties
survive), mirroring the "load <= capacity" overload conditions.  Attack
sizes are realized as round(p*n) distinct uniformly chosen nodes, drawn
with ``Generator.choice(n, k, replace=False)``, so the attacked fraction is
fixed rather than Bernoulli-thinned.

All randomness flows through explicit seeds.  ``monte_carlo_curve`` derives
one stream per (p-index, run-index) pair, which makes results independent
of worker scheduling.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .meanfield import CrossLayerFactors, SystemConfig, _validate_p

MAX_NAIVE_NODES = 10_000
MAX_TRAJECTORY_ROUNDS = 10_000
# Rounds run_cascade tests under the survivor mask before it switches to the
# sweep in free-space order.  A masked round costs a few O(n) vector passes,
# about 1/40 of sorting both layers, so a cascade on a fresh population only
# gains from the sort if it runs far longer; a reused population's sort
# order is cached, which favours an early switch.  At N = 10^5 (2 cores),
# 8 to 24 were equally fast over the criterion-2 sweep plus near-critical
# reuse, against 10% slower at 4.
MASKED_ROUNDS = 12


@dataclass(frozen=True, eq=False)
class Population:
    """Per-node loads and free spaces for a finite network."""

    load_a: np.ndarray
    free_a: np.ndarray
    load_b: np.ndarray
    free_b: np.ndarray
    seed: object = None

    def __post_init__(self) -> None:
        names = ("load_a", "free_a", "load_b", "free_b")
        for name in names:
            # a float64 array passes through without a copy
            try:
                a = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"population {name} must be numeric") from None
            if a.ndim != 1:
                raise ValueError(f"population {name} must be 1-D, got shape {a.shape}")
            if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
                raise ValueError(f"population {name} must be finite and strictly positive")
            object.__setattr__(self, name, a)
        n = len(self.load_a)
        if any(len(getattr(self, name)) != n for name in names):
            raise ValueError("population arrays must have equal length")
        if n < 1:
            raise ValueError("population must contain at least one node")

    @property
    def size(self) -> int:
        return len(self.load_a)

    @functools.cached_property
    def free_order(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Per layer: node indices in ascending free space, and the free
        spaces in that order.

        Sorted on first use and kept, so a population reused across a p grid
        is sorted once.  The arrays must not be modified after that.
        """
        orders = []
        for free in (self.free_a, self.free_b):
            order = np.argsort(free)
            orders.append((order, free[order]))
        return tuple(orders)


class TrajectoryPoint(NamedTuple):
    round: int
    surviving_fraction: float
    q_a: float
    q_b: float


@dataclass(frozen=True, eq=False)
class CascadeOutcome:
    """Result of one cascade: final fraction, round count, and trajectory.

    ``failed`` is the steady-state failure mask (attack included), used by
    the oracle-equivalence and conservation checks.
    """

    surviving_fraction: float
    rounds: int
    trajectory: tuple[TrajectoryPoint, ...]
    failed: np.ndarray
    truncated: bool = False


def build_population(cfg: SystemConfig, n: int, seed) -> Population:
    """Sample n i.i.d. nodes from the config's joint; bit-identical per seed."""
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    load_a, free_a, load_b, free_b = cfg.joint.sample_population(n, rng)
    return Population(load_a, free_a, load_b, free_b, seed=seed)


def _attack_count(p: float, n: int) -> int:
    return int(math.floor(p * n + 0.5))


def _attacked_nodes(n: int, p: float, attack_seed) -> np.ndarray:
    """round(p*n) distinct uniform nodes; shared by both cascade variants."""
    k = _attack_count(p, n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    rng = np.random.default_rng(attack_seed)
    return rng.choice(n, k, replace=False)


def run_cascade(pop: Population, p: float, factors: CrossLayerFactors,
                attack_seed, max_trajectory: int = MAX_TRAJECTORY_ROUNDS) -> CascadeOutcome:
    """Cascade via per-layer aggregate excess loads.

    The first ``MASKED_ROUNDS`` rounds compare every node's free spaces
    with the thresholds under the survivor mask: O(n) vector work per round
    and no sort, which is all most cascades need.  A cascade that runs
    longer switches to a sweep in free-space order
    (``Population.free_order``, sorted once per population), so from then on
    each node is touched at most once per layer however many rounds remain.
    """
    p = _validate_p(p)
    n = pop.size
    attacked = _attacked_nodes(n, p, attack_seed)
    failed = np.zeros(n, dtype=bool)
    if attacked.size == 0:
        return CascadeOutcome(1.0, 0, (TrajectoryPoint(0, 1.0, 0.0, 0.0),), failed)

    failed[attacked] = True
    alive = n - attacked.size
    shed_a = float(pop.load_a[attacked].sum())
    shed_b = float(pop.load_b[attacked].sum())
    if alive == 0:
        return CascadeOutcome(0.0, 0, (TrajectoryPoint(0, 0.0, math.inf, math.inf),), failed)

    positions = None  # per layer, how far the sorted sweep has scanned
    q_a = shed_a / alive
    q_b = shed_b / alive
    trajectory = [TrajectoryPoint(0, alive / n, q_a, q_b)]
    truncated = False
    rounds = 0
    while True:
        rounds += 1
        thresholds = (q_a + factors.beta_b * q_b, q_b + factors.beta_a * q_a)
        # free space strictly below the threshold fails (ties survive)
        if rounds <= MASKED_ROUNDS:
            hit = pop.free_a < thresholds[0]
            hit |= pop.free_b < thresholds[1]
            hit &= ~failed
            newly = np.flatnonzero(hit)
            failed[newly] = True
        else:
            if positions is None:
                # Thresholds never decrease, so every node below the previous
                # round's thresholds has already failed.
                positions = [int(np.searchsorted(ordered, threshold, side="left"))
                             for (_, ordered), threshold in zip(pop.free_order, previous)]
            parts = []
            for layer, ((order, ordered), threshold) in enumerate(zip(pop.free_order,
                                                                     thresholds)):
                hi = int(np.searchsorted(ordered, threshold, side="left"))
                idx = order[positions[layer]:hi]
                positions[layer] = hi
                idx = idx[~failed[idx]]
                failed[idx] = True
                parts.append(idx)
            newly = np.concatenate(parts)
        previous = thresholds
        if newly.size == 0:
            break
        shed_a += float(pop.load_a[newly].sum())
        shed_b += float(pop.load_b[newly].sum())
        alive -= newly.size
        if alive == 0:
            q_a = q_b = math.inf
            trajectory.append(TrajectoryPoint(rounds, 0.0, q_a, q_b))
            break
        q_a = shed_a / alive
        q_b = shed_b / alive
        if len(trajectory) <= max_trajectory:
            trajectory.append(TrajectoryPoint(rounds, alive / n, q_a, q_b))
        else:
            truncated = True
    return CascadeOutcome(alive / n, rounds, tuple(trajectory), failed, truncated)


def run_cascade_naive(pop: Population, p: float, factors: CrossLayerFactors,
                      attack_seed, max_trajectory: int = MAX_TRAJECTORY_ROUNDS) -> CascadeOutcome:
    """Literal per-node bookkeeping oracle (quadratic work, n <= 10^4).

    Each failed node's current loads are split equally over the survivors,
    per-node load vectors are updated, and the overload conditions are
    re-tested against the fixed capacities.
    """
    p = _validate_p(p)
    n = pop.size
    if n > MAX_NAIVE_NODES:
        raise ValueError(f"naive cascade is limited to n <= {MAX_NAIVE_NODES}, got {n}")
    attacked = _attacked_nodes(n, p, attack_seed)
    failed = np.zeros(n, dtype=bool)
    if attacked.size == 0:
        return CascadeOutcome(1.0, 0, (TrajectoryPoint(0, 1.0, 0.0, 0.0),), failed)

    beta_a, beta_b = factors.beta_a, factors.beta_b
    cur_a = np.array(pop.load_a, dtype=float)
    cur_b = np.array(pop.load_b, dtype=float)
    cap_a = pop.load_a + beta_b * pop.load_b + pop.free_a
    cap_b = pop.load_b + beta_a * pop.load_a + pop.free_b

    failed[attacked] = True
    survivors = np.flatnonzero(~failed)
    if survivors.size == 0:
        return CascadeOutcome(0.0, 0, (TrajectoryPoint(0, 0.0, math.inf, math.inf),), failed)

    inc_a = float(cur_a[attacked].sum()) / survivors.size
    inc_b = float(cur_b[attacked].sum()) / survivors.size
    cur_a[survivors] += inc_a
    cur_b[survivors] += inc_b
    trajectory = [TrajectoryPoint(0, survivors.size / n, inc_a, inc_b)]
    truncated = False
    rounds = 0
    while True:
        rounds += 1
        overloaded = (
            (cur_a[survivors] + beta_b * cur_b[survivors] > cap_a[survivors])
            | (cur_b[survivors] + beta_a * cur_a[survivors] > cap_b[survivors])
        )
        newly = survivors[overloaded]
        if newly.size == 0:
            break
        failed[newly] = True
        survivors = survivors[~overloaded]
        if survivors.size == 0:
            trajectory.append(TrajectoryPoint(rounds, 0.0, math.inf, math.inf))
            break
        add_a = float(cur_a[newly].sum()) / survivors.size
        add_b = float(cur_b[newly].sum()) / survivors.size
        cur_a[survivors] += add_a
        cur_b[survivors] += add_b
        inc_a += add_a
        inc_b += add_b
        if len(trajectory) <= max_trajectory:
            trajectory.append(TrajectoryPoint(rounds, survivors.size / n, inc_a, inc_b))
        else:
            truncated = True
    return CascadeOutcome(survivors.size / n, rounds, tuple(trajectory), failed, truncated)


@dataclass(frozen=True, eq=False)
class RobustnessCurve:
    """Mean/stddev of the surviving fraction over independent runs per p."""

    p: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    samples: np.ndarray  # shape (len(p), runs)
    n: int
    runs: int
    seed_base: int
    resample_population: bool = True


def _curve_task(cfg: SystemConfig, n: int, p_grid: Sequence[float], seed_base: int,
                resample_population: bool, task: tuple[int, Sequence[int]]) -> list[float]:
    """Surviving fractions of one run index at the given p indices."""
    run_index, p_indices = task
    pop = None
    fractions = []
    for ip in p_indices:
        try:
            pop_seed, attack_seed = np.random.SeedSequence(
                seed_base, spawn_key=(ip, run_index)).spawn(2)
            if resample_population:
                pop = build_population(cfg, n, pop_seed)
            elif pop is None:
                # One population per run index, shared across the whole p grid.
                pop = build_population(
                    cfg, n, np.random.SeedSequence(seed_base, spawn_key=(run_index,)))
            outcome = run_cascade(pop, p_grid[ip], cfg.factors, attack_seed)
        except Exception as exc:
            raise RuntimeError(
                f"Monte Carlo task (p_index={ip}, run_index={run_index}) failed: {exc!r}") from exc
        fractions.append(outcome.surviving_fraction)
    return fractions


def monte_carlo_curve(cfg: SystemConfig, n: int, p_grid: Sequence[float], runs: int,
                      seed_base: int, workers: int = 1,
                      resample_population: bool = True) -> RobustnessCurve:
    """Simulated robustness curve, deterministic in seed_base.

    Every (p, run) pair owns an RNG stream derived from its indices, so the
    result does not depend on the execution order or worker count.  A task
    is one p index of one run, or in reuse mode the whole grid of one run,
    so that one population is built per run and, sequentially, only one is
    held at a time.  ``workers`` is capped at the task count; with one
    worker no process pool is started.
    """
    p_grid = [_validate_p(p) for p in p_grid]
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if seed_base < 0:
        raise ValueError(f"seed_base must be >= 0, got {seed_base}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if resample_population:
        tasks = [(ir, [ip]) for ip in range(len(p_grid)) for ir in range(runs)]
    else:
        tasks = [(ir, range(len(p_grid))) for ir in range(runs)]
    workers = min(workers, len(tasks))
    run_tasks = functools.partial(_curve_task, cfg, n, p_grid, seed_base, resample_population)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_tasks, tasks,
                                    chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        results = [run_tasks(task) for task in tasks]
    fractions = np.empty((len(p_grid), runs))
    for (ir, p_indices), values in zip(tasks, results):
        fractions[list(p_indices), ir] = values
    return RobustnessCurve(
        p=np.asarray(p_grid), mean=fractions.mean(axis=1), std=fractions.std(axis=1),
        samples=fractions, n=n, runs=runs, seed_base=seed_base,
        resample_population=resample_population)
