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
survive), mirroring the "load <= capacity" overload conditions.  An attack
is k = round(p*n) distinct nodes, so the attacked fraction is fixed rather
than Bernoulli-thinned: k nodes drawn uniformly from a seed with
``Generator.choice(n, k, replace=False)``, or, given no seed, the first k
nodes, the prefix of the identity order.  That prefix is a slice: it is
attacked without a gather, and the masked rounds scan only the nodes
after it.  To attack along another order, relabel a population with no
attacked head (below):
``Population(*(c[order] for c in (load_a, free_a, load_b, free_b)))``.

Failures only grow with the attacked set, so the final state of an
identity-prefix cascade at one p is a valid start for any larger p.
``run_cascade`` resumes from it (``resume=``): it attacks only the next
nodes and continues the sorted sweep from the earlier final thresholds.
This is the Newman-Ziff method (M. E. J. Newman and R. M. Ziff, PRL 85,
4104 (2000)), and the reuse mode of ``monte_carlo_curve`` sweeps each
run's p grid so.

``monte_carlo_curve`` draws no attack: it attacks prefixes of the identity
order by slice.  A population's rows are i.i.d. and drawn apart from the
attack, so relabelling the nodes leaves its law unchanged.  Hence the
first k nodes are, in law, a uniform random k-subset, and the nested
prefixes of the identity order are those of a uniformly random order.

No cascade reads an attacked node's free space, so
``build_population(..., attacked=m)`` leaves out those of an *attacked
head*, the first m nodes, which every cascade on the population must then
attack (an identity prefix of at least m nodes).  ``monte_carlo_curve``
gives each population the head of its smallest attack.  The sampler steps
its stream past the head's free spaces, so every drawn value keeps its
bits, and so does each outcome, with one exception: the sorted sweep
orders tied free spaces by the tail's own sort, so where two unattacked
nodes tie exactly but carry unequal loads (not in a Dirac layer, which
sorts in index order either way), a round's shed load can move in its
last bits.

``build_population`` draws only what every cascade on it reads: the head's
loads, at their places in the seed's stream.  The other loads and the free
spaces are drawn in place on the first read of any row, from a copy of the
stream taken before, so every value keeps its bits and none is drawn twice.
Each round first compares its thresholds with the population's
``free_floor``, the joint's least free space per layer: no free space lies
below its floor and ties survive, so a round whose two thresholds are at or
below the floors fails no node, and the cascade ends there, exactly as a
scan would end it, without reading a free row.  A cascade that fails no
node beyond its head then draws nothing more.

All randomness flows through explicit seeds.  ``monte_carlo_curve`` derives
one population stream per (p-index, run-index) pair, or in reuse mode one
per run index, which makes results independent of worker scheduling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import _integer, _lowest, sort_order
from .meanfield import CrossLayerFactors, SystemConfig, _validate_p

MAX_NAIVE_NODES = 10_000
MAX_TRAJECTORY_ROUNDS = 10_000
# Rounds a cascade started from scratch tests under the survivor mask before
# it switches to the sweep in free-space order.  A masked round costs a few
# O(n) vector passes, about 1/40 of sorting both layers, so a cascade on a
# fresh population only gains from the sort if it runs far longer.  At
# N = 10^5 (2 cores), 8 to 24 were equally fast over the criterion-2 sweep,
# against 10% slower at 4.  A resumed cascade runs no masked round: it
# continues the sorted sweep from the earlier final thresholds.
MASKED_ROUNDS = 12


_ROWS = ("load_a", "free_a", "load_b", "free_b")
_LABELS = {name: f"population {name}" for name in _ROWS}


@dataclass(frozen=True, eq=False)
class Population:
    """Per-node loads and free spaces for a finite network.

    Given as four equal-length rows, a population is full: ``head`` is 0,
    and ``free_floor``, which bounds each layer's free spaces from below, is
    their least values.

    A population from ``build_population(..., attacked=m)`` has an attacked
    head of ``head = m`` nodes: every cascade on it attacks them, so their
    free spaces are never read and not kept.  ``free_a`` and ``free_b`` hold
    the free spaces of the other n - head nodes, node i's at index
    i - head, and ``free_floor`` is the joint's.  It holds only its head's
    loads at first; its rows are drawn in place on the first read of any of
    them.
    """

    load_a: np.ndarray
    free_a: np.ndarray
    load_b: np.ndarray
    free_b: np.ndarray
    head: int = field(init=False, repr=False)
    size: int = field(init=False, repr=False)
    free_floor: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lowest = []
        for name in _ROWS:
            # a float64 array passes through without a copy
            try:
                a = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"population {name} must be numeric") from None
            if a.ndim != 1:
                raise ValueError(f"population {name} must be 1-D, got shape {a.shape}")
            lowest.append(_lowest(_LABELS[name], a))
            object.__setattr__(self, name, a)
        n = len(self.load_a)
        if (len(self.free_a), len(self.load_b), len(self.free_b)) != (n, n, n):
            raise ValueError("population arrays must have equal length")
        if n < 1:
            raise ValueError("population must contain at least one node")
        self._set(head=0, size=n, free_floor=(lowest[1], lowest[3]),
                  _head_loads=(self.load_a[:0], self.load_b[:0]))

    @classmethod
    def _drawn(cls, rows, fill, head: int, free_floor: tuple[float, float]) -> "Population":
        """The population of ``rows`` (load_a, free_a, load_b, free_b), in
        which only the head's loads are drawn; ``fill()`` draws the rest."""
        head_loads = rows[0][:head], rows[2][:head]
        for name, row in zip(("load_a", "load_b"), head_loads):
            _lowest(_LABELS[name], row)
        pop = cls.__new__(cls)
        pop._set(head=head, size=len(rows[0]), free_floor=free_floor, _head_loads=head_loads,
                 _pending=(rows, fill))
        return pop

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # only a drawn population's rows are missing, until their first read
        if name not in _ROWS or "_pending" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._fill()
        return self.__dict__[name]

    def _fill(self) -> None:
        rows, fill = self._pending
        fill()
        for name, row in zip(_ROWS, rows):
            _lowest(_LABELS[name], row)
        self._set(**dict(zip(_ROWS, rows)))
        object.__delattr__(self, "_pending")

    def __getstate__(self):
        # a copy or a pickle carries the rows, not the draw that fills them
        if "_pending" in self.__dict__:
            self._fill()
        return self.__dict__

    @functools.cached_property
    def free_order(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Per layer: node indices in ascending free space, and the free
        spaces in that order; the head's nodes have none, so they are left out.

        Sorted on first use and kept, so a population reused across a p grid
        is sorted once.  ``sort_order`` gives ``np.argsort(free)``'s order
        index for index, from one SIMD sort of packed keys, and the head is
        added to it.  The arrays must not be modified after that.
        """
        orders = []
        for free in (self.free_a, self.free_b):
            order = sort_order(free)
            ordered = free[order]
            if self.head:
                order += self.head
            orders.append((order, ordered))
        return tuple(orders)


class TrajectoryPoint(NamedTuple):
    round: int
    surviving_fraction: float
    q_a: float
    q_b: float


class SweepState(NamedTuple):
    """Final state of an identity-prefix cascade, which ``resume`` continues
    on the same population object and under equal factors only."""

    population: Population
    attack_size: int
    factors: CrossLayerFactors
    shed: tuple[float, float]  # total initial load of the failed nodes, per layer
    thresholds: tuple[float, float]  # every node with less free space has failed


@dataclass(frozen=True, eq=False)
class CascadeOutcome:
    """Result of one cascade: final fraction, round count, and trajectory.

    ``failed`` is the steady-state failure mask (attack included), used by
    the oracle-equivalence and conservation checks.  A resumed cascade's
    ``rounds`` and ``trajectory`` cover only the continuation: round 0 is
    the state just after the newly attacked nodes fail.  ``state`` is set
    when ``run_cascade`` attacked the identity prefix, with no seed.
    """

    surviving_fraction: float
    rounds: int
    trajectory: tuple[TrajectoryPoint, ...]
    failed: np.ndarray
    truncated: bool = False
    state: SweepState | None = None


def build_population(cfg: SystemConfig, n: int, seed, attacked: int = 0) -> Population:
    """Sample n i.i.d. nodes from the config's joint; bit-identical per seed.

    The first ``attacked`` nodes form the population's attacked head: their
    loads are drawn, but their free spaces, which no cascade attacking them
    reads, are not.  The stream steps past them instead, so every value
    drawn has the bits of the full population's (``attacked=0``), and a
    cascade that attacks at least that prefix fails the same nodes.  Only
    the head's loads are drawn here, and the rows on their first read
    (``JointLoadSpace.sample_head``); a generator given as ``seed`` is left
    where the whole draw leaves it.
    """
    n = _integer(n, "population size n", 1)
    attacked = _integer(attacked, "attacked", 0)
    if isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed must be a numpy seed, got {seed!r}: {exc}") from None
    rows, fill = cfg.joint.sample_head(n, rng, attacked)
    return Population._drawn(rows, fill, attacked, cfg.joint.free_floor)


def _attack_count(p: float, n: int) -> int:
    return int(math.floor(p * n + 0.5))


def _attacked_nodes(n: int, k: int, attack_seed) -> slice | np.ndarray:
    """k distinct uniform nodes drawn from the seed or, given none, the
    first k nodes as a slice; shared by both cascade variants."""
    if attack_seed is None:
        return slice(0, k)
    return np.random.default_rng(attack_seed).choice(n, k, replace=False)


def run_cascade(pop: Population, p: float, factors: CrossLayerFactors, attack_seed=None, *,
                resume: CascadeOutcome | None = None) -> CascadeOutcome:
    """Cascade via per-layer aggregate excess loads.

    The attack is round(p*n) distinct uniform nodes drawn from
    ``attack_seed`` or, given no seed, the first round(p*n) nodes: the
    prefix of the identity order, attacked by slice.  ``resume`` continues
    an earlier identity-prefix outcome of this function, on this same
    ``Population`` object and factors, whose attack was no larger: only the
    next nodes are attacked, and the cascade starts from the earlier final
    state.  Failures only grow with the attacked set, so the failed set is
    the one a call from scratch gives.  A population with an attacked head
    takes only an identity prefix that covers the head.

    From scratch, the first ``MASKED_ROUNDS`` rounds compare the free
    spaces of every node outside an identity prefix with the thresholds
    under the survivor mask: O(n) vector work per round and no sort, which
    is all most cascades need.  A cascade that runs longer, or is resumed,
    sweeps in free-space order (``Population.free_order``, sorted once per
    population), so each node is touched at most once per layer however
    many rounds remain.  The trajectory keeps ``MAX_TRAJECTORY_ROUNDS``
    rounds after round 0; a cascade that runs longer sets ``truncated``.
    """
    p = _validate_p(p)
    n, head = pop.size, pop.head
    k = _attack_count(p, n)
    if head and (attack_seed is not None or k < head):
        raise ValueError(f"a population with an attacked head of {head} nodes takes only an "
                         f"identity-prefix attack of at least {head} nodes, got "
                         + ("a seeded attack" if attack_seed is not None else f"{k}"))
    if resume is None:
        attacked = _attacked_nodes(n, k, attack_seed)
        count = k
        failed = np.zeros(n, dtype=bool)
        alive, shed_a, shed_b = n, 0.0, 0.0
        previous, masked_rounds = (0.0, 0.0), MASKED_ROUNDS
        # an identity prefix has failed as a whole; the masked rounds skip it
        skip = k if isinstance(attacked, slice) else 0
    else:
        state = resume.state
        if state is None or attack_seed is not None:
            raise ValueError("resume continues an identity-prefix outcome of run_cascade, "
                             "with no attack_seed")
        if state.population is not pop:
            raise ValueError("resume comes from another population")
        if state.factors != factors:
            raise ValueError("resume comes from other cross-layer factors")
        if k < state.attack_size:
            raise ValueError(f"resume cannot shrink the attack from {state.attack_size} "
                             f"to {k} nodes")
        failed = resume.failed.copy()
        attacked = state.attack_size + np.flatnonzero(~failed[state.attack_size:k])
        count = attacked.size
        alive = n - int(np.count_nonzero(failed))
        (shed_a, shed_b), previous, masked_rounds = state.shed, state.thresholds, 0

    failed[attacked] = True
    alive -= count
    # an attack of exactly the head reads no row but the head's loads
    loads = (pop._head_loads if isinstance(attacked, slice) and k == head
             else (pop.load_a, pop.load_b))
    shed_a += float(loads[0][attacked].sum())
    shed_b += float(loads[1][attacked].sum())

    def outcome(rounds, trajectory, truncated=False):
        sweep = (None if attack_seed is not None
                 else SweepState(pop, k, factors, (shed_a, shed_b), previous))
        return CascadeOutcome(alive / n, rounds, tuple(trajectory), failed, truncated, sweep)

    if alive == 0:
        return outcome(0, [TrajectoryPoint(0, 0.0, math.inf, math.inf)])
    q_a = shed_a / alive
    q_b = shed_b / alive
    trajectory = [TrajectoryPoint(0, alive / n, q_a, q_b)]
    if count == 0:
        return outcome(0, trajectory)

    positions = None  # per layer, how far the sorted sweep has scanned
    truncated = False
    rounds = 0
    floor_a, floor_b = pop.free_floor
    while True:
        rounds += 1
        thresholds = (q_a + factors.beta_b * q_b, q_b + factors.beta_a * q_a)
        # free space strictly below the threshold fails (ties survive)
        if thresholds[0] <= floor_a and thresholds[1] <= floor_b:
            # none lies below its floor, so no node fails, and no free row is read
            previous = thresholds
            break
        if rounds <= masked_rounds:
            hit = pop.free_a[skip - head:] < thresholds[0]
            hit |= pop.free_b[skip - head:] < thresholds[1]
            hit &= ~failed[skip:]
            newly = np.flatnonzero(hit)
            if skip:
                newly += skip
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
        if len(trajectory) <= MAX_TRAJECTORY_ROUNDS:
            trajectory.append(TrajectoryPoint(rounds, alive / n, q_a, q_b))
        else:
            truncated = True
    return outcome(rounds, trajectory, truncated)


def run_cascade_naive(pop: Population, p: float, factors: CrossLayerFactors,
                      attack_seed=None) -> CascadeOutcome:
    """Literal per-node bookkeeping oracle (quadratic work, n <= 10^4).

    The attack is drawn as in ``run_cascade``, from ``attack_seed`` or as
    the identity prefix; it always starts from scratch.  Each failed
    node's current loads are split equally over the survivors, per-node
    load vectors are updated, and the overload conditions are re-tested
    against the fixed capacities.  The trajectory records every round, at
    most n - 1 after round 0, and ``truncated`` is never set.
    """
    p = _validate_p(p)
    n = pop.size
    if n > MAX_NAIVE_NODES:
        raise ValueError(f"naive cascade is limited to n <= {MAX_NAIVE_NODES}, got {n}")
    if pop.head:
        raise ValueError(f"naive cascade needs every node's free space; the population "
                         f"has an attacked head of {pop.head} nodes")
    k = _attack_count(p, n)
    attacked = _attacked_nodes(n, k, attack_seed)
    failed = np.zeros(n, dtype=bool)
    if k == 0:
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
        trajectory.append(TrajectoryPoint(rounds, survivors.size / n, inc_a, inc_b))
    return CascadeOutcome(survivors.size / n, rounds, tuple(trajectory), failed)


@dataclass(frozen=True, eq=False)
class RobustnessCurve:
    """Mean/stddev of the surviving fraction over independent runs per p."""

    p: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    samples: np.ndarray  # shape (len(p), runs)
    # Per cascade, shape (len(p), runs): its rounds, which in reuse mode
    # count only the continuation from the previous p, and whether its
    # trajectory was cut at MAX_TRAJECTORY_ROUNDS recorded rounds.
    rounds: np.ndarray
    truncated: np.ndarray
    n: int
    runs: int
    seed_base: int
    resample_population: bool = True


def _curve_task(cfg: SystemConfig, n: int, p_grid: Sequence[float], seed_base: int,
                resample_population: bool,
                task: tuple[int, Sequence[int]]) -> list[tuple[float, int, bool]]:
    """Surviving fraction, rounds and truncation of one run index at the
    given p indices, which come in ascending p.

    The task builds one population, from the stream of its first index in
    resample mode or of its run index in reuse mode, with the first p's
    attack, the smallest, as its attacked head.  Every cascade attacks a
    prefix of the identity order, by slice, and each p resumes the previous
    p's cascade.  A resample task holds one index.
    """
    run_index, p_indices = task
    ip = p_indices[0]
    key = (ip, run_index) if resample_population else (run_index,)
    results = []
    try:
        pop = build_population(cfg, n, np.random.SeedSequence(seed_base, spawn_key=key),
                               attacked=_attack_count(p_grid[ip], n))
        outcome = None
        for ip in p_indices:
            outcome = run_cascade(pop, p_grid[ip], cfg.factors, resume=outcome)
            results.append((outcome.surviving_fraction, outcome.rounds, outcome.truncated))
    except Exception as exc:
        raise RuntimeError(
            f"Monte Carlo task (p_index={ip}, run_index={run_index}) failed: {exc!r}") from exc
    return results


def monte_carlo_curve(cfg: SystemConfig, n: int, p_grid: Sequence[float], runs: int,
                      seed_base: int, workers: int = 1,
                      resample_population: bool = True) -> RobustnessCurve:
    """Simulated robustness curve, deterministic in seed_base.

    Every cascade attacks the first round(p*n) nodes of its population,
    the prefix of the identity order, by slice.  The rows are i.i.d. and
    drawn apart from the attack, so that prefix is, in law, a uniform
    random subset, and no attack is drawn.  Every (p, run) pair samples its
    population from a stream derived from its indices,
    ``SeedSequence(seed_base, spawn_key=(p_index, run_index))``, so the
    result does not depend on the execution order or worker count.  A task
    is one p index of one run.

    In reuse mode (``resample_population=False``) a task is the whole grid
    of one run, so that one population is built per run and, sequentially,
    only one is held at a time.  Run r samples its population from
    ``SeedSequence(seed_base, spawn_key=(r,))``.  It visits the grid in
    ascending p and resumes each cascade from the previous p's final
    state.  The nested prefixes are, in law, those of a uniformly random
    order, so every (p, run) result keeps its distribution; the runs share
    their attacks across p (common random numbers).

    Each population is built with the head of its smallest attack (see
    ``build_population``).  Each cascade's ``rounds`` and ``truncated``
    are kept beside its surviving fraction.

    ``workers`` is capped at the task count; with one worker no process
    pool is started.
    """
    p_grid = [_validate_p(p) for p in p_grid]
    n = _integer(n, "population size n", 1)
    runs = _integer(runs, "runs", 1)
    seed_base = _integer(seed_base, "seed_base", 0)
    workers = _integer(workers, "workers", 1)
    if resample_population:
        tasks = [(ir, [ip]) for ip in range(len(p_grid)) for ir in range(runs)]
    else:
        ascending = sorted(range(len(p_grid)), key=p_grid.__getitem__)
        tasks = [(ir, ascending) for ir in range(runs)] if ascending else []
    workers = min(workers, len(tasks))
    run_tasks = functools.partial(_curve_task, cfg, n, p_grid, seed_base, resample_population)
    if workers > 1:
        # imported here: the pool's import loads multiprocessing, which no
        # single-worker run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_tasks, tasks,
                                    chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        results = [run_tasks(task) for task in tasks]
    shape = (len(p_grid), runs)
    fractions, rounds, truncated = np.empty(shape), np.empty(shape, int), np.empty(shape, bool)
    for (ir, p_indices), values in zip(tasks, results):
        rows = list(p_indices)
        fractions[rows, ir], rounds[rows, ir], truncated[rows, ir] = zip(*values)
    return RobustnessCurve(
        p=np.asarray(p_grid), mean=fractions.mean(axis=1), std=fractions.std(axis=1),
        samples=fractions, rounds=rounds, truncated=truncated, n=n, runs=runs,
        seed_base=seed_base, resample_population=resample_population)
