"""Shared test utilities: independent oracles and random config generation."""

from __future__ import annotations

import math

import numpy as np

from multiflow import (
    CrossLayerFactors,
    Dirac,
    EmpiricalJoint,
    IndependentJoint,
    Pareto,
    Population,
    SystemConfig,
    Uniform,
    Weibull,
    run_cascade,
)


def single_layer_recursion(p: float, load_mean: float, free_dist, max_iter: int = 10_000,
                           tol: float = 1e-14):
    """Independent one-layer cascade recursion used as an oracle.

    Returns the trajectory [(n_t, q_t), ...] starting from t=0.  Collapse is
    recorded as (0.0, inf).
    """
    n = 1.0 - p
    q = p * load_mean / (1.0 - p)
    trajectory = [(n, q)]
    for _ in range(max_iter):
        s = float(free_dist.survival(q))
        if s < 1e-15:
            trajectory.append((0.0, math.inf))
            break
        n = (1.0 - p) * s
        q_next = load_mean * (1.0 - (1.0 - p) * s) / n
        trajectory.append((n, q_next))
        if abs(q_next - q) <= tol * (1.0 + abs(q_next)):
            break
        q = q_next
    return trajectory


def random_marginal(rng: np.random.Generator, scale: float = 30.0,
                    families=("uniform", "pareto", "weibull", "dirac")):
    """A random marginal with O(scale) mean, drawn from the given families."""
    family = families[rng.integers(len(families))]
    if family == "uniform":
        low = scale * rng.uniform(0.3, 1.0)
        return Uniform(low, low + scale * rng.uniform(0.3, 2.0))
    if family == "pareto":
        return Pareto(scale * rng.uniform(0.3, 1.0), rng.uniform(1.8, 6.0))
    if family == "weibull":
        return Weibull(scale * rng.uniform(0.1, 0.6), scale * rng.uniform(0.3, 1.0),
                       rng.uniform(0.8, 4.0))
    return Dirac(scale * rng.uniform(0.5, 1.5))


def random_system(rng: np.random.Generator, load_families=("uniform", "pareto", "weibull"),
                  free_families=("uniform", "pareto", "weibull", "dirac"),
                  beta_max: float = 0.6) -> SystemConfig:
    """Random two-layer system; free-space scale above the load scale so that
    moderate attacks leave survivors."""
    joint = IndependentJoint(
        random_marginal(rng, scale=30.0, families=load_families),
        random_marginal(rng, scale=80.0, families=free_families),
        random_marginal(rng, scale=30.0, families=load_families),
        random_marginal(rng, scale=80.0, families=free_families),
    )
    factors = CrossLayerFactors(float(rng.uniform(0.0, beta_max)),
                                float(rng.uniform(0.0, beta_max)))
    return SystemConfig(joint, factors)


def sampled_copy(cfg: SystemConfig, m: int = 300_000, seed: int = 4) -> SystemConfig:
    """The same independent system answered from an m-row EmpiricalJoint sample."""
    rng = np.random.default_rng(seed)
    joint = cfg.joint
    samples = np.column_stack([
        joint.load_a.sample(rng, m), joint.free_a.sample(rng, m),
        joint.load_b.sample(rng, m), joint.free_b.sample(rng, m)])
    return SystemConfig(EmpiricalJoint(samples), cfg.factors)


def relabelled(pop: Population, order: np.ndarray) -> Population:
    """``pop`` with its rows taken in ``order``: row i is node order[i].

    The identity prefix of the result attacks ``pop`` along ``order``, and a
    failure mask m over ``pop``'s nodes reads m[order] over the result's.  A
    population with an attacked head has no free space for its head's nodes,
    so it is refused."""
    if pop.head:
        raise ValueError(f"cannot relabel a population with an attacked head of {pop.head} nodes")
    return Population(*(c[order] for c in (pop.load_a, pop.free_a, pop.load_b, pop.free_b)))


def collapse_point(pop: Population, factors: CrossLayerFactors) -> float:
    """The least k/n whose identity-prefix attack of k nodes leaves no survivor.

    Failures only grow along nested prefixes, so a bisection over k in
    [1, n - 1] finds it in ceil(log2 n) cascades; 1.0 if none collapses."""
    n = pop.size
    survives, collapses = 0, n
    while collapses - survives > 1:
        k = (survives + collapses) // 2
        if run_cascade(pop, k / n, factors).surviving_fraction == 0.0:
            collapses = k
        else:
            survives = k
    return collapses / n


def dispatch_note() -> str:
    """The failure message of a test that pins bits of numpy float kernels.

    numpy picks its SIMD loops for the CPU at import time, and its AVX-512
    and AVX2 loops of ``**``, ``np.log1p`` and ``np.exp`` can round the last
    bit apart, so such pins hold per numpy version and CPU dispatch.  The
    note names the one the pins were captured on and the running one.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    enabled = [name for name, on in __cpu_features__.items() if on and name.startswith("AVX512")]
    return ("captured on numpy 2.4.6 with the AVX-512 dispatch; running numpy "
            f"{np.__version__} with AVX-512 features: {' '.join(enabled) or 'none'}")


def detect_discontinuities(cfg, p_grid, values, jump: float = 0.03,
                           refine: int = 30) -> list[float]:
    """Locate jump points of the analytic robustness curve.

    Every adjacent drop larger than ``jump`` is bisected down to the p where
    the curve crosses the midpoint of the drop.  Steep continuous segments
    may be flagged too, which only widens the exclusion windows.
    """
    from multiflow import final_size

    locations = []
    for i in range(len(p_grid) - 1):
        drop = values[i] - values[i + 1]
        if drop <= jump:
            continue
        lo, hi = float(p_grid[i]), float(p_grid[i + 1])
        midvalue = 0.5 * (values[i] + values[i + 1])
        for _ in range(refine):
            mid = 0.5 * (lo + hi)
            if final_size(mid, cfg) > midvalue:
                lo = mid
            else:
                hi = mid
        locations.append(0.5 * (lo + hi))
    return locations


def staircase_closed(marked: np.ndarray) -> bool:
    """Whether a marked grid is closed under element-wise minima of cell pairs.

    Pairs within one row are trivially closed, and for rows i1 < i2 the
    binding requirement is: every column marked in any later row and lying
    left of row i1's rightmost mark must be marked in row i1 as well.  That
    reduces the all-pairs check to one suffix-OR sweep.
    """
    marked = np.asarray(marked, dtype=bool)
    rows, cols = marked.shape
    later = np.zeros(cols, dtype=bool)
    for i in range(rows - 1, -1, -1):
        row = marked[i]
        if row.any():
            last = int(np.flatnonzero(row)[-1])
            if np.any(later[:last] & ~row[:last]):
                return False
        later |= row
    return True


def kolmogorov_statistic(samples: np.ndarray, cdf) -> float:
    """sup |ECDF - F| for a right-continuous F (left limits handle atoms)."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    values = np.asarray(cdf(ordered), dtype=float)
    left_values = np.asarray(cdf(np.nextafter(ordered, -np.inf)), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - values)
    lower = np.max(left_values - np.arange(0, n) / n)
    return float(max(upper, lower))
