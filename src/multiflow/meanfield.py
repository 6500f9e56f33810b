"""Mean-field cascade analysis for two-layer multiplex flow networks.

A random attack removes a fraction ``p`` of the nodes; their loads are
redistributed equally over all survivors, separately per layer.  A node
survives a round when its free space covers the effective excess load in
both layers, where the effective excess couples the layers linearly through
the cross-layer influence factors::

    eff_A = q_A + beta_b * q_B        eff_B = q_B + beta_a * q_A

Starting from n_0 = 1 - p and q_0 = p * E[L] / (1 - p) per layer, each
round maps the excess-load pair through the joint free-space survival
probability and the partial load expectations.  Effective excess loads are
nondecreasing along a trajectory and the iteration converges to the
element-wise minimum of the stable set

    {(x, y) : x >= g(x, y), y >= h(x, y)},

which makes the surviving fraction at the limit the final system size.
The two sides of those inequalities do not depend on p: the joint's
``stability_sides`` evaluates them on a grid, and a point is stable at p
iff both reach 1/(1-p).  ``stable_set_grid`` scans that region explicitly
for visual checks.  Since that threshold rises with p, a positive final
size switches off only once as p grows, so ``critical_attack_size`` finds
the largest attack the system absorbs by plain bisection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .distributions import IndependentJoint, JointLoadSpace

# Below this joint survival the surviving fraction is smaller than 1/N for
# any realistic N; the cascade is declared a total collapse.
COLLAPSE_EPS = 1e-15

# The solve's relative tolerance and round budget (>= 0), read at call time.
TOL = 1e-10
MAX_ITER = 10 ** 6
DEFAULT_TOL_P = 1e-4
DEFAULT_GRID_RESOLUTION = 400


@dataclass(frozen=True)
class CrossLayerFactors:
    """Unit impact of one layer's load on the other ((0, 0) = independent layers)."""

    beta_a: float = 0.0
    beta_b: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta_a", "beta_b"):
            value = _validate_real(getattr(self, name), name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SystemConfig:
    """Joint load/free-space description plus the cross-layer factors."""

    joint: JointLoadSpace
    factors: CrossLayerFactors = field(default_factory=CrossLayerFactors)

    @staticmethod
    def from_marginals(load_a, free_a, load_b, free_b,
                       beta_a: float = 0.0, beta_b: float = 0.0) -> "SystemConfig":
        return SystemConfig(IndependentJoint(load_a, free_a, load_b, free_b),
                            CrossLayerFactors(beta_a, beta_b))


@dataclass(frozen=True)
class SteadyState:
    """Limit of the cascade recursion.

    ``x_star``/``y_star`` are the element-wise minimum stable excess loads
    (infinite on total collapse); ``n_inf`` is the final system size.
    """

    n_inf: float
    x_star: float
    y_star: float
    iterations: int
    converged: bool

    @property
    def collapsed(self) -> bool:
        return self.n_inf == 0.0


def _validate_real(value, name: str) -> float:
    """Check a real argument and return it as a Python float.

    Any real scalar is accepted, numpy scalars included; ``bool`` is rejected
    as not a number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def _validate_p(p: float) -> float:
    """Check an attack fraction in (0, 1) and return it as a Python float."""
    p = _validate_real(p, "attack fraction p")
    if not 0.0 < p < 1.0:
        raise ValueError(f"attack fraction p must lie strictly in (0, 1), got {p}")
    return p


def _validate_int(value, name: str, minimum: int) -> int:
    """Check an integer argument against its lower bound and return it as an int.

    numpy integers are accepted; ``bool`` and non-integral values are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def iterate_to_steady_state(p: float, cfg: SystemConfig) -> SteadyState:
    """Run the recursion until the effective excess loads stop moving.

    Convergence is relative on the effective excess loads:
    max(|delta_A|, |delta_B|) < TOL * (1 + max effective load).  Total
    collapse counts as converged.  The limit point is the element-wise
    minimum of the stable set.  A solve that runs ``MAX_ITER`` rounds
    without converging is cut there with ``converged=False``; cut at
    ``MAX_ITER = t`` it reads round t: ``n_inf`` is n_{t+1} and, unless
    that is a collapse, ``x_star``/``y_star`` are q_t.
    """
    p = _validate_p(p)
    advance = cfg.joint.cascade_cursor().advance
    mean_a, mean_b = cfg.joint.mean_loads
    beta_a, beta_b = cfg.factors.beta_a, cfg.factors.beta_b
    scale = p / (1.0 - p)
    q_a, q_b = scale * mean_a, scale * mean_b
    eff_a, eff_b = q_a + beta_b * q_b, q_b + beta_a * q_a
    new_a, new_b = eff_a, eff_b
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        # One round: the survivors n and the excess loads they carry.
        probability, load_a, load_b = advance(eff_a, eff_b)
        if probability < COLLAPSE_EPS:
            return SteadyState(0.0, math.inf, math.inf, iterations, True)
        n = (1.0 - p) * probability
        q_a = (mean_a - (1.0 - p) * load_a) / n
        q_b = (mean_b - (1.0 - p) * load_b) / n
        new_a, new_b = q_a + beta_b * q_b, q_b + beta_a * q_a
        delta = max(abs(new_a - eff_a), abs(new_b - eff_b))
        # Theory guarantees nondecreasing effective loads; the max() guards
        # the cursor against last-bit rounding regressions.
        eff_a = max(eff_a, new_a)
        eff_b = max(eff_b, new_b)
        if delta < TOL * (1.0 + max(eff_a, eff_b)):
            converged = True
            break
    # Final size evaluated at the limit point itself, so the identity
    # n_inf = (1-p) * P[S_A > x*+bB y*, S_B > y*+bA x*] holds exactly.
    prob = advance(new_a, new_b).probability
    if prob < COLLAPSE_EPS:
        return SteadyState(0.0, math.inf, math.inf, iterations, converged)
    return SteadyState((1.0 - p) * prob, q_a, q_b, iterations, converged)


def final_size(p: float, cfg: SystemConfig) -> float:
    """Final surviving fraction n_inf(p); 0 on total collapse."""
    return iterate_to_steady_state(p, cfg).n_inf


@dataclass(frozen=True)
class StableSetGrid:
    """Cell-centered scan of the stable set with the exported surfaces.

    ``lhs_a``/``lhs_b``/``stable`` are indexed [ix, iy] to match (x, y).
    ``minimum`` is the element-wise minimum over marked cells (None when the
    region is empty, i.e. the attack exceeds the critical size).
    """

    p: float
    x: np.ndarray
    y: np.ndarray
    lhs_a: np.ndarray
    lhs_b: np.ndarray
    stable: np.ndarray
    threshold: float

    @property
    def empty(self) -> bool:
        return not bool(self.stable.any())

    @property
    def minimum(self) -> tuple[float, float] | None:
        if self.empty:
            return None
        marked_x = self.stable.any(axis=1)
        marked_y = self.stable.any(axis=0)
        return (float(self.x[np.argmax(marked_x)]), float(self.y[np.argmax(marked_y)]))


def stable_set_grid(p: float, cfg: SystemConfig,
                    x_max: float | None = None, y_max: float | None = None,
                    resolution: int = DEFAULT_GRID_RESOLUTION) -> StableSetGrid:
    """Evaluate the stability inequalities on a cell-centered grid.

    The default extent is 1.2x the free-space cap, which contains every
    excess load still compatible with survival; on a heavy-tailed load that
    cap is far out, and the cells can be too wide to hold any stable point.
    The surfaces are the joint's ``stability_sides``: exact for the closed-form
    joints, the tolerance factor included; swept over the sample for an
    empirical joint.
    """
    p = _validate_p(p)
    resolution = _validate_int(resolution, "resolution", 2)
    cap = 1.2 * cfg.joint.free_space_cap()
    x_max = cap if x_max is None else _validate_real(x_max, "x_max")
    y_max = cap if y_max is None else _validate_real(y_max, "y_max")
    for name, extent in (("x_max", x_max), ("y_max", y_max)):
        if not (math.isfinite(extent) and extent > 0):
            raise ValueError(f"grid extent {name} must be finite and positive, got {extent}")

    xs = (np.arange(resolution) + 0.5) * (x_max / resolution)
    ys = (np.arange(resolution) + 0.5) * (y_max / resolution)

    lhs_a, lhs_b = cfg.joint.stability_sides(xs, ys, cfg.factors.beta_a,
                                             cfg.factors.beta_b)
    threshold = 1.0 / (1.0 - p)
    stable = (lhs_a >= threshold) & (lhs_b >= threshold)
    return StableSetGrid(p=p, x=xs, y=ys, lhs_a=lhs_a, lhs_b=lhs_b,
                         stable=stable, threshold=threshold)


@dataclass(frozen=True)
class CriticalAttackResult:
    """Bisection estimate of the critical attack size.

    Survival is monotone in p: the stability sides do not depend on p and
    the threshold 1/(1-p) rises with it, so the system survives exactly the
    attacks below p*, which lies in [lower, upper].  ``degenerate`` marks
    systems that collapse even at the smallest probed attack.
    ``nonconverged`` counts the solves cut at ``MAX_ITER``; each still
    decided its step, so a nonzero count means the bracket may be wrong.  It
    is kept out of the repr, which shows the bracket alone.
    """

    p_hat: float
    lower: float
    upper: float
    degenerate: bool = False
    nonconverged: int = field(default=0, repr=False)

    def __float__(self) -> float:
        return self.p_hat


def critical_attack_size(cfg: SystemConfig,
                         tol_p: float = DEFAULT_TOL_P) -> CriticalAttackResult:
    """Largest attack fraction with a positive final size, within tol_p.

    A point is stable at p iff both p-free stability sides reach 1/(1-p),
    which rises with p, so "n_inf(p) > 0" switches off once and a plain
    bisection of [tol_p, 1] finds the switch in 1 + ceil(log2((1-tol_p)/tol_p))
    solves.  tol_p must lie in (0, 0.5); p = 1 itself is never solved.
    """
    tol_p = _validate_real(tol_p, "tol_p")
    if not 0.0 < tol_p < 0.5:
        raise ValueError(f"tol_p must lie strictly in (0, 0.5), got {tol_p}")

    nonconverged = 0

    def alive(p: float) -> bool:
        nonlocal nonconverged
        steady = iterate_to_steady_state(p, cfg)
        nonconverged += not steady.converged
        return steady.n_inf > 0.0

    if not alive(tol_p):
        return CriticalAttackResult(0.0, 0.0, tol_p, degenerate=True,
                                    nonconverged=nonconverged)

    lower, upper = tol_p, 1.0
    while upper - lower > tol_p:
        mid = 0.5 * (lower + upper)
        if alive(mid):
            lower = mid
        else:
            upper = mid
    return CriticalAttackResult(0.5 * (lower + upper), lower, upper,
                                nonconverged=nonconverged)
