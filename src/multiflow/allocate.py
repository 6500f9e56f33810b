"""Free-space allocation strategies and their critical-attack-size formulas.

Given the load marginals, the cross-layer factors, and a free-space budget,
each strategy produces a full system configuration:

* layer-weighted equal free space -- split the budget across layers in
  proportion to the mean effective loads, then give every node in a layer
  the same (Dirac) free space.  This is the robustness-optimal allocation:
  it attains the largest possible critical attack size for the budget and
  keeps the final size at 1 - p below it.
* equal free space -- half the budget to each layer, Dirac within layers.
* equal tolerance factor -- per-node proportional coupling S = alpha * L;
  alpha defaults to budget / total mean load.
* per-layer equal -- fixed per-layer means, Dirac at those means; optimal
  when the per-layer budgets (rather than their sum) are the constraint.

Dirac allocations sit exactly at the survival boundary at their critical
attack size, so they are meant to be evaluated strictly below it (the
strict-survival convention drops the mass at equality).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Union

from .distributions import (
    Dirac,
    IndependentJoint,
    MarginalDistribution,
    ProportionalJoint,
)
from .meanfield import CrossLayerFactors, SystemConfig


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value}")


def _store_positive(strategy, *names: str) -> None:
    """Check the named fields of a frozen strategy and store them as floats,
    so a numpy scalar budget computes in double precision as a float does."""
    values = {name: getattr(strategy, name) for name in names}
    _require_positive(**values)
    for name, value in values.items():
        object.__setattr__(strategy, name, float(value))


@dataclass(frozen=True)
class LayerWeightedEqual:
    """Budget split by mean effective load, uniform within each layer."""

    s_total: float

    def __post_init__(self) -> None:
        _store_positive(self, "s_total")


@dataclass(frozen=True)
class EqualFreeSpace:
    """Half the budget to each layer, uniform within each layer."""

    s_total: float

    def __post_init__(self) -> None:
        _store_positive(self, "s_total")


@dataclass(frozen=True)
class EqualToleranceFactor:
    """Per-node free space proportional to load: S = alpha * L.

    Exactly one of ``alpha`` or ``s_total`` must be given; with a budget,
    alpha = s_total / (E[L_A] + E[L_B]).
    """

    alpha: float | None = None
    s_total: float | None = None

    def __post_init__(self) -> None:
        if (self.alpha is None) == (self.s_total is None):
            raise ValueError("specify exactly one of alpha or s_total")
        _store_positive(self, "alpha" if self.alpha is not None else "s_total")

    def resolve_alpha(self, mean_load_a: float, mean_load_b: float) -> float:
        if self.alpha is not None:
            return self.alpha
        return self.s_total / (mean_load_a + mean_load_b)


@dataclass(frozen=True)
class PerLayerEqual:
    """Fixed per-layer free-space means, uniform within each layer."""

    mu_a: float
    mu_b: float

    def __post_init__(self) -> None:
        _store_positive(self, "mu_a", "mu_b")


AllocationStrategy = Union[LayerWeightedEqual, EqualFreeSpace, EqualToleranceFactor, PerLayerEqual]


def layer_weighted_split(mean_load_a: float, mean_load_b: float,
                         factors: CrossLayerFactors, s_total: float) -> tuple[float, float]:
    """Budget split proportional to the mean effective loads.

    Layer A receives s_total * (E[L_A] + beta_b E[L_B]) /
    ((1 + beta_a) E[L_A] + (1 + beta_b) E[L_B]); layer B the remainder.
    """
    _require_positive(mean_load_a=mean_load_a, mean_load_b=mean_load_b, s_total=s_total)
    weight_a = mean_load_a + factors.beta_b * mean_load_b
    total = (1.0 + factors.beta_a) * mean_load_a + (1.0 + factors.beta_b) * mean_load_b
    s_a = s_total * weight_a / total
    return s_a, s_total - s_a


def optimal_critical_attack(mean_load_a: float, mean_load_b: float,
                            factors: CrossLayerFactors, s_total: float) -> float:
    """Largest critical attack size attainable under a total free-space budget."""
    _require_positive(mean_load_a=mean_load_a, mean_load_b=mean_load_b, s_total=s_total)
    effective_load = ((1.0 + factors.beta_a) * mean_load_a
                      + (1.0 + factors.beta_b) * mean_load_b)
    return s_total / (s_total + effective_load)


class PerLayerBounds(NamedTuple):
    """Per-layer critical attack bounds and their minimum."""

    p_a: float
    p_b: float
    p_opt: float


def per_layer_critical(mu_a: float, mu_b: float, mean_load_a: float, mean_load_b: float,
                       factors: CrossLayerFactors) -> PerLayerBounds:
    """Critical-attack bounds with fixed per-layer free-space means.

    p_A = mu_A / (mu_A + E[L_A] + beta_b E[L_B]) and symmetrically for B;
    the multiplex system is capped by its weaker layer.
    """
    _require_positive(mu_a=mu_a, mu_b=mu_b,
                      mean_load_a=mean_load_a, mean_load_b=mean_load_b)
    p_a = mu_a / (mu_a + mean_load_a + factors.beta_b * mean_load_b)
    p_b = mu_b / (mu_b + mean_load_b + factors.beta_a * mean_load_a)
    return PerLayerBounds(p_a, p_b, min(p_a, p_b))


def dirac_free_space(strategy: AllocationStrategy,
                     mean_load_a: float, mean_load_b: float,
                     factors: CrossLayerFactors) -> tuple[float, float] | None:
    """Per-layer Dirac free space (s_A, s_B) of a strategy; None for the tolerance factor."""
    if isinstance(strategy, LayerWeightedEqual):
        return layer_weighted_split(mean_load_a, mean_load_b, factors, strategy.s_total)
    if isinstance(strategy, EqualFreeSpace):
        half = 0.5 * strategy.s_total
        return half, half
    if isinstance(strategy, PerLayerEqual):
        return strategy.mu_a, strategy.mu_b
    if isinstance(strategy, EqualToleranceFactor):
        return None
    raise TypeError(f"unknown allocation strategy: {strategy!r}")


def apply_strategy(strategy: AllocationStrategy,
                   load_a: MarginalDistribution, load_b: MarginalDistribution,
                   factors: CrossLayerFactors) -> SystemConfig:
    """Build the full system configuration realized by an allocation strategy.

    The tolerance-factor strategy couples free space to load per node, so its
    configuration carries a proportional joint, exact in every analytic
    query and in its populations.
    """
    mean_a = load_a.mean()
    mean_b = load_b.mean()
    free = dirac_free_space(strategy, mean_a, mean_b, factors)
    if free is None:
        joint = ProportionalJoint(load_a, load_b, strategy.resolve_alpha(mean_a, mean_b))
    else:
        joint = IndependentJoint(load_a, Dirac(free[0]), load_b, Dirac(free[1]))
    return SystemConfig(joint, factors)


def predicted_critical(strategy: AllocationStrategy,
                       mean_load_a: float, mean_load_b: float,
                       factors: CrossLayerFactors) -> float | None:
    """Closed-form critical attack size of a strategy, if one exists.

    Dirac allocations hit their per-layer bounds exactly; the tolerance
    factor has no closed form (returns None, use the bisection search).
    """
    if isinstance(strategy, LayerWeightedEqual):
        return optimal_critical_attack(mean_load_a, mean_load_b, factors, strategy.s_total)
    free = dirac_free_space(strategy, mean_load_a, mean_load_b, factors)
    if free is None:
        return None
    return per_layer_critical(*free, mean_load_a, mean_load_b, factors).p_opt
