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

Each strategy states its rule in its ``allocation`` method: an
``Allocation`` record of the per-layer Dirac free spaces, or the tolerance
factor, and the closed-form critical attack size (None for the tolerance
factor).  ``apply_strategy`` and ``cli optimize`` read only that record.

Dirac allocations sit exactly at the survival boundary at their critical
attack size, so they are meant to be evaluated strictly below it (the
strict-survival convention drops the mass at equality).

Every number a strategy or formula takes must be finite and positive, and it
is used as the Python float that check returns: a numpy scalar computes in
double precision as the equal float does, and each result is a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .distributions import (
    Dirac,
    IndependentJoint,
    MarginalDistribution,
    ProportionalJoint,
    _positive,
)
from .meanfield import CrossLayerFactors, SystemConfig


class Allocation(NamedTuple):
    """What a strategy allocates for given mean loads and factors: each
    layer's Dirac free space, or else the tolerance factor alpha, and the
    closed-form critical attack size (None for the tolerance factor)."""

    s_a: float | None
    s_b: float | None
    alpha: float | None
    critical: float | None


@dataclass(frozen=True)
class _Budget:
    """A strategy given by its total free-space budget."""

    s_total: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_total", _positive(self.s_total, "s_total"))


class LayerWeightedEqual(_Budget):
    """Budget split by mean effective load, uniform within each layer."""

    def allocation(self, mean_load_a: float, mean_load_b: float,
                   factors: CrossLayerFactors) -> Allocation:
        s_a, s_b = layer_weighted_split(mean_load_a, mean_load_b, factors, self.s_total)
        return Allocation(s_a, s_b, None, optimal_critical_attack(
            mean_load_a, mean_load_b, factors, self.s_total))


class EqualFreeSpace(_Budget):
    """Half the budget to each layer, uniform within each layer."""

    def allocation(self, mean_load_a: float, mean_load_b: float,
                   factors: CrossLayerFactors) -> Allocation:
        half = 0.5 * self.s_total
        return PerLayerEqual(half, half).allocation(mean_load_a, mean_load_b, factors)


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
        name = "alpha" if self.alpha is not None else "s_total"
        object.__setattr__(self, name, _positive(getattr(self, name), name))

    def allocation(self, mean_load_a: float, mean_load_b: float,
                   factors: CrossLayerFactors) -> Allocation:
        total = _positive(mean_load_a, "mean_load_a") + _positive(mean_load_b, "mean_load_b")
        alpha = self.alpha if self.alpha is not None else self.s_total / total
        return Allocation(None, None, alpha, None)


@dataclass(frozen=True)
class PerLayerEqual:
    """Fixed per-layer free-space means, uniform within each layer."""

    mu_a: float
    mu_b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_a", _positive(self.mu_a, "mu_a"))
        object.__setattr__(self, "mu_b", _positive(self.mu_b, "mu_b"))

    def allocation(self, mean_load_a: float, mean_load_b: float,
                   factors: CrossLayerFactors) -> Allocation:
        bounds = per_layer_critical(self.mu_a, self.mu_b, mean_load_a, mean_load_b, factors)
        return Allocation(self.mu_a, self.mu_b, None, bounds.p_opt)


AllocationStrategy = Union[LayerWeightedEqual, EqualFreeSpace, EqualToleranceFactor, PerLayerEqual]


def layer_weighted_split(mean_load_a: float, mean_load_b: float,
                         factors: CrossLayerFactors, s_total: float) -> tuple[float, float]:
    """Budget split proportional to the mean effective loads.

    Layer A receives s_total * (E[L_A] + beta_b E[L_B]) /
    ((1 + beta_a) E[L_A] + (1 + beta_b) E[L_B]); layer B the remainder.
    """
    mean_load_a = _positive(mean_load_a, "mean_load_a")
    mean_load_b = _positive(mean_load_b, "mean_load_b")
    s_total = _positive(s_total, "s_total")
    weight_a = mean_load_a + factors.beta_b * mean_load_b
    total = (1.0 + factors.beta_a) * mean_load_a + (1.0 + factors.beta_b) * mean_load_b
    s_a = s_total * weight_a / total
    return s_a, s_total - s_a


def optimal_critical_attack(mean_load_a: float, mean_load_b: float,
                            factors: CrossLayerFactors, s_total: float) -> float:
    """Largest critical attack size attainable under a total free-space budget."""
    mean_load_a = _positive(mean_load_a, "mean_load_a")
    mean_load_b = _positive(mean_load_b, "mean_load_b")
    s_total = _positive(s_total, "s_total")
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
    mu_a, mu_b = _positive(mu_a, "mu_a"), _positive(mu_b, "mu_b")
    mean_load_a = _positive(mean_load_a, "mean_load_a")
    mean_load_b = _positive(mean_load_b, "mean_load_b")
    p_a = mu_a / (mu_a + mean_load_a + factors.beta_b * mean_load_b)
    p_b = mu_b / (mu_b + mean_load_b + factors.beta_a * mean_load_a)
    return PerLayerBounds(p_a, p_b, min(p_a, p_b))


def apply_strategy(strategy: AllocationStrategy,
                   load_a: MarginalDistribution, load_b: MarginalDistribution,
                   factors: CrossLayerFactors) -> SystemConfig:
    """Build the full system configuration realized by an allocation strategy.

    The tolerance-factor strategy couples free space to load per node, so its
    configuration carries a proportional joint, exact in every analytic
    query and in its populations.
    """
    if not isinstance(strategy, AllocationStrategy):
        raise TypeError(f"unknown allocation strategy: {strategy!r}")
    allocation = strategy.allocation(load_a.mean(), load_b.mean(), factors)
    if allocation.alpha is not None:
        joint = ProportionalJoint(load_a, load_b, allocation.alpha)
    else:
        joint = IndependentJoint(load_a, Dirac(allocation.s_a), load_b, Dirac(allocation.s_b))
    return SystemConfig(joint, factors)
