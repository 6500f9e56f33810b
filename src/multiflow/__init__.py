"""Cascading failures in two-layer multiplex flow networks.

Monte Carlo simulation under global load redistribution, a mean-field
solver for the final system size, critical-attack-size search, and
free-space allocation strategies.
"""

from .allocate import (
    AllocationStrategy,
    EqualFreeSpace,
    EqualToleranceFactor,
    LayerWeightedEqual,
    PerLayerBounds,
    PerLayerEqual,
    apply_strategy,
    layer_weighted_split,
    optimal_critical_attack,
    per_layer_critical,
)
from .config import ConfigError, ExperimentSpec, SimParams, load_experiment, parse_experiment
from .distributions import (
    Dirac,
    EmpiricalJoint,
    IndependentJoint,
    JointLoadSpace,
    MarginalDistribution,
    Pareto,
    ProportionalJoint,
    SurvivalStats,
    Uniform,
    Weibull,
)
from .meanfield import (
    CriticalAttackResult,
    CrossLayerFactors,
    StableSetGrid,
    SteadyState,
    SystemConfig,
    critical_attack_size,
    final_size,
    iterate_to_steady_state,
    stable_set_grid,
)
from .simulate import (
    CascadeOutcome,
    Population,
    RobustnessCurve,
    TrajectoryPoint,
    build_population,
    monte_carlo_curve,
    run_cascade,
    run_cascade_naive,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationStrategy",
    "CascadeOutcome",
    "ConfigError",
    "CriticalAttackResult",
    "CrossLayerFactors",
    "Dirac",
    "EmpiricalJoint",
    "EqualFreeSpace",
    "EqualToleranceFactor",
    "ExperimentSpec",
    "IndependentJoint",
    "JointLoadSpace",
    "LayerWeightedEqual",
    "MarginalDistribution",
    "Pareto",
    "PerLayerBounds",
    "PerLayerEqual",
    "Population",
    "ProportionalJoint",
    "RobustnessCurve",
    "SimParams",
    "StableSetGrid",
    "SteadyState",
    "SurvivalStats",
    "SystemConfig",
    "TrajectoryPoint",
    "Uniform",
    "Weibull",
    "apply_strategy",
    "build_population",
    "critical_attack_size",
    "final_size",
    "iterate_to_steady_state",
    "layer_weighted_split",
    "load_experiment",
    "monte_carlo_curve",
    "optimal_critical_attack",
    "parse_experiment",
    "per_layer_critical",
    "run_cascade",
    "run_cascade_naive",
    "stable_set_grid",
]
