from __future__ import annotations

import math

import numpy as np
import pytest

from scipy import special

from multiflow import (
    CrossLayerFactors,
    Dirac,
    EmpiricalJoint,
    EqualFreeSpace,
    EqualToleranceFactor,
    LayerWeightedEqual,
    Pareto,
    PerLayerEqual,
    ProportionalJoint,
    SystemConfig,
    Uniform,
    Weibull,
    apply_strategy,
    critical_attack_size,
    layer_weighted_split,
    optimal_critical_attack,
    per_layer_critical,
)
from helpers import random_marginal, random_system, sampled_copy

FACTORS = CrossLayerFactors(0.2, 0.2)

# Load pairs with E[L_A] + E[L_B] = 300 (Weibull scales are rounded to two
# decimals, which shifts their means by a few 1e-3).
LOAD_PAIRS = [
    (Weibull(10, 84.25, 0.4), Pareto(5, 2), (584.0, 136.0)),
    (Pareto(100, 5), Uniform(150, 200), (320.0, 400.0)),
    (Uniform(80, 100), Weibull(10, 225.68, 2), (264.0, 456.0)),
]


class TestLayerWeightedSplit:
    def test_exact_split_for_exact_means(self):
        s_a, s_b = layer_weighted_split(125.0, 175.0, FACTORS, 720.0)
        assert s_a == pytest.approx(320.0, abs=1e-12)
        assert s_b == pytest.approx(400.0, abs=1e-12)

    def test_second_exact_pair(self):
        s_a, s_b = layer_weighted_split(90.0, 210.0, FACTORS, 720.0)
        assert s_a == pytest.approx(264.0, abs=1e-12)
        assert s_b == pytest.approx(456.0, abs=1e-12)

    @pytest.mark.parametrize("load_a,load_b,expected", LOAD_PAIRS)
    def test_published_parameterizations(self, load_a, load_b, expected):
        s_a, s_b = layer_weighted_split(load_a.mean(), load_b.mean(), FACTORS, 720.0)
        assert s_a == pytest.approx(expected[0], abs=5e-3)
        assert s_b == pytest.approx(expected[1], abs=5e-3)

    def test_symmetric_means_split_evenly(self):
        s_a, s_b = layer_weighted_split(150.0, 150.0, CrossLayerFactors(0.3, 0.3), 720.0)
        assert s_a == s_b == 360.0

    def test_budget_is_conserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m_a, m_b = rng.uniform(10, 500, 2)
            factors = CrossLayerFactors(*rng.uniform(0, 1, 2))
            total = float(rng.uniform(1, 2000))
            s_a, s_b = layer_weighted_split(float(m_a), float(m_b), factors, total)
            assert s_a + s_b == pytest.approx(total, rel=1e-12)
            assert s_a > 0 and s_b > 0


class TestOptimalCriticalAttack:
    def test_budget_over_capacity(self):
        assert optimal_critical_attack(125.0, 175.0, FACTORS, 720.0) == pytest.approx(
            720.0 / 1080.0, abs=1e-12)

    def test_single_layer_limit(self):
        # a weightless second layer reduces to budget / (budget + mean load)
        value = optimal_critical_attack(200.0, 1e-9, CrossLayerFactors(0, 0), 300.0)
        assert value == pytest.approx(300.0 / 500.0, rel=1e-9)

    def test_vanishing_budget(self):
        assert optimal_critical_attack(125.0, 175.0, FACTORS, 1e-12) == pytest.approx(
            0.0, abs=1e-12)


class TestPerLayerCritical:
    def test_symmetric(self):
        bounds = per_layer_critical(300.0, 300.0, 150.0, 150.0, CrossLayerFactors(0.3, 0.3))
        assert bounds.p_a == bounds.p_b == bounds.p_opt

    def test_frozen_formulas(self):
        bounds = per_layer_critical(200.0, 300.0, 100.0, 150.0, FACTORS)
        assert bounds.p_a == pytest.approx(200.0 / 330.0, abs=1e-12)
        assert bounds.p_b == pytest.approx(300.0 / 470.0, abs=1e-12)
        assert bounds.p_opt == bounds.p_a

    def test_weighted_split_balances_the_layers(self):
        # giving each layer its weighted share makes both bounds equal the
        # budget-optimal value
        m_a, m_b, total = 125.0, 175.0, 720.0
        mu_a, mu_b = layer_weighted_split(m_a, m_b, FACTORS, total)
        bounds = per_layer_critical(mu_a, mu_b, m_a, m_b, FACTORS)
        target = optimal_critical_attack(m_a, m_b, FACTORS, total)
        assert bounds.p_a == pytest.approx(target, rel=1e-12)
        assert bounds.p_b == pytest.approx(target, rel=1e-12)

    def test_vanishing_layer_budget(self):
        bounds = per_layer_critical(1e-9, 300.0, 100.0, 150.0, FACTORS)
        assert bounds.p_a == pytest.approx(0.0, abs=1e-9)
        assert bounds.p_opt == bounds.p_a


class TestApplyStrategy:
    def test_layer_weighted_produces_dirac_allocations(self):
        cfg = apply_strategy(LayerWeightedEqual(720.0), Weibull(10, 84.25, 0.4),
                             Pareto(5, 2), FACTORS)
        assert isinstance(cfg.joint.free_a, Dirac)
        assert cfg.joint.free_a.value == pytest.approx(584.0, abs=5e-3)
        assert cfg.joint.free_b.value == pytest.approx(136.0, abs=5e-3)

    def test_equal_free_space_halves_the_budget(self):
        cfg = apply_strategy(EqualFreeSpace(720.0), Pareto(100, 5), Uniform(150, 200),
                             FACTORS)
        assert cfg.joint.free_a == Dirac(360.0)
        assert cfg.joint.free_b == Dirac(360.0)

    def test_tolerance_factor_alpha_from_budget(self):
        cfg = apply_strategy(EqualToleranceFactor(s_total=720.0), Pareto(100, 5),
                             Uniform(150, 200), FACTORS)
        assert isinstance(cfg.joint, ProportionalJoint)
        assert cfg.joint.alpha == pytest.approx(2.4, rel=1e-12)

    def test_tolerance_factor_explicit_alpha(self):
        cfg = apply_strategy(EqualToleranceFactor(alpha=1.5), Uniform(20, 40),
                             Uniform(20, 40), FACTORS)
        assert cfg.joint.alpha == 1.5

    def test_per_layer_equal(self):
        cfg = apply_strategy(PerLayerEqual(200.0, 300.0), Uniform(80, 120),
                             Uniform(100, 200), FACTORS)
        assert cfg.joint.free_a == Dirac(200.0)
        assert cfg.joint.free_b == Dirac(300.0)

    @pytest.mark.parametrize("strategy", [
        LayerWeightedEqual(720.0),
        EqualFreeSpace(720.0),
        EqualToleranceFactor(s_total=720.0),
    ], ids=lambda s: type(s).__name__)
    def test_budget_conservation(self, strategy):
        cfg = apply_strategy(strategy, Pareto(100, 5), Uniform(150, 200), FACTORS)
        total = sum(cfg.joint.mean_frees)
        assert total == pytest.approx(720.0, rel=1e-12)


class TestDistributionIndependence:
    def test_weighted_allocation_depends_only_on_means(self):
        from multiflow import final_size

        # same means (125, 175) from different families
        pairs = [
            (Pareto(100, 5), Uniform(150, 200)),
            (Uniform(100, 150), Dirac(175)),
            (Dirac(125), Weibull(25, 150.0 / math.gamma(1.5), 2)),
        ]
        for load_a, load_b in pairs:
            assert load_a.mean() == pytest.approx(125.0, rel=1e-10)
            assert load_b.mean() == pytest.approx(175.0, rel=1e-10)
        configs = [apply_strategy(LayerWeightedEqual(720.0), la, lb, FACTORS)
                   for la, lb in pairs]
        for cfg in configs:
            assert cfg.joint.free_a.value == pytest.approx(320.0, rel=1e-9)
            assert cfg.joint.free_b.value == pytest.approx(400.0, rel=1e-9)
        # identical robustness curves, including right below the optimum
        for p in (0.1, 0.4, 0.6, 0.66, 0.7, 0.9):
            values = [final_size(p, cfg) for cfg in configs]
            assert max(values) - min(values) <= 1e-12
            assert values[0] == (1 - p if p < 2 / 3 else 0.0)

    def test_tolerance_factor_critical_strictly_below_optimal(self):
        from multiflow import critical_attack_size

        cfg = apply_strategy(EqualToleranceFactor(s_total=720.0),
                             Weibull(10, 84.25, 0.4), Pareto(5, 2), FACTORS)
        bound = optimal_critical_attack(*cfg.joint.mean_loads, FACTORS, 720.0)
        estimate = critical_attack_size(cfg, tol_p=1e-3)
        assert estimate.p_hat < bound - 1e-2


class TestStrategyValidation:
    def test_tolerance_factor_needs_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            EqualToleranceFactor()
        with pytest.raises(ValueError):
            EqualToleranceFactor(alpha=2.0, s_total=720.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            LayerWeightedEqual(0.0)
        with pytest.raises(ValueError):
            EqualFreeSpace(-10.0)
        with pytest.raises(ValueError):
            PerLayerEqual(0.0, 10.0)
        with pytest.raises(ValueError):
            EqualToleranceFactor(alpha=-1.0)

    @pytest.mark.parametrize("budget", [np.int64(700), np.float32(700)],
                             ids=["int64", "float32"])
    def test_numpy_scalar_budgets_are_accepted(self, budget):
        reference = LayerWeightedEqual(700.0).allocation(125.0, 175.0, FACTORS)[:2]
        split = LayerWeightedEqual(budget).allocation(125.0, 175.0, FACTORS)[:2]
        assert split == reference == layer_weighted_split(125.0, 175.0, FACTORS, 700.0)
        assert all(type(v) is float for v in split)
        assert EqualFreeSpace(budget) == EqualFreeSpace(700.0)
        assert PerLayerEqual(budget, budget) == PerLayerEqual(700.0, 700.0)
        assert EqualToleranceFactor(s_total=budget).s_total == 700.0

    @pytest.mark.parametrize("make, field", [
        (lambda: LayerWeightedEqual(True), "s_total"),
        (lambda: EqualFreeSpace(True), "s_total"),
        (lambda: EqualToleranceFactor(alpha=True), "alpha"),
        (lambda: PerLayerEqual(10.0, True), "mu_b"),
        (lambda: LayerWeightedEqual(np.bool_(True)), "s_total"),
    ], ids=["layer_weighted", "equal_free_space", "tolerance_alpha", "per_layer",
            "numpy_bool"])
    def test_bool_is_not_a_number(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got bool$"):
            make()

    # Each formula with one number left open, and the name of that argument.
    FORMULAS = {
        "split_load": (lambda v: layer_weighted_split(v, 175.0, FACTORS, 700.0), "mean_load_a"),
        "split_budget": (lambda v: layer_weighted_split(125.0, 175.0, FACTORS, v), "s_total"),
        "bound_load": (lambda v: optimal_critical_attack(v, 175.0, FACTORS, 720.0), "mean_load_a"),
        "bound_budget": (lambda v: optimal_critical_attack(125.0, 175.0, FACTORS, v), "s_total"),
        "per_layer_mu": (lambda v: per_layer_critical(v, 360.0, 125.0, 175.0, FACTORS), "mu_a"),
        "per_layer_load": (lambda v: per_layer_critical(360.0, 360.0, v, 175.0, FACTORS),
                           "mean_load_a"),
        "predicted_weighted": (lambda v: LayerWeightedEqual(720.0).allocation(
            v, 175.0, FACTORS).critical, "mean_load_a"),
        "predicted_per_layer": (lambda v: EqualFreeSpace(720.0).allocation(
            v, 175.0, FACTORS).critical, "mean_load_a"),
        "predicted_fixed_means": (lambda v: PerLayerEqual(300.0, 420.0).allocation(
            v, 175.0, FACTORS).critical, "mean_load_a"),
        "dirac_weighted": (lambda v: LayerWeightedEqual(720.0).allocation(
            v, 175.0, FACTORS)[:2], "mean_load_a"),
        "alpha_from_budget": (lambda v: EqualToleranceFactor(s_total=720.0).allocation(
            v, 175.0, FACTORS).alpha, "mean_load_a"),
        "given_alpha": (lambda v: EqualToleranceFactor(alpha=2.4).allocation(
            125.0, v, FACTORS).alpha, "mean_load_b"),
    }

    @pytest.mark.parametrize("value", [np.float32(30.1), np.int64(30)], ids=repr)
    @pytest.mark.parametrize("formula", sorted(FORMULAS))
    def test_numpy_scalar_arguments_compute_as_floats(self, formula, value):
        call, _ = self.FORMULAS[formula]
        result = call(value)
        assert result == call(float(value))
        assert all(type(v) is float for v in (result if isinstance(result, tuple) else [result]))

    @pytest.mark.parametrize("value", [True, 0.0, -1.0, math.nan], ids=repr)
    @pytest.mark.parametrize("formula", sorted(FORMULAS))
    def test_bad_arguments_are_refused_by_name(self, formula, value):
        call, name = self.FORMULAS[formula]
        message = ("a real number, got bool" if value is True
                   else f"a positive finite number, got {value}")
        with pytest.raises(ValueError, match=f"^{name} must be {message}$"):
            call(value)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(TypeError, match="unknown allocation strategy"):
            apply_strategy(object(), Pareto(100, 5), Uniform(150, 200), FACTORS)


class TestPredictedCritical:
    def test_layer_weighted(self):
        value = LayerWeightedEqual(720.0).allocation(125.0, 175.0, FACTORS).critical
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("strategy, free", [
        (EqualFreeSpace(720.0), (360.0, 360.0)),
        (PerLayerEqual(200.0, 520.0), (200.0, 520.0)),
    ], ids=["equal_free_space", "per_layer_equal"])
    def test_dirac_strategies_use_per_layer_bounds(self, strategy, free):
        allocation = strategy.allocation(125.0, 175.0, FACTORS)
        assert allocation[:3] == (*free, None)
        expected = per_layer_critical(*free, 125.0, 175.0, FACTORS).p_opt
        assert allocation.critical == expected
        assert allocation.critical < 2.0 / 3.0

    @pytest.mark.parametrize("strategy", [EqualToleranceFactor(alpha=2.4),
                                          EqualToleranceFactor(s_total=720.0)],
                             ids=["alpha", "budget"])
    def test_tolerance_factor_has_no_closed_form(self, strategy):
        # a budget of 720 over mean loads 125 + 175 is alpha = 2.4
        assert strategy.allocation(125.0, 175.0, FACTORS) == (None, None, 2.4, None)


class TestAsymmetricBeta:
    """The allocation results where a swapped beta_a/beta_b would show.

    With beta_a != beta_b the two layers' effective loads differ, so the
    layer-weighted split, the budget bound and the per-layer bounds each
    read the two factors in one order only.  A Dirac allocation's p* lies
    exactly on the strict-survival boundary, so the solver's bracket is
    compared with the closed form, never p_hat.
    """

    @staticmethod
    def _asymmetric_systems(seed: int, count: int):
        rng = np.random.default_rng(seed)
        systems = [random_system(rng) for _ in range(count)]
        assert all(abs(cfg.factors.beta_a - cfg.factors.beta_b) > 1e-6 for cfg in systems)
        assert any(cfg.factors.beta_a > cfg.factors.beta_b for cfg in systems)
        assert any(cfg.factors.beta_a < cfg.factors.beta_b for cfg in systems)
        return systems

    def test_weighted_allocation_reaches_the_budget_bound(self):
        for cfg in self._asymmetric_systems(seed=11, count=50):
            joint = cfg.joint
            budget = sum(joint.mean_frees)
            allocated = apply_strategy(LayerWeightedEqual(budget), joint.load_a,
                                       joint.load_b, cfg.factors)
            bound = optimal_critical_attack(*joint.mean_loads, cfg.factors, budget)
            result = critical_attack_size(allocated)
            assert result.lower <= bound <= result.upper, cfg.factors

    def test_per_layer_bounds_match_the_solver(self):
        rng = np.random.default_rng(12)
        for cfg in self._asymmetric_systems(seed=13, count=30):
            joint = cfg.joint
            mu_a, mu_b = rng.uniform(20.0, 200.0, 2)
            bounds = per_layer_critical(mu_a, mu_b, *joint.mean_loads, cfg.factors)
            allocated = apply_strategy(PerLayerEqual(mu_a, mu_b), joint.load_a,
                                       joint.load_b, cfg.factors)
            result = critical_attack_size(allocated)
            assert result.lower <= bounds.p_opt <= result.upper, (mu_a, mu_b, cfg.factors)


class TestBudgetBound:
    """No allocation beats the budget bound: the solver's lower end of the
    critical attack size never exceeds optimal_critical_attack at the
    system's own total mean free space, whatever the joint."""

    @staticmethod
    def _gap(cfg) -> float:
        joint = cfg.joint
        bound = optimal_critical_attack(*joint.mean_loads, cfg.factors, sum(joint.mean_frees))
        return critical_attack_size(cfg).lower - bound

    def test_independent_joints(self):
        rng = np.random.default_rng(21)
        gaps = [self._gap(random_system(rng)) for _ in range(300)]
        assert max(gaps) <= 0.0

    def test_tolerance_factor_joints(self):
        rng = np.random.default_rng(22)
        gaps = []
        for _ in range(10):
            base = random_system(rng)
            budget = float(rng.uniform(0.5, 4.0)) * sum(base.joint.mean_loads)
            cfg = apply_strategy(EqualToleranceFactor(s_total=budget), base.joint.load_a,
                                 base.joint.load_b, base.factors)
            assert sum(cfg.joint.mean_frees) == pytest.approx(budget)
            gaps.append(self._gap(cfg))
        assert max(gaps) <= 0.0

    def test_sample_backed_joints(self):
        rng = np.random.default_rng(23)
        gaps = [self._gap(sampled_copy(random_system(rng), m=100_000,
                                       seed=int(rng.integers(2 ** 31))))
                for _ in range(10)]
        assert max(gaps) <= 0.0

    def test_correlated_sample_joints(self):
        # Gaussian copula: correlated normals mapped through the normal CDF
        # and each column's marginal quantile, so loads and free spaces
        # correlate within and across the layers.
        rng = np.random.default_rng(25)
        m = 100_000
        gaps = []
        for _ in range(10):
            root = rng.normal(size=(4, 4))
            cov = root @ root.T
            scale = 1.0 / np.sqrt(np.diag(cov))
            corr = cov * np.outer(scale, scale)
            normals = rng.standard_normal((m, 4)) @ np.linalg.cholesky(corr).T
            loads = ("uniform", "pareto", "weibull")
            marginals = [random_marginal(rng, 30.0, loads), random_marginal(rng, 80.0),
                         random_marginal(rng, 30.0, loads), random_marginal(rng, 80.0)]
            samples = np.column_stack([marginal.quantile(special.ndtr(normals[:, j]))
                                       for j, marginal in enumerate(marginals)])
            factors = CrossLayerFactors(*(float(b) for b in rng.uniform(0.0, 0.6, 2)))
            gaps.append(self._gap(SystemConfig(EmpiricalJoint(samples), factors)))
        assert max(gaps) <= 0.0
