"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them live)."""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from multiflow import (
    CrossLayerFactors,
    Dirac,
    EqualFreeSpace,
    EqualToleranceFactor,
    IndependentJoint,
    LayerWeightedEqual,
    Pareto,
    PerLayerEqual,
    SystemConfig,
    Uniform,
    Weibull,
    apply_strategy,
    build_population,
    critical_attack_size,
    final_size,
    iterate_to_steady_state,
    layer_weighted_split,
    monte_carlo_curve,
    optimal_critical_attack,
    per_layer_critical,
    run_cascade,
    run_cascade_naive,
    stable_set_grid,
)
from helpers import (
    detect_discontinuities,
    random_system,
    single_layer_recursion,
    staircase_closed,
)


@contextmanager
def criterion(name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"runtime budget exceeded: {elapsed:.1f}s"


FACTORS_02 = CrossLayerFactors(0.2, 0.2)


def test_criterion_1_no_cascade_reproduction(symmetric_uniform_config):
    # Symmetric uniform system at p = 0.25: the attack sheds exactly 10 load
    # units per survivor and the effective excess of 12.5 stays below every
    # free space, so nothing else fails.
    with criterion("1 no-cascade reproduction", budget_seconds=30.0):
        steady = iterate_to_steady_state(0.25, symmetric_uniform_config)
        assert steady.n_inf == 0.75
        assert steady.iterations == 1
        curve = monte_carlo_curve(symmetric_uniform_config, 100_000, [0.25],
                                  runs=20, seed_base=1001)
        assert curve.mean[0] == pytest.approx(0.75, abs=0.005)


def test_criterion_2_theory_matches_simulation():
    # Mixed uniform/Weibull system swept over four coupling strengths;
    # simulation means at N=1e5 track the analytic curve within 0.02 away
    # from the transition points.
    with criterion("2 theory vs simulation", budget_seconds=600.0):
        p_grid = np.linspace(0.02, 0.98, 50)
        worst = 0.0
        for index, beta in enumerate((0.0, 0.25, 0.5, 1.0)):
            cfg = SystemConfig(
                IndependentJoint(Uniform(10, 30), Uniform(10, 60),
                                 Weibull(10, 10.78, 6), Uniform(20, 100)),
                CrossLayerFactors(beta, beta))
            analytic = np.array([final_size(float(p), cfg) for p in p_grid])
            jumps = detect_discontinuities(cfg, p_grid, analytic)
            keep = np.ones(p_grid.size, dtype=bool)
            for location in jumps:
                keep &= np.abs(p_grid - location) > 0.01
            assert keep.sum() >= 40  # windows must not eat the grid
            curve = monte_carlo_curve(cfg, 100_000, [float(p) for p in p_grid],
                                      runs=20, seed_base=2000 + index)
            gap = float(np.max(np.abs(curve.mean[keep] - analytic[keep])))
            worst = max(worst, gap)
            assert gap <= 0.02, f"beta={beta}: max gap {gap:.4f}"
        print(f"  worst masked gap: {worst:.4f}")


def test_criterion_3_optimal_budget_constants():
    # Budget 720 against total mean load 300 at beta 0.2: the optimum is
    # 720/1080, the weighted Dirac allocation attains it, and below it the
    # final size is exactly the attacked remainder.
    with criterion("3 optimal budget constants"):
        bound = optimal_critical_attack(125.0, 175.0, FACTORS_02, 720.0)
        assert bound == pytest.approx(0.6667, abs=1e-4)
        cfg = apply_strategy(LayerWeightedEqual(720.0), Pareto(100, 5),
                             Uniform(150, 200), FACTORS_02)
        estimate = critical_attack_size(cfg, tol_p=1e-4)
        assert estimate.p_hat == pytest.approx(bound, abs=1e-3)
        for p in (0.1, 0.3, 0.5, 0.65):
            assert final_size(p, cfg) == pytest.approx(1.0 - p, abs=1e-12)
        assert final_size(0.68, cfg) == 0.0


def test_criterion_4_allocation_splits():
    # Closed-form weighted splits for the three load mixes with budget 720.
    # The Pareto/uniform mix has exact rational means; the Weibull scale
    # parameters are two-decimal roundings, which moves their splits by a
    # few parts in 1e4.
    with criterion("4 allocation splits"):
        s_a, s_b = layer_weighted_split(Pareto(100, 5).mean(), Uniform(150, 200).mean(),
                                        FACTORS_02, 720.0)
        assert s_a == pytest.approx(320.0, abs=1e-9)
        assert s_b == pytest.approx(400.0, abs=1e-9)
        s_a, s_b = layer_weighted_split(Weibull(10, 84.25, 0.4).mean(),
                                        Pareto(5, 2).mean(), FACTORS_02, 720.0)
        assert s_a == pytest.approx(584.0, abs=5e-3)
        assert s_b == pytest.approx(136.0, abs=5e-3)
        s_a, s_b = layer_weighted_split(Uniform(80, 100).mean(),
                                        Weibull(10, 225.68, 2).mean(), FACTORS_02, 720.0)
        assert s_a == pytest.approx(264.0, abs=5e-3)
        assert s_b == pytest.approx(456.0, abs=5e-3)
        strategy = EqualToleranceFactor(s_total=720.0)
        alpha = strategy.allocation(125.0, 175.0, FACTORS_02).alpha
        assert alpha == pytest.approx(2.4, rel=1e-12)


def test_criterion_5_dominance_of_weighted_allocation():
    # At every attack size the weighted Dirac allocation does at least as
    # well as equal-free-space and the proportional tolerance factor.
    with criterion("5 dominance of the weighted allocation"):
        p_grid = [float(p) for p in np.linspace(0.02, 0.98, 50)]
        load_pairs = [
            (Weibull(10, 84.25, 0.4), Pareto(5, 2)),
            (Pareto(100, 5), Uniform(150, 200)),
            (Uniform(80, 100), Weibull(10, 225.68, 2)),
        ]
        for load_a, load_b in load_pairs:
            weighted = apply_strategy(LayerWeightedEqual(720.0), load_a, load_b,
                                      FACTORS_02)
            equal = apply_strategy(EqualFreeSpace(720.0), load_a, load_b, FACTORS_02)
            tolerance = apply_strategy(EqualToleranceFactor(s_total=720.0),
                                       load_a, load_b, FACTORS_02)
            for p in p_grid:
                best = final_size(p, weighted)
                assert best >= final_size(p, equal) - 1e-9
                assert best >= final_size(p, tolerance) - 1e-9


def test_criterion_6_oracle_equivalence():
    # The aggregate-excess cascade and the literal per-node bookkeeping
    # produce identical failed sets.
    with criterion("6 oracle equivalence", budget_seconds=120.0):
        rng = np.random.default_rng(3003)
        for count, n in ((100, 200), (10, 2000)):
            for _ in range(count):
                cfg = random_system(rng)
                pop = build_population(cfg, n, seed=int(rng.integers(2 ** 31)))
                p = float(rng.uniform(0.05, 0.9))
                attack_seed = int(rng.integers(2 ** 31))
                fast = run_cascade(pop, p, cfg.factors, attack_seed)
                slow = run_cascade_naive(pop, p, cfg.factors, attack_seed)
                assert np.array_equal(fast.failed, slow.failed)
                assert fast.surviving_fraction == slow.surviving_fraction


def test_criterion_7_stable_set_consistency():
    # The scanned region's element-wise minimum agrees with the recursion
    # limit to one grid cell, and marked cells are closed under pairwise
    # element-wise minima.
    with criterion("7 stable-set consistency"):
        rng = np.random.default_rng(4004)
        checked = 0
        while checked < 10:
            cfg = random_system(rng, free_families=("uniform", "dirac"))
            p_star = critical_attack_size(cfg, tol_p=1e-3)
            if p_star.degenerate or p_star.p_hat < 0.05:
                continue
            p = 0.6 * p_star.p_hat
            steady = iterate_to_steady_state(p, cfg)
            if steady.collapsed:
                continue
            grid = stable_set_grid(p, cfg, resolution=100)
            assert not grid.empty
            cell_x = float(grid.x[1] - grid.x[0])
            cell_y = float(grid.y[1] - grid.y[0])
            minimum = grid.minimum
            assert abs(minimum[0] - steady.x_star) <= cell_x + 1e-9
            assert abs(minimum[1] - steady.y_star) <= cell_y + 1e-9
            assert staircase_closed(grid.stable)
            checked += 1


def test_criterion_8_layer_independent_decoupling():
    # With zero cross-layer factors: a layer whose partner never fails
    # follows the one-layer recursion exactly, and in general the final
    # size factorizes over the per-layer survival probabilities.
    with criterion("8 layer-independent decoupling"):
        free = Uniform(10, 200)
        p = 0.3
        oracle = single_layer_recursion(p, 30.0, free)
        assert len(oracle) > 10
        for flip in (False, True):
            if flip:
                cfg = SystemConfig.from_marginals(Uniform(20, 40), Dirac(1e9),
                                                  Uniform(20, 40), free)
            else:
                cfg = SystemConfig.from_marginals(Uniform(20, 40), free,
                                                  Uniform(20, 40), Dirac(1e9))
            steady = iterate_to_steady_state(p, cfg)
            n_ref, q_ref = oracle[-1]
            assert steady.n_inf == pytest.approx(n_ref, rel=1e-10)
            star = steady.y_star if flip else steady.x_star
            assert star == pytest.approx(q_ref, rel=1e-10)

        rng = np.random.default_rng(5005)
        confirmed = 0
        while confirmed < 5:
            cfg = random_system(rng, beta_max=0.0)
            assert cfg.factors.beta_a == cfg.factors.beta_b == 0.0
            p = float(rng.uniform(0.05, 0.5))
            steady = iterate_to_steady_state(p, cfg)
            if steady.collapsed:
                continue
            product = (1.0 - p) * float(cfg.joint.free_a.survival(steady.x_star)) \
                * float(cfg.joint.free_b.survival(steady.y_star))
            assert steady.n_inf == pytest.approx(product, rel=1e-10)
            confirmed += 1


def test_criterion_9_fixed_per_layer_budgets():
    # Per-layer budgets 200/300 against mean loads 100/150 at beta 0.2:
    # the weaker layer sets the critical size and the Dirac allocation
    # attains it with no failures beyond the attack below it.
    with criterion("9 fixed per-layer budgets"):
        bounds = per_layer_critical(200.0, 300.0, 100.0, 150.0, FACTORS_02)
        assert bounds.p_a == pytest.approx(200.0 / 330.0, abs=1e-12)
        assert bounds.p_b == pytest.approx(300.0 / 470.0, abs=1e-12)
        assert bounds.p_opt == bounds.p_a
        cfg = apply_strategy(PerLayerEqual(200.0, 300.0), Uniform(80, 120),
                             Uniform(100, 200), FACTORS_02)
        estimate = critical_attack_size(cfg, tol_p=1e-4)
        assert estimate.p_hat == pytest.approx(bounds.p_opt, abs=1e-3)
        for p in (0.2, 0.4, 0.6):
            assert final_size(p, cfg) == pytest.approx(1.0 - p, abs=1e-12)
        assert final_size(0.62, cfg) == 0.0
