from __future__ import annotations

import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from multiflow import (
    CrossLayerFactors,
    Dirac,
    IndependentJoint,
    Pareto,
    ProportionalJoint,
    SystemConfig,
    Uniform,
    Weibull,
    build_population,
    critical_attack_size,
    final_size,
    monte_carlo_curve,
    run_cascade,
    run_cascade_naive,
    simulate,
)
from multiflow.cli import _resolve_config_path
from multiflow.config import load_experiment
from multiflow.simulate import MASKED_ROUNDS, MAX_TRAJECTORY_ROUNDS, Population
from helpers import collapse_point, random_marginal, random_system, relabelled, sampled_copy


def assert_matches_naive(pop, p, factors, attack_seed):
    """The fast cascade fails the same nodes in the same rounds as the oracle."""
    fast = run_cascade(pop, p, factors, attack_seed)
    slow = run_cascade_naive(pop, p, factors, attack_seed)
    assert np.array_equal(fast.failed, slow.failed)
    assert fast.rounds == slow.rounds
    assert fast.surviving_fraction == slow.surviving_fraction
    return fast


def round_one_threshold(p: float, n: int) -> float:
    """Round-1 threshold of a unit-load population at beta = 1/2."""
    attacked = math.floor(p * n + 0.5)
    q = attacked / (n - attacked)
    assert q == int(q)
    return q + 0.5 * q


def copy_of(pop: Population) -> Population:
    return Population(pop.load_a.copy(), pop.free_a.copy(), pop.load_b.copy(),
                      pop.free_b.copy())


class TestBuildPopulation:
    def test_dirac_marginals_give_constant_arrays(self):
        cfg = SystemConfig.from_marginals(Dirac(30), Dirac(50), Dirac(20), Dirac(40))
        pop = build_population(cfg, 500, seed=1)
        assert np.all(pop.load_a == 30.0) and np.all(pop.free_a == 50.0)
        assert np.all(pop.load_b == 20.0) and np.all(pop.free_b == 40.0)

    def test_law_of_large_numbers(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 1_000_000, seed=2)
        assert pop.load_a.mean() == pytest.approx(30.0, abs=0.02)
        assert pop.free_b.mean() == pytest.approx(50.0, abs=0.05)

    def test_same_seed_is_bit_identical(self, symmetric_uniform_config):
        a = build_population(symmetric_uniform_config, 10_000, seed=42)
        b = build_population(symmetric_uniform_config, 10_000, seed=42)
        for x, y in ((a.load_a, b.load_a), (a.free_a, b.free_a),
                     (a.load_b, b.load_b), (a.free_b, b.free_b)):
            assert np.array_equal(x, y)

    def test_rejects_empty(self, symmetric_uniform_config):
        with pytest.raises(ValueError):
            build_population(symmetric_uniform_config, 0, seed=1)

    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac", "coupled"])
    @pytest.mark.parametrize("n", [1, 2, 1025, 100_000])
    def test_free_order_is_argsort(self, family, n):
        rng = np.random.default_rng(n)
        if family == "coupled":
            joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        else:
            joint = IndependentJoint(*(random_marginal(rng, families=(family,)) for _ in range(4)))
        pop = build_population(SystemConfig(joint, CrossLayerFactors(0.2, 0.2)), n, seed=7)
        for (order, ordered), free in zip(pop.free_order, (pop.free_a, pop.free_b)):
            expected = np.argsort(free)
            assert order.dtype == np.intp and np.array_equal(order, expected)
            assert ordered.tobytes() == free[expected].tobytes()


class TestRunCascade:
    def test_no_cascade_beyond_attack(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 100_000, seed=3)
        outcome = run_cascade(pop, 0.25, symmetric_uniform_config.factors, attack_seed=4)
        assert outcome.surviving_fraction == 0.75
        assert outcome.rounds == 1
        assert outcome.trajectory[0] == (0, 0.75, pytest.approx(10.0, rel=5e-3),
                                         pytest.approx(10.0, rel=5e-3))

    def test_list_columns_cascade_like_arrays(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 2000, seed=3)
        columns = (pop.load_a, pop.free_a, pop.load_b, pop.free_b)
        listed = Population(*(c.tolist() for c in columns))
        assert all(isinstance(c, np.ndarray) for c in
                   (listed.load_a, listed.free_a, listed.load_b, listed.free_b))
        factors = symmetric_uniform_config.factors
        for p in (0.25, 0.45):
            got = run_cascade(listed, p, factors, attack_seed=4)
            want = run_cascade(pop, p, factors, attack_seed=4)
            assert got.trajectory == want.trajectory
            assert np.array_equal(got.failed, want.failed)
        constant = Population([30.0] * 10, [50.0] * 10, [30.0] * 10, [50.0] * 10)
        assert run_cascade(constant, 0.2, factors, attack_seed=1).surviving_fraction == 0.8

    def test_float_array_columns_are_not_copied(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 100, seed=3)
        same = Population(pop.load_a, pop.free_a, pop.load_b, pop.free_b)
        assert same.load_a is pop.load_a and same.free_b is pop.free_b

    @pytest.mark.parametrize("column, value, message", [
        ("free_a", np.full((10, 1), 50.0), "1-D"),
        ("load_b", 30.0, "1-D"),
        ("free_b", ["fifty"] * 10, "numeric"),
    ])
    def test_bad_columns_name_the_field(self, column, value, message):
        columns = {"load_a": [30.0] * 10, "free_a": [50.0] * 10,
                   "load_b": [30.0] * 10, "free_b": [50.0] * 10, column: value}
        with pytest.raises(ValueError, match=rf"population {column} must be {message}"):
            Population(**columns)

    @pytest.mark.parametrize("column", ["load_a", "free_a", "load_b", "free_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_values_name_the_field(self, column, value):
        columns = {name: np.full(10, 40.0) for name in ("load_a", "free_a", "load_b", "free_b")}
        columns[column][3] = value
        with pytest.raises(ValueError,
                           match=rf"^population {column} must be finite and strictly positive$"):
            Population(**columns)

    def test_rejects_an_empty_population(self):
        with pytest.raises(ValueError, match="^population must contain at least one node$"):
            Population([], [], [], [])

    def test_accepts_numpy_scalar_attack_fraction(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 2000, seed=3)
        factors = symmetric_uniform_config.factors
        reference = run_cascade(pop, 0.25, factors, attack_seed=4)
        for p in (np.float32(0.25), np.float64(0.25)):
            outcome = run_cascade(pop, p, factors, attack_seed=4)
            assert np.array_equal(outcome.failed, reference.failed)
            assert outcome.trajectory == reference.trajectory

    def test_tiny_attack_rounds_to_zero_nodes(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 100, seed=5)
        outcome = run_cascade(pop, 0.004, symmetric_uniform_config.factors, attack_seed=6)
        assert outcome.surviving_fraction == 1.0
        assert outcome.rounds == 0
        assert not outcome.failed.any()

    def test_attacking_everyone(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 100, seed=7)
        outcome = run_cascade(pop, 0.999, symmetric_uniform_config.factors, attack_seed=8)
        assert outcome.surviving_fraction == 0.0
        assert outcome.failed.all()

    def test_deterministic(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 5000, seed=9)
        a = run_cascade(pop, 0.42, symmetric_uniform_config.factors, attack_seed=10)
        b = run_cascade(pop, 0.42, symmetric_uniform_config.factors, attack_seed=10)
        assert a.surviving_fraction == b.surviving_fraction
        assert a.trajectory == b.trajectory
        assert np.array_equal(a.failed, b.failed)

    def test_trajectory_fractions_nonincreasing(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            cfg = random_system(rng)
            pop = build_population(cfg, 3000, seed=int(rng.integers(2 ** 31)))
            out = run_cascade(pop, float(rng.uniform(0.1, 0.8)), cfg.factors,
                              attack_seed=int(rng.integers(2 ** 31)))
            fractions = [t.surviving_fraction for t in out.trajectory]
            assert all(a >= b for a, b in zip(fractions, fractions[1:]))
            # fractions are whole numbers of nodes
            for value in fractions + [out.surviving_fraction]:
                assert value * pop.size == pytest.approx(round(value * pop.size),
                                                         abs=1e-9)

    def test_conservation_of_total_load(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cfg = random_system(rng)
            pop = build_population(cfg, 2000, seed=int(rng.integers(2 ** 31)))
            out = run_cascade(pop, float(rng.uniform(0.1, 0.8)), cfg.factors,
                              attack_seed=int(rng.integers(2 ** 31)))
            if out.surviving_fraction == 0.0:
                continue
            survivors = ~out.failed
            q_a, q_b = out.trajectory[-1].q_a, out.trajectory[-1].q_b
            total_a = float(pop.load_a.sum())
            held_a = survivors.sum() * q_a + float(pop.load_a[survivors].sum())
            assert held_a == pytest.approx(total_a, rel=1e-9)
            total_b = float(pop.load_b.sum())
            held_b = survivors.sum() * q_b + float(pop.load_b[survivors].sum())
            assert held_b == pytest.approx(total_b, rel=1e-9)

    def test_trajectory_cap_sets_overflow_flag(self, monkeypatch):
        # long dribbling cascade; the cap only limits recording, not the run
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = build_population(cfg, 3000, seed=11)
        full = run_cascade(pop, 0.3, cfg.factors, attack_seed=12)
        assert full.rounds > 8 and not full.truncated
        monkeypatch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", 5)
        capped = run_cascade(pop, 0.3, cfg.factors, attack_seed=12)
        assert capped.truncated
        assert capped.rounds == full.rounds
        assert capped.surviving_fraction == full.surviving_fraction
        assert len(capped.trajectory) <= 7

    # a cap of 0, 1, or one below, at and above the m capped rounds of the full run
    CAPS = {"zero": lambda m: 0, "one": lambda m: 1, "one_short": lambda m: m - 1,
            "exact": lambda m: m, "one_over": lambda m: m + 1}

    @pytest.mark.parametrize("cap", sorted(CAPS))
    @pytest.mark.parametrize("p, collapse", [(0.3, False), (0.32, True)],
                             ids=["survivors", "collapse"])
    def test_trajectory_cap_boundary(self, monkeypatch, p, collapse, cap):
        # rounds 1..rounds-1 count against the cap; a final collapse point is always kept
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = build_population(cfg, 3000, seed=11)
        full = run_cascade(pop, p, cfg.factors, attack_seed=12)
        m = full.rounds - 1
        assert m > 8 and (full.surviving_fraction == 0.0) == collapse
        assert len(full.trajectory) == full.rounds + collapse
        limit = self.CAPS[cap](m)
        monkeypatch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", limit)
        capped = run_cascade(pop, p, cfg.factors, attack_seed=12)
        assert capped.truncated == (limit < m)
        kept = full.trajectory[:limit + 1]
        if limit < m and collapse:
            kept += full.trajectory[-1:]
        assert capped.trajectory == (kept if limit < m else full.trajectory)
        assert capped.rounds == full.rounds
        assert capped.surviving_fraction == full.surviving_fraction
        assert np.array_equal(capped.failed, full.failed)

    def test_sole_survivor_carries_all_excess(self):
        cfg = SystemConfig.from_marginals(Dirac(10), Dirac(1e6), Dirac(5), Dirac(1e6))
        pop = build_population(cfg, 2, seed=1)
        outcome = run_cascade(pop, 0.5, cfg.factors, attack_seed=2)
        assert outcome.surviving_fraction == 0.5
        assert outcome.trajectory[-1].q_a == pytest.approx(10.0)
        assert outcome.trajectory[-1].q_b == pytest.approx(5.0)


class TestOracleEquivalence:
    def test_matches_naive_bookkeeping(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            cfg = random_system(rng)
            pop = build_population(cfg, 200, seed=int(rng.integers(2 ** 31)))
            p = float(rng.uniform(0.05, 0.9))
            seed = int(rng.integers(2 ** 31))
            fast = run_cascade(pop, p, cfg.factors, seed)
            slow = run_cascade_naive(pop, p, cfg.factors, seed)
            assert np.array_equal(fast.failed, slow.failed)
            assert fast.surviving_fraction == slow.surviving_fraction
            assert fast.rounds == slow.rounds

    @pytest.mark.parametrize("p", [0.8, 0.9])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_matches_naive_at_dirac_ties(self, p, ulps):
        # Unit loads and beta = 1/2 make the round-1 threshold exact in both
        # kernels: q = k/(n-k) per layer is a whole number, the threshold is
        # q + q/2.  Free space sits exactly on it (ties survive) or one ulp
        # either side.
        n = 1000
        factors = CrossLayerFactors(0.5, 0.5)
        threshold = round_one_threshold(p, n)
        free = threshold
        for _ in range(abs(ulps)):
            free = np.nextafter(free, math.copysign(math.inf, ulps))
        ones = np.ones(n)
        pop = Population(ones, np.full(n, free), ones, np.full(n, threshold))
        out = assert_matches_naive(pop, p, factors, attack_seed=7)
        assert out.surviving_fraction == pytest.approx(0.0 if ulps < 0 else 1.0 - p)

    @pytest.mark.parametrize("p", [0.8, 0.9])
    def test_matches_naive_with_many_ties(self, p):
        # Per node and layer, free space is the round-1 threshold, one ulp
        # either side of it, or far above; the cascade runs several rounds.
        n = 2000
        factors = CrossLayerFactors(0.5, 0.5)
        threshold = round_one_threshold(p, n)
        values = np.array([np.nextafter(threshold, -math.inf), threshold,
                           np.nextafter(threshold, math.inf), 1e3])
        rng = np.random.default_rng(8)
        ones = np.ones(n)
        for trial in range(5):
            pop = Population(ones, rng.choice(values, n), ones, rng.choice(values, n))
            out = assert_matches_naive(pop, p, factors, attack_seed=trial)
            assert out.rounds >= 2

    def test_matches_naive_past_the_switch_round(self):
        # Near-critical continuous populations: long cascades run the masked
        # rounds and then the sorted sweep.
        rng = np.random.default_rng(41)
        rounds = []
        for _ in range(12):
            cfg = random_system(rng, free_families=("uniform", "pareto", "weibull"))
            p_star = critical_attack_size(cfg, tol_p=1e-3).p_hat
            pop = build_population(cfg, 3000, seed=int(rng.integers(2 ** 31)))
            for offset in (-0.01, -0.003, 0.0, 0.003, 0.01):
                p = min(max(p_star + offset, 0.01), 0.99)
                out = assert_matches_naive(pop, p, cfg.factors, int(rng.integers(2 ** 31)))
                rounds.append(out.rounds)
        assert sum(r > MASKED_ROUNDS for r in rounds) >= 5
        assert sum(r <= MASKED_ROUNDS for r in rounds) >= 5

    def test_reused_population_matches_fresh_copy(self):
        # The sort order cached on a population carries nothing from one
        # call to the next: each p gives what a fresh copy gives.
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = build_population(cfg, 3000, seed=11)
        before = copy_of(pop)
        rounds = []
        for index, p in enumerate((0.3, 0.1, 0.28, 0.5, 0.3, 0.26)):
            reused = run_cascade(pop, p, cfg.factors, attack_seed=index)
            fresh = run_cascade(copy_of(before), p, cfg.factors, attack_seed=index)
            assert np.array_equal(reused.failed, fresh.failed)
            assert reused.rounds == fresh.rounds
            assert reused.surviving_fraction == fresh.surviving_fraction
            assert reused.trajectory == fresh.trajectory
            rounds.append(reused.rounds)
        assert max(rounds) > MASKED_ROUNDS and min(rounds) <= MASKED_ROUNDS
        order = pop.free_order
        run_cascade(pop, 0.3, cfg.factors, attack_seed=0)
        assert pop.free_order is order  # sorted once
        for name in ("load_a", "free_a", "load_b", "free_b"):
            assert np.array_equal(getattr(pop, name), getattr(before, name))

    def test_naive_rejects_large_populations(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 10_001, seed=1)
        with pytest.raises(ValueError, match="naive"):
            run_cascade_naive(pop, 0.3, symmetric_uniform_config.factors, 1)

    @pytest.mark.parametrize("p, collapse", [(0.3, False), (0.32, True)],
                             ids=["survivors", "collapse"])
    def test_naive_records_every_round(self, monkeypatch, p, collapse):
        # the oracle has no cap: under a cap of 0 it still keeps what
        # run_cascade keeps at the default cap, and is never truncated
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = build_population(cfg, 3000, seed=11)
        fast = run_cascade(pop, p, cfg.factors, attack_seed=12)
        monkeypatch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", 0)
        slow = run_cascade_naive(pop, p, cfg.factors, attack_seed=12)
        assert not slow.truncated and not fast.truncated
        assert (slow.surviving_fraction == 0.0) == collapse
        assert slow.rounds == fast.rounds > 8
        assert len(slow.trajectory) == slow.rounds + collapse
        assert ([(t.round, t.surviving_fraction) for t in slow.trajectory]
                == [(t.round, t.surviving_fraction) for t in fast.trajectory])
        assert np.array_equal(slow.failed, fast.failed)

    def test_tie_survives_in_simulation(self):
        # Free space exactly equal to the effective excess: the node holds.
        # (The analytic Dirac convention drops the boundary mass instead.)
        factors = CrossLayerFactors(0.2, 0.2)
        cfg = SystemConfig(
            IndependentJoint(Dirac(125), Dirac(160.0), Dirac(175), Dirac(200.0)),
            factors)
        pop = build_population(cfg, 100, seed=1)
        # p=0.5: q_a = 125, q_b = 175, eff_a = 125 + 0.2*175 = 160 = free_a
        out = run_cascade(pop, 0.5, factors, attack_seed=2)
        assert out.surviving_fraction == 0.5
        naive = run_cascade_naive(pop, 0.5, factors, attack_seed=2)
        assert naive.surviving_fraction == 0.5

    @pytest.mark.parametrize("p, switched", [(0.26, False), (0.3, True)])
    def test_tie_with_final_threshold_survives(self, p, switched):
        # Lowering a survivor's free space to exactly the last round's
        # threshold changes nothing, in the masked rounds and in the sweep.
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = build_population(cfg, 3000, seed=11)
        out = run_cascade(pop, p, cfg.factors, attack_seed=12)
        assert (out.rounds > MASKED_ROUNDS) == switched and out.surviving_fraction > 0
        last = out.trajectory[-1]
        survivors = np.flatnonzero(~out.failed)
        tied = copy_of(pop)
        tied.free_a[survivors[0]] = last.q_a + cfg.factors.beta_b * last.q_b
        tied.free_b[survivors[1]] = last.q_b + cfg.factors.beta_a * last.q_a
        again = run_cascade(tied, p, cfg.factors, attack_seed=12)
        assert np.array_equal(again.failed, out.failed)
        assert again.rounds == out.rounds
        assert again.trajectory == out.trajectory

    def test_dirac_threshold_is_sharp(self):
        # One epsilon above the boundary everyone fails.
        factors = CrossLayerFactors(0.2, 0.2)
        cfg = SystemConfig(
            IndependentJoint(Dirac(125), Dirac(159.99), Dirac(175), Dirac(200.0)),
            factors)
        pop = build_population(cfg, 100, seed=1)
        out = run_cascade(pop, 0.5, factors, attack_seed=2)
        assert out.surviving_fraction == 0.0


def sweep(pop, grid, factors):
    """Outcomes of one nested identity-prefix sweep over the grid, in input order."""
    outcomes, previous = {}, None
    for index in sorted(range(len(grid)), key=grid.__getitem__):
        previous = run_cascade(pop, grid[index], factors, resume=previous)
        outcomes[index] = previous
    return [outcomes[index] for index in range(len(grid))]


class TestNestedSweep:
    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac"])
    def test_resumed_outcomes_match_scratch_and_naive(self, family):
        rng = np.random.default_rng(["uniform", "pareto", "weibull", "dirac"].index(family))
        families = ("uniform", "pareto", "weibull", "dirac")
        checked = 0
        for draw in range(6):
            cfg = random_system(rng, load_families=families, free_families=(family,))
            n = 5000 if draw < 3 else 1500
            # attacked along a random order
            pop = relabelled(build_population(cfg, n, seed=int(rng.integers(2 ** 31))),
                             rng.permutation(n))
            grid = [float(p) for p in rng.uniform(0.02, 0.95, 12)]
            grid[5] = grid[2]  # a repeated p
            for p, resumed in zip(grid, sweep(pop, grid, cfg.factors)):
                scratch = run_cascade(pop, p, cfg.factors)
                assert np.array_equal(resumed.failed, scratch.failed)
                assert resumed.surviving_fraction == scratch.surviving_fraction
                if n <= 2000:
                    naive = run_cascade_naive(pop, p, cfg.factors)
                    assert np.array_equal(resumed.failed, naive.failed)
                checked += 1
        assert checked == 72

    def test_resumed_outcomes_match_naive_at_exact_ties(self):
        # Unit loads keep every aggregate exact, so free spaces on the
        # round-one thresholds of p = 0.8 and 0.9 stay exact ties however
        # the sweep adds up the shed loads.
        n = 2000
        factors = CrossLayerFactors(0.5, 0.5)
        values = [1e3]
        for p in (0.8, 0.9):
            threshold = round_one_threshold(p, n)
            values += [np.nextafter(threshold, -math.inf), threshold,
                       np.nextafter(threshold, math.inf)]
        rng = np.random.default_rng(9)
        ones = np.ones(n)
        grid = [0.9, 0.5, 0.8, 0.85, 0.8, 0.95]
        for _ in range(5):
            pop = relabelled(Population(ones, rng.choice(values, n), ones,
                                        rng.choice(values, n)), rng.permutation(n))
            for p, resumed in zip(grid, sweep(pop, grid, factors)):
                naive = run_cascade_naive(pop, p, factors)
                assert np.array_equal(resumed.failed, naive.failed)

    def test_tie_with_previous_final_threshold_survives_resume(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = relabelled(build_population(cfg, 3000, seed=11),
                         np.random.default_rng(12).permutation(3000))
        first = run_cascade(pop, 0.25, cfg.factors)
        second = run_cascade(pop, 0.3, cfg.factors, resume=first)
        assert second.rounds > MASKED_ROUNDS and second.surviving_fraction > 0
        # A survivor sits exactly on the final thresholds of the first
        # cascade, resumed at a p of the same attack size, or on those of
        # the resumed cascade.
        for later, p in ((first, 0.2501), (second, 0.3)):
            survivors = np.flatnonzero(~later.failed)
            tied = copy_of(pop)
            tied.free_a[survivors[0]] = later.state.thresholds[0]
            tied.free_b[survivors[1]] = later.state.thresholds[1]
            start = run_cascade(tied, 0.25, cfg.factors)
            assert np.array_equal(start.failed, first.failed)
            again = run_cascade(tied, p, cfg.factors, resume=start)
            assert np.array_equal(again.failed, later.failed)
            assert again.state.thresholds == later.state.thresholds

    def test_resumed_outcome_covers_the_continuation(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = relabelled(build_population(cfg, 3000, seed=11),
                         np.random.default_rng(12).permutation(3000))
        first = run_cascade(pop, 0.25, cfg.factors)
        kept = first.failed.copy()
        second = run_cascade(pop, 0.3, cfg.factors, resume=first)
        assert np.array_equal(first.failed, kept)
        assert second.trajectory[0].round == 0
        assert second.trajectory[0].surviving_fraction < first.surviving_fraction
        assert second.rounds == len(second.trajectory)  # the last round fails no one
        assert second.state.attack_size == 900 and first.state.attack_size == 750
        assert not first.failed[750:900].all()
        repeat = run_cascade(pop, 0.3, cfg.factors, resume=second)
        assert repeat.rounds == 0 and repeat.surviving_fraction == second.surviving_fraction
        assert run_cascade(pop, 0.3, cfg.factors, attack_seed=4).state is None

    def test_rejects_a_resume_it_cannot_continue(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200))
        pop = build_population(cfg, 100, seed=1)
        first = run_cascade(pop, 0.3, cfg.factors)
        seeded = run_cascade(pop, 0.3, cfg.factors, attack_seed=3)
        with pytest.raises(ValueError, match="cannot shrink the attack from 30 to 20"):
            run_cascade(pop, 0.2, cfg.factors, resume=first)
        with pytest.raises(ValueError, match="resume continues an identity-prefix outcome"):
            run_cascade(pop, 0.4, cfg.factors, resume=seeded)

    def test_rejects_a_resume_from_another_population(self):
        # Continued on another population, the earlier failure flags and
        # shed loads belong to other nodes: resumed on the seed-12 draw, the
        # surviving fraction read 0.654 against 0.6573 from scratch, with
        # 98 flags wrong.
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        pop = build_population(cfg, 3000, seed=11)
        outcome = run_cascade(pop, 0.22, cfg.factors)
        # an equal copy is another object, whose arrays may change apart;
        # a population of another size is refused alike, either way round
        small, large = build_population(cfg, 100, 1), build_population(cfg, 5000, 2)
        for later in (build_population(cfg, 3000, seed=12), copy_of(pop), small, large):
            with pytest.raises(ValueError, match="^resume comes from another population$"):
                run_cascade(later, 0.27, cfg.factors, resume=outcome)
        with pytest.raises(ValueError, match="^resume comes from another population$"):
            run_cascade(pop, 0.27, cfg.factors, resume=run_cascade(small, 0.2, cfg.factors))
        resumed = run_cascade(pop, 0.27, cfg.factors, resume=outcome)
        assert np.array_equal(resumed.failed, run_cascade(pop, 0.27, cfg.factors).failed)


class TestIdentityPrefix:
    """With no attack argument, a cascade attacks the first k nodes."""

    CFG = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                      Uniform(20, 40), Uniform(10, 200),
                                      beta_a=0.3, beta_b=0.3)

    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac"])
    def test_matches_the_order_and_the_naive_oracle(self, family):
        # A seeded attack is the identity prefix of the population relabelled
        # so that the drawn nodes come first, in the order drawn, and the rest
        # keep theirs.
        rng = np.random.default_rng(40 + ["uniform", "pareto", "weibull", "dirac"].index(family))
        rounds = []
        for _ in range(3):
            cfg = random_system(rng, free_families=(family,))
            pop = build_population(cfg, 1500, seed=int(rng.integers(2 ** 31)))
            for seed, p in enumerate(rng.uniform(0.02, 0.95, 6)):
                got = run_cascade(pop, p, cfg.factors)
                naive = run_cascade_naive(pop, p, cfg.factors)
                assert np.array_equal(got.failed, naive.failed)
                assert got.rounds == naive.rounds
                seeded = run_cascade(pop, p, cfg.factors, seed)
                k = math.floor(p * 1500 + 0.5)
                drawn = np.random.default_rng(seed).choice(1500, k, replace=False)
                order = np.r_[drawn, np.setdiff1d(np.arange(1500), drawn)]
                prefix = run_cascade(relabelled(pop, order), p, cfg.factors)
                assert np.array_equal(seeded.failed[order], prefix.failed)
                assert seeded.trajectory == prefix.trajectory
                assert seeded.rounds == prefix.rounds
                rounds.append(prefix.rounds)
        assert max(rounds) > 1 or family == "dirac"  # Dirac free spaces fail at once

    @pytest.mark.parametrize("p, failed", [(0.4, False), (0.6, True)])
    def test_single_node_edges(self, p, failed):
        pop = Population([30.0], [50.0], [30.0], [50.0])
        factors = CrossLayerFactors(0.2, 0.2)
        for cascade in (run_cascade, run_cascade_naive):
            for attack_seed in (None, 0):
                out = cascade(pop, p, factors, attack_seed)
                assert out.failed.tolist() == [failed]
                assert out.surviving_fraction == float(not failed)
                assert out.rounds == 0
        assert run_cascade(pop, p, factors).state.attack_size == int(failed)

    def test_resume_equals_a_run_from_scratch(self):
        pop = build_population(self.CFG, 3000, seed=11)
        grid = [0.3, 0.21, 0.25, 0.25, 0.32, 0.29, 0.6, 0.31, 0.04, 0.33]
        scratches = [run_cascade(pop, p, self.CFG.factors) for p in grid]
        for resumed, scratch in zip(sweep(pop, grid, self.CFG.factors), scratches):
            assert np.array_equal(resumed.failed, scratch.failed)
            assert resumed.surviving_fraction == scratch.surviving_fraction
            assert resumed.state.attack_size == scratch.state.attack_size
        assert sum(out.rounds > MASKED_ROUNDS for out in scratches) >= 3
        assert 0.0 in {out.surviving_fraction for out in scratches}  # a total collapse

    def test_does_not_mix_with_an_explicit_order(self):
        # Only an identity prefix resumes: neither a seeded continuation nor
        # an outcome of the naive oracle.
        pop = build_population(self.CFG, 100, seed=1)
        identity = run_cascade(pop, 0.3, self.CFG.factors)
        naive = run_cascade_naive(pop, 0.3, self.CFG.factors)
        for attack_seed, resume in ((3, identity), (None, naive)):
            with pytest.raises(ValueError, match="resume continues an identity-prefix outcome"):
                run_cascade(pop, 0.4, self.CFG.factors, attack_seed, resume=resume)


def assert_same_outcome(got, want):
    assert np.array_equal(got.failed, want.failed)
    assert (got.rounds, got.trajectory, got.truncated, got.surviving_fraction) == (
        want.rounds, want.trajectory, want.truncated, want.surviving_fraction)


def drew_rows(pop: Population) -> bool:
    """Whether a population from ``build_population`` has drawn its rows."""
    return "_pending" not in vars(pop)


def quiet_edge(cfg: SystemConfig, pop: Population) -> list[float]:
    """Attacks on both sides of the largest whose round-1 thresholds stay at
    or below the joint's free floor (from cumulative sums, so near it)."""
    n = pop.size
    alive = n - np.arange(1, n)
    q_a, q_b = (np.cumsum(load)[:-1] / alive for load in (pop.load_a, pop.load_b))
    floor_a, floor_b = cfg.joint.free_floor
    quiet = ((q_a + cfg.factors.beta_b * q_b <= floor_a)
             & (q_b + cfg.factors.beta_a * q_a <= floor_b))
    last = int(np.flatnonzero(quiet)[-1]) + 1 if quiet.any() else 0
    return [(last + step) / n for step in (-1, 0, 1, 2) if 0 < last + step < n]


class TestAttackedHead:
    """A population built with an attacked head of m nodes keeps no free
    space for them; every cascade that attacks at least them is the full
    population's, bit for bit."""

    CFG = TestIdentityPrefix.CFG

    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac", "coupled"])
    def test_cascades_match_the_full_population(self, monkeypatch, family):
        # Also at attacks on both sides of the quiet edge: a cascade whose
        # round-1 thresholds stay at the free floor attacking just the head
        # draws no row beyond the head's loads.
        rng = np.random.default_rng(50 + ["uniform", "pareto", "weibull", "dirac",
                                          "coupled"].index(family))
        monkeypatch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", 4)
        seen = set()
        for draw in range(4):
            if family == "coupled":
                cfg = SystemConfig(ProportionalJoint(random_marginal(rng), random_marginal(rng),
                                                     float(rng.uniform(1.2, 3.0))),
                                   CrossLayerFactors(*rng.uniform(0.0, 0.6, 2)))
            else:
                cfg = random_system(rng, free_families=(family,))
            n, seed = (3000, 1500, 1025, 7)[draw], int(rng.integers(2 ** 31))
            full = build_population(cfg, n, seed)
            floor_a, floor_b = cfg.joint.free_floor
            for p in [*rng.uniform(0.02, 0.95, 4), 0.999, *quiet_edge(cfg, full)]:
                want = run_cascade(full, p, cfg.factors)
                k = math.floor(p * n + 0.5)
                _, _, q_a, q_b = want.trajectory[0]
                quiet = (q_a + cfg.factors.beta_b * q_b <= floor_a
                         and q_b + cfg.factors.beta_a * q_a <= floor_b)
                for m in sorted({0, 1, k // 3, k} & set(range(k + 1))):
                    pop = build_population(cfg, n, seed, attacked=m)
                    assert_same_outcome(run_cascade(pop, p, cfg.factors), want)
                    if m == k:
                        assert drew_rows(pop) == (not quiet and k < n)
                    assert pop.head == m and pop.free_a.size == n - m
                seen.add("collapse" if want.surviving_fraction == 0.0 else
                         "one round" if want.rounds <= 1 else "longer")
                seen.add("quiet" if quiet else "not quiet")
        assert {"collapse", "one round", "quiet", "not quiet"} <= seen

    @pytest.mark.parametrize("ulps, surviving", [(0, 0.2), (1, 0.0)])
    def test_a_threshold_on_a_dirac_free_space_is_quiet(self, ulps, surviving):
        # Unit loads and beta = 1/2 make round 1's threshold exactly 6 per
        # layer, in both kernels.  Free space on it survives (ties survive),
        # so that round is quiet and draws no row; a threshold one ulp above
        # it fails layer A.
        n, p = 10, 0.8
        free = round_one_threshold(p, n)
        for _ in range(ulps):
            free = np.nextafter(free, 0.0)
        cfg = SystemConfig.from_marginals(Dirac(1), Dirac(free), Dirac(1), Dirac(100),
                                          beta_a=0.5, beta_b=0.5)
        pop = build_population(cfg, n, seed=1, attacked=8)
        out = run_cascade(pop, p, cfg.factors)
        assert drew_rows(pop) == bool(ulps)
        assert (out.surviving_fraction, out.rounds) == (surviving, 1)
        assert_same_outcome(out, run_cascade_naive(build_population(cfg, n, seed=1), p,
                                                   cfg.factors))

    def test_sorted_sweep_and_resume_chain_match_the_full_population(self):
        n = 3000
        full = build_population(self.CFG, n, seed=11)
        grid = [0.21, 0.25, 0.25, 0.29, 0.3, 0.31, 0.32, 0.33, 0.6]
        wanted = sweep(full, grid, self.CFG.factors)
        assert sum(out.rounds > MASKED_ROUNDS for out in wanted) >= 2
        assert wanted[-1].surviving_fraction == 0.0
        for p in (0.25, 0.32):
            # from scratch past the masked rounds, on the head-offset free order
            pop = build_population(self.CFG, n, seed=11, attacked=math.floor(p * n + 0.5))
            for cap in (MAX_TRAJECTORY_ROUNDS, 5):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", cap)
                    want = run_cascade(full, p, self.CFG.factors)
                    assert want.rounds > MASKED_ROUNDS and want.truncated == (cap == 5)
                    assert_same_outcome(run_cascade(pop, p, self.CFG.factors), want)
        # a resumed cascade sweeps from its first round, here also over a
        # layer of equal (Dirac) free spaces with unequal loads
        dirac = SystemConfig.from_marginals(Uniform(20, 40), Dirac(60), Uniform(20, 40),
                                            Uniform(10, 200), beta_a=0.3, beta_b=0.3)
        for cfg in (self.CFG, dirac):
            full = build_population(cfg, n, seed=11)
            pop = build_population(cfg, n, seed=11, attacked=math.floor(0.21 * n + 0.5))
            for got, want in zip(sweep(pop, grid, cfg.factors), sweep(full, grid, cfg.factors)):
                assert_same_outcome(got, want)
                assert got.state.thresholds == want.state.thresholds
                assert got.state.shed == want.state.shed

    def test_free_order_holds_node_indices(self):
        full = build_population(self.CFG, 2000, seed=3)
        pop = build_population(self.CFG, 2000, seed=3, attacked=700)
        for (order, ordered), (full_order, full_ordered) in zip(pop.free_order,
                                                                full.free_order):
            assert order.dtype == np.intp
            assert np.array_equal(order, full_order[full_order >= 700])
            assert ordered.tobytes() == full_ordered[full_order >= 700].tobytes()

    def test_refuses_an_attack_that_misses_the_head(self):
        pop = build_population(self.CFG, 100, seed=1, attacked=30)
        with pytest.raises(ValueError, match="attacked head of 30 nodes .* got 20$"):
            run_cascade(pop, 0.2, self.CFG.factors)
        with pytest.raises(ValueError, match="attacked head of 30 nodes .* got a seeded attack"):
            run_cascade(pop, 0.3, self.CFG.factors, attack_seed=4)
        # the naive oracle reads every node's capacity, so it refuses
        with pytest.raises(ValueError, match="attacked head of 30 nodes"):
            run_cascade_naive(pop, 0.5, self.CFG.factors)
        with pytest.raises(ValueError, match="attacked head"):
            relabelled(pop, np.arange(100))
        assert run_cascade(pop, 0.3, self.CFG.factors).state.attack_size == 30

    def test_free_arrays_must_match_the_head(self):
        full = build_population(self.CFG, 100, seed=1)
        short = dict(load_a=full.load_a, free_a=full.free_a[10:], load_b=full.load_b,
                     free_b=full.free_b[10:])
        with pytest.raises(ValueError, match="equal length"):
            Population(**short)
        with pytest.raises(ValueError, match=r"attacked must lie in \[0, n = 100\], got 101"):
            build_population(self.CFG, 100, seed=1, attacked=101)
        with pytest.raises(ValueError, match="attacked must be >= 0"):
            build_population(self.CFG, 100, seed=1, attacked=-1)
        whole = build_population(self.CFG, 100, seed=1, attacked=100)
        assert whole.free_a.size == 0 and whole.free_order[0][0].size == 0
        assert run_cascade(whole, 0.999, self.CFG.factors).surviving_fraction == 0.0


class TestDrawOnRead:
    """A population from ``build_population`` draws its rows on their first
    read, however they are read, with the bits of the eager draw: the full
    population given as arrays, whose free rows past an attacked head are
    the lazy population's."""

    JOINTS = {
        "independent": TestIdentityPrefix.CFG,
        "proportional": SystemConfig(ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4),
                                     CrossLayerFactors(0.3, 0.3)),
        "empirical": sampled_copy(TestIdentityPrefix.CFG, m=20_000),
    }

    @staticmethod
    def eager(cfg, n, seed):
        return Population(*cfg.joint.sample_population(n, np.random.default_rng(seed)))

    @staticmethod
    def assert_rows(pop, want):
        for name in ("load_a", "free_a", "load_b", "free_b"):
            tail = getattr(want, name)[pop.head:] if name.startswith("free") else \
                getattr(want, name)
            assert getattr(pop, name).tobytes() == tail.tobytes(), name

    @pytest.mark.parametrize("read", ["naive", "attack_seed", "free_order", "relabelled",
                                      "pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("joint", list(JOINTS))
    def test_every_read_fills_in_the_eager_rows(self, joint, read):
        cfg, n = self.JOINTS[joint], 1000
        pop, want = build_population(cfg, n, seed=5), self.eager(cfg, n, 5)
        assert not drew_rows(pop) and pop.size == n
        if read in ("naive", "attack_seed"):
            args = (0.3, cfg.factors, 9 if read == "attack_seed" else None)
            cascade = run_cascade_naive if read == "naive" else run_cascade
            assert_same_outcome(cascade(pop, *args), cascade(want, *args))
        elif read == "free_order":
            for got, expected in zip(pop.free_order, want.free_order):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
        elif read == "relabelled":
            order = np.random.default_rng(2).permutation(n)
            self.assert_rows(relabelled(pop, order), relabelled(want, order))
        else:
            dump = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                    "copy": copy.copy, "deepcopy": copy.deepcopy}[read]
            copied = dump(pop)
            assert drew_rows(copied) and copied.free_floor == pop.free_floor
            self.assert_rows(copied, want)
            assert_same_outcome(run_cascade(copied, 0.3, cfg.factors),
                                run_cascade(want, 0.3, cfg.factors))
        assert drew_rows(pop)
        self.assert_rows(pop, want)

    @pytest.mark.parametrize("joint", list(JOINTS))
    def test_a_resume_after_a_quiet_first_p(self, joint):
        cfg, n, grid = self.JOINTS[joint], 3000, [0.02, 0.03, 0.25, 0.3]
        k = math.floor(grid[0] * n + 0.5)
        pop, want = build_population(cfg, n, 8, attacked=k), self.eager(cfg, n, 8)
        got, wanted = [run_cascade(pop, grid[0], cfg.factors)], [run_cascade(want, grid[0],
                                                                             cfg.factors)]
        assert got[0].rounds == 1 and not drew_rows(pop)
        for p in grid[1:]:
            got.append(run_cascade(pop, p, cfg.factors, resume=got[-1]))
            wanted.append(run_cascade(want, p, cfg.factors, resume=wanted[-1]))
        for a, b in zip(got, wanted):
            assert_same_outcome(a, b)
            assert a.state.thresholds == b.state.thresholds and a.state.shed == b.state.shed
        self.assert_rows(pop, want)

    @pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
    def test_a_row_is_checked_when_it_is_drawn(self):
        # Weibull shape 1e-3 at minimum 0 draws zeros and infs
        wild, tame = Weibull(0, 1, 1e-3), Uniform(20, 40)
        cfg = SystemConfig.from_marginals(tame, wild, tame, tame)
        pop = build_population(cfg, 100, seed=3, attacked=10)
        message = "^population {} must be finite and strictly positive$"
        for _ in range(2):  # the rows stay undrawn, and every read fails alike
            with pytest.raises(ValueError, match=message.format("free_a")):
                run_cascade(pop, 0.1, cfg.factors)
        assert not drew_rows(pop)


def bundled_system(config: str, name: str) -> tuple[SystemConfig, float]:
    """A bundled system and its critical attack size from perfbench's reference."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    critical = json.loads(path.read_text(encoding="utf-8"))["critical"][f"{config}/{name}"]
    return load_experiment(_resolve_config_path(config)).systems[name], critical


class TestAgainstMeanField:
    def test_matches_analytic_prediction(self, symmetric_uniform_config):
        curve = monte_carlo_curve(symmetric_uniform_config, 100_000, [0.25], runs=20,
                                  seed_base=11)
        assert curve.mean[0] == pytest.approx(0.75, abs=0.005)
        assert final_size(0.25, symmetric_uniform_config) == 0.75

    def test_error_shrinks_with_system_size(self):
        # interior fixed point with a real cascade
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        p = 0.25
        reference = final_size(p, cfg)
        assert 0 < reference < 1 - p  # a genuine cascade, not just the attack
        errors = []
        for n in (1000, 10_000, 100_000):
            curve = monte_carlo_curve(cfg, n, [p], runs=10, seed_base=13)
            errors.append(abs(curve.mean[0] - reference))
        assert errors[2] < 0.01
        assert errors[2] <= errors[0] + 0.005

    @pytest.mark.parametrize("share", [0.5, 0.8])
    def test_tolerance_factor_matches_analytic_prediction(self, share):
        cfg, critical = bundled_system("alloc_uniform_weibull", "equal_tolerance_factor")
        p = share * critical
        curve = monte_carlo_curve(cfg, 100_000, [p], runs=5, seed_base=37)
        assert curve.mean[0] == pytest.approx(final_size(p, cfg), abs=0.005)

    def test_empirical_joint_matches_analytic_prediction(self):
        # test_error_shrinks_with_system_size's system, answered from a sample
        cfg = sampled_copy(SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                                       Uniform(20, 40), Uniform(10, 200),
                                                       beta_a=0.3, beta_b=0.3))
        p = 0.25
        reference = final_size(p, cfg)
        assert 0 < reference < 1 - p
        curve = monte_carlo_curve(cfg, 100_000, [p], runs=10, seed_base=41)
        assert abs(curve.mean[0] - reference) < 0.01

    def test_sharp_threshold_of_optimal_dirac_allocation(self):
        # All-Dirac population: the layer-weighted optimum survives intact
        # just below its critical attack size and collapses just above.
        factors = CrossLayerFactors(0.2, 0.2)
        cfg = SystemConfig(
            IndependentJoint(Dirac(125), Dirac(320), Dirac(175), Dirac(400)),
            factors)
        pop = build_population(cfg, 30_000, seed=3)
        below = run_cascade(pop, 0.66, factors, attack_seed=4)
        assert below.surviving_fraction == pytest.approx(0.34, abs=1e-9)
        assert below.rounds == 1
        above = run_cascade(pop, 0.68, factors, attack_seed=5)
        assert above.surviving_fraction == 0.0


class TestCollapsePoint:
    """The finite-N critical attack size: each population's least identity
    prefix that fails every node, k*/N, against mean field's p*."""

    def test_is_the_least_collapsing_prefix(self, symmetric_uniform_config):
        pop = build_population(symmetric_uniform_config, 400, seed=3)
        factors = symmetric_uniform_config.factors
        collapsed = [run_cascade(pop, k / 400, factors).surviving_fraction == 0.0
                     for k in range(1, 400)]
        assert collapse_point(pop, factors) == (collapsed.index(True) + 1) / 400
        assert all(collapsed[collapsed.index(True):])

    @pytest.mark.parametrize("system", ["independent", "tolerance factor", "empirical"])
    def test_concentrates_on_the_critical_attack_size(self, system):
        # Light tails: Daniels' law for fibre bundles puts sqrt(N)*std flat in N
        # and the bias below 1/sqrt(N).  The band is 4 standard errors plus a
        # 0.5/sqrt(N) bias allowance; both come from measured spreads (bias at
        # most +0.0034 at 10^4, sqrt(N)*std 0.23 to 0.70), not from this test.
        if system == "independent":
            cfg, critical = bundled_system("beta_sweep", "beta_0.50")
        elif system == "tolerance factor":
            cfg, critical = bundled_system("alloc_uniform_weibull", "equal_tolerance_factor")
        else:
            cfg = sampled_copy(SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                                           Uniform(20, 40), Uniform(10, 200),
                                                           beta_a=0.3, beta_b=0.3))
            critical = critical_attack_size(cfg).p_hat
        spreads = []
        for size, (n, runs) in enumerate([(10_000, 40), (100_000, 12)]):
            points = np.array([collapse_point(build_population(
                cfg, n, np.random.SeedSequence(43, spawn_key=(size, r))), cfg.factors)
                for r in range(runs)])
            mean, std = points.mean(), points.std(ddof=1)
            assert abs(mean - critical) <= 4 * std / math.sqrt(runs) + 0.5 / math.sqrt(n), \
                (n, mean - critical, math.sqrt(n) * std)
            spreads.append(math.sqrt(n) * std)
        assert 0.5 <= spreads[1] / spreads[0] <= 2, spreads


class TestMonteCarloCurve:
    def test_single_run_has_zero_stddev(self, symmetric_uniform_config):
        curve = monte_carlo_curve(symmetric_uniform_config, 2000, [0.3], runs=1,
                                  seed_base=17)
        assert curve.std[0] == 0.0

    def test_deterministic_in_seed_base(self, symmetric_uniform_config):
        a = monte_carlo_curve(symmetric_uniform_config, 2000, [0.2, 0.5], runs=3,
                              seed_base=19)
        b = monte_carlo_curve(symmetric_uniform_config, 2000, [0.2, 0.5], runs=3,
                              seed_base=19)
        assert np.array_equal(a.samples, b.samples)

    def test_parallel_matches_sequential(self, symmetric_uniform_config):
        seq = monte_carlo_curve(symmetric_uniform_config, 1000, [0.2, 0.45], runs=4,
                                seed_base=23, workers=1)
        par = monte_carlo_curve(symmetric_uniform_config, 1000, [0.2, 0.45], runs=4,
                                seed_base=23, workers=2)
        assert np.array_equal(seq.samples, par.samples)

    def test_parallel_with_coupled_free_space(self):
        from multiflow import CrossLayerFactors, EqualToleranceFactor, apply_strategy

        cfg = apply_strategy(EqualToleranceFactor(alpha=2.4), Uniform(20, 40),
                             Uniform(20, 40), CrossLayerFactors(0.2, 0.2))
        seq = monte_carlo_curve(cfg, 800, [0.3, 0.5], runs=3, seed_base=5, workers=1)
        par = monte_carlo_curve(cfg, 800, [0.3, 0.5], runs=3, seed_base=5, workers=2)
        assert np.array_equal(seq.samples, par.samples)

    def test_reuse_mode_parallel_matches_sequential(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        grid = [0.27, 0.24, 0.3, 0.24]
        seq = monte_carlo_curve(cfg, 1500, grid, runs=3, seed_base=31, workers=1,
                                resample_population=False)
        par = monte_carlo_curve(cfg, 1500, grid, runs=3, seed_base=31, workers=2,
                                resample_population=False)
        assert np.array_equal(seq.samples, par.samples)
        # one population per run index, from its own stream; each p attacks
        # a prefix of the fixed order arange(n), and no attack is drawn
        for ir in range(3):
            pop = build_population(cfg, 1500, np.random.SeedSequence(31, spawn_key=(ir,)))
            for ip, p in enumerate(grid):
                expected = run_cascade(pop, p, cfg.factors)
                assert seq.samples[ip, ir] == expected.surviving_fraction
        assert np.array_equal(seq.samples[1], seq.samples[3])

    def test_resample_mode_attacks_a_prefix_of_each_population(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        grid = [0.27, 0.24, 0.3]
        curve = monte_carlo_curve(cfg, 1500, grid, runs=3, seed_base=31)
        # one population per (p, run) pair, from its own stream, attacked
        # along arange(n)
        for ip, p in enumerate(grid):
            for ir in range(3):
                pop = build_population(cfg, 1500,
                                       np.random.SeedSequence(31, spawn_key=(ip, ir)))
                expected = run_cascade(pop, p, cfg.factors)
                assert curve.samples[ip, ir] == expected.surviving_fraction
        assert len(np.unique(curve.samples)) > 3  # the populations differ

    def test_keeps_each_cascades_rounds_and_truncation(self, monkeypatch):
        cfg, n, grid = TestIdentityPrefix.CFG, 3000, [0.3, 0.25, 0.32]
        curves = {}
        for resample in (True, False):
            curve = curves[resample] = monte_carlo_curve(cfg, n, grid, runs=2, seed_base=13,
                                                         resample_population=resample)
            for ir in range(2):
                if resample:
                    outcomes = [run_cascade(build_population(
                        cfg, n, np.random.SeedSequence(13, spawn_key=(ip, ir))), p, cfg.factors)
                        for ip, p in enumerate(grid)]
                else:
                    # a resumed cascade counts the rounds of its continuation
                    pop = build_population(cfg, n, np.random.SeedSequence(13, spawn_key=(ir,)))
                    outcomes = sweep(pop, grid, cfg.factors)
                assert curve.rounds[:, ir].tolist() == [out.rounds for out in outcomes]
            assert curve.rounds.shape == curve.truncated.shape == (3, 2)
            assert curve.rounds.max() > MASKED_ROUNDS and not curve.truncated.any()
        # a trajectory cap truncates, and nothing else moves
        monkeypatch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", 12)
        for resample, curve in curves.items():
            capped = monte_carlo_curve(cfg, n, grid, runs=2, seed_base=13,
                                       resample_population=resample)
            assert capped.truncated.any() and not capped.truncated.all()
            assert np.array_equal(capped.truncated, capped.rounds > 13)
            assert np.array_equal(capped.samples, curve.samples)
            assert np.array_equal(capped.rounds, curve.rounds)

    def test_workers_capped_at_task_count(self, monkeypatch, symmetric_uniform_config):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single task must not start a process pool")
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        curve = monte_carlo_curve(symmetric_uniform_config, 500, [0.3], runs=1,
                                  seed_base=3, workers=8)
        assert curve.samples.shape == (1, 1)
        # reuse mode: one task per run index
        curve = monte_carlo_curve(symmetric_uniform_config, 500, [0.2, 0.3], runs=1,
                                  seed_base=3, workers=8, resample_population=False)
        assert curve.samples.shape == (2, 1)

    @pytest.mark.parametrize("resample_population", [True, False], ids=["resample", "reuse"])
    def test_empty_grid_gives_an_empty_curve(self, symmetric_uniform_config,
                                             resample_population):
        curve = monte_carlo_curve(symmetric_uniform_config, 1000, [], 2, 1,
                                  resample_population=resample_population)
        assert curve.samples.shape == curve.rounds.shape == curve.truncated.shape == (0, 2)
        assert curve.p.shape == curve.mean.shape == curve.std.shape == (0,)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_workers_below_one(self, monkeypatch, symmetric_uniform_config, workers):
        def no_cascade(*args, **kwargs):
            raise AssertionError("no cascade may run before the arguments are checked")
        monkeypatch.setattr(simulate, "run_cascade", no_cascade)
        with pytest.raises(ValueError, match=rf"workers must be >= 1, got {workers}"):
            monte_carlo_curve(symmetric_uniform_config, 100, [0.3], runs=1, seed_base=3,
                              workers=workers)

    def test_failed_task_names_its_indices(self, monkeypatch, symmetric_uniform_config):
        original = simulate.run_cascade

        def failing(pop, p, factors, *args, **kwargs):
            if p == 0.4:
                raise FloatingPointError("boom")
            return original(pop, p, factors, *args, **kwargs)
        monkeypatch.setattr(simulate, "run_cascade", failing)
        # reuse mode visits the grid in ascending p but names the input index
        for resample in (True, False):
            with pytest.raises(RuntimeError, match=r"p_index=1, run_index=0\).*boom") as info:
                monte_carlo_curve(symmetric_uniform_config, 200, [0.2, 0.4, 0.3], runs=2,
                                  seed_base=3, resample_population=resample)
            assert isinstance(info.value.__cause__, FloatingPointError)

        # a failed build is named by the task's first index, in either mode
        def failing_build(*args, **kwargs):
            raise MemoryError("no room")
        monkeypatch.setattr(simulate, "build_population", failing_build)
        for resample in (True, False):
            with pytest.raises(RuntimeError,
                               match=r"p_index=0, run_index=0\).*no room") as info:
                monte_carlo_curve(symmetric_uniform_config, 200, [0.2, 0.4, 0.3], runs=2,
                                  seed_base=3, resample_population=resample)
            assert isinstance(info.value.__cause__, MemoryError)

    def test_population_reuse_mode(self):
        # interior fixed point: the outcome depends on the sampled population
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200),
                                          beta_a=0.3, beta_b=0.3)
        reused = monte_carlo_curve(cfg, 2000, [0.24, 0.27], runs=2,
                                   seed_base=29, resample_population=False)
        resampled = monte_carlo_curve(cfg, 2000, [0.24, 0.27], runs=2,
                                      seed_base=29, resample_population=True)
        assert reused.samples.shape == resampled.samples.shape
        assert not np.array_equal(reused.samples, resampled.samples)

    def test_rejects_bad_grid(self, symmetric_uniform_config):
        with pytest.raises(ValueError):
            monte_carlo_curve(symmetric_uniform_config, 100, [0.0, 0.5], runs=1,
                              seed_base=1)
        with pytest.raises(ValueError):
            monte_carlo_curve(symmetric_uniform_config, 100, [0.5], runs=0, seed_base=1)
        with pytest.raises(ValueError, match="got str"):
            monte_carlo_curve(symmetric_uniform_config, 100, ["0.5"], runs=1, seed_base=1)
        with pytest.raises(ValueError, match="population size"):
            monte_carlo_curve(symmetric_uniform_config, 0, [0.5], runs=1, seed_base=1)

    def test_rejects_negative_seed_base(self, symmetric_uniform_config):
        with pytest.raises(ValueError, match="^seed_base must be >= 0, got -1"):
            monte_carlo_curve(symmetric_uniform_config, 100, [0.5], runs=1, seed_base=-1)


def _forbid(monkeypatch, owner, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may run before the arguments are checked")
    for name in names:
        monkeypatch.setattr(owner, name, forbidden)


class TestIntegerArguments:
    """Every integer argument follows one rule: a bool or a non-integral value
    fails with a ValueError that names the argument, before any population
    is drawn or any cascade runs, and a numpy integer counts as the int."""

    NOT_INTEGERS = [True, 2.5, np.float64(3.0), "3"]
    CURVE = {"n": 100, "runs": 2, "seed_base": 3, "workers": 1}
    LABELS = {"n": "population size n", "runs": "runs", "seed_base": "seed_base",
              "workers": "workers"}

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", sorted(CURVE))
    def test_monte_carlo_curve_rejects(self, monkeypatch, symmetric_uniform_config,
                                       name, value):
        _forbid(monkeypatch, simulate, "build_population", "run_cascade")
        with pytest.raises(ValueError, match=rf"^{self.LABELS[name]} must be an integer, got"):
            monte_carlo_curve(symmetric_uniform_config, p_grid=[0.3],
                              **{**self.CURVE, name: value})

    @pytest.mark.parametrize("name", sorted(CURVE))
    def test_monte_carlo_curve_accepts_numpy_integers(self, symmetric_uniform_config, name):
        plain = monte_carlo_curve(symmetric_uniform_config, p_grid=[0.3, 0.6], **self.CURVE)
        numpy = monte_carlo_curve(symmetric_uniform_config, p_grid=[0.3, 0.6],
                                  **{**self.CURVE, name: np.int64(self.CURVE[name])})
        assert np.array_equal(numpy.samples, plain.samples)
        assert (numpy.n, numpy.runs, numpy.seed_base) == (plain.n, plain.runs, plain.seed_base)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_build_population_rejects(self, monkeypatch, symmetric_uniform_config, value):
        _forbid(monkeypatch, IndependentJoint, "sample_population")
        with pytest.raises(ValueError, match=r"^population size n must be an integer, got"):
            build_population(symmetric_uniform_config, value, seed=1)

    def test_build_population_accepts_numpy_integers(self, symmetric_uniform_config):
        plain = build_population(symmetric_uniform_config, 50, seed=1)
        numpy = build_population(symmetric_uniform_config, np.int64(50), seed=1)
        for name in ("load_a", "free_a", "load_b", "free_b"):
            assert np.array_equal(getattr(numpy, name), getattr(plain, name))
