from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from multiflow import (
    CrossLayerFactors,
    Dirac,
    EmpiricalJoint,
    EqualToleranceFactor,
    IndependentJoint,
    JointLoadSpace,
    LayerWeightedEqual,
    Pareto,
    ProportionalJoint,
    SystemConfig,
    Uniform,
    Weibull,
    apply_strategy,
    critical_attack_size,
    final_size,
    iterate_to_steady_state,
    stable_set_grid,
)
from multiflow import meanfield
from multiflow.meanfield import COLLAPSE_EPS, SteadyState
from helpers import dispatch_note, random_system, sampled_copy, single_layer_recursion


def effective(cfg, q_a, q_b):
    """Effective excess-load pair seen by the overload conditions."""
    return q_a + cfg.factors.beta_b * q_b, q_b + cfg.factors.beta_a * q_a


def stable_at(cfg, x, y, p, rel_tol=1e-9):
    """Whether (x, y) meets both stability sides at p, against the grid's
    threshold 1/(1-p) loosened by rel_tol (0 gives the grid's own test)."""
    lhs_a, lhs_b = cfg.joint.stability_sides([x], [y], cfg.factors.beta_a, cfg.factors.beta_b)
    threshold = (1.0 - rel_tol) / (1.0 - p)
    return bool(lhs_a[0, 0] >= threshold and lhs_b[0, 0] >= threshold)


def solve_rounds(p, cfg, t):
    """The solve cut after round t, which reads that round: q_t as
    ``x_star``/``y_star`` and n_{t+1} as ``n_inf``, or a collapse when
    n_{t+1} is one.  A tolerance far below any rounding step lets only
    ``MAX_ITER`` end it early."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meanfield, "MAX_ITER", t)
        patch.setattr(meanfield, "TOL", 1e-300)
        return iterate_to_steady_state(p, cfg)


class TestInitialState:
    """The state right after the attack, n_0 = 1-p and q_0 = p*E[L]/(1-p),
    read from a first round that fails no one: then q_1 = q_0 and n_2 = n_0."""

    def test_quarter_attack(self, symmetric_uniform_config):
        steady = solve_rounds(0.25, symmetric_uniform_config, 1)
        assert steady.n_inf == 0.75
        assert steady.x_star == 10.0
        assert steady.y_star == 10.0

    def test_vanishing_attack(self, symmetric_uniform_config):
        steady = solve_rounds(1e-12, symmetric_uniform_config, 1)
        assert steady.n_inf == pytest.approx(1.0)
        assert steady.x_star == pytest.approx(0.0, abs=1e-9)

    def test_even_split(self):
        cfg = SystemConfig.from_marginals(Uniform(50, 150), Uniform(250, 750),
                                          Uniform(25, 75), Uniform(250, 750))
        steady = solve_rounds(0.5, cfg, 1)
        assert steady.n_inf == 0.5
        assert steady.x_star == pytest.approx(100.0)
        assert steady.y_star == pytest.approx(50.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_bad_attack_fraction(self, p, symmetric_uniform_config):
        with pytest.raises(ValueError, match="^attack fraction p must lie strictly in"):
            iterate_to_steady_state(p, symmetric_uniform_config)

    @pytest.mark.parametrize("p", [np.float32(0.3), np.float64(0.3)])
    def test_accepts_numpy_real_scalars(self, p, symmetric_uniform_config):
        steady = solve_rounds(p, symmetric_uniform_config, 1)
        # computed in double precision from the scalar's exact value
        assert steady == solve_rounds(float(p), symmetric_uniform_config, 1)
        assert type(steady.n_inf) is float and type(steady.x_star) is float
        assert final_size(p, symmetric_uniform_config) == final_size(
            float(p), symmetric_uniform_config)

    @pytest.mark.parametrize("p, type_name", [(True, "bool"), (False, "bool"),
                                              ("0.5", "str")])
    def test_rejects_non_numbers_naming_the_type(self, p, type_name,
                                                  symmetric_uniform_config):
        with pytest.raises(ValueError, match=f"must be a real number, got {type_name}"):
            iterate_to_steady_state(p, symmetric_uniform_config)


class TestStep:
    """Single rounds of the recursion, read from solves cut by ``MAX_ITER``."""

    def test_fixed_point_when_no_failures(self, symmetric_uniform_config):
        for t in (1, 2):
            steady = solve_rounds(0.25, symmetric_uniform_config, t)
            assert steady.n_inf == 0.75
            assert (steady.x_star, steady.y_star) == (10.0, 10.0)
            assert steady.iterations == 1 and steady.converged  # round 1 moved nothing

    @pytest.mark.parametrize("p, n_inf", [(0.3, 0.7), (0.5, 0.28125)])
    def test_zero_rounds_read_round_zero(self, symmetric_uniform_config, p, n_inf):
        # n_inf = (1-p) P[S_A > eff_0a, S_B > eff_0b], here (1-p) min(1, 1.5 - eff_0 / 50)^2
        # with eff_0 = 1.25 q_0; at p = 0.5, q_0 = 30 and eff_0 = 37.5
        q_0 = p / (1.0 - p) * 30.0
        assert solve_rounds(p, symmetric_uniform_config, 0) == SteadyState(n_inf, q_0, q_0,
                                                                            0, False)

    def test_collapse_is_absorbing(self, symmetric_uniform_config):
        for t in (1, 2, 5):
            steady = solve_rounds(0.9, symmetric_uniform_config, t)
            assert steady.collapsed
            assert steady.x_star == steady.y_star == math.inf
            assert steady.iterations == 1 and steady.converged

    def test_matches_single_layer_recursion_when_other_layer_inert(self):
        # layer B can never fail: Dirac free space far above anything reachable
        compared = 0
        for p, free_a, survives in ((0.5, Uniform(25, 60), False),
                                    (0.3, Uniform(10, 200), True)):
            cfg = SystemConfig.from_marginals(Uniform(20, 40), free_a,
                                              Uniform(20, 40), Dirac(1e9))
            oracle = single_layer_recursion(p, 30.0, free_a)
            assert len(oracle) > 3  # a real multi-round cascade
            assert math.isfinite(oracle[-1][1]) == survives
            for t in range(1, len(oracle)):
                steady = solve_rounds(p, cfg, t)
                n_ref = oracle[t + 1][0] if t + 1 < len(oracle) else None
                if steady.collapsed:
                    assert n_ref == 0.0 or math.isinf(oracle[t][1])
                    continue
                assert steady.x_star == pytest.approx(oracle[t][1], rel=1e-12)
                if n_ref is not None:
                    assert steady.n_inf == pytest.approx(n_ref, rel=1e-12, abs=1e-15)
                compared += 1
        assert compared > 10


def _reference_steady_state(p, cfg):
    """The closed-form solve as it was written before the float path: each
    survival through the family's array formula on a 0-d array, the moments
    read from the joint, and an (n, q_a, q_b) state per round, under the
    solver's ``TOL`` and ``MAX_ITER`` as they read at call time."""
    joint = cfg.joint
    mean_a, mean_b = joint.mean_loads

    def advance(x, y):
        prob = (float(joint.free_a._survival(np.asarray(x, dtype=float)))
                * float(joint.free_b._survival(np.asarray(y, dtype=float))))
        return prob, mean_a * prob, mean_b * prob

    def next_state(stats):
        probability, load_a, load_b = stats
        if probability < COLLAPSE_EPS:
            return 0.0, math.inf, math.inf
        n = (1.0 - p) * probability
        return n, (mean_a - (1.0 - p) * load_a) / n, (mean_b - (1.0 - p) * load_b) / n

    scale = p / (1.0 - p)
    q_a, q_b = scale * mean_a, scale * mean_b
    eff_a, eff_b = effective(cfg, q_a, q_b)
    converged = False
    for iterations in range(1, meanfield.MAX_ITER + 1):
        n, q_a, q_b = next_state(advance(eff_a, eff_b))
        if n == 0.0:
            return SteadyState(0.0, math.inf, math.inf, iterations, True)
        new_a, new_b = effective(cfg, q_a, q_b)
        delta = max(abs(new_a - eff_a), abs(new_b - eff_b))
        eff_a = max(eff_a, new_a)
        eff_b = max(eff_b, new_b)
        if delta < meanfield.TOL * (1.0 + max(eff_a, eff_b)):
            converged = True
            break
    prob = advance(*effective(cfg, q_a, q_b))[0]
    if prob < COLLAPSE_EPS:
        return SteadyState(0.0, math.inf, math.inf, iterations, converged)
    return SteadyState((1.0 - p) * prob, q_a, q_b, iterations, converged)


class TestIterate:
    def test_float_loop_reproduces_the_array_loop(self, monkeypatch):
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(40):
            # multi-round cascades happen just below the critical size
            cfg = random_system(rng)
            p_hat = critical_attack_size(cfg, tol_p=1e-3).p_hat
            cases.append((cfg, [p_hat * f for f in (0.5, 0.9, 0.98, 1.0)]
                          + [rng.uniform(0.02, 0.95)]))
        # Dirac free space on every layer, then exact ties: p / (1 - p) = 3
        # puts the first effective excess exactly on a Dirac value.
        cases += [(random_system(rng, free_families=("dirac",)), rng.uniform(0.02, 0.95, 5))
                  for _ in range(5)]
        tie = SystemConfig.from_marginals(Uniform(20, 40), Dirac(90), Pareto(5, 2), Dirac(15))
        cases.append((tie, [0.75, float(np.nextafter(0.75, 0)), float(np.nextafter(0.75, 1))]))
        weighted = apply_strategy(LayerWeightedEqual(720), Pareto(100, 5), Uniform(150, 200),
                                  CrossLayerFactors(0.2, 0.2))
        cases.append((weighted, [2 / 3, 0.5, 0.6666, 0.7]))
        solves = 0
        for cfg, ps in cases:
            for p in ps:
                p = float(p)
                assert repr(iterate_to_steady_state(p, cfg)) == \
                    repr(_reference_steady_state(p, cfg)), (cfg, p)
                solves += 1
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Dirac(1e9))
        monkeypatch.setattr(meanfield, "MAX_ITER", 2)
        assert repr(iterate_to_steady_state(0.3, cfg)) == \
            repr(_reference_steady_state(0.3, cfg))
        assert solves >= 200

    def test_no_cascade_point(self, symmetric_uniform_config):
        steady = iterate_to_steady_state(0.25, symmetric_uniform_config)
        assert steady.n_inf == 0.75
        assert (steady.x_star, steady.y_star) == (10.0, 10.0)
        assert steady.iterations == 1
        assert steady.converged

    def test_collapse_beyond_critical(self, symmetric_uniform_config):
        steady = iterate_to_steady_state(0.9, symmetric_uniform_config)
        assert steady.n_inf == 0.0
        assert steady.x_star == math.inf and steady.y_star == math.inf
        assert steady.converged

    def test_optimal_dirac_allocation_converges_in_one_round(self):
        cfg = apply_strategy(LayerWeightedEqual(720), Pareto(100, 5), Uniform(150, 200),
                             CrossLayerFactors(0.2, 0.2))
        steady = iterate_to_steady_state(0.5, cfg)
        assert steady.n_inf == pytest.approx(0.5, abs=1e-15)
        assert steady.iterations == 1
        assert steady.converged

    def test_nonconvergence_flag_propagates(self, monkeypatch):
        # a surviving multi-round cascade (15 iterations at full budget)
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Dirac(1e9))
        full = iterate_to_steady_state(0.3, cfg)
        assert full.converged and full.iterations > 5
        monkeypatch.setattr(meanfield, "MAX_ITER", 2)
        steady = iterate_to_steady_state(0.3, cfg)
        assert not steady.converged

    def test_takes_no_tuning_arguments(self, symmetric_uniform_config):
        # TOL and MAX_ITER are module constants, read at call time
        for name, value in (("tol", 1e-6), ("max_iter", 10)):
            with pytest.raises(TypeError, match=name):
                iterate_to_steady_state(0.3, symmetric_uniform_config, **{name: value})

    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10, 1e-13])
    @pytest.mark.parametrize("coupled", [False, True], ids=["inert_b", "coupled"])
    def test_stops_at_the_first_step_below_tol(self, monkeypatch, coupled, tol):
        # 6 to 20 rounds on the inert layer, 44 to 203 coupled, as tol falls
        free_b, beta = (Uniform(10, 200), 0.3) if coupled else (Dirac(1e9), 0.0)
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), free_b, beta, beta)
        p = 0.3
        monkeypatch.setattr(meanfield, "TOL", tol)
        steady = iterate_to_steady_state(p, cfg)
        assert steady.converged and not steady.collapsed and steady.iterations > 5
        mean_a, mean_b = cfg.joint.mean_loads
        eff = effective(cfg, p * mean_a / (1 - p), p * mean_b / (1 - p))
        for t in range(1, steady.iterations + 1):
            cut = solve_rounds(p, cfg, t)
            new = effective(cfg, cut.x_star, cut.y_star)
            delta = max(abs(new[0] - eff[0]), abs(new[1] - eff[1]))
            eff = (max(eff[0], new[0]), max(eff[1], new[1]))
            assert (delta < tol * (1.0 + max(eff))) == (t == steady.iterations), t
        assert cut == dataclasses.replace(steady, converged=False)

    def test_monotone_trajectory(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(25):
            cfg = random_system(rng)
            p = float(rng.uniform(0.05, 0.7))
            mean_a, mean_b = cfg.joint.mean_loads
            eff_prev = effective(cfg, p * mean_a / (1 - p), p * mean_b / (1 - p))
            n_prev = 1 - p
            for t in range(1, 61):
                steady = solve_rounds(p, cfg, t)
                if steady.collapsed:
                    break
                eff = effective(cfg, steady.x_star, steady.y_star)
                assert eff[0] >= eff_prev[0] - 1e-9 * (1 + eff_prev[0])
                assert eff[1] >= eff_prev[1] - 1e-9 * (1 + eff_prev[1])
                assert steady.n_inf <= n_prev + 1e-12
                eff_prev, n_prev = eff, steady.n_inf
                checked += 1
        assert checked > 100

    def test_steady_state_identity(self):
        rng = np.random.default_rng(22)
        found = 0
        for _ in range(30):
            cfg = random_system(rng)
            p = float(rng.uniform(0.05, 0.6))
            steady = iterate_to_steady_state(p, cfg)
            if steady.collapsed:
                continue
            found += 1
            prob = cfg.joint.joint_survival(*effective(cfg, steady.x_star, steady.y_star))
            assert steady.n_inf == pytest.approx((1 - p) * prob, rel=1e-12)
        assert found >= 10
        # The final probability comes from the solve's cursor; the identity
        # must hold for the sample-backed joints too.
        rng = np.random.default_rng(24)
        m = 50_000
        samples = np.column_stack([rng.uniform(20, 40, m), rng.uniform(5, 150, m),
                                   rng.uniform(20, 40, m), rng.uniform(5, 150, m)])
        coupled = [
            (SystemConfig(EmpiricalJoint(samples), CrossLayerFactors(0.25, 0.1)), 0.2),
            (apply_strategy(EqualToleranceFactor(s_total=720.0), Uniform(80, 100),
                            Weibull(10, 225.68, 2), CrossLayerFactors(0.2, 0.2)), 0.3),
        ]
        for cfg, p in coupled:
            steady = iterate_to_steady_state(p, cfg)
            assert not steady.collapsed and steady.iterations > 1
            prob = cfg.joint.joint_survival(*effective(cfg, steady.x_star, steady.y_star))
            assert steady.n_inf == pytest.approx((1 - p) * prob, rel=1e-12)

    def test_final_size_bounded_by_attack_survivors(self):
        # equality exactly when nothing fails beyond the attack
        rng = np.random.default_rng(23)
        for _ in range(20):
            cfg = random_system(rng)
            p = float(rng.uniform(0.05, 0.9))
            steady = iterate_to_steady_state(p, cfg)
            assert steady.n_inf <= 1 - p + 1e-15
            prob0 = cfg.joint.joint_survival(
                *effective(cfg, p * cfg.joint.mean_loads[0] / (1 - p),
                           p * cfg.joint.mean_loads[1] / (1 - p)))
            if prob0 == 1.0:
                assert steady.n_inf == 1 - p
            else:
                assert steady.n_inf < 1 - p


class TestStablePoints:
    def test_steady_state_is_stable(self, symmetric_uniform_config):
        assert stable_at(symmetric_uniform_config, 10.0, 10.0, 0.25)

    def test_origin_not_stable_under_attack(self, symmetric_uniform_config):
        assert not stable_at(symmetric_uniform_config, 0.0, 0.0, 0.25)

    def test_above_support_not_stable(self, symmetric_uniform_config):
        # effective load 75 exceeds the free-space maximum: survival is zero
        assert not stable_at(symmetric_uniform_config, 60.0, 60.0, 0.25)

    def test_fixed_point_is_minimal(self):
        rng = np.random.default_rng(24)
        found = 0
        for _ in range(30):
            cfg = random_system(rng)
            p = float(rng.uniform(0.05, 0.6))
            steady = iterate_to_steady_state(p, cfg)
            if steady.collapsed:
                continue
            found += 1
            assert stable_at(cfg, steady.x_star, steady.y_star, p)
            eps = 1e-5 * (1.0 + max(steady.x_star, steady.y_star))
            if steady.x_star > eps and steady.y_star > eps:
                assert not stable_at(cfg, steady.x_star - eps, steady.y_star - eps, p)
        assert found >= 10


class TestStableSetGrid:
    def test_region_and_minimum(self, symmetric_uniform_config):
        grid = stable_set_grid(0.25, symmetric_uniform_config, resolution=200)
        assert not grid.empty
        cell = grid.x[1] - grid.x[0]
        minimum = grid.minimum
        assert abs(minimum[0] - 10.0) <= cell
        assert abs(minimum[1] - 10.0) <= cell
        assert grid.threshold == pytest.approx(1 / 0.75)

    def test_empty_region_beyond_critical(self, symmetric_uniform_config):
        grid = stable_set_grid(0.95, symmetric_uniform_config, resolution=80)
        assert grid.empty
        assert grid.minimum is None

    def test_surfaces_do_not_depend_on_p(self, symmetric_uniform_config):
        low = stable_set_grid(0.1, symmetric_uniform_config, resolution=40)
        high = stable_set_grid(0.3, symmetric_uniform_config, resolution=40)
        assert np.allclose(low.lhs_a, high.lhs_a)
        assert np.allclose(low.lhs_b, high.lhs_b)
        assert int(low.stable.sum()) >= int(high.stable.sum())

    @pytest.mark.parametrize("sampled", [False, True], ids=["independent", "empirical"])
    def test_grid_stability_matches_pointwise(self, symmetric_uniform_config, sampled):
        cfg = sampled_copy(symmetric_uniform_config) if sampled else symmetric_uniform_config
        grid = stable_set_grid(0.25, cfg, resolution=24)
        assert 0 < int(grid.stable.sum()) < grid.stable.size
        for ix in range(0, 24, 5):
            for iy in range(0, 24, 5):
                assert grid.stable[ix, iy] == stable_at(
                    cfg, float(grid.x[ix]), float(grid.y[iy]), 0.25, rel_tol=0.0)

    def test_empirical_grid_matches_independent(self, symmetric_uniform_config):
        emp_cfg = sampled_copy(symmetric_uniform_config)
        grid_emp = stable_set_grid(0.25, emp_cfg, resolution=30, x_max=90, y_max=90)
        grid_ref = stable_set_grid(0.25, symmetric_uniform_config, resolution=30,
                                   x_max=90, y_max=90)
        assert np.max(np.abs(grid_emp.lhs_a - grid_ref.lhs_a)) < 0.02
        assert np.max(np.abs(grid_emp.lhs_b - grid_ref.lhs_b)) < 0.02

    def test_cursor_sides_need_nondecreasing_x(self, symmetric_uniform_config):
        joint = sampled_copy(symmetric_uniform_config).joint
        with pytest.raises(ValueError, match="nondecreasing"):
            joint.stability_sides([30.0, 20.0], [10.0], 0.25, 0.25)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_bad_attack_fraction(self, monkeypatch, symmetric_uniform_config, p):
        def no_sides(*args, **kwargs):
            raise AssertionError("no side may be evaluated before p is checked")
        monkeypatch.setattr(IndependentJoint, "stability_sides", no_sides)
        with pytest.raises(ValueError, match="^attack fraction p must lie strictly in"):
            stable_set_grid(p, symmetric_uniform_config, resolution=4)

    def test_invalid_arguments(self, symmetric_uniform_config):
        with pytest.raises(ValueError):
            stable_set_grid(0.25, symmetric_uniform_config, resolution=1)
        with pytest.raises(ValueError):
            stable_set_grid(0.25, symmetric_uniform_config, x_max=-5.0)

    @pytest.mark.parametrize("resolution", [2.5, True, np.float64(3.0)])
    def test_non_integer_resolution_is_rejected(self, symmetric_uniform_config, resolution):
        with pytest.raises(ValueError, match=r"\bresolution\b"):
            stable_set_grid(0.25, symmetric_uniform_config, x_max=90.0, resolution=resolution)

    def test_numpy_integer_resolution(self, symmetric_uniform_config):
        grid = stable_set_grid(0.25, symmetric_uniform_config, x_max=90.0,
                               resolution=np.int64(3))
        assert grid.x.tolist() == [15.0, 45.0, 75.0]
        assert grid.stable.shape[0] == 3

    @pytest.mark.parametrize("field", ["x_max", "y_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf")])
    def test_non_finite_extent_names_the_field(self, symmetric_uniform_config, field, value):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            stable_set_grid(0.25, symmetric_uniform_config, resolution=4, **{field: value})


class TestStabilitySidesGolden:
    """Exact bytes of the stability sides on two bundled systems.

    The digest covers ``lhs_a.tobytes() + lhs_b.tobytes()``, so any change in
    the order of their arithmetic shows; a change that means to move these
    bytes updates the digests here.  The tolerance-factor digest went from
    da77d4b9... (the sides swept over the stored sample) to 78284bb4... when
    the tolerance-factor joint's sides became exact, from the load
    marginals' partial means; no side moved by more than 8.7e-4 and no
    cell's stability changed.  The independent digest went from 021a8a7a...
    to 4b0fdcaa... when every joint's sides became the one formula
    (P * x + E[L 1]) / E[L] read from its advance, in place of the
    independent joint's P * (x + E[L]) / E[L]: only the last bits of some
    cells moved, and no cell's stability changed.
    """

    @pytest.mark.parametrize("config, system, resolution, digest", [
        ("uniform_symmetric", "uniform_symmetric", 40,
         "4b0fdcaa7dab74909ea47674350b02c29c10dea081ca41fd85f67a23f78d6301"),
        pytest.param("alloc_pareto_uniform", "equal_tolerance_factor", 8,
                     "78284bb454365cdee2811799b77a27997f225656e88d000800d2764d5fffc7fc",
                     marks=pytest.mark.dispatch_bound),
    ], ids=["uniform_symmetric", "equal_tolerance_factor"])
    def test_digest(self, config, system, resolution, digest):
        from multiflow import cli
        from multiflow.config import load_experiment

        cfg = load_experiment(cli._resolve_config_path(config)).systems[system]
        grid = stable_set_grid(0.25, cfg, resolution=resolution)
        data = grid.lhs_a.tobytes() + grid.lhs_b.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, dispatch_note()


def _tolerance_factor_system(config: str) -> SystemConfig:
    from multiflow import cli
    from multiflow.config import load_experiment

    return load_experiment(cli._resolve_config_path(config)).systems["equal_tolerance_factor"]


class TestToleranceFactorSides:
    """The tolerance-factor joint's exact stability sides and cursor, from the
    load marginals' survival and partial means, on the three bundled
    systems; its stored sample is only the reference they are checked
    against."""

    # an attack of about half of each system's p*
    SYSTEMS = {"alloc_pareto_uniform": 0.3, "alloc_uniform_weibull": 0.25,
               "alloc_weibull_pareto": 0.04}

    @pytest.fixture(scope="class", params=sorted(SYSTEMS))
    def system(self, request):
        return self.SYSTEMS[request.param], _tolerance_factor_system(request.param)

    @staticmethod
    def framed(p, cfg, resolution):
        # twice the steady state frames the stable set's least point
        steady = iterate_to_steady_state(p, cfg)
        return steady, stable_set_grid(p, cfg, x_max=2 * steady.x_star,
                                       y_max=2 * steady.y_star, resolution=resolution)

    def test_agree_with_the_stored_sample_sweep(self, system):
        _, cfg = system
        joint, beta = cfg.joint, cfg.factors
        xs = np.linspace(0.0, joint.alpha * joint.load_a.quantile(0.99), 16)
        ys = np.linspace(0.0, joint.alpha * joint.load_b.quantile(0.99), 16)
        exact = joint.stability_sides(xs, ys, beta.beta_a, beta.beta_b)
        swept = JointLoadSpace.stability_sides(joint._empirical, xs, ys,
                                               beta.beta_a, beta.beta_b)
        for got, sample in zip(exact, swept):
            assert got.shape == (16, 16)
            assert np.max(np.abs(got - sample)) < 0.02

    def test_cursor_agrees_with_the_stored_sample_cursor(self, system):
        # Each answer of the sample cursor is a mean over its m rows, so it
        # lies within 5 standard errors of the exact one; the spread of the
        # sample's first 10^5 rows estimates that error.
        _, cfg = system
        joint = cfg.joint
        reference = joint._empirical
        load_a, free_a, load_b, free_b = reference.samples[:100_000].T
        m = reference.sample_count
        xs = np.linspace(0.0, joint.alpha * joint.load_a.quantile(0.99), 12)
        ys = np.linspace(0.0, joint.alpha * joint.load_b.quantile(0.99), 12)
        exact = joint.cascade_cursor()
        for y in map(float, ys):
            # one sweep of nondecreasing x per row, as in a solve
            sampled = reference.cascade_cursor()
            for x in map(float, xs):
                alive = (free_a > x) & (free_b > y)
                got, want = exact.advance(x, y), sampled.advance(x, y)
                for value, mean, column in zip(got, want, (None, load_a, load_b)):
                    draws = alive if column is None else np.where(alive, column, 0.0)
                    error = float(draws.std()) / math.sqrt(m)
                    assert abs(value - mean) <= 5.0 * error + 1e-12, (x, y, got, want)

    def test_a_grid_builds_no_sample(self, system, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stored sample was built")

        p, cfg = system
        # a joint of its own: the shared one may have built its sample for a solve
        joint = ProportionalJoint(cfg.joint.load_a, cfg.joint.load_b, cfg.joint.alpha)
        monkeypatch.setattr(EmpiricalJoint, "_adopt", refuse)
        grid = stable_set_grid(p, SystemConfig(joint, cfg.factors), resolution=400)
        assert grid.lhs_a.shape == (400, 400)
        assert "_empirical" not in vars(joint)

    def test_solves_build_no_sample(self, system, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stored sample was built")

        p, cfg = system
        joint = ProportionalJoint(cfg.joint.load_a, cfg.joint.load_b, cfg.joint.alpha)
        fresh = SystemConfig(joint, cfg.factors)
        monkeypatch.setattr(EmpiricalJoint, "_adopt", refuse)
        result = critical_attack_size(fresh)
        assert result.lower < result.upper and not result.nonconverged
        assert iterate_to_steady_state(p, fresh).n_inf > 0.0
        assert "_empirical" not in vars(joint)

    def test_grid_matches_pointwise(self, system):
        p, cfg = system
        _, grid = self.framed(p, cfg, 24)
        assert 0 < int(grid.stable.sum()) < grid.stable.size
        for ix in range(0, 24, 3):
            for iy in range(0, 24, 3):
                assert grid.stable[ix, iy] == stable_at(
                    cfg, float(grid.x[ix]), float(grid.y[iy]), p, rel_tol=0.0)

    def test_minimum_lies_within_a_cell_of_the_solver(self, system):
        p, cfg = system
        steady, grid = self.framed(p, cfg, 100)
        x_min, y_min = grid.minimum
        assert abs(x_min - steady.x_star) <= grid.x[1] - grid.x[0]
        assert abs(y_min - steady.y_star) <= grid.y[1] - grid.y[0]

    @pytest.mark.parametrize("config, resolution", [
        ("alloc_pareto_uniform", 1600), ("alloc_uniform_weibull", 800),
        ("alloc_weibull_pareto", 800)])
    def test_the_landscape_maximum_gives_the_reference_critical_size(self, config, resolution):
        # A point is stable at p iff min(lhs_a, lhs_b) >= 1/(1-p), so the
        # grid's largest min gives p* from below; reference.json holds p*
        # from an independent oracle, bisected to 1e-7.
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        reference = json.loads(path.read_text(encoding="utf-8"))["critical"][
            f"{config}/equal_tolerance_factor"]
        cfg = _tolerance_factor_system(config)
        # just below p*, the least stable point lies next to the landscape's peak
        _, grid = self.framed(reference - 0.01, cfg, resolution)
        peak = float(np.max(np.minimum(grid.lhs_a, grid.lhs_b)))
        assert reference - 2e-3 <= 1.0 - 1.0 / peak <= reference


@pytest.mark.parametrize("config", ["alloc_pareto_uniform", "alloc_uniform_weibull",
                                    "alloc_weibull_pareto", "asymmetric_beta"])
@pytest.mark.parametrize("share", [0.3, 0.9, 1.0])
def test_the_solver_limit_of_a_tolerance_factor_is_stable(config, share):
    # The cursor and the sides evaluate one closed form, up to last-bit
    # rounding of scalar against vectorised powers, so the solver's limit
    # meets the stability sides within a relative 1e-9, up to p* itself.
    cfg = _tolerance_factor_system(config)
    p = share * critical_attack_size(cfg).lower
    steady = iterate_to_steady_state(p, cfg)
    assert steady.converged and not steady.collapsed
    assert stable_at(cfg, steady.x_star, steady.y_star, p)


class TestLayerIndependent:
    def test_final_size_factorizes(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(25, 60),
                                          Weibull(10, 20, 2), Uniform(20, 55))
        steady = iterate_to_steady_state(0.21, cfg)
        assert not steady.collapsed
        product = (1 - 0.21) * float(cfg.joint.free_a.survival(steady.x_star)) \
            * float(cfg.joint.free_b.survival(steady.y_star))
        assert steady.n_inf == pytest.approx(product, rel=1e-10)

    def test_inert_layer_reduces_to_single_layer(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(25, 60),
                                          Uniform(20, 40), Dirac(1e9))
        p = 0.5
        oracle = single_layer_recursion(p, 30.0, Uniform(25, 60))
        steady = iterate_to_steady_state(p, cfg)
        n_ref, q_ref = oracle[-1]
        assert steady.n_inf == pytest.approx(n_ref, rel=1e-10)
        assert steady.x_star == pytest.approx(q_ref, rel=1e-10)


class TestCriticalAttackSize:
    def test_bracket_is_tight(self, symmetric_uniform_config):
        result = critical_attack_size(symmetric_uniform_config)
        assert result.upper - result.lower <= 1e-4
        assert final_size(result.lower, symmetric_uniform_config) > 0
        assert final_size(result.upper, symmetric_uniform_config) == 0
        assert not result.degenerate

    def test_identical_dirac_layers_match_budget_ratio(self):
        # beta = 0, both layers identical, Dirac free space: the critical
        # size is mean free space over mean capacity.
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Dirac(50),
                                          Uniform(20, 40), Dirac(50))
        result = critical_attack_size(cfg)
        assert result.p_hat == pytest.approx(50 / 80, abs=1e-4)

    def test_degenerate_system(self):
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Dirac(1e-3),
                                          Uniform(20, 40), Dirac(1e-3))
        result = critical_attack_size(cfg)
        assert result.degenerate
        assert result.p_hat == 0.0

    @pytest.mark.parametrize("tol_p", [math.nan, math.inf, 0.0, -1e-4, 0.5, 0.7])
    def test_invalid_tol_p_names_the_field(self, symmetric_uniform_config, tol_p):
        with pytest.raises(ValueError, match=r"^tol_p\b"):
            critical_attack_size(symmetric_uniform_config, tol_p=tol_p)

    @pytest.mark.parametrize("tol_p", [1e-4, 1e-3, 0.3])
    def test_the_smallest_attack_is_solved_once(self, symmetric_uniform_config,
                                                monkeypatch, tol_p):
        solved = []
        solve = meanfield.iterate_to_steady_state
        monkeypatch.setattr(meanfield, "iterate_to_steady_state",
                            lambda p, cfg: solved.append(p) or solve(p, cfg))
        result = critical_attack_size(symmetric_uniform_config, tol_p=tol_p)
        assert solved.count(tol_p) == 1
        assert len(solved) == 1 + math.ceil(math.log2((1 - tol_p) / tol_p))
        assert result.nonconverged == 0

    def test_a_tol_p_below_the_spacing_of_doubles_stops(self, monkeypatch):
        # p* = 2/3 here; once the bracket's ends are adjacent doubles, their
        # midpoint rounds onto one of them and the bracket would stop moving
        cfg = apply_strategy(LayerWeightedEqual(720), Pareto(100, 5), Uniform(150, 200),
                             CrossLayerFactors(0.2, 0.2))
        solved = []
        solve = meanfield.iterate_to_steady_state

        def counted(p, cfg):
            solved.append(p)
            if len(solved) > 200:
                raise AssertionError("the bisection does not stop")
            return solve(p, cfg)

        monkeypatch.setattr(meanfield, "iterate_to_steady_state", counted)
        result = critical_attack_size(cfg, tol_p=1e-16)
        assert math.nextafter(result.lower, 1.0) == result.upper
        assert len(solved) <= 1 + math.ceil(math.log2((1 - 1e-16) / 1e-16))
        assert result.lower <= 2 / 3 <= result.upper

    @pytest.mark.parametrize("failing", [0, 5])
    def test_a_nonconverged_solve_is_counted(self, symmetric_uniform_config,
                                             monkeypatch, failing):
        # the solve still decides its step, so the bracket is the same; only
        # the count tells that one solve was cut at MAX_ITER
        expected = critical_attack_size(symmetric_uniform_config)
        solves = []
        solve = meanfield.iterate_to_steady_state

        def flaky(p, cfg):
            steady = solve(p, cfg)
            solves.append(p)
            return (dataclasses.replace(steady, converged=False)
                    if len(solves) == failing + 1 else steady)

        monkeypatch.setattr(meanfield, "iterate_to_steady_state", flaky)
        result = critical_attack_size(symmetric_uniform_config)
        assert result.nonconverged == 1
        assert (result.p_hat, result.lower, result.upper) == \
            (expected.p_hat, expected.lower, expected.upper)
        assert "nonconverged" not in repr(result)

    def test_a_cut_collapse_can_move_the_bracket(self, monkeypatch):
        # At full budget the bisection's last solve, p = 0.30441, collapses in
        # round 129.  Cut at round 100 it still reads survivors, so the
        # bracket moves past the critical size; only the count flags it.
        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(10, 200),
                                          Uniform(20, 40), Uniform(10, 200), 0.3, 0.3)
        full = critical_attack_size(cfg, tol_p=1e-3)
        assert full.nonconverged == 0
        monkeypatch.setattr(meanfield, "MAX_ITER", 100)
        cut = critical_attack_size(cfg, tol_p=1e-3)
        assert cut.nonconverged == 4
        assert cut.lower == full.upper

    def test_survival_switches_off_once(self):
        # The stability sides do not depend on p and the threshold 1/(1-p)
        # rises with it, so n_inf(p) > 0 can only turn false once; the
        # bisection relies on that in place of a scan.
        rng = np.random.default_rng(14)
        systems = [random_system(rng) for _ in range(40)]
        systems += [sampled_copy(random_system(rng)) for _ in range(2)]
        grid = np.linspace(0.01, 0.99, 99)
        families = set()
        for cfg in systems:
            if isinstance(cfg.joint, IndependentJoint):
                families.update(type(m).__name__ for m in (cfg.joint.free_a, cfg.joint.free_b))
            alive = [final_size(float(p), cfg) > 0 for p in grid]
            assert alive == sorted(alive, reverse=True)
            result = critical_attack_size(cfg)
            if result.degenerate:
                assert not any(alive)
                continue
            assert result.upper - result.lower <= 1e-4
            assert final_size(result.lower, cfg) > 0
            assert result.upper == 1.0 or final_size(result.upper, cfg) == 0
        assert families == {"Uniform", "Pareto", "Weibull", "Dirac"}

    def test_brackets_contain_the_reference_critical_sizes(self):
        # perfbench/reference.json holds p* of the bundled closed-form systems
        # from an independent oracle, bisected to 1e-7.
        import json
        from pathlib import Path

        from multiflow import cli
        from multiflow.config import load_experiment

        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        reference = json.loads(path.read_text(encoding="utf-8"))["critical"]
        checked = 0
        for config in ("uniform_symmetric", "mixed_families", "beta_sweep",
                       "alloc_pareto_uniform", "alloc_uniform_weibull", "alloc_weibull_pareto"):
            spec = load_experiment(cli._resolve_config_path(config))
            for name, cfg in spec.systems.items():
                if f"{config}/{name}" not in reference:
                    continue  # a Dirac allocation, whose p* sits on its boundary
                result = critical_attack_size(cfg)
                assert result.lower <= reference[f"{config}/{name}"] <= result.upper, name
                checked += 1
        assert checked == 11

    def test_float_protocol(self, symmetric_uniform_config):
        result = critical_attack_size(symmetric_uniform_config, tol_p=1e-3)
        assert float(result) == result.p_hat

    def test_matches_simulated_collapse_point(self):
        # localize the finite-N collapse by bisection on one 10^5-node
        # population and compare with the mean-field estimate
        from multiflow import build_population, run_cascade

        cfg = SystemConfig.from_marginals(Uniform(20, 40), Uniform(25, 75),
                                          Uniform(20, 40), Uniform(25, 75),
                                          beta_a=0.1, beta_b=0.1)
        predicted = critical_attack_size(cfg).p_hat
        pop = build_population(cfg, 100_000, seed=77)
        lo, hi = 0.2, 0.8
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            outcome = run_cascade(pop, mid, cfg.factors, attack_seed=78)
            if outcome.surviving_fraction > 0.005:
                lo = mid
            else:
                hi = mid
        simulated = 0.5 * (lo + hi)
        assert predicted == pytest.approx(simulated, abs=0.01)


class TestStoredSampleGolden:
    """Exact outputs of the tolerance-factor system's stored sample, solved as
    an empirical joint: the sample-backed reference the exact cursor
    replaced, which answered every solve until then.

    Any change to the sample, the cursor's sweep or its summation order moves
    these last bits; a change that means to move them updates them here.
    """

    @pytest.fixture(scope="class")
    def cfg(self):
        cfg = _tolerance_factor_system("alloc_pareto_uniform")
        return SystemConfig(cfg.joint._empirical, cfg.factors)

    def test_critical_attack_size(self, cfg):
        assert repr(critical_attack_size(cfg)) == (
            "CriticalAttackResult(p_hat=0.6000461029052734, lower=0.6000155883789062, "
            "upper=0.6000766174316405, degenerate=False)")

    @pytest.mark.parametrize("p, expected", [
        (0.3, "SteadyState(n_inf=0.7, x_star=53.56337007835949, "
              "y_star=75.0002864581338, iterations=1, converged=True)"),
        (0.6000166137695312, "SteadyState(n_inf=0.3999833862304688, "
                             "x_star=187.48477336829703, y_star=262.5191747380664, "
                             "iterations=1, converged=True)"),
        (0.60004, "SteadyState(n_inf=0.0, x_star=inf, y_star=inf, "
                  "iterations=6, converged=True)"),
    ])
    def test_final_size(self, cfg, p, expected):
        steady = iterate_to_steady_state(p, cfg)
        assert repr(steady) == expected
        assert repr(final_size(p, cfg)) == repr(steady.n_inf)


class TestExactToleranceFactorGolden:
    """Exact outputs of the same tolerance-factor system from its closed-form
    cursor.  The exact p* is 0.6: at p = 0.6 the least stable point puts
    layer A's load threshold on the Pareto minimum, where every node still
    survives, and any larger attack collapses the system."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return _tolerance_factor_system("alloc_pareto_uniform")

    def test_critical_attack_size(self, cfg):
        assert repr(critical_attack_size(cfg)) == (
            "CriticalAttackResult(p_hat=0.599985073852539, lower=0.5999545593261718, "
            "upper=0.6000155883789062, degenerate=False)")

    @pytest.mark.parametrize("p, expected", [
        (0.3, "SteadyState(n_inf=0.7, x_star=53.57142857142858, "
              "y_star=75.00000000000003, iterations=1, converged=True)"),
        (0.6, "SteadyState(n_inf=0.4, x_star=187.5, y_star=262.5, "
              "iterations=1, converged=True)"),
        (0.60001, "SteadyState(n_inf=0.0, x_star=inf, y_star=inf, "
                  "iterations=6, converged=True)"),
    ])
    def test_final_size(self, cfg, p, expected):
        assert repr(iterate_to_steady_state(p, cfg)) == expected


class TestValidation:
    def test_cross_layer_factors(self):
        with pytest.raises(ValueError):
            CrossLayerFactors(-0.1, 0.0)
        with pytest.raises(ValueError):
            CrossLayerFactors(0.1, math.inf)
        assert CrossLayerFactors().beta_a == 0.0

    def test_effective_loads(self):
        # At p = 1/2 the attack leaves q = E[L] = (30, 60), so the effective
        # excess is (30 + 0.25 * 60, 60 + 0.5 * 30) = (45, 75).  Dirac free
        # spaces just above it survive, and one on it fails.
        above_a, above_b = np.nextafter(45.0, math.inf), np.nextafter(75.0, math.inf)
        for free_a, free_b, n_inf in ((above_a, above_b, 0.5), (45.0, above_b, 0.0),
                                      (above_a, 75.0, 0.0)):
            cfg = SystemConfig(
                IndependentJoint(Uniform(20, 40), Dirac(free_a), Uniform(50, 70), Dirac(free_b)),
                CrossLayerFactors(0.5, 0.25))
            assert final_size(0.5, cfg) == n_inf


class TestIntegerArguments:
    """``resolution`` follows the one integer rule: a bool or a non-integral
    value fails with a ValueError that names the argument, before anything
    is solved, and a numpy integer counts as the int."""

    CALLS = {
        "resolution": lambda cfg, value: stable_set_grid(
            0.25, cfg, x_max=90.0, resolution=value).lhs_a.tolist(),
    }

    @pytest.mark.parametrize("value", [True, 2.5, np.float64(3.0), "3"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_before_solving(self, monkeypatch, symmetric_uniform_config, name, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("nothing may be solved before the arguments are checked")
        monkeypatch.setattr(IndependentJoint, "cascade_cursor", no_solve)
        monkeypatch.setattr(IndependentJoint, "stability_sides", no_solve)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got"):
            self.CALLS[name](symmetric_uniform_config, value)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_accepts_numpy_integers(self, symmetric_uniform_config, name):
        call = self.CALLS[name]
        assert call(symmetric_uniform_config, np.int64(3)) == call(symmetric_uniform_config, 3)


class TestRealArguments:
    """Real-valued arguments follow the one real-number rule: a bool or a
    non-number fails with a ValueError that names the argument, before
    anything is solved, and a numpy float counts as the equal Python float."""

    CALLS = {
        "attack fraction p": lambda cfg, value: stable_set_grid(
            value, cfg, resolution=4).threshold,
        "beta_a": lambda cfg, value: CrossLayerFactors(value, 0.0),
        "beta_b": lambda cfg, value: CrossLayerFactors(0.0, value),
        "tol_p": lambda cfg, value: critical_attack_size(cfg, tol_p=value),
        "x_max": lambda cfg, value: stable_set_grid(
            0.25, cfg, x_max=value, resolution=4).lhs_a.tolist(),
        "y_max": lambda cfg, value: stable_set_grid(
            0.25, cfg, y_max=value, resolution=4).lhs_b.tolist(),
    }

    # None is the grid extents' default, the free-space cap, so it is no error there.
    BAD = [(name, value, type_name) for name in sorted(CALLS)
           for value, type_name in ((True, "bool"), (np.bool_(True), "bool"), ("0.2", "str"),
                                    (None, "NoneType"))
           if not (value is None and name.endswith("_max"))]

    @pytest.mark.parametrize("name, value, type_name", BAD,
                             ids=[f"{name}={value!r}" for name, value, _ in BAD])
    def test_rejects_before_solving(self, monkeypatch, symmetric_uniform_config, name,
                                    value, type_name):
        def no_solve(*args, **kwargs):
            raise AssertionError("nothing may be solved before the arguments are checked")
        monkeypatch.setattr(IndependentJoint, "cascade_cursor", no_solve)
        monkeypatch.setattr(IndependentJoint, "stability_sides", no_solve)
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {type_name}$"):
            self.CALLS[name](symmetric_uniform_config, value)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_accepts_numpy_floats(self, symmetric_uniform_config, name):
        call = self.CALLS[name]
        assert call(symmetric_uniform_config, np.float32(0.25)) == call(
            symmetric_uniform_config, 0.25)

    def test_factors_are_stored_as_floats(self):
        factors = CrossLayerFactors(np.float32(0.25), 1)
        assert factors == CrossLayerFactors(0.25, 1.0)
        assert type(factors.beta_a) is float and type(factors.beta_b) is float
