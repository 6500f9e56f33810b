from __future__ import annotations

import hashlib
import inspect
import json
import math
import pickle
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from multiflow import distributions
from multiflow import (
    Dirac,
    EmpiricalJoint,
    IndependentJoint,
    Pareto,
    Population,
    ProportionalJoint,
    Uniform,
    Weibull,
)
from multiflow.config import ConfigError, parse_experiment
from helpers import dispatch_note, kolmogorov_statistic, random_marginal


# Densities written out independently of the library, for quadrature oracles.
def uniform_pdf(dist: Uniform):
    return lambda x: 1.0 / (dist.high - dist.low) if dist.low <= x <= dist.high else 0.0


def pareto_pdf(dist: Pareto):
    m, b = dist.minimum, dist.shape
    return lambda x: b * m ** b * x ** (-b - 1.0) if x >= m else 0.0


def weibull_pdf(dist: Weibull):
    m, lam, k = dist.minimum, dist.scale, dist.shape
    def pdf(x):
        if x < m:
            return 0.0
        z = (x - m) / lam
        return (k / lam) * z ** (k - 1.0) * math.exp(-(z ** k))
    return pdf


def quad_mean(pdf, lower, upper) -> float:
    value, err = integrate.quad(lambda x: x * pdf(x), lower, upper, limit=200)
    assert err < 1e-4
    return value


class TestMean:
    def test_uniform_frozen(self):
        assert Uniform(20, 40).mean() == 30.0

    def test_dirac_frozen(self):
        assert Dirac(360).mean() == 360.0

    def test_pareto_against_quadrature(self):
        dist = Pareto(100, 5)
        oracle = quad_mean(pareto_pdf(dist), 100, np.inf)
        assert oracle == pytest.approx(125.0, rel=1e-7)
        assert dist.mean() == pytest.approx(oracle, rel=1e-7)

    def test_weibull_against_quadrature(self):
        dist = Weibull(10, 225.68, 2)
        oracle = quad_mean(weibull_pdf(dist), 10, np.inf)
        assert dist.mean() == pytest.approx(oracle, rel=1e-6)
        # 10 + 225.68 * gamma(1.5); the scale targets a mean of 210
        assert dist.mean() == pytest.approx(210.0, abs=0.01)

    def test_uniform_against_quadrature(self):
        dist = Uniform(25, 75)
        assert dist.mean() == pytest.approx(quad_mean(uniform_pdf(dist), 25, 75), rel=1e-12)

    def test_pareto_undefined_mean_rejected(self):
        for shape in (1.0, 0.7):
            with pytest.raises(ValueError, match=rf"^pareto requires shape b > 1 for a finite "
                                                 rf"mean, got {shape}$"):
                Pareto(5, shape)


class TestSurvival:
    def test_uniform_below_support(self):
        assert Uniform(25, 75).survival(12.5) == 1.0

    def test_uniform_midpoint(self):
        assert Uniform(25, 75).survival(50) == 0.5

    def test_weibull_at_support_minimum(self):
        assert Weibull(10, 10.78, 6).survival(10) == 1.0

    def test_pareto_closed_form_and_monte_carlo(self):
        dist = Pareto(5, 2)
        assert dist.survival(10) == 0.25
        # independent sampler: numpy's Lomax shifted into the classical form
        rng = np.random.default_rng(101)
        samples = 5.0 * (1.0 + rng.pareto(2.0, size=10_000_000))
        estimate = np.mean(samples > 10.0)
        assert estimate == pytest.approx(0.25, abs=3 * 1.4e-4)

    def test_dirac_strict_inequality(self):
        dist = Dirac(50)
        assert dist.survival(49.999) == 1.0
        assert dist.survival(50.0) == 0.0  # the mass at the threshold does not survive
        assert dist.survival(50.001) == 0.0

    def test_support_endpoints(self):
        assert Uniform(25, 75).survival(25) == 1.0
        assert Uniform(25, 75).survival(75) == 0.0
        assert Pareto(5, 2).survival(5) == 1.0
        assert Weibull(10, 3, 2).survival(np.inf) == 0.0

    @given(st.floats(0, 200), st.floats(0, 200))
    def test_monotone_nonincreasing(self, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        for dist in (Uniform(25, 75), Pareto(5, 2), Weibull(10, 30, 0.7), Dirac(80)):
            s_lo, s_hi = dist.survival(lo), dist.survival(hi)
            assert 0.0 <= s_hi <= s_lo <= 1.0


def _reference_formulas(dist):
    """The marginal formulas as each family wrote them before the base class
    took over conversion: (survival, quantile, support cap)."""
    if isinstance(dist, Uniform):
        return (lambda x: np.clip((dist.high - x) / (dist.high - dist.low), 0.0, 1.0),
                lambda u: dist.low + u * (dist.high - dist.low), dist.high)
    if isinstance(dist, Pareto):
        quantile = lambda u: dist.minimum * (1.0 - u) ** (-1.0 / dist.shape)  # noqa: E731
        return (lambda x: (dist.minimum / np.maximum(x, dist.minimum)) ** dist.shape,
                quantile, float(quantile(np.asarray(0.9999))))
    if isinstance(dist, Weibull):
        quantile = lambda u: (dist.minimum  # noqa: E731
                              + dist.scale * (-np.log1p(-u)) ** (1.0 / dist.shape))
        return (lambda x: np.exp(-((np.maximum(x - dist.minimum, 0.0) / dist.scale)
                                   ** dist.shape)),
                quantile, float(quantile(np.asarray(0.9999))))
    return (lambda x: np.where(x < dist.value, 1.0, 0.0),
            lambda u: np.full(np.shape(u), dist.value), dist.value)


def _call(dist) -> str:
    """A marginal as a short constructor call, e.g. ``Dirac(value=50)``."""
    args = ", ".join(f"{f.name}={getattr(dist, f.name):g}" for f in fields(dist))
    return f"{type(dist).__name__}({args})"


class TestMarginalBaseRules:
    """Conversion, scalar results and the support cap live in the base class;
    the families' outputs are those of their own formulas, bit for bit."""

    FAMILIES = [Uniform(25, 75), Uniform(0.5, 1.5), Pareto(5, 2), Pareto(100, 5),
                Weibull(10, 30, 0.7), Weibull(0, 1, 3), Dirac(50), Dirac(0.25)]

    @pytest.mark.parametrize("dist", FAMILIES, ids=_call)
    def test_fields_are_stored_as_floats(self, dist):
        for field in fields(dist):
            assert type(getattr(dist, field.name)) is float
        assert type(dist.support_cap()) is float
        assert dist.quantile(np.array([0.25, 0.5])).dtype == np.float64
        assert dist.survival(np.array([1, 2])).dtype == np.float64
        args = [np.int64(getattr(dist, f.name)) if getattr(dist, f.name).is_integer()
                else np.float32(getattr(dist, f.name)) for f in fields(dist)]
        numpy_built = type(dist)(*args)
        assert all(type(getattr(numpy_built, f.name)) is float for f in fields(dist))
        assert numpy_built == type(dist)(*(float(a) for a in args))

    def test_a_non_numeric_field_is_named(self):
        with pytest.raises(ValueError, match="^uniform high must be a real number, got str$"):
            Uniform(25, "75")

    @pytest.mark.parametrize("build, message", [
        (lambda: Uniform(True, 3), "uniform low must be a real number, got bool"),
        (lambda: Pareto(5, np.bool_(True)), "pareto shape must be a real number, got bool"),
        (lambda: Weibull(10, True, 2), "weibull scale must be a real number, got bool"),
        (lambda: Dirac(True), "dirac value must be a real number, got bool"),
    ], ids=["uniform", "pareto", "weibull", "dirac"])
    def test_a_bool_field_is_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("dist", FAMILIES, ids=_call)
    def test_outputs_equal_the_family_formulas(self, dist):
        survival, quantile, cap = _reference_formulas(dist)
        rng = np.random.default_rng(17)
        xs = np.concatenate([rng.uniform(0.0, 2.0 * cap, 200),
                             [0.0, cap, np.nextafter(cap, 0.0), np.nextafter(cap, np.inf),
                              np.inf]])
        us = np.concatenate([rng.random(200), [0.0, 0.5, 0.9999]])
        for got, want in ((dist.survival(xs), survival(xs)),
                          (dist.survival(xs.reshape(5, 41)), survival(xs.reshape(5, 41))),
                          (dist.survival(list(xs)), survival(xs)),
                          (dist.quantile(us), quantile(us))):
            assert isinstance(got, np.ndarray)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for x in list(xs[:20]) + [cap, int(cap), np.float32(cap), np.float64(cap)]:
            got = dist.survival(x)
            assert type(got) is float
            assert got == float(survival(np.asarray(x, dtype=float)))
        for u in list(us[:20]) + [0, np.float64(0.5)]:
            got = dist.quantile(u)
            assert type(got) is float
            assert got == float(quantile(np.asarray(u, dtype=float)))

    @pytest.mark.parametrize("dist", FAMILIES, ids=_call)
    def test_support_cap(self, dist):
        assert dist.support_cap() == _reference_formulas(dist)[2]
        assert not hasattr(dist, "upper_bound")

    def test_dirac_at_exactly_its_value(self):
        dist = Dirac(50)
        assert dist.survival(50) == 0.0 and type(dist.survival(50)) is float
        assert dist.survival(np.array([49.0, 50.0, 51.0])).tolist() == [1.0, 0.0, 0.0]
        assert dist.quantile(np.zeros((2, 3))).tolist() == [[50.0] * 3] * 2
        assert dist.support_cap() == 50.0

    def test_joint_caps_read_the_marginal_caps(self):
        joint = IndependentJoint(Uniform(20, 40), Pareto(5, 2), Uniform(20, 40), Dirac(80))
        assert joint.free_space_cap() == max(_reference_formulas(Pareto(5, 2))[2], 80.0)
        coupled = ProportionalJoint(Uniform(20, 40), Weibull(10, 30, 0.7), 2.4)
        assert coupled.free_space_cap() == \
            2.4 * max(40.0, _reference_formulas(Weibull(10, 30, 0.7))[2])
        assert not hasattr(distributions, "support_cap")


def _bits(value) -> int:
    return int(np.asarray(value, dtype=np.float64).view(np.int64))


class TestFloatSurvival:
    """A Python float takes the family's ``_survival_float``, whose bits are
    those of ``_survival`` on a 0-d array, the path every scalar took before.
    The solver's results rest on these bits.  (On whole arrays numpy's
    vectorised power may round Pareto and Weibull differently; arrays keep
    their own path.)"""

    EDGES = [0.0, -0.0, 1e300, math.inf, -math.inf, math.nan, -math.nan]
    # integral shapes, where C pow and Python's ** treat a NaN base apart
    FIXED = {"uniform": [], "dirac": [], "pareto": [Pareto(5, 2), Pareto(5, 3)],
             "weibull": [Weibull(0, 1, 1), Weibull(2, 3, 2), Weibull(0, 1e-3, 3)]}

    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac"])
    def test_bit_identical_to_the_array_formula(self, family):
        rng = np.random.default_rng(["uniform", "pareto", "weibull", "dirac"].index(family))
        dists = [random_marginal(rng, scale=float(rng.uniform(0.5, 200.0)), families=(family,))
                 for _ in range(50)] + self.FIXED[family]
        for dist in dists:
            low, cap = dist.quantile(0.0), dist.support_cap()
            xs = [float(x) for x in rng.uniform(0.0, 2.0 * cap, 200)]
            xs += [low, cap] + [float(np.nextafter(v, d)) for v in (low, cap)
                                for d in (-math.inf, math.inf)] + self.EDGES
            for x in xs:
                with np.errstate(over="ignore"):  # Weibull at 1e300
                    want = dist._survival(np.asarray(x))
                    got = dist._survival_float(x)
                    public = dist.survival(x)
                assert type(got) is float
                assert _bits(got) == _bits(want), (dist, x, got, float(want))
                assert _bits(public) == _bits(want), (dist, x)

    def test_dirac_value_does_not_survive(self):
        dist = Dirac(37.5)
        assert dist._survival_float(37.5) == 0.0
        assert dist._survival_float(float(np.nextafter(37.5, 0.0))) == 1.0

    def test_python_and_numpy_doubles_take_the_float_path(self, monkeypatch):
        dist = Pareto(5, 2.5)
        # a float64 reaches the float path as a Python float
        monkeypatch.setattr(Pareto, "_survival_float",
                            lambda self, x: -1.0 if type(x) is float else -2.0)
        for x in (7.0, np.float64(7.0)):
            assert dist.survival(x) == -1.0, repr(x)
        for x in (7, np.float32(7.0), np.asarray(7.0)):
            assert dist.survival(x) == float(dist._survival(np.asarray(7.0))), repr(x)


class TestPartialMean:
    """M(t) = E[X 1{X > t}] of every family against scipy: quadrature of the
    densities above, and ``special.gammaincc`` for the shifted Weibull, whose
    partial mean is min * S(t) + lambda * Gamma(1 + 1/k, z^k)."""

    @staticmethod
    def weibull_oracle(dist: Weibull, t: float) -> float:
        a = 1.0 + 1.0 / dist.shape
        power = (max(t - dist.minimum, 0.0) / dist.scale) ** dist.shape
        return (dist.minimum * math.exp(-power)
                + dist.scale * special.gammaincc(a, power) * special.gamma(a))

    @pytest.mark.parametrize("dist, pdf, upper", [
        (Uniform(20, 40), uniform_pdf, 40.0),
        (Pareto(5, 2), pareto_pdf, math.inf),
        (Pareto(100, 5), pareto_pdf, math.inf),
        (Weibull(10, 84.25, 0.4), weibull_pdf, math.inf),
        (Weibull(10, 30, 2), weibull_pdf, math.inf),
        (Weibull(10, 10.78, 6), weibull_pdf, math.inf),
    ], ids=["uniform", "pareto2", "pareto5", "weibull0.4", "weibull2", "weibull6"])
    def test_against_quadrature(self, dist, pdf, upper):
        low = dist.quantile(0.0)
        # below, at and inside the support, and above its upper end or far in the tail
        for t in (0.0, low - 1.0, low, dist.quantile(0.2), dist.quantile(0.5),
                  dist.quantile(0.95), dist.support_cap(), 2.0 * dist.support_cap()):
            # the body up to the support cap and the tail beyond it apart, so
            # that k = 0.4's singular density at the minimum integrates cleanly
            expected = 0.0
            cuts = sorted({max(low, t), max(dist.support_cap(), t), upper})
            for lower, higher in zip(cuts, cuts[1:]):
                value, err = integrate.quad(lambda x: x * pdf(dist)(x), lower, higher,
                                            limit=400, epsabs=1e-10, epsrel=1e-10)
                assert err < 1e-6 * max(1.0, value)
                expected += value
            got = dist.partial_mean(t)
            assert type(got) is float
            assert got == pytest.approx(expected, rel=1e-7, abs=1e-9), (dist, t)
        assert dist.partial_mean(low - 1.0) == pytest.approx(dist.mean(), rel=1e-12)

    @pytest.mark.parametrize("shape", [0.4, 2.0, 6.0, 1.0, 12.0])
    def test_weibull_against_the_incomplete_gamma(self, shape):
        dist = Weibull(10, 84.25 if shape == 0.4 else 30.0, shape)
        ts = np.concatenate([[0.0, 10.0, np.nextafter(10.0, np.inf)],
                             np.linspace(10.0, dist.quantile(1 - 1e-12), 400)])
        got = dist.partial_mean(ts)
        expected = np.array([self.weibull_oracle(dist, float(t)) for t in ts])
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
        # z = 0: the whole mean, min + lambda * Gamma(1 + 1/k)
        assert got[0] == got[1] == pytest.approx(dist.mean(), rel=1e-14)

    @pytest.mark.parametrize("a", [7 / 6, 1.5, 3.5, 1.0 + 1 / 0.05])
    def test_upper_gamma_against_gammaincc(self, a):
        rng = np.random.default_rng(int(10 * a))
        x = np.concatenate([rng.uniform(0.0, 3.0 * a + 10.0, 5000),
                            [1e-300, 1e-8, a + 1.0, np.nextafter(a + 1.0, 0.0), 50.0, 600.0]])
        expected = special.gammaincc(a, x) * special.gamma(a)
        got = distributions._upper_gamma(a, x)
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
        assert distributions._upper_gamma(a, np.array([0.0, np.inf])).tolist() == \
            [math.gamma(a), 0.0]

    def test_underflow_far_in_the_tail_is_zero_without_a_warning(self):
        # underflow itself is silent under numpy's defaults, as in ``survival``
        with np.errstate(divide="raise", over="raise", invalid="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            for dist in (Weibull(10, 84.25, 0.4), Weibull(10, 30, 2), Weibull(0, 1, 6)):
                # z^k from 1e3 to 1e100: the prefix x^a e^-x underflows
                ts = dist.minimum + dist.scale * np.logspace(3, 100, 30) ** (1 / dist.shape)
                got = dist.partial_mean(ts)
                assert not np.isnan(got).any()
                assert np.all(got >= 0.0) and np.all(got[5:] == 0.0)
            for dist in (Uniform(20, 40), Pareto(5, 2), Weibull(10, 30, 2), Dirac(30)):
                assert dist.partial_mean(math.inf) == 0.0

    def test_dirac_mass_does_not_count_at_its_value(self):
        dist = Dirac(37.5)
        assert dist.partial_mean(37.5) == 0.0
        assert dist.partial_mean(float(np.nextafter(37.5, 0.0))) == 37.5
        assert dist.partial_mean(40.0) == 0.0
        assert dist.partial_mean(0.0) == 37.5

    @pytest.mark.parametrize("dist", [Uniform(20, 40), Pareto(5, 2), Weibull(10, 84.25, 0.4),
                                      Weibull(10, 30, 2), Dirac(30)], ids=repr)
    def test_scalars_and_arrays_agree(self, dist):
        ts = np.linspace(0.0, 2.0 * dist.support_cap(), 41)
        array = dist.partial_mean(ts)
        assert isinstance(array, np.ndarray) and array.shape == ts.shape
        grid = dist.partial_mean(ts.reshape(41, 1))
        assert grid.shape == (41, 1) and np.array_equal(grid.ravel(), array)
        for t, value in zip(ts, array):
            for scalar in (float(t), np.float64(t), np.asarray(t)):
                got = dist.partial_mean(scalar)
                assert type(got) is float and got == value, (dist, t)
        assert dist.partial_mean([1.0, 2.0]).tolist() == [dist.partial_mean(1.0),
                                                          dist.partial_mean(2.0)]
        # nonincreasing in t, from the mean down to 0
        assert np.all(np.diff(array) <= 1e-12 * dist.mean())


class TestFloatPartialMean:
    """A Python float takes the family's ``_partial_mean_float``, whose bits
    are those of ``_partial_mean`` on a 0-d array; for the Weibull that
    includes ``_upper_gamma_float`` against the array ``_upper_gamma``."""

    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac"])
    def test_bit_identical_to_the_array_formula(self, family):
        rng = np.random.default_rng(10 + ["uniform", "pareto", "weibull", "dirac"].index(family))
        dists = [random_marginal(rng, scale=float(rng.uniform(0.5, 200.0)), families=(family,))
                 for _ in range(40)] + TestFloatSurvival.FIXED[family]
        for dist in dists:
            low, cap = dist.quantile(0.0), dist.support_cap()
            ts = [float(t) for t in rng.uniform(0.0, 2.0 * cap, 100)]
            # below, at and next to the support's ends, far out, and the edges
            ts += [low, cap, 1e6 * cap] + [float(np.nextafter(v, d)) for v in (low, cap)
                                           for d in (-math.inf, math.inf)]
            ts += TestFloatSurvival.EDGES
            for t in ts:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = dist._partial_mean(np.asarray(t))
                    got = dist._partial_mean_float(t)
                    public = dist.partial_mean(t)
                assert type(got) is float and type(public) is float
                assert _bits(got) == _bits(want), (dist, t, got, float(want))
                assert _bits(public) == _bits(want), (dist, t)

    @pytest.mark.parametrize("dist", [Weibull(10, 84.25, 0.4), Weibull(10, 30, 2),
                                      Weibull(0, 1, 1), Weibull(2, 3, 6)], ids=repr)
    def test_weibull_covers_both_gamma_branches_and_the_ends(self, dist):
        a = 1.0 + 1.0 / dist.shape
        # z^k below a + 1 takes the series, from a + 1 on the fraction
        powers = [1e-300, 1e-8, 0.5 * a, float(np.nextafter(a + 1.0, 0.0)), a + 1.0,
                  2.0 * a + 5.0, 50.0, 800.0]
        ts = [dist.minimum + dist.scale * z ** (1.0 / dist.shape) for z in powers]
        for t in ts + [0.0, dist.minimum, math.inf]:
            want = dist._partial_mean(np.asarray(t))
            assert _bits(dist.partial_mean(t)) == _bits(want), (dist, t)
        assert dist.partial_mean(0.0) == dist.partial_mean(dist.minimum)
        assert dist.partial_mean(math.inf) == 0.0
        for x in powers + [0.0, math.inf]:
            want = distributions._upper_gamma(a, np.asarray(x))
            assert _bits(distributions._upper_gamma_float(a, x)) == _bits(want), (a, x)

    def test_python_and_numpy_doubles_take_the_float_path(self, monkeypatch):
        dist = Weibull(10, 30, 2)
        monkeypatch.setattr(Weibull, "_partial_mean_float",
                            lambda self, t: -1.0 if type(t) is float else -2.0)
        for t in (40.0, np.float64(40.0)):
            assert dist.partial_mean(t) == -1.0, repr(t)
        for t in (40, np.float32(40.0), np.asarray(40.0)):
            assert dist.partial_mean(t) == float(dist._partial_mean(np.asarray(40.0))), repr(t)

    @pytest.mark.parametrize("family", ["uniform", "pareto", "weibull", "dirac"])
    def test_a_float64_gives_the_python_float_bits(self, family, monkeypatch):
        rng = np.random.default_rng(30 + ["uniform", "pareto", "weibull", "dirac"].index(family))
        dists = [random_marginal(rng, scale=float(rng.uniform(0.5, 200.0)), families=(family,))
                 for _ in range(10)] + TestFloatSurvival.FIXED[family]
        points = [(dist, float(t)) for dist in dists
                  for t in [*rng.uniform(0.0, 2.0 * dist.support_cap(), 20),
                            dist.quantile(0.0), *TestFloatSurvival.EDGES]]
        with np.errstate(over="ignore", invalid="ignore"):
            want = [(dist.survival(t), dist.partial_mean(t)) for dist, t in points]

        def refuse(self, x):
            raise AssertionError("a float64 left the float path")
        monkeypatch.setattr(type(dists[0]), "_survival", refuse)
        monkeypatch.setattr(type(dists[0]), "_partial_mean", refuse)
        for (dist, t), (survival, partial) in zip(points, want):
            with np.errstate(over="ignore", invalid="ignore"):
                got = dist.survival(np.float64(t)), dist.partial_mean(np.float64(t))
            assert type(got[0]) is float and type(got[1]) is float
            assert (_bits(got[0]), _bits(got[1])) == (_bits(survival), _bits(partial)), (dist, t)


class TestSampling:
    def test_dirac_constant(self):
        rng = np.random.default_rng(0)
        samples = Dirac(136).sample(rng, 1000)
        assert np.all(samples == 136.0)

    def test_uniform_law_of_large_numbers(self):
        rng = np.random.default_rng(7)
        samples = Uniform(20, 40).sample(rng, 1_000_000)
        assert samples.mean() == pytest.approx(30.0, abs=0.02)

    def test_weibull_law_of_large_numbers(self):
        rng = np.random.default_rng(8)
        samples = Weibull(10, 225.68, 2).sample(rng, 1_000_000)
        assert samples.mean() == pytest.approx(Weibull(10, 225.68, 2).mean(), abs=0.4)

    def test_reproducible(self):
        a = Uniform(20, 40).sample(np.random.default_rng(42), 1000)
        b = Uniform(20, 40).sample(np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dist", [
        Uniform(20, 40),
        Pareto(5, 2),
        Weibull(10, 10.78, 6),
        Weibull(10, 84.25, 0.4),
        Dirac(136),
    ], ids=lambda d: type(d).__name__)
    def test_kolmogorov_distance(self, dist):
        rng = np.random.default_rng(11)
        samples = dist.sample(rng, 1_000_000)
        stat = kolmogorov_statistic(samples, lambda x: 1.0 - dist.survival(x))
        assert stat < 0.005

    @pytest.mark.dispatch_bound
    def test_population_draws_are_pinned(self):
        # sha256 of the four columns, captured while each family still had
        # its own ``sample``; the draws must not move
        joint = IndependentJoint(Uniform(20, 40), Pareto(5, 2), Weibull(10, 30, 2), Dirac(136))
        columns = joint.sample_population(1000, np.random.default_rng(5))
        digest = hashlib.sha256(b"".join(c.tobytes() for c in columns)).hexdigest()
        assert digest == "69067164e164075a2154bfbffd04fb88009c7421ff7ad255382d9ff15fbe6305", \
            dispatch_note()

    @pytest.mark.parametrize("dist", TestMarginalBaseRules.FAMILIES, ids=_call)
    def test_quantile_leaves_its_input_alone(self, dist):
        us = np.random.default_rng(2).random(50)
        before = us.copy()
        assert dist.quantile(us) is not us
        assert np.array_equal(us, before)
        assert type(dist.quantile(0.3)) is float
        assert type(dist.quantile(np.float64(0.3))) is float

    def test_drawing_into_a_row_matches_a_fresh_draw(self):
        block = np.zeros((2, 1000))
        row, dist = block[1], Weibull(10, 30, 2)
        assert dist.sample(np.random.default_rng(4), out=row) is row
        assert not block[0].any()
        assert block[1].tobytes() == dist.sample(np.random.default_rng(4), 1000).tobytes()

    @pytest.mark.parametrize("dist, minimum", [
        (Uniform(20, 40), 20.0), (Pareto(5, 2), 5.0), (Pareto(5, 5), 5.0),
        (Weibull(10, 30, 2), 10.0), (Weibull(10, 10.78, 6), 10.0), (Dirac(136), 136.0),
    ], ids=["uniform", "pareto2", "pareto5", "weibull2", "weibull6", "dirac"])
    def test_samples_within_support(self, dist, minimum):
        # ``free_floor`` bounds every free space a joint draws from below; a
        # cascade whose thresholds do not pass it reads no free space
        rng = np.random.default_rng(3)
        assert dist.quantile(0.0) == minimum
        assert dist.sample(rng, 10_000).min() >= minimum
        joints = {
            "independent": IndependentJoint(Uniform(20, 40), dist, Pareto(5, 2), dist),
            "proportional": ProportionalJoint(dist, Uniform(10, 30), 1.7),
            "empirical": EmpiricalJoint(np.column_stack([
                Uniform(20, 40).sample(rng, 20_000), dist.sample(rng, 20_000),
                Pareto(5, 2).sample(rng, 20_000), 2.0 * dist.sample(rng, 20_000)])),
        }
        floors = {"independent": (minimum, minimum),
                  "proportional": (1.7 * minimum, 1.7 * 10.0),
                  "empirical": (float(joints["empirical"].samples[:, 1].min()),
                                float(joints["empirical"].samples[:, 3].min()))}
        for kind, joint in joints.items():
            assert joint.free_floor == floors[kind], kind
            load_a, free_a, load_b, free_b = joint.sample_population(10_000, rng)
            assert free_a.min() >= joint.free_floor[0] and free_b.min() >= joint.free_floor[1]
            # given as arrays, a population's floor is its least free space
            pop = Population(load_a, free_a, load_b, free_b)
            assert pop.free_floor == (free_a.min(), free_b.min())


def _sample_head(joint, n, rng, attacked):
    """The rows of ``joint.sample_head(n, rng, attacked)``, filled."""
    rows, fill = joint.sample_head(n, rng, attacked)
    fill()
    return rows


class TestAttackedHeadDraws:
    """``sample_head(n, rng, m)`` draws every load and the free spaces of
    nodes m.. with the bits of the full draw, and leaves the generator where
    the full draw does."""

    JOINTS = {
        # each family as a load and as a free space, for every joint type
        "independent_uniform_pareto": lambda: IndependentJoint(
            Pareto(5, 2), Uniform(10, 200), Uniform(20, 40), Pareto(50, 3)),
        "independent_weibull_dirac": lambda: IndependentJoint(
            Dirac(30), Weibull(10, 30, 2), Weibull(5, 40, 6), Dirac(136)),
        "proportional_uniform_weibull": lambda: ProportionalJoint(
            Uniform(20, 40), Weibull(10, 30, 2), 2.4),
        "proportional_pareto_dirac": lambda: ProportionalJoint(Pareto(5, 5), Dirac(30), 1.7),
        "empirical": lambda: _golden_empirical_joint(),
    }
    GENERATORS = {
        "pcg64": lambda seed: np.random.default_rng(seed),
        "pcg64dxsm": lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
        # no advance: the head's values are drawn and dropped
        "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
        # an advance that counts blocks of four words, so it is not used
        "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
    }

    @pytest.mark.parametrize("generator", list(GENERATORS))
    @pytest.mark.parametrize("joint", list(JOINTS))
    @pytest.mark.parametrize("n", [1, 1025])
    def test_bits_match_the_full_draw(self, joint, generator, n):
        joint, make = self.JOINTS[joint](), self.GENERATORS[generator]
        rng = make(9)
        full = joint.sample_population(n, rng)
        after = rng.random(8)  # where the stream goes on
        for m in sorted({0, 1, n // 3, n}):
            rng = make(9)
            rows = _sample_head(joint, n, rng, m)
            assert [row.size for row in rows] == [n, n - m, n, n - m]
            for row, whole, head in zip(rows, full, (0, m, 0, m)):
                assert row.dtype == np.float64 and row.tobytes() == whole[head:].tobytes()
            assert rng.random(8).tobytes() == after.tobytes()

    @pytest.mark.parametrize("generator", list(GENERATORS))
    @pytest.mark.parametrize("joint", list(JOINTS))
    def test_a_built_population_draws_its_rows_on_first_read(self, joint, generator):
        # build_population draws the head's loads and leaves the generator
        # where the full draw does; the rows are drawn later from a copy
        from multiflow import CrossLayerFactors, SystemConfig, build_population

        joint, make, n = self.JOINTS[joint](), self.GENERATORS[generator], 1025
        rng = make(9)
        full = joint.sample_population(n, rng)
        after = rng.random(8)
        for m in (0, 1, n // 3, n):
            rng = make(9)
            pop = build_population(SystemConfig(joint, CrossLayerFactors(0.3, 0.1)), n, rng,
                                   attacked=m)
            assert rng.random(8).tobytes() == after.tobytes()
            assert "_pending" in vars(pop)
            rows = (pop.load_a, pop.free_a, pop.load_b, pop.free_b)
            for row, whole, head in zip(rows, full, (0, m, 0, m)):
                assert row.tobytes() == whole[head:].tobytes()

    @pytest.mark.parametrize("joint", list(JOINTS))
    def test_rejects_a_head_outside_the_population(self, joint):
        joint = self.JOINTS[joint]()
        for attacked in (-1, 11):
            with pytest.raises(ValueError, match=rf"^attacked must lie in \[0, n = 10\], "
                                                 rf"got {attacked}$"):
                _sample_head(joint, 10, np.random.default_rng(0), attacked)

    def test_a_buffered_half_word_survives_the_skip(self):
        joint = self.JOINTS["independent_uniform_pareto"]()
        states = []
        for m in (0, 500):
            rng = np.random.default_rng(4)
            rng.integers(0, 10, dtype=np.uint32)  # keeps the other 32 bits in a buffer
            assert rng.bit_generator.state["has_uint32"]
            _sample_head(joint, 1000, rng, m)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


class TestValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: Uniform(0, 40), r"uniform requires 0 < min < max, got \(0.0, 40.0\)"),
        (lambda: Uniform(40, 40), r"uniform requires 0 < min < max, got \(40.0, 40.0\)"),
        (lambda: Uniform(50, 40), r"uniform requires 0 < min < max, got \(50.0, 40.0\)"),
        (lambda: Pareto(0, 2), "pareto requires min > 0, got 0.0"),
        (lambda: Weibull(-1, 3, 2), "weibull requires min >= 0, got -1.0"),
        (lambda: Weibull(10, 0, 2), "weibull requires scale lambda > 0, got 0.0"),
        (lambda: Weibull(10, 3, 0), "weibull requires shape k > 0, got 0.0"),
        (lambda: Dirac(0), "dirac requires value > 0, got 0.0"),
        (lambda: Dirac(-5), "dirac requires value > 0, got -5.0"),
    ])
    def test_invalid_parameters(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    # A marginal record is read by the spec reader; these put it in layer A's
    # load of a spec and read what the spec resolves.
    WHERE = "spec.systems.demo.load_a"

    @staticmethod
    def _spec(record):
        free = {"kind": "uniform", "min": 25, "max": 75}
        return parse_experiment({"systems": {"demo": {
            "load_a": record, "free_a": free, "load_b": free, "free_b": free}}})

    def test_from_dict_roundtrip(self):
        for record in (
            {"kind": "uniform", "min": 20, "max": 40},
            {"kind": "pareto", "min": 5, "b": 2},
            {"kind": "weibull", "min": 10, "lambda": 10.78, "k": 6},
            {"kind": "dirac", "value": 360},
        ):
            spec = self._spec(record)
            resolved = spec.resolved["systems"]["demo"]["load_a"]
            assert resolved == {k: float(v) if k != "kind" else v for k, v in record.items()}
            assert all(type(v) is float for k, v in resolved.items() if k != "kind")
            # the resolved record reads back as the same marginal
            assert self._spec(resolved).systems["demo"].joint.load_a == \
                spec.systems["demo"].joint.load_a

    def test_from_dict_errors_name_the_field(self):
        where = re.escape(self.WHERE)
        for record, message in (
            ({"kind": "gaussian"}, rf"^{where}\.kind: expected one of \['dirac', 'pareto', "
                                   r"'uniform', 'weibull'\], got 'gaussian'$"),
            ({"min": 20, "max": 40}, rf"^{where}\.kind: missing$"),
            ({"kind": "uniform", "min": 20}, rf"^{where}\.max: missing$"),
            ({"kind": "pareto", "min": 5, "b": "two"},
             rf"^{where}\.b: expected a number, got 'two'$"),
            ({"kind": "pareto", "min": 5, "b": 0.5},
             rf"^{where}: pareto requires shape b > 1 for a finite mean, got 0.5$"),
        ):
            with pytest.raises(ConfigError, match=message):
                self._spec(record)

    @pytest.mark.parametrize("value", ["20", True, np.bool_(True), None])
    def test_from_dict_takes_numbers_only(self, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(self.WHERE)}\.min: expected a number"):
            self._spec({"kind": "uniform", "min": value, "max": 40})

    def test_from_dict_takes_numpy_numbers(self):
        spec = self._spec({"kind": "uniform", "min": np.float64(20), "max": np.int64(40)})
        dist = spec.systems["demo"].joint.load_a
        assert dist == Uniform(20.0, 40.0)
        assert type(dist.low) is float and type(dist.high) is float
        assert spec.canonical == self._spec({"kind": "uniform", "min": 20, "max": 40}).canonical

    @pytest.mark.parametrize("record, typo", [
        ({"kind": "uniform", "min": 20, "max": 40, "maximum": 50}, "maximum"),
        ({"kind": "pareto", "min": 5, "b": 2, "shape": 2}, "shape"),
        ({"kind": "weibull", "min": 10, "lambda": 30, "k": 2, "scale": 30}, "scale"),
        ({"kind": "dirac", "value": 5, "min": 5}, "min"),
    ])
    def test_from_dict_rejects_unknown_fields(self, record, typo):
        valid = {key: value for key, value in record.items() if key != typo}
        assert self._spec(valid).resolved["systems"]["demo"]["load_a"] == valid
        expected = sorted(valid)
        with pytest.raises(ConfigError, match=rf"^{re.escape(self.WHERE)}\.{typo}: unknown "
                                              rf"field; expected one of {re.escape(str(expected))}$"):
            self._spec(record)


@pytest.fixture(scope="module")
def uniform_joint() -> IndependentJoint:
    return IndependentJoint(Uniform(20, 40), Uniform(25, 75),
                            Uniform(20, 40), Uniform(25, 75))


class TestIndependentJoint:
    def test_no_failures_below_support(self, uniform_joint):
        assert uniform_joint.joint_survival(12.5, 12.5) == 1.0

    def test_origin_is_certain_survival(self, uniform_joint):
        assert uniform_joint.joint_survival(0.0, 0.0) == 1.0

    def test_product_of_marginals(self, uniform_joint):
        assert uniform_joint.joint_survival(50.0, 50.0) == 0.25

    def test_partial_expectation_indicator_always_one(self, uniform_joint):
        assert uniform_joint.partial_load_expectation("A", 12.5, 12.5) == 30.0

    def test_partial_expectation_above_support(self, uniform_joint):
        assert uniform_joint.partial_load_expectation("A", 80.0, 80.0) == 0.0
        assert uniform_joint.partial_load_expectation("B", 0.0, 80.0) == 0.0

    def test_partial_expectation_factorizes(self, uniform_joint):
        assert uniform_joint.partial_load_expectation("A", 50.0, 50.0) == pytest.approx(7.5)

    def test_partial_expectation_monte_carlo(self, uniform_joint):
        # Direct 10^7-sample estimate of E[L_A 1{S_A > 50, S_B > 50}],
        # sampled without the library's inverse-CDF code.
        rng = np.random.default_rng(5)
        total = 0.0
        count = 10_000_000
        chunk = 2_500_000
        for _ in range(count // chunk):
            load = rng.uniform(20, 40, size=chunk)
            s_a = rng.uniform(25, 75, size=chunk)
            s_b = rng.uniform(25, 75, size=chunk)
            total += float(load[(s_a > 50) & (s_b > 50)].sum())
        estimate = total / count
        assert estimate == pytest.approx(7.5, abs=0.01)
        assert uniform_joint.partial_load_expectation("A", 50.0, 50.0) == pytest.approx(
            estimate, abs=0.01)

    @given(st.floats(0, 100), st.floats(0, 100))
    def test_bounded_by_marginal_survival(self, x, y):
        joint = IndependentJoint(Uniform(20, 40), Uniform(25, 75),
                                 Uniform(20, 40), Weibull(10, 30, 2))
        value = joint.joint_survival(x, y)
        assert value <= min(joint.free_a.survival(x), joint.free_b.survival(y)) + 1e-15
        assert value == pytest.approx(joint.free_a.survival(x) * joint.free_b.survival(y))

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 30), st.floats(0, 30))
    def test_nonincreasing_in_each_threshold(self, x, y, dx, dy):
        joint = IndependentJoint(Uniform(20, 40), Uniform(25, 75),
                                 Uniform(20, 40), Weibull(10, 30, 2))
        base = joint.joint_survival(x, y)
        assert joint.joint_survival(x + dx, y) <= base + 1e-15
        assert joint.joint_survival(x, y + dy) <= base + 1e-15

    @given(st.floats(0, 120), st.floats(0, 120))
    def test_partial_equals_mean_times_survival(self, x, y):
        joint = IndependentJoint(Pareto(24, 5), Uniform(25, 75),
                                 Uniform(20, 40), Uniform(30, 90))
        for layer, mean in zip("AB", joint.mean_loads):
            assert joint.partial_load_expectation(layer, x, y) == pytest.approx(
                mean * joint.joint_survival(x, y), rel=1e-12)

    def test_survival_stats_consistent(self, uniform_joint):
        # every joint flavour answers the derived queries from survival_stats
        joints = (uniform_joint, EmpiricalJoint(_matched_samples(50_000, 8)),
                  ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4))
        for joint in joints:
            stats = joint.survival_stats(50.0, 40.0)
            assert 0.0 < stats.probability < 1.0
            assert stats.probability == joint.joint_survival(50.0, 40.0)
            assert stats.load_a == joint.partial_load_expectation("A", 50.0, 40.0)
            assert stats.load_b == joint.partial_load_expectation("B", 50.0, 40.0)
            with pytest.raises(ValueError, match="layer"):
                joint.partial_load_expectation("C", 50.0, 40.0)


class TestJointContract:
    def test_the_cursor_is_the_one_query(self):
        classes = [distributions.JointLoadSpace]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        joints = {cls for cls in classes[1:] if cls.__module__ == distributions.__name__}
        assert joints == {IndependentJoint, EmpiricalJoint, ProportionalJoint}
        for cls in joints:
            assert "cascade_cursor" in vars(cls), cls.__name__
            # every joint answers the stateless query through its cursor
            assert "survival_stats" not in vars(cls), cls.__name__

    def test_joints_hold_no_spec_record(self):
        # How a spec file names a joint and its marginals belongs to config.
        for cls in (distributions.JointLoadSpace, IndependentJoint, EmpiricalJoint,
                    ProportionalJoint):
            assert not hasattr(cls, "to_dict"), cls.__name__
        assert [field.name for field in fields(EmpiricalJoint)] == ["samples"]
        assert not hasattr(distributions, "marginal_to_dict")
        assert not hasattr(distributions, "_KINDS")

    def test_a_joint_without_a_cursor_fails_plainly(self):
        class Bare(distributions.JointLoadSpace):
            pass

        with pytest.raises(NotImplementedError):
            Bare().survival_stats(1.0, 1.0)

    JOINTS = {
        "independent": lambda: IndependentJoint(Uniform(20, 40), Uniform(25, 75),
                                                Pareto(24, 5), Weibull(10, 30, 2)),
        "empirical": lambda: EmpiricalJoint(_matched_samples(20_000, 9)),
        "proportional": lambda: ProportionalJoint(Uniform(20, 40), Dirac(30), 2.4),
    }

    @pytest.mark.parametrize("kind", sorted(JOINTS))
    def test_layer_moments_are_float_pairs(self, kind):
        joint = self.JOINTS[kind]()
        clone = pickle.loads(pickle.dumps(joint))
        for name in ("mean_loads", "mean_frees"):
            pair = getattr(joint, name)
            assert type(pair) is tuple and len(pair) == 2, name
            assert all(type(value) is float for value in pair), name
            assert getattr(clone, name) == pair, name

    @pytest.mark.parametrize("kind", sorted(JOINTS))
    def test_joint_moments_match_its_cursor(self, kind):
        # The solver takes its moments from the joint and its rounds from the
        # cursor.  The moments must be the load means of the measure the
        # cursor answers from (the sample's for an empirical joint, the exact
        # ones for a closed form), or the recursion loses its monotone
        # trajectory.
        joint = self.JOINTS[kind]()
        stats = joint.survival_stats(0.0, 0.0)
        assert stats.probability == 1.0
        assert joint.mean_loads == stats[1:]

    @pytest.mark.parametrize("kind", sorted(JOINTS))
    def test_every_cursor_class_defines_its_own_advance(self, kind):
        # perfbench wraps ``advance`` on the class of each cursor it sees, and
        # refuses a class that only inherits it.
        joint = self.JOINTS[kind]()
        cursor = joint.cascade_cursor()
        assert "advance" in vars(type(cursor)), type(cursor).__name__
        # the moments are the joint's alone: a cursor that is not the joint
        # carries none
        assert cursor is joint or not hasattr(cursor, "mean_loads")

    @pytest.mark.parametrize("kind", ["independent", "proportional"])
    def test_a_closed_form_joint_is_its_own_cursor(self, kind):
        joint = self.JOINTS[kind]()
        assert joint.cascade_cursor() is joint
        assert joint.advance(40.0, 13.0) == joint.survival_stats(40.0, 13.0)

    def test_layer_moments_are_defined_once_as_pairs(self):
        scalars = {"mean_load_a", "mean_load_b", "mean_free_a", "mean_free_b"}
        for cls in vars(distributions).values():
            if isinstance(cls, type) and cls.__module__ == distributions.__name__:
                names = set(vars(cls)) | set(vars(cls).get("__annotations__", {}))
                assert not names & scalars, cls.__name__
        for cls in (IndependentJoint, EmpiricalJoint, ProportionalJoint):
            assert {"mean_loads", "mean_frees"} <= set(vars(cls)), cls.__name__


def _continuous_with_runs(n: int, seed: int, share: float) -> np.ndarray:
    """n continuous values plus a ``share`` of n more, each a few ulps above
    one of them, so that their sort keys share high bits; runs also hold
    the smallest and the largest value.  No two values are equal."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 2.0, n)
    near = values[rng.choice(n, int(share * n), replace=False)]
    nudged = near + rng.integers(1, 4, near.size) * np.spacing(near)
    ends = [np.nextafter(values.min(), 0.0), np.nextafter(values.max(), 3.0)]
    return rng.permutation(np.concatenate([values, nudged, ends]))


@st.composite
def _sort_inputs(draw):
    """Positive finite values, subnormal to the largest float, some repeated
    exactly (ties) and some a few ulps from another one."""
    values = draw(st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.max,
                                     allow_subnormal=True), min_size=1, max_size=300))
    near = draw(st.lists(st.tuples(st.integers(0, len(values) - 1), st.integers(0, 4)),
                         max_size=30))
    for index, ulps in near:
        value = values[index]
        for _ in range(ulps):
            value = float(np.nextafter(value, math.inf if value < 1.0 else 0.0))
        values.append(value)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(values))
    return np.array(values)[order]


def _assert_sorts_like_argsort(values: np.ndarray) -> None:
    before = values.copy()
    values.setflags(write=False)  # any write to the input raises
    got = distributions.sort_order(values)
    assert got.dtype == np.intp and np.array_equal(got, np.argsort(values))
    assert values.tobytes() == before.tobytes()


class TestSortOrder:
    """``sort_order`` is ``np.argsort``, index for index."""

    @settings(max_examples=300, deadline=None)
    @given(_sort_inputs())
    def test_equals_argsort(self, values):
        _assert_sorts_like_argsort(values)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1024, 1025, 65_536, 65_537])
    def test_sizes_where_the_index_bits_change(self, n):
        _assert_sorts_like_argsort(np.random.default_rng(n).uniform(20.0, 40.0, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 1025, 100_000])
    def test_all_equal(self, n, monkeypatch):
        # all-equal values go to argsort before any key is built
        def refuse(*args, **kwargs):
            raise AssertionError("sort keys were built")

        monkeypatch.setattr(distributions.np, "bitwise_and", refuse)
        _assert_sorts_like_argsort(np.full(n, 30.0))
        _assert_sorts_like_argsort(np.full(2 * n + 1, 30.0)[::2])

    @pytest.mark.parametrize("n", [3, 1025, 100_000])
    def test_equal_ends_around_other_values(self, n):
        # the first and last value alike, but not all values: the packed sort
        values = np.full(n, 30.0)
        values[n // 2] = 20.0
        _assert_sorts_like_argsort(values)
        _assert_sorts_like_argsort(np.random.default_rng(n).uniform(20.0, 40.0, n).clip(25.0))

    @pytest.mark.parametrize("n", [1025, 100_000])
    def test_integer_rounded_ties(self, n):
        _assert_sorts_like_argsort(np.round(np.random.default_rng(n).uniform(20.0, 40.0, n)))

    @pytest.mark.parametrize("seed", range(3))
    def test_a_few_exact_ties_among_continuous_values(self, seed):
        values = np.random.default_rng(seed).uniform(1.0, 2.0, 2000)
        values[1990:] = values[:10]
        _assert_sorts_like_argsort(values)

    def test_values_a_few_ulps_apart(self):
        values = np.random.default_rng(5).permutation(1.0 + np.arange(5000) * np.spacing(1.0))
        _assert_sorts_like_argsort(values)

    @pytest.mark.parametrize("n, share", [(2000, 0.01), (2000, 0.05), (100_000, 0.02)])
    def test_runs_among_continuous_values(self, n, share):
        values = _continuous_with_runs(n, n, share)
        assert np.unique(values).size == values.size
        _assert_sorts_like_argsort(values)

    def test_a_run_across_a_chunk_boundary(self):
        chunk = distributions._SLAB_CHUNK
        values = np.random.default_rng(8).uniform(1.0, 2.0, 3 * chunk)
        ranked = np.argsort(values)
        ranks = np.empty_like(ranked)
        ranks[ranked] = np.arange(ranked.size)
        # ranks chunk - 1 and chunk: a value and its successor, stored before it
        below = ranked[chunk - 1]
        twin = np.flatnonzero(ranks[:below] > chunk)[0]
        values[twin] = np.nextafter(values[below], 3.0)
        assert np.argsort(values)[chunk - 1:chunk + 1].tolist() == [below, twin]
        bits = values.view(np.uint64) >> np.uint64((values.size - 1).bit_length())
        assert bits[below] == bits[twin]  # their keys share high bits
        _assert_sorts_like_argsort(values)

    def test_subnormal_and_near_the_largest_float(self):
        rng = np.random.default_rng(6)
        tiny = rng.integers(1, 2**20, 500) * 5e-324
        huge = sys.float_info.max * rng.uniform(0.5, 1.0, 500)
        huge[:50] = np.nextafter(sys.float_info.max, 0.0)
        huge[50:60] = sys.float_info.max
        values = rng.permutation(np.concatenate([tiny, huge, rng.uniform(1.0, 2.0, 1000)]))
        assert np.all(values > 0.0) and np.all(np.isfinite(values))
        _assert_sorts_like_argsort(values)

    @pytest.mark.parametrize("column", range(4))
    def test_strided_column_view(self, column):
        samples = _matched_samples(100_000, 36)
        values = samples[:, column]
        assert not values.flags.c_contiguous
        _assert_sorts_like_argsort(values)

    def test_allocates_only_the_order(self):
        values = np.random.default_rng(37).uniform(25.0, 75.0, (1_000_000, 4))[:, 1]
        distributions.sort_order(values[:1000])  # first-call imports stay out
        tracemalloc.start()
        try:
            distributions.sort_order(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000 + 500_000


def _matched_samples(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(20, 40, m), rng.uniform(25, 75, m),
        rng.uniform(20, 40, m), rng.uniform(25, 75, m)])


def _four_array_slab(samples: np.ndarray, free: int, other: int):
    """Reference for ``EmpiricalJoint._sorted_by``: the slab as four separate
    arrays, gathered through ``np.argsort`` and split column by column."""
    order = np.argsort(samples[:, free])
    slab = tuple(np.empty(samples.shape[0]) for _ in range(4))
    for lo in range(0, samples.shape[0], 1 << 14):
        rows = samples.take(order[lo:lo + (1 << 14)], axis=0)
        for column, target in zip((free, other, 0, 2), slab):
            target[lo:lo + (1 << 14)] = rows[:, column]
    return slab


class _MaskCursor:
    """Reference for ``EmpiricalJoint.cascade_cursor``: the mask-based sweep.

    Contiguous column copies, one ``argsort`` per layer and a per-cursor
    failure mask; the rows a threshold step crosses are gathered through the
    sort order and the not-yet-failed ones drop.
    """

    def __init__(self, samples: np.ndarray):
        self.loads_a = np.ascontiguousarray(samples[:, 0])
        self.loads_b = np.ascontiguousarray(samples[:, 2])
        free_a = np.ascontiguousarray(samples[:, 1])
        free_b = np.ascontiguousarray(samples[:, 3])
        self.order_a, self.order_b = np.argsort(free_a), np.argsort(free_b)
        self.sorted_a, self.sorted_b = free_a[self.order_a], free_b[self.order_b]
        self.m = samples.shape[0]
        self.failed = np.zeros(self.m, dtype=bool)
        self.alive = self.m
        self.sum_a = float(self.loads_a.sum())
        self.sum_b = float(self.loads_b.sum())
        self.pos_a = self.pos_b = 0
        self.x = self.y = -math.inf

    def _drop(self, order, lo, hi):
        idx = order[lo:hi]
        idx = idx[~self.failed[idx]]
        if idx.size:
            self.failed[idx] = True
            self.alive -= idx.size
            self.sum_a -= float(self.loads_a[idx].sum())
            self.sum_b -= float(self.loads_b[idx].sum())

    def advance(self, x, y):
        x, y = max(x, self.x), max(y, self.y)
        if x > self.x:
            hi = int(np.searchsorted(self.sorted_a, x, side="right"))
            self._drop(self.order_a, self.pos_a, hi)
            self.pos_a, self.x = hi, x
        if y > self.y:
            hi = int(np.searchsorted(self.sorted_b, y, side="right"))
            self._drop(self.order_b, self.pos_b, hi)
            self.pos_b, self.y = hi, y
        return (self.alive / self.m, self.sum_a / self.m, self.sum_b / self.m)


def _threshold_walk(seed: int, steps: int, integer: bool):
    """Mostly nondecreasing (x, y) pairs over the free-space range 25..75.

    Each step raises both thresholds, raises one, repeats the last pair or
    steps back (which a cursor clamps); integer walks land on tied values.
    """
    rng = np.random.default_rng(seed)
    x = y = 20.0
    walk = []
    for _ in range(steps):
        move = rng.integers(5)
        dx, dy = rng.uniform(0.0, 4.0, 2)
        if move == 0:
            x, y = x + dx, y + dy
        elif move == 1:
            x += dx
        elif move == 2:
            y += dy
        elif move == 4:
            walk.append((x - dx, y - rng.uniform(0.0, 4.0) * rng.integers(2)))
            continue
        walk.append((float(np.round(x)), float(np.round(y))) if integer else (x, y))
    return walk


def _advance_tracing_drop(cursor, x: float, y: float):
    """Advance ``cursor``; also return the stripped source lines of ``_drop`` that ran."""
    code = distributions._EmpiricalCursor._drop.__code__
    source, first = inspect.getsourcelines(code)
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(source[frame.f_lineno - first].strip())
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        stats = cursor.advance(x, y)
    finally:
        sys.settrace(previous)
    return stats, ran


# One x step of the cursor per case: the thresholds before it, the x it moves
# to, and which parts of ``_drop`` run for it: the comparison with the other
# threshold, the sums, the index gather.
_KERNEL_STEPS = {
    # y below every free value: no row has failed, nothing to compare
    "unfailed": ((30.0, 20.0), 45.0, (False, True, False)),
    # rows with S_B <= 30 have failed, but none with 40 < S_A <= 50
    "all_alive": ((40.0, 30.0), 50.0, (True, True, False)),
    # crossed rows with S_B <= 50 have failed
    "mixed": ((40.0, 50.0), 60.0, (True, True, True)),
    # y above every free value: all have failed
    "none_alive": ((40.0, 80.0), 60.0, (True, False, False)),
}


class TestEmpiricalJoint:
    @pytest.mark.parametrize("kind", sorted(_KERNEL_STEPS))
    @pytest.mark.parametrize("integer", [False, True], ids=["continuous", "tied"])
    def test_each_sweep_branch_is_bit_identical(self, kind, integer):
        samples = _matched_samples(20_000, 40)
        if integer:
            samples[:, [1, 3]] = np.round(samples[:, [1, 3]])
        band = (samples[:, 1] > 40.0) & (samples[:, 1] <= 50.0)
        samples[band, 3] = np.maximum(samples[band, 3], 60.0)
        (x0, y0), x1, (compares, sums, gathers) = _KERNEL_STEPS[kind]
        free_a, free_b = samples[:, 1], samples[:, 3]
        crossed = np.count_nonzero((free_a > x0) & (free_a <= x1))
        alive = np.count_nonzero((free_a > x0) & (free_a <= x1) & (free_b > y0))
        failed_b = np.count_nonzero(free_b <= y0)
        assert crossed > 0
        assert {"unfailed": failed_b == 0 and alive == crossed,
                "all_alive": failed_b > 0 and alive == crossed,
                "mixed": 0 < alive < crossed,
                "none_alive": alive == 0}[kind]

        cursor, reference = EmpiricalJoint(samples).cascade_cursor(), _MaskCursor(samples)
        before = cursor.advance(x0, y0)
        assert tuple(before) == reference.advance(x0, y0)
        got, ran = _advance_tracing_drop(cursor, x1, y0)
        assert tuple(got) == reference.advance(x1, y0)
        assert any("> other" in line for line in ran) == compares
        assert any(".sum()" in line for line in ran) == sums
        assert any(".take(" in line for line in ran) == gathers
        m = samples.shape[0]
        assert round((before.probability - got.probability) * m) == alive
        if kind == "none_alive":
            assert got == before

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="^empirical mode needs at least 10000 samples, "
                                             "got 100$"):
            EmpiricalJoint(_matched_samples(100, 0))

    def test_requires_positive_samples(self):
        samples = _matched_samples(20_000, 1)
        samples[17, 2] = 0.0
        with pytest.raises(ValueError, match="^empirical samples must be finite and strictly "
                                             "positive$"):
            EmpiricalJoint(samples)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("column", range(4))
    def test_rejects_each_bad_value(self, bad, column):
        samples = _matched_samples(20_000, 1)
        samples[19_999 if column % 2 else 0, column] = bad
        message = "empirical samples must be finite and strictly positive"
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmpiricalJoint(samples)

    def test_requires_four_columns(self):
        with pytest.raises(ValueError, match=r"^empirical samples must have shape \(m, 4\), "
                                             r"got \(20000, 3\)$"):
            EmpiricalJoint(np.ones((20_000, 3)))

    def test_matches_closed_form(self, uniform_joint):
        emp = EmpiricalJoint(_matched_samples(400_000, 2))
        for x, y in ((0.0, 0.0), (30.0, 40.0), (50.0, 50.0), (74.0, 26.0)):
            assert emp.joint_survival(x, y) == pytest.approx(
                uniform_joint.joint_survival(x, y), abs=0.005)
            assert emp.partial_load_expectation("A", x, y) == pytest.approx(
                uniform_joint.partial_load_expectation("A", x, y), abs=0.2)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("integer", [False, True], ids=["continuous", "tied"])
    def test_cursor_is_bit_identical_to_the_mask_sweep(self, seed, integer):
        samples = _matched_samples(20_000, 20 + seed)
        if integer:
            # many rows share each free value; loads keep every bit, so the
            # order of a tie group shows in the sums
            samples[:, [1, 3]] = np.round(samples[:, [1, 3]])
        emp = EmpiricalJoint(samples)
        cursor, reference = emp.cascade_cursor(), _MaskCursor(samples)
        walk = _threshold_walk(seed, 60, integer) + [(80.0, 80.0), (80.0, 80.0)]
        for x, y in walk:
            got = cursor.advance(x, y)
            assert tuple(got) == reference.advance(x, y), (x, y)
        assert got.probability == 0.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("integer", [False, True], ids=["continuous", "tied"])
    def test_stateless_query_is_a_fresh_mask_sweep(self, seed, integer):
        samples = _matched_samples(20_000, 20 + seed)
        if integer:
            samples[:, [1, 3]] = np.round(samples[:, [1, 3]])
        emp = EmpiricalJoint(samples)
        for x, y in _threshold_walk(seed, 60, integer) + [(80.0, 80.0)]:
            assert tuple(emp.survival_stats(x, y)) == _MaskCursor(samples).advance(x, y), (x, y)

    def test_cursor_clamps_steps_back_and_repeats(self):
        samples = _matched_samples(20_000, 30)
        emp = EmpiricalJoint(samples)
        cursor, reference = emp.cascade_cursor(), _MaskCursor(samples)
        walk = [(40.0, 30.0), (40.0, 30.0), (35.0, 50.0), (60.0, 45.0), (60.0, 60.0),
                (10.0, 10.0), (60.0, 60.0), (61.0, 60.0), (61.0, 62.0)]
        seen = []
        for x, y in walk:
            got = cursor.advance(x, y)
            assert tuple(got) == reference.advance(x, y), (x, y)
            seen.append(got)
        fresh = emp.cascade_cursor()
        fresh.advance(40.0, 30.0)
        assert seen[1] == seen[0]  # repeated pair
        assert seen[2] == fresh.advance(40.0, 50.0)  # x clamped to 40
        assert seen[5] == seen[4] == seen[6]  # both clamped, then repeated

    @pytest.mark.parametrize("x, y, name", [(math.nan, 40.0, "x"), (40.0, math.nan, "y"),
                                            (np.float64("nan"), 40.0, "x")])
    def test_cursor_rejects_nan_thresholds(self, x, y, name):
        cursor = EmpiricalJoint(_matched_samples(20_000, 31)).cascade_cursor()
        cursor.advance(30.0, 30.0)
        with pytest.raises(ValueError, match=rf"threshold {name}\b"):
            cursor.advance(x, y)

    def test_cursor_allocates_nothing_of_sample_size(self):
        emp = EmpiricalJoint(_matched_samples(200_000, 32))
        emp.cascade_cursor().advance(50.0, 50.0)  # builds both sorted slabs
        tracemalloc.start()
        try:
            emp.cascade_cursor()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_384

    @pytest.mark.parametrize("integer", [False, True], ids=["continuous", "tied"])
    def test_slab_equals_the_four_array_build(self, integer):
        samples = _matched_samples(50_000, 34)
        if integer:
            samples[:, [1, 3]] = np.round(samples[:, [1, 3]])
        emp = EmpiricalJoint(samples)
        for slab, (free, other) in ((emp._slab_a, (1, 3)), (emp._slab_b, (3, 1))):
            expected = _four_array_slab(emp.samples, free, other)
            for name, got, want in zip(slab._fields, slab, expected):
                assert got.flags.c_contiguous, name
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name

    def test_slab_build_peak_memory(self):
        # the 32 MB block and the 8 MB order; the four-array build with an
        # argsort peaked at 41.05 MB
        emp = EmpiricalJoint._adopt(np.random.default_rng(35).uniform(20.0, 75.0, (1_000_000, 4)))
        emp._sorted_by(3, 1)  # first-call imports stay out of the measurement
        tracemalloc.start()
        try:
            emp._sorted_by(1, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 41_050_000

    def test_pickle_carries_only_the_sample(self, tmp_path):
        np.save(tmp_path / "s.npy", _matched_samples(20_000, 33))
        spec = parse_experiment({"systems": {"measured": {"samples": "s.npy"}}},
                                base_dir=tmp_path)
        emp = spec.systems["measured"].joint
        before = len(pickle.dumps(emp))
        solved = emp.cascade_cursor().advance(45.0, 40.0)
        assert emp.survival_stats(45.0, 40.0).probability == solved.probability
        assert emp.mean_frees[0] > 0.0
        blob = pickle.dumps(emp)
        assert len(blob) == before
        clone = pickle.loads(blob)
        # the spec, not the joint, names the sample file
        assert clone.__getstate__().keys() == {"samples"}
        assert spec.resolved["systems"]["measured"]["samples"] == "s.npy"
        assert not clone.samples.flags.writeable
        assert clone.cascade_cursor().advance(45.0, 40.0) == solved

    def test_cursor_equals_stateless_queries(self):
        emp = EmpiricalJoint(_matched_samples(50_000, 3))
        cursor = emp.cascade_cursor()
        thresholds = [(0.0, 0.0), (10.0, 5.0), (30.0, 30.0), (30.0, 42.0),
                      (55.5, 55.5), (80.0, 80.0)]
        for x, y in thresholds:
            inc = cursor.advance(x, y)
            ref = emp.survival_stats(x, y)
            assert inc.probability == ref.probability  # counts are exact
            assert inc.load_a == pytest.approx(ref.load_a, rel=1e-9, abs=1e-9)
            assert inc.load_b == pytest.approx(ref.load_b, rel=1e-9, abs=1e-9)

    def test_queries_are_deterministic(self):
        emp = EmpiricalJoint(_matched_samples(50_000, 4))
        assert emp.joint_survival(33.0, 44.0) == emp.joint_survival(33.0, 44.0)

    def test_nonincreasing_in_each_threshold(self):
        emp = EmpiricalJoint(_matched_samples(50_000, 6))
        values = [emp.joint_survival(x, 30.0) for x in (0.0, 20.0, 40.0, 60.0, 80.0)]
        assert values == sorted(values, reverse=True)
        values = [emp.joint_survival(30.0, y) for y in (0.0, 20.0, 40.0, 60.0, 80.0)]
        assert values == sorted(values, reverse=True)

    def test_caller_mutation_does_not_corrupt_queries(self):
        samples = _matched_samples(20_000, 7)
        emp = EmpiricalJoint(samples)
        # the joint holds a private copy and leaves the caller's matrix writable
        assert not np.shares_memory(emp.samples, samples)
        assert samples.flags.writeable and not emp.samples.flags.writeable
        walk = [(30.0, 35.0), (45.0, 40.0), (60.0, 62.0)]

        def results():
            cursor = emp.cascade_cursor()
            return ([cursor.advance(x, y) for x, y in walk],
                    [emp.survival_stats(x, y) for x, y in walk],
                    emp.mean_loads, emp.mean_frees, emp.free_space_cap())

        before = results()
        samples[::2] = 1.0
        samples[:, 1] = 500.0
        assert results() == before

    def test_bootstrap_population(self):
        emp = EmpiricalJoint(_matched_samples(50_000, 5))
        load_a, free_a, load_b, free_b = emp.sample_population(1000, np.random.default_rng(0))
        assert load_a.shape == (1000,)
        assert np.all(load_a > 0) and np.all(free_b > 0)


class TestProportionalJoint:
    def test_population_uses_exact_coupling(self):
        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), alpha=2.4)
        load_a, free_a, load_b, free_b = joint.sample_population(500, np.random.default_rng(1))
        assert np.allclose(free_a, 2.4 * load_a)
        assert np.allclose(free_b, 2.4 * load_b)

    def test_analytic_queries_reflect_coupling(self):
        joint = ProportionalJoint(Uniform(20, 40), Uniform(20, 40), alpha=2.0)
        # S_A = 2 L_A <= 80, so surviving x=79 requires L_A > 39.5
        assert joint.joint_survival(79.0, 0.0) == pytest.approx(0.025, rel=1e-12)
        # thresholds below 2*min never fail anyone
        assert joint.joint_survival(39.9, 39.9) == 1.0

    @pytest.mark.parametrize("alpha", [np.float32(1.5), np.int64(2), 2], ids=repr)
    def test_alpha_is_stored_as_a_float(self, alpha):
        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), alpha)
        assert type(joint.alpha) is float and joint.alpha == float(alpha)
        spec = parse_experiment({"systems": {"demo": {
            "load_a": {"kind": "uniform", "min": 20, "max": 40},
            "load_b": {"kind": "pareto", "min": 5, "b": 2},
            "allocation": {"strategy": "equal_tolerance_factor", "alpha": alpha}}}})
        assert type(spec.systems["demo"].joint.alpha) is float
        assert json.loads(json.dumps(spec.resolved))["systems"]["demo"]["alpha"] == float(alpha)

    @pytest.mark.parametrize("alpha", [True, np.bool_(True), "2.4", None], ids=repr)
    def test_alpha_must_be_a_number(self, alpha):
        message = f"tolerance factor alpha must be a real number, got {type(alpha).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProportionalJoint(Uniform(20, 40), Pareto(5, 2), alpha)

    def test_free_space_means_track_alpha(self):
        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), alpha=2.4)
        assert joint.mean_frees[0] == pytest.approx(2.4 * 30.0)
        assert joint.mean_frees[1] == pytest.approx(2.4 * 10.0)

    def test_sample_matrix_is_seed_deterministic(self):
        # the reference sample, which no query reads, is the same per instance
        a = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        b = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        assert np.array_equal(a._empirical.samples, b._empirical.samples)

    def test_layer_moments_are_exact_and_build_no_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stored sample was built")

        monkeypatch.setattr(EmpiricalJoint, "_adopt", refuse)
        load_a, load_b = Weibull(10, 5, 2), Pareto(5, 2)
        joint = ProportionalJoint(load_a, load_b, 2.4)
        assert joint.mean_loads == (load_a.mean(), load_b.mean())
        assert joint.mean_frees == (2.4 * load_a.mean(), 2.4 * load_b.mean())

    @pytest.mark.parametrize("load_a, load_b, alpha", [
        (Uniform(20, 40), Pareto(5, 2), 2.4),
        (Weibull(10, 5, 2), Dirac(30.0), 1.7),
    ])
    def test_stored_sample_matches_the_column_stack(self, load_a, load_b, alpha):
        joint = ProportionalJoint(load_a, load_b, alpha)
        rng = np.random.default_rng(np.random.SeedSequence(distributions._STORED_SEED))
        draw_a = load_a.sample(rng, distributions._STORED_ROWS)
        draw_b = load_b.sample(rng, distributions._STORED_ROWS)
        expected = np.column_stack([draw_a, alpha * draw_a, draw_b, alpha * draw_b])
        samples = joint._empirical.samples
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        assert not samples.flags.writeable
        assert samples.tobytes() == expected.tobytes()

    def test_stored_sample_build_peak_memory(self):
        # the 32 MB matrix plus one draw and its temporaries; building the
        # columns, stacking them and copying the stack peaked at about 80 MB
        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        tracemalloc.start()
        try:
            joint._empirical
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60_000_000

    def test_pickles_without_the_cached_matrix(self):
        import pickle

        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        joint._empirical  # materializes the cache
        reference = joint.joint_survival(55.0, 13.0)
        blob = pickle.dumps(joint)
        assert len(blob) < 10_000  # workers rebuild the samples from the seed
        assert pickle.loads(blob).joint_survival(55.0, 13.0) == reference

    # independent oracle: with S = alpha*L and independent loads,
    # E[L_A 1{S_A > x, S_B > y}] = (trunc. mean of L_A above x/alpha)
    #                              * P[L_B > y/alpha]
    QUADRATURE_POINTS = ((50.0, 0.0), (70.0, 13.0), (85.0, 20.0), (0.0, 26.0))

    @staticmethod
    def quadrature_oracle(x: float, y: float):
        """(P, E[L_A 1], E[L_B 1]) at (x, y) for alpha = 2.4, loads U(20, 40) and Pareto(5, 2)."""
        alpha = 2.4
        pdf_a, pdf_b = uniform_pdf(Uniform(20, 40)), pareto_pdf(Pareto(5, 2))

        def truncated(pdf, lower, upper, threshold, power):
            lo = max(lower, threshold)
            if upper is not None and lo >= upper:
                return 0.0
            value, err = integrate.quad(lambda t: t ** power * pdf(t), lo,
                                        np.inf if upper is None else upper, limit=200)
            assert err < 1e-6
            return value

        survival_a = truncated(pdf_a, 20, 40, x / alpha, 0)
        survival_b = truncated(pdf_b, 5, None, y / alpha, 0)
        return (survival_a * survival_b,
                truncated(pdf_a, 20, 40, x / alpha, 1) * survival_b,
                truncated(pdf_b, 5, None, y / alpha, 1) * survival_a)

    def test_partial_expectation_against_quadrature(self):
        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        for x, y in self.QUADRATURE_POINTS:
            _, expected_a, expected_b = self.quadrature_oracle(x, y)
            got_a = joint.partial_load_expectation("A", x, y)
            got_b = joint.partial_load_expectation("B", x, y)
            # exact, so it matches the oracle to the oracle's own accuracy
            assert got_a == pytest.approx(expected_a, rel=1e-8)
            assert got_b == pytest.approx(expected_b, rel=1e-8)

    def test_cursor_is_the_closed_form_and_builds_no_sample(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stored sample was built")

        monkeypatch.setattr(EmpiricalJoint, "_adopt", refuse)
        load_a, load_b = Weibull(10, 5, 2), Pareto(5, 2)
        joint = ProportionalJoint(load_a, load_b, 2.4)
        cursor = joint.cascade_cursor()
        assert cursor is joint
        # stateless: thresholds may move back, and a fresh cursor agrees
        for x, y in ((40.0, 13.0), (30.0, 20.0), (0.0, 0.0), (40.0, 13.0)):
            u, v = x / 2.4, y / 2.4
            stats = cursor.advance(x, y)
            assert stats == (load_a.survival(u) * load_b.survival(v),
                             load_a.partial_mean(u) * load_b.survival(v),
                             load_a.survival(u) * load_b.partial_mean(v))
            assert all(type(value) is float for value in stats)
            assert joint.survival_stats(x, y) == stats
        assert "_empirical" not in vars(joint)

    @pytest.mark.parametrize("beta_a, beta_b", [(0.0, 0.0), (0.2, 0.3)])
    def test_stability_sides_against_quadrature(self, beta_a, beta_b):
        # the sides are exact, so they match the oracle to its own accuracy
        joint = ProportionalJoint(Uniform(20, 40), Pareto(5, 2), 2.4)
        mean_a = quad_mean(uniform_pdf(Uniform(20, 40)), 20, 40)
        mean_b = quad_mean(pareto_pdf(Pareto(5, 2)), 5, np.inf)
        for x, y in self.QUADRATURE_POINTS:
            prob, load_a, load_b = self.quadrature_oracle(x + beta_b * y, y + beta_a * x)
            lhs_a, lhs_b = joint.stability_sides([x], [y], beta_a, beta_b)
            assert lhs_a[0, 0] == pytest.approx((prob * x + load_a) / mean_a, rel=1e-8)
            assert lhs_b[0, 0] == pytest.approx((prob * y + load_b) / mean_b, rel=1e-8)


def test_the_package_imports_no_scipy():
    # numpy is the one runtime dependency (pyproject.toml); scipy is a test
    # extra, so a fresh interpreter that loads the package and evaluates the
    # tolerance-factor sides, Weibull's incomplete gamma included, has not
    # imported it
    import os
    import subprocess
    from pathlib import Path

    code = "\n".join([
        "import sys",
        "import multiflow, multiflow.cli",
        "from multiflow import (CrossLayerFactors, Pareto, ProportionalJoint, SystemConfig,",
        "                       Weibull, stable_set_grid)",
        "joint = ProportionalJoint(Weibull(10, 84.25, 0.4), Pareto(5, 2), 2.4)",
        "grid = stable_set_grid(0.04, SystemConfig(joint, CrossLayerFactors(0.2, 0.2)),",
        "                       x_max=30.0, y_max=1.0, resolution=50)",
        "assert grid.stable.any()",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert result.returncode == 0, result.stderr


def test_the_public_names_are_sorted_unique_and_resolve():
    # a name deleted from the package but left in __all__ fails here, not
    # at a user's `from multiflow import *`
    import multiflow

    names = multiflow.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(multiflow, name)] == []


def _golden_empirical_joint() -> EmpiricalJoint:
    rng = np.random.default_rng(3)
    return EmpiricalJoint(np.column_stack([
        Uniform(20, 40).sample(rng, 20_000), Pareto(50, 2).sample(rng, 20_000),
        Weibull(10, 30, 2).sample(rng, 20_000), Dirac(136).sample(rng, 20_000)]))


class TestPopulationGolden:
    """Exact bytes of ``build_population(cfg, 2000, 7)`` for every family
    (Uniform, Pareto b = 2 and 5, Weibull k = 2 and 6, Dirac) and every
    joint, captured while each inverse CDF still built a new array per
    operation.  The digest covers load_a, free_a, load_b and free_b, in
    that order; the in-place draws must not move a bit of them.
    """

    @pytest.mark.parametrize("joint, digest", [
        (lambda: IndependentJoint(Uniform(20, 40), Pareto(5, 2), Uniform(10, 30), Pareto(50, 2)),
         "eecf814330a71d0e8ee51e9702a7958be52f22212a47e3b9359495877d4b7e29"),
        (lambda: IndependentJoint(Pareto(10, 5), Weibull(10, 30, 2), Pareto(20, 5),
                                  Weibull(5, 40, 2)),
         "a1ddaf1285cdc7cd81a9e40e116434ae1d35b39a1e41327adbf939be2d3e0c5b"),
        (lambda: IndependentJoint(Weibull(10, 10.78, 6), Dirac(136), Weibull(20, 5, 6),
                                  Dirac(80)),
         "10c11e1e01166579f2e83be09845f1d7c135181932f513d5610122d9b79bf4ac"),
        (lambda: ProportionalJoint(Uniform(20, 40), Weibull(10, 30, 2), 2.4),
         "d3af4794f370b3739661f7efb95133868853deaf804b065bbfbd7a16d2e78125"),
        (lambda: ProportionalJoint(Pareto(5, 5), Dirac(30), 1.7),
         "cc672e8310acf0918a9284c2400fb82e6fc9bcd716e9c3e3b074e16710063794"),
        (_golden_empirical_joint,
         "abcf3ff02f2da2115f9ace2008453fd639173a9834696d917016cc839dce690b"),
    ], ids=["uniform_pareto2", "pareto5_weibull2", "weibull6_dirac",
            "proportional_uniform_weibull", "proportional_pareto_dirac", "empirical"])
    @pytest.mark.dispatch_bound
    def test_digest(self, joint, digest):
        from multiflow import CrossLayerFactors, SystemConfig, build_population

        pop = build_population(SystemConfig(joint(), CrossLayerFactors(0.3, 0.1)), 2000, 7)
        columns = (pop.load_a, pop.free_a, pop.load_b, pop.free_b)
        assert hashlib.sha256(b"".join(c.tobytes() for c in columns)).hexdigest() == digest, \
            dispatch_note()

    def test_failure_message_names_both_dispatches(self):
        note = dispatch_note()
        assert note.startswith("captured on numpy 2.4.6 with the AVX-512 dispatch; ")
        assert f"running numpy {np.__version__} with AVX-512 features: " in note
