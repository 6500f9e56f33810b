"""Load and free-space distributions for the multiplex flow-network model.

Four marginal families cover the configurations used throughout the package:
uniform, Pareto (classical, location-scale form), Weibull shifted by a
minimum value, and a Dirac point mass.  All supports are strictly positive.
Each family holds only its formulas; the base class converts inputs, samples
and caps the support.  Besides survival and quantile, each family gives its
partial mean M(t) = E[X * 1{X > t}]; the shifted Weibull's needs the upper
incomplete gamma, computed here in numpy.  The module holds the formulas
only: the names a spec file gives these families and joints, and the record
that resolves them, belong to ``config``.

Each joint implements one query, ``cascade_cursor()``: a monotone view whose
``advance(x, y)`` gives the joint survival P[S_A > x, S_B > y] and the
partial load means E[L_i * 1{S_A > x, S_B > y}].  For every joint the
stateless ``survival_stats(x, y)`` is one advance of a fresh cursor, and
``joint_survival`` and ``partial_load_expectation`` derive from it.

Three joint flavours exist: independent marginals (closed form), an
empirical sample matrix for correlated inputs (e.g. multivariate-normal
draws supplied by the user), and a per-node proportional coupling
S = alpha * L used by the tolerance-factor allocation strategy.  The
proportional coupling factorizes too, P[S_A > x, S_B > y] =
P[L_A > x/alpha] * P[L_B > y/alpha], with partial loads
M_A(x/alpha) * P[L_B > y/alpha] and likewise for B, so every solve and its
``stability_sides`` are exact; the 10^6-row sample it can still draw (seed
424242) is only a reference for tests.  A closed form keeps no state, so
the two closed-form joints are their own cursors.  Each joint states its
per-layer moments once, ``mean_loads`` and ``mean_frees``, those of its
measure (an empirical joint's are the sample's), and the solver reads them
from the joint.

A sample-backed joint answers cursor queries from one sorted slab per layer:
the sample rows in ascending order of that layer's free space, held as the
four contiguous rows of one block (that free space, the other layer's free
space, L_A and L_B).  The rows a threshold step crosses are then one
contiguous slice.  At 10^6 rows the two slabs take 64 MB, as much as the
column copies and sort orders they replace; a slab is built the first time a
threshold reaches its layer's lowest free space.  Its order comes from
``sort_order``, one SIMD sort of packed keys, which equals ``np.argsort``
index for index.

Survival uses the strict inequality P[S > x].  For continuous marginals
this equals the non-strict version; for a Dirac mass the mass at ``v``
does not survive a threshold of exactly ``v``, so optimal Dirac
allocations must be evaluated strictly below their critical attack size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

MIN_EMPIRICAL_SAMPLES = 10_000


# The package's numeric-argument checks, these four: a check that passes
# formats no message, and one that fails raises ValueError naming the argument.
def _real(value, name: str) -> float:
    """A real argument as a Python float: any ``numbers.Real``, numpy scalars
    included, so it computes as the equal float does; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def _positive(value, name: str) -> float:
    """A finite, strictly positive real argument as a Python float."""
    value = _real(value, name)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def _integer(value, name: str, minimum: int) -> int:
    """An integral argument of at least ``minimum`` as a Python int; numpy
    integers are accepted, a bool or a non-integral value is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _lowest(what: str, values: np.ndarray) -> float:
    """The least of ``values``, which must be finite and strictly positive;
    that of no values is inf."""
    if not values.size:
        return math.inf
    lowest = values.min()
    # NaN fails the min test
    if not (lowest > 0.0 and values.max() < math.inf):
        raise ValueError(f"{what} must be finite and strictly positive")
    return float(lowest)


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _out(u):
    """``out=`` that writes a step over ``u``: the array itself, or None for a
    numpy scalar, which a step replaces."""
    return u if isinstance(u, np.ndarray) else None


# Iteration cap of the incomplete gamma's series and continued fraction; at
# double precision both converge far sooner for every a this module uses.
_GAMMA_TERMS = 1000
_EPS = float(np.finfo(float).eps)


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete gamma Gamma(a, x) for one a > 0 and an array x >= 0.

    Below a + 1 it is Gamma(a) less the lower function's power series, from
    a + 1 on Lentz's continued fraction; either is x^a e^-x times a sum that
    stops per element at double precision.  The prefix is taken through
    logarithms, so for large x it underflows to 0 without overflowing first,
    and Gamma(a, inf) is 0.
    """
    eps, tiny = _EPS, 1e-300

    def series(i, state):
        # sum_n x^n / (a (a+1) ... (a+n))
        total, term, values = state
        term *= values / (a + i)
        total += term
        return np.abs(term) < np.abs(total) * eps

    def fraction(i, state):
        total, b, c, d = state
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        d[np.abs(d) < tiny] = tiny
        np.divide(1.0, d, out=d)
        np.divide(an, c, out=c)
        c += b
        c[np.abs(c) < tiny] = tiny
        delta = d * c
        total *= delta
        return np.abs(delta - 1.0) < eps

    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.zeros(flat.shape)
    out[flat == 0.0] = math.gamma(a)
    low = np.flatnonzero((0.0 < flat) & (flat < a + 1.0))
    at = flat[low]
    start = np.full(at.size, 1.0 / a)
    sums = _converge(series, [start, start.copy(), at])
    out[low] = math.gamma(a) - np.exp(a * np.log(at) - at) * sums
    high = np.flatnonzero((a + 1.0 <= flat) & (flat < math.inf))
    at = flat[high]
    b = at + (1.0 - a)
    sums = _converge(fraction, [1.0 / b, b, np.full(at.size, 1.0 / tiny), 1.0 / b])
    out[high] = np.exp(a * np.log(at) - at) * sums
    return out.reshape(x.shape)


def _upper_gamma_float(a: float, x: float) -> float:
    """``_upper_gamma`` of one Python float x, bit for bit its 0-d result.

    The same series and fraction steps as the array loops, on floats, so a
    scalar call skips their per-step masks and copies, which cost far more
    than its arithmetic.  The prefix takes numpy's ``log`` and ``exp`` of a
    scalar, which round as the array's do (``math`` may round differently).
    """
    if x == 0.0:
        return math.gamma(a)
    if not 0.0 < x < math.inf:
        return 0.0
    eps, tiny = _EPS, 1e-300
    if x < a + 1.0:
        total = term = 1.0 / a
        for i in range(1, _GAMMA_TERMS):
            term *= x / (a + i)
            total += term
            if abs(term) < abs(total) * eps:
                break
        return float(math.gamma(a) - np.exp(a * np.log(x) - x) * total)
    b = x + (1.0 - a)
    total, c, d = 1.0 / b, 1.0 / tiny, 1.0 / b
    for i in range(1, _GAMMA_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = d * an + b
        if abs(d) < tiny:
            d = tiny
        d = 1.0 / d
        c = an / c + b
        if abs(c) < tiny:
            c = tiny
        delta = d * c
        total *= delta
        if abs(delta - 1.0) < eps:
            break
    return float(np.exp(a * np.log(x) - x) * total)


def _converge(step, state: list) -> np.ndarray:
    """Run ``step(i, state)`` for i = 1, 2, ... on the arrays ``state``, whose
    first is the running sum; ``step`` updates them in place and returns the
    elements that have converged, which then drop out.  Returns the sums."""
    result = np.empty(state[0].size)
    rows = np.arange(result.size)
    for i in range(1, _GAMMA_TERMS):
        if not rows.size:
            break
        done = step(i, state)
        result[rows[done]] = state[0][done]
        keep = ~done
        rows, state = rows[keep], [array[keep] for array in state]
    result[rows] = state[0]
    return result


class _Marginal:
    """Shared rules; each family implements ``_survival`` and ``_quantile``.

    Fields are stored as floats, so an int or numpy argument computes as the
    equal float does, and a bool is refused; each family checks them in
    ``_check``.  Inputs are converted once, and a scalar gives a float; a
    Python float or a numpy float64 (a float subclass) goes as a Python
    float to ``_survival_float`` and ``_partial_mean_float``, bit for bit
    ``_survival`` and ``_partial_mean`` of a 0-d array, so
    powers stay numpy scalar powers and ``exp`` stays ``np.exp`` (``**``,
    ``math.exp`` and the vectorised ``np.power`` round differently).

    ``_quantile(u)`` transforms a float array it owns in place and returns
    it; given a numpy scalar, each step makes a new scalar, so a scalar
    quantile keeps scalar powers too.  ``quantile`` hands it a private copy,
    and ``sample`` the uniform draw itself, written into ``out`` when given:
    a draw allocates nothing beyond its result.  Sampling is inverse-CDF for
    every family, Dirac too, so streams stay aligned.
    """

    def __post_init__(self) -> None:
        for field in fields(self):
            object.__setattr__(self, field.name, _real(
                getattr(self, field.name), f"{type(self).__name__.lower()} {field.name}"))
        self._check()

    def survival(self, x):
        if isinstance(x, float):
            return self._survival_float(float(x))
        return _scalar_or_array(self._survival(np.asarray(x, dtype=float)))

    def partial_mean(self, t):
        """E[X * 1{X > t}], with the strict inequality of ``survival``; a Python
        float or a float64 goes to ``_partial_mean_float``, as in ``survival``."""
        if isinstance(t, float):
            return self._partial_mean_float(float(t))
        return _scalar_or_array(self._partial_mean(np.asarray(t, dtype=float)))

    def quantile(self, u):
        # a private copy, so the caller's array is never written
        u = np.array(u, dtype=float)
        return _scalar_or_array(self._quantile(u if u.ndim else u[()]))

    def sample(self, rng: np.random.Generator, size=None, *, out: np.ndarray | None = None):
        """Draw ``size`` values, or fill the float array ``out`` in place."""
        u = rng.random(size, out=out)
        return self._quantile(u) if isinstance(u, np.ndarray) else self.quantile(u)

    def support_cap(self) -> float:
        """Finite stand-in for the upper end of the support: the 0.9999 quantile."""
        return self.quantile(0.9999)


@dataclass(frozen=True)
class Uniform(_Marginal):
    """Uniform distribution on [low, high] with 0 < low < high."""

    low: float
    high: float

    def _check(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("uniform bounds must be finite")
        if not 0 < self.low < self.high:
            raise ValueError(f"uniform requires 0 < min < max, got ({self.low}, {self.high})")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def _survival(self, x):
        return np.clip((self.high - x) / (self.high - self.low), 0.0, 1.0)

    def _survival_float(self, x):
        return min(max((self.high - x) / (self.high - self.low), 0.0), 1.0)

    def _partial_mean(self, t):
        t = np.clip(t, self.low, self.high)
        return (self.high ** 2 - t * t) / (2.0 * (self.high - self.low))

    def _partial_mean_float(self, t):
        t = min(max(t, self.low), self.high)
        return (self.high ** 2 - t * t) / (2.0 * (self.high - self.low))

    def _quantile(self, u):
        u *= self.high - self.low
        u += self.low
        return u

    def support_cap(self) -> float:
        return self.high


@dataclass(frozen=True)
class Pareto(_Marginal):
    """Classical Pareto with minimum > 0 and shape > 1 (finite mean).

    Shapes <= 1 have no mean and the recursion is undefined for them, so
    they are rejected at construction rather than surfacing as NaN later.
    """

    minimum: float
    shape: float

    def _check(self) -> None:
        if not 0 < self.minimum < math.inf:
            raise ValueError(f"pareto requires min > 0, got {self.minimum}")
        if not 1 < self.shape < math.inf:
            raise ValueError(f"pareto requires shape b > 1 for a finite mean, got {self.shape}")

    def mean(self) -> float:
        return self.minimum * self.shape / (self.shape - 1.0)

    def _survival(self, x):
        return (self.minimum / np.maximum(x, self.minimum)) ** self.shape

    def _survival_float(self, x):
        return float(np.float64(self.minimum / max(x, self.minimum)) ** self.shape)

    def _partial_mean(self, t):
        # t * S(t) * b / (b - 1) from t = minimum on, written to give 0 at inf
        ratio = self.minimum / np.maximum(t, self.minimum)
        return self.minimum * ratio ** (self.shape - 1.0) * (self.shape / (self.shape - 1.0))

    def _partial_mean_float(self, t):
        ratio = np.float64(self.minimum / max(t, self.minimum))
        return float(self.minimum * ratio ** (self.shape - 1.0)
                     * (self.shape / (self.shape - 1.0)))

    def _quantile(self, u):
        u = np.subtract(1.0, u, out=_out(u))
        u **= -1.0 / self.shape
        u *= self.minimum
        return u


@dataclass(frozen=True)
class Weibull(_Marginal):
    """Weibull with location shift: X = minimum + lambda * W(shape)."""

    minimum: float
    scale: float
    shape: float

    def _check(self) -> None:
        if not 0 <= self.minimum < math.inf:
            raise ValueError(f"weibull requires min >= 0, got {self.minimum}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"weibull requires scale lambda > 0, got {self.scale}")
        if not 0 < self.shape < math.inf:
            raise ValueError(f"weibull requires shape k > 0, got {self.shape}")

    def mean(self) -> float:
        return self.minimum + self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def _survival(self, x):
        z = np.maximum(x - self.minimum, 0.0) / self.scale
        return np.exp(-(z ** self.shape))

    def _survival_float(self, x):
        z = np.float64(max(x - self.minimum, 0.0) / self.scale)
        return float(np.exp(-(z ** self.shape)))

    def _partial_mean(self, t):
        # E[lambda W 1{W > z}] = lambda * Gamma(1 + 1/k, z^k), by u = w^k
        power = (np.maximum(t - self.minimum, 0.0) / self.scale) ** self.shape
        return (self.minimum * np.exp(-power)
                + self.scale * _upper_gamma(1.0 + 1.0 / self.shape, power))

    def _partial_mean_float(self, t):
        power = np.float64(max(t - self.minimum, 0.0) / self.scale) ** self.shape
        return float(self.minimum * np.exp(-power)
                     + self.scale * _upper_gamma_float(1.0 + 1.0 / self.shape, float(power)))

    def _quantile(self, u):
        out = _out(u)
        u = np.negative(u, out=out)
        u = np.log1p(u, out=out)
        u = np.negative(u, out=out)
        u **= 1.0 / self.shape
        u *= self.scale
        u += self.minimum
        return u


@dataclass(frozen=True)
class Dirac(_Marginal):
    """Point mass at a positive value.

    ``survival(x)`` is 1 if value > x and 0 otherwise: the mass does not
    survive a threshold equal to its own value.
    """

    value: float

    def _check(self) -> None:
        if not 0 < self.value < math.inf:
            raise ValueError(f"dirac requires value > 0, got {self.value}")

    def mean(self) -> float:
        return self.value

    def _survival(self, x):
        return np.where(x < self.value, 1.0, 0.0)

    def _survival_float(self, x):
        return 1.0 if x < self.value else 0.0

    def _partial_mean(self, t):
        return self.value * self._survival(t)

    def _partial_mean_float(self, t):
        return self.value * self._survival_float(t)

    def _quantile(self, u):
        # the value broadcast over every entry of u
        return np.positive(self.value, out=_out(u))


MarginalDistribution = Union[Uniform, Pareto, Weibull, Dirac]


class SurvivalStats(NamedTuple):
    """Joint survival probability and the partial load means at one threshold pair."""

    probability: float
    load_a: float  # E[L_A * 1{S_A > x, S_B > y}]
    load_b: float  # E[L_B * 1{S_A > x, S_B > y}]


class JointLoadSpace:
    """Joint description of per-node (L_A, S_A, L_B, S_B).

    Implementations are immutable after construction and safe to share
    across threads; sampling always takes an explicit generator.  Each
    implements ``cascade_cursor``, and ``survival_stats`` is one advance of a
    fresh cursor for every joint; the two joints with a closed form,
    independent and tolerance factor, return themselves, with an
    ``advance`` of their own.  ``stability_sides`` sweeps cursors, which
    those two override.  Per-layer moments are pairs of floats, layer A
    first: ``mean_loads`` is (E[L_A], E[L_B]) and ``mean_frees`` is
    (E[S_A], E[S_B]), the exact moments of the joint's measure; the solver
    and the stability sides read them here, and no cursor restates them.
    ``free_floor`` is (min S_A, min S_B), the least free space each layer can
    draw: no sampled free space lies below it.  A pickle carries the
    dataclass fields only; cached derived values are rebuilt on demand.
    """

    mean_loads: tuple[float, float]
    mean_frees: tuple[float, float]
    free_floor: tuple[float, float]

    def survival_stats(self, x: float, y: float) -> SurvivalStats:
        """Survival and partial load means at (x, y): one fresh cursor advance."""
        return self.cascade_cursor().advance(x, y)

    def joint_survival(self, x: float, y: float) -> float:
        """P[S_A > x, S_B > y]."""
        return self.survival_stats(x, y).probability

    def partial_load_expectation(self, layer: str, x: float, y: float) -> float:
        """E[L_layer * 1{S_A > x, S_B > y}] for layer "A" or "B"."""
        stats = self.survival_stats(x, y)
        if layer == "A":
            return stats.load_a
        if layer == "B":
            return stats.load_b
        raise ValueError(f"layer must be 'A' or 'B', got {layer!r}")

    def cascade_cursor(self):
        """The one query each joint implements: a view whose ``advance(x, y)``
        takes nondecreasing thresholds; a closed-form joint is its own."""
        raise NotImplementedError

    def stability_sides(self, xs, ys, beta_a: float, beta_b: float):
        """Stability sides (lhs_a, lhs_b) on the grid xs x ys, indexed [ix, iy].

        lhs_a = (P * x + E[L_A 1]) / E[L_A] at thresholds (x + beta_b * y,
        y + beta_a * x), and lhs_b likewise; (x, y) is stable at attack p iff
        both reach 1/(1-p).  Where P = 0 this gives 0, not 0/0.  Here each
        row of fixed y is one cursor sweep, so ``xs`` must be nondecreasing;
        a closed-form override evaluates the whole grid at once, in any order.
        """
        if np.any(np.diff(xs) < 0):
            raise ValueError("stability grid xs must be nondecreasing")
        mean_a, mean_b = self.mean_loads
        lhs_a, lhs_b = np.empty((2, len(xs), len(ys)))
        for iy, y in enumerate(ys):
            cursor = self.cascade_cursor()
            for ix, x in enumerate(xs):
                stats = cursor.advance(x + beta_b * y, y + beta_a * x)
                lhs_a[ix, iy] = (stats.probability * x + stats.load_a) / mean_a
                lhs_b[ix, iy] = (stats.probability * y + stats.load_b) / mean_b
        return lhs_a, lhs_b

    def sample_population(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """Draw n i.i.d. nodes as the rows (load_a, free_a, load_b, free_b)."""
        rows, fill = self.sample_head(n, rng, 0)
        fill()
        return rows

    def sample_head(self, n: int, rng: np.random.Generator, attacked: int):
        """The rows of ``sample_population(n, rng)`` whose free rows leave out
        the first ``attacked`` nodes, an attacked head whose free spaces no
        cascade reads.  Only the head's loads, the first ``attacked`` of each
        load row, are drawn; returns the rows with ``fill``, which draws the
        rest in place.

        Every value has the bits of the ``attacked=0`` draw at its node, and
        ``rng`` is left where that whole draw leaves it.  ``fill`` never reads
        ``rng``: it draws from a copy taken before (a sample-backed joint
        picks every row at once and gathers the rest), so none is drawn twice.
        """
        raise NotImplementedError

    def free_space_cap(self) -> float:
        """Finite upper estimate for reachable free-space values (plot/grid bound)."""
        raise NotImplementedError

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_head(n: int, attacked: int) -> None:
    if not 0 <= attacked <= n:
        raise ValueError(f"attacked must lie in [0, n = {n}], got {attacked}")


def _rows(n: int, attacked: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2, n) load rows and (2, n - attacked) free rows of a population,
    as views of one allocation.  The allocator then reuses a freed
    population's memory for the next; as two arrays, each 10^5-node
    population page-faulted about 190 times."""
    _check_head(n, attacked)
    block = np.empty(4 * n - 2 * attacked)
    return block[:2 * n].reshape(2, n), block[2 * n:].reshape(2, n - attacked)


def _sample_blocks(rng: np.random.Generator, n: int, attacked: int, blocks):
    """``sample_head`` for rows drawn by inverse CDF, one block of n uniforms
    per (marginal, row) of ``blocks``, in stream order.  A load row holds
    its whole block, a free row the n - attacked values after the head.
    Returns ``fill``.
    """
    bits = rng.bit_generator
    kind, start = type(bits), bits.state
    for dist, row in blocks:
        if row.size == n:
            dist.sample(rng, out=row[:attacked])
        _skip(rng, n - attacked if row.size == n else n)

    def fill() -> None:
        stream = kind(0)  # seeded only to be overwritten, so no OS entropy is read
        stream.state = start
        stream = np.random.Generator(stream)
        for dist, row in blocks:
            _skip(stream, attacked)
            dist.sample(stream, out=row[row.size - (n - attacked):])
    return fill


def _skip(rng: np.random.Generator, count: int) -> None:
    """Move ``rng`` past ``count`` uniform doubles, as drawing them would.

    PCG64 spends one 64-bit word per double, so it jumps there with
    ``advance``, unless a buffered 32-bit half would be dropped.  Other
    generators (Philox's ``advance`` counts 256-bit blocks) draw and drop.
    """
    bits = rng.bit_generator
    if isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)) and not bits.state["has_uint32"]:
        bits.advance(count)
    else:
        rng.random(count)


@dataclass(frozen=True)
class IndependentJoint(JointLoadSpace):
    """Four mutually independent marginals; every joint query factorizes.

    The joint is its own cursor: ``advance`` is the closed form and keeps no
    state.
    """

    load_a: MarginalDistribution
    free_a: MarginalDistribution
    load_b: MarginalDistribution
    free_b: MarginalDistribution

    def __post_init__(self) -> None:
        # Every advance reads the means.  Filled here, they sit with the
        # fields; filled on first read, the cache would move every attribute
        # into a dict and slow each advance (an unpickled joint does that).
        object.__setattr__(self, "mean_loads", IndependentJoint.mean_loads.func(self))

    @cached_property
    def mean_loads(self) -> tuple[float, float]:
        return self.load_a.mean(), self.load_b.mean()

    @property
    def mean_frees(self) -> tuple[float, float]:
        return self.free_a.mean(), self.free_b.mean()

    @property
    def free_floor(self) -> tuple[float, float]:
        return self.free_a.quantile(0.0), self.free_b.quantile(0.0)

    def cascade_cursor(self) -> "IndependentJoint":
        return self

    def advance(self, x: float, y: float) -> SurvivalStats:
        # L independent of (S_A, S_B): the indicator factors out.
        prob = self.free_a.survival(x) * self.free_b.survival(y)
        mean_a, mean_b = self.mean_loads
        return SurvivalStats(prob, mean_a * prob, mean_b * prob)

    def stability_sides(self, xs, ys, beta_a: float, beta_b: float):
        # Partial loads are E[L] * P, so each side is P * (x + E[L]) / E[L].
        x = np.asarray(xs, dtype=float)[:, None]
        y = np.asarray(ys, dtype=float)[None, :]
        prob = self.free_a.survival(x + beta_b * y) * self.free_b.survival(y + beta_a * x)
        mean_a, mean_b = self.mean_loads
        return prob * (x + mean_a) / mean_a, prob * (y + mean_b) / mean_b

    def sample_head(self, n: int, rng: np.random.Generator, attacked: int):
        # per layer, n loads and then n free spaces
        loads, frees = _rows(n, attacked)
        fill = _sample_blocks(rng, n, attacked, ((self.load_a, loads[0]), (self.free_a, frees[0]),
                                                 (self.load_b, loads[1]), (self.free_b, frees[1])))
        return (loads[0], frees[0], loads[1], frees[1]), fill

    def free_space_cap(self) -> float:
        return max(self.free_a.support_cap(), self.free_b.support_cap())


# Rows per chunk of a chunk-wise pass over a sample: a slab gathers 512 KB of
# rows at a time and writes them transposed into its block while they are
# still in cache, and ``sort_order`` works on 128 KB of keys at a time.
_SLAB_CHUNK = 1 << 14


def sort_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values)`` of a 1-D array of finite positive float64 values.

    The bits of a positive float sort as the float does.  Each key is the
    value's bits with the low ``b`` bits replaced by its index, where ``b``
    bits hold every index; one in-place ``np.sort`` of these uint64 keys
    (numpy's SIMD kernel, several times faster than ``argsort``) orders the
    rows by value, except within runs of keys that share their high bits,
    which come out in index order and are re-ordered by full value.  Where
    two values are equal, numpy's order among them cannot be reproduced, and
    where more than an eighth of the rows lie in runs, the re-ordering would
    not pay off; then it returns ``np.argsort(values)`` itself.  So the
    result always equals ``argsort``'s.  All-equal values (a Dirac free
    space) go to ``argsort`` before any key is built; a continuous draw pays
    one scalar compare for that test.

    Beyond the keys, which become the order, it allocates only per chunk and
    per run; ``values`` may be a strided view and is never written.  The run
    scan compares keys as the floats whose bits they are and uses boolean
    masks, loops the Monte Carlo sweep already runs, so it pages in no numpy
    code beyond the sort's.
    """
    n = len(values)
    if n and values[0] == values[-1] and values.min() == values.max():
        return np.argsort(values)
    low = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    keys = np.bitwise_and(values.view(np.uint64), ~low)
    for lo in range(0, n, _SLAB_CHUNK):
        keys[lo:lo + _SLAB_CHUNK] |= np.arange(lo, min(lo + _SLAB_CHUNK, n), dtype=np.uint64)
    keys.sort()
    # Sorted keys i and i + 1 share their high bits unless key i with every
    # low bit set is below key i + 1.  A row is in a run if it shares them
    # with a neighbour; ``carry`` says whether the last pair before a chunk did.
    floats = keys.view(np.float64)
    runs, count, carry = [], 0, False
    for lo in range(0, n - 1, _SLAB_CHUNK):
        hi = min(lo + _SLAB_CHUNK, n - 1)
        shared = ~(np.bitwise_or(keys[lo:hi], low).view(np.float64) < floats[lo + 1:hi + 1])
        member = shared.copy()
        member[1:] |= shared[:-1]
        member[0] |= carry
        carry = shared[-1]
        found = np.flatnonzero(member)
        count += found.size
        if count > n >> 3:
            return np.argsort(values)
        found += lo
        runs.append(found)
    if carry:
        runs.append(np.array([n - 1]))
    keys &= low
    order = keys.view(np.intp)
    if count:
        # Runs with higher high bits hold larger values, so one sort of every
        # run member orders each run within its own positions.
        at = np.concatenate(runs)
        rows = order[at]
        run_values = values[rows]
        by_value = np.argsort(run_values)
        run_values = run_values[by_value]
        if np.count_nonzero(run_values[:-1] < run_values[1:]) < run_values.size - 1:
            return np.argsort(values)  # a tie
        order[at] = rows[by_value]
    return order


class _Slab(NamedTuple):
    """Sample rows in ascending order of one layer's free space."""

    free: np.ndarray  # this layer's free space, sorted
    other: np.ndarray  # the other layer's free space, same row order
    load_a: np.ndarray
    load_b: np.ndarray


class _EmpiricalCursor:
    """Incremental sweep over a fixed sample matrix.

    Rows drop out once their free space falls at or below the running
    thresholds.  Each layer's slab (``_Slab``) lists the rows in ascending
    order of that layer's free space (``sort_order``), as the four
    contiguous rows of one (4, m) block: 32 MB per slab at 10^6 rows, built
    in 35-45 ms on a 2-core Xeon and shared by every cursor of the joint.  The rows a
    threshold step crosses are one contiguous slice of that slab; of these,
    the ones whose other-layer free space is still above the other threshold
    had not yet failed and drop now, in slab order.  When every crossed row
    drops (always so while the other threshold is below that layer's lowest
    free space, and then not compared), the two load slices are summed in
    place; otherwise the dropping rows are gathered by index (``nonzero``,
    then ``take``), several times cheaper per row than a boolean-mask
    gather.  Both give the same values in the same order, so the pairwise
    sums are bit-identical to the mask gather's.  The cursor keeps the alive
    count and, per layer, a slab position, a threshold and a load sum, and no
    per-row state; a step allocates only in proportion to the rows it
    crosses, so a whole solve costs O(m) plus per-call overhead.  Thresholds
    must not be NaN.  The moments a solve needs are the joint's
    ``mean_loads``, the sample's load means.
    """

    def __init__(self, joint: "EmpiricalJoint"):
        self._joint = joint
        self._lowest = joint.free_floor
        self._m = joint.sample_count
        self._alive = self._m
        self._sums = list(joint._load_totals)
        self._positions = [0, 0]
        self._thresholds = [-math.inf, -math.inf]

    def _drop(self, slab: _Slab, lo: int, threshold: float,
              other: float, other_lowest: float) -> int:
        """Drop the rows crossed between ``lo`` and ``threshold``; returns the new position.

        ``other`` is the other layer's threshold; below that layer's lowest
        free space, ``other_lowest``, it has failed no row yet.
        """
        hi = int(slab.free.searchsorted(threshold, side="right"))
        if other < other_lowest:
            count = hi - lo
        else:
            alive = slab.other[lo:hi] > other
            count = int(np.count_nonzero(alive))
        if count:
            self._alive -= count
            rows = None if count == hi - lo else alive.nonzero()[0]
            # one layer at a time, so at most one gathered copy is alive
            for layer, loads in enumerate((slab.load_a, slab.load_b)):
                crossed = loads[lo:hi]
                if rows is not None:
                    crossed = crossed.take(rows)
                self._sums[layer] -= float(crossed.sum())
        return hi

    def advance(self, x: float, y: float) -> SurvivalStats:
        for name, value in (("x", x), ("y", y)):
            if math.isnan(value):
                raise ValueError(f"cursor threshold {name} must not be NaN")
        # Thresholds never move backwards within one solve.  Layer A steps
        # first, and each step sees the other layer's current threshold.
        # Below a layer's lowest free space no row crosses, and its slab is
        # not needed yet.
        thresholds, lowest, positions = self._thresholds, self._lowest, self._positions
        for layer, value in enumerate((x, y)):
            if value > thresholds[layer]:
                if value >= lowest[layer]:
                    slab = self._joint._slab_b if layer else self._joint._slab_a
                    positions[layer] = self._drop(slab, positions[layer], value,
                                                  thresholds[1 - layer], lowest[1 - layer])
                thresholds[layer] = value
        m = self._m
        sum_a, sum_b = self._sums
        return SurvivalStats(self._alive / m, sum_a / m, sum_b / m)


@dataclass(frozen=True, eq=False)
class EmpiricalJoint(JointLoadSpace):
    """Joint backed by a fixed sample matrix with columns (L_A, S_A, L_B, S_B).

    Accepts correlated inputs the closed forms cannot express.  The matrix is
    stored once and reused across all queries, so solver results are
    deterministic given the samples.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        # private copy: cached sums must not drift under caller mutation
        self._hold(np.array(self.samples, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, samples: np.ndarray) -> "EmpiricalJoint":
        """Wrap a C-order float matrix that no caller holds, without copying it."""
        joint = cls.__new__(cls)
        joint._hold(samples)
        return joint

    def _hold(self, samples: np.ndarray) -> None:
        """Validate the joint's own matrix and store it read-only."""
        if samples.ndim != 2 or samples.shape[1] != 4:
            raise ValueError(f"empirical samples must have shape (m, 4), got {samples.shape}")
        if samples.shape[0] < MIN_EMPIRICAL_SAMPLES:
            raise ValueError(f"empirical mode needs at least {MIN_EMPIRICAL_SAMPLES} samples, "
                             f"got {samples.shape[0]}")
        _lowest("empirical samples", samples)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def sample_count(self) -> int:
        return self.samples.shape[0]

    @cached_property
    def _load_totals(self) -> tuple[float, float]:
        return float(self.samples[:, 0].sum()), float(self.samples[:, 2].sum())

    @cached_property
    def free_floor(self) -> tuple[float, float]:
        return float(self.samples[:, 1].min()), float(self.samples[:, 3].min())

    def _sorted_by(self, free: int, other: int) -> _Slab:
        # Whole rows are gathered a chunk at a time, one random read per row,
        # and written transposed into one (4, m) block while the chunk is in
        # cache; block row j holds sample column j.
        order = sort_order(self.samples[:, free])
        block = np.empty((4, self.sample_count))
        for lo in range(0, self.sample_count, _SLAB_CHUNK):
            block[:, lo:lo + _SLAB_CHUNK] = self.samples.take(order[lo:lo + _SLAB_CHUNK], axis=0).T
        return _Slab(block[free], block[other], block[0], block[2])

    @cached_property
    def _slab_a(self) -> _Slab:
        return self._sorted_by(1, 3)

    @cached_property
    def _slab_b(self) -> _Slab:
        return self._sorted_by(3, 1)

    @property
    def mean_loads(self) -> tuple[float, float]:
        total_a, total_b = self._load_totals
        return total_a / self.sample_count, total_b / self.sample_count

    @property
    def mean_frees(self) -> tuple[float, float]:
        return float(self.samples[:, 1].mean()), float(self.samples[:, 3].mean())

    def cascade_cursor(self) -> _EmpiricalCursor:
        return _EmpiricalCursor(self)

    def sample_head(self, n: int, rng: np.random.Generator, attacked: int):
        # every pick is drawn now, and only the gather of the others waits
        _check_head(n, attacked)
        block = np.empty((4, n))
        picks = rng.integers(0, self.sample_count, size=n)
        self.samples.take(picks[:attacked], axis=0, out=block.T[:attacked])

        def fill() -> None:
            self.samples.take(picks[attacked:], axis=0, out=block.T[attacked:])
        return (block[0], block[1, attacked:], block[2], block[3, attacked:]), fill

    def free_space_cap(self) -> float:
        return float(max(self.samples[:, 1].max(), self.samples[:, 3].max()))

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.samples.setflags(write=False)


# Size and seed of the tolerance-factor joint's reference sample.
_STORED_ROWS = 1_000_000
_STORED_SEED = 424_242


@dataclass(frozen=True)
class ProportionalJoint(JointLoadSpace):
    """Free space coupled to load per node: S_{x,i} = alpha * L_{x,i}.

    Every query is exact.  S_i > t iff L_i > t / alpha, and the layers are
    independent, so ``advance`` (the joint is its own cursor) and
    ``stability_sides`` both evaluate one closed form from the load
    marginals' survival and partial means, and populations use the exact
    coupling.  ``_empirical``, a sample matrix of ``_STORED_ROWS`` rows drawn
    from ``_STORED_SEED``, is no query's: it is kept only as a sample-backed
    reference for tests and benchmarks.
    """

    load_a: MarginalDistribution
    load_b: MarginalDistribution
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _positive(self.alpha, "tolerance factor alpha"))

    @cached_property
    def _empirical(self) -> EmpiricalJoint:
        # Built on demand, never by a query.  Each draw and its alpha-multiple
        # go straight into the matrix, which the joint then keeps uncopied.
        rng = np.random.default_rng(np.random.SeedSequence(_STORED_SEED))
        samples = np.empty((_STORED_ROWS, 4))
        for column, dist in ((0, self.load_a), (2, self.load_b)):
            load = dist.sample(rng, _STORED_ROWS)
            samples[:, column] = load
            np.multiply(load, self.alpha, out=samples[:, column + 1])
            del load  # free the draw before the next one
        return EmpiricalJoint._adopt(samples)

    @property
    def mean_loads(self) -> tuple[float, float]:
        return self.load_a.mean(), self.load_b.mean()

    @property
    def mean_frees(self) -> tuple[float, float]:
        return self.alpha * self.load_a.mean(), self.alpha * self.load_b.mean()

    @property
    def free_floor(self) -> tuple[float, float]:
        # rounding is monotone, so alpha * L is never below alpha * min L
        return self.alpha * self.load_a.quantile(0.0), self.alpha * self.load_b.quantile(0.0)

    def _closed_form(self, x, y) -> SurvivalStats:
        """The survival stats at free-space thresholds (x, y), floats or arrays.

        With M(t) = E[L 1{L > t}], each partial load is one layer's partial
        mean times the other layer's survival, both at the load thresholds
        x / alpha and y / alpha.
        """
        u, v = x / self.alpha, y / self.alpha
        survival_a, survival_b = self.load_a.survival(u), self.load_b.survival(v)
        return SurvivalStats(survival_a * survival_b,
                             self.load_a.partial_mean(u) * survival_b,
                             survival_a * self.load_b.partial_mean(v))

    # The joint is its own cursor.  ``stability_sides`` calls ``_closed_form``
    # directly, so a wrapped ``advance`` (perfbench) counts cursor queries only.
    advance = _closed_form

    def cascade_cursor(self) -> "ProportionalJoint":
        return self

    def stability_sides(self, xs, ys, beta_a: float, beta_b: float):
        x = np.asarray(xs, dtype=float)[:, None]
        y = np.asarray(ys, dtype=float)[None, :]
        prob, load_a, load_b = self._closed_form(x + beta_b * y, y + beta_a * x)
        mean_a, mean_b = self.mean_loads
        return (prob * x + load_a) / mean_a, (prob * y + load_b) / mean_b

    def sample_head(self, n: int, rng: np.random.Generator, attacked: int):
        loads, frees = _rows(n, attacked)
        fill_loads = _sample_blocks(rng, n, attacked, ((self.load_a, loads[0]),
                                                       (self.load_b, loads[1])))

        def fill() -> None:
            fill_loads()
            np.multiply(loads[:, attacked:], self.alpha, out=frees)
        return (loads[0], frees[0], loads[1], frees[1]), fill

    def free_space_cap(self) -> float:
        return self.alpha * max(self.load_a.support_cap(), self.load_b.support_cap())
