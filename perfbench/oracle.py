"""Independent mean-field reference for the benchmark's output checks.

This module imports nothing from ``multiflow``.  It re-implements, from the
model's definitions, the quantities the checks compare against:

* survival, mean and partial mean E[X 1{X > t}] of the four marginal
  families, read straight from the spec records;
* the joint queries of an independent system and, in closed form, of the
  tolerance-factor coupling S = alpha * L (P[alpha L_A > x, alpha L_B > y]
  = S_A(x/alpha) S_B(y/alpha), E[L_A 1{...}] = M_A(x/alpha) S_B(y/alpha));
* the cascade recursion, its final size and the critical attack size.

Running ``python3 perfbench/oracle.py`` rewrites ``reference.json`` beside
it with the critical attack sizes of the bundled systems the benchmark uses.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
CONFIG_DIR = HERE.parent / "src" / "multiflow" / "configs"

COLLAPSE_EPS = 1e-15


def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for s > 0, x >= 0."""
    if x <= 0.0:
        return math.gamma(s)
    log_prefix = s * math.log(x) - x
    if x < s + 1.0:
        # series for the lower function: gamma(s, x) = x^s e^-x sum x^n / (s)_(n+1)
        term = total = 1.0 / s
        a = s
        for _ in range(10_000):
            a += 1.0
            term *= x / a
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return math.gamma(s) - math.exp(log_prefix) * total
    # Lentz continued fraction for Gamma(s, x)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_prefix) * h


class Marginal:
    """One marginal from its spec record; survival is strict, P[X > x]."""

    def __init__(self, record: dict):
        self.kind = record["kind"]
        self.r = {k: float(v) for k, v in record.items() if k != "kind"}

    def mean(self) -> float:
        r = self.r
        if self.kind == "uniform":
            return 0.5 * (r["min"] + r["max"])
        if self.kind == "pareto":
            return r["min"] * r["b"] / (r["b"] - 1.0)
        if self.kind == "weibull":
            return r["min"] + r["lambda"] * math.gamma(1.0 + 1.0 / r["k"])
        return r["value"]

    def survival(self, x: float) -> float:
        r = self.r
        if self.kind == "uniform":
            return min(1.0, max(0.0, (r["max"] - x) / (r["max"] - r["min"])))
        if self.kind == "pareto":
            return (r["min"] / max(x, r["min"])) ** r["b"]
        if self.kind == "weibull":
            return math.exp(-((max(x - r["min"], 0.0) / r["lambda"]) ** r["k"]))
        return 1.0 if x < r["value"] else 0.0

    def partial_mean(self, t: float) -> float:
        """E[X 1{X > t}]."""
        r = self.r
        if self.kind == "uniform":
            lo, hi = r["min"], r["max"]
            if t <= lo:
                return self.mean()
            if t >= hi:
                return 0.0
            return (hi * hi - t * t) / (2.0 * (hi - lo))
        if self.kind == "pareto":
            m, b = r["min"], r["b"]
            if t <= m:
                return self.mean()
            return b * m ** b * t ** (1.0 - b) / (b - 1.0)
        if self.kind == "weibull":
            k = r["k"]
            z = max(t - r["min"], 0.0) / r["lambda"]
            return r["min"] * self.survival(t) + r["lambda"] * _upper_gamma(1.0 + 1.0 / k, z ** k)
        return r["value"] if t < r["value"] else 0.0


class System:
    """Joint queries of one bundled system record (independent or tolerance factor)."""

    def __init__(self, record: dict):
        self.beta_a = float(record.get("beta_a", 0.0))
        self.beta_b = float(record.get("beta_b", 0.0))
        self.load_a = Marginal(record["load_a"])
        self.load_b = Marginal(record["load_b"])
        self.mean_a = self.load_a.mean()
        self.mean_b = self.load_b.mean()
        allocation = record.get("allocation")
        self.alpha = None
        if allocation is None:
            self.free_a = Marginal(record["free_a"])
            self.free_b = Marginal(record["free_b"])
            return
        strategy = allocation["strategy"]
        s_total = float(allocation["s_total"])
        if strategy == "equal_tolerance_factor":
            self.alpha = s_total / (self.mean_a + self.mean_b)
            return
        if strategy == "layer_weighted_equal":
            weight_a = self.mean_a + self.beta_b * self.mean_b
            s_a = s_total * weight_a / ((1 + self.beta_a) * self.mean_a
                                        + (1 + self.beta_b) * self.mean_b)
            s_b = s_total - s_a
        elif strategy == "equal_free_space":
            s_a = s_b = 0.5 * s_total
        else:
            raise ValueError(f"unsupported strategy {strategy!r}")
        self.free_a = Marginal({"kind": "dirac", "value": s_a})
        self.free_b = Marginal({"kind": "dirac", "value": s_b})

    def stats(self, x: float, y: float) -> tuple[float, float, float]:
        """(P[S_A > x, S_B > y], E[L_A 1{...}], E[L_B 1{...}])."""
        if self.alpha is None:
            prob = self.free_a.survival(x) * self.free_b.survival(y)
            return prob, self.mean_a * prob, self.mean_b * prob
        xa, yb = x / self.alpha, y / self.alpha
        sa, sb = self.load_a.survival(xa), self.load_b.survival(yb)
        return sa * sb, self.load_a.partial_mean(xa) * sb, sa * self.load_b.partial_mean(yb)

    def steady_state(self, p: float, tol: float = 1e-12,
                     max_iter: int = 2_000_000) -> tuple[float, float, float]:
        """(final size, q_A, q_B) at the recursion's limit; (0, inf, inf) on collapse."""
        scale = p / (1.0 - p)
        q_a, q_b = scale * self.mean_a, scale * self.mean_b
        eff_a, eff_b = q_a + self.beta_b * q_b, q_b + self.beta_a * q_a
        for _ in range(max_iter):
            prob, part_a, part_b = self.stats(eff_a, eff_b)
            if prob < COLLAPSE_EPS:
                return 0.0, math.inf, math.inf
            n = (1.0 - p) * prob
            q_a = (self.mean_a - (1.0 - p) * part_a) / n
            q_b = (self.mean_b - (1.0 - p) * part_b) / n
            new_a, new_b = q_a + self.beta_b * q_b, q_b + self.beta_a * q_a
            delta = max(abs(new_a - eff_a), abs(new_b - eff_b))
            eff_a, eff_b = max(eff_a, new_a), max(eff_b, new_b)
            if delta < tol * (1.0 + max(eff_a, eff_b)):
                break
        prob = self.stats(q_a + self.beta_b * q_b, q_b + self.beta_a * q_a)[0]
        if prob < COLLAPSE_EPS:
            return 0.0, math.inf, math.inf
        return (1.0 - p) * prob, q_a, q_b

    def final_size(self, p: float) -> float:
        return self.steady_state(p)[0]

    def critical(self, tol_p: float = 1e-7, scan: int = 200) -> float:
        """Largest attack fraction with a positive final size, to within tol_p."""
        grid = [(i + 1) / (scan + 1) for i in range(scan)]
        alive = [p for p in grid if self.final_size(p) > 0.0]
        if not alive:
            return 0.0
        lower = max(alive)
        upper = min((p for p in grid if p > lower), default=1.0)
        while upper - lower > tol_p:
            mid = 0.5 * (lower + upper)
            if self.final_size(mid) > 0.0:
                lower = mid
            else:
                upper = mid
        return 0.5 * (lower + upper)


def bundled_record(config: str, system: str) -> dict:
    document = json.loads((CONFIG_DIR / f"{config}.json").read_text(encoding="utf-8"))
    return document["systems"][system]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# (config, system) pairs whose critical attack size the checks need.
REFERENCE_SYSTEMS = (
    [("beta_sweep", s) for s in ("beta_0.00", "beta_0.25", "beta_0.50", "beta_1.00")]
    + [("mixed_families", s) for s in ("uniform_uniform", "weibull_pareto", "pareto_uniform")]
    + [("uniform_symmetric", "uniform_symmetric")]
    + [(c, "equal_tolerance_factor")
       for c in ("alloc_pareto_uniform", "alloc_uniform_weibull", "alloc_weibull_pareto")]
)


def main() -> None:
    critical = {}
    for config, system in REFERENCE_SYSTEMS:
        value = System(bundled_record(config, system)).critical()
        critical[f"{config}/{system}"] = round(value, 8)
        print(f"{config}/{system}: p* = {value:.8f}")
    payload = {
        "about": "critical attack sizes from perfbench/oracle.py (independent of multiflow), "
                 "bisected to 1e-7",
        "critical": critical,
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
