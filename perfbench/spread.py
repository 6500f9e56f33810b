"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads mc_sweep,analytic_alloc]
                                [--trace 0] [--out perfbench/baseline.json]

The spread of a metric is the distance between the first and third quartile
of its per-seed values (``statistics.quantiles(values, n=4)``) divided by the
median.  Runs are sequential, one process each.  With ``--out`` the summary,
every run's raw values and the environment of the first run are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    summary, runs, environment = {}, {}, None
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in seeds_from(args.seeds):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, cwd=HERE.parent)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            tag = f"{name}-seed{seed}-trace{args.trace}"
            detail = json.loads((HERE / ".work" / "results" / f"{tag}.json").read_text())
            environment = environment or detail["environment"]
            runs[name].append({"seed": seed, "elapsed_s": time.perf_counter() - start,
                               "correct": result["correct"],
                               "attempted": result["attempted"], "failed": result["failed"],
                               "metrics": {k: v["value"] for k, v in detail["metrics"].items()},
                               "per_layer": detail["per_layer"],
                               "config_sha256": detail["config_sha256"],
                               "raw": detail["raw"]})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        keys = runs[name][0]["metrics" if args.trace == 0 else "per_layer"]
        summary[name] = {}
        for key in keys:
            values = [r["metrics" if args.trace == 0 else "per_layer"][key] for r in runs[name]]
            if len(values) >= 2:
                median, rel = spread(values)
                summary[name][key] = {"median": median, "spread": rel,
                                      "min": min(values), "max": max(values)}
        bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
        for key, row in summary[name].items():
            bound = bounds.get(key)
            mark = "" if bound is None else f" (bound {bound}, {row['spread'] / bound:.2f} of it)"
            print(f"  {name} {key}: median {row['median']:.6g} spread {row['spread']:.4f}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seeds": seeds_from(args.seeds), "seconds": declared["run_seconds"],
            "trace": args.trace,
            "environment": environment, "summary": summary, "runs": runs},
            separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
