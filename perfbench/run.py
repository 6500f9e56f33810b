"""multiflow benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

A run generates its inputs from ``--seed``, measures set-up (``setup_s``:
fresh interpreters that import multiflow and load the workload's specs,
median of several), repeats timed passes of the workload until ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json) have passed, checks the outputs,
and prints one ``name value unit`` line per metric followed by a JSON result
line.  With ``--trace 1`` a fixed number of traced passes alternate with
untraced ones; the per-layer metrics come from the traced ones and
``trace.overhead_frac`` compares the two.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = {"full": 5, "tiny": 1}
# Traced passes per traced run: a fixed number, so that every per-layer
# percentile rests on the same number of samples however fast the program is.
TRACED_PASSES = {"full": 3, "tiny": 1}
SETUP_CODE = """\
import sys, time
from pathlib import Path
sys.path.insert(0, {src!r})
start = time.perf_counter()
import multiflow, multiflow.cli
for path in {paths!r}:
    multiflow.config.load_experiment(Path(path))
print(time.perf_counter() - start)
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Calibration:
    """A fixed kernel, timed between measured calls to track machine speed.

    On a shared machine the speed of a core drifts by up to ~1.5x for tens
    of seconds as neighbours come and go, and the drift slows the kernel and
    the program alike.  Each measured call is therefore also reported
    normalized: scaled to a machine on which the kernel takes REFERENCE_S.
    The kernel mixes what the workloads do: a numpy sort, interpreted
    Python, and a gather over 16 MB, which the shared last-level cache
    serves only while the neighbours leave it room.

    ``resident`` is the memory the kernel keeps resident for the whole run
    (its arrays, and what one call leaves behind), which ``peak_rss_mb``
    subtracts because it belongs to the benchmark, not to the program.
    """

    REFERENCE_S = 0.010

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)  # loads numpy.random, which the program uses too
        before = resident_bytes()
        self._small = rng.random(1 << 16)
        self._large = rng.random(1 << 21)
        self._index = rng.integers(0, 1 << 21, 1 << 17)
        self()
        self.resident = resident_bytes() - before

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            self._small.argsort()
        total = 0
        for i in range(40_000):
            total += i * i
        for _ in range(4):
            self._large[self._index].sum()
        return time.perf_counter() - start

    def normalize(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.REFERENCE_S / (0.5 * (before + after))


def measure_setup(paths: list[Path], repeats: int, calibration) -> list[list[float]]:
    """[raw seconds, calibration before, calibration after] per fresh interpreter."""
    code = SETUP_CODE.format(src=str(SRC), paths=[str(p) for p in paths])
    runs, before = [], calibration()
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()[-500:]}")
        after = calibration()
        runs.append([float(done.stdout.strip().splitlines()[-1]), before, after])
        before = after
    return runs


def import_program():
    sys.path.insert(0, str(SRC))
    import multiflow
    import multiflow.cli
    if Path(multiflow.__file__).resolve().parent != SRC / "multiflow":
        fail(f"multiflow was imported from {multiflow.__file__}, not from {SRC}")
    return multiflow


def environment(mf) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "multiflow": mf.__version__, "git_commit": commit}


def run_pass(workload, calibration) -> dict:
    """Time each unit of one pass, with a calibration run before and after each."""
    units = []
    before = calibration()
    for label, call in workload.units():
        start = time.perf_counter()
        call()
        seconds = time.perf_counter() - start
        after = calibration()
        units.append([label, seconds, before, after])
        before = after
    return {"units": units}


def lower_quartile(values) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 4]


def pass_times(record: dict, calibration) -> list[float]:
    """Normalized seconds of each unit of a pass."""
    return [calibration.normalize(seconds, before, after)
            for _, seconds, before, after in record["units"]]


def unit_times(passes: list[dict], estimate) -> dict[str, float]:
    """Per label, the sum over a pass's units of ``estimate`` over the passes.

    Every pass runs the same units in the same order; ``wall`` sums all
    units and ``raw`` does the same without normalization.
    """
    labels = [u[0] for u in passes[0]["units"]]
    norm = [estimate(col) for col in zip(*(p["times"] for p in passes))]
    raw = [estimate(col) for col in zip(*([u[1] for u in p["units"]] for p in passes))]
    totals = {"wall": sum(norm), "raw": sum(raw)}
    for label, value in zip(labels, norm):
        totals[label] = totals.get(label, 0.0) + value
    return totals


def run_passes(workload, seconds: float, calibration, tracer,
               traced_passes: int) -> tuple[list[dict], list[dict]]:
    """Closed loop of passes for ``seconds``; with a tracer, the first
    ``traced_passes`` untraced passes are each followed by a traced one."""
    untraced, traced = [], []
    start = time.perf_counter()
    wanted = traced_passes if tracer is not None else 0
    while True:
        traced_pass = len(traced) < wanted and len(untraced) > len(traced)
        if traced_pass:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            record = run_pass(workload, calibration)
        finally:
            if traced_pass:
                tracer.uninstall()
        stats = workload.pass_stats(traced_pass)
        record.update(stats)
        record["times"] = pass_times(record, calibration)
        if traced_pass:
            record["spans"] = (first_span, len(tracer.spans))
            record["summary"] = tracing.pass_summary(tracer.spans[first_span:], stats)
            traced.append(record)
        else:
            untraced.append(record)
        enough = untraced and len(traced) == wanted
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced


def end_to_end(untraced: list[dict], setup: list[list[float]], calibration) -> dict[str, tuple]:
    """Every end-to-end metric of the run as name -> (value, unit).

    Times are normalized (see Calibration).  A pass-level time is the sum
    over the pass's calls of each call's lower quartile across passes: the
    neighbours only ever slow a call down, and the lower quartile is the
    steadiest estimate of its own cost.  ``setup_s`` is the median over the
    set-up interpreters.  ``*_raw_s`` are the same estimates unnormalized.
    ``peak_rss_mb`` is the process's peak resident memory less what the
    calibration kernel keeps resident.
    """
    times = unit_times(untraced, lower_quartile)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - calibration.resident
    metrics = {
        "setup_s": (statistics.median(calibration.normalize(*run) for run in setup), "s"),
        "wall_s": (times["wall"], "s"),
        "peak_rss_mb": (peak / 2 ** 20, "MB"),
        "calibration_rss_mb": (calibration.resident / 2 ** 20, "MB"),
        "setup_raw_s": (statistics.median(run[0] for run in setup), "s"),
        "wall_raw_s": (times["raw"], "s"),
        "calibration_ms": (1e3 * statistics.median(u[2] for p in untraced for u in p["units"]),
                           "ms"),
    }
    if "cascades" in untraced[0]:
        metrics["cascades_per_s"] = (untraced[0]["cascades"] / times["mc"], "1/s")
    for label in sorted(set(times) - {"wall", "raw", "mc"}):
        metrics[f"{label.replace('-', '_')}_s"] = (times[label], "s")
    return metrics


def run_one(args) -> int:
    size = "tiny" if args.tiny else "full"
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.tiny, WORK)
    workload.generate()
    calibration = Calibration()
    setup = measure_setup(workload.spec_paths, SETUP_REPEATS[size], calibration)
    mf = import_program()
    workload.prepare(mf)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # fails here, before any pass, if a boundary is missing
        tracer.uninstall()
    untraced, traced = run_passes(workload, args.seconds, calibration, tracer,
                                  TRACED_PASSES[size])
    metrics = end_to_end(untraced, setup, calibration)
    checks = workload.check()
    failed = sum(not c.ok for c in checks)
    metrics["check_fail_frac"] = (failed / len(checks), "frac")

    layer = {}
    if tracer is not None:
        overhead = unit_times(traced, lower_quartile)["wall"] / metrics["wall_s"][0] - 1.0
        layer = tracing.layer_metrics([p["summary"] for p in traced], overhead)
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in layer.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    for c in checks:
        if not c.ok:
            print(f"check failed: {c.name}: {c.detail}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "sizes": workloads.SIZES[args.workload][size],
        "environment": environment(mf),
        "config_sha256": workload.config_sha256(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": layer,
        "raw": {"setup_s": setup, "untraced_passes": untraced,
                "traced_passes": [{k: v for k, v in p.items() if k not in ("summary", "spans")}
                                  for p in traced]},
        "checks": [c._asdict() for c in checks],
    }
    if traced:
        result["sample_counts"] = tracing.sample_counts([p["summary"] for p in traced])
        lo, hi = traced[0]["spans"]
        write_json(WORK / "spans" / f"{tag}.json", {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "attrs"],
            "profile": tracing.profile(tracer.spans[lo:hi]), "spans": tracer.spans[lo:hi]})
    write_json(WORK / "results" / f"{tag}.json", result)
    wanted = DECLARED["per_layer" if args.trace else "end_to_end"]
    source = layer if args.trace else {k: v for k, (v, _) in metrics.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit {done.returncode}: {done.stderr.strip()[-500:]}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args()
    if not (SRC / "multiflow" / "__init__.py").is_file():
        fail(f"the multiflow sources are missing under {SRC}")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except tracing.MissingBoundary as error:
        fail(str(error))


if __name__ == "__main__":
    sys.exit(main())
