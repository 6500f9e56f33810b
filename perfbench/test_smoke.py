"""Smoke test of the benchmark at its tiny sizes.

Runs every workload declared in BENCHMARK.json once untraced and once traced,
as the benchmark command would, and checks that the last output line is the
result object with every declared metric under its declared unit and that
every output check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_benchmark_emits_declared_metrics(workload, trace):
    argv = [sys.executable, *DECLARED["command"][1:], "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import multiflow.cli  # noqa: F401  (loads every layer)
    import multiflow.simulate
    import tracing

    assert tracing.missing_boundaries() == []
    monkeypatch.delattr(multiflow.simulate, "run_cascade")
    assert tracing.missing_boundaries() == ["multiflow.simulate.run_cascade"]
    tracer = tracing.Tracer()
    with pytest.raises(tracing.MissingBoundary, match="run_cascade"):
        tracer.install()
    assert tracer.spans == [] and tracer._restore == []
