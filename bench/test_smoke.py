"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Every metric named in BENCHMARK.json is emitted, the deterministic
per-layer counters repeat exactly for the same seed, the candidate hook
fails loudly when it is bypassed, and the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer, is_deterministic

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def metrics_of(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    metrics = metrics_of(workload, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = metrics_of(workload, 1), metrics_of(workload, 1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert first[spec["name"]]["unit"] == spec["unit"]
    counters = [name for name in first if is_deterministic(name)]
    assert any(name.endswith(".calls") for name in counters)
    assert {n: first[n]["value"] for n in counters} == {n: second[n]["value"] for n in counters}


def test_bypassed_candidate_hook_fails_loudly():
    sys.path.insert(0, str(ROOT / "src"))
    from newton_gauge import oracle
    from newton_gauge.polynomial import parse_polynomial

    unhooked = oracle._Budget.spend
    tracer = Tracer()
    tracer.install()
    try:
        oracle._Budget.spend = unhooked
        oracle.kronecker_factor(parse_polynomial("x^4+x+1"))
    finally:
        tracer.uninstall()
    with pytest.raises(RuntimeError, match="never fired"):
        tracer.metrics(polynomials=1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
