"""The benchmark's tracer looks up package internals by name.

``bench/tracer.py`` wraps every function in its ``TARGETS`` table and
hooks the oracle's budget meter and caches; ``bench/workloads.py``
clears those caches between runs.  A rename or deletion in the package
would only surface when a traced benchmark run fails, so check here that
every name they need resolves.

The traced op lists are fixed, so the tracer's deterministic work
counters (calls per layer, oracle candidates, valuations per point,
cache hit ratios) depend only on the package and the seed, as the
golden digest does.  ``bench_counters.json`` pins them at seed 3.
"""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
RUN = ROOT / "bench" / "run.py"
COUNTERS = Path(__file__).with_name("bench_counters.json")


def _tracer():
    if not TRACER.is_file():
        pytest.skip("bench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _tracer().TARGETS
    assert targets
    for mod_name, fn_name in targets:
        module = importlib.import_module(f"newton_gauge.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_oracle_hooks_resolve():
    from newton_gauge import oracle

    assert callable(oracle._Budget.spend)
    for cached in (oracle._divisors, oracle._lagrange_basis):
        assert callable(cached.cache_clear)
        assert callable(cached.cache_info)


@pytest.mark.parametrize("workload", ["sweep-acceptance", "verify-padic", "analyze-bigval"])
def test_traced_work_counters_are_pinned(workload, tmp_path):
    """One untimed traced pass repeats every deterministic work counter
    pinned in bench_counters.json.  A change that means to change the
    work re-pins the file and gives each old and new value.

    bench/run.py writes its spans and records under the checkout that
    holds it, so the pass runs a copy of bench/ beside a link to src/ in
    tmp_path, and leaves the working tree as it was."""
    tracer = _tracer()
    if not RUN.is_file():
        pytest.skip("bench/run.py is not in this checkout")
    pytest.importorskip("sympy")
    pytest.importorskip("jsonschema")
    pinned = json.loads(COUNTERS.read_text())
    env = {k: v for k, v in os.environ.items() if k != "NEWTON_GAUGE_BUDGET"}
    argv = ["--workload", workload, "--seed", str(pinned["seed"]), "--seconds", "0", "--trace", "1"]
    shutil.copytree(RUN.parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    run = tmp_path / "bench" / RUN.name
    proc = subprocess.run(
        [sys.executable, str(run), *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    counters = {name: m["value"] for name, m in metrics.items() if tracer.is_deterministic(name)}
    expected = pinned["workloads"][workload]
    changed = [
        f"{name}: pinned {expected.get(name)}, now {counters.get(name)}"
        for name in sorted(expected.keys() | counters.keys())
        if expected.get(name) != counters.get(name)
    ]
    assert not changed, "\n".join(changed)
