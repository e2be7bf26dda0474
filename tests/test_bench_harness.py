"""The benchmark's tracer looks up package internals by name.

``bench/tracer.py`` wraps every function in its ``TARGETS`` table and
hooks the oracle's budget meter and caches; ``bench/workloads.py``
clears those caches between runs.  A rename or deletion in the package
would only surface when a traced benchmark run fails, so check here that
every name they need resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    if not TRACER.is_file():
        pytest.skip("bench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_function_resolves():
    targets = _tracer_targets()
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
