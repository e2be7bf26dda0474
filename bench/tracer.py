"""Span tracing of newton_gauge from outside the package.

``Tracer.install`` rebinds every public function listed in ``TARGETS``
in each ``newton_gauge`` module namespace that holds a reference to it
(``cli``, ``criteria``, ``newton`` and ``oracle`` import their own
copies), so calls between modules are recorded too.  Each wrapper
records a span: name, start, end, parent span and op id.  Spans stay in
memory in flat arrays until the run ends.  Two hooks are not spans:
``oracle._Budget.spend`` counts candidates by the degree of the
innermost ``kronecker_factor`` call, and the oracle's ``lru_cache``
statistics are read after every op.

A layer's self time is its spans' duration minus the time covered by
their direct children.  In a cold child the oracle's first call imports
sympy, so there ``oracle.kronecker_factor.self_ms`` includes that import.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Optional

TARGETS = (
    ("valuation", "p_adic_valuation"),
    ("newton", "slope_table"),
    ("newton", "lower_convex_hull"),
    ("newton", "newton_index"),
    ("criteria", "analyze"),
    ("criteria", "dumas_degree_sets"),
    ("criteria", "check_theorem1"),
    ("criteria", "check_theorem2"),
    ("criteria", "compute_parameters"),
    ("oracle", "kronecker_factor"),
    ("oracle", "verify_certificate"),
    ("oracle", "check_dumas_consistency"),
    ("oracle", "sweep"),
    ("polynomial", "parse_polynomial"),
    ("polynomial", "format_polynomial"),
    ("report", "analysis_report"),
    ("report", "sweep_report"),
    ("report", "render_analysis_text"),
    ("cli", "main"),
)
JSON_DUMPS = "report.json_dumps"
KRONECKER = "oracle.kronecker_factor"
ORACLE_DEGREES = range(2, 13)

# Counters that must repeat exactly for the same inputs.
DETERMINISTIC_SUFFIXES = (".calls", "_ratio", "_per_point", "_per_analysis", "_per_polynomial", ".budget_errors")


def is_deterministic(name: str) -> bool:
    return name.startswith("oracle.candidates") or name.endswith(DETERMINISTIC_SUFFIXES)


class _JsonProxy:
    """Stands in for the ``json`` module in ``cli`` so ``json.dumps`` is traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.attr = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._kron_degrees: list = []
        self.op_id = -1
        self.candidates: Counter = Counter()
        self.budget_errors = 0
        self.points = 0
        self.cache = {"divisor": [0, 0], "lagrange": [0, 0]}  # [hits, misses]
        self.imports: list = []  # -X importtime readings of traced children
        self._restore: list = []
        self.dumps = self.wrap(JSON_DUMPS, json.dumps)

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, attr_of=None):
        nid = self._intern(name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.attr.append(attr_of(args) if attr_of else -1)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        from newton_gauge import oracle

        for key, fn in (("divisor", oracle._divisors), ("lagrange", oracle._lagrange_basis)):
            info = fn.cache_info()
            self.cache[key][0] += info.hits
            self.cache[key][1] += info.misses

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "newton_gauge" and not mod_name.startswith("newton_gauge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        import newton_gauge.cli  # noqa: F401  (loads every module)
        from newton_gauge import cli, oracle

        for mod_name, fn_name in TARGETS:
            module = importlib.import_module(f"newton_gauge.{mod_name}")
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == KRONECKER:
                replacement = self.wrap(name, self._kronecker(original), attr_of=_degree)
            elif name == "criteria.analyze":
                replacement = self.wrap(name, self._analyze(original))
            else:
                replacement = self.wrap(name, original)
            self._rebind(original, replacement)

        self._restore.append((cli, "json", cli.json))
        cli.json = _JsonProxy(self.dumps)

        spend = oracle._Budget.spend
        degrees = self._kron_degrees
        candidates = self.candidates

        def counted_spend(budget, amount=1):
            candidates[degrees[-1] if degrees else 0] += amount
            return spend(budget, amount)

        self._restore.append((oracle._Budget, "spend", spend))
        oracle._Budget.spend = counted_spend

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _kronecker(self, original):
        from newton_gauge.oracle import OracleBudgetError

        def kronecker(f, *args, **kwargs):
            self._kron_degrees.append(f.degree)
            try:
                return original(f, *args, **kwargs)
            except OracleBudgetError:
                self.budget_errors += 1
                raise
            finally:
                self._kron_degrees.pop()

        return kronecker

    def _analyze(self, original):
        def analyze(inp, *args, **kwargs):
            self.points += sum(1 for c in inp.poly.coeffs if c)
            return original(inp, *args, **kwargs)

        return analyze

    # -- moving spans between processes ------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.attr[i], self.parent[i], self.start[i], self.end[i]]
                for i in range(len(self.start))
            ],
            "candidates": dict(self.candidates),
            "budget_errors": self.budget_errors,
            "points": self.points,
            "cache": self.cache,
        }

    def absorb(self, data: dict, op_id: int) -> None:
        """Append spans and counters exported by a child process."""
        base = len(self.start)
        ids = [self._intern(name) for name in data["names"]]
        for nid, attr, parent, start, end in data["spans"]:
            self.name_id.append(ids[nid])
            self.attr.append(attr)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
            self.start.append(start)
            self.end.append(end)
        for degree, units in data["candidates"].items():
            self.candidates[int(degree)] += units
        self.budget_errors += data["budget_errors"]
        self.points += data["points"]
        for key, (hits, misses) in data["cache"].items():
            self.cache[key][0] += hits
            self.cache[key][1] += misses

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name, degree, op, parent, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("span,name,degree,op,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name_id[i]]},{self.attr[i]},{self.op[i]},"
                    f"{self.parent[i]},{self.start[i]!r},{self.end[i]!r}\n"
                )

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, polynomials: int) -> dict:
        """Per-layer metrics over every span recorded so far."""
        covered = [0.0] * len(self.start)
        for i in range(len(self.start)):
            parent = self.parent[i]
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        kron_self: defaultdict = defaultdict(float)
        kron = self._ids.get(KRONECKER)
        for i in range(len(self.start)):
            nid = self.name_id[i]
            own = self.end[i] - self.start[i] - covered[i]
            calls[nid] += 1
            self_s[nid] += own
            if nid == kron:
                kron_self[self.attr[i]] += own

        def count(name: str) -> int:
            return calls[self._ids[name]] if name in self._ids else 0

        def self_ms(name: str) -> float:
            return 1000.0 * self_s[self._ids[name]] if name in self._ids else 0.0

        out: dict = {}
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = count(name)
            out[f"{name}.self_ms"] = self_ms(name)
        out[f"{JSON_DUMPS}_ms"] = self_ms(JSON_DUMPS)
        for degree in ORACLE_DEGREES:
            out[f"{KRONECKER}.self_ms.deg{degree}"] = 1000.0 * kron_self[degree]
            out[f"oracle.candidates.deg{degree}"] = self.candidates[degree]
        out["oracle.candidates"] = sum(self.candidates.values())
        out["oracle.budget_errors"] = self.budget_errors
        if out[f"{KRONECKER}.calls"] and not out["oracle.candidates"]:
            raise RuntimeError(
                "kronecker_factor ran but the _Budget.spend hook never fired;"
                " oracle.candidates would read 0"
            )
        analyses = out["criteria.analyze.calls"]
        out["valuation.valuations_per_point"] = _ratio(out["valuation.p_adic_valuation.calls"], self.points)
        out["newton.slope_tables_per_analysis"] = _ratio(out["newton.slope_table.calls"], analyses)
        out["newton.hulls_per_analysis"] = _ratio(out["newton.lower_convex_hull.calls"], analyses)
        out["oracle.factorizations_per_polynomial"] = _ratio(out[f"{KRONECKER}.calls"], polynomials)
        for key, (hits, misses) in self.cache.items():
            out[f"oracle.{key}_cache_hit_ratio"] = _ratio(hits, hits + misses)
        return out


def _degree(args) -> int:
    return args[0].degree


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) of newton_gauge and sympy from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        package = fields[2].strip()
        if package in ("newton_gauge", "sympy"):
            try:
                out[package] = int(fields[1]) / 1000.0
            except ValueError:
                continue
    return out


SPANS_MARK = "NEWTON_GAUGE_BENCH_SPANS "


def child_main(argv: list) -> int:
    """Run ``cli.main(argv)`` under tracing and report spans on stderr."""
    import newton_gauge.cli  # timed by -X importtime in the parent's view

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = newton_gauge.cli.main(argv)
        tracer.end_op()
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARK + json.dumps(tracer.export()) + "\n")
    return code


def read_child_spans(stderr: str) -> Optional[dict]:
    for line in reversed(stderr.splitlines()):
        if line.startswith(SPANS_MARK):
            return json.loads(line[len(SPANS_MARK):])
    return None
