"""newton-gauge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a closed loop with one client
for S seconds and checks every output outside the timed region.  Without
``--workload`` it runs all four, each in its own process.

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``: ops completed per second of busy time, the median over
  consecutive batches of ``BATCH[workload]`` timed calls;
* ``latency_p50_ms`` and ``latency_tail_ms``: median and tail
  percentile (``TAIL_PERCENTILE[workload]``) of the time per timed call;
* ``setup_s``: from process start to the first timed op (imports, sympy
  included for in-process workloads, and input generation), the median
  of ``SETUP_REPEATS`` fresh processes;
* ``peak_rss_mb``: peak resident memory of the measuring process, or of
  the largest child for ``cli-cold``.

``failed_share`` (failed ops / attempted ops) is printed with them; the
result line carries it as ``failed`` and ``attempted``.

Times are CPU time (user + system) of the processes doing the op: the
benchmark process for in-process workloads, plus the child for
``cli-cold`` and set-up.  The program is single-threaded and CPU-bound,
so on an idle core this equals the wall time a user waits, while on a
shared host it leaves out the time the scheduler gives to other tenants.
The run is pinned to one core, children included.

Times are also scaled to a reference host speed, because a shared
host's cores change speed by 20-60% from one second to the next and from
one minute to the next.  Every ``REFERENCE_EVERY`` seconds between ops,
and around the set-up processes, the benchmark times a fixed pure-Python
reference task with no newton_gauge code: ``reference_small`` (Fraction
and dict arithmetic), or for ``analyze-bigval`` ``reference_bigint``
(division of a 1,300-digit integer), since big-integer arithmetic keeps
pace with the host differently.  Each op's CPU time is multiplied by
``REFERENCE_MS`` over the mean CPU time of the ``REFERENCE_NEAREST``
reference samples nearest to it; set-up times use the mean of every
``reference_small`` sample taken around them.  The mean, not the median,
because a core switches between a fast and a slow state several times a
second, and the mean follows the share of time spent in each.  A change
to the program leaves the reference tasks alone, so scaled times move
with the program and not with the host.  Unscaled CPU and wall figures
and the reference samples go to the run record.

``--trace 1`` runs a fixed prefix of the same input stream in pairs of
untraced and traced passes for S seconds and prints the per-layer
metrics: call counts, candidate counts and ratios (identical in every
traced pass, or the run fails) and self times (median over passes).
Spans of the first traced pass go to ``.bench_out/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output fails its check, and 2 when ``src/newton_gauge`` is missing.

``python3 bench/run.py --write-golden`` records the sha256 digests of
the canonical outputs of each workload's golden corpus (the first ops
of seed 0) in ``bench/golden.json``; every run reports whether they
still match.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import workloads as wl
from tracer import Tracer, is_deterministic, parse_importtime, read_child_spans

BENCH = Path(__file__).resolve().parent
OUT = wl.ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 0

# Timed calls per throughput batch: a whole number of stratification
# blocks, so every batch has the same input mix.
BATCH = {"sweep-acceptance": 4, "verify-padic": 24, "analyze-bigval": 8, "cli-cold": 3}
# Every DEEP_EVERY-th op also gets the costly check (sympy factor_list,
# jsonschema); the rest get the cheap ones.
DEEP_EVERY = {"verify-padic": 4, "analyze-bigval": 8}
# Ops in one pass of the traced run, and in the golden corpus.
TRACE_OPS = {"sweep-acceptance": 4, "verify-padic": 48, "analyze-bigval": 8, "cli-cold": 12}
GOLDEN_OPS = {"sweep-acceptance": 2, "verify-padic": 16, "analyze-bigval": 4, "cli-cold": 6}
SETUP_REPEATS = 7
# Host-speed scaling (see the module docstring): a reference task runs at
# most every REFERENCE_EVERY seconds between ops and takes about 2 ms on
# a 2-vCPU Xeon VM; times are reported as if it took REFERENCE_MS.
REFERENCE_EVERY = 0.1
REFERENCE_NEAREST = 8
REFERENCE_MS = 2.0
# Reference samples taken before each set-up process and after the last.
REFERENCE_AROUND_SETUP = 3
# The tail percentile of each workload: the highest of p75/p90/p95/p99
# with at least ten samples beyond it in a 20 s run at the commit that
# defined the benchmark, except verify-padic.  Its heavy tail comes from
# a few costly inputs, so its high percentiles move with the seed: across
# six seeds p99 (about 17 samples beyond) spread 14% and p95 12% (IQR over
# median), against 7% for p90.  It is fixed so that a faster program,
# which completes more ops, is compared at the same percentile; the record
# gives the samples beyond it and p50-p99 in every run.
TAIL_PERCENTILE = {"sweep-acceptance": 95.0, "verify-padic": 90.0, "analyze-bigval": 90.0, "cli-cold": 75.0}


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str, seed: int) -> tuple:
    """Imports and the input stream, up to the first op; returns
    (stream, first op, import times in ms)."""
    imports = {}
    if workload in wl.IN_PROCESS:
        t = time.perf_counter()
        import newton_gauge.cli  # noqa: F401

        imports["newton_gauge"] = 1000.0 * (time.perf_counter() - t)
        t = time.perf_counter()
        import sympy  # noqa: F401  (the oracle imports it lazily on its first call)

        imports["sympy"] = 1000.0 * (time.perf_counter() - t)
    stream = wl.STREAMS[workload](seed)
    return stream, next(stream), imports


def measure_setup(workload: str, seed: int) -> tuple:
    """SETUP_REPEATS fresh processes that set up and exit; returns their
    CPU seconds scaled by the mean of every reference sample taken
    around them, their CPU and their wall seconds, one list each."""
    refs, cpu, wall = [], [], []
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        refs += [reference_cpu() for _ in range(REFERENCE_AROUND_SETUP)]
        c, t = children_cpu(), time.perf_counter()
        proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True)
        wall.append(time.perf_counter() - t)
        cpu.append(children_cpu() - c)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-300:]}")
    refs += [reference_cpu() for _ in range(REFERENCE_AROUND_SETUP)]
    scale = REFERENCE_MS / (1000.0 * statistics.fmean(refs))
    return [c * scale for c in cpu], cpu, wall


# ---------------------------------------------------------------------------
# Running ops


class Outcome(NamedTuple):
    seconds: float  # CPU time
    wall: float
    entries: int
    failed: int
    error: Optional[str]
    canonical: str


def reference_small() -> Fraction:
    """A fixed task on small integers and fractions; its CPU time gauges
    the host's speed for code like most of the program."""
    acc, counts = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i * i + 1) if i % 50 else -acc
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


BIG = 3 * 7**1500


def reference_bigint() -> int:
    """A fixed task on a 1,300-digit integer: its 7-adic valuation by
    repeated division, and its decimal text."""
    x, v = BIG, 0
    while x % 7 == 0:
        x //= 7
        v += 1
    return v + len(str(BIG))


REFERENCE_TASK = {"analyze-bigval": reference_bigint}


def reference_cpu(workload: Optional[str] = None) -> float:
    """CPU seconds of one run of the workload's reference task."""
    task = REFERENCE_TASK.get(workload, reference_small)
    c = time.process_time()
    task()
    return time.process_time() - c


def host_scale(refs: list, at: float) -> float:
    """Factor that scales a CPU time taken at wall time ``at`` to the
    reference host: REFERENCE_MS over the mean of the REFERENCE_NEAREST
    samples (wall time, CPU seconds) of ``refs`` nearest to ``at``."""
    lo = max(0, bisect.bisect_left(refs, (at,)) - REFERENCE_NEAREST // 2)
    nearest = refs[max(0, min(lo, len(refs) - REFERENCE_NEAREST)):][:REFERENCE_NEAREST]
    return REFERENCE_MS / (1000.0 * statistics.fmean(cpu for _, cpu in nearest))


def children_cpu() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_op(workload: str, op: wl.Op, index: int, env: dict, tracer=None) -> tuple:
    """Run one op; returns (CPU seconds, wall seconds, raw result), or
    (0.0, 0.0, the exception) for an op that raised."""
    if workload == "cli-cold":
        c, t = time.process_time() + children_cpu(), time.perf_counter()
        proc = wl.run_cold(op, env, traced=tracer is not None)
        wall = time.perf_counter() - t
        seconds = time.process_time() + children_cpu() - c
        if tracer is not None:
            spans = read_child_spans(proc.stderr)
            if spans is None:
                return 0.0, 0.0, RuntimeError(f"traced child sent no spans: {proc.stderr[-300:]}")
            tracer.absorb(spans, index)
            tracer.imports.append(parse_importtime(proc.stderr))
        return seconds, wall, proc
    wl.clear_caches()
    if tracer is not None:
        tracer.begin_op(index)
    try:
        c, t = time.process_time(), time.perf_counter()
        raw = wl.run_sweep(op) if workload == "sweep-acceptance" else wl.run_in_process(op)
        wall = time.perf_counter() - t
        seconds = time.process_time() - c
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return 0.0, 0.0, exc
    if tracer is not None:
        tracer.end_op()
    return seconds, wall, raw


def check_op(workload: str, op: wl.Op, index: int, seconds: float, wall: float, raw) -> Outcome:
    """Check one op's output; runs outside the timed region."""
    if isinstance(raw, Exception):
        return Outcome(0.0, 0.0, op.entries, op.entries, f"{type(raw).__name__}: {raw}", "")
    if workload == "cli-cold":
        error = wl.check_cold(op, raw)
        return Outcome(seconds, wall, 1, int(error is not None), error, raw.stdout)
    if workload == "sweep-acceptance":
        text, summary = raw
        error = wl.check_sweep(op, summary)
        failed = summary.budget_errors + len(summary.violations)
        return Outcome(seconds, wall, op.entries, min(op.entries, failed), error, text)
    code, text = raw
    deep = index % DEEP_EVERY[workload] == 0
    error = wl.CHECKS[workload](op, code, text, deep)
    return Outcome(seconds, wall, 1, int(error is not None), error, f"{code}\n{text}")


def run_op(workload: str, op: wl.Op, index: int, env: dict) -> Outcome:
    return check_op(workload, op, index, *time_op(workload, op, index, env))


def digest(workload: str, env: dict) -> str:
    """sha256 of the canonical outputs of the golden corpus."""
    h = hashlib.sha256()
    for i, op in enumerate(wl.take(wl.STREAMS[workload](GOLDEN_SEED), GOLDEN_OPS[workload])):
        if workload == "cli-cold":
            code, text = wl.in_process_output(op)
            canonical = f"{code}\n{text}"
        else:
            canonical = run_op(workload, op, i, env).canonical
        h.update(canonical.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Statistics


def tail(latencies: list, q: float) -> tuple:
    """(nearest-rank q-th percentile, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def percentiles(latencies: list) -> dict:
    return {f"p{q:g}": tail(latencies, q)[0] for q in (50, 75, 90, 95, 99)}


def batch_throughput(outcomes: list, size: int, clock: str = "seconds") -> float:
    """Median over batches of entries per second of ``clock`` time."""
    rates = []
    for i in range(0, len(outcomes) - size + 1, size):
        batch = outcomes[i:i + size]
        rates.append(sum(o.entries for o in batch) / sum(getattr(o, clock) for o in batch))
    if not rates:  # shorter than one batch
        return sum(o.entries for o in outcomes) / sum(getattr(o, clock) for o in outcomes)
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# Run record


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown"
    in a checkout that is not a git repository."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> dict:
    pkg = wl.SRC / "newton_gauge"
    py = sum(len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py")))
    return {"python": py, "schema": len((pkg / "report.schema.json").read_text().splitlines())}


def machine_state() -> dict:
    """Load average and the time of a fixed pure-Python loop (median of
    five), so a record shows how busy and how fast the machine was."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(1000.0 * (time.perf_counter() - t))
    return {"loadavg": list(os.getloadavg()), "cpu_probe_ms": statistics.median(times)}


def run_record(workload: str, seed: int, seconds: float, trace: int, before: dict) -> dict:
    from importlib import metadata

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load_model": "closed loop, 1 client",
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "cores": sorted(os.sched_getaffinity(0)),
        "machine_before": before,
        "machine_after": machine_state(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict, record: dict, name: str) -> int:
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{name}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The two kinds of run


E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(workload: str, seed: int, seconds: float) -> int:
    before = machine_state()
    setup_started = time.perf_counter()
    stream, op, imports = setup(workload, seed)
    env = wl.cold_env()
    first_op_at = time.perf_counter()
    outcomes, starts, refs, errors = [], [], [], []
    index = 0
    while True:
        if not refs or time.perf_counter() - refs[-1][0] >= REFERENCE_EVERY:
            refs.append((time.perf_counter(), reference_cpu(workload)))
        starts.append(time.perf_counter())
        outcome = run_op(workload, op, index, env)
        outcomes.append(outcome)
        if outcome.error:
            errors.append(f"op {index} {op.argv[:1]}: {outcome.error}")
        index += 1
        if time.perf_counter() - first_op_at >= seconds:
            break
        op = next(stream)
    refs.append((time.perf_counter(), reference_cpu(workload)))
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    raw = [o for o in outcomes if o.seconds > 0]
    timed = [o._replace(seconds=o.seconds * host_scale(refs, t)) for o, t in zip(outcomes, starts) if o.seconds > 0]
    latencies = [1000.0 * o.seconds for o in timed]
    tail_q = TAIL_PERCENTILE[workload]
    tail_ms, tail_beyond = tail(latencies, tail_q)
    attempted = sum(o.entries for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    golden = json.loads(GOLDEN.read_text()).get(workload) if GOLDEN.is_file() else None
    got = digest(workload, env)
    setups, setup_cpus, setup_walls = measure_setup(workload, seed)
    metrics = {
        "ops_per_s": batch_throughput(timed, BATCH[workload]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    record = run_record(workload, seed, seconds, 0, before)
    record.update(
        {
            "timed_calls": len(timed),
            "entries_per_call": outcomes[0].entries,
            "throughput_batch_calls": BATCH[workload],
            "latency_tail_percentile": tail_q,
            "latency_tail_samples_beyond": tail_beyond,
            "latency_percentiles_ms": percentiles(latencies),
            "failed_share": failed / attempted,
            "setup_samples_s": setups,
            "reference_ms": {
                "samples": len(refs),
                "quartiles": [1000.0 * q for q in statistics.quantiles([c for _, c in refs], n=4)],
            },
            "unscaled_cpu": {
                "ops_per_s": batch_throughput(raw, BATCH[workload]),
                "latency_percentiles_ms": percentiles([1000.0 * o.seconds for o in raw]),
                "setup_samples_s": setup_cpus,
            },
            "wall": {
                "ops_per_s": batch_throughput(raw, BATCH[workload], "wall"),
                "latency_percentiles_ms": percentiles([1000.0 * o.wall for o in raw]),
                "setup_samples_s": setup_walls,
            },
            "in_process_setup_s": first_op_at - setup_started,
            "in_process_imports_ms": imports,
            "digest": got,
            "digest_matches_golden": got == golden,
            "errors": errors[:20],
        }
    )
    print(f"workload          {workload}  seed {seed}  {seconds:g} s  closed loop, 1 client")
    for key, value in metrics.items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{tail_q:g}, {tail_beyond} of {len(timed)} samples beyond)"
        print(f"{key:<18}{value:.6g} {E2E_UNITS[key]}{note}")
    print(f"{'failed_share':<18}{failed / attempted:.6g}  ({failed} of {attempted} ops)")
    print(f"{'digest':<18}{got[:16]}  matches golden: {got == golden}")
    for line in errors[:20]:
        print("FAILED " + line)
    return emit(not errors, attempted, failed, metrics, E2E_UNITS, record, f"{workload}-seed{seed}-trace0")


def per_layer(workload: str, seed: int, seconds: float) -> int:
    before = machine_state()
    stream, first, imports = setup(workload, seed)
    ops = [first] + wl.take(stream, TRACE_OPS[workload] - 1)
    polynomials = sum(op.entries // len(wl.SWEEP_PRIMES) if op.argv[0] == "sweep" else 1 for op in ops)
    entries = sum(op.entries for op in ops)
    env = wl.cold_env()
    untraced, traced, passes, errors = [], [], [], []
    first_tracer = None
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        plain = [run_op(workload, op, i, env) for i, op in enumerate(ops)]
        untraced.append(sum(o.seconds for o in plain))
        tracer = Tracer()
        if workload != "cli-cold":
            tracer.install()
            saved_dumps, wl.json_dumps = wl.json_dumps, tracer.dumps
        try:
            raws = [time_op(workload, op, i, env, tracer) for i, op in enumerate(ops)]
        finally:
            if workload != "cli-cold":
                tracer.uninstall()
                wl.json_dumps = saved_dumps
        outcomes = [check_op(workload, op, i, *raw) for (i, op), raw in zip(enumerate(ops), raws)]
        traced.append(sum(o.seconds for o in outcomes))
        errors += [o.error for o in plain + outcomes if o.error]
        metrics = tracer.metrics(polynomials)
        if workload == "cli-cold":
            for package in ("newton_gauge", "sympy"):
                times = [t[package] for t in tracer.imports if package in t]
                metrics[f"cli.import_{package}_ms"] = statistics.median(times) if times else 0.0
        else:
            metrics["cli.import_newton_gauge_ms"] = imports["newton_gauge"]
            metrics["cli.import_sympy_ms"] = imports["sympy"]
        passes.append(metrics)
        if first_tracer is None:
            first_tracer = tracer
    first_tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")

    for name, value in passes[0].items():
        if is_deterministic(name) and any(p[name] != value for p in passes[1:]):
            errors.append(f"counter {name} differs between traced passes")
    result = {
        name: value if is_deterministic(name) else statistics.median(p[name] for p in passes)
        for name, value in passes[0].items()
    }
    result["trace.untraced_ops_per_s"] = entries / statistics.median(untraced)
    result["trace.traced_ops_per_s"] = entries / statistics.median(traced)
    result["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    units = {name: layer_unit(name) for name in result}
    record = run_record(workload, seed, seconds, 1, before)
    record.update({"passes": len(passes), "ops_per_pass": len(ops), "entries_per_pass": entries, "errors": errors[:20]})
    print(f"workload          {workload}  seed {seed}  traced, {len(passes)} passes of {len(ops)} ops")
    for name, value in result.items():
        print(f"{name:<44}{value:.6g} {units[name]}")
    for line in errors[:20]:
        print("FAILED " + line)
    attempted = 2 * entries * len(passes)  # untraced and traced passes
    return emit(not errors, attempted, len(errors), result, units, record, f"{workload}-seed{seed}-trace1")


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".self_ms" in name:
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith((".calls", ".budget_errors")) or name.startswith("oracle.candidates"):
        return "count"
    return "ratio"


def write_golden() -> int:
    env = wl.cold_env()
    setup("verify-padic", GOLDEN_SEED)
    digests = {name: digest(name, env) for name in wl.STREAMS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after another; the exit code
    is the worst of theirs."""
    codes = []
    for workload in wl.STREAMS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        codes.append(subprocess.run(cmd, cwd=wl.ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.STREAMS), help="default: all four, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (wl.SRC / "newton_gauge" / "__init__.py").is_file():
        print(f"newton_gauge sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    # One core for this process and every child it starts, so that the
    # reference samples gauge the core the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        return per_layer(args.workload, args.seed, args.seconds)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
