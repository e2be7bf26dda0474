"""Compare the CPU time of two revisions of the package, interleaved in one process.

Copies ``src/newton_gauge`` from each of two git revisions into a
temporary directory, under the package names ``newton_gauge_a`` and
``newton_gauge_b``, and imports both.  It then draws one op stream from
``bench/workloads.py`` (read as it is, never edited) and runs it round
after round; each op runs on both sides back to back, and the side that
goes first alternates from op to op.  While a side runs,
``sys.modules["newton_gauge"]`` is that side's package, so the
benchmark's own op functions (``run_sweep``, ``run_in_process``,
``clear_caches``) run unchanged.  Each op starts with empty oracle
caches, as in ``bench/run.py``.

Prints each side's median CPU seconds per round, every round's ratio
B / A, their median and how many ops printed different output on the
two sides.  It gates nothing.  On a small shared host, separate
benchmark processes can differ by tens of percent from run to run;
running both sides on each op within moments of each other cancels most
of that drift.

Usage:
    python tools/ab_inprocess.py BASE_REV CHANGE_REV
        [--workload sweep-acceptance|verify-padic|analyze-bigval]
        [--ops 30] [--rounds 10] [--seed 3]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "newton_gauge"
PREFIX = f"src/{PACKAGE}/"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_package(rev: str, dest: Path) -> None:
    """Write the files of src/newton_gauge at rev into dest."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, PREFIX],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar:
            if not member.isfile():
                continue
            target = dest / member.name[len(PREFIX):]
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(tar.extractfile(member).read())


def import_side(name: str, directory: Path):
    """Import the package copied to directory/name and every module in it, so
    ``from newton_gauge import x`` finds x on the package while it stands in."""
    package = importlib.import_module(name)
    for path in sorted((directory / name).glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    return package


@contextlib.contextmanager
def standing_in(package):
    saved = sys.modules.get(PACKAGE)
    sys.modules[PACKAGE] = package
    try:
        yield
    finally:
        if saved is None:
            del sys.modules[PACKAGE]
        else:
            sys.modules[PACKAGE] = saved


def run_op(wl, workload: str, op, package) -> tuple:
    """CPU seconds of one op through one side, and the text it printed."""
    with standing_in(package):
        wl.clear_caches()
        c = time.process_time()
        raw = wl.run_sweep(op) if workload == "sweep-acceptance" else wl.run_in_process(op)
        seconds = time.process_time() - c
    return seconds, raw[0] if workload == "sweep-acceptance" else raw


def main(argv=None) -> int:
    wl = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of side A")
    parser.add_argument("change", help="git revision of side B")
    parser.add_argument("--workload", choices=wl.IN_PROCESS, default="sweep-acceptance")
    parser.add_argument("--ops", type=int, default=30, help="ops in the stream (default 30)")
    parser.add_argument("--rounds", type=int, default=10, help="rounds, one pair each (default 10)")
    parser.add_argument("--seed", type=int, default=3, help="stream seed (default 3)")
    args = parser.parse_args(argv)

    ops = wl.take(wl.STREAMS[args.workload](args.seed), args.ops)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        sides = {}
        for label, rev in (("A", args.base), ("B", args.change)):
            name = f"{PACKAGE}_{label.lower()}"
            copy_package(rev, directory / name)
            sys.path.insert(0, str(directory))
            sides[label] = import_side(name, directory)
        cpu = {"A": [], "B": []}
        differ = set()
        for i in range(args.rounds):
            seconds = {"A": 0.0, "B": 0.0}
            for j, op in enumerate(ops):
                outputs = {}
                for label in ("AB" if (i + j) % 2 == 0 else "BA"):
                    spent, outputs[label] = run_op(wl, args.workload, op, sides[label])
                    seconds[label] += spent
                if outputs["A"] != outputs["B"]:
                    differ.add(j)
            for label in cpu:
                cpu[label].append(seconds[label])
    ratios = [b / a for a, b in zip(cpu["A"], cpu["B"])]
    print(f"workload {args.workload}, {args.ops} ops, {args.rounds} rounds, seed {args.seed}")
    print(f"A {args.base}: median {statistics.median(cpu['A']):.4f} s CPU per round")
    print(f"B {args.change}: median {statistics.median(cpu['B']):.4f} s CPU per round")
    print("B / A per round: " + " ".join(f"{r:.4f}" for r in ratios))
    print(f"B / A median: {statistics.median(ratios):.4f}, B faster in {sum(r < 1 for r in ratios)} of {len(ratios)}")
    print(f"ops whose output differs: {len(differ)} of {args.ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
