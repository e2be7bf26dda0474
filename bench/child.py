"""Traced child for the cli-cold workload: ``python -X importtime child.py ARGV``.

Runs ``newton_gauge.cli.main(ARGV)`` under the span tracer; stdout is
the program's own output, and the spans follow on stderr.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import child_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
