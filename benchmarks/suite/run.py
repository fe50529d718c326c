"""Benchmark entry point: ``python3 benchmarks/suite/run.py --workload NAME --seed N``.

Equivalent to ``python3 -m benchmarks.suite``; see ``cli.py``.
"""

import sys
from pathlib import Path

# Replace this directory (the script's own) with the repository root, so
# the suite's modules import as ``benchmarks.suite.*`` and never shadow
# top-level modules.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
