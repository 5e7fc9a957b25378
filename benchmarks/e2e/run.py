"""Run one end-to-end benchmark workload; the last stdout line is its result.

From the repository root::

    python3 benchmarks/e2e/run.py --workload des-gated --seed 0 --seconds 10 --trace 0

See ``python3 -m benchmarks.e2e --help`` for running every workload,
tracing, and comparing two result files.
"""

import sys
from pathlib import Path

# Import the package from the repository root, not this script's directory.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
