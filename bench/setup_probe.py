"""Child process that times the benchmark's set-up path from a cold start.

    python3 bench/setup_probe.py <workload> <seed>

Imports the package, builds the workload's inputs and prints the wall
clock (time.time) at which the first timed call could begin.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402
from harness import NullTracer  # noqa: E402

WORKLOADS[sys.argv[1]].setup(sys.argv[1], int(sys.argv[2]), NullTracer())
print(repr(time.time()))
