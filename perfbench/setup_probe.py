"""Time one cold set-up of a workload and print it in seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before cellsim (and numpy) are imported and stops after
the workload's config is built and its first episode is reset.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
