"""Set-up probe: one fresh interpreter taken to validated inputs.

    python3 bench/probe.py <workload> <seed>

It imports the package, makes or loads the workload's config document,
builds it and validates it, then prints ``time.perf_counter()``. The
caller reads the clock just before it starts this process; on Linux both
read the same monotonic clock, so the difference is the set-up time.
"""
import sys
import time

from run import import_package

import_package()

from workloads import WORKLOADS  # noqa: E402  (needs the package path)

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter())
