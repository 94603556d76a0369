"""Time one cold set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_time.py <workload> <seed>

Set-up is importing ncperiods, building the exact q-expansion bases the
workload needs and drawing its inputs from the seed.  run.py starts this
several times per run and reports the fastest as setup_s.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports ncperiods and numpy)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
