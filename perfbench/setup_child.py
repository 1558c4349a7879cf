"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 setup_child.py <workload> <seed> <smoke 0|1> <out_dir> <src_dir>

Measures importing fedrelay (and numpy with it) plus building every
scenario, channel matrix and scenario file of the workload, and prints
{"setup_s": ..., "import_s": ..., "build_s": ..., "wall_s": ...} as its
last line. The first three are CPU time of this, the main, thread: the
set-up runs on it alone, while numpy's BLAS threads start during the
import and, depending on whether the other vCPUs are free, shorten its
wall time or not. On a 2-vCPU VM the median wall time of batches of
eleven set-ups differed by up to 38% between batches a few minutes
apart, the main thread's CPU time by up to 19%. `wall_s` is the wall
time of the same interval.
"""

import json
import sys
import time
from pathlib import Path

t0, c0 = time.perf_counter(), time.thread_time()
name, seed, smoke, out_dir, src_dir = sys.argv[1:6]
sys.path.insert(0, src_dir)

import workloads  # noqa: E402  (imports fedrelay, which is part of what is timed)

c1 = time.thread_time()
workloads.get(name, smoke == "1").build(int(seed), Path(out_dir))
t2, c2 = time.perf_counter(), time.thread_time()
print(json.dumps({"setup_s": c2 - c0, "import_s": c1 - c0, "build_s": c2 - c1, "wall_s": t2 - t0}))
