"""One set-up in a fresh interpreter: import reductionlab, build one
workload's inputs, and print a JSON line with the monotonic clock reading
at which the inputs were ready and the time spent importing the
benchmark's own modules, which set-up does not include.

Usage: python3 perfbench/probe.py <workload>   (src/ on PYTHONPATH)
"""

import json
import sys
import time

t0 = time.monotonic()
import reductionlab  # noqa: E402,F401

t1 = time.monotonic()
import workloads  # noqa: E402

t2 = time.monotonic()
inputs = workloads.WORKLOADS[sys.argv[1]].setup()
print(json.dumps({"ready": time.monotonic(), "import_s": t1 - t0,
                  "bench_import_s": t2 - t1}))
