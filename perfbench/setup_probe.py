"""Set-up time of one workload in a fresh interpreter.

Imports omnidyn, then runs the workload's set-up path up to its first
control tick or sweep direction, and prints one JSON line with import_s
and setup_s (import included). bench.py starts it with src/ on PYTHONPATH.
"""

import time

t0 = time.perf_counter()
import omnidyn  # noqa: E402,F401  (the package imports every module)

import_s = time.perf_counter() - t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import workloads  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--out", required=True)
args = parser.parse_args()
os.makedirs(args.out, exist_ok=True)
setup_s = workloads.WORKLOADS[args.workload].probe_setup(args.seed, args.out)
print(json.dumps({"import_s": import_s, "setup_s": import_s + setup_s}))
