"""omnidyn benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cartwheel --seed 1 --seconds 20 --trace 0

--workload is cartwheel, sweeps or scatter (see workloads.py), or all,
which runs each in its own process. --seconds is the measuring time of
the run. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it measures half its time untraced and half traced and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The program is imported from src/ of the checkout; without it the run
exits with code 2 and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("cartwheel", "sweeps", "scatter")
# Pinned before numpy loads, so the measured load is one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # Unset so the sweeps take omnidyn's default single-threaded path.
    inherited = os.environ.pop("OMNIDYN_THREADS", None)
    sys.path.insert(0, SRC)
    try:
        import omnidyn
    except ImportError as exc:
        print(f"perfbench: cannot import omnidyn from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(omnidyn.__file__)) != os.path.join(SRC, "omnidyn"):
        print(f"perfbench: omnidyn came from {omnidyn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench

    threads = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    threads["OMNIDYN_THREADS"] = f"unset (inherited: {inherited or 'unset'})"
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
