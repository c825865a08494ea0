"""Closed-loop robustness guard: the benchmark's own scatter batch.

Each scatter run draws its vehicle and its start offset from the seed (see
perfbench/workloads.py; the draw is imported, not copied) and counts as
failed when it ends outside the criterion-6 bounds or diverges.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

SEEDS = range(1, 6)
# Failed runs of the 40 at seeds 1-5: 3, 5, 1, 4 and 3 when this guard was
# added. A change that makes the closed loop recover from more starts
# lowers the bound; one that fails more runs is a robustness regression.
MAX_FAILED_RUNS = 16


def test_scatter_batches_fail_no_more_runs_than_the_bound(tmp_path):
    scatter = workloads.Scatter()
    failed = {}
    for seed in SEEDS:
        unit = scatter.run_unit(seed, str(tmp_path))
        scatter.check(unit, None)
        assert unit.invariants_ok, f"seed {seed}: non-finite log or tilt rate above alpha_dot_max"
        failed[seed] = [name for name, ok, _ in unit.ops if not ok]
    assert sum(map(len, failed.values())) <= MAX_FAILED_RUNS, failed
