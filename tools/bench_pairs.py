"""Alternating before/after benchmark pairs of two omnidyn revisions.

    python tools/bench_pairs.py HEAD~1 HEAD --workload cartwheel --pairs 10 \
        --seconds 40 --seeds 41-50 --out BENCH_14.json

PARENT and CHANGE are git revisions of the repository this script sits in
(a commit, branch or tag; uncommitted changes are not included). Each is
extracted with `git archive` into a temporary directory that is removed at
exit, so both sides are the same kind of checkout: a copy of the working
tree beside an archive once read a cartwheel setup_s ratio of 1.2 on
unchanged code. For each seed in turn the script runs
`perfbench/run.py --workload W --seed SEED --seconds S --trace 0` once in
each checkout, one after the other, and swaps which checkout runs first
from one pair to the next, so that a drift of the host's speed falls on
both sides alike. Each run is a fresh interpreter started from the
checkout's root, so it imports that checkout's `src/`.

After each pair it prints the ratio change / parent of every end-to-end
metric the run reports (the metrics the benchmark gates), so that a swing
of setup_s or peak_rss_mb shows while the pairs run.

The output file gets the commit of each side and, per pair, each side's end-to-end metrics and operation
counts, the ratio change / parent of every metric, and whether the two
runs printed the same output fingerprint; and per metric, each side's
median and quartiles, the median ratio and the number of pairs in which the
change was lower. It is written after every pair. An existing output file
is updated: the workload's entry is replaced and the other workloads'
entries are kept, so one file can hold the pairs of all three workloads.

At the end of the series it prints, per metric, both medians, the median
ratio and the pairs the change won. A metric is marked unresolved when the
parent's quartile spread over its median exceeds the metric's bound in the
BENCHMARK.json at the root of this script's checkout (read only): the runs
then spread too widely for that bound to tell a change from noise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def end_to_end_bounds():
    """{metric: relative bound} of the benchmark's end-to-end metrics."""
    with open(BENCHMARK) as fh:
        return {metric["name"]: metric["bound"] for metric in json.load(fh)["end_to_end"]}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def extract(revision, into):
    """Extract revision with git archive into the new directory into; return its commit."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as archive:
        archive.extractall(into, filter="data")
    return commit


def parse_seeds(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def run_side(root, workload, seed, seconds):
    """(end-to-end metrics with the operation counts, fingerprint) of one run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    fingerprint = next((line[len("fingerprint: "):] for line in lines if line.startswith("fingerprint: ")), None)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return metrics, fingerprint


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, bounds):
    """Per metric: each side's quartiles, the median ratio, the pairs the
    change won, and, for a bounded metric, whether the parent's quartile
    spread over its median exceeds the bound (unresolved)."""
    names = [k for k, v in pairs[0]["parent"].items() if isinstance(v, float)]
    summary = {}
    for name in names:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        summary[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "ratio_median": statistics.median(p["ratio"][name] for p in pairs),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        if name in bounds:
            q = summary[name]["parent"]
            summary[name]["unresolved"] = q["q3"] - q["q1"] > bounds[name] * q["median"]
    return summary


def print_summary(workload, summary):
    for name, entry in summary.items():
        verdict = "; unresolved: the parent's quartile spread exceeds the bound" if entry.get("unresolved") else ""
        print(f"{workload} {name}: median parent {entry['parent']['median']:.6g}, change "
              f"{entry['change']['median']:.6g}; ratio median {entry['ratio_median']:.3f}; "
              f"change lower in {entry['change_lower']}/{entry['pairs']} pairs{verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--workload", required=True, choices=("cartwheel", "sweeps", "scatter"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="A-B")
    parser.add_argument("--out", required=True, metavar="BENCH_N.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < args.pairs:
        parser.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")
    bounds = end_to_end_bounds()
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        commits = {side: extract(getattr(args, side), roots[side]) for side in SIDES}
        run_pairs(args, roots, commits, bounds, report)
    print_summary(args.workload, report["pairs"][args.workload]["summary"])
    return 0


def run_pairs(args, roots, commits, bounds, report):
    """Run the series, writing the output file after every pair."""
    pairs = []
    for k, seed in enumerate(args.seeds[:args.pairs]):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs = {side: run_side(roots[side], args.workload, seed, args.seconds) for side in order}
        parent, change = runs["parent"][0], runs["change"][0]
        pair = {
            "seed": seed,
            "first": order[0],
            "parent": parent,
            "change": change,
            "ratio": {name: change[name] / parent[name] for name, value in parent.items()
                      if isinstance(value, float) and value != 0.0},
            "fingerprint_equal": runs["parent"][1] == runs["change"][1],
        }
        pairs.append(pair)
        ratios = ", ".join(f"{name} {ratio:.3f}" for name, ratio in pair["ratio"].items())
        print(f"{args.workload} seed {seed} ({order[0]} first): change/parent {ratios}; "
              f"fingerprints equal: {pair['fingerprint_equal']}, failed {parent['failed']} / {change['failed']}",
              flush=True)
        # Written after every pair, so an interrupted series keeps its pairs.
        report.setdefault("pairs", {})[args.workload] = {
            "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace 0",
            "commits": commits,
            "pairs": pairs,
            "summary": summarize(pairs, bounds),
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
