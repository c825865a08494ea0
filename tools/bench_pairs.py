"""Alternating before/after benchmark pairs of two omnidyn checkouts.

    python tools/bench_pairs.py PARENT CHANGE --workload cartwheel --pairs 10 \
        --seconds 40 --seeds 41-50 --out BENCH_14.json

PARENT and CHANGE are the roots of two checkouts. For each seed in turn the
script runs `perfbench/run.py --workload W --seed SEED --seconds S --trace 0`
once in each checkout, one after the other, and swaps which checkout runs
first from one pair to the next, so that a drift of the host's speed falls
on both sides alike. Each run is a fresh interpreter started from the
checkout's root, so it imports that checkout's `src/`.

The output file gets, per pair, each side's end-to-end metrics and operation
counts, the ratio change / parent of every metric, and whether the two
runs printed the same output fingerprint; and per metric, each side's
median and quartiles, the median ratio and the number of pairs in which the
change was lower. It is written after every pair. An existing output file
is updated: the workload's entry is replaced and the other workloads'
entries are kept, so one file can hold the pairs of all three workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


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


def summarize(pairs):
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
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=("cartwheel", "sweeps", "scatter"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="A-B")
    parser.add_argument("--out", required=True, metavar="BENCH_N.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < args.pairs:
        parser.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
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
        print(f"{args.workload} seed {seed} ({order[0]} first): step_us_p50 {parent['step_us_p50']:.1f} -> "
              f"{change['step_us_p50']:.1f} us, fingerprints equal: {pair['fingerprint_equal']}, "
              f"failed {parent['failed']} / {change['failed']}", flush=True)
        # Written after every pair, so an interrupted series keeps its pairs.
        report.setdefault("pairs", {})[args.workload] = {
            "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace 0",
            "pairs": pairs,
            "summary": summarize(pairs),
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
