"""Measure one workload, check its outputs and report the metrics.

End-to-end metrics, reported by every workload:

* wall_s       median wall time of one unit (cartwheel command, sweep pass,
               scatter batch) from its first program call to its last output
               file; interpreter start and import are in setup_s instead;
* setup_s      median over fresh interpreters of import plus the set-up path
               up to the first tick or direction (summed over the runs of a
               scatter batch, and over the four sweep commands);
* step_us_p50, step_us_p90
               host time per step: a control tick on closed loops; on sweeps
               one direction, summed over the five sweeps of a pass. p99 is printed but not gated: on a shared
               2-core machine it follows descheduling more than the program;
* peak_rss_mb  peak resident memory of the benchmark process.

The report also prints the workload's own figures (tick_us_*, sim_rtf,
*_dirs_per_s), fail_frac, the machine and the output fingerprint.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBES = 5
PROBE_TIMEOUT_S = 120


def machine_block(threads):
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": threads,
    }


def probe_setup(name, seed, out_dir):
    """Set-up time in PROBES fresh interpreters, one after another."""
    probe_dir = os.path.join(out_dir, "probe")
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--workload", name, "--seed", str(seed), "--out", probe_dir]
    env = dict(os.environ, PYTHONPATH=SRC)
    results = []
    for _ in range(PROBES):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def measure(workload, seed, budget_s, out_dir, tracer=None, reference=None):
    """Run and check units until the next one would overrun budget_s.

    At least one unit runs. The first unit checked is the reference that
    later units (traced ones too) must reproduce byte for byte.
    """
    units, spent = [], 0.0
    while not units or spent + units[-1].wall_s <= budget_s:
        if tracer is None:
            unit = workload.run_unit(seed, out_dir)
        else:
            tracer.run_id = len(units)
            with tracer.patched():
                unit = workload.run_unit(seed, out_dir, tracer)
        workload.check(unit, reference)
        if reference is None:
            reference = unit.fingerprint
        unit.raw = {}
        units.append(unit)
        spent += unit.wall_s
    return units, reference


def operations(units):
    """(attempted, failed) over the operations of the first unit.

    Every unit runs the same inputs, so the counts depend on the workload
    and the seed alone, not on how many units fit the time. Later units must
    repeat the first unit's bytes; that check, and the invariants, decide
    correct.
    """
    ops = units[0].ops
    return len(ops), sum(1 for op in ops if not op[1])


def end_to_end(units, probes):
    """{name: (value, unit, samples)} of the end-to-end metrics."""
    steps = np.concatenate([u.steps_s for u in units])
    return {
        "wall_s": (statistics.median(u.wall_s for u in units), "s", len(units)),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s", len(probes)),
        "step_us_p50": (float(np.percentile(steps, 50)) * 1e6, "us", steps.size),
        "step_us_p90": (float(np.percentile(steps, 90)) * 1e6, "us", steps.size),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def details(workload, units, probes, attempted, failed):
    """The workload's own figures, named as the roadmap names them."""
    steps = np.concatenate([u.steps_s for u in units])
    step = "dir" if isinstance(workload, workloads.Sweeps) else "tick"
    d = {
        "import_s": (statistics.median(p["import_s"] for p in probes), "s", len(probes)),
        "setup_in_run_s": (statistics.median(u.setup_s for u in units), "s", len(units)),
        "fail_frac": (failed / attempted, "ratio", attempted),
        f"{step}_us_p50": (float(np.percentile(steps, 50)) * 1e6, "us", steps.size),
        f"{step}_us_p99": (float(np.percentile(steps, 99)) * 1e6, "us", steps.size),
    }
    if step == "dir":
        for name, _, _ in workloads.SWEEP_COMMANDS:
            seconds = statistics.median(u.command_s[name] for u in units)
            d[f"{name}_dirs_per_s"] = (workload.n_dirs / seconds, "1/s", len(units))
    else:
        d["sim_rtf"] = (sum(u.sim_s for u in units) / float(np.sum(steps)), "sim-s/host-s", steps.size)
    return d


def print_table(title, metrics):
    print(title)
    for name, (value, unit, *samples) in metrics.items():
        n = f"n={samples[0]}" if samples else ""
        print(f"  {name:<44} {value:>16.6g} {unit:<14} {n}")


def run(name, seed, seconds, trace, threads):
    workload = workloads.WORKLOADS[name]
    out_dir = os.path.join(HERE, "out", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    machine = machine_block(threads)

    probes = probe_setup(name, seed, out_dir)
    budget = seconds / 2.0 if trace else seconds
    units, reference = measure(workload, seed, budget, out_dir)
    traced, tracer = [], None
    if trace:
        tracer = tracing.Tracer()
        traced, _ = measure(workload, seed, budget, out_dir, tracer, reference)

    everything = units + traced
    attempted, failed = operations(units)
    correct = all(u.invariants_ok for u in everything) and (
        failed == 0 or not workload.ops_must_pass)

    e2e = end_to_end(units, probes)
    extra = details(workload, units, probes, attempted, failed)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine, "end_to_end": e2e, "details": extra,
              "operations": {"attempted": attempted, "failed": failed, "correct": correct},
              "fingerprint": reference,
              "units": [{"wall_s": u.wall_s, "setup_s": u.setup_s, "steps": int(u.steps_s.size),
                         "traced": i >= len(units)} for i, u in enumerate(everything)]}

    print(f"omnidyn benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("machine: " + json.dumps(machine))
    print_table("end-to-end (untraced)", e2e)
    print_table("workload figures", extra)
    print(f"operations: attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    shown = units[0].ops + [op for u in everything[1:] for op in u.ops
                            if not op[1] and op not in units[0].ops]
    for op_name, ok, detail in shown:
        print(f"  {'ok  ' if ok else 'FAIL'} {op_name}: {detail}")
    print("fingerprint: " + json.dumps(reference, sort_keys=True))

    if trace:
        overhead = (statistics.median(u.wall_s for u in traced)
                    / statistics.median(u.wall_s for u in units) - 1.0)
        counts = {}
        for u in traced:
            workloads.add_counts(counts, u.counts)
        layers = tracing.layer_metrics(tracer, len(traced), sum(u.wall_s for u in traced),
                                       counts, overhead)
        report["per_layer"] = layers
        print_table(f"per-layer (traced, {len(traced)} unit(s), {len(tracer.start)} spans)", layers)
        tracer.save(os.path.join(out_dir, "spans.npz"))
        metrics = layers
    else:
        metrics = e2e

    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}))
    return 0
