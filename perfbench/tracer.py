"""Span tracer that times omnidyn's layers from outside the package.

While active, the tracer replaces the module and class attributes that
callers look up at call time (for example ``omnidyn.simulation.integrate_step``
or ``omnidyn.allocation.Allocator.allocate``) with wrappers that record a
span, and puts the originals back on exit. Spans are kept in memory as
parallel arrays of name, start, end, parent and run id; self time is a
span's duration minus the time its direct children cover.

The wrappers cost a few microseconds per call. That cost lands in the
parent's self time, so the traced run reports per-layer numbers only; the
end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from omnidyn import allocation, analysis, cli, config, controller, mathcore, simulation, singularity, vehicle
from workloads import SWEEP_COMMANDS, SWEEP_FUNCTIONS, patched

perf = time.perf_counter

TICK = "simulation.tick"

# (owner, attribute, span name). The owner is the namespace the caller looks
# the name up in, which for `from .x import f` imports is the caller's module.
PATCHES = (
    (simulation, "simulate", "simulation.simulate"),
    (simulation, "integrate_step", "vehicle.integrate_step"),
    (allocation.Allocator, "__init__", "allocation.allocator_init"),
    (allocation.Allocator, "allocate", "allocation.allocate"),
    (allocation, "extract_tilt_angles", "allocation.extract_tilt_angles"),
    (analysis, "extract_tilt_angles", "allocation.extract_tilt_angles"),
    (allocation, "extract_rotor_speeds", "allocation.extract_rotor_speeds"),
    (analysis, "extract_rotor_speeds", "allocation.extract_rotor_speeds"),
    (simulation, "build_A_alpha", "allocation.build_A_alpha"),
    (analysis, "build_A_alpha", "allocation.build_A_alpha"),
    (allocation, "rotor_columns", "allocation.rotor_columns"),
    (allocation, "z_misalignment", "singularity.z_misalignment"),
    (analysis, "z_misalignment", "singularity.z_misalignment"),
    (allocation, "arm_alignment", "singularity.arm_alignment"),
    (allocation, "damping_multiplier", "singularity.damping_multiplier"),
    (allocation, "apply_damping_and_unwind", "singularity.apply_damping_and_unwind"),
    (simulation, "compute_errors", "controller.compute_errors"),
    (simulation, "control_wrench", "controller.control_wrench"),
    (vehicle, "orthonormalize", "mathcore.orthonormalize"),
    (vehicle, "hat", "mathcore.hat"),
    (mathcore, "hat", "mathcore.hat"),
    (controller, "vee", "mathcore.vee"),
    (singularity, "angle_between", "mathcore.angle_between"),
    (mathcore, "angle_between", "mathcore.angle_between"),
    (allocation, "wrap_angle", "mathcore.wrap_angle"),
    (simulation, "wrap_angle", "mathcore.wrap_angle"),
    (simulation, "rotation_to_quat", "mathcore.rotation_to_quat"),
    (simulation.SimLog, "to_csv", "simulation.to_csv"),
    (simulation, "tracking_summary", "simulation.tracking_summary"),
    (analysis, "static_allocation", "analysis.static_allocation"),
    (cli, "force_envelope", "analysis.force_envelope"),
    (cli, "torque_envelope", "analysis.torque_envelope"),
    (cli, "condition_map", "analysis.condition_map"),
    (cli, "hover_sweep", "analysis.hover_sweep"),
    (config, "load_run_config", "config.load_run_config"),
    (cli, "load_run_config", "config.load_run_config"),
    (cli, "_write_csv", "cli.write_csv"),
)

MATHCORE = ("orthonormalize", "hat", "vee", "angle_between", "wrap_angle", "rotation_to_quat")
SINGULARITY = ("z_misalignment", "arm_alignment", "damping_multiplier", "apply_damping_and_unwind")


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.run_id = 0

    def begin(self, name):
        span_id = self._ids.get(name)
        if span_id is None:
            span_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(span_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf())
        return index

    def close_to(self, index):
        """End span `index` and every span still open inside it."""
        t = perf()
        while self.stack:
            top = self.stack.pop()
            self.end[top] = t
            if top == index:
                return

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.close_to(index)

    def wrap(self, name, fn):
        begin, close_to = self.begin, self.close_to

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_to(index)

        return traced

    def next_tick(self):
        """Close the running control tick, if any, and open the next one.

        Called from the sampler, which simulate calls at the top of each
        tick; the tick's last span ends when simulate returns.
        """
        if self.stack and self.names[self.name[self.stack[-1]]] == TICK:
            self.close_to(self.stack[-1])
        self.begin(TICK)

    @contextlib.contextmanager
    def patched(self, patches=PATCHES):
        """Wrap every patched attribute for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name in patches:
                stack.enter_context(patched(owner, attr, self.wrap(name, vars(owner)[attr])))
            yield self

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def durations(self):
        """(duration, self time) of every span, in seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=duration[child], minlength=len(duration))
        return duration, duration - covered

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer, n_units, traced_wall_s, counts, overhead_frac):
    """Per-layer metrics of a traced phase, as {name: (value, unit)}.

    Counts and ``.s`` totals are per unit of the workload; ``self_us_p50``
    is the median self time over all calls and ``us_p50`` the median
    duration, children included. A layer the workload never calls reports
    zero.
    """
    duration, self_time = tracer.durations()
    ids = np.frombuffer(tracer.name, dtype=np.int32)
    index = {name: i for i, name in enumerate(tracer.names)}

    def select(name):
        return ids == index.get(name, -1)

    def calls(name):
        return (float(np.count_nonzero(select(name))) / n_units, "count")

    def self_p50(name):
        s = self_time[select(name)]
        return (float(np.median(s)) * 1e6 if s.size else 0.0, "us")

    def us_p50(name):
        d = duration[select(name)]
        return (float(np.median(d)) * 1e6 if d.size else 0.0, "us")

    def total_s(name):
        return (float(np.sum(duration[select(name)])) / n_units, "s")

    def ratio(hits, slots):
        return (counts[hits] / counts[slots] if counts.get(slots) else 0.0, "ratio")

    m = {
        "vehicle.integrate_step.calls": calls("vehicle.integrate_step"),
        "vehicle.integrate_step.self_us_p50": self_p50("vehicle.integrate_step"),
        "vehicle.integrate_step.us_p50": us_p50("vehicle.integrate_step"),
        "vehicle.integrate_step.busy_frac": (
            total_s("vehicle.integrate_step")[0] * n_units / traced_wall_s, "ratio"),
        "allocation.allocate.self_us_p50": self_p50("allocation.allocate"),
        "allocation.allocate.us_p50": us_p50("allocation.allocate"),
    }
    for fn in ("extract_tilt_angles", "extract_rotor_speeds", "build_A_alpha"):
        m[f"allocation.{fn}.calls"] = calls(f"allocation.{fn}")
        m[f"allocation.{fn}.self_us_p50"] = self_p50(f"allocation.{fn}")
    m["allocation.rotor_columns.calls"] = calls("allocation.rotor_columns")
    m["allocation.allocator_init.calls"] = calls("allocation.allocator_init")
    m["allocation.allocator_init.us"] = us_p50("allocation.allocator_init")
    m["allocation.rate_limit_hit_frac"] = ratio("rate_limit_hits", "arm_steps")
    for fn in SINGULARITY:
        m[f"singularity.{fn}.calls"] = calls(f"singularity.{fn}")
        m[f"singularity.{fn}.self_us_p50"] = self_p50(f"singularity.{fn}")
    m["singularity.bias_active_frac"] = ratio("bias_ticks", "ticks")
    m["singularity.damped_arm_frac"] = ratio("damped_arm_ticks", "arm_ticks")
    m["controller.compute_errors.self_us_p50"] = self_p50("controller.compute_errors")
    m["controller.control_wrench.self_us_p50"] = self_p50("controller.control_wrench")
    m["trajectories.sample.calls"] = calls("trajectories.sample")
    m["trajectories.sample.self_us_p50"] = self_p50("trajectories.sample")
    for fn in MATHCORE:
        m[f"mathcore.{fn}.calls"] = calls(f"mathcore.{fn}")
        m[f"mathcore.{fn}.self_us_p50"] = self_p50(f"mathcore.{fn}")
    m["simulation.tick.self_us_p50"] = self_p50(TICK)
    m["simulation.to_csv.s"] = total_s("simulation.to_csv")
    m["simulation.tracking_summary.s"] = total_s("simulation.tracking_summary")
    m["analysis.static_allocation.calls"] = calls("analysis.static_allocation")
    m["analysis.static_allocation.self_us_p50"] = self_p50("analysis.static_allocation")
    for fn in SWEEP_FUNCTIONS:
        m[f"analysis.{fn}.s"] = total_s(f"analysis.{fn}")
    m["analysis.inf_frac"] = ratio("inf_rows", "condmap_rows")
    m["config.load_run_config.s"] = total_s("config.load_run_config")
    m["cli.write_csv.s"] = total_s("cli.write_csv")
    for command, _, _ in SWEEP_COMMANDS:
        m[f"cli.main.{command}.s"] = total_s(f"cli.main.{command}")
    m["tracing_overhead_frac"] = (overhead_frac, "ratio")
    return m
