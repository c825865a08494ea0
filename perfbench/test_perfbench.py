"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cartwheel": workloads.Cartwheel(duration=0.05),
    "sweeps": workloads.Sweeps(n_dirs=20),
    "scatter": workloads.Scatter(runs=4, time_scale=0.02),
}


def traced_units(name, tmp_path):
    tracer = tracing.Tracer()
    units, _ = bench.measure(TINY[name], 1, 0.0, str(tmp_path), tracer)
    return tracer, units


def test_tracer_restores_every_patched_attribute(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError), tracer.patched():
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        raise RuntimeError("leave the block early")
    for name in TINY:
        traced_units(name, tmp_path)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


@pytest.mark.parametrize("name", sorted(TINY))
def test_child_spans_nest_inside_parents(name, tmp_path):
    tracer, _ = traced_units(name, tmp_path)
    a = tracer.arrays()
    assert a["start"].size > 0 and not tracer.stack
    assert np.all(a["end"] >= a["start"])
    child = np.flatnonzero(a["parent"] >= 0)
    parent = a["parent"][child]
    assert np.all(parent < child)
    assert np.all(a["start"][parent] <= a["start"][child])
    assert np.all(a["end"][child] <= a["end"][parent])
    _, self_time = tracer.durations()
    # Children are disjoint intervals inside their parent; 1 ns absorbs
    # rounding in the sum of their durations.
    assert np.all(self_time >= -1e-9)


def test_ticks_are_children_of_simulate(tmp_path):
    tracer, units = traced_units("cartwheel", tmp_path)
    names = np.array(tracer.names)[tracer.arrays()["name"]]
    parents = tracer.arrays()["parent"]
    ticks = np.flatnonzero(names == tracing.TICK)
    n_ticks = units[0].steps_s.size
    assert ticks.size == n_ticks + 1  # the last tick logs and stops
    assert set(names[parents[ticks]]) == {"simulation.simulate"}


def test_stamps_bound_every_tick(tmp_path):
    unit = TINY["cartwheel"].run_unit(1, str(tmp_path))
    # sampler(0) before the loop, then one call per tick: n_ticks + 1 calls
    # in the loop give n_ticks intervals.
    assert unit.steps_s.size == round(0.05 / 0.005)
    assert np.all(unit.steps_s > 0.0)


def plain(value):
    return json.dumps(value, sort_keys=True, default=lambda a: np.asarray(a).tolist())


def test_seed_changes_only_scatter_inputs():
    for name, workload in TINY.items():
        assert plain(workload.inputs(1)) == plain(workload.inputs(1))
        changed = plain(workload.inputs(1)) != plain(workload.inputs(2))
        assert changed == (name == "scatter"), name


def test_scatter_draws_cycle_the_experiments():
    draws = workloads.Scatter().inputs(3)
    assert [d["experiment"] for d in draws] == [e for e, _ in workloads.SCATTER_CYCLE] * 2
    assert all(np.linalg.norm(d["x0"]) <= workloads.POS_OFFSET_M for d in draws)


def test_operation_counts_do_not_depend_on_the_number_of_units(tmp_path):
    scatter = TINY["scatter"]
    units, reference = bench.measure(scatter, 1, 0.0, str(tmp_path))
    assert len(units) == 1
    more = units + [bench.measure(scatter, 1, 0.0, str(tmp_path), reference=reference)[0][0]
                    for _ in range(2)]
    assert all(u.invariants_ok for u in more)
    counts = bench.operations(units)
    assert counts[0] == scatter.runs
    assert bench.operations(more) == counts


def test_sweep_checks_reject_a_wrong_envelope(tmp_path):
    sweeps = TINY["sweeps"]
    unit = sweeps.run_unit(1, str(tmp_path))
    sweeps.check(unit, None)
    assert all(ok for _, ok, _ in unit.ops)
    path = tmp_path / "force_envelope.csv"
    rows = path.read_text().splitlines()
    rows[5] = "0.0,0.0,1.0,119.0"  # the +z row
    path.write_text("\n".join(rows) + "\n")
    sweeps.check(unit, None)
    assert [name for name, ok, _ in unit.ops if not ok] == ["envelope"]


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    tracer, units = traced_units("sweeps", tmp_path)
    probes = [{"import_s": 0.1, "setup_s": 0.2}]
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.end_to_end(units, probes))
    layers = tracing.layer_metrics(tracer, len(units), 1.0, {}, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in layers.values()]
