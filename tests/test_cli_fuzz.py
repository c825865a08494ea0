"""Property test of `omnidyn simulate` over drawn run configurations.

Vehicle, gains, singularity and sim blocks are drawn over plausible values,
extreme finite magnitudes, subnormals, NaN/inf, wrong types and wrong
shapes. Whatever the draw, the command exits 0 with finite outputs, 2 with
a config error or 3 with a numerical failure: never 1 (usage) and never
an uncaught exception. Experiments are cut to at most 30 ms so that a draw
costs milliseconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from omnidyn import cli
from omnidyn.simulation import MIN_TIME_STEP
from omnidyn.trajectories import Trajectory

NAN, INF = float("nan"), float("inf")
# Finite magnitudes the loader accepts for a positive parameter, subnormals included.
HUGE_OR_TINY = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308]
INVALID = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -1e300, NAN, INF, -INF]), st.booleans(),
                    st.text(max_size=2), st.none(), st.just({}), st.just([[1.0]]))


def scalar(typical, valid):
    """Plausible, huge or tiny values; with valid=False also invalid ones."""
    drawn = st.one_of(st.floats(0.5 * typical, 2.0 * typical), st.sampled_from(HUGE_OR_TINY))
    return drawn if valid else st.one_of(drawn, INVALID)


def vector(typical, valid):
    """Three entries; with valid=False also wrong lengths, nesting and scalars."""
    three = st.lists(scalar(typical, valid), min_size=3, max_size=3)
    if valid:
        return three
    return st.one_of(three, st.lists(scalar(typical, valid), max_size=5),
                     st.lists(three, min_size=1, max_size=2), scalar(typical, valid))


def block(fields, valid):
    """A JSON object with a drawn subset of the fields; with valid=False now
    and then a value that is not an object."""
    drawn = st.fixed_dictionaries({}, optional=fields)
    return drawn if valid else st.one_of(drawn, st.sampled_from([[], [["m", 3.5]], "x", 1.0, None]))


def run_config(valid):
    # Accepted time steps stay at 1e-3 s or more: a run near MIN_TIME_STEP
    # takes a thousand times longer. The tiny steps drawn are below the
    # floor, so the loader must reject them.
    dt = st.sampled_from([1e-3, 2e-3, 5e-3, 1e-2, 2e-2])
    if not valid:
        dt = st.one_of(dt, st.sampled_from([5e-324, 1e-300, 1e-9, 0.99 * MIN_TIME_STEP, 1e300]), INVALID)
    return st.fixed_dictionaries({}, optional={
        "vehicle": block({"m": scalar(4.0, valid), "J_diag": vector(0.1, valid),
                          "x_com": vector(0.005, valid), "l_x": scalar(0.3, valid),
                          "c_f": scalar(1e-5, valid), "c_d": scalar(0.016, valid),
                          "Omega_max": scalar(1e6, valid), "alpha_dot_max": scalar(6.0, valid),
                          "g": scalar(9.81, valid)}, valid),
        "gains": block({"k_p": scalar(640.0, valid), "k_v": scalar(50.6, valid),
                        "k_R": scalar(1200.0, valid), "k_omega": scalar(69.3, valid)}, valid),
        "singularity": block({"phi_0_deg": scalar(5.0, valid), "phi_d_deg": scalar(15.0, valid),
                              "phi_t_deg": scalar(10.0, valid), "c_t_deg": scalar(5.0, valid),
                              "omega_u": scalar(8.0, valid)}, valid),
        "sim": block({"dt_physics": dt, "dt_control": dt}, valid),
    })


def below_floor(config):
    """True when the drawn sim block holds a positive time step below MIN_TIME_STEP."""
    sim = config.get("sim")
    return isinstance(sim, dict) and any(type(v) is float and 0.0 < v < MIN_TIME_STEP for v in sim.values())


def assert_finite_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) >= 2
    assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))


def assert_finite_json(path):
    def reject(token):
        raise AssertionError(f"{path} holds {token}")

    with open(path) as fh:
        json.load(fh, parse_constant=reject)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# A desired force whose norm overflowed reached the singularity handlers as
# the zero vector, and angle_between's ValueError exited 1.
@example(config={"vehicle": {"m": 1e300}}, experiment="hover", duration=0.01)
# A time step of 1e-300 s never finished, or asked for a log of 1e301 rows.
@example(config={"sim": {"dt_physics": 1e-300, "dt_control": 1e-300}}, experiment="hover", duration=0.01)
@given(config=st.one_of(run_config(valid=True), run_config(valid=False)), experiment=st.sampled_from(cli.EXPERIMENTS),
       duration=st.sampled_from([0.0, 0.01, 0.03]))
def test_simulate_never_exits_1_or_raises(config, experiment, duration):
    make = cli._make_trajectory

    def short(name, run_config):
        trajectory = make(name, run_config)
        return Trajectory(duration=min(trajectory.duration, duration), sampler=trajectory.sampler)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_make_trajectory", short):
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out, err = os.path.join(tmp, "out"), io.StringIO()
        # The contract is the exit status; numpy's overflow warnings on
        # extreme vehicles are left to the interpreter's default handling.
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            status = cli.main(["simulate", "--experiment", experiment, "--config", path, "--out", out])
        message = err.getvalue()
        event(f"exit {status}")
        if below_floor(config):
            event("time step below the floor")
            assert status == 2, message
        if status == 0:
            assert_finite_csv(os.path.join(out, f"{experiment}_log.csv"))
            assert_finite_json(os.path.join(out, f"{experiment}_summary.json"))
            assert_finite_json(os.path.join(out, "effective_config.json"))
        elif status == 2:
            assert "config error" in message
        else:
            assert status == 3, message
            assert "numerical failure" in message
