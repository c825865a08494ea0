"""Shared pytest plumbing: the acceptance-criteria summary table.

Acceptance tests append one line per criterion; the terminal-summary
hook prints them after the run regardless of output capture.
"""

acceptance_lines = []

import pytest


@pytest.fixture(scope="session")
def acceptance_report():
    return acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def logged_ticks():
    """Per-tick inputs recorded from closed-loop runs.

    The runs are the default cartwheel (16 s) and three runs like the
    benchmark's scatter draws: a vehicle 3-7 % off the default, with a
    centre-of-mass offset, started 1 cm, 3 degrees and 0.2 rad/s off its
    setpoint, on the 5 s singular translation (an arm frozen from 4 s on),
    a 1 s flip and a 1 s rotation. Returns lists of call arguments:
    "controller" (state, setpoint, gains, params), "allocate" (allocator,
    w_des, alpha_prev, dt) and "plant" (state, wrench, dt, params, n_steps).
    """
    import numpy as np

    from omnidyn import allocation, config, mathcore, simulation, trajectories, vehicle

    ticks = {"controller": [], "allocate": [], "plant": []}
    control_wrench, allocate, integrate_step = (simulation.control_wrench, allocation.Allocator.allocate,
                                                simulation.integrate_step)

    def record_wrench(errors, state, sp, gains, params):
        ticks["controller"].append((state, sp, gains, params))
        return control_wrench(errors, state, sp, gains, params)

    def record_allocate(self, w_des, alpha_prev, dt):
        ticks["allocate"].append((self, w_des, alpha_prev, dt))
        return allocate(self, w_des, alpha_prev, dt)

    def record_step(state, wrench, dt, params, n_steps=1):
        ticks["plant"].append((state, wrench, dt, params, n_steps))
        return integrate_step(state, wrench, dt, params, n_steps)

    cfg = config.load_run_config(None)
    drawn = vehicle.VehicleParams(m=4.28, J_b=np.diag([0.0744, 0.084, 0.1358]),
                                  x_com=np.array([0.004, -0.003, 0.002]), c_f=1.04e-5)
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    start = vehicle.RigidBodyState(x=np.array([0.008, -0.005, 0.003]),
                                   R=mathcore.rotation_from_axis_angle(axis, np.deg2rad(3.0)),
                                   omega_b=np.array([0.1, -0.15, 0.1]))
    runs = [(trajectories.make_cartwheel(), cfg.vehicle, simulation.SimConfig()),
            (trajectories.make_singular_translation(drawn), drawn,
             simulation.SimConfig(duration=5.0, initial_state=start)),
            (trajectories.make_flip(), drawn, simulation.SimConfig(duration=1.0, initial_state=start)),
            (trajectories.make_rotation(), drawn, simulation.SimConfig(duration=1.0, initial_state=start))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "control_wrench", record_wrench)
        mp.setattr(allocation.Allocator, "allocate", record_allocate)
        mp.setattr(simulation, "integrate_step", record_step)
        for trajectory, params, sim in runs:
            simulation.simulate(trajectory, params, cfg.gains, cfg.singularity, sim)
    return ticks
