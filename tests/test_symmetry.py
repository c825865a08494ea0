"""Symmetry oracles for the closed loop.

The physics gives checks that do not pin the code to its own earlier
formulas, so they survive a change of the allocation's bytes:

* world yaw: rotating the trajectory and the start about inertial z leaves
  every body-frame quantity unchanged and rotates the positions, for any
  vehicle, since gravity is along z;
* body C3: rotating the body frame by 120 degrees about body z and
  relabelling arm i as arm i + 2 maps a run onto itself, for a vehicle that
  is symmetric under that rotation. The default vehicle is; the alternating
  tilt bias b = (-1, +1, ...) is unchanged by a two-arm shift, though not by
  a one-arm shift, so the loop with handlers is C3 and not C6.

Each run starts 5 mm, 0.03 rad and 0.05 rad/s off its setpoint (seeded),
with the default gains and handlers. Reference for the symmetry reading:
Golubitsky & Stewart, The Symmetry Perspective, 2002.
"""

import numpy as np
import pytest

from omnidyn.allocation import Allocator
from omnidyn.config import load_run_config
from omnidyn.controller import TrajectorySetpoint
from omnidyn.mathcore import rotation_from_axis_angle
from omnidyn.simulation import SimConfig, simulate
from omnidyn.singularity import SingularityParams
from omnidyn.trajectories import (
    Trajectory,
    make_cartwheel,
    make_flip,
    make_rotation,
    make_singular_translation,
)
from omnidyn.vehicle import RigidBodyState, VehicleParams

# On these runs the oracles hold to 2.1e-13 rad, 1.4e-14 of Omega_max and
# 4.5e-16 m; the broken C3 of the off-nominal vehicle shows as 1.1e-2 of
# Omega_max. 1e-9 leaves margin for another platform's rounding.
TOL = 1e-9
EXPERIMENTS = (("flip", make_flip, 2.0), ("rotation", make_rotation, 2.0),
               ("cartwheel", make_cartwheel, 4.0), ("singular-translation", make_singular_translation, 5.0))
Z = np.array([0.0, 0.0, 1.0])
YAW = rotation_from_axis_angle(Z, 0.7)
C3 = rotation_from_axis_angle(Z, 2.0 * np.pi / 3.0)


def start_offset(seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    return (0.005 * rng.uniform(-1.0, 1.0, 3), rotation_from_axis_angle(axis / np.linalg.norm(axis), 0.03),
            0.05 * rng.uniform(-1.0, 1.0, 3))


def transformed(sp, Q, P):
    """The setpoint with the world rotated by Q and the body frame by P."""
    return TrajectorySetpoint(x_sp=Q @ sp.x_sp, v_sp=Q @ sp.v_sp, a_sp=Q @ sp.a_sp,
                              R_sp=Q @ sp.R_sp @ P.T, omega_sp=P @ sp.omega_sp)


def run(params, name, Q=np.eye(3), P=np.eye(3), seed=8):
    """The log of experiment name cut to its test duration, world rotated by
    Q and body frame by P, started off its setpoint."""
    _, make, duration = next(e for e in EXPERIMENTS if e[0] == name)
    base = make(params) if name == "singular-translation" else make()
    trajectory = Trajectory(duration=duration, sampler=lambda t: transformed(base.sampler(t), Q, P))
    sp0 = base.sampler(0.0)
    dx, dR, domega = start_offset(seed)
    start = RigidBodyState(x=Q @ (sp0.x_sp + dx), v=Q @ sp0.v_sp, R=Q @ sp0.R_sp @ dR @ P.T,
                           omega_b=P @ (sp0.omega_sp + domega))
    cfg = load_run_config(None)
    return simulate(trajectory, params, cfg.gains, cfg.singularity, SimConfig(duration=duration, initial_state=start))


def relabel(log, shift):
    """alpha_cmd and Omega_cmd with arm i moved to arm i + shift."""
    Omega = log.column("Omega_cmd")
    return (np.roll(log.column("alpha_cmd"), shift, axis=1),
            np.hstack([np.roll(Omega[:, :6], shift, axis=1), np.roll(Omega[:, 6:], shift, axis=1)]))


def differences(params, log, other, Q=np.eye(3), shift=0):
    """Largest |difference| of the tilt angles (rad), the rotor speeds
    (fraction of Omega_max) and the positions (m, after rotating log's by Q)
    between two runs expected to agree."""
    alpha, Omega = relabel(log, shift)
    return (np.abs(alpha - other.column("alpha_cmd")).max(),
            np.abs(Omega - other.column("Omega_cmd")).max() / params.Omega_max,
            np.abs(log.column("x") @ Q.T - other.column("x")).max())


@pytest.fixture(scope="module")
def vehicles(off_nominal_vehicle):
    return {"default": VehicleParams(), "off-nominal": off_nominal_vehicle}


@pytest.fixture(scope="module")
def reference_runs(vehicles):
    return {(v, name): run(vehicles[v], name) for v in vehicles for name, *_ in EXPERIMENTS}


@pytest.mark.parametrize("vehicle", ["default", "off-nominal"])
@pytest.mark.parametrize("name", [e[0] for e in EXPERIMENTS])
def test_world_yaw_leaves_the_body_frame_run_unchanged(vehicles, reference_runs, vehicle, name):
    params = vehicles[vehicle]
    yawed = run(params, name, Q=YAW)
    assert max(differences(params, reference_runs[vehicle, name], yawed, Q=YAW)) < TOL


@pytest.mark.parametrize("name", [e[0] for e in EXPERIMENTS])
def test_body_c3_with_relabelled_arms_maps_a_run_onto_itself(vehicles, reference_runs, name):
    params = vehicles["default"]
    rotated = run(params, name, P=C3)
    assert max(differences(params, reference_runs["default", name], rotated, shift=2)) < TOL


def test_body_c3_fails_on_the_off_nominal_vehicle(vehicles, reference_runs):
    """Negative control of the oracle itself: J_xx != J_yy and the
    off-axis centre of mass break the C3 symmetry, and the check sees it
    on every experiment, by orders of magnitude."""
    params = vehicles["off-nominal"]
    for name, *_ in EXPERIMENTS:
        _, dOmega, _ = differences(params, reference_runs["off-nominal", name], run(params, name, P=C3), shift=2)
        assert dOmega > 1e3 * TOL, name


def test_allocation_is_c6_without_handlers_and_only_c3_with_them():
    """A 60 degree body rotation with a one-arm relabelling maps the
    handler-free allocation onto itself; the alternating tilt bias flips
    sign under that shift, so with the handlers only the 120 degree
    rotation does. This follows from the handler design, not from a bug."""
    p = VehicleParams()
    rng = np.random.default_rng(18)
    gap = {}
    for shift in (1, 2):
        P = rotation_from_axis_angle(Z, shift * np.pi / 3.0)
        for sp in (None, SingularityParams()):
            allocator = Allocator(p, sp)
            worst = 0.0
            for _ in range(50):
                w = np.concatenate([rng.normal(size=3) * 30.0, rng.normal(size=3)])
                w[2] += p.m * p.g_mag
                alpha = allocator.allocate(w, np.zeros(6), 10.0).alpha_cmd
                turned = allocator.allocate(np.concatenate([P @ w[:3], P @ w[3:]]), np.zeros(6), 10.0).alpha_cmd
                worst = max(worst, np.abs(np.roll(alpha, shift) - turned).max())
            gap[shift, sp is not None] = worst
    assert gap[1, False] < TOL and gap[2, False] < TOL and gap[2, True] < TOL
    assert gap[1, True] > 1e-3
