"""Reference trajectory library for the closed-loop experiments.

All trajectories are rest-to-rest and built from a quintic blend, so
position, velocity, and acceleration references are continuous and
mutually consistent. Samplers return a TrajectorySetpoint for any time;
times outside [0, duration] clamp to the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controller import TrajectorySetpoint
from .mathcore import axis_rotation
from .vehicle import VehicleParams


@dataclass
class Trajectory:
    """Duration (s) and a time -> TrajectorySetpoint sampler."""

    duration: float
    sampler: Callable[[float], TrajectorySetpoint]

    def __call__(self, t):
        return self.sampler(t)


def quintic_blend(t, T):
    """Smooth 0 -> 1 blend with zero boundary velocity and acceleration.

    Returns (s, s_dot, s_ddot) at time t for a blend of duration T, as
    Python floats. sigma = t / T is clamped to [0, 1] as np.clip clamps
    (NaN stays NaN), and the powers go through pow as numpy's do, so the
    values are those of the numpy formula bit for bit.
    """
    sigma = t / T
    sigma = 0.0 if sigma < 0.0 else 1.0 if sigma > 1.0 else sigma
    s = sigma**3 * (10.0 - 15.0 * sigma + 6.0 * sigma**2)
    s_dot = 30.0 * sigma**2 * (1.0 - sigma) ** 2 / T
    s_ddot = 60.0 * sigma * (1.0 - 3.0 * sigma + 2.0 * sigma**2) / T**2
    return s, s_dot, s_ddot


def make_hover(duration=10.0) -> Trajectory:
    """Constant setpoint at the origin with identity attitude."""

    def sampler(t):
        return TrajectorySetpoint()

    return Trajectory(duration=duration, sampler=sampler)


def make_translation(amplitude=2.0, period=8.0) -> Trajectory:
    """Back-and-forth translation along inertial x at identity attitude."""
    half = period / 2.0

    def sampler(t):
        if t <= half:
            s, sd, sdd = quintic_blend(t, half)
            x, v, a = amplitude * s, amplitude * sd, amplitude * sdd
        else:
            s, sd, sdd = quintic_blend(t - half, half)
            x, v, a = amplitude * (1.0 - s), -amplitude * sd, -amplitude * sdd
        return TrajectorySetpoint(x_sp=np.array([x, 0.0, 0.0]),
                                  v_sp=np.array([v, 0.0, 0.0]),
                                  a_sp=np.array([a, 0.0, 0.0]))

    return Trajectory(duration=period, sampler=sampler)


def make_rotation(angle=np.pi / 2.0, axis=(1.0, 0.0, 0.0), period=6.0) -> Trajectory:
    """Rotation in place about a fixed axis, rest to rest."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    rotation = axis_rotation(axis)

    def sampler(t):
        s, sd, _ = quintic_blend(t, period)
        return TrajectorySetpoint(R_sp=rotation(angle * s),
                                  omega_sp=axis * angle * sd)

    return Trajectory(duration=period, sampler=sampler)


def make_flip(period=6.0) -> Trajectory:
    """Full 2*pi rotation about the body y-axis at fixed position."""
    return make_rotation(angle=2.0 * np.pi, axis=(0.0, 1.0, 0.0), period=period)


def make_singular_translation(params: VehicleParams, amplitude=1.0,
                              reorient=4.0, period=6.0) -> Trajectory:
    """Point arm 1 at gravity, then translate while holding that attitude.

    Phase 1 rotates by 90 degrees about the in-plane axis perpendicular
    to arm 1, so the hover force in the body frame lies on arm 1's line
    for the rest of the run. Phase 2 translates along inertial x.
    """
    g0 = params.gamma[0]
    tilt_axis = np.array([-np.sin(g0), np.cos(g0), 0.0])
    tilt = axis_rotation(tilt_axis)
    R_hold = tilt(np.pi / 2.0)

    def sampler(t):
        if t <= reorient:
            s, sd, _ = quintic_blend(t, reorient)
            return TrajectorySetpoint(R_sp=tilt(np.pi / 2.0 * s),
                                      omega_sp=tilt_axis * (np.pi / 2.0) * sd)
        s, sd, sdd = quintic_blend(t - reorient, period)
        return TrajectorySetpoint(x_sp=np.array([amplitude * s, 0.0, 0.0]),
                                  v_sp=np.array([amplitude * sd, 0.0, 0.0]),
                                  a_sp=np.array([amplitude * sdd, 0.0, 0.0]),
                                  R_sp=R_hold)

    return Trajectory(duration=reorient + period, sampler=sampler)


def make_cartwheel(period=12.0, reorient=4.0) -> Trajectory:
    """Pitch to 90 degrees, then rotate 2*pi about the body z-axis.

    During the rotation the hover force direction sweeps the full body
    z-plane, crossing each of the six arm azimuths once.
    """
    pitch_axis = np.array([0.0, 1.0, 0.0])
    pitch = axis_rotation(pitch_axis)
    R1 = pitch(np.pi / 2.0)
    z_body = np.array([0.0, 0.0, 1.0])
    yaw = axis_rotation(z_body)

    def sampler(t):
        if t <= reorient:
            s, sd, _ = quintic_blend(t, reorient)
            return TrajectorySetpoint(R_sp=pitch(np.pi / 2.0 * s),
                                      omega_sp=pitch_axis * (np.pi / 2.0) * sd)
        s, sd, _ = quintic_blend(t - reorient, period)
        return TrajectorySetpoint(R_sp=R1 @ yaw(2.0 * np.pi * s),
                                  omega_sp=z_body * 2.0 * np.pi * sd)

    return Trajectory(duration=reorient + period, sampler=sampler)
