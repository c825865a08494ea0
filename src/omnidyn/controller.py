"""Geometric trajectory-tracking controller on SE(3).

Position and attitude errors are mapped to a desired body wrench with
proportional-derivative feedback, gravity compensation, gyroscopic
feedforward, and a center-of-mass counter-torque. The controller is
stateless: each tick is a pure function of state, setpoint, and gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mathcore import cross, vee
from .vehicle import RigidBodyState, VehicleParams, Wrench


@dataclass
class Gains:
    """Isotropic feedback gains (position, velocity, rotation, angular rate).

    The defaults are tuned for the default vehicle at a 200 Hz control rate.
    The tilt bias handler trades a few percent of force authority for
    conditioning, which shows up as a steady offset inversely proportional
    to ``k_p``; the defaults keep that offset, and the transients of the
    aggressive attitude maneuvers, inside millimetre / sub-degree territory.
    """

    k_p: float = 640.0
    k_v: float = 50.6
    k_R: float = 1200.0
    k_omega: float = 69.3

    def __post_init__(self):
        if not np.all(np.isfinite([self.k_p, self.k_v, self.k_R, self.k_omega])):
            raise ValueError("gains must be finite")
        if min(self.k_p, self.k_v, self.k_R, self.k_omega) <= 0.0:
            raise ValueError("all gains must be positive")


@dataclass
class TrajectorySetpoint:
    """Reference pose, twist, and acceleration for one control tick."""

    x_sp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v_sp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    a_sp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    R_sp: np.ndarray = field(default_factory=lambda: np.eye(3))
    omega_sp: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.x_sp = np.asarray(self.x_sp, dtype=float)
        self.v_sp = np.asarray(self.v_sp, dtype=float)
        self.a_sp = np.asarray(self.a_sp, dtype=float)
        self.R_sp = np.asarray(self.R_sp, dtype=float)
        self.omega_sp = np.asarray(self.omega_sp, dtype=float)


@dataclass
class ControlErrors:
    """Position/velocity errors (inertial) and rotation/rate errors (body)."""

    e_p: np.ndarray
    e_v: np.ndarray
    e_R: np.ndarray
    e_omega: np.ndarray


def compute_errors(state: RigidBodyState, sp: TrajectorySetpoint) -> ControlErrors:
    """Tracking errors: e_p, e_v inertial; e_R, e_omega in the body frame."""
    e_p = state.x - sp.x_sp
    e_v = state.v - sp.v_sp
    e_R = 0.5 * vee(sp.R_sp.T @ state.R - state.R.T @ sp.R_sp)
    e_omega = state.omega_b - state.R.T @ sp.R_sp @ sp.omega_sp
    return ControlErrors(e_p=e_p, e_v=e_v, e_R=e_R, e_omega=e_omega)


def control_wrench(errors: ControlErrors, state: RigidBodyState,
                   sp: TrajectorySetpoint, gains: Gains,
                   params: VehicleParams) -> Wrench:
    """Desired body-frame thrust wrench for the current errors.

    The force command compensates gravity and transports the inertial
    acceleration demand into the body frame; the torque command adds the
    gyroscopic term and the counter-torque of a center-of-mass offset.
    """
    g_vec = np.array([0.0, 0.0, params.g_mag])
    a_cmd = -gains.k_p * errors.e_p - gains.k_v * errors.e_v + sp.a_sp + g_vec
    F_d = params.m * (state.R.T @ a_cmd + cross(state.omega_b, state.R.T @ state.v))
    J = params.J_b.diagonal()
    tau_d = (params.J_b @ (-gains.k_R * errors.e_R - gains.k_omega * errors.e_omega)
             + cross(state.omega_b, J * state.omega_b)
             + cross(params.x_com, F_d))
    return Wrench(F=F_d, tau=tau_d)
