"""Geometric trajectory-tracking controller on SE(3).

Position and attitude errors are mapped to a desired body wrench with
proportional-derivative feedback, gravity compensation, gyroscopic
feedforward, and a center-of-mass counter-torque. The controller is
stateless: each tick is a pure function of state, setpoint, and gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# compute_errors applies vee's check on floats; vee stays bound here because
# perfbench/tracer.py looks it up in this module.
from .mathcore import SKEW_TOL, vee  # noqa: F401
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
    """Tracking errors: e_p, e_v inertial; e_R, e_omega in the body frame.

    e_R = vee(R_sp^T R - R^T R_sp) / 2 and e_omega = omega - R^T R_sp omega_sp.
    The matmuls stay numpy (BLAS may fuse multiply-adds); R^T R_sp is formed
    once for both errors, and vee's skew check and the arithmetic on the
    3-vectors run on Python floats.
    """
    R_t_R_sp = state.R.T @ sp.R_sp
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = (sp.R_sp.T @ state.R).tolist()
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = R_t_R_sp.tolist()
    m00, m01, m02 = a00 - b00, a01 - b01, a02 - b02
    m10, m11, m12 = a10 - b10, a11 - b11, a12 - b12
    m20, m21, m22 = a20 - b20, a21 - b21, a22 - b22
    # vee's check, np.abs(M + M.T).max() > SKEW_TOL. A NaN entry makes that max
    # NaN, so the check passes; the sum of the entries is NaN exactly then.
    sums = (abs(m00 + m00), abs(m01 + m10), abs(m02 + m20), abs(m11 + m11), abs(m12 + m21), abs(m22 + m22))
    if max(sums) > SKEW_TOL and not math.isnan(sum(sums)):
        raise ValueError("vee: input is not skew-symmetric")
    w0, w1, w2 = state.omega_b.tolist()
    r0, r1, r2 = (R_t_R_sp @ sp.omega_sp).tolist()
    return ControlErrors(e_p=state.x - sp.x_sp, e_v=state.v - sp.v_sp,
                         e_R=np.array((0.5 * m21, 0.5 * m02, 0.5 * m10)),
                         e_omega=np.array((w0 - r0, w1 - r1, w2 - r2)))


def _cross(a0, a1, a2, b0, b1, b2):
    """mathcore.cross on floats, as a tuple."""
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def control_wrench(errors: ControlErrors, state: RigidBodyState,
                   sp: TrajectorySetpoint, gains: Gains,
                   params: VehicleParams) -> Wrench:
    """Desired body-frame thrust wrench for the current errors.

    The force command compensates gravity and transports the inertial
    acceleration demand into the body frame; the torque command adds the
    gyroscopic term and the counter-torque of a center-of-mass offset.
    The three matmuls (R^T twice, J_b once) stay numpy; everything else
    runs on Python floats in the order of the array formulas
    a_cmd = -k_p e_p - k_v e_v + a_sp + g e_z,
    F = m (R^T a_cmd + omega x R^T v) and
    tau = J_b (-k_R e_R - k_omega e_omega) + omega x J omega + x_com x F.
    """
    k_p, k_v, k_R, k_omega = gains.k_p, gains.k_v, gains.k_R, gains.k_omega
    p0, p1, p2 = errors.e_p.tolist()
    v0, v1, v2 = errors.e_v.tolist()
    s0, s1, s2 = sp.a_sp.tolist()
    # + 0.0 is the x and y entry of g e_z; like the array sum, it turns a -0.0 into 0.0.
    a_cmd = np.array((-k_p * p0 - k_v * v0 + s0 + 0.0,
                      -k_p * p1 - k_v * v1 + s1 + 0.0,
                      -k_p * p2 - k_v * v2 + s2 + params.g_mag))
    R_t = state.R.T
    a0, a1, a2 = (R_t @ a_cmd).tolist()
    w0, w1, w2 = state.omega_b.tolist()
    c0, c1, c2 = _cross(w0, w1, w2, *(R_t @ state.v).tolist())
    m = params.m
    F = (m * (a0 + c0), m * (a1 + c1), m * (a2 + c2))

    r0, r1, r2 = errors.e_R.tolist()
    o0, o1, o2 = errors.e_omega.tolist()
    t0, t1, t2 = (params.J_b @ np.array((-k_R * r0 - k_omega * o0, -k_R * r1 - k_omega * o1,
                                         -k_R * r2 - k_omega * o2))).tolist()
    J0, J1, J2 = params.J_b.diagonal().tolist()
    g0, g1, g2 = _cross(w0, w1, w2, J0 * w0, J1 * w1, J2 * w2)
    x0, x1, x2 = _cross(*params.x_com.tolist(), *F)
    return Wrench(F=np.array(F), tau=np.array((t0 + g0 + x0, t1 + g1 + x1, t2 + g2 + x2)))
