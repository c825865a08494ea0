"""Vehicle parameters, actuator models, and rigid-body dynamics.

The vehicle has six tilt arms spaced evenly about the body z-axis. Each
arm carries a counter-rotating rotor pair (upper rotor j = arm index i,
lower rotor j = i + 6). Thrust is quadratic in rotor speed, so all rotor
"speeds" Omega in this package are squared speeds in (rad/s)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mathcore import hat, orthonormalize


@dataclass
class VehicleParams:
    """Physical parameters of the vehicle.

    m: mass, kg
    J_b: body inertia matrix (diagonal, principal axes), kg m^2
    x_com: center-of-mass offset from the geometric center, m
    l_x: arm length, m
    gamma: arm azimuth angles, rad, shape (6,)
    s: rotor spin directions in {+1, -1}, shape (12,); s[i+6] == -s[i]
    c_f: thrust coefficient, N/(rad/s)^2
    c_d: drag-to-thrust moment arm, m
    Omega_max: maximum squared rotor speed, (rad/s)^2
    alpha_dot_max: maximum tilt rate, rad/s
    g_mag: gravitational acceleration, m/s^2
    """

    m: float = 4.0
    J_b: np.ndarray = field(default_factory=lambda: np.diag([0.08, 0.08, 0.14]))
    x_com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    l_x: float = 0.3
    gamma: np.ndarray = field(default_factory=lambda: np.arange(6) * np.pi / 3.0)
    s: np.ndarray = field(default_factory=lambda: np.concatenate([np.ones(6), -np.ones(6)]))
    c_f: float = 1.0e-5
    c_d: float = 0.016
    Omega_max: float = 1.0e6
    alpha_dot_max: float = 6.0
    g_mag: float = 9.81

    def __post_init__(self):
        self.J_b = np.asarray(self.J_b, dtype=float)
        self.x_com = np.asarray(self.x_com, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        scalars = [self.m, self.l_x, self.c_f, self.c_d, self.Omega_max, self.alpha_dot_max, self.g_mag]
        if not all(np.all(np.isfinite(a)) for a in (scalars, self.J_b, self.x_com, self.gamma)):
            raise ValueError("vehicle parameters must be finite")
        if self.x_com.shape != (3,):
            raise ValueError("x_com must have 3 entries")
        if self.m <= 0.0:
            raise ValueError("mass must be positive")
        if self.J_b.shape != (3, 3):
            raise ValueError("J_b must be 3x3")
        if np.any(np.diag(self.J_b) <= 0.0) or np.max(np.abs(self.J_b - np.diag(np.diag(self.J_b)))) > 0.0:
            raise ValueError("J_b must be diagonal with positive entries")
        if self.gamma.shape != (6,):
            raise ValueError("gamma must have 6 arm azimuths")
        if self.s.shape != (12,) or not np.all(np.isin(self.s, (-1.0, 1.0))):
            raise ValueError("s must be 12 entries of +/-1")
        if np.any(self.s[:6] != -self.s[6:]):
            raise ValueError("upper and lower rotors of an arm must counter-rotate")
        for name in ("c_f", "c_d", "l_x", "Omega_max", "alpha_dot_max", "g_mag"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class RigidBodyState:
    """Inertial position/velocity, body-to-inertial rotation, body angular rate."""

    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    omega_b: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        self.omega_b = np.asarray(self.omega_b, dtype=float)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))
                and np.all(np.isfinite(self.R)) and np.all(np.isfinite(self.omega_b))):
            raise ValueError("state contains non-finite values")


@dataclass
class Wrench:
    """Body-frame force (N) and torque (N m)."""

    F: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tau: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)

    def as_vector(self):
        return np.concatenate([self.F, self.tau])


def default_params() -> VehicleParams:
    """Canonical parameter set: 4 kg, six arms at 60 deg spacing, 10 N per rotor."""
    return VehicleParams()


def rotor_columns(params: VehicleParams):
    """Per-rotor wrench columns for unit sin/cos thrust components.

    Returns (sin_cols, cos_cols), each 6x12. Column j is the body wrench
    produced per unit of sin(alpha_i)*Omega_j (respectively
    cos(alpha_i)*Omega_j) for rotor j on arm i = j % 6. The sin component
    is thrust along the arm tangent; the cos component is thrust along
    body z. Drag torque enters through the moment arm c_d with the spin
    direction s_j.
    """
    sin_cols = np.zeros((6, 12))
    cos_cols = np.zeros((6, 12))
    cf, cd, lx = params.c_f, params.c_d, params.l_x
    for j in range(12):
        i = j % 6
        g = params.gamma[i]
        sj = params.s[j]
        sg, cg = np.sin(g), np.cos(g)
        sin_cols[:, j] = cf * np.array([sg, -cg, 0.0, -sj * cd * sg, sj * cd * cg, -lx])
        cos_cols[:, j] = cf * np.array([0.0, 0.0, 1.0, lx * sg, -lx * cg, -sj * cd])
    return sin_cols, cos_cols


def rigid_body_derivative(x, v, R, omega_b, wrench: Wrench, params: VehicleParams):
    """Newton-Euler state derivative.

    The wrench argument is thrust-only and body-framed; gravity acts in
    the inertial frame. Returns (x_dot, v_dot, R_dot, omega_dot).
    """
    x_dot = v
    v_dot = (R @ wrench.F) / params.m - np.array([0.0, 0.0, params.g_mag])
    R_dot = R @ hat(omega_b)
    J = np.diag(params.J_b)
    omega_dot = (wrench.tau - np.cross(omega_b, J * omega_b)) / J
    return x_dot, v_dot, R_dot, omega_dot


def integrate_step(state: RigidBodyState, wrench: Wrench, dt, params: VehicleParams) -> RigidBodyState:
    """Advance the rigid body by dt with classical RK4 under a held body
    thrust wrench.

    The rotation matrix is re-orthonormalized after the step. Raises
    RuntimeError if the step produces non-finite values.
    """

    def deriv(x, v, R, om):
        return rigid_body_derivative(x, v, R, om, wrench, params)

    x0, v0, R0, om0 = state.x, state.v, state.R, state.omega_b
    k1 = deriv(x0, v0, R0, om0)
    k2 = deriv(x0 + 0.5 * dt * k1[0], v0 + 0.5 * dt * k1[1],
               R0 + 0.5 * dt * k1[2], om0 + 0.5 * dt * k1[3])
    k3 = deriv(x0 + 0.5 * dt * k2[0], v0 + 0.5 * dt * k2[1],
               R0 + 0.5 * dt * k2[2], om0 + 0.5 * dt * k2[3])
    k4 = deriv(x0 + dt * k3[0], v0 + dt * k3[1],
               R0 + dt * k3[2], om0 + dt * k3[3])

    w = dt / 6.0
    x = x0 + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    v = v0 + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    R = R0 + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    om = om0 + w * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])

    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))
            and np.all(np.isfinite(R)) and np.all(np.isfinite(om))):
        raise RuntimeError("integration step produced non-finite state")
    return RigidBodyState(x=x, v=v, R=orthonormalize(R), omega_b=om)
