"""Vehicle parameters, actuator models, and rigid-body dynamics.

The vehicle has six tilt arms spaced evenly about the body z-axis. Each
arm carries a counter-rotating rotor pair (upper rotor j = arm index i,
lower rotor j = i + 6; ARM maps each rotor to its arm). Thrust is
quadratic in rotor speed, so all rotor "speeds" Omega in this package are
squared speeds in (rad/s)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mathcore import hat, orthonormalize

# Rotor j sits on arm j % 6: upper rotors 0-5, lower rotors 6-11.
ARM = np.arange(12) % 6


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
    # Derived in __post_init__: rotor_columns, the fixed 6x24 allocation matrix
    # (layout in omnidyn.allocation), its pseudo-inverse, the unit arm axes.
    sin_cols: np.ndarray = field(init=False, repr=False, compare=False)
    cos_cols: np.ndarray = field(init=False, repr=False, compare=False)
    A: np.ndarray = field(init=False, repr=False, compare=False)
    A_pinv: np.ndarray = field(init=False, repr=False, compare=False)
    arm_axes: np.ndarray = field(init=False, repr=False, compare=False)

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
        # Subnormal mass or inertia underflows m * g and the inverse-inertia
        # terms to 0 or inf in the controller and the plant.
        tiny = np.finfo(float).tiny
        if self.m < tiny:
            raise ValueError("mass must be positive and not subnormal")
        if self.J_b.shape != (3, 3):
            raise ValueError("J_b must be 3x3")
        if np.any(np.diag(self.J_b) < tiny) or np.max(np.abs(self.J_b - np.diag(np.diag(self.J_b)))) > 0.0:
            raise ValueError("J_b must be diagonal with positive, not subnormal entries")
        if self.gamma.shape != (6,):
            raise ValueError("gamma must have 6 arm azimuths")
        if self.s.shape != (12,) or not np.all(np.isin(self.s, (-1.0, 1.0))):
            raise ValueError("s must be 12 entries of +/-1")
        if np.any(self.s[:6] != -self.s[6:]):
            raise ValueError("upper and lower rotors of an arm must counter-rotate")
        for name in ("c_f", "c_d", "l_x", "Omega_max", "alpha_dot_max", "g_mag"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        # Extreme coefficients overflow the allocation matrix or its inverse;
        # the checks report that as a bad parameter, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            sin_cols, cos_cols = self.sin_cols, self.cos_cols = rotor_columns(self)
            blocks = (sin_cols[:, :6], cos_cols[:, :6], sin_cols[:, 6:], cos_cols[:, 6:])
            self.A = np.stack(blocks, axis=2).reshape(6, 24)
            if not np.all(np.isfinite(self.A)):
                raise ValueError("allocation matrix is not finite")
            if np.linalg.matrix_rank(self.A) < 6:
                raise ValueError("allocation matrix is rank deficient")
            self.A_pinv = np.linalg.pinv(self.A)
            if not np.all(np.isfinite(self.A_pinv)):
                raise ValueError("allocation matrix has no finite pseudo-inverse")
        self.arm_axes = np.stack([np.cos(self.gamma), np.sin(self.gamma), np.zeros(6)], axis=-1)


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


def rotor_columns(params: VehicleParams):
    """Per-rotor wrench columns for unit sin/cos thrust components.

    Returns (sin_cols, cos_cols), each 6x12. Column j is the body wrench
    produced per unit of sin(alpha_i)*Omega_j (respectively
    cos(alpha_i)*Omega_j) for rotor j on arm i = ARM[j]. The sin component
    is thrust along the arm tangent; the cos component is thrust along
    body z. Drag torque enters through the moment arm c_d with the spin
    direction s_j.
    """
    g = params.gamma[ARM]
    sg, cg = np.sin(g), np.cos(g)
    sd = params.s * params.c_d
    zero, one = np.zeros(12), np.ones(12)
    lx = params.l_x
    sin_cols = params.c_f * np.array([sg, -cg, zero, -sd * sg, sd * cg, -lx * one])
    cos_cols = params.c_f * np.array([zero, zero, one, lx * sg, -lx * cg, -sd])
    return sin_cols, cos_cols


def build_A_alpha(params: VehicleParams, alpha):
    """Instantaneous 6x12 allocation matrix at tilt angles alpha."""
    alpha = np.asarray(alpha, dtype=float)[ARM]
    return params.sin_cols * np.sin(alpha) + params.cos_cols * np.cos(alpha)


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

    RK4 runs on the packed 18-vector (x, v, R row-major, omega_b). The
    rotation matrix is re-orthonormalized after the step. Raises
    RuntimeError if the step produces non-finite values.
    """

    def deriv(y):
        x_dot, v_dot, R_dot, omega_dot = rigid_body_derivative(
            y[:3], y[3:6], y[6:15].reshape(3, 3), y[15:], wrench, params)
        return np.concatenate([x_dot, v_dot, R_dot.ravel(), omega_dot])

    y0 = np.concatenate([state.x, state.v, state.R.ravel(), state.omega_b])
    k1 = deriv(y0)
    k2 = deriv(y0 + 0.5 * dt * k1)
    k3 = deriv(y0 + 0.5 * dt * k2)
    k4 = deriv(y0 + dt * k3)
    y = y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    if not np.all(np.isfinite(y)):
        raise RuntimeError("integration step produced non-finite state")
    return RigidBodyState(x=y[:3], v=y[3:6], R=orthonormalize(y[6:15].reshape(3, 3)), omega_b=y[15:])
