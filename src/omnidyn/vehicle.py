"""Vehicle parameters, actuator models, and rigid-body dynamics.

The vehicle has six tilt arms spaced evenly about the body z-axis. Each
arm carries a counter-rotating rotor pair (upper rotor j = arm index i,
lower rotor j = i + 6; ARM maps each rotor to its arm). Thrust is
quadratic in rotor speed, so all rotor "speeds" Omega in this package are
squared speeds in (rad/s)^2.

The geometry is one fixed design: GAMMA, SPIN, ARM_AXES, SINGULAR_LINES
and SINGULAR_NORMS are read-only constants built at import, which
VehicleParams reads as class attributes.

VehicleParams rejects every vehicle whose allocation would leave the
normal floats (non-finite or subnormal parameters, overflowing matrices,
a hover thrust that underflows) and every vehicle whose full thrust
cannot carry its weight; integrate_step raises RuntimeError on a state
that stops being finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# hat and orthonormalize are bound here so that perfbench/tracer.py can count
# calls to them from the plant; integrate_step itself uses neither.
from .mathcore import hat, orthonormalize  # noqa: F401

# Rotor j sits on arm j % 6: upper rotors 0-5, lower rotors 6-11.
ARM = np.arange(12) % 6

DIVERGED = "integration step produced non-finite state"

Z_AXIS = np.array([0.0, 0.0, 1.0])

# Arm azimuths, rotor spins (upper +1, lower -1), unit arm axes and the 14
# singular force directions [z, -z, arm axes, -arm axes], negated so the signed
# zeros are those of -Z_AXIS and -axis, with the norms angle_between computes.
GAMMA = np.arange(6) * np.pi / 3.0
SPIN = np.concatenate([np.ones(6), -np.ones(6)])
ARM_AXES = np.stack([np.cos(GAMMA), np.sin(GAMMA), np.zeros(6)], axis=-1)
SINGULAR_LINES = np.vstack([Z_AXIS, -Z_AXIS, ARM_AXES, -ARM_AXES])
SINGULAR_NORMS = np.sqrt(np.vecdot(SINGULAR_LINES, SINGULAR_LINES))
for _constant in (Z_AXIS, GAMMA, SPIN, ARM_AXES, SINGULAR_LINES, SINGULAR_NORMS):
    _constant.flags.writeable = False

# Factor by which A^+ w for the weight (or a unit wrench, whichever is larger)
# must stay below the largest float: the rotor-pair sums, their hypot and the
# projections grow it by up to 2 sqrt(2), and the closed loop asks for more
# than the weight in transients.
ALLOCATION_HEADROOM = 1e3


def as_float(value, name="value"):
    """value as a Python float: an int, a float, or a numpy integer or float
    scalar (0-d arrays included).

    Booleans, strings, None and arrays with ndim > 0 raise TypeError. The
    parameter blocks store their scalars through this (see store_floats),
    because a numpy scalar that reaches the float tick turns its arithmetic
    into numpy-scalar arithmetic; both give the same bits for + - * /, sqrt,
    sin, cos and ** 2.0.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def store_floats(block, names, message):
    """Store the named fields of a frozen parameter block as Python floats
    (as_float, whose TypeError names the field) and raise ValueError(message)
    when one of them is not finite."""
    values = [as_float(getattr(block, name), name) for name in names]
    if not all(map(math.isfinite, values)):
        raise ValueError(message)
    for name, value in zip(names, values):
        object.__setattr__(block, name, value)


@dataclass(frozen=True)
class VehicleParams:
    """Physical parameters of the vehicle.

    m: mass, kg
    J_b: body inertia matrix (diagonal, principal axes), kg m^2
    x_com: center-of-mass offset from the geometric center, m
    l_x: arm length, m
    c_f: thrust coefficient, N/(rad/s)^2
    c_d: drag-to-thrust moment arm, m
    Omega_max: maximum squared rotor speed, (rad/s)^2
    alpha_dot_max: maximum tilt rate, rad/s
    g_mag: gravitational acceleration, m/s^2

    The scalar fields are stored as Python floats (see store_floats). gamma,
    s, arm_axes, singular_lines and singular_norms are the shared read-only
    module constants.
    """

    m: float = 4.0
    J_b: np.ndarray = field(default_factory=lambda: np.diag([0.08, 0.08, 0.14]))
    x_com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    l_x: float = 0.3
    c_f: float = 1.0e-5
    c_d: float = 0.016
    Omega_max: float = 1.0e6
    alpha_dot_max: float = 6.0
    g_mag: float = 9.81
    gamma: ClassVar[np.ndarray] = GAMMA
    s: ClassVar[np.ndarray] = SPIN
    arm_axes: ClassVar[np.ndarray] = ARM_AXES
    singular_lines: ClassVar[np.ndarray] = SINGULAR_LINES
    singular_norms: ClassVar[np.ndarray] = SINGULAR_NORMS
    # Derived in __post_init__: rotor_columns, the fixed 6x24 allocation matrix
    # (layout in omnidyn.allocation) and its pseudo-inverse.
    sin_cols: np.ndarray = field(init=False, repr=False, compare=False)
    cos_cols: np.ndarray = field(init=False, repr=False, compare=False)
    A: np.ndarray = field(init=False, repr=False, compare=False)
    A_pinv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Frozen: fields are set here once, so the derived ones never go stale.
        for name in ("J_b", "x_com"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        store_floats(self, ("m", "l_x", "c_f", "c_d", "Omega_max", "alpha_dot_max", "g_mag"),
                     "vehicle parameters must be finite")
        if not (np.isfinite(self.J_b).all() and np.isfinite(self.x_com).all()):
            raise ValueError("vehicle parameters must be finite")
        if self.x_com.shape != (3,):
            raise ValueError("x_com must have 3 entries")
        # Subnormal mass, gravity or inertia underflows m * g and the
        # inverse-inertia terms to 0 or inf in the controller and the plant;
        # the allocation's force threshold 1e-6 m g must stay above 0.
        tiny = np.finfo(float).tiny
        if self.m < tiny:
            raise ValueError("mass must be positive and not subnormal")
        if self.g_mag < tiny:
            raise ValueError("g must be positive and not subnormal")
        # The allocation squares forces the size of the weight, so the square
        # of m * g must be finite too: m of 1e300 overflowed F.dot(F).
        if not tiny <= self.m * self.g_mag < math.sqrt(sys.float_info.max):
            raise ValueError("weight m * g must be a normal float whose square is finite "
                             "(it underflows or overflows)")
        # A subnormal thrust coefficient makes A^+ so large that the rotor-pair
        # sums of a hover wrench overflow (c_f of 2.2e-308).
        if self.c_f < tiny:
            raise ValueError("c_f must be positive and not subnormal")
        if self.J_b.shape != (3, 3):
            raise ValueError("J_b must be 3x3")
        if np.any(np.diag(self.J_b) < tiny) or np.max(np.abs(self.J_b - np.diag(np.diag(self.J_b)))) > 0.0:
            raise ValueError("J_b must be diagonal with positive, not subnormal entries")
        for name in ("c_f", "c_d", "l_x", "Omega_max", "alpha_dot_max", "g_mag"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        # Extreme coefficients overflow the allocation matrix or its inverse;
        # the checks report that as a bad parameter, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            sin_cols, cos_cols = rotor_columns(self)
            blocks = (sin_cols[:, :6], cos_cols[:, :6], sin_cols[:, 6:], cos_cols[:, 6:])
            A = np.stack(blocks, axis=2).reshape(6, 24)
            if not np.all(np.isfinite(A)):
                raise ValueError("allocation matrix is not finite")
            if np.linalg.matrix_rank(A) < 6:
                raise ValueError("allocation matrix is rank deficient")
            A_pinv = np.linalg.pinv(A)
            if not np.all(np.isfinite(A_pinv)):
                raise ValueError("allocation matrix has no finite pseudo-inverse")
            # Every entry of A^+ w is at most the largest absolute row sum of A^+
            # times |w|. The sweeps allocate the weight and unit wrenches; c_f of
            # 2.2250738585072014e-308 overflowed the rotor-pair sums of the weight.
            u_bound = float(np.abs(A_pinv).sum(axis=1).max()) * max(self.m * self.g_mag, 1.0)
            if not u_bound < sys.float_info.max / ALLOCATION_HEADROOM:
                raise ValueError("allocation of the weight overflows: c_f is too small for m * g "
                                 "(A^+ w must stay finite with headroom)")
        # The rotor thrust of level hover, the weight shared by the twelve rotors
        # and capped at full speed, must be a normal float. Below that, A^+ w of
        # the weight (c_f of 1e300 with m of 1e-300) or c_f * Omega_max
        # (Omega_max of 5e-324) underflows, and the sweeps see zero thrust.
        hover_thrust = self.c_f * min(self.m * self.g_mag / (12.0 * self.c_f), self.Omega_max)
        if not hover_thrust >= tiny:
            raise ValueError("hover thrust per rotor, c_f * min(m g / (12 c_f), Omega_max), "
                             "underflows: it must be a normal float")
        # The twelve rotors at full speed must carry the weight; a full thrust
        # that overflows to inf carries any weight.
        if 12.0 * self.c_f * self.Omega_max < self.m * self.g_mag:
            raise ValueError("full thrust 12 c_f Omega_max cannot carry the weight m g")
        for name, value in (("sin_cols", sin_cols), ("cos_cols", cos_cols), ("A", A), ("A_pinv", A_pinv)):
            object.__setattr__(self, name, value)


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
        if not (self.x.shape == self.v.shape == self.omega_b.shape == (3,) and self.R.shape == (3, 3)):
            raise ValueError("state needs x, v, omega_b of shape (3,) and R of shape (3, 3)")
        if not np.isfinite(np.concatenate([self.x, self.v, self.R.ravel(), self.omega_b])).all():
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
    direction SPIN[j].
    """
    sg, cg = np.sin(GAMMA[ARM]), np.cos(GAMMA[ARM])
    sd = SPIN * params.c_d
    zero, one = np.zeros(12), np.ones(12)
    lx = params.l_x
    sin_cols = params.c_f * np.array([sg, -cg, zero, -sd * sg, sd * cg, -lx * one])
    cos_cols = params.c_f * np.array([zero, zero, one, lx * sg, -lx * cg, -sd])
    return sin_cols, cos_cols


def build_A_alpha(params: VehicleParams, alpha):
    """Instantaneous allocation matrix at tilt angles alpha.

    alpha of shape (6,) gives the 6x12 matrix; a stack of shape (..., 6)
    gives (..., 6, 12), each matrix with the bytes of its own 1-D call (the
    products are elementwise).
    """
    alpha = np.asarray(alpha, dtype=float).take(ARM, -1)[..., None, :]
    return params.sin_cols * np.sin(alpha) + params.cos_cols * np.cos(alpha)


def _exp_coefficients(t0, t1, t2):
    """(a, b) with exp(hat(t)) = I + a hat(t) + b hat(t)^2 (Rodrigues).

    Raises RuntimeError when |t|^2 is not finite, before math.sin can
    raise ValueError on an infinite angle.
    """
    n2 = t0 * t0 + t1 * t1 + t2 * t2
    if not math.isfinite(n2):
        raise RuntimeError(DIVERGED)
    if n2 < 1e-12:
        return 1.0 - n2 / 6.0, 0.5 - n2 / 24.0
    n = math.sqrt(n2)
    # b = (1 - cos n) / n^2 in half-angle form, which does not cancel.
    s = math.sin(0.5 * n) / (0.5 * n)
    return math.sin(n) / n, 0.5 * s * s


def integrate_step(state: RigidBodyState, wrench: Wrench, dt, params: VehicleParams,
                   n_steps=1) -> RigidBodyState:
    """Advance the rigid body by n_steps steps of dt under a held body thrust wrench.

    Each step is one fourth-order Runge-Kutta-Munthe-Kaas step (RKMK4)
    on SO(3) x R^9, in Python floats. omega_b, x and v take classical
    RK4 steps; R becomes R exp(hat(theta)), with theta the RK4
    combination of the dexp^-1 stage increments. R stays in SO(3) through
    the exp map, with no re-orthonormalization. The wrench argument is
    thrust only; gravity acts along inertial -z. The state stays in
    floats between steps, so n_steps steps give the same bits as n_steps
    single calls. Raises RuntimeError when a step produces non-finite
    values (checked once, after the last step); the RigidBodyState built
    at the end is made from these checked floats without a second check.

    Stage i (c = 0, 1/2, 1/2, 1) evaluates at rotation R exp(hat(t_i)) and
    body rate w_i, with t_i = c_i dt K_{i-1} and w_i = omega + c_i dt k_{i-1}:
    the acceleration R exp(hat(t_i)) f - g e_z, with exp(hat(t)) f =
    f + a t x f + b t x (t x f); the Lie algebra increment K_i =
    dexp^-1_t(w_i) truncated after its third term, w_i + t_i x w_i / 2 +
    t_i x (t_i x w_i) / 12; and the Euler rate k_i = J^-1 (tau - w_i x J w_i).
    Stage 1 has t = 0, so it takes f and K_1 = omega as they are; stages 2-4
    run one body in a loop, and the RK4 sums grow stage by stage in the
    left-to-right order of a_1 + 2 a_2 + 2 a_3 + a_4.
    """
    x0, x1, x2 = state.x.tolist()
    v0, v1, v2 = state.v.tolist()
    w0, w1, w2 = state.omega_b.tolist()
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = state.R.tolist()
    m, g_mag = params.m, params.g_mag
    F0, F1, F2 = wrench.F.tolist()
    f0, f1, f2 = F0 / m, F1 / m, F2 / m
    tau0, tau1, tau2 = wrench.tau.tolist()
    J0, J1, J2 = params.J_b.diagonal().tolist()
    half = 0.5 * dt
    sixth = dt / 6.0
    # (c_i dt, RK4 weight) of stages 2-4.
    stages = ((half, 2.0), (half, 2.0), (dt, 1.0))

    for _ in range(n_steps):
        # Stage 1: t = 0 and w = omega.
        Kx, Ky, Kz = w0, w1, w2
        ax, ay, az = (r00 * f0 + r01 * f1 + r02 * f2, r10 * f0 + r11 * f1 + r12 * f2,
                      r20 * f0 + r21 * f1 + r22 * f2 - g_mag)
        h0, h1, h2 = J0 * w0, J1 * w1, J2 * w2
        kx, ky, kz = ((tau0 - (w1 * h2 - w2 * h1)) / J0, (tau1 - (w2 * h0 - w0 * h2)) / J1,
                      (tau2 - (w0 * h1 - w1 * h0)) / J2)
        # Running RK4 sums of a, k and K, and the sum a_1 + a_2 + a_3 for x.
        svx, svy, svz = sxx, sxy, sxz = ax, ay, az
        swx, swy, swz = kx, ky, kz
        stx, sty, stz = Kx, Ky, Kz
        for cdt, weight in stages:
            t0, t1, t2 = cdt * Kx, cdt * Ky, cdt * Kz
            p0, p1, p2 = w0 + cdt * kx, w1 + cdt * ky, w2 + cdt * kz
            ea, eb = _exp_coefficients(t0, t1, t2)
            c0, c1, c2 = t1 * f2 - t2 * f1, t2 * f0 - t0 * f2, t0 * f1 - t1 * f0
            d0, d1, d2 = t1 * c2 - t2 * c1, t2 * c0 - t0 * c2, t0 * c1 - t1 * c0
            u0, u1, u2 = f0 + ea * c0 + eb * d0, f1 + ea * c1 + eb * d1, f2 + ea * c2 + eb * d2
            ax, ay, az = (r00 * u0 + r01 * u1 + r02 * u2, r10 * u0 + r11 * u1 + r12 * u2,
                          r20 * u0 + r21 * u1 + r22 * u2 - g_mag)
            c0, c1, c2 = t1 * p2 - t2 * p1, t2 * p0 - t0 * p2, t0 * p1 - t1 * p0
            d0, d1, d2 = t1 * c2 - t2 * c1, t2 * c0 - t0 * c2, t0 * c1 - t1 * c0
            Kx, Ky, Kz = p0 + 0.5 * c0 + d0 / 12.0, p1 + 0.5 * c1 + d1 / 12.0, p2 + 0.5 * c2 + d2 / 12.0
            h0, h1, h2 = J0 * p0, J1 * p1, J2 * p2
            kx, ky, kz = ((tau0 - (p1 * h2 - p2 * h1)) / J0, (tau1 - (p2 * h0 - p0 * h2)) / J1,
                          (tau2 - (p0 * h1 - p1 * h0)) / J2)
            svx, svy, svz = svx + weight * ax, svy + weight * ay, svz + weight * az
            swx, swy, swz = swx + weight * kx, swy + weight * ky, swz + weight * kz
            stx, sty, stz = stx + weight * Kx, sty + weight * Ky, stz + weight * Kz
            if weight == 2.0:
                # x' = v: the stage velocities are v, v + dt/2 a1, v + dt/2 a2, v + dt a3.
                sxx, sxy, sxz = sxx + ax, sxy + ay, sxz + az
        x0 = x0 + sixth * (6.0 * v0 + dt * sxx)
        x1 = x1 + sixth * (6.0 * v1 + dt * sxy)
        x2 = x2 + sixth * (6.0 * v2 + dt * sxz)
        v0, v1, v2 = v0 + sixth * svx, v1 + sixth * svy, v2 + sixth * svz
        w0, w1, w2 = w0 + sixth * swx, w1 + sixth * swy, w2 + sixth * swz
        t0, t1, t2 = sixth * stx, sixth * sty, sixth * stz

        ea, eb = _exp_coefficients(t0, t1, t2)
        # exp(hat(t)) = I + a hat(t) + b (t t^T - |t|^2 I)
        s00, s11, s22 = t0 * t0, t1 * t1, t2 * t2
        s01, s02, s12 = eb * t0 * t1, eb * t0 * t2, eb * t1 * t2
        e00, e01, e02 = 1.0 - eb * (s11 + s22), s01 - ea * t2, s02 + ea * t1
        e10, e11, e12 = s01 + ea * t2, 1.0 - eb * (s00 + s22), s12 - ea * t0
        e20, e21, e22 = s02 - ea * t1, s12 + ea * t0, 1.0 - eb * (s00 + s11)
        r00, r01, r02 = (r00 * e00 + r01 * e10 + r02 * e20, r00 * e01 + r01 * e11 + r02 * e21,
                         r00 * e02 + r01 * e12 + r02 * e22)
        r10, r11, r12 = (r10 * e00 + r11 * e10 + r12 * e20, r10 * e01 + r11 * e11 + r12 * e21,
                         r10 * e02 + r11 * e12 + r12 * e22)
        r20, r21, r22 = (r20 * e00 + r21 * e10 + r22 * e20, r20 * e01 + r21 * e11 + r22 * e21,
                         r20 * e02 + r21 * e12 + r22 * e22)

    # One check after the last step finds a value that any step made non-finite:
    # no update turns inf or NaN back into a finite float (inf * 0 is NaN),
    # and a non-finite rate raises in _exp_coefficients first.
    if not all(map(math.isfinite, (x0, x1, x2, v0, v1, v2, w0, w1, w2,
                                   r00, r01, r02, r10, r11, r12, r20, r21, r22))):
        raise RuntimeError(DIVERGED)
    # Every value was checked, so RigidBodyState's conversions and finiteness
    # check are skipped.
    result = object.__new__(RigidBodyState)
    result.x = np.array((x0, x1, x2))
    result.v = np.array((v0, v1, v2))
    result.R = np.array(((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)))
    result.omega_b = np.array((w0, w1, w2))
    return result
