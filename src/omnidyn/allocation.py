"""Wrench-to-actuator allocation for the six tilt-arm rotor pairs.

The fixed 6x24 matrix A maps the stacked per-rotor products
(sin(alpha_i) * Omega_j, cos(alpha_i) * Omega_j) to the body wrench. Its
columns are tilt-independent, so VehicleParams builds A and A^+ once.
Allocation solves u = A^+ w for the minimum-norm u, recovers one tilt
angle per arm with atan2 over the summed rotor pair, applies the
singularity handlers and the tilt rate limit, and projects u back onto
the commanded tilt angles to obtain nonnegative rotor speeds.

Column and u-vector ordering: arm i contributes four consecutive entries
[sin upper, cos upper, sin lower, cos lower] at offset 4*i. Rotor j
sits on arm vehicle.ARM[j], upper rotors 0-5 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# allocate wraps its tilt steps on floats; wrap_angle stays bound here because
# perfbench/tracer.py looks it up in this module.
from .mathcore import wrap_angle  # noqa: F401
from .singularity import (
    SingularityParams,
    apply_damping_and_unwind,
    apply_tilt_bias,
    damping_multiplier,
    singular_angles,
    tilt_bias_multiplier,
)
# allocate reads both angles from singular_angles; these two stay bound here
# because perfbench/tracer.py looks them up in this module.
from .singularity import arm_alignment, z_misalignment  # noqa: F401
# rotor_columns is bound here so that perfbench/tracer.py can count column builds.
from .vehicle import VehicleParams, build_A_alpha, rotor_columns

# Pair magnitudes below this fraction of the largest arm's are treated as
# zero in the tilt-angle extraction (the angle is no longer informative).
DEGENERATE_REL_TOL = 1e-9
TWO_PI = 2.0 * math.pi


def extract_tilt_angles(u, alpha_prev):
    """One tilt angle per arm from the summed sin/cos products of its rotor pair.

    Arms whose summed pair is degenerate (zero magnitude relative to the
    largest arm) hold their previous angle. The pair sums, np.hypot and
    np.arctan2 run in numpy (math.hypot and math.atan2 round differently);
    the threshold and the hold run on Python floats. Returns an ndarray.
    """
    u = np.asarray(u, dtype=float)
    S = u[0::4] + u[2::4]
    C = u[1::4] + u[3::4]
    mag = np.hypot(S, C).tolist()
    alpha_des = np.arctan2(S, C).tolist()
    # The magnitudes are nonnegative, so their sum is NaN exactly when one of
    # them is; mag.max() is NaN then, and no arm holds.
    thr = math.nan if math.isnan(sum(mag)) else DEGENERATE_REL_TOL * max(mag)
    return np.array([prev if m <= thr else a for prev, m, a in zip(alpha_prev, mag, alpha_des)], dtype=float)


def extract_rotor_speeds(u, alpha, params: VehicleParams):
    """Project each rotor's (sin, cos) products onto its arm's tilt angle.

    Negative projections mean the commanded angle points away from the
    rotor's requested thrust; those speeds clamp to zero, and all speeds
    clamp to Omega_max. Runs on Python floats and returns an ndarray in
    rotor order (upper rotors 0-5, then lower rotors 6-11).
    """
    u = np.asarray(u, dtype=float).tolist()
    hi = params.Omega_max
    Omega = [0.0] * 12
    for i, a in enumerate(alpha):
        if a - a == 0.0:
            s, c = math.sin(a), math.cos(a)
        else:
            # np.sin and np.cos of inf or NaN give the NaN a - a; math.sin raises.
            s = c = a - a
        # The clamp of ndarray.clip: NaN stays NaN and a -0.0 projection stays -0.0.
        w = s * u[4 * i] + c * u[4 * i + 1]
        Omega[i] = 0.0 if w < 0.0 else hi if w > hi else w
        w = s * u[4 * i + 2] + c * u[4 * i + 3]
        Omega[i + 6] = 0.0 if w < 0.0 else hi if w > hi else w
    return np.array(Omega)


@dataclass
class ActuatorCommand:
    """Allocation output: tilt angles, rotor speeds, handler diagnostics."""

    alpha_cmd: np.ndarray
    Omega_cmd: np.ndarray
    alpha_des: np.ndarray = field(default=None)
    k_t: float = 0.0
    k_alpha: np.ndarray = field(default_factory=lambda: np.zeros(6))


class Allocator:
    """Allocation for one vehicle, with singularity handlers unless sing_params is None."""

    def __init__(self, params: VehicleParams, sing_params: SingularityParams | None = None):
        self.params = params
        self.sing_params = sing_params

    def allocate(self, w_des, alpha_prev, dt) -> ActuatorCommand:
        """Full allocation pipeline for one control tick.

        Order: pseudo-inverse solve, tilt-angle extraction, wrapped tilt
        step, tilt bias, damping and unwinding, rate limit, rotor-speed
        projection.
        """
        params = self.params
        w_des = np.asarray(w_des, dtype=float)
        alpha_prev = np.asarray(alpha_prev, dtype=float)

        u = params.A_pinv @ w_des
        prev = alpha_prev.tolist()
        alpha_des = extract_tilt_angles(u, prev)
        # wrap_angle(alpha_des - alpha_prev), on floats.
        delta = []
        for a, p in zip(alpha_des.tolist(), prev):
            d = (a - p + math.pi) % TWO_PI - math.pi
            delta.append(math.pi if d == -math.pi else d)

        k_t = 0.0
        k_alpha = [0.0] * 6
        F = w_des[:3]
        # np.linalg.norm(F) is this square root of F.dot(F).
        F_norm = math.sqrt(F.dot(F))
        sp = self.sing_params
        # A force too small, or one whose norm overflows, has no usable direction.
        if sp is not None and 1e-6 * params.m * params.g_mag <= F_norm < math.inf:
            phi_z, eta = singular_angles(F / F_norm, params)
            k_t = tilt_bias_multiplier(phi_z, sp)
            delta = apply_tilt_bias(delta, k_t, sp)
            k_alpha = damping_multiplier(eta, sp)
            delta = apply_damping_and_unwind(delta, k_alpha, prev, sp, dt)

        # Rate limit, as delta.clip(-limit, limit).
        limit = params.alpha_dot_max * dt
        alpha_cmd = [p + (-limit if d < -limit else limit if d > limit else d) for p, d in zip(prev, delta)]
        Omega_cmd = extract_rotor_speeds(u, alpha_cmd, params)
        return ActuatorCommand(alpha_cmd=np.array(alpha_cmd), Omega_cmd=Omega_cmd,
                               alpha_des=alpha_des, k_t=k_t, k_alpha=np.array(k_alpha))

