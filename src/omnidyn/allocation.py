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

from dataclasses import dataclass, field

import numpy as np

from .mathcore import wrap_angle
from .singularity import (
    SingularityParams,
    apply_damping_and_unwind,
    apply_tilt_bias,
    arm_alignment,
    damping_multiplier,
    tilt_bias_multiplier,
    z_misalignment,
)
# rotor_columns is bound here so that perfbench/tracer.py can count column builds.
from .vehicle import VehicleParams, build_A_alpha, rotor_columns

# Pair magnitudes below this fraction of the largest arm's are treated as
# zero in the tilt-angle extraction (the angle is no longer informative).
DEGENERATE_REL_TOL = 1e-9
ARMS = np.arange(6)


def extract_tilt_angles(u, alpha_prev):
    """One tilt angle per arm from the summed sin/cos products of its rotor pair.

    Arms whose summed pair is degenerate (zero magnitude relative to the
    largest arm) hold their previous angle.
    """
    u = np.asarray(u, dtype=float)
    alpha_prev = np.asarray(alpha_prev, dtype=float)
    S = u[0::4] + u[2::4]
    C = u[1::4] + u[3::4]
    mag = np.hypot(S, C)
    thr = DEGENERATE_REL_TOL * mag.max()
    alpha_des = np.arctan2(S, C)
    hold = mag <= thr
    return np.where(hold, alpha_prev, alpha_des)


def extract_rotor_speeds(u, alpha, params: VehicleParams):
    """Project each rotor's (sin, cos) products onto its arm's tilt angle.

    Negative projections mean the commanded angle points away from the
    rotor's requested thrust; those speeds clamp to zero, and all speeds
    clamp to Omega_max.
    """
    u = np.asarray(u, dtype=float).reshape(6, 4)
    alpha = np.asarray(alpha, dtype=float)[:, None]
    # Rows are arms, columns upper and lower rotor; transposed to rotor order.
    Omega = (np.sin(alpha) * u[:, 0::2] + np.cos(alpha) * u[:, 1::2]).T.ravel()
    # ndarray.clip, like np.clip, keeps a -0.0 projection as -0.0.
    return Omega.clip(0.0, params.Omega_max)


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
        alpha_des = extract_tilt_angles(u, alpha_prev)
        delta = wrap_angle(alpha_des - alpha_prev)

        k_t = 0.0
        k_alpha = np.zeros(6)
        F = w_des[:3]
        F_norm = np.linalg.norm(F)
        sp = self.sing_params
        if sp is not None and F_norm >= 1e-6 * params.m * params.g_mag:
            F_dir = F / F_norm
            k_t = tilt_bias_multiplier(z_misalignment(F_dir), sp)
            delta = apply_tilt_bias(delta, k_t, sp)
            k_alpha = damping_multiplier(arm_alignment(F_dir, ARMS, params), sp)
            delta = apply_damping_and_unwind(delta, k_alpha, alpha_prev, sp, dt)

        limit = params.alpha_dot_max * dt
        alpha_cmd = alpha_prev + delta.clip(-limit, limit)
        Omega_cmd = extract_rotor_speeds(u, alpha_cmd, params)
        return ActuatorCommand(alpha_cmd=alpha_cmd, Omega_cmd=Omega_cmd,
                               alpha_des=alpha_des, k_t=k_t, k_alpha=k_alpha)

