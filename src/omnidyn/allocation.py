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

Finiteness has one rule, in tilt_angles: a rotor-pair magnitude of A^+ w
that is not finite (an inf or NaN wrench, or a u that overflows) raises
FloatingPointError, so every later step works on finite floats.
solve_and_gate forms A^+ w and the force norm without numpy's overflow
warnings, so the rule, not a warning, reports such a wrench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import wrap_angle
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
from .vehicle import ALLOCATION_HEADROOM, VehicleParams, build_A_alpha, rotor_columns

# Pair magnitudes below this fraction of the largest arm's are treated as
# zero in the tilt-angle extraction (the angle is no longer informative).
DEGENERATE_REL_TOL = 1e-9
# VehicleParams keeps A^+ w of a wrench with entries up to max(m g, 1) >= 1
# ALLOCATION_HEADROOM below the largest float, so entries below a tenth of
# the headroom overflow neither A^+ w nor |F|^2, and solve_and_gate skips
# np.errstate for them (about 1 us a call).
QUIET_WRENCH = 0.1 * ALLOCATION_HEADROOM


def tilt_angles(u, alpha_prev):
    """extract_tilt_angles on Python floats: u as 24 floats, alpha_prev as 6;
    returns a list of six angles.

    Raises FloatingPointError when a rotor-pair magnitude is not finite. The
    pair sums and the threshold and hold run on floats; np.hypot and
    np.arctan2 stay in numpy (math.hypot and math.atan2 round differently).
    """
    S = np.array([u[0] + u[2], u[4] + u[6], u[8] + u[10], u[12] + u[14], u[16] + u[18], u[20] + u[22]])
    C = np.array([u[1] + u[3], u[5] + u[7], u[9] + u[11], u[13] + u[15], u[17] + u[19], u[21] + u[23]])
    mag = np.hypot(S, C).tolist()
    if not all(map(math.isfinite, mag)):
        raise FloatingPointError("allocation is not finite: a rotor pair of A^+ w is inf or NaN")
    alpha_des = np.arctan2(S, C).tolist()
    thr = DEGENERATE_REL_TOL * max(mag)
    if min(mag) > thr:  # no arm holds
        return alpha_des
    return [prev if m <= thr else a for prev, m, a in zip(alpha_prev, mag, alpha_des)]


def extract_tilt_angles(u, alpha_prev):
    """One tilt angle per arm from the summed sin/cos products of its rotor pair.

    Arms whose summed pair is degenerate (zero magnitude relative to the
    largest arm) hold their previous angle. Computed by tilt_angles;
    returns an ndarray.
    """
    return np.array(tilt_angles(np.asarray(u, dtype=float).tolist(), alpha_prev), dtype=float)


def rotor_speeds(u, alpha, Omega_max):
    """extract_rotor_speeds on Python floats: u as 24 floats, alpha as 6;
    returns a list of twelve speeds."""
    hi = Omega_max
    upper, lower = [], []
    for a, s_up, c_up, s_lo, c_lo in zip(alpha, u[0::4], u[1::4], u[2::4], u[3::4]):
        s, c = math.sin(a), math.cos(a)
        # The clamp of ndarray.clip, which keeps a -0.0 projection.
        w = s * s_up + c * c_up
        upper.append(0.0 if w < 0.0 else hi if w > hi else w)
        w = s * s_lo + c * c_lo
        lower.append(0.0 if w < 0.0 else hi if w > hi else w)
    return upper + lower


def extract_rotor_speeds(u, alpha, params: VehicleParams):
    """Project each rotor's (sin, cos) products onto its arm's tilt angle.

    Negative projections mean the commanded angle points away from the
    rotor's requested thrust; those speeds clamp to zero, and all speeds
    clamp to Omega_max. Computed by rotor_speeds; returns an ndarray in
    rotor order (upper rotors 0-5, then lower rotors 6-11).
    """
    return np.array(rotor_speeds(np.asarray(u, dtype=float).tolist(), alpha, params.Omega_max))


def force_direction(F, params: VehicleParams):
    """F / |F| for a force the singularity handlers can act on, else None.

    A force below 1e-6 m g, or one whose norm overflows, has no usable
    direction. Allocator.allocate and analysis.static_allocation both gate
    their handlers on this.
    """
    # np.linalg.norm(F) is this square root of F.dot(F).
    F_norm = math.sqrt(F.dot(F))
    if 1e-6 * params.m * params.g_mag <= F_norm < math.inf:
        return F / F_norm
    return None


def solve_and_gate(w_des, params: VehicleParams, sing_params: SingularityParams | None):
    """(u, F_dir): u = A^+ w and the handlers' force direction of w
    (force_direction; None without sing_params).

    A wrench too large for either overflows without numpy's warnings: the
    rule in tilt_angles then raises for u, and an infinite norm gives no
    direction. Allocator.allocate and analysis.static_allocation both start
    with this.
    """
    # min and max return a leading NaN, which fails the test, and skip any
    # other; a NaN overflows nothing.
    w = w_des.tolist()
    if -QUIET_WRENCH < min(w) and max(w) < QUIET_WRENCH:
        return params.A_pinv.dot(w_des), None if sing_params is None else force_direction(w_des[:3], params)
    with np.errstate(over="ignore", invalid="ignore"):
        return params.A_pinv.dot(w_des), None if sing_params is None else force_direction(w_des[:3], params)


@dataclass
class ActuatorCommand:
    """Allocation output: tilt angles, rotor speeds, handler diagnostics."""

    alpha_cmd: np.ndarray
    Omega_cmd: np.ndarray
    alpha_des: np.ndarray
    k_t: float
    k_alpha: np.ndarray


class Allocator:
    """Allocation for one vehicle, with singularity handlers unless sing_params is None."""

    def __init__(self, params: VehicleParams, sing_params: SingularityParams | None = None):
        self.params = params
        self.sing_params = sing_params

    def allocate(self, w_des, alpha_prev, dt) -> ActuatorCommand:
        """Full allocation pipeline for one control tick.

        Order: pseudo-inverse solve, tilt-angle extraction, wrapped tilt
        step, tilt bias, damping and unwinding, rate limit, rotor-speed
        projection. Raises FloatingPointError when A^+ w is not finite.
        """
        params = self.params
        w_des = np.asarray(w_des, dtype=float)
        alpha_prev = np.asarray(alpha_prev, dtype=float)

        sp = self.sing_params
        u, F_dir = solve_and_gate(w_des, params, sp)
        prev = alpha_prev.tolist()
        alpha_des = extract_tilt_angles(u, prev)
        delta = [wrap_angle(a - p) for a, p in zip(alpha_des.tolist(), prev)]

        k_t = 0.0
        k_alpha = [0.0] * 6
        if F_dir is not None:
            phi_z, eta = singular_angles(F_dir, params)
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

