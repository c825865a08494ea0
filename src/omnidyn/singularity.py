"""Singularity handling for the tilt-arm allocation.

Three mechanisms keep the actuator map well conditioned and the tilt
commands bounded when the desired force direction approaches a
degenerate geometry:

* tilt bias: when the force comes within phi_t of the body z-axis or the
  body z-plane, arms are biased apart by the alternating offsets BIAS so
  the instantaneous allocation matrix keeps full rank;
* tilt damping: when the force aligns with an arm line, that arm's
  extracted tilt angle becomes ill defined and its commanded velocity is
  quadratically damped to zero (the arm freezes);
* unwinding: a frozen arm is slowly driven back toward zero tilt so the
  internal cabling does not wind up.

The derivative-level allocation matrix used for analysis lives here too.

The handlers take the finite tilt steps and angles of an allocation that
passed its finiteness rule (omnidyn.allocation), and run on Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .mathcore import angle_between, row_angles
from .vehicle import ARM, SINGULAR_LINES, SINGULAR_NORMS, VehicleParams, build_A_alpha, store_floats

# Per-arm bias directions, alternating -1, +1 (read-only).
BIAS = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
BIAS.flags.writeable = False


@dataclass(frozen=True)
class SingularityParams:
    """Thresholds and rates for the singularity handlers.

    phi_0: arm-alignment angle below which the tilt freezes, rad
    phi_d: arm-alignment angle above which damping is inactive, rad
    phi_t: z-misalignment angle below which tilt bias activates, rad
    c_t: full-bias tilt offset magnitude, rad
    omega_u: unwinding rate for frozen arms, rad/s

    The fields are stored as Python floats (see vehicle.store_floats); the
    block is frozen, so no assignment after construction can skip that or the
    checks. b, the per-arm bias directions, is the shared read-only BIAS.
    """

    phi_0: float = np.deg2rad(5.0)
    phi_d: float = np.deg2rad(15.0)
    phi_t: float = np.deg2rad(10.0)
    c_t: float = np.deg2rad(10.0)
    omega_u: float = 8.0
    b: ClassVar[np.ndarray] = BIAS

    def __post_init__(self):
        store_floats(self, ("phi_0", "phi_d", "phi_t", "c_t", "omega_u"),
                     "singularity parameters must be finite")
        if not (0.0 < self.phi_0 < self.phi_d):
            raise ValueError("need 0 < phi_0 < phi_d")
        if self.phi_t <= 0.0 or self.c_t <= 0.0:
            raise ValueError("phi_t and c_t must be positive")
        if self.omega_u < 0.0:
            raise ValueError("omega_u must be nonnegative")


def _nearest_z_family(to_z, to_minus_z):
    """The smaller of the angles to +z, to -z and to the z-plane."""
    return min(to_z, to_minus_z, abs(np.pi / 2.0 - to_z))


def z_misalignment(F_dir):
    """Angle of a unit force direction to the nearer of the body z-axis
    (either sign) and the body z-plane. Ranges over [0, pi/4].

    One row_angles call over +z and -z (rows 0-1 of SINGULAR_LINES) gives
    the bits of angle_between(F_dir, Z_AXIS) and of its call with -Z_AXIS.
    """
    to_z, to_minus_z = row_angles(F_dir, SINGULAR_LINES[:2], SINGULAR_NORMS[:2]).tolist()
    return _nearest_z_family(to_z, to_minus_z)


def tilt_bias_multiplier(phi, params: SingularityParams):
    """Bias activation k_t: 1 at phi = 0, quadratic falloff, 0 beyond phi_t."""
    if phi >= params.phi_t:
        return 0.0
    return float((1.0 - phi / params.phi_t) ** 2)


def apply_tilt_bias(delta_alpha, k_t, params: SingularityParams):
    """Add the alternating bias offsets k_t * BIAS_i * c_t to each arm's tilt step.

    Python floats in, a list of floats out; each offset is formed in the
    order numpy's k_t * b * c_t takes.
    """
    c_t = params.c_t
    return [d + k_t * b * c_t for d, b in zip(delta_alpha, BIAS.tolist())]


def arm_alignment(F_dir, arm_index, params: VehicleParams):
    """Angle of a unit force direction to the line of arm arm_index.

    The line runs along (cos gamma_i, sin gamma_i, 0); alignment with
    either end counts, so the result lies in [0, pi/2]. An array of arm
    indices gives one angle per arm.
    """
    axis = params.arm_axes[arm_index]
    return np.minimum(angle_between(F_dir, axis), angle_between(F_dir, -axis))


def singular_angles(F_dir, params: VehicleParams):
    """(z_misalignment(F_dir), arm_alignment(F_dir, arange(6), params)) from
    one row_angles call over params.singular_lines with the stored
    params.singular_norms, as floats and a list of six floats.

    The rows are the vectors the two functions use, with the same signed
    zeros, and stacked rows give each angle bit for bit, so both results
    equal theirs. The angles lie in [0, pi] and are never -0.0, so min
    picks what np.minimum picks.
    """
    angles = row_angles(F_dir, params.singular_lines, params.singular_norms).tolist()
    return (_nearest_z_family(angles[0], angles[1]),
            [min(a, b) for a, b in zip(angles[2:8], angles[8:])])


def damping_multiplier(eta, params: SingularityParams):
    """Damping gain k_alpha: 1 (frozen) up to phi_0, quadratic ramp to 0 at phi_d.

    One angle gives a float; a sequence of angles gives a list with one
    gain per angle. The ramp is clipped to [0, 1] and squared through pow,
    as np.float_power does, so the gains are those of the array formula
    bit for bit.
    """
    phi_0, span = params.phi_0, params.phi_d - params.phi_0
    scalar = isinstance(eta, (float, int, np.number))
    gains = []
    for e in (eta,) if scalar else eta:
        ramp = 1.0 - (e - phi_0) / span
        gains.append((0.0 if ramp < 0.0 else 1.0 if ramp > 1.0 else ramp) ** 2.0)
    return float(gains[0]) if scalar else gains


def apply_damping_and_unwind(delta_alpha_tilde, k_alpha, alpha_prev, params: SingularityParams, dt):
    """Damp each arm's tilt step by (1 - k_alpha) and unwind frozen arms.

    The unwinding term moves a damped arm toward zero tilt at rate
    k_alpha * omega_u. If that term alone would push the angle past
    zero, the angle is clamped to exactly zero instead of oscillating.
    Takes sequences of six floats and returns the final tilt steps
    delta_alpha_star as a list, with the bits of the array formula

        unwind = -sign(alpha_prev) * k_alpha * omega_u * dt
        base = alpha_prev + delta_alpha_tilde * (1 - k_alpha)
        crossing = sign(base) == sign(alpha_prev) & |unwind| >= |base| & alpha_prev != 0
        delta_alpha_star = where(crossing, 0, base + unwind) - alpha_prev
    """
    omega_u = params.omega_u
    steps = []
    for d, k, prev in zip(delta_alpha_tilde, k_alpha, alpha_prev):
        sign = 1.0 if prev > 0.0 else -1.0 if prev < 0.0 else 0.0
        unwind = -sign * k * omega_u * dt
        base = prev + d * (1.0 - k)
        # Equal signs with prev != 0: both positive or both negative.
        same_side = base > 0.0 if prev > 0.0 else base < 0.0 if prev < 0.0 else False
        crossing = same_side and abs(unwind) >= abs(base)
        steps.append((0.0 if crossing else base + unwind) - prev)
    return steps


def derivative_allocation(params: VehicleParams, alpha, Omega):
    """Rate-level allocation matrix [A_alpha | B], 6x18.

    Maps stacked rates (Omega_dot[12], alpha_dot[6]) to the body wrench
    rate. Column i of the right 6x6 block is the sum over arm i's two
    rotors of d(wrench column)/d(alpha_i) scaled by the rotor's current
    Omega, so the block vanishes when the rotors are stopped.
    """
    alpha = np.asarray(alpha, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    dA = params.sin_cols * np.cos(alpha[ARM]) - params.cos_cols * np.sin(alpha[ARM])
    # Columns j and j + 6 belong to arm j: sum each arm's rotor pair.
    B = (dA * Omega).reshape(6, 2, 6).sum(axis=1)
    return np.hstack([build_A_alpha(params, alpha), B])
