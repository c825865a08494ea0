"""Offline vehicle characterization sweeps.

Force/torque envelopes, condition-number maps of the instantaneous
allocation matrix (with and without tilt bias), and hover efficiency
metrics, all evaluated over deterministic direction sets: a fixed list
of canonical directions first, then Fibonacci-sphere samples.
"""

from __future__ import annotations

import numpy as np

from .allocation import Allocator, build_A_alpha, extract_rotor_speeds, extract_tilt_angles
from .singularity import SingularityParams, apply_tilt_bias, tilt_bias_multiplier, z_misalignment
from .vehicle import VehicleParams


def fibonacci_sphere(n):
    """n near-uniform unit directions, deterministic in n."""
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _with_canonical(canonical, n):
    canonical = np.asarray(canonical, dtype=float)
    if n <= len(canonical):
        return canonical[:n]
    return np.vstack([canonical, fibonacci_sphere(n - len(canonical))])


def envelope_directions(n):
    """Axis-aligned directions first, then Fibonacci samples; n rows."""
    canonical = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return _with_canonical(canonical, n)


def condmap_directions(n):
    """Both z poles and 12 in-plane azimuths first, then Fibonacci samples.

    The in-plane azimuths sit midway between the arm-axis grid (15
    degrees plus multiples of 30). Exactly on an arm axis the aligned
    pair's extraction degenerates and holds zero tilt, which restores
    full rank; the offset azimuths show the generic in-plane rank loss.
    """
    canonical = [[0, 0, 1], [0, 0, -1]]
    for k in range(12):
        az = np.pi / 12.0 + k * np.pi / 6.0
        canonical.append([np.cos(az), np.sin(az), 0.0])
    return _with_canonical(canonical, n)


def efficiency_directions(n):
    """Both z poles and the six arm axes first, then Fibonacci samples."""
    canonical = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    for k in range(6):
        az = k * np.pi / 3.0
        canonical.append([np.cos(az), np.sin(az), 0.0])
    return _with_canonical(canonical, n)


def static_allocation(w_des, allocator: Allocator):
    """Converged actuator state for a constant wrench: (alpha, Omega, u).

    Solves the minimum-norm allocation and extracts tilt angles with no
    rate limiting (degenerate arms hold zero). When the allocator carries
    singularity params, the converged tilt-bias offsets are added before
    the rotor speeds are projected, as Allocator.allocate does.
    """
    params = allocator.params
    w_des = np.asarray(w_des, dtype=float)
    u = params.A_pinv @ w_des
    alpha = extract_tilt_angles(u, np.zeros(6))
    sp = allocator.sing_params
    if sp is not None:
        F = w_des[:3]
        F_norm = np.linalg.norm(F)
        if F_norm > 0.0:
            alpha = apply_tilt_bias(alpha, tilt_bias_multiplier(z_misalignment(F / F_norm), sp), sp)
    Omega = extract_rotor_speeds(u, alpha, params)
    return alpha, Omega, u


def _envelope(params, n_dirs, torque):
    allocator = Allocator(params)
    dirs = envelope_directions(n_dirs)
    zero = np.zeros_like(dirs)
    wrenches = np.hstack([zero, dirs] if torque else [dirs, zero])
    peak = np.array([np.max(static_allocation(w, allocator)[1]) for w in wrenches])
    # Extraction is homogeneous in the wrench magnitude at fixed direction,
    # so the largest feasible scale hits Omega_max exactly.
    radius = np.divide(params.Omega_max, peak, out=np.zeros(len(dirs)), where=peak > 0.0)
    return dirs, radius


def force_envelope(params: VehicleParams, n_dirs=2000):
    """(dirs, radius): largest force magnitude per direction with zero torque, N."""
    return _envelope(params, n_dirs, torque=False)


def torque_envelope(params: VehicleParams, n_dirs=2000):
    """(dirs, radius): largest torque magnitude per direction with zero force, N m."""
    return _envelope(params, n_dirs, torque=True)


def condition_map(params: VehicleParams, n_dirs=2000, sing_params: SingularityParams | None = None):
    """(dirs, log10_cond) of the instantaneous allocation matrix.

    Evaluated at the converged tilt angles for a unit force request in
    each direction, tilt-biased when sing_params is given. Rank-deficient
    matrices report +inf.
    """
    allocator = Allocator(params, sing_params)
    dirs = condmap_directions(n_dirs)

    def log10_cond(w):
        alpha, _, _ = static_allocation(w, allocator)
        svals = np.linalg.svd(build_A_alpha(params, alpha), compute_uv=False)
        tol = svals[0] * 12 * np.finfo(float).eps
        if svals[-1] <= tol:
            return np.inf
        return np.log10(svals[0] / svals[-1])

    wrenches = np.hstack([dirs, np.zeros_like(dirs)])
    return dirs, np.array([log10_cond(w) for w in wrenches])


def wasted_force_index(rotor_thrusts, F_b):
    """Ratio of delivered force magnitude to total thrust, in [0, 1]."""
    f = np.asarray(rotor_thrusts, dtype=float)
    if np.any(f < 0.0):
        raise ValueError("rotor thrusts must be nonnegative")
    total = float(np.sum(f))
    if total <= 0.0:
        raise ValueError("wasted_force_index undefined for zero total thrust")
    return min(1.0, float(np.linalg.norm(F_b) / total))


def hover_power(params: VehicleParams):
    """Model power of level hover: twelve equal thrusts carrying the weight."""
    f_h = params.m * params.g_mag / 12.0
    return 12.0 * f_h**1.5


def power_efficiency(rotor_thrusts, params: VehicleParams):
    """(total_power, eta_P) under the P proportional to f^(3/2) rotor model.

    eta_P normalizes against level hover of the same vehicle weight, so
    level hover itself scores exactly 1.
    """
    f = np.asarray(rotor_thrusts, dtype=float)
    if np.any(f < 0.0):
        raise ValueError("rotor thrusts must be nonnegative")
    total_power = float(np.sum(f**1.5))
    if total_power == 0.0:
        return 0.0, 0.0
    return total_power, min(1.0, hover_power(params) / total_power)


def hover_sweep(params: VehicleParams, n_orientations=2000):
    """(dirs, eta_P, eta_f, total_power) of hovering with the weight along
    each body direction.

    For each direction d the wrench [m g d; 0] is allocated (unbiased,
    converged) and the wasted-force and power-efficiency indices are
    computed from the resulting rotor thrusts.
    """
    allocator = Allocator(params)
    dirs = efficiency_directions(n_orientations)

    def indices(w):
        alpha, Omega, _ = static_allocation(w, allocator)
        thrusts = params.c_f * Omega
        F_b = build_A_alpha(params, alpha) @ Omega
        total_power, eta_P = power_efficiency(thrusts, params)
        return eta_P, wasted_force_index(thrusts, F_b[:3]), total_power

    wrenches = np.hstack([params.m * params.g_mag * dirs, np.zeros_like(dirs)])
    eta_P, eta_f, total_power = np.array([indices(w) for w in wrenches]).T
    return dirs, eta_P, eta_f, total_power
