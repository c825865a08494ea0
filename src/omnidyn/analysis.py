"""Offline vehicle characterization sweeps.

Force/torque envelopes, condition-number maps of the instantaneous
allocation matrix (with and without tilt bias), and hover efficiency
metrics, all evaluated over deterministic direction sets: a fixed list
of canonical directions first, then Fibonacci-sphere samples.

Every sweep runs through one direction loop, _static_blocks: it takes the
directions and the wrench layout, builds the sweep's one Allocator and each
block's wrenches, calls static_allocation once per direction (the benchmark
stamps each call as one step of a sweep) and yields the tilt angles and
rotor speeds of each block of BLOCK_DIRS directions. static_allocation runs
on Python floats, with numpy where its kernel sets the bits (A^+ w through
ndarray.dot, np.hypot and np.arctan2 of the tilt extraction, np.arccos in
the z angle of the biased map). Each sweep's body runs stacked over a block:
- the envelope peak is the max of each row of the speeds;
- the condition map takes log10_cond of the block's build_A_alpha: one
  np.linalg.svd and one np.log10 of the stack;
- the efficiency sweep forms F_b = A_alpha Omega as one stacked matmul
  and computes both indices in one call each (f**1.5 and the thrust sums
  reduce each row as numpy reduces one direction's array).
Each stacked form gives the bytes of its per-direction call. Only the
directions and the outputs span the sweep; all else is bounded by a block.

static_allocation follows the allocation's finiteness rule: a wrench whose
A^+ w is not finite raises FloatingPointError, so the sweeps only ever see
finite speeds.
"""

from __future__ import annotations

import numpy as np

from .allocation import Allocator, rotor_speeds, solve_and_gate, tilt_angles
from .singularity import SingularityParams, apply_tilt_bias, tilt_bias_multiplier, z_misalignment
from .vehicle import VehicleParams, build_A_alpha

# The sweeps no longer call these; they stay bound because perfbench/tracer.py
# looks them up in this module.
from .allocation import extract_rotor_speeds, extract_tilt_angles  # noqa: F401

# The condition map treats A_alpha as rank deficient when its smallest singular
# value is at most 12 EPS times the largest.
EPS = float(np.finfo(float).eps)
ZERO_TILT = (0.0,) * 6
# Directions per block of the stacked work that follows static_allocation.
BLOCK_DIRS = 128


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
    the rotor speeds are projected, as Allocator.allocate does, for the
    forces that allocation.force_direction gives a direction. Runs the
    allocation's float steps (tilt_angles, apply_tilt_bias, rotor_speeds)
    and returns ndarrays. Raises FloatingPointError when A^+ w is not finite.
    """
    params = allocator.params
    w_des = np.asarray(w_des, dtype=float)
    sp = allocator.sing_params
    u, F_dir = solve_and_gate(w_des, params, sp)
    u_list = u.tolist()
    alpha = tilt_angles(u_list, ZERO_TILT)
    if F_dir is not None:
        alpha = apply_tilt_bias(alpha, tilt_bias_multiplier(z_misalignment(F_dir), sp), sp)
    return np.array(alpha), np.array(rotor_speeds(u_list, alpha, params.Omega_max)), u


def _static_blocks(params, dirs, sing_params=None, first=0, scale=1.0):
    """The sweeps' one direction loop, over the sweep's one Allocator. Each
    block of BLOCK_DIRS directions d gets wrenches with scale * d in rows
    first to first + 3 and zeros elsewhere; static_allocation, looked up as
    this module's global, runs once per wrench in order. Yields (block,
    alpha (k, 6), Omega (k, 12)) per block."""
    allocator = Allocator(params, sing_params)
    for start in range(0, len(dirs), BLOCK_DIRS):
        block = slice(start, start + BLOCK_DIRS)
        wrenches = np.zeros((len(dirs[block]), 6))
        wrenches[:, first:first + 3] = scale * dirs[block]
        alpha, Omega = zip(*(static_allocation(w, allocator)[:2] for w in wrenches))
        yield block, np.array(alpha), np.array(Omega)


def _envelope(params, n_dirs, torque):
    dirs = envelope_directions(n_dirs)
    peak = np.empty(len(dirs))
    for block, _, Omega in _static_blocks(params, dirs, first=3 if torque else 0):
        peak[block] = Omega.max(axis=-1)
    # Extraction is homogeneous in the wrench magnitude at fixed direction,
    # so the largest feasible scale hits Omega_max exactly.
    radius = np.divide(params.Omega_max, peak, out=np.zeros(len(dirs)), where=peak > 0.0)
    return dirs, radius


def force_envelope(params: VehicleParams, n_dirs):
    """(dirs, radius): largest force magnitude per direction with zero torque, N."""
    return _envelope(params, n_dirs, torque=False)


def torque_envelope(params: VehicleParams, n_dirs):
    """(dirs, radius): largest torque magnitude per direction with zero force, N m."""
    return _envelope(params, n_dirs, torque=True)


def log10_cond(A):
    """log10 of the 2-norm condition number of each matrix of A, shape
    (..., 6, 12), as an ndarray of shape A.shape[:-2] (0-d for one matrix).

    +inf where a matrix is rank deficient: its smallest singular value is
    at most s_max * 12 * EPS, in that order. One np.linalg.svd call takes
    the whole stack, and each value has the bytes of its own matrix's call.
    """
    svals = np.linalg.svd(A, compute_uv=False)
    s_max, s_min = svals[..., 0], svals[..., -1]
    # The rank-deficient rows divide by zero or overflow; np.where drops them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.log10(s_max / s_min)
    return np.where(s_min <= s_max * 12 * EPS, np.inf, value)


def condition_map(params: VehicleParams, n_dirs, sing_params: SingularityParams | None = None):
    """(dirs, log10_cond) of the instantaneous allocation matrix.

    Evaluated at the converged tilt angles for a unit force request in
    each direction, tilt-biased when sing_params is given. Rank-deficient
    matrices report +inf.
    """
    dirs = condmap_directions(n_dirs)
    values = np.empty(len(dirs))
    for block, alpha, _ in _static_blocks(params, dirs, sing_params):
        values[block] = log10_cond(build_A_alpha(params, alpha))
    return dirs, values


def wasted_force_index(rotor_thrusts, F_b):
    """Ratio of delivered force magnitude to total thrust, in [0, 1].

    rotor_thrusts has shape (..., 12) and F_b shape (..., 3); the result
    is an ndarray of their leading shape (0-d for one direction). Raises
    ValueError when any thrust is negative or any row's total thrust is 0.
    """
    f = np.asarray(rotor_thrusts, dtype=float)
    if (f < 0.0).any():
        raise ValueError("rotor thrusts must be nonnegative")
    total = f.sum(axis=-1)
    if (total <= 0.0).any():
        raise ValueError("wasted_force_index undefined for zero total thrust")
    F_b = np.asarray(F_b, dtype=float)
    # np.linalg.norm of a row is the square root of its dot product, the
    # BLAS dot that np.vecdot calls per row.
    ratio = np.sqrt(np.vecdot(F_b, F_b)) / total
    # min(1.0, ratio) per row; a NaN ratio gives 1.0, as min does.
    return np.where(ratio < 1.0, ratio, 1.0)


def hover_power(params: VehicleParams):
    """Model power of level hover: twelve equal thrusts carrying the weight."""
    f_h = params.m * params.g_mag / 12.0
    return 12.0 * f_h**1.5


def power_efficiency(rotor_thrusts, params: VehicleParams):
    """(total_power, eta_P) under the P proportional to f^(3/2) rotor model.

    eta_P normalizes against level hover of the same vehicle weight, so
    level hover itself scores exactly 1. rotor_thrusts has shape (..., 12);
    both results are ndarrays of its leading shape (0-d for one direction).
    Any negative thrust raises ValueError; a row whose total power is 0
    gives (0, 0).
    """
    f = np.asarray(rotor_thrusts, dtype=float)
    if (f < 0.0).any():
        raise ValueError("rotor thrusts must be nonnegative")
    total_power = (f**1.5).sum(axis=-1)
    ratio = np.divide(hover_power(params), total_power, out=np.zeros_like(total_power),
                      where=total_power != 0.0)
    # min(1.0, ratio) per row; a NaN total gives 1.0, as min does.
    return total_power, np.where(ratio < 1.0, ratio, 1.0)


def hover_sweep(params: VehicleParams, n_dirs):
    """(dirs, eta_P, eta_f, total_power) of hovering with the weight along
    each body direction.

    For each direction d the wrench [m g d; 0] is allocated (unbiased,
    converged) and the wasted-force and power-efficiency indices are
    computed from the resulting rotor thrusts.
    """
    dirs = efficiency_directions(n_dirs)
    eta_P, eta_f, total_power = np.empty((3, len(dirs)))
    for block, alpha, Omega in _static_blocks(params, dirs, scale=params.m * params.g_mag):
        # The force rows of A_alpha Omega, one stacked matmul of the block.
        F_b = (build_A_alpha(params, alpha) @ Omega[..., None])[:, :3, 0]
        thrusts = params.c_f * Omega
        total_power[block], eta_P[block] = power_efficiency(thrusts, params)
        eta_f[block] = wasted_force_index(thrusts, F_b)
    return dirs, eta_P, eta_f, total_power
