"""The numpy array formulas that the closed-loop layers and the static sweeps
computed before they moved to Python floats, kept as references for the
bit-for-bit tests.

Each function is the formula as the package wrote it, with numpy doing every
elementwise step; the tests compare the package's float code against these
with same_bits, which compares float64 bytes, so signed zeros count.
"""

import math

import numpy as np


def same_bits(got, want):
    """Equal float64 bytes, signed zeros included, except that a NaN matches
    any NaN: the sign of a NaN made from two NaN operands depends on the
    operand order the compiler picks for a commutative add or multiply, in
    numpy's loops as in the interpreter's float arithmetic."""
    got, want = np.atleast_1d(np.asarray(got, dtype=float)), np.atleast_1d(np.asarray(want, dtype=float))
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def errors(state, sp):
    """compute_errors, vee included: (e_p, e_v, e_R, e_omega)."""
    M = sp.R_sp.T @ state.R - state.R.T @ sp.R_sp
    if np.abs(M + M.T).max() > 1e-9:
        raise ValueError("vee: input is not skew-symmetric")
    return (state.x - sp.x_sp, state.v - sp.v_sp, 0.5 * np.array([M[2, 1], M[0, 2], M[1, 0]]),
            state.omega_b - state.R.T @ sp.R_sp @ sp.omega_sp)


def wrench(errors, state, sp, gains, params):
    """control_wrench: (F, tau). np.cross has controller._cross's bits."""
    e_p, e_v, e_R, e_omega = errors
    g_vec = np.array([0.0, 0.0, params.g_mag])
    a_cmd = -gains.k_p * e_p - gains.k_v * e_v + sp.a_sp + g_vec
    F_d = params.m * (state.R.T @ a_cmd + np.cross(state.omega_b, state.R.T @ state.v))
    J = params.J_b.diagonal()
    tau_d = (params.J_b @ (-gains.k_R * e_R - gains.k_omega * e_omega)
             + np.cross(state.omega_b, J * state.omega_b) + np.cross(params.x_com, F_d))
    return F_d, tau_d


def angle_between(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na, nb = np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b))
    if na == 0.0 or (nb == 0.0).any():
        raise ValueError("angle_between: zero-length vector has no direction")
    return np.arccos((np.vecdot(b, a) / (na * nb)).clip(-1.0, 1.0))


def singular_angles(F_dir, params):
    angles = angle_between(F_dir, params.singular_lines)
    to_z, to_minus_z = angles[0], angles[1]
    return min(to_z, to_minus_z, abs(np.pi / 2.0 - to_z)), np.minimum(angles[2:8], angles[8:])


def tilt_bias_multiplier(phi, sp):
    return 0.0 if phi >= sp.phi_t else float((1.0 - phi / sp.phi_t) ** 2)


def apply_tilt_bias(delta, k_t, sp):
    return np.asarray(delta, dtype=float) + k_t * sp.b * sp.c_t


def damping_multiplier(eta, sp):
    ramp = 1.0 - (np.asarray(eta) - sp.phi_0) / (sp.phi_d - sp.phi_0)
    return np.float_power(ramp.clip(0.0, 1.0), 2.0)


def apply_damping_and_unwind(delta, k_alpha, alpha_prev, sp, dt):
    delta, k_alpha, alpha_prev = (np.asarray(a, dtype=float) for a in (delta, k_alpha, alpha_prev))
    damped = delta * (1.0 - k_alpha)
    unwind = -np.sign(alpha_prev) * k_alpha * sp.omega_u * dt
    base = alpha_prev + damped
    crossing = (np.sign(base) == np.sign(alpha_prev)) & (np.abs(unwind) >= np.abs(base)) & (alpha_prev != 0.0)
    return np.where(crossing, 0.0, base + unwind) - alpha_prev


def wrap_angle(theta):
    w = (theta + np.pi) % (2.0 * np.pi) - np.pi
    w[w == -np.pi] = np.pi
    return w


def extract_tilt_angles(u, alpha_prev):
    S = u[0::4] + u[2::4]
    C = u[1::4] + u[3::4]
    mag = np.hypot(S, C)
    return np.where(mag <= 1e-9 * mag.max(), alpha_prev, np.arctan2(S, C))


def extract_rotor_speeds(u, alpha, params):
    u = np.asarray(u, dtype=float).reshape(6, 4)
    alpha = np.asarray(alpha, dtype=float)[:, None]
    return (np.sin(alpha) * u[:, 0::2] + np.cos(alpha) * u[:, 1::2]).T.ravel().clip(0.0, params.Omega_max)


def allocate(params, sp, w_des, alpha_prev, dt):
    """Allocator.allocate: (alpha_cmd, Omega_cmd, alpha_des, k_t, k_alpha)."""
    u = params.A_pinv @ w_des
    alpha_des = extract_tilt_angles(u, alpha_prev)
    delta = wrap_angle(alpha_des - alpha_prev)
    k_t, k_alpha = 0.0, np.zeros(6)
    F = w_des[:3]
    F_norm = np.linalg.norm(F)
    if sp is not None and 1e-6 * params.m * params.g_mag <= F_norm < np.inf:
        phi_z, eta = singular_angles(F / F_norm, params)
        k_t = tilt_bias_multiplier(phi_z, sp)
        delta = apply_tilt_bias(delta, k_t, sp)
        k_alpha = damping_multiplier(eta, sp)
        delta = apply_damping_and_unwind(delta, k_alpha, alpha_prev, sp, dt)
    limit = params.alpha_dot_max * dt
    alpha_cmd = alpha_prev + delta.clip(-limit, limit)
    return alpha_cmd, extract_rotor_speeds(u, alpha_cmd, params), alpha_des, k_t, k_alpha


def z_misalignment(F_dir):
    """z_misalignment from two single-vector angle_between calls."""
    z = np.array([0.0, 0.0, 1.0])
    to_z, to_minus_z = angle_between(F_dir, z), angle_between(F_dir, -z)
    return min(to_z, to_minus_z, abs(np.pi / 2.0 - to_z))


def build_A_alpha(params, alpha):
    alpha = np.asarray(alpha, dtype=float)[np.arange(12) % 6]
    return params.sin_cols * np.sin(alpha) + params.cos_cols * np.cos(alpha)


def static_allocation(params, sp, w_des):
    """analysis.static_allocation: (alpha, Omega, u). The handlers are gated
    as in allocate."""
    w_des = np.asarray(w_des, dtype=float)
    u = params.A_pinv @ w_des
    alpha = extract_tilt_angles(u, np.zeros(6))
    F = w_des[:3]
    F_norm = np.linalg.norm(F)
    if sp is not None and 1e-6 * params.m * params.g_mag <= F_norm < np.inf:
        alpha = apply_tilt_bias(alpha, tilt_bias_multiplier(z_misalignment(F / F_norm), sp), sp)
    return alpha, extract_rotor_speeds(u, alpha, params), u


def envelope_radius(params, wrenches):
    """The envelope radius per wrench from np.max of the converged speeds."""
    peak = np.array([np.max(static_allocation(params, None, w)[1]) for w in wrenches])
    return np.divide(params.Omega_max, peak, out=np.zeros(len(peak)), where=peak > 0.0)


def log10_cond(A):
    """The condition map's value of one allocation matrix."""
    svals = np.linalg.svd(A, compute_uv=False)
    tol = svals[0] * 12 * np.finfo(float).eps
    if svals[-1] <= tol:
        return np.inf
    return np.log10(svals[0] / svals[-1])


def wasted_force_index(rotor_thrusts, F_b):
    f = np.asarray(rotor_thrusts, dtype=float)
    if np.any(f < 0.0):
        raise ValueError("rotor thrusts must be nonnegative")
    total = float(np.sum(f))
    if total <= 0.0:
        raise ValueError("wasted_force_index undefined for zero total thrust")
    return min(1.0, float(np.linalg.norm(F_b) / total))


def power_efficiency(rotor_thrusts, params):
    f = np.asarray(rotor_thrusts, dtype=float)
    if np.any(f < 0.0):
        raise ValueError("rotor thrusts must be nonnegative")
    total_power = float(np.sum(f**1.5))
    if total_power == 0.0:
        return 0.0, 0.0
    f_h = params.m * params.g_mag / 12.0
    return total_power, min(1.0, 12.0 * f_h**1.5 / total_power)


def hover_indices(params, w):
    """hover_sweep's (eta_P, eta_f, total_power) of one wrench."""
    alpha, Omega, _ = static_allocation(params, None, w)
    thrusts = params.c_f * Omega
    F_b = build_A_alpha(params, alpha) @ Omega
    total_power, eta_P = power_efficiency(thrusts, params)
    return eta_P, wasted_force_index(thrusts, F_b[:3]), total_power


def quintic_blend(t, T):
    sigma = np.clip(t / T, 0.0, 1.0)
    s = sigma**3 * (10.0 - 15.0 * sigma + 6.0 * sigma**2)
    s_dot = 30.0 * sigma**2 * (1.0 - sigma) ** 2 / T
    s_ddot = 60.0 * sigma * (1.0 - 3.0 * sigma + 2.0 * sigma**2) / T**2
    return s, s_dot, s_ddot


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _exp_coefficients(t0, t1, t2):
    n2 = t0 * t0 + t1 * t1 + t2 * t2
    if not math.isfinite(n2):
        raise RuntimeError("integration step produced non-finite state")
    if n2 < 1e-12:
        return 1.0 - n2 / 6.0, 0.5 - n2 / 24.0
    n = math.sqrt(n2)
    s = math.sin(0.5 * n) / (0.5 * n)
    return math.sin(n) / n, 0.5 * s * s


def _stage(R, f, g_mag, tau, J, w, t):
    """One RKMK4 stage as a function of its own, as integrate_step called it."""
    t0, t1, t2 = t
    a, b = _exp_coefficients(t0, t1, t2)
    f0, f1, f2 = f
    c0, c1, c2 = t1 * f2 - t2 * f1, t2 * f0 - t0 * f2, t0 * f1 - t1 * f0
    d0, d1, d2 = t1 * c2 - t2 * c1, t2 * c0 - t0 * c2, t0 * c1 - t1 * c0
    u0, u1, u2 = f0 + a * c0 + b * d0, f1 + a * c1 + b * d1, f2 + a * c2 + b * d2
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    acc = (r00 * u0 + r01 * u1 + r02 * u2, r10 * u0 + r11 * u1 + r12 * u2,
           r20 * u0 + r21 * u1 + r22 * u2 - g_mag)
    w0, w1, w2 = w
    c0, c1, c2 = t1 * w2 - t2 * w1, t2 * w0 - t0 * w2, t0 * w1 - t1 * w0
    d0, d1, d2 = t1 * c2 - t2 * c1, t2 * c0 - t0 * c2, t0 * c1 - t1 * c0
    K = (w0 + 0.5 * c0 + d0 / 12.0, w1 + 0.5 * c1 + d1 / 12.0, w2 + 0.5 * c2 + d2 / 12.0)
    J0, J1, J2 = J
    h0, h1, h2 = J0 * w0, J1 * w1, J2 * w2
    w_dot = ((tau[0] - (w1 * h2 - w2 * h1)) / J0, (tau[1] - (w2 * h0 - w0 * h2)) / J1,
             (tau[2] - (w0 * h1 - w1 * h0)) / J2)
    return acc, K, w_dot


def integrate_step(state, wrench, dt, params, n_steps=1):
    """integrate_step with one _stage call per stage: the 18 floats
    (x, v, R row by row, omega_b) after n_steps steps."""
    x0, x1, x2 = state.x.tolist()
    v0, v1, v2 = state.v.tolist()
    w0, w1, w2 = state.omega_b.tolist()
    R = state.R.tolist()
    m, g_mag = params.m, params.g_mag
    F0, F1, F2 = wrench.F.tolist()
    f = (F0 / m, F1 / m, F2 / m)
    tau, J = wrench.tau.tolist(), params.J_b.diagonal().tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n_steps):
        a1, K1, k1 = _stage(R, f, g_mag, tau, J, (w0, w1, w2), (0.0, 0.0, 0.0))
        a2, K2, k2 = _stage(R, f, g_mag, tau, J, (w0 + half * k1[0], w1 + half * k1[1], w2 + half * k1[2]),
                            (half * K1[0], half * K1[1], half * K1[2]))
        a3, K3, k3 = _stage(R, f, g_mag, tau, J, (w0 + half * k2[0], w1 + half * k2[1], w2 + half * k2[2]),
                            (half * K2[0], half * K2[1], half * K2[2]))
        a4, K4, k4 = _stage(R, f, g_mag, tau, J, (w0 + dt * k3[0], w1 + dt * k3[1], w2 + dt * k3[2]),
                            (dt * K3[0], dt * K3[1], dt * K3[2]))
        x0, x1, x2 = (x0 + sixth * (6.0 * v0 + dt * (a1[0] + a2[0] + a3[0])),
                      x1 + sixth * (6.0 * v1 + dt * (a1[1] + a2[1] + a3[1])),
                      x2 + sixth * (6.0 * v2 + dt * (a1[2] + a2[2] + a3[2])))
        v0, v1, v2 = (v0 + sixth * (a1[0] + 2.0 * a2[0] + 2.0 * a3[0] + a4[0]),
                      v1 + sixth * (a1[1] + 2.0 * a2[1] + 2.0 * a3[1] + a4[1]),
                      v2 + sixth * (a1[2] + 2.0 * a2[2] + 2.0 * a3[2] + a4[2]))
        w0, w1, w2 = (w0 + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                      w1 + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
                      w2 + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]))
        t0 = sixth * (K1[0] + 2.0 * K2[0] + 2.0 * K3[0] + K4[0])
        t1 = sixth * (K1[1] + 2.0 * K2[1] + 2.0 * K3[1] + K4[1])
        t2 = sixth * (K1[2] + 2.0 * K2[2] + 2.0 * K3[2] + K4[2])
        a, b = _exp_coefficients(t0, t1, t2)
        s00, s11, s22 = t0 * t0, t1 * t1, t2 * t2
        s01, s02, s12 = b * t0 * t1, b * t0 * t2, b * t1 * t2
        E = ((1.0 - b * (s11 + s22), s01 - a * t2, s02 + a * t1),
             (s01 + a * t2, 1.0 - b * (s00 + s22), s12 - a * t0),
             (s02 - a * t1, s12 + a * t0, 1.0 - b * (s00 + s11)))
        R = tuple(tuple(r[0] * E[0][j] + r[1] * E[1][j] + r[2] * E[2][j] for j in range(3)) for r in R)
        if not all(map(math.isfinite, (x0, x1, x2, v0, v1, v2, w0, w1, w2, *R[0], *R[1], *R[2]))):
            raise RuntimeError("integration step produced non-finite state")
    return np.array([x0, x1, x2, v0, v1, v2, *R[0], *R[1], *R[2], w0, w1, w2])
