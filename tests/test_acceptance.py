"""Acceptance gate: one test per acceptance criterion, at stated tolerance.

Each test appends a PASS/FAIL line to the summary table (printed at the
end of the pytest run) before asserting, so a failing criterion still
reports its measured numbers.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn.allocation import (
    Allocator,
    build_A_alpha,
    extract_rotor_speeds,
    extract_tilt_angles,
)
from omnidyn.analysis import (
    condition_map,
    condmap_directions,
    force_envelope,
    hover_sweep,
    power_efficiency,
    static_allocation,
    wasted_force_index,
)
from omnidyn.controller import Gains
from omnidyn.mathcore import rotation_from_axis_angle
from omnidyn.simulation import SimConfig, simulate, tracking_summary
from omnidyn.singularity import (
    SingularityParams,
    arm_alignment,
    damping_multiplier,
    derivative_allocation,
    z_misalignment,
)
from omnidyn.trajectories import (
    make_cartwheel,
    make_flip,
    make_rotation,
    make_singular_translation,
    make_translation,
)
from omnidyn.vehicle import VehicleParams

PARAMS = VehicleParams()
SING = SingularityParams()


def report(lines, number, ok, detail):
    lines.append(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    print(lines[-1])


def converged_command(allocator, w):
    """Iterate the allocation pipeline to its fixed point for a held wrench.

    A large dt keeps the rate limit slack, so bias offsets and unwinding
    settle within a few iterations.
    """
    alpha = np.zeros(6)
    cmd = None
    for _ in range(5):
        cmd = allocator.allocate(w, alpha, 10.0)
        alpha = cmd.alpha_cmd
    return cmd


def sample_wrench(rng, allocator):
    """Random wrench inside 80% of the envelope, force direction at least
    3 degrees from the z-axis/z-plane family and from every arm line."""
    while True:
        fd = rng.normal(size=3)
        fd /= np.linalg.norm(fd)
        if np.rad2deg(z_misalignment(fd)) < 3.0:
            continue
        if min(np.rad2deg(arm_alignment(fd, i, PARAMS)) for i in range(6)) < 3.0:
            continue
        break
    td = rng.normal(size=3)
    td /= np.linalg.norm(td)
    mix = rng.uniform(0.0, np.pi / 2.0)
    w_dir = np.concatenate([np.cos(mix) * fd, np.sin(mix) * td])
    w_dir /= np.linalg.norm(w_dir)
    _, Omega, _ = static_allocation(w_dir, allocator)
    radius = PARAMS.Omega_max / np.max(Omega)
    return rng.uniform(0.05, 0.8) * radius * w_dir


@pytest.fixture(scope="module")
def experiment_logs():
    """All five closed-loop experiments, run once and shared."""
    runs = {
        "translation": make_translation(2.0, 8.0),
        "rotation": make_rotation(np.pi / 2.0, np.array([1.0, 0.0, 0.0]), 6.0),
        "flip": make_flip(6.0),
        "singular-translation": make_singular_translation(PARAMS, 1.0, 4.0, 6.0),
        "cartwheel": make_cartwheel(12.0, 4.0),
    }
    out = {}
    for name, tr in runs.items():
        t0 = time.perf_counter()
        log = simulate(tr, PARAMS, Gains(), SingularityParams(),
                       SimConfig(duration=tr.duration))
        wall = time.perf_counter() - t0
        out[name] = (log, wall)
    return out


def test_criterion_1_allocation_round_trip(acceptance_report):
    """1,000 wrenches inside 80% of the envelope, force direction 3 degrees
    clear of both singularity families: forward wrench within 1e-6 relative."""
    allocator = Allocator(PARAMS, SING)
    rng = np.random.default_rng(2024)
    errs = np.empty(1000)
    for k in range(1000):
        w = sample_wrench(rng, allocator)
        cmd = converged_command(allocator, w)
        forward = build_A_alpha(PARAMS, cmd.alpha_cmd) @ cmd.Omega_cmd
        errs[k] = np.linalg.norm(forward - w) / np.linalg.norm(w)
    ok = bool(np.all(errs <= 1e-6))
    report(acceptance_report, 1, ok,
           f"round-trip rel err max {errs.max():.3e}, median {np.median(errs):.3e}, "
           f"{int(np.sum(errs > 1e-6))}/1000 above 1e-6 "
           "(minimum-norm pair splitting and the tilt handlers move the "
           "realized wrench off the request for torque-bearing commands)")
    assert ok, (
        "torque-bearing wrenches do not reconstruct to 1e-6: the "
        "minimum-norm solve splits each arm's rotor pair so the two "
        "projections cannot both be preserved after extraction, and the "
        f"tilt bias/damping offsets add more; measured max {errs.max():.3e}")


def test_criterion_2_derivative_allocation(acceptance_report):
    rng = np.random.default_rng(2025)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(-np.pi, np.pi, 6)
        Omega = rng.uniform(0.0, PARAMS.Omega_max, 12)
        B = derivative_allocation(PARAMS, alpha, Omega)[:, 12:]
        B_fd = np.zeros((6, 6))
        for i in range(6):
            up, dn = alpha.copy(), alpha.copy()
            up[i] += h
            dn[i] -= h
            B_fd[:, i] = (build_A_alpha(PARAMS, up) @ Omega
                          - build_A_alpha(PARAMS, dn) @ Omega) / (2.0 * h)
        worst = max(worst, np.linalg.norm(B_fd - B) / np.linalg.norm(B))
    ok = worst < 1e-5
    report(acceptance_report, 2, ok,
           f"tilt-rate block vs central differences, worst rel err {worst:.3e} (tol 1e-5)")
    assert ok


def test_criterion_3_hover_exactness(acceptance_report):
    w = np.array([0.0, 0.0, PARAMS.m * PARAMS.g_mag, 0.0, 0.0, 0.0])
    u = PARAMS.A_pinv @ w
    alpha = extract_tilt_angles(u, np.zeros(6))
    Omega = extract_rotor_speeds(u, alpha, PARAMS)
    Omega_h = PARAMS.m * PARAMS.g_mag / (12.0 * PARAMS.c_f)
    thrusts = PARAMS.c_f * Omega
    eta_f = wasted_force_index(thrusts, (build_A_alpha(PARAMS, alpha) @ Omega)[:3])
    _, eta_P = power_efficiency(thrusts, PARAMS)

    alpha_err = float(np.max(np.abs(alpha)))
    omega_err = float(np.max(np.abs(Omega - Omega_h)) / Omega_h)
    ok = (alpha_err <= 1e-9 and omega_err <= 1e-9
          and abs(eta_f - 1.0) <= 1e-9 and abs(eta_P - 1.0) <= 1e-9)
    report(acceptance_report, 3, ok,
           f"hover: |alpha| {alpha_err:.2e}, Omega rel dev {omega_err:.2e}, "
           f"eta_f-1 {eta_f - 1.0:.2e}, eta_P-1 {eta_P - 1.0:.2e} (tol 1e-9)")
    assert ok


def test_criterion_4_envelope(acceptance_report):
    t0 = time.perf_counter()
    dirs, radii = force_envelope(PARAMS, 2000)
    wall = time.perf_counter() - t0
    z_radius = radii[4]  # canonical +z row
    assert_allclose(dirs[4], [0.0, 0.0, 1.0])

    allocator = Allocator(PARAMS)

    def radius(d):
        _, Omega, _ = static_allocation(np.concatenate([d, np.zeros(3)]), allocator)
        return PARAMS.Omega_max / np.max(Omega)

    Rz = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 3.0)
    rng = np.random.default_rng(2026)
    sym_err = 0.0
    for _ in range(40):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r0 = radius(d)
        sym_err = max(sym_err, abs(radius(Rz @ d) - r0) / r0)

    ok = abs(z_radius - 120.0) <= 0.12 and sym_err <= 1e-9 and wall < 5.0
    report(acceptance_report, 4, ok,
           f"+z radius {z_radius:.6f} N (120 +/- 0.1%), 6-fold symmetry rel err "
           f"{sym_err:.2e} (tol 1e-9), 2000 directions in {wall:.2f} s (< 5 s)")
    assert ok


def test_criterion_5_condition_number_reduction(acceptance_report):
    singular_dirs = condmap_directions(14)
    _, unbiased = condition_map(PARAMS, 14)
    _, biased = condition_map(PARAMS, 14, SING)

    sentinel_ok = all(np.isinf(c) for c in unbiased)
    biased_conds = np.array([10.0**c for c in biased])
    finite_ok = bool(np.all(np.isfinite(biased_conds)))

    # biased map is finite over a generic global sample too
    _, biased_global = condition_map(PARAMS, 500, SING)
    finite_ok = finite_ok and all(np.isfinite(c) for c in biased_global)

    # largest finite unbiased condition number within 3 degrees of each
    # singular direction (rings down to 0.2 degrees capture the blow-up)
    allocator = Allocator(PARAMS)

    def unbiased_cond(d):
        alpha, _, _ = static_allocation(np.concatenate([d, np.zeros(3)]), allocator)
        svals = np.linalg.svd(build_A_alpha(PARAMS, alpha), compute_uv=False)
        tol = svals[0] * 12 * np.finfo(float).eps
        return np.inf if svals[-1] <= tol else svals[0] / svals[-1]

    margin_ok = True
    worst_ratio = np.inf
    for d, cb in zip(singular_dirs, biased_conds):
        helper = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(d, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(d, e1)
        ring_max = 0.0
        for off_deg in (0.2, 0.5, 1.0, 2.0, 3.0):
            off = np.deg2rad(off_deg)
            for psi in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                nd = np.cos(off) * d + np.sin(off) * (np.cos(psi) * e1 + np.sin(psi) * e2)
                c = unbiased_cond(nd)
                if np.isfinite(c):
                    ring_max = max(ring_max, c)
        ratio = ring_max / cb
        worst_ratio = min(worst_ratio, ratio)
        if ratio < 10.0:
            margin_ok = False

    ok = sentinel_ok and finite_ok and margin_ok
    report(acceptance_report, 5, ok,
           f"unbiased sentinel at +/-z and 12 in-plane dirs: {sentinel_ok}; biased finite "
           f"everywhere: {finite_ok}; biased cond {biased_conds.max():.4f} vs unbiased "
           f"3-degree neighborhood, worst ratio {worst_ratio:.1f}x (need >= 10x)")
    assert ok


def test_criterion_6_tracking_bounds(experiment_logs, acceptance_report):
    ok = True
    details = []
    for name, (log, wall) in experiment_logs.items():
        s = tracking_summary(log)
        run_ok = (s.max_pos_err_m < 0.05 and s.max_att_err_deg < 4.0
                  and s.max_pos_err_m < 0.01 and s.max_att_err_deg < 1.0
                  and wall < 30.0)
        ok = ok and run_ok
        details.append(f"{name} {s.max_pos_err_m * 1000.0:.2f} mm / "
                       f"{s.max_att_err_deg:.3f} deg / {wall:.1f} s")
    report(acceptance_report, 6, ok,
           "all five runs < 0.05 m / 4 deg and (noise-free) < 0.01 m / 1 deg: "
           + "; ".join(details))
    assert ok


def test_criterion_7_singularity_robustness(experiment_logs, acceptance_report):
    log, _ = experiment_logs["cartwheel"]
    finite_ok = bool(np.all(np.isfinite(log.data)))

    alpha = log.column("alpha_cmd")
    steps = np.abs(np.diff(alpha, axis=0))
    rate_ok = bool(np.max(steps) / log.dt_control <= PARAMS.alpha_dot_max + 1e-9)

    # k_alpha must be exactly 1 on precisely the arms whose line contains
    # the commanded force direction (within phi_0), tick by tick
    F = log.column("F_cmd")
    k_alpha = log.column("k_alpha")
    freeze_ok = True
    for k in range(log.data.shape[0]):
        fn = np.linalg.norm(F[k])
        if fn < 1e-6 * PARAMS.m * PARAMS.g_mag:
            continue
        fd = F[k] / fn
        aligned = {i for i in range(6)
                   if arm_alignment(fd, i, PARAMS) <= SING.phi_0}
        frozen = {i for i in range(6) if k_alpha[k, i] == 1.0}
        if aligned != frozen:
            freeze_ok = False
            break
        expected = np.array([damping_multiplier(arm_alignment(fd, i, PARAMS), SING)
                             for i in range(6)])
        if not np.allclose(k_alpha[k], expected, atol=1e-12):
            freeze_ok = False
            break

    # while frozen with nonzero tilt, the angle unwinds monotonically
    # toward zero at no more than omega_u
    unwind_ok = True
    unwind_seen = False
    for k in range(1, log.data.shape[0]):
        for i in range(6):
            if k_alpha[k, i] == 1.0 and alpha[k - 1, i] != 0.0:
                if abs(alpha[k, i]) > abs(alpha[k - 1, i]) + 1e-12:
                    unwind_ok = False
                rate = abs(alpha[k, i] - alpha[k - 1, i]) / log.dt_control
                if rate > SING.omega_u + 1e-9:
                    unwind_ok = False
                if abs(alpha[k, i]) < abs(alpha[k - 1, i]) - 1e-12:
                    unwind_seen = True
    unwind_ok = unwind_ok and unwind_seen

    ok = finite_ok and rate_ok and freeze_ok and unwind_ok
    report(acceptance_report, 7, ok,
           f"cartwheel: finite {finite_ok}; tilt rate <= {PARAMS.alpha_dot_max} rad/s "
           f"{rate_ok}; freeze set matches aligned arms every tick {freeze_ok}; "
           f"frozen arms unwind toward zero at <= {SING.omega_u} rad/s {unwind_ok}")
    assert ok


def test_criterion_8_efficiency_map_shape(acceptance_report):
    dirs, eta_P, eta_f, _ = hover_sweep(PARAMS, 400)

    z_rows = np.abs(dirs[:, 2]) > 1.0 - 1e-12
    ones_only_ok = bool(np.all(eta_f[z_rows] == 1.0) and np.all(eta_f[~z_rows] < 1.0))
    range_ok = bool(np.all(eta_f > 0.0) and np.all(eta_f <= 1.0)
                    and np.all(eta_P > 0.0) and np.all(eta_P <= 1.0))

    # local-minimum claim at the six arm axes: compare each axis row
    # against a ring of neighbors 2 degrees away
    allocator = Allocator(PARAMS)

    def eta_at(d):
        w = np.concatenate([PARAMS.m * PARAMS.g_mag * d, np.zeros(3)])
        alpha, Omega, _ = static_allocation(w, allocator)
        F = (build_A_alpha(PARAMS, alpha) @ Omega)[:3]
        return wasted_force_index(PARAMS.c_f * Omega, F)

    minima_ok = True
    axis_val = neighbor_min = None
    off = np.deg2rad(2.0)
    for g in PARAMS.gamma:
        d = np.array([np.cos(g), np.sin(g), 0.0])
        e1 = np.array([0.0, 0.0, 1.0])
        e2 = np.cross(d, e1)
        center = eta_at(d)
        ring = [eta_at(np.cos(off) * d + np.sin(off) * (np.cos(psi) * e1 + np.sin(psi) * e2))
                for psi in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]
        axis_val = center
        neighbor_min = min(ring)
        if not center < neighbor_min:
            minima_ok = False
            break

    ok = ones_only_ok and range_ok and minima_ok
    report(acceptance_report, 8, ok,
           f"eta_f == 1 only on +/-z rows: {ones_only_ok}; all eta in (0,1]: {range_ok}; "
           f"arm-axis local minima: {minima_ok} (axis eta_f {axis_val:.6f} vs ring min "
           f"{neighbor_min:.6f} at 2 degrees - the axis value sqrt(3)/2 is a local "
           "maximum along the in-plane azimuth; the minima sit midway between arms at 0.75)")
    assert ok, (
        "arm-axis directions are not local minima of eta_f: in-plane, "
        "eta_f(azimuth) = 3 / sum_i |sin(gamma_i - azimuth)| peaks at the arm "
        f"axes (value {axis_val:.6f}) and dips to 3/4 midway between arms, so "
        "the azimuthal neighbors sit below the axis value and the axis is a "
        "saddle (azimuthal maximum, elevation minimum), not a minimum")


def test_criterion_9_determinism(acceptance_report, tmp_path):
    commands = [
        ("envelope", "--n-dirs", "32"),
        ("condmap", "--n-dirs", "24"),
        ("condmap", "--n-dirs", "24", "--biased"),
        ("efficiency", "--n-dirs", "16"),
        ("simulate", "--experiment", "rotation"),
    ]
    ok = True
    for idx, args in enumerate(commands):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        for out in (a, b):
            r = subprocess.run([sys.executable, "-m", "omnidyn.cli", *args, "--out", str(out)],
                               capture_output=True, text=True)
            if r.returncode != 0:
                ok = False
        names = sorted(p.name for p in a.iterdir())
        if names != sorted(p.name for p in b.iterdir()):
            ok = False
            continue
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                ok = False
    report(acceptance_report, 9, ok,
           "re-running every command (envelope, condmap both modes, efficiency, "
           f"simulate) produced byte-identical files: {ok}")
    assert ok
