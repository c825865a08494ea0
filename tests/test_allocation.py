"""Tests for the static allocation matrix and the allocation pipeline."""

import array_formulas
import numpy as np
from array_formulas import same_bits
import pytest
from numpy.testing import assert_allclose

from omnidyn.allocation import (
    Allocator,
    build_A_alpha,
    extract_rotor_speeds,
    extract_tilt_angles,
)
from omnidyn.analysis import static_allocation
from omnidyn.singularity import SingularityParams, arm_alignment, z_misalignment
from omnidyn.vehicle import VehicleParams


def wrench_oracle(params, alpha, Omega):
    """Sum per-rotor wrenches from first principles (thrust vector, r x f, drag).

    This recomputes the physics without the sin/cos column decomposition:
    rotor j on arm i = j % 6 produces thrust c_f * Omega_j along the unit
    axis cos(a) * z + sin(a) * (d x z), applied at the arm tip l_x * d,
    with drag moment -s_j * c_d times the thrust vector.
    """
    z = np.array([0.0, 0.0, 1.0])
    F = np.zeros(3)
    tau = np.zeros(3)
    for j in range(12):
        i = j % 6
        d = np.array([np.cos(params.gamma[i]), np.sin(params.gamma[i]), 0.0])
        axis = np.cos(alpha[i]) * z + np.sin(alpha[i]) * np.cross(d, z)
        f = params.c_f * Omega[j] * axis
        F += f
        tau += np.cross(params.l_x * d, f) - params.s[j] * params.c_d * f
    return np.concatenate([F, tau])


def embed(alpha, Omega):
    """Stack (sin, cos) products in the u layout of VehicleParams.A."""
    u = np.empty(24)
    for i in range(6):
        sa, ca = np.sin(alpha[i]), np.cos(alpha[i])
        u[4 * i + 0] = sa * Omega[i]
        u[4 * i + 1] = ca * Omega[i]
        u[4 * i + 2] = sa * Omega[i + 6]
        u[4 * i + 3] = ca * Omega[i + 6]
    return u


def test_build_A_shape_and_rank():
    A = VehicleParams().A
    assert A.shape == (6, 24)
    assert np.linalg.matrix_rank(A) == 6


def test_build_A_matches_physical_oracle():
    p = VehicleParams()
    A = p.A
    rng = np.random.default_rng(10)
    for _ in range(50):
        alpha = rng.uniform(-np.pi, np.pi, 6)
        Omega = rng.uniform(0.0, p.Omega_max, 12)
        w = A @ embed(alpha, Omega)
        assert_allclose(w, wrench_oracle(p, alpha, Omega), rtol=1e-12, atol=1e-12)


def test_build_A_alpha_consistent_with_build_A():
    p = VehicleParams()
    A = p.A
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = rng.uniform(-np.pi, np.pi, 6)
        Omega = rng.uniform(0.0, p.Omega_max, 12)
        assert_allclose(build_A_alpha(p, alpha) @ Omega, A @ embed(alpha, Omega),
                        rtol=1e-12, atol=1e-9)


def test_build_A_alpha_zero_tilt_is_cos_only():
    p = VehicleParams()
    A_alpha = build_A_alpha(p, np.zeros(6))
    # at zero tilt every rotor thrusts along +z
    assert_allclose(A_alpha[2, :], p.c_f)
    assert_allclose(A_alpha[0, :], 0.0, atol=1e-18)
    assert_allclose(A_alpha[1, :], 0.0, atol=1e-18)


def test_pseudo_inverse_allocate_solves_and_minimizes_norm():
    p = VehicleParams()
    A = p.A
    rng = np.random.default_rng(12)
    null_basis = [v for v in np.linalg.svd(A)[2][6:]]
    for _ in range(30):
        w = rng.normal(size=6)
        u = p.A_pinv @ w
        assert_allclose(A @ u, w, rtol=1e-9, atol=1e-12)
        # minimum norm: orthogonal to the null space of A
        for v in null_basis:
            assert abs(np.dot(u, v)) < 1e-9 * max(1.0, np.linalg.norm(u))


def test_extract_tilt_angles_recovers_known_angles():
    rng = np.random.default_rng(13)
    for _ in range(30):
        alpha = rng.uniform(-np.pi, np.pi, 6)
        Omega = rng.uniform(0.1, 1.0, 12)
        u = embed(alpha, Omega)
        assert_allclose(extract_tilt_angles(u, np.zeros(6)), alpha, atol=1e-12)


def test_extract_tilt_angles_degenerate_arm_holds_previous():
    alpha = np.array([0.3, -0.2, 0.1, 0.0, 0.5, -0.4])
    u = embed(alpha, np.ones(12))
    u[8:12] = 0.0  # silence both rotors of arm 2
    prev = np.full(6, 0.77)
    out = extract_tilt_angles(u, prev)
    assert out[2] == 0.77
    assert_allclose(np.delete(out, 2), np.delete(alpha, 2), atol=1e-12)


def test_extract_rotor_speeds_projection_and_clamps():
    p = VehicleParams()
    alpha = np.array([0.2, -0.3, 0.0, 1.0, -1.2, 0.4])
    Omega = np.linspace(1.0e4, 9.0e5, 12)
    u = embed(alpha, Omega)
    assert_allclose(extract_rotor_speeds(u, alpha, p), Omega, rtol=1e-12)
    # angle pointing opposite the requested thrust gives a negative
    # projection, which clamps to zero
    flipped = alpha.copy()
    flipped[0] += np.pi
    out = extract_rotor_speeds(u, flipped, p)
    assert out[0] == 0.0 and out[6] == 0.0
    # magnitudes above Omega_max clamp
    big = embed(np.zeros(6), np.full(12, 2.0 * p.Omega_max))
    assert_allclose(extract_rotor_speeds(big, np.zeros(6), p), p.Omega_max)


def test_extract_rotor_speeds_keeps_negative_zero():
    """A -0.0 projection stays -0.0 through the clamp (np.clip keeps the
    sign bit; np.minimum(np.maximum(...)) would turn it into 0.0), and the
    closed loop writes these speeds to its log."""
    out = extract_rotor_speeds(np.full(24, -0.0), np.zeros(6), VehicleParams())
    assert out.tobytes() == np.full(12, -0.0).tobytes()


def test_allocator_hover_is_exact_and_uniform():
    p = VehicleParams()
    alc = Allocator(p)
    w = np.array([0.0, 0.0, p.m * p.g_mag, 0.0, 0.0, 0.0])
    cmd = alc.allocate(w, np.zeros(6), 0.005)
    assert_allclose(cmd.alpha_cmd, 0.0, atol=1e-9)
    assert_allclose(cmd.Omega_cmd, p.m * p.g_mag / (12.0 * p.c_f), rtol=1e-9)
    assert_allclose(build_A_alpha(p, cmd.alpha_cmd) @ cmd.Omega_cmd, w,
                    rtol=1e-9, atol=1e-9)


def test_allocate_rate_limit_bounds_tilt_steps():
    p = VehicleParams()
    alc = Allocator(p)
    rng = np.random.default_rng(14)
    dt = 0.005
    for _ in range(50):
        w = np.concatenate([rng.normal(size=3) * 30.0, rng.normal(size=3) * 3.0])
        prev = rng.uniform(-np.pi, np.pi, 6)
        cmd = alc.allocate(w, prev, dt)
        assert np.all(np.abs(cmd.alpha_cmd - prev) <= p.alpha_dot_max * dt + 1e-12)
        assert np.all(cmd.Omega_cmd >= 0.0)
        assert np.all(cmd.Omega_cmd <= p.Omega_max)


def uniform_tilt_wrench(params, theta):
    """Wrench of all six arms tilted to theta at equal rotor speeds.

    Its minimum-norm allocation gives every arm the same tilt angle, which
    moves monotonically with theta through all four quadrants.
    """
    return build_A_alpha(params, np.full(6, theta)) @ np.full(12, 2.0e5)


def test_allocate_steps_the_shortest_way_across_pi():
    p = VehicleParams()
    alc = Allocator(p)
    w = uniform_tilt_wrench(p, -np.pi + 0.01)
    prev = np.full(6, np.pi - 0.01)
    # within the limit: the arms step forward through +pi to the command,
    # keeping the unwrapped angle
    cmd = alc.allocate(w, prev, 1.0)
    assert np.all((cmd.alpha_des > -np.pi) & (cmd.alpha_des < -np.pi + 0.02))
    assert_allclose(cmd.alpha_cmd, cmd.alpha_des + 2.0 * np.pi, atol=1e-12)
    assert np.all(cmd.alpha_cmd > np.pi)
    # beyond the limit: a step of alpha_dot_max * dt, still forward
    dt = 0.001
    cmd = alc.allocate(w, prev, dt)
    assert_allclose(cmd.alpha_cmd, prev + p.alpha_dot_max * dt, atol=1e-12)


def test_allocate_tilt_winds_up_without_wrapping():
    # chasing a tilt command that circles keeps increasing the unwrapped angle
    p = VehicleParams()
    alc = Allocator(p)
    alpha = np.zeros(6)
    for k in range(300):
        alpha = alc.allocate(uniform_tilt_wrench(p, 0.05 * (k + 1)), alpha, 0.01).alpha_cmd
    assert np.all(alpha > 2.0 * np.pi)  # several turns accumulated


def test_pipeline_round_trip_pure_force_with_margins():
    """Force-only wrenches away from both alignment families reconstruct
    to machine precision once the tilt angles have converged."""
    p = VehicleParams()
    sp = SingularityParams()
    alc = Allocator(p, sp)
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 40:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        if np.rad2deg(z_misalignment(d)) <= 13.0:
            continue
        if min(np.rad2deg(arm_alignment(d, i, p)) for i in range(6)) <= 18.0:
            continue
        w = np.concatenate([40.0 * d, np.zeros(3)])
        alpha = np.zeros(6)
        for _ in range(5):
            cmd = alc.allocate(w, alpha, 10.0)  # large dt: rate limit inactive
            alpha = cmd.alpha_cmd
        forward = build_A_alpha(p, cmd.alpha_cmd) @ cmd.Omega_cmd
        assert_allclose(forward, w, rtol=1e-9, atol=1e-9)
        checked += 1


def test_pipeline_diagnostics_report_handlers():
    p = VehicleParams()
    sp = SingularityParams()
    alc = Allocator(p, sp)
    # straight-up force: z-misalignment 0 gives full bias
    cmd = alc.allocate(np.array([0.0, 0.0, 40.0, 0.0, 0.0, 0.0]), np.zeros(6), 0.005)
    assert cmd.k_t == 1.0
    # force along arm 0's axis: that arm (and its opposite) freeze
    cmd = alc.allocate(np.array([40.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.zeros(6), 0.005)
    assert cmd.k_alpha[0] == 1.0
    assert cmd.k_alpha[3] == 1.0
    # force between arms with wide margins: nothing active
    d = np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0), 1.0])
    d /= np.linalg.norm(d)
    cmd = alc.allocate(np.concatenate([40.0 * d, np.zeros(3)]), np.zeros(6), 0.005)
    assert cmd.k_t == 0.0
    assert_allclose(cmd.k_alpha, 0.0)


def test_pipeline_without_handlers_skips_bias():
    p = VehicleParams()
    alc = Allocator(p)  # no singularity params attached
    cmd = alc.allocate(np.array([0.0, 0.0, 40.0, 0.0, 0.0, 0.0]), np.zeros(6), 0.005)
    assert cmd.k_t == 0.0
    assert_allclose(cmd.alpha_cmd, 0.0, atol=1e-12)


def test_pipeline_skips_handlers_when_the_force_norm_overflows():
    """A finite force whose norm overflows has no direction to test for
    singularities; the handlers stay off as they do for a vanishing force,
    instead of testing the zero vector F / inf."""
    alc = Allocator(VehicleParams(), SingularityParams())
    w_des = np.array([0.0, 1e300, 1e300, 0.0, 0.0, 0.0])
    cmd = alc.allocate(w_des, np.zeros(6), 0.005)
    assert cmd.k_t == 0.0
    assert np.array_equal(cmd.k_alpha, np.zeros(6))


NAN, INF = float("nan"), float("inf")


def test_extraction_matches_the_array_formulas_bit_for_bit(logged_ticks):
    """extract_tilt_angles and extract_rotor_speeds on Python floats give
    the bytes of the array formulas on every logged tick and on signed
    zeros, extreme angles and a magnitude exactly at the hold threshold;
    a u with an inf or NaN rotor pair raises FloatingPointError."""
    p = VehicleParams()
    cases = []
    for allocator, w_des, alpha_prev, dt in logged_ticks["allocate"]:
        u = allocator.params.A_pinv @ w_des
        cases.append((u, alpha_prev, array_formulas.allocate(allocator.params, allocator.sing_params,
                                                              w_des, alpha_prev, dt)[0]))
    tie = np.zeros(24)
    tie[0], tie[5] = 1.0, 1e-9      # arm 1's magnitude equals 1e-9 times arm 0's
    above = tie.copy()
    above[5] = np.nextafter(1e-9, 1.0)
    signed = np.where(np.arange(24) % 3 == 0, -0.0, 0.0)
    odd = embed(np.linspace(-3.0, 3.0, 6), np.linspace(0.2, 1.0, 12))
    prev = np.array([0.1, -0.0, 0.0, -2.5, 3.0, 1e-300])
    weird = np.array([-1e300, 5e-324, -5e-324, -0.0, 0.0, 1e300])
    for u in (tie, above, signed, np.full(24, -0.0), odd):
        cases += [(u, prev, prev), (u, weird, weird)]
    assert same_bits(extract_tilt_angles(tie, prev)[1], prev[1])   # the tie holds
    assert not same_bits(extract_tilt_angles(above, prev)[1], prev[1])
    for u, alpha_prev, alpha in cases:
        assert same_bits(extract_tilt_angles(u, alpha_prev), array_formulas.extract_tilt_angles(u, alpha_prev))
        assert same_bits(extract_rotor_speeds(u, alpha, p), array_formulas.extract_rotor_speeds(u, alpha, p))
    # Non-finite rotor pairs: an inf or NaN entry, and finite entries whose pair sum overflows.
    overflow = np.zeros(24)
    overflow[[0, 2]] = 1e308
    bad = [np.full(24, NAN), overflow]
    for index, value in ((1, INF), (6, NAN), (13, -INF)):
        bad.append(odd.copy())
        bad[-1][index] = value
    for u in bad:
        for alpha_prev in (prev, weird):
            with pytest.raises(FloatingPointError, match="not finite"):
                extract_tilt_angles(u, alpha_prev)


def test_extraction_hold_threshold_uses_numpy_hypot():
    """Arm 1's magnitude equals 1e-9 times np.hypot of arm 0's pair, so arm 1
    holds; math.hypot rounds that pair one ulp lower and would release it."""
    import math

    s0, c0 = 0.9346815357621039, 0.9711335709321818
    u = np.zeros(24)
    u[0], u[1], u[4] = s0, c0, 1e-9 * float(np.hypot(s0, c0))
    assert 1e-9 * math.hypot(s0, c0) < u[4]
    prev = np.full(6, 0.25)
    assert extract_tilt_angles(u, prev)[1] == 0.25
    assert same_bits(extract_tilt_angles(u, prev), array_formulas.extract_tilt_angles(u, prev))


def prev_for_step(alpha_des, step):
    """alpha_prev within a few ulps of alpha_des - step whose wrapped tilt step
    (theta + pi) % 2 pi - pi, before the -pi fix, is exactly step."""
    prev = alpha_des - step
    for i in range(6):
        for _ in range(64):
            raw = (alpha_des[i] - prev[i] + np.pi) % (2.0 * np.pi) - np.pi
            if raw == step:
                break
            prev[i] = np.nextafter(prev[i], -np.inf if raw < step else np.inf)
        assert raw == step
    return prev


def allocate_edge_cases():
    """(allocator, w_des, alpha_prev, dt): tilt steps exactly at the rate
    limit and wraps landing exactly on -pi, signed zeros, a force whose norm
    overflows, and rate limits of 0 and near the largest float from extreme
    alpha_dot_max."""
    p, sp = VehicleParams(), SingularityParams()
    plain, handled = Allocator(p), Allocator(p, sp)
    w = uniform_tilt_wrench(p, 0.4)
    alpha_des = array_formulas.allocate(p, None, w, np.zeros(6), 0.005)[2]
    # A wrapped step is x - pi for a float x, so it lies on the grid of
    # [2, 4); at alpha_dot_max 1 the limit is dt itself.
    limit = (np.pi + 0.03) - np.pi
    unit_rate = Allocator(VehicleParams(alpha_dot_max=1.0))
    cases = [(unit_rate, w, prev_for_step(alpha_des, step), limit) for step in (limit, -limit)]
    cases.append((plain, w, prev_for_step(alpha_des, -np.pi), 0.005))
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])
    for allocator in (plain, handled):
        cases += [(allocator, np.zeros(6), zeros, 0.005), (allocator, -np.zeros(6), np.zeros(6), 0.005),
                  (allocator, np.array([0.0, -0.0, 40.0, 0.0, -0.0, 0.0]), zeros, 0.005),
                  (allocator, np.array([1e300, 1e300, 40.0, 0.0, 0.0, 0.0]), zeros, 0.005)]
    for rate in (1.7976931348623157e308, 5e-324):
        fast = VehicleParams(alpha_dot_max=rate)
        for allocator in (Allocator(fast), Allocator(fast, sp)):
            cases += [(allocator, uniform_tilt_wrench(fast, 2.0), np.full(6, 0.1), 0.02),
                      (allocator, np.array([40.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.full(6, -0.3), 0.02)]
    return cases


def test_allocate_matches_the_array_formulas_bit_for_bit(logged_ticks):
    """Allocator.allocate, with its wrap, handlers and rate limit on Python
    floats, gives the bytes of the array pipeline on every logged cartwheel
    and scatter-like tick and on the edge cases."""
    for allocator, w_des, alpha_prev, dt in logged_ticks["allocate"] + allocate_edge_cases():
        with np.errstate(all="ignore"):
            want = array_formulas.allocate(allocator.params, allocator.sing_params, w_des, alpha_prev, dt)
        cmd = allocator.allocate(w_des, alpha_prev, dt)
        got = (cmd.alpha_cmd, cmd.Omega_cmd, cmd.alpha_des, cmd.k_t, cmd.k_alpha)
        for name, a, b in zip(("alpha_cmd", "Omega_cmd", "alpha_des", "k_t", "k_alpha"), got, want):
            assert same_bits(a, b), name
        assert all(isinstance(a, np.ndarray) for a in (cmd.alpha_cmd, cmd.Omega_cmd, cmd.alpha_des, cmd.k_alpha))


def test_allocate_raises_on_a_wrench_whose_allocation_is_not_finite():
    """inf and NaN wrench entries, and a finite wrench whose A^+ w
    overflows, raise FloatingPointError with or without the handlers."""
    p = VehicleParams()
    big = 1.7976931348623157e308
    for allocator in (Allocator(p), Allocator(p, SingularityParams())):
        for w_des in (np.array([INF, 0.0, 40.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 40.0, NAN, 0.0, 0.0]),
                      np.array([0.0, 0.0, -INF, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, big, 0.0, 0.0, 0.0])):
            with pytest.raises(FloatingPointError):
                allocator.allocate(w_des, np.zeros(6), 0.005)


def test_both_entries_gate_the_handlers_at_1e_6_m_g():
    """Allocator.allocate and analysis.static_allocation run the handlers
    for a force of exactly 1e-6 m g and the next float above it, and skip
    them one float below it and for a force whose norm overflows. Along +z
    the tilt bias is at full strength when it runs."""
    for p in (VehicleParams(), VehicleParams(m=2.5, g_mag=3.7)):
        handled, plain = Allocator(p, SingularityParams()), Allocator(p)
        threshold = 1e-6 * p.m * p.g_mag
        for F_z, on in ((threshold, True), (np.nextafter(threshold, np.inf), True),
                        (np.nextafter(threshold, 0.0), False), (1e-9, False), (0.0, False)):
            w = np.array([0.0, 0.0, F_z, 0.0, 0.0, 0.0])
            assert handled.allocate(w, np.zeros(6), 0.005).k_t == (1.0 if on else 0.0), F_z
            biased = static_allocation(w, handled)[0] - static_allocation(w, plain)[0]
            assert same_bits(biased, handled.sing_params.b * handled.sing_params.c_t if on else np.zeros(6)), F_z
        overflowing = np.array([1e300, 1e300, 1.0, 0.0, 0.0, 0.0])
        assert handled.allocate(overflowing, np.zeros(6), 0.005).k_t == 0.0
        assert same_bits(static_allocation(overflowing, handled)[0], static_allocation(overflowing, plain)[0])
