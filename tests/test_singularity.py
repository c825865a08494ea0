"""Tests for the singularity handlers and the rate-level allocation matrix."""

import array_formulas
import numpy as np
import pytest
from array_formulas import same_bits
from numpy.testing import assert_allclose

from omnidyn.allocation import build_A_alpha
from omnidyn.singularity import (
    SingularityParams,
    apply_damping_and_unwind,
    apply_tilt_bias,
    arm_alignment,
    damping_multiplier,
    derivative_allocation,
    singular_angles,
    tilt_bias_multiplier,
    z_misalignment,
)
from omnidyn.vehicle import VehicleParams


def test_default_singularity_params():
    sp = SingularityParams()
    assert_allclose(np.rad2deg(sp.phi_0), 5.0)
    assert_allclose(np.rad2deg(sp.phi_d), 15.0)
    assert_allclose(np.rad2deg(sp.phi_t), 10.0)
    assert_allclose(np.rad2deg(sp.c_t), 10.0)
    assert sp.omega_u == 8.0
    assert_allclose(sp.b, [-1, 1, -1, 1, -1, 1])


@pytest.mark.parametrize("bad", [
    dict(phi_0=0.0),
    dict(phi_0=np.deg2rad(20.0)),       # must stay below phi_d
    dict(phi_t=-1.0),
    dict(c_t=0.0),
    dict(omega_u=-1.0),
    dict(b=np.ones(6)),                 # must alternate
    dict(b=np.array([-1, 1, -1, 1, -1])),
])
def test_singularity_params_validation(bad):
    with pytest.raises(ValueError):
        SingularityParams(**bad)


def test_z_misalignment_families():
    z = np.array([0.0, 0.0, 1.0])
    assert_allclose(z_misalignment(z), 0.0, atol=1e-8)
    assert_allclose(z_misalignment(-z), 0.0, atol=1e-8)
    assert_allclose(z_misalignment(np.array([1.0, 0.0, 0.0])), 0.0, atol=1e-12)
    # equidistant from the pole and the plane
    d = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert_allclose(z_misalignment(d), np.pi / 4.0)
    # 20 deg elevation: the plane is nearer than the axis
    d = np.array([np.cos(np.deg2rad(20.0)), 0.0, np.sin(np.deg2rad(20.0))])
    assert_allclose(np.rad2deg(z_misalignment(d)), 20.0, atol=1e-9)


def test_tilt_bias_multiplier_shape():
    sp = SingularityParams()
    assert tilt_bias_multiplier(0.0, sp) == 1.0
    assert tilt_bias_multiplier(sp.phi_t, sp) == 0.0
    assert tilt_bias_multiplier(2.0 * sp.phi_t, sp) == 0.0
    assert_allclose(tilt_bias_multiplier(0.5 * sp.phi_t, sp), 0.25)
    # monotone decreasing on [0, phi_t]
    phis = np.linspace(0.0, sp.phi_t, 30)
    vals = [tilt_bias_multiplier(ph, sp) for ph in phis]
    assert np.all(np.diff(vals) < 0.0)


def test_apply_tilt_bias_alternates_arms():
    sp = SingularityParams()
    out = apply_tilt_bias(np.zeros(6), 1.0, sp)
    assert_allclose(out, sp.b * sp.c_t)
    out = apply_tilt_bias(np.full(6, 0.01), 0.5, sp)
    assert_allclose(out, 0.01 + 0.5 * sp.b * sp.c_t)


def test_arm_alignment_is_a_line_distance():
    p = VehicleParams()
    x = np.array([1.0, 0.0, 0.0])
    assert_allclose(arm_alignment(x, 0, p), 0.0, atol=1e-8)
    assert_allclose(arm_alignment(-x, 0, p), 0.0, atol=1e-8)   # either end of the line
    assert_allclose(arm_alignment(x, 3, p), 0.0, atol=1e-8)    # opposite arm shares the line
    assert_allclose(np.rad2deg(arm_alignment(x, 1, p)), 60.0, atol=1e-9)
    z = np.array([0.0, 0.0, 1.0])
    for i in range(6):
        assert_allclose(arm_alignment(z, i, p), np.pi / 2.0)


def test_damping_multiplier_shape():
    sp = SingularityParams()
    assert damping_multiplier(0.0, sp) == 1.0
    assert damping_multiplier(sp.phi_0, sp) == 1.0
    assert damping_multiplier(sp.phi_d + 1e-12, sp) == 0.0
    assert damping_multiplier(np.pi / 2.0, sp) == 0.0
    mid = 0.5 * (sp.phi_0 + sp.phi_d)
    assert_allclose(damping_multiplier(mid, sp), 0.25)
    etas = np.linspace(sp.phi_0, sp.phi_d, 30)
    vals = [damping_multiplier(e, sp) for e in etas]
    assert np.all(np.diff(vals) < 0.0)


def test_array_gains_match_per_arm_scalars_bit_for_bit():
    """The array-valued handlers give the same bits as per-arm scalar
    formulas built from np.dot, 1-D norms and Python-float squares."""
    p = VehicleParams()
    sp = SingularityParams()
    z = np.array([0.0, 0.0, 1.0])
    axes = [np.array([np.cos(g), np.sin(g), 0.0]) for g in p.gamma]
    lines = [z, -z, *axes, *(-a for a in axes)]
    line_norms = [np.linalg.norm(b) for b in lines]

    def gain(eta):
        if eta <= sp.phi_0:
            return 1.0
        if eta > sp.phi_d:
            return 0.0
        return (1.0 - (eta - sp.phi_0) / (sp.phi_d - sp.phi_0)) ** 2

    rng = np.random.default_rng(6)
    # Random directions, plus directions within 1e-6 rad of each singular line.
    near = np.repeat(lines, 40, axis=0) + rng.uniform(-5e-7, 5e-7, (40 * len(lines), 3))
    dirs = np.vstack([rng.normal(size=(20000, 3)), lines, near])
    for F in dirs / np.linalg.norm(dirs, axis=1)[:, None]:
        nF = np.linalg.norm(F)
        ang = [float(np.arccos(min(1.0, max(-1.0, np.dot(F, b) / (nF * nb)))))
               for b, nb in zip(lines, line_norms)]
        assert z_misalignment(F) == min(ang[0], ang[1], abs(np.pi / 2.0 - ang[0]))
        eta = [min(ang[2 + i], ang[8 + i]) for i in range(6)]
        eta_arr = arm_alignment(F, np.arange(6), p)
        assert np.array_equal(eta_arr, eta)
        assert np.array_equal(damping_multiplier(eta_arr, sp), [gain(e) for e in eta])


def test_singular_angles_match_the_per_family_functions_bit_for_bit():
    """One angle_between over the 14 singular lines gives the bits of
    z_misalignment and of arm_alignment(F, i, p) for every arm."""
    p = VehicleParams(gamma=np.arange(6) * np.pi / 3.0 + 0.1)
    lines = p.singular_lines
    assert lines.shape == (14, 3)
    z = np.array([0.0, 0.0, 1.0])
    assert np.array_equal(np.signbit(lines[1]), np.signbit(-z))
    assert np.array_equal(np.signbit(lines[8:]), np.signbit(-p.arm_axes))

    rng = np.random.default_rng(10)
    # Random directions, the lines themselves, and directions within 1e-6 rad of each.
    tilt = rng.uniform(0.0, 1e-6, 14 * 50)
    kick = rng.normal(size=(14 * 50, 3))
    base = np.repeat(lines, 50, axis=0)
    kick -= np.sum(kick * base, axis=1)[:, None] * base
    kick /= np.linalg.norm(kick, axis=1)[:, None]
    near = np.cos(tilt)[:, None] * base + np.sin(tilt)[:, None] * kick
    dirs = rng.normal(size=(20000, 3))
    dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1)[:, None], lines, near])
    for F in dirs:
        phi_z, eta = singular_angles(F, p)
        assert np.array_equal(phi_z, z_misalignment(F))
        assert np.array_equal(eta, [arm_alignment(F, i, p) for i in range(6)])


def test_damping_passthrough_when_inactive():
    sp = SingularityParams()
    delta = np.array([0.01, -0.02, 0.03, 0.0, 0.005, -0.01])
    out = apply_damping_and_unwind(delta, np.zeros(6), np.full(6, 0.5), sp, 0.005)
    assert_allclose(out, delta)


def test_damping_freezes_and_unwinds():
    sp = SingularityParams()
    dt = 0.005
    delta = np.full(6, 0.02)
    prev = np.array([0.5, -0.5, 0.2, 0.0, 0.5, 0.5])
    k = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    out = apply_damping_and_unwind(delta, k, prev, sp, dt)
    # frozen arms ignore the request and step toward zero at omega_u
    assert_allclose(out[0], -sp.omega_u * dt)
    assert_allclose(out[1], +sp.omega_u * dt)
    assert_allclose(out[5], -sp.omega_u * dt)
    # an undamped arm keeps the full request
    assert_allclose(out[4], 0.02)
    # a frozen arm already at zero stays there
    assert out[3] == 0.0


def test_unwinding_clamps_at_zero_crossing():
    sp = SingularityParams()
    dt = 0.005
    prev = np.array([0.01, -0.01, 0.3, 0.0, 0.0, 0.0])  # |0.01| < omega_u * dt = 0.04
    out = apply_damping_and_unwind(np.zeros(6), np.array([1.0, 1, 1, 1, 1, 1.0]), prev, sp, dt)
    assert prev[0] + out[0] == 0.0
    assert prev[1] + out[1] == 0.0
    assert_allclose(prev[2] + out[2], 0.3 - sp.omega_u * dt)


def test_unwinding_drives_angle_to_zero_and_holds():
    sp = SingularityParams()
    dt = 0.005
    alpha = 0.37
    k = np.ones(6)
    for _ in range(200):
        step = apply_damping_and_unwind(np.zeros(6), k, np.full(6, alpha), sp, dt)
        new = alpha + step[0]
        assert abs(new) <= abs(alpha)          # monotone approach
        assert abs(step[0]) <= sp.omega_u * dt + 1e-15
        alpha = new
    assert alpha == 0.0


def test_partial_damping_scales_the_request():
    sp = SingularityParams()
    delta = np.full(6, 0.02)
    k = np.full(6, 0.25)
    out = apply_damping_and_unwind(delta, k, np.zeros(6), sp, 0.005)
    # alpha_prev = 0: no unwinding, only the (1 - k) scaling
    assert_allclose(out, 0.015)


def test_derivative_allocation_shape_and_consistency():
    p = VehicleParams()
    rng = np.random.default_rng(20)
    alpha = rng.uniform(-np.pi, np.pi, 6)
    Omega = rng.uniform(0.0, p.Omega_max, 12)
    D = derivative_allocation(p, alpha, Omega)
    assert D.shape == (6, 18)
    assert_allclose(D[:, :12], build_A_alpha(p, alpha))


def test_derivative_allocation_matches_finite_differences():
    p = VehicleParams()
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(100):
        alpha = rng.uniform(-np.pi, np.pi, 6)
        Omega = rng.uniform(0.0, p.Omega_max, 12)
        B = derivative_allocation(p, alpha, Omega)[:, 12:]
        B_fd = np.zeros((6, 6))
        for i in range(6):
            up, dn = alpha.copy(), alpha.copy()
            up[i] += h
            dn[i] -= h
            B_fd[:, i] = (build_A_alpha(p, up) @ Omega - build_A_alpha(p, dn) @ Omega) / (2.0 * h)
        err = np.linalg.norm(B_fd - B) / np.linalg.norm(B)
        assert err < 1e-5


def test_derivative_allocation_vanishes_with_stopped_rotors():
    p = VehicleParams()
    D = derivative_allocation(p, np.full(6, 0.3), np.zeros(12))
    assert_allclose(D[:, 12:], 0.0, atol=1e-18)


NAN, INF = float("nan"), float("inf")


@pytest.fixture
def quiet_numpy():
    """numpy's scalar arithmetic warns on inf * 0, which the NaN cases do on purpose."""
    with np.errstate(all="ignore"):
        yield


def test_handlers_match_the_array_formulas_bit_for_bit(logged_ticks, quiet_numpy):
    """The float handlers give the bytes of the array formulas on the logged
    handler inputs and on ties: eta == phi_0 and eta == phi_d, phi == phi_t,
    |unwind| == |base|, signed zeros, NaN and inf."""
    p = VehicleParams()
    sp = SingularityParams()
    rows = []
    for allocator, w_des, alpha_prev, dt in logged_ticks["allocate"]:
        F = w_des[:3]
        F_norm = np.linalg.norm(F)
        if allocator.sing_params is None or not 1e-6 * p.m * p.g_mag <= F_norm < np.inf:
            continue
        phi_z, eta = array_formulas.singular_angles(F / F_norm, allocator.params)
        got_phi, got_eta = singular_angles(F / F_norm, allocator.params)
        assert same_bits(got_phi, phi_z) and same_bits(got_eta, eta)
        u = allocator.params.A_pinv @ w_des
        delta = array_formulas.wrap_angle(array_formulas.extract_tilt_angles(u, alpha_prev) - alpha_prev)
        rows.append((delta, tilt_bias_multiplier(phi_z, sp), eta, alpha_prev, dt))
    assert rows

    before, after = np.nextafter(sp.phi_0, 0.0), np.nextafter(sp.phi_d, 1.0)
    eta_edges = np.array([sp.phi_0, sp.phi_d, before, after, 0.0, -0.0, NAN, INF, -INF, np.pi / 2.0])
    for eta in (eta_edges[:6], eta_edges[4:]):
        assert same_bits(damping_multiplier(eta, sp), array_formulas.damping_multiplier(eta, sp))
    for eta in eta_edges:
        gain = damping_multiplier(eta, sp)
        assert isinstance(gain, float) and same_bits(gain, array_formulas.damping_multiplier(eta, sp))
    assert damping_multiplier(sp.phi_0, sp) == 1.0 and damping_multiplier(sp.phi_d, sp) == 0.0
    for phi in (sp.phi_t, np.nextafter(sp.phi_t, 0.0), 0.0, -0.0):
        assert same_bits(tilt_bias_multiplier(phi, sp), array_formulas.tilt_bias_multiplier(phi, sp))

    # omega_u * dt = 0.04: an arm at 0.04 with no request has |unwind| == |base|.
    dt = 0.005
    tie = np.array([0.04, -0.04, np.nextafter(0.04, 1.0), 0.0, -0.0, 0.04])
    assert array_formulas.apply_damping_and_unwind(np.zeros(6), np.ones(6), tie, sp, dt)[0] == -0.04
    rows += [(np.zeros(6), 0.0, np.zeros(6), tie, dt),
             (np.array([0.0, -0.0, 0.0, -0.0, 0.04, -0.04]), 1.0, np.full(6, sp.phi_0), tie, dt),
             (np.array([NAN, 0.1, INF, -0.0, 0.0, -INF]), 0.5, eta_edges[:6], np.array([0.3, NAN, -0.2, -0.0, 0.0, 0.5]), dt),
             (np.array([0.02, -0.02, 0.0, 0.01, -0.01, 0.0]), 0.0, np.zeros(6), np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0]), dt)]
    for delta, k_t, eta, alpha_prev, dt in rows:
        biased = apply_tilt_bias(delta, k_t, sp)
        assert same_bits(biased, array_formulas.apply_tilt_bias(delta, k_t, sp))
        k_alpha = array_formulas.damping_multiplier(eta, sp)
        assert same_bits(damping_multiplier(eta, sp), k_alpha)
        for k in (k_alpha, np.ones(6), np.zeros(6)):
            assert same_bits(apply_damping_and_unwind(biased, k, alpha_prev, sp, dt),
                             array_formulas.apply_damping_and_unwind(biased, k, alpha_prev, sp, dt))
