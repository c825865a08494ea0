"""Tests for the reference trajectory library."""

import array_formulas
import numpy as np
from array_formulas import same_bits
from numpy.testing import assert_allclose

from omnidyn.mathcore import is_rotation, rotation_from_axis_angle
from omnidyn.trajectories import (
    make_cartwheel,
    make_flip,
    make_hover,
    make_rotation,
    make_singular_translation,
    make_translation,
    quintic_blend,
)
from omnidyn.vehicle import VehicleParams


def test_quintic_blend_boundary_conditions():
    for T in (1.0, 4.0, 12.0):
        s0, sd0, sdd0 = quintic_blend(0.0, T)
        s1, sd1, sdd1 = quintic_blend(T, T)
        assert_allclose([s0, sd0, sdd0], 0.0, atol=1e-15)
        assert_allclose(s1, 1.0)
        assert_allclose([sd1, sdd1], 0.0, atol=1e-12)


def test_quintic_blend_clamps_outside_window():
    assert quintic_blend(-1.0, 2.0)[0] == 0.0
    assert quintic_blend(5.0, 2.0)[0] == 1.0
    assert quintic_blend(5.0, 2.0)[1] == 0.0


def test_quintic_blend_peak_velocity():
    # the quintic 10 s^3 - 15 s^4 + 6 s^5 peaks at s_dot = 15 / (8 T)
    T = 3.0
    _, sd, sdd = quintic_blend(T / 2.0, T)
    assert_allclose(sd, 15.0 / (8.0 * T))
    assert_allclose(sdd, 0.0, atol=1e-12)


def test_quintic_blend_derivatives_match_finite_differences():
    rng = np.random.default_rng(40)
    T = 2.0
    h = 1e-5
    for _ in range(50):
        t = rng.uniform(0.05, T - 0.05)
        s, sd, sdd = quintic_blend(t, T)
        s_up = quintic_blend(t + h, T)[0]
        s_dn = quintic_blend(t - h, T)[0]
        assert_allclose(sd, (s_up - s_dn) / (2.0 * h), rtol=1e-7, atol=1e-9)
        assert_allclose(sdd, (s_up - 2.0 * s + s_dn) / h**2, rtol=1e-4, atol=1e-4)


def test_hover_is_constant_identity():
    tr = make_hover(10.0)
    assert tr.duration == 10.0
    for t in (0.0, 3.7, 10.0):
        sp = tr.sampler(t)
        assert_allclose(sp.x_sp, 0.0)
        assert_allclose(sp.v_sp, 0.0)
        assert_allclose(sp.R_sp, np.eye(3))
        assert_allclose(sp.omega_sp, 0.0)


def test_translation_goes_out_and_back():
    amp, T = 2.0, 8.0
    tr = make_translation(amp, T)
    assert tr.duration == T
    assert_allclose(tr.sampler(0.0).x_sp, 0.0, atol=1e-15)
    assert_allclose(tr.sampler(T / 2.0).x_sp, [amp, 0.0, 0.0])
    assert_allclose(tr.sampler(T).x_sp, 0.0, atol=1e-12)
    # motion is along x only and rest-to-rest
    assert_allclose(tr.sampler(0.0).v_sp, 0.0, atol=1e-15)
    assert_allclose(tr.sampler(T).v_sp, 0.0, atol=1e-12)
    for t in np.linspace(0.0, T, 33):
        sp = tr.sampler(t)
        assert sp.x_sp[1] == 0.0 and sp.x_sp[2] == 0.0
        assert_allclose(sp.R_sp, np.eye(3))


def test_translation_velocity_consistent_with_position():
    tr = make_translation(2.0, 8.0)
    h = 1e-6
    for t in np.linspace(0.1, 7.9, 25):
        if abs(t - 4.0) < 2.0 * h:   # phase switch point
            continue
        fd = (tr.sampler(t + h).x_sp - tr.sampler(t - h).x_sp) / (2.0 * h)
        assert_allclose(tr.sampler(t).v_sp, fd, rtol=1e-5, atol=1e-6)


def test_rotation_endpoints_and_rates():
    axis = np.array([1.0, 0.0, 0.0])
    tr = make_rotation(np.pi / 2.0, axis, 6.0)
    assert_allclose(tr.sampler(0.0).R_sp, np.eye(3))
    assert_allclose(tr.sampler(6.0).R_sp, rotation_from_axis_angle(axis, np.pi / 2.0), atol=1e-12)
    assert_allclose(tr.sampler(0.0).omega_sp, 0.0, atol=1e-15)
    assert_allclose(tr.sampler(6.0).omega_sp, 0.0, atol=1e-12)
    # position never moves
    for t in np.linspace(0.0, 6.0, 13):
        assert_allclose(tr.sampler(t).x_sp, 0.0)
        assert is_rotation(tr.sampler(t).R_sp)


def test_rotation_rate_consistent_with_attitude():
    axis = np.array([0.0, 1.0, 0.0])
    tr = make_rotation(1.2, axis, 5.0)
    h = 1e-6
    for t in np.linspace(0.2, 4.8, 20):
        R = tr.sampler(t).R_sp
        R_dot = (tr.sampler(t + h).R_sp - tr.sampler(t - h).R_sp) / (2.0 * h)
        omega_hat = R.T @ R_dot
        omega = np.array([omega_hat[2, 1], omega_hat[0, 2], omega_hat[1, 0]])
        assert_allclose(tr.sampler(t).omega_sp, omega, rtol=1e-5, atol=1e-7)


def test_flip_completes_a_full_turn():
    tr = make_flip(6.0)
    assert_allclose(tr.sampler(6.0).R_sp, np.eye(3), atol=1e-12)
    # halfway through, the vehicle is upside down
    mid = tr.sampler(3.0).R_sp
    assert_allclose(mid @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, -1.0], atol=1e-12)
    # rotation axis is body y throughout
    assert abs(tr.sampler(2.0).omega_sp[1]) > 0.0
    assert_allclose(tr.sampler(2.0).omega_sp[[0, 2]], 0.0, atol=1e-15)


def test_singular_translation_points_arm_at_gravity():
    p = VehicleParams()
    tr = make_singular_translation(p, 1.0, 4.0, 6.0)
    assert tr.duration == 10.0
    R_hold = tr.sampler(4.0).R_sp
    # the hover force (body +z in world) lies along arm 0's line afterwards:
    # world -z maps into the body frame onto the arm axis
    arm0 = np.array([np.cos(p.gamma[0]), np.sin(p.gamma[0]), 0.0])
    body_gravity_dir = R_hold.T @ np.array([0.0, 0.0, -1.0])
    assert_allclose(np.abs(np.dot(body_gravity_dir, arm0)), 1.0, atol=1e-12)
    # attitude holds through the translation phase
    for t in (5.0, 7.0, 10.0):
        assert_allclose(tr.sampler(t).R_sp, R_hold, atol=1e-12)
    assert_allclose(tr.sampler(10.0).x_sp, [1.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(tr.sampler(0.0).x_sp, 0.0)


def test_cartwheel_sweeps_the_arm_plane():
    p = VehicleParams()
    tr = make_cartwheel(12.0, 4.0)
    assert tr.duration == 16.0
    R1 = tr.sampler(4.0).R_sp
    assert_allclose(R1, rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2.0),
                    atol=1e-12)
    # after the reorientation the body-frame gravity direction stays in the
    # arm plane (z component zero) while its azimuth advances by 2 pi
    seen = []
    for t in np.linspace(4.0, 16.0, 400):
        d = tr.sampler(t).R_sp.T @ np.array([0.0, 0.0, -1.0])
        assert abs(d[2]) < 1e-12
        seen.append(np.arctan2(d[1], d[0]))
    unwrapped = np.unwrap(seen)
    assert_allclose(abs(unwrapped[-1] - unwrapped[0]), 2.0 * np.pi, atol=1e-9)
    # the sweep crosses each arm azimuth, so every arm aligns at some point
    for g in p.gamma:
        dist = np.abs((np.array(unwrapped) - g + np.pi) % (2.0 * np.pi) - np.pi)
        assert dist.min() < 0.05


def test_samplers_clamp_beyond_duration():
    p = VehicleParams()
    for tr in (make_translation(), make_rotation(), make_flip(),
               make_singular_translation(p), make_cartwheel()):
        end = tr.sampler(tr.duration)
        late = tr.sampler(tr.duration + 5.0)
        assert_allclose(late.x_sp, end.x_sp)
        assert_allclose(late.R_sp, end.R_sp)
        assert is_rotation(late.R_sp)


def test_quintic_blend_matches_the_array_formula_bit_for_bit():
    """quintic_blend on Python floats gives the bytes of the np.clip formula
    on a fine grid, at the ends of the window, on signed zeros, inf and NaN,
    and every sampler's setpoints follow on a 1 ms grid past the end."""
    NAN, INF = float("nan"), float("inf")
    ts = np.linspace(-1.0, 7.0, 8001).tolist() + [-0.0, 0.0, 2.0, 6.0, 5e-324, -5e-324, INF, -INF, NAN]
    for T in (2.0, 6.0, 4.0, 1e-3, 3.0):
        for t in ts:
            got = quintic_blend(t, T)
            assert all(isinstance(v, float) for v in got)
            assert same_bits(got, array_formulas.quintic_blend(t, T))


def test_sampler_setpoints_keep_their_bytes(monkeypatch):
    """The setpoints of every trajectory equal the ones built from the array
    quintic blend, on a 15 ms grid, at the phase ends and beyond the end."""
    import omnidyn.trajectories as trajectories

    p = VehicleParams()
    samplers = [make().sampler for make in (make_hover, make_translation, make_rotation, make_flip,
                                            make_cartwheel, lambda: make_singular_translation(p))]
    grid = np.arange(0.0, 16.5, 0.015).tolist() + [-1.0, -0.0, 4.0, 12.0, 16.0, 1e9]
    fields = ("x_sp", "v_sp", "a_sp", "R_sp", "omega_sp")

    def sample_all():
        return np.concatenate([np.ravel(getattr(sampler(t), f))
                               for sampler in samplers for t in grid for f in fields])

    got = sample_all()
    monkeypatch.setattr(trajectories, "quintic_blend", array_formulas.quintic_blend)
    assert same_bits(got, sample_all())
