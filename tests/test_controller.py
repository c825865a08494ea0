"""Tests for the geometric tracking controller."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn.controller import (
    ControlErrors,
    Gains,
    TrajectorySetpoint,
    compute_errors,
    control_wrench,
)
from omnidyn.mathcore import rotation_from_axis_angle
from omnidyn.vehicle import RigidBodyState, VehicleParams


def make_state(**kw):
    base = dict(x=np.zeros(3), v=np.zeros(3), R=np.eye(3), omega_b=np.zeros(3))
    base.update(kw)
    return RigidBodyState(**base)


def test_gains_reject_non_positive():
    with pytest.raises(ValueError):
        Gains(k_p=0.0)
    with pytest.raises(ValueError):
        Gains(k_R=-3.0)


def test_errors_vanish_on_track():
    sp = TrajectorySetpoint(x_sp=np.array([1.0, 2.0, 3.0]),
                            v_sp=np.array([0.1, 0.0, -0.2]),
                            R_sp=rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.7),
                            omega_sp=np.array([0.0, 0.5, 0.0]))
    state = make_state(x=sp.x_sp.copy(), v=sp.v_sp.copy(), R=sp.R_sp.copy(),
                       omega_b=sp.omega_sp.copy())
    e = compute_errors(state, sp)
    assert_allclose(e.e_p, 0.0, atol=1e-15)
    assert_allclose(e.e_v, 0.0, atol=1e-15)
    assert_allclose(e.e_R, 0.0, atol=1e-15)
    # on track R^T R_sp = I, so the rate error compares omegas directly
    assert_allclose(e.e_omega, 0.0, atol=1e-15)


def test_position_velocity_errors_are_differences():
    sp = TrajectorySetpoint(x_sp=np.array([1.0, 0.0, 0.0]), v_sp=np.array([0.0, 1.0, 0.0]))
    state = make_state(x=np.array([2.0, 0.0, 0.0]), v=np.array([0.0, 3.0, 0.0]))
    e = compute_errors(state, sp)
    assert_allclose(e.e_p, [1.0, 0.0, 0.0])
    assert_allclose(e.e_v, [0.0, 2.0, 0.0])


def test_attitude_error_small_angle_axis():
    # state rotated by a small angle about a known axis relative to the setpoint
    rng = np.random.default_rng(30)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = 1e-4
        R_sp = rotation_from_axis_angle(axis, 0.0)
        state = make_state(R=rotation_from_axis_angle(axis, theta))
        e = compute_errors(state, TrajectorySetpoint(R_sp=R_sp))
        assert_allclose(e.e_R, theta * axis, rtol=1e-6, atol=1e-12)


def test_attitude_error_sign_reverses():
    axis = np.array([1.0, 0.0, 0.0])
    ahead = compute_errors(make_state(R=rotation_from_axis_angle(axis, 0.3)),
                           TrajectorySetpoint()).e_R
    behind = compute_errors(make_state(R=rotation_from_axis_angle(axis, -0.3)),
                            TrajectorySetpoint()).e_R
    assert_allclose(ahead, -behind, atol=1e-12)
    assert ahead[0] > 0.0


def test_rate_error_transforms_setpoint_frame():
    # 90 deg yaw offset: a setpoint rate about its x maps to the body -y... check
    R_sp = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2.0)
    sp = TrajectorySetpoint(R_sp=R_sp, omega_sp=np.array([1.0, 0.0, 0.0]))
    state = make_state(R=np.eye(3))
    e = compute_errors(state, sp)
    # R^T R_sp = R_sp maps setpoint x to body y
    assert_allclose(e.e_omega, -R_sp @ np.array([1.0, 0.0, 0.0]), atol=1e-12)


def test_hover_wrench_compensates_gravity():
    p = VehicleParams()
    g = Gains()
    state = make_state()
    sp = TrajectorySetpoint()
    w = control_wrench(compute_errors(state, sp), state, sp, g, p)
    assert_allclose(w.F, [0.0, 0.0, p.m * p.g_mag], atol=1e-12)
    assert_allclose(w.tau, 0.0, atol=1e-12)


def test_gravity_compensation_follows_attitude():
    p = VehicleParams()
    g = Gains()
    # inverted vehicle: compensation must point along body -z
    R = rotation_from_axis_angle(np.array([1.0, 0.0, 0.0]), np.pi)
    state = make_state(R=R)
    sp = TrajectorySetpoint(R_sp=R.copy())
    w = control_wrench(compute_errors(state, sp), state, sp, g, p)
    assert_allclose(w.F, [0.0, 0.0, -p.m * p.g_mag], atol=1e-10)


def test_force_feedback_signs():
    p = VehicleParams()
    g = Gains()
    state = make_state(x=np.array([0.5, 0.0, 0.0]))
    sp = TrajectorySetpoint()
    w = control_wrench(compute_errors(state, sp), state, sp, g, p)
    # positive x error pulls the force command toward -x
    assert w.F[0] == pytest.approx(-g.k_p * 0.5 * p.m)


def test_acceleration_feedforward_enters_directly():
    p = VehicleParams()
    g = Gains()
    state = make_state()
    sp = TrajectorySetpoint(a_sp=np.array([2.0, 0.0, 0.0]))
    w = control_wrench(compute_errors(state, sp), state, sp, g, p)
    assert w.F[0] == pytest.approx(2.0 * p.m)


def test_torque_includes_gyroscopic_term():
    p = VehicleParams()
    g = Gains()
    omega = np.array([1.0, 2.0, 3.0])
    state = make_state(omega_b=omega)
    sp = TrajectorySetpoint(omega_sp=omega.copy())  # zero rate error
    w = control_wrench(compute_errors(state, sp), state, sp, g, p)
    J = np.diag(p.J_b)
    assert_allclose(w.tau, np.cross(omega, J * omega), atol=1e-12)


def test_com_offset_adds_counter_torque():
    p = VehicleParams()
    p_off = VehicleParams(x_com=np.array([0.05, 0.0, 0.0]))
    g = Gains()
    state = make_state()
    sp = TrajectorySetpoint()
    w0 = control_wrench(compute_errors(state, sp), state, sp, g, p)
    w1 = control_wrench(compute_errors(state, sp), state, sp, g, p_off)
    assert_allclose(w1.F, w0.F)
    assert_allclose(w1.tau - w0.tau, np.cross(p_off.x_com, w0.F), atol=1e-12)


def test_velocity_transport_term():
    """A rotating body moving inertially needs the omega x R^T v correction."""
    p = VehicleParams()
    g = Gains()
    v = np.array([1.0, 0.0, 0.0])
    omega = np.array([0.0, 0.0, 2.0])
    state = make_state(v=v, omega_b=omega)
    sp = TrajectorySetpoint(v_sp=v.copy(), omega_sp=omega.copy())
    w = control_wrench(compute_errors(state, sp), state, sp, g, p)
    expected_F = p.m * (np.array([0.0, 0.0, p.g_mag]) + np.cross(omega, v))
    assert_allclose(w.F, expected_F, atol=1e-12)
