"""Tests for the vehicle model: parameters, rotor geometry, rigid-body integration."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn import vehicle
from omnidyn.allocation import Allocator
from omnidyn.analysis import condition_map, hover_sweep
from omnidyn.controller import Gains
from omnidyn.mathcore import is_rotation, orthonormalize, rotation_from_axis_angle
from omnidyn.simulation import SimConfig, simulate
from omnidyn.singularity import SingularityParams, derivative_allocation
from omnidyn.trajectories import make_hover
from omnidyn.vehicle import (
    ARM,
    RigidBodyState,
    VehicleParams,
    Wrench,
    build_A_alpha,
    integrate_step,
    rigid_body_derivative,
    rotor_columns,
)


def test_default_params_values():
    p = VehicleParams()
    assert p.m == 4.0
    assert_allclose(np.diag(p.J_b), [0.08, 0.08, 0.14])
    assert p.l_x == 0.3
    assert_allclose(p.gamma, np.arange(6) * np.pi / 3.0)
    assert p.c_f == 1.0e-5
    assert p.c_d == 0.016
    assert p.Omega_max == 1.0e6
    assert p.alpha_dot_max == 6.0
    assert p.g_mag == 9.81
    assert_allclose(p.s[:6], 1.0)
    assert_allclose(p.s[6:], -1.0)


@pytest.mark.parametrize("bad", [
    dict(m=-1.0),
    dict(J_b=np.diag([0.1, -0.1, 0.1])),
    dict(J_b=np.ones((3, 3))),
    dict(c_f=0.0),
    dict(Omega_max=-5.0),
    dict(s=np.ones(12)),            # lower rotors must counter-rotate
    dict(s=np.full(12, 2.0)),       # entries must be +/-1
    dict(gamma=np.zeros(6)),        # all arms on one line: A is rank deficient
])
def test_params_validation_rejects(bad):
    with pytest.raises(ValueError):
        VehicleParams(**bad)


def test_params_are_frozen_and_replace_rederives():
    p = VehicleParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.l_x = 0.25
    assert p.l_x == 0.3
    shorter, fresh = dataclasses.replace(p, l_x=0.25), VehicleParams(l_x=0.25)
    for name in ("sin_cols", "cos_cols", "A", "A_pinv", "arm_axes"):
        assert np.array_equal(getattr(shorter, name), getattr(fresh, name))
    assert not np.array_equal(shorter.A, p.A)


def test_rotor_columns_against_vector_oracle():
    """Rebuild each column from thrust direction and moment arms directly.

    Per unit cos product the rotor pushes along +z from the arm tip; per
    unit sin product it pushes along the horizontal tangent d x z. The
    moment is r x f plus the drag moment -s * c_d * f.
    """
    p = VehicleParams()
    sin_cols, cos_cols = rotor_columns(p)
    z = np.array([0.0, 0.0, 1.0])
    for j in range(12):
        i = j % 6
        d = np.array([np.cos(p.gamma[i]), np.sin(p.gamma[i]), 0.0])
        r = p.l_x * d
        f_cos = p.c_f * z
        f_sin = p.c_f * np.cross(d, z)
        assert_allclose(cos_cols[:3, j], f_cos, atol=1e-18)
        assert_allclose(cos_cols[3:, j], np.cross(r, f_cos) - p.s[j] * p.c_d * f_cos, atol=1e-18)
        assert_allclose(sin_cols[:3, j], f_sin, atol=1e-18)
        assert_allclose(sin_cols[3:, j], np.cross(r, f_sin) - p.s[j] * p.c_d * f_sin, atol=1e-18)


def test_allocation_geometry_is_built_once(monkeypatch):
    """VehicleParams builds the rotor columns and the pseudo-inverse once;
    the allocator, the closed loop, the sweeps and the rate-level matrix
    reuse them, and a replaced vehicle derives its own."""
    calls = {"rotor_columns": 0, "pinv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    columns, pinv = vehicle.rotor_columns, np.linalg.pinv
    monkeypatch.setattr(vehicle, "rotor_columns", counted("rotor_columns", columns))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", pinv))
    p = VehicleParams()
    assert calls == {"rotor_columns": 1, "pinv": 1}
    Allocator(p)
    simulate(make_hover(), p, Gains(), SingularityParams(), SimConfig(duration=0.05))
    condition_map(p, 20, SingularityParams())
    hover_sweep(p, 20)
    derivative_allocation(p, np.full(6, 0.3), np.full(12, 1.0e5))
    assert calls == {"rotor_columns": 1, "pinv": 1}

    rng = np.random.default_rng(21)
    for _ in range(20):
        s_upper = rng.choice([-1.0, 1.0], 6)
        q = VehicleParams(l_x=rng.uniform(0.1, 0.5), c_f=rng.uniform(5e-6, 2e-5),
                          c_d=rng.uniform(0.005, 0.03), gamma=rng.uniform(-np.pi, np.pi, 6),
                          s=np.concatenate([s_upper, -s_upper]))
        sin_cols, cos_cols = columns(q)
        assert np.array_equal(q.sin_cols, sin_cols) and np.array_equal(q.cos_cols, cos_cols)
        # Arm i owns columns 4i..4i+3: sin upper, cos upper, sin lower, cos lower.
        for k, cols in enumerate((sin_cols[:, :6], cos_cols[:, :6], sin_cols[:, 6:], cos_cols[:, 6:])):
            assert np.array_equal(q.A[:, k::4], cols)
        assert np.array_equal(q.A_pinv, pinv(q.A))
        assert np.array_equal(q.arm_axes, np.column_stack([np.cos(q.gamma), np.sin(q.gamma), np.zeros(6)]))
        alpha = rng.uniform(-np.pi, np.pi, 6)
        expected = sin_cols * np.sin(alpha[ARM]) + cos_cols * np.cos(alpha[ARM])
        assert np.array_equal(build_A_alpha(q, alpha), expected)

    shorter = dataclasses.replace(p, l_x=0.25)
    assert not np.array_equal(shorter.A, p.A)
    assert np.array_equal(shorter.A_pinv, VehicleParams(l_x=0.25).A_pinv)


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        RigidBodyState(x=np.array([np.nan, 0.0, 0.0]), v=np.zeros(3),
                       R=np.eye(3), omega_b=np.zeros(3))


@pytest.mark.parametrize("bad", [
    dict(R=np.eye(2)),
    dict(R=np.eye(3).ravel()),
    dict(x=np.zeros(2)),
    dict(v=np.zeros((3, 1))),
    dict(omega_b=np.zeros(4)),
])
def test_state_rejects_misshaped(bad):
    with pytest.raises(ValueError):
        RigidBodyState(**bad)


def test_wrench_vector_round_trip():
    w = Wrench(F=np.array([1.0, 2.0, 3.0]), tau=np.array([4.0, 5.0, 6.0]))
    assert_allclose(w.as_vector(), [1, 2, 3, 4, 5, 6])


def test_derivative_gravity_and_frame_mapping():
    p = VehicleParams()
    # body frame pitched 90 deg: body z thrust pushes along inertial -x... check mapping
    R = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2.0)
    wrench = Wrench(F=np.array([0.0, 0.0, p.m * p.g_mag]), tau=np.zeros(3))
    _, v_dot, _, _ = rigid_body_derivative(np.zeros(3), np.zeros(3), R, np.zeros(3), wrench, p)
    # thrust along body z maps to inertial +x, gravity still pulls -z
    assert_allclose(v_dot, [p.g_mag, 0.0, -p.g_mag], atol=1e-12)


def test_derivative_euler_term():
    p = VehicleParams()
    omega = np.array([1.0, 2.0, 3.0])
    _, _, _, om_dot = rigid_body_derivative(np.zeros(3), np.zeros(3), np.eye(3), omega,
                                            Wrench(F=np.zeros(3), tau=np.zeros(3)), p)
    J = np.diag(p.J_b)
    expected = -np.cross(omega, J * omega) / J
    assert_allclose(om_dot, expected)


def test_integrate_step_free_fall_is_exact():
    # gravity-only motion is polynomial in t, so RK4 reproduces it exactly
    p = VehicleParams()
    state = RigidBodyState(x=np.zeros(3), v=np.array([1.0, 0.0, 0.0]),
                           R=np.eye(3), omega_b=np.zeros(3))
    dt = 0.05
    zero = Wrench(F=np.zeros(3), tau=np.zeros(3))
    state = integrate_step(state, zero, dt, p)
    assert_allclose(state.x, [dt, 0.0, -0.5 * p.g_mag * dt**2], atol=1e-15)
    assert_allclose(state.v, [1.0, 0.0, -p.g_mag * dt], atol=1e-15)


def test_integrate_step_constant_spin_stays_orthonormal():
    p = VehicleParams()
    omega = np.array([0.0, 0.0, 2.0])
    state = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3), omega_b=omega)
    hover = Wrench(F=np.array([0.0, 0.0, p.m * p.g_mag]), tau=np.zeros(3))
    dt = 0.001
    n = 500
    for _ in range(n):
        state = integrate_step(state, hover, dt, p)
    assert is_rotation(state.R)
    # spin about the z principal axis is torque-free, so omega is constant
    assert_allclose(state.omega_b, omega, atol=1e-12)
    expected = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), omega[2] * n * dt)
    assert_allclose(state.R, expected, atol=1e-9)


def test_integrate_step_constant_torque_spin_up():
    p = VehicleParams()
    tau_z = 0.07
    state = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3), omega_b=np.zeros(3))
    wrench = Wrench(F=np.zeros(3), tau=np.array([0.0, 0.0, tau_z]))
    dt = 0.001
    n = 1000
    for _ in range(n):
        state = integrate_step(state, wrench, dt, p)
    # principal-axis spin-up: omega_z = tau / J_zz * t, no cross coupling
    assert_allclose(state.omega_b, [0.0, 0.0, tau_z / 0.14 * n * dt], atol=1e-10)


def test_integrate_step_convergence_order():
    """Halving dt shrinks the attitude error by about 2^4 (classical RK4)."""
    p = VehicleParams()
    omega0 = np.array([1.3, -0.7, 0.9])

    def final_R(dt, n):
        state = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                               omega_b=omega0.copy())
        zero = Wrench(F=np.zeros(3), tau=np.zeros(3))
        for _ in range(n):
            state = integrate_step(state, zero, dt, p)
        return state

    ref = final_R(1.0e-4, 10000)
    coarse = final_R(1.0e-2, 100)
    fine = final_R(5.0e-3, 200)
    e_coarse = np.max(np.abs(coarse.R - ref.R)) + np.max(np.abs(coarse.omega_b - ref.omega_b))
    e_fine = np.max(np.abs(fine.R - ref.R)) + np.max(np.abs(fine.omega_b - ref.omega_b))
    assert e_fine < e_coarse / 8.0


def test_integrate_step_is_per_component_rk4_bit_for_bit():
    """The packed 18-vector step equals textbook RK4 run on x, v, R and
    omega separately, to the last bit, over a long tumble."""
    p = VehicleParams()
    wrench = Wrench(F=np.array([1.0, -2.0, 45.0]), tau=np.array([0.03, -0.01, 0.02]))
    dt = 0.001

    def f(x, v, R, om):
        return rigid_body_derivative(x, v, R, om, wrench, p)

    def textbook_step(y0):
        k1 = f(*y0)
        k2 = f(*[y + 0.5 * dt * k for y, k in zip(y0, k1)])
        k3 = f(*[y + 0.5 * dt * k for y, k in zip(y0, k2)])
        k4 = f(*[y + dt * k for y, k in zip(y0, k3)])
        x, v, R, om = [y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                       for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]
        return x, v, orthonormalize(R), om

    R0 = rotation_from_axis_angle(np.array([0.6, 0.0, 0.8]), 0.7)
    state = RigidBodyState(x=np.array([0.1, -0.2, 0.3]), v=np.array([1.0, 0.5, -0.3]),
                           R=R0, omega_b=np.array([3.0, -2.0, 5.0]))
    ref = (state.x, state.v, state.R, state.omega_b)
    for _ in range(2000):
        state = integrate_step(state, wrench, dt, p)
        ref = textbook_step(ref)
    assert np.max(np.abs(state.R - R0)) > 0.5  # it did tumble
    for got, want in zip((state.x, state.v, state.R, state.omega_b), ref):
        assert np.array_equal(got, want)


def test_integrate_step_raises_on_non_finite():
    p = VehicleParams()
    state = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3), omega_b=np.zeros(3))
    bad = Wrench(F=np.array([np.inf, 0.0, 0.0]), tau=np.zeros(3))
    with np.errstate(all="ignore"), pytest.raises(RuntimeError):
        integrate_step(state, bad, 0.001, p)
