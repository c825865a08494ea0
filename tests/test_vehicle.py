"""Tests for the vehicle model: parameters, rotor geometry, rigid-body integration."""

import dataclasses

import array_formulas
import numpy as np
import pytest
from array_formulas import same_bits
from numpy.testing import assert_allclose

from omnidyn import mathcore, vehicle
from omnidyn.allocation import Allocator
from omnidyn.analysis import condition_map, hover_sweep
from omnidyn.controller import Gains
from omnidyn.mathcore import is_rotation, rotation_from_axis_angle
from omnidyn.simulation import SimConfig, simulate
from omnidyn.singularity import SingularityParams, derivative_allocation
from omnidyn.trajectories import make_hover
from omnidyn.vehicle import (
    ARM,
    RigidBodyState,
    VehicleParams,
    build_A_alpha,
    integrate_step,
    rotor_columns,
)

EPS = np.finfo(float).eps


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
])
def test_params_validation_rejects(bad):
    with pytest.raises(ValueError):
        VehicleParams(**bad)


def test_params_reject_a_thrust_coefficient_whose_allocation_overflows():
    """A^+ w must stay finite with headroom for the weight and for unit
    wrenches: the smallest normal c_f overflowed the rotor-pair sums of the
    hover wrench, and a tiny mass does not excuse it, as the sweeps allocate
    1 N. Omega_max plays no part in this rule; the good vehicles get one
    that carries their weight."""
    tiny_normal = 2.2250738585072014e-308
    for bad in (dict(c_f=tiny_normal), dict(c_f=tiny_normal, m=1e-300),
                dict(c_f=tiny_normal, Omega_max=1.7976931348623157e308), dict(c_f=1e-200, m=1e150)):
        with pytest.raises(ValueError, match="allocation of the weight overflows"):
            VehicleParams(**bad)
    for good in (dict(c_f=1e-300, Omega_max=1e301), dict(c_f=1e-300, m=1e-300), dict(m=1e150, Omega_max=1e156)):
        p = VehicleParams(**good)
        bound = np.abs(p.A_pinv).sum(axis=1).max() * max(p.m * p.g_mag, 1.0)
        assert bound < np.finfo(float).max / vehicle.ALLOCATION_HEADROOM
        w = np.array([0.0, 0.0, p.m * p.g_mag, 0.0, 0.0, 0.0])
        assert np.all(np.isfinite(Allocator(p).allocate(w, np.zeros(6), 0.005).Omega_cmd))


def test_params_reject_a_vehicle_whose_full_thrust_cannot_carry_its_weight():
    """12 c_f Omega_max must reach m g: c_f of 1e-305 with m of 0.1 once fell
    in `simulate` and passed the sweeps. Equality carries the weight, and a
    full thrust that overflows to inf carries any weight."""
    for bad in (dict(c_f=1e-305, m=0.1), dict(Omega_max=3.2e5), dict(m=12.5),
                dict(c_f=0.5, Omega_max=2.0, m=1.2, g_mag=10.0000000001)):
        with pytest.raises(ValueError, match="cannot carry the weight"):
            VehicleParams(**bad)
    for good in (dict(c_f=0.5, Omega_max=2.0, m=1.2, g_mag=10.0), dict(Omega_max=3.3e5),
                 dict(c_f=1e300, Omega_max=1e300)):
        p = VehicleParams(**good)
        assert 12.0 * p.c_f * p.Omega_max >= p.m * p.g_mag
    assert 12.0 * 1e300 * 1e300 == np.inf


# Each parameter block, its scalar fields, and valid values of them as ints.
SCALAR_BLOCKS = [
    (VehicleParams, dict(m=4, l_x=1, c_f=1, c_d=1, Omega_max=1000, alpha_dot_max=6, g_mag=10)),
    (SingularityParams, dict(phi_0=1, phi_d=2, phi_t=1, c_t=1, omega_u=8)),
    (Gains, dict(k_p=640, k_v=50, k_R=1200, k_omega=69)),
    (SimConfig, dict(dt_physics=1, dt_control=2, duration=3)),
]
BLOCK_IDS = [cls.__name__ for cls, _ in SCALAR_BLOCKS]


@pytest.mark.parametrize("cls, ints", SCALAR_BLOCKS, ids=BLOCK_IDS)
def test_parameter_blocks_store_python_floats(cls, ints):
    """A numpy scalar field would turn the float tick into numpy-scalar
    arithmetic, so every block stores Python floats, whatever it is given."""
    default = cls(**({"duration": 2.5} if cls is SimConfig else {}))
    as_numpy = {name: np.float64(getattr(default, name)) for name in ints}
    as_arrays = {name: np.array(value) for name, value in as_numpy.items()}
    as_numpy_ints = {name: np.int64(value) for name, value in ints.items()}
    for kwargs in ({}, ints, as_numpy, as_arrays, as_numpy_ints):
        block = cls(**kwargs)
        for name in ints:
            value = getattr(block, name)
            # SimConfig's default duration is None: the trajectory's own.
            assert type(value) is float or (not kwargs and name == "duration" and value is None)
        for name, value in kwargs.items():
            assert getattr(block, name) == value


@pytest.mark.parametrize("cls, ints", SCALAR_BLOCKS, ids=BLOCK_IDS)
@pytest.mark.parametrize("bad", [True, np.bool_(False), "4.5", None, np.array([1.0]), 1 + 0j])
def test_parameter_blocks_reject_values_that_are_not_real_numbers(cls, ints, bad):
    for name in ints:
        if name == "duration" and bad is None:
            continue  # None is SimConfig's default duration
        with pytest.raises(TypeError, match=name):
            cls(**{name: bad})


@pytest.mark.parametrize("cls, ints", SCALAR_BLOCKS, ids=BLOCK_IDS)
def test_parameter_blocks_are_frozen(cls, ints):
    """Assigning a field after construction would skip as_float and the
    checks (a numpy phi_0, or phi_0 above phi_d), so every block is frozen."""
    block = cls()
    for name in [*ints, *(["b"] if cls is SingularityParams else [])]:
        before = getattr(block, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(block, name, np.float64(1.0))
        assert getattr(block, name) is before


def test_params_are_frozen_and_replace_rederives():
    p = VehicleParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.l_x = 0.25
    assert p.l_x == 0.3
    shorter, fresh = dataclasses.replace(p, l_x=0.25), VehicleParams(l_x=0.25)
    for name in ("sin_cols", "cos_cols", "A", "A_pinv", "arm_axes"):
        assert np.array_equal(getattr(shorter, name), getattr(fresh, name))
    assert not np.array_equal(shorter.A, p.A)


def test_fixed_geometry_is_shared_and_read_only():
    """The rotor-to-arm map, the arm azimuths, the spins, the arm axes, the
    singular lines and their norms, and the bias pattern are module
    constants: writing into them raises, so no vehicle can change another's
    geometry, and the constructors take only the physical parameters."""
    p, q, sp = VehicleParams(), VehicleParams(l_x=0.25), SingularityParams()
    shared = {"gamma": vehicle.GAMMA, "s": vehicle.SPIN, "arm_axes": vehicle.ARM_AXES,
              "singular_lines": vehicle.SINGULAR_LINES, "singular_norms": vehicle.SINGULAR_NORMS}
    before = {name: getattr(q, name).copy() for name in shared}
    for name, constant in shared.items():
        assert getattr(p, name) is constant and getattr(q, name) is constant
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[...] *= 2.0
        assert same_bits(getattr(q, name), before[name])
    with pytest.raises(ValueError, match="read-only"):
        vehicle.ARM[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        vehicle.ARM[...] += 1
    assert vehicle.ARM.tolist() == [0, 1, 2, 3, 4, 5] * 2
    bias = sp.b.copy()
    with pytest.raises(ValueError, match="read-only"):
        sp.b[0] = 1.0
    assert same_bits(SingularityParams().b, bias) and same_bits(bias, [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    assert [f.name for f in dataclasses.fields(VehicleParams) if f.init] == [
        "m", "J_b", "x_com", "l_x", "c_f", "c_d", "Omega_max", "alpha_dot_max", "g_mag"]
    assert [f.name for f in dataclasses.fields(SingularityParams)] == ["phi_0", "phi_d", "phi_t", "c_t", "omega_u"]
    with pytest.raises(TypeError):
        VehicleParams(gamma=np.zeros(6))
    with pytest.raises(TypeError):
        SingularityParams(b=np.ones(6))


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
        q = VehicleParams(l_x=rng.uniform(0.1, 0.5), c_f=rng.uniform(5e-6, 2e-5),
                          c_d=rng.uniform(0.005, 0.03))
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


def test_stacked_build_A_alpha_gives_the_bytes_of_each_row(off_nominal_vehicle):
    """alpha of shape (..., 6) gives (..., 6, 12), each matrix with the bytes
    of its own 1-D call and of the array formula; a 1-D alpha, as the closed
    loop passes it, still gives one 6x12 matrix."""
    rng = np.random.default_rng(23)
    alphas = rng.uniform(-np.pi, np.pi, (300, 6))
    alphas[::7] = 0.0
    alphas[1::7] = -0.0
    alphas[2::7, :3] = np.pi / 2.0
    for p in (VehicleParams(), off_nominal_vehicle):
        stacked = build_A_alpha(p, alphas)
        assert stacked.shape == (300, 6, 12)
        for alpha, A in zip(alphas, stacked):
            assert same_bits(A, build_A_alpha(p, alpha)) and same_bits(A, array_formulas.build_A_alpha(p, alpha))
        assert same_bits(build_A_alpha(p, alphas.reshape(20, 15, 6)), stacked.reshape(20, 15, 6, 12))
        assert build_A_alpha(p, alphas[:1]).shape == (1, 6, 12)
        for alpha in (alphas[3], alphas[3].tolist()):
            assert build_A_alpha(p, alpha).shape == (6, 12)
            assert same_bits(build_A_alpha(p, alpha), stacked[3])


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


def test_derivative_gravity_and_frame_mapping():
    """One step from rest with the body pitched 90 deg about y.

    With omega = 0 every stage has theta = 0 and the same acceleration, so
    v+ = dt/6 (a + 2a + 2a + a) and R+ = R exactly. v+ / dt then differs
    from the state derivative by the roundings in m g / m, the three sums,
    dt / 6, the product and the division: eight, each below eps / 2.
    """
    p = VehicleParams()
    R = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2.0)
    wrench = np.array([0.0, 0.0, p.m * p.g_mag, 0.0, 0.0, 0.0])
    dt = 1.0e-3
    state = integrate_step(RigidBodyState(R=R), wrench, dt, p)
    # thrust along body z maps to inertial +x, gravity still pulls -z
    assert_allclose(state.v / dt, [p.g_mag, 0.0, -p.g_mag], rtol=0.0, atol=4.0 * EPS * p.g_mag)
    assert np.array_equal(state.R, R)
    assert np.array_equal(state.omega_b, np.zeros(3))


def test_derivative_euler_term():
    """(omega+ - omega) / dt after one torque-free step is the Euler term
    -J^-1 (omega x J omega), up to the Taylor remainder dt/2 |omega''| and
    the rounding of omega+ divided by dt."""
    p = VehicleParams()
    omega = np.array([1.0, 2.0, 3.0])
    J = np.diag(p.J_b)
    dt = 1.0e-7
    state = integrate_step(RigidBodyState(omega_b=omega), np.zeros(6), dt, p)
    expected = -np.cross(omega, J * omega) / J
    omega_ddot = -(np.cross(expected, J * omega) + np.cross(omega, J * expected)) / J
    tol = dt * np.abs(omega_ddot).max() + 4.0 * EPS * np.abs(omega).max() / dt
    assert_allclose((state.omega_b - omega) / dt, expected, rtol=0.0, atol=tol)


def test_integrate_step_free_fall_is_exact():
    # gravity-only motion is polynomial in t, so RK4 reproduces it exactly
    p = VehicleParams()
    state = RigidBodyState(x=np.zeros(3), v=np.array([1.0, 0.0, 0.0]),
                           R=np.eye(3), omega_b=np.zeros(3))
    dt = 0.05
    zero = np.zeros(6)
    state = integrate_step(state, zero, dt, p)
    assert_allclose(state.x, [dt, 0.0, -0.5 * p.g_mag * dt**2], atol=1e-15)
    assert_allclose(state.v, [1.0, 0.0, -p.g_mag * dt], atol=1e-15)


def test_integrate_step_constant_spin_stays_orthonormal():
    p = VehicleParams()
    omega = np.array([0.0, 0.0, 2.0])
    state = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3), omega_b=omega)
    hover = np.array([0.0, 0.0, p.m * p.g_mag, 0.0, 0.0, 0.0])
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
    wrench = np.array([0.0, 0.0, 0.0, 0.0, 0.0, tau_z])
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
        zero = np.zeros(6)
        for _ in range(n):
            state = integrate_step(state, zero, dt, p)
        return state

    ref = final_R(1.0e-4, 10000)
    coarse = final_R(1.0e-2, 100)
    fine = final_R(5.0e-3, 200)
    e_coarse = np.max(np.abs(coarse.R - ref.R)) + np.max(np.abs(coarse.omega_b - ref.omega_b))
    e_fine = np.max(np.abs(fine.R - ref.R)) + np.max(np.abs(fine.omega_b - ref.omega_b))
    assert e_fine < e_coarse / 8.0


def tumbling():
    """An asymmetric body under a held force and torque: (state, wrench, params)."""
    R0 = rotation_from_axis_angle(np.array([0.6, 0.0, 0.8]), 0.7)
    state = RigidBodyState(x=np.array([0.1, -0.2, 0.3]), v=np.array([1.0, 0.5, -0.3]),
                           R=R0, omega_b=np.array([3.0, -2.0, 5.0]))
    wrench = np.array([1.0, -2.0, 45.0, 0.03, -0.01, 0.02])
    return state, wrench, VehicleParams(J_b=np.diag([0.08, 0.11, 0.14]))


def test_integrate_step_is_fourth_order_on_every_component():
    """Tumbling under a held force and torque, halving dt cuts the error of
    each of the 18 state components against a dt = 1e-4 reference by close
    to 2^4, and by at least 12."""
    def final(dt, n):
        state, wrench, p = tumbling()
        for _ in range(n):
            state = integrate_step(state, wrench, dt, p)
        return np.concatenate([state.x, state.v, state.R.ravel(), state.omega_b])

    ref = final(1.0e-4, 10000)
    e_coarse = np.abs(final(1.0e-2, 100) - ref)
    e_fine = np.abs(final(5.0e-3, 200) - ref)
    assert np.all(e_fine < e_coarse / 12.0)


def test_integrate_step_keeps_R_orthonormal_without_svd(monkeypatch):
    """R is advanced by the exp map alone: 1e5 tumbling steps call no SVD
    and leave R^T R within 1e-12 of I and det R within 1e-12 of 1."""
    def no_svd(*args, **kwargs):
        raise AssertionError("integrate_step must not orthonormalize")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(mathcore, "orthonormalize", no_svd)
    monkeypatch.setattr(vehicle, "orthonormalize", no_svd)
    state, wrench, p = tumbling()
    for _ in range(100_000):
        state = integrate_step(state, wrench, 1.0e-3, p)
    R = state.R
    assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_integrate_step_symmetric_top_matches_closed_form():
    """Torque-free symmetric top (J_xx = J_yy): omega_b precesses about
    body z at lam = (J_zz - J_xx) / J_xx omega_z, and
    R(t) = R0 exp(t hat(omega0 + lam e_z)) exp(-lam t hat(e_z))."""
    p = VehicleParams()
    J_xx, J_zz = p.J_b[0, 0], p.J_b[2, 2]
    assert p.J_b[1, 1] == J_xx
    ez = np.array([0.0, 0.0, 1.0])
    omega0 = np.array([1.5, -0.8, 4.0])
    R0 = rotation_from_axis_angle(np.array([0.0, 0.6, 0.8]), 1.1)
    x0, v0 = np.array([0.1, 0.2, 0.3]), np.array([0.3, -0.4, 0.5])
    lam = (J_zz - J_xx) / J_xx * omega0[2]
    spin = omega0 + lam * ez
    T = 2.0

    def closed_form(t):
        R = (R0 @ rotation_from_axis_angle(spin / np.linalg.norm(spin), np.linalg.norm(spin) * t)
             @ rotation_from_axis_angle(ez, -lam * t))
        return R, rotation_from_axis_angle(ez, lam * t) @ omega0

    def errors(dt):
        state = RigidBodyState(x=x0, v=v0, R=R0, omega_b=omega0)
        n = int(round(T / dt))
        for _ in range(n):
            state = integrate_step(state, np.zeros(6), dt, p)
        R, omega = closed_form(T)
        # gravity alone acts on the translation, which RK4 integrates exactly
        assert_allclose(state.x, x0 + v0 * T - 0.5 * p.g_mag * T**2 * ez, rtol=0.0, atol=1e-12)
        assert_allclose(state.v, v0 - p.g_mag * T * ez, rtol=0.0, atol=1e-12)
        return np.abs(state.R - R).max(), np.abs(state.omega_b - omega).max(), n

    e_R_coarse, e_omega_coarse, _ = errors(2.0e-3)
    e_R, e_omega, n = errors(1.0e-3)
    # A fourth-order step errs by O((|omega| dt)^5); n steps add at most n of those.
    bound = n * (np.linalg.norm(omega0) * 1.0e-3) ** 5
    assert e_R < bound and e_omega < bound
    assert e_R < e_R_coarse / 12.0 and e_omega < e_omega_coarse / 12.0


@pytest.mark.parametrize("state, F, params", [
    # omega overflows |theta|^2 inside the exp map of stage 2
    (dict(omega_b=np.full(3, 1e200)), np.zeros(3), {}),
    # finite theta components, theta . theta overflows only inside the exp
    (dict(omega_b=np.array([1e200, 0.0, 0.0])), np.zeros(3), {}),
    # the thrust overflows the RK4 sum of the stage accelerations
    (dict(R=rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 4.0)), np.full(3, 1e308), {}),
    # thrust over a light mass overflows the acceleration itself
    ({}, np.array([1e308, 0.0, 0.0]), dict(m=1e-3)),
])
def test_integrate_step_overflow_is_runtime_error(state, F, params):
    """Overflow must surface as the RuntimeError that simulate turns into
    SimulationDiverged, never as math's ValueError or OverflowError."""
    with pytest.raises(RuntimeError, match="non-finite"):
        integrate_step(RigidBodyState(**state), np.concatenate([F, np.zeros(3)]), 1.0e-3, VehicleParams(**params))


def test_integrate_step_raises_on_non_finite():
    p = VehicleParams()
    state = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3), omega_b=np.zeros(3))
    bad = np.array([np.inf, 0.0, 0.0, 0.0, 0.0, 0.0])
    with np.errstate(all="ignore"), pytest.raises(RuntimeError):
        integrate_step(state, bad, 0.001, p)


def states_equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) and
               np.array_equal(np.signbit(getattr(a, f)), np.signbit(getattr(b, f)))
               for f in ("x", "v", "R", "omega_b"))


def test_integrate_step_n_steps_equals_n_single_calls_bit_for_bit():
    p = VehicleParams(m=3.7, J_b=np.diag([0.07, 0.09, 0.15]))
    rng = np.random.default_rng(14)
    axis = rng.normal(size=3)
    start = RigidBodyState(x=rng.normal(size=3), v=rng.normal(size=3),
                           R=rotation_from_axis_angle(axis / np.linalg.norm(axis), 2.0),
                           omega_b=3.0 * rng.normal(size=3))
    wrench = np.array([3.0, -2.0, 40.0, 0.3, -0.1, 0.05])
    for n in (1, 2, 5, 7):
        single = start
        for _ in range(n):
            single = integrate_step(single, wrench, 1.0e-3, p)
        assert states_equal(integrate_step(start, wrench, 1.0e-3, p, n), single)
    assert states_equal(integrate_step(start, wrench, 1.0e-3, p, 0), start)


def test_integrate_step_n_steps_raises_when_a_later_step_diverges():
    """A wrench that keeps the first steps finite and overflows a later one
    raises the same RuntimeError from a multi-step call."""
    p = VehicleParams()
    start = RigidBodyState(v=np.array([2.95e307, 0.0, 0.0]))
    wrench = np.array([1e308, 0.0, 0.0, 0.0, 0.0, 0.0])
    dt = 0.01
    state, finite = start, 0
    with pytest.raises(RuntimeError, match="non-finite"):
        while True:
            state = integrate_step(state, wrench, dt, p)
            finite += 1
    assert finite >= 2
    assert states_equal(integrate_step(start, wrench, dt, p, finite), state)
    with pytest.raises(RuntimeError, match="non-finite"):
        integrate_step(start, wrench, dt, p, finite + 1)
    with pytest.raises(RuntimeError, match="non-finite"):
        integrate_step(start, wrench, dt, p, finite + 5)


def test_integrate_step_matches_the_per_stage_formula_bit_for_bit(logged_ticks):
    """The RKMK4 step with its four stages written out gives the bytes of the
    step that called one function per stage, on every logged tick and on
    signed zeros: a stopped vehicle with -0.0 entries and zero thrust, whose
    stage-1 cross products are signed zeros."""
    p = VehicleParams()
    neg = np.full(3, -0.0)
    tilted = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2.0)
    edges = [(RigidBodyState(x=neg, v=neg, omega_b=neg), np.full(6, -0.0), 1e-3, p, 3),
             (RigidBodyState(v=neg, R=tilted), np.array([-0.0, 0.0, -0.0, -0.0, -0.0, -0.0]), 1e-3, p, 2),
             (RigidBodyState(omega_b=np.array([0.0, -0.0, 1.0])),
              np.array([0.0, -0.0, 39.24, -0.0, 0.0, 0.0]), 1e-3, p, 5),
             (RigidBodyState(), np.zeros(6), 1e-3, p, 0)]
    for state, wrench, dt, params, n in logged_ticks["plant"] + edges:
        out = integrate_step(state, wrench, dt, params, n)
        got = np.concatenate([out.x, out.v, out.R.ravel(), out.omega_b])
        assert same_bits(got, array_formulas.integrate_step(state, wrench, dt, params, n))
        assert all(isinstance(a, np.ndarray) and a.dtype == float for a in (out.x, out.v, out.R, out.omega_b))
        assert out.R.shape == (3, 3)
