"""Tests for the small 3D algebra layer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn.mathcore import (
    angle_between,
    cross,
    hat,
    is_rotation,
    orthonormalize,
    rotation_from_axis_angle,
    rotation_to_quat,
    vee,
    wrap_angle,
)


def quat_to_rotation(q):
    """Independent quaternion-to-matrix formula used as a test oracle."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def test_hat_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-12)


def test_hat_is_skew():
    v = np.array([1.0, -2.0, 3.0])
    M = hat(v)
    assert_allclose(M, -M.T)
    assert_allclose(np.diag(M), 0.0)


def test_cross_is_np_cross_bit_for_bit():
    """Same bytes as np.cross, signed zeros, overflow to inf and inf - inf
    included; magnitudes span 1e-300 to 1e300."""
    rng = np.random.default_rng(30)
    n = 20_000
    a, b = (rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-300, 300, (n, 3)) for _ in range(2))
    for v in (a, b):
        v[rng.random((n, 3)) < 0.2] = 0.0
        v[rng.random((n, 3)) < 0.2] = -0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = np.cross(a, b)
        got = np.array([cross(ai, bi) for ai, bi in zip(a, b)])
    assert got.tobytes() == expected.tobytes()
    assert np.signbit(got[got == 0.0]).any() and np.isinf(got).any()


def test_vee_inverts_hat():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=3)
        assert_allclose(vee(hat(v)), v)


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError):
        vee(np.eye(3))


def test_rotation_from_axis_angle_quarter_turn_about_z():
    R = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2.0)
    assert_allclose(R, np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), atol=1e-15)


def test_rotation_from_axis_angle_fixes_axis():
    rng = np.random.default_rng(2)
    for _ in range(30):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi, np.pi)
        R = rotation_from_axis_angle(axis, angle)
        assert is_rotation(R)
        assert_allclose(R @ axis, axis, atol=1e-12)
        # trace identity: tr(R) = 1 + 2 cos(angle)
        assert_allclose(np.trace(R), 1.0 + 2.0 * np.cos(angle), atol=1e-12)


def test_rotation_from_axis_angle_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rotation_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.3)


def test_rotation_composition_additive_on_shared_axis():
    axis = np.array([0.0, 1.0, 0.0])
    R1 = rotation_from_axis_angle(axis, 0.4)
    R2 = rotation_from_axis_angle(axis, 1.1)
    assert_allclose(R1 @ R2, rotation_from_axis_angle(axis, 1.5), atol=1e-12)


def test_angle_between_known_values():
    assert_allclose(angle_between([1, 0, 0], [0, 1, 0]), np.pi / 2.0)
    assert_allclose(angle_between([1, 0, 0], [1, 0, 0]), 0.0, atol=1e-8)
    assert_allclose(angle_between([1, 0, 0], [-2, 0, 0]), np.pi)
    # scale invariance
    assert_allclose(angle_between([3, 0, 0], [5, 5, 0]), np.pi / 4.0)
    # rows of a stacked b: one angle each, bit for bit the formula on 1-D
    # np.dot and np.linalg.norm
    rng = np.random.default_rng(4)
    a, rows = rng.normal(size=3), rng.normal(size=(1000, 3))
    expected = [np.arccos(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
                for b in rows]
    assert np.array_equal(angle_between(a, rows), expected)
    assert np.array_equal([angle_between(a, b) for b in rows], expected)


def test_angle_between_rejects_zero_vector():
    with pytest.raises(ValueError):
        angle_between([0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        angle_between([1, 0, 0], [[1, 0, 0], [0, 0, 0]])


def test_wrap_angle_scalar_and_array():
    assert wrap_angle(0.0) == 0.0
    assert_allclose(wrap_angle(np.pi + 0.1), -np.pi + 0.1, atol=1e-12)
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    arr = np.array([0.0, 2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi])
    assert_allclose(wrap_angle(arr), [0.0, 0.0, 0.0, np.pi], atol=1e-12)


def test_wrap_angle_is_periodic():
    rng = np.random.default_rng(3)
    theta = rng.uniform(-np.pi, np.pi, size=100)
    # stay away from the branch point at +/- pi where 2*pi*k rounding flips
    theta = theta[np.abs(np.abs(theta) - np.pi) > 1e-6]
    for k in (-3, -1, 1, 4):
        assert_allclose(wrap_angle(theta + 2.0 * np.pi * k), theta, atol=1e-9)


def test_is_rotation_rejects_reflection_and_scaling():
    assert is_rotation(np.eye(3))
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
    assert not is_rotation(2.0 * np.eye(3))


def test_orthonormalize_recovers_perturbed_rotation():
    rng = np.random.default_rng(4)
    for _ in range(30):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rotation_from_axis_angle(axis, rng.uniform(-np.pi, np.pi))
        noisy = R + 1e-8 * rng.normal(size=(3, 3))
        D = orthonormalize(noisy)
        assert is_rotation(D)
        assert np.max(np.abs(D - R)) < 1e-7


def test_orthonormalize_fixes_negative_determinant():
    D = orthonormalize(np.diag([1.0, 1.0, -1.0]))
    assert is_rotation(D)


def test_orthonormalize_matches_det_formula_bit_for_bit():
    """The triple-product sign picks the same branch as np.linalg.det on
    near-rotations, near-reflections and arbitrary matrices."""

    def polar_with_det(M):
        U, _, Vt = np.linalg.svd(M)
        D = U @ Vt
        if np.linalg.det(D) < 0.0:
            U = U.copy()
            U[:, -1] = -U[:, -1]
            D = U @ Vt
        return D

    rng = np.random.default_rng(31)
    flip = np.diag([1.0, 1.0, -1.0])
    reflections = 0
    for k in range(3000):
        axis = rng.normal(size=3)
        R = rotation_from_axis_angle(axis / np.linalg.norm(axis), rng.uniform(-np.pi, np.pi))
        M = [R, R @ flip, rng.normal(size=(3, 3))][k % 3] + 10.0 ** rng.uniform(-12, -1) * rng.normal(size=(3, 3))
        reflections += np.linalg.det(M) < 0.0
        assert orthonormalize(M).tobytes() == polar_with_det(M).tobytes()
    assert reflections > 1000


def test_rotation_to_quat_identity_and_sign():
    assert_allclose(rotation_to_quat(np.eye(3)), [1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rotation_from_axis_angle(axis, rng.uniform(-np.pi, np.pi))
        q = rotation_to_quat(R)
        assert q[0] >= 0.0
        assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)
        assert_allclose(quat_to_rotation(q), R, atol=1e-9)


def test_rotation_to_quat_low_trace_branches():
    # near-pi rotations about each principal axis exercise the argmax branches
    for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])):
        R = rotation_from_axis_angle(axis, np.pi - 1e-3)
        q = rotation_to_quat(R)
        assert_allclose(quat_to_rotation(q), R, atol=1e-9)
