"""Tests for the small 3D algebra layer."""

import array_formulas
import numpy as np
import pytest
from array_formulas import same_bits
from numpy.testing import assert_allclose

from omnidyn.mathcore import (
    angle_between,
    axis_rotation,
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
    with pytest.raises(ValueError):
        angle_between([1, 0, 0], [[np.nan, 0, 0], [-0.0, 0.0, -0.0]])


def test_angle_between_matches_the_array_formula_bit_for_bit():
    """The square root of a . a on a float and the zero check through
    nb.all() keep the bytes of the array formula, for one vector and for
    stacked rows, signed zeros, NaN and inf included."""
    rng = np.random.default_rng(12)
    rows = np.vstack([rng.normal(size=(200, 3)), [[-0.0, 1.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 1.0],
                                                  [1e-150, 0.0, 0.0], [1e200, -1e200, 0.0]]])
    with np.errstate(all="ignore"):
        for a in [*rng.normal(size=(20, 3)), [0.0, -0.0, 1.0], [np.nan, 0.0, 1.0], [np.inf, 1.0, 0.0]]:
            # a itself and its multiples round their cosines to just past +-1 now and then
            a = np.asarray(a, dtype=float)
            stacked = np.vstack([rows, a, -a, 3.0 * a, -0.1 * a])
            assert same_bits(angle_between(a, stacked), array_formulas.angle_between(a, stacked))
            for b in stacked[::13]:
                assert same_bits(angle_between(a, b), array_formulas.angle_between(a, b))


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
    """The polar factor with the det-sign flip, on near-rotations,
    near-reflections and arbitrary matrices."""

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


def quat_numpy(R):
    """rotation_to_quat as it was written in numpy, the reference for the float form."""
    t = R.trace()
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(R.diagonal().argmax())
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q


def test_rotation_to_quat_matches_the_numpy_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    branches = set()
    rotations = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    # Half turns 2 n n^T - I whose largest diagonal entries tie: argmax takes the first.
    for n in ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]):
        n = np.array(n)
        rotations.append(2.0 * np.outer(n, n) / (n @ n) - np.eye(3))
    for n in range(20000):
        axis = rng.normal(size=3)
        if n % 4:
            # Near-pi turns about a nearly principal axis reach each argmax branch.
            axis = np.eye(3)[n % 4 - 1] + 10.0 ** rng.uniform(-9, 0) * axis
            angle = np.pi - 10.0 ** rng.uniform(-12, 0.5)
        else:
            angle = rng.uniform(-np.pi, np.pi)
        rotations.append(rotation_from_axis_angle(axis / np.linalg.norm(axis), angle))
    for R in rotations:
        expected = quat_numpy(R)
        assert isinstance(rotation_to_quat(R), np.ndarray)
        assert np.array_equal(rotation_to_quat(R), expected)
        assert np.array_equal(np.signbit(rotation_to_quat(R)), np.signbit(expected))
        branches.add("t > 0" if R.trace() > 0.0 else f"i = {int(R.diagonal().argmax())}")
    assert branches == {"t > 0", "i = 0", "i = 1", "i = 2"}


def rodrigues_numpy(axis, angle):
    """rotation_from_axis_angle as it was written before the per-axis cache."""
    K = hat(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def test_axis_rotation_matches_rodrigues_bit_for_bit():
    rng = np.random.default_rng(13)
    axes = [np.eye(3)[k] for k in range(3)] + [a / np.linalg.norm(a) for a in rng.normal(size=(20, 3))]
    for axis in axes:
        rotation = axis_rotation(axis)
        for angle in [0.0, np.pi / 2.0, np.pi, 2.0 * np.pi, *rng.uniform(-7.0, 7.0, 50)]:
            expected = rodrigues_numpy(axis, angle)
            assert np.array_equal(rotation(angle), expected)
            assert np.array_equal(rotation_from_axis_angle(axis, angle), expected)
