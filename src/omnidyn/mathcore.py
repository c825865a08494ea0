"""Minimal 3D linear algebra: hat/vee maps, rotations, and angle utilities.

All vectors are length-3 numpy arrays and all rotations are 3x3 numpy
arrays in SO(3). Functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

SKEW_TOL = 1e-9
ORTHO_TOL = 1e-9


def hat(v):
    """Skew-symmetric matrix M of a 3-vector, with M @ w == cross(v, w)."""
    v0, v1, v2 = np.asarray(v, dtype=float).tolist()
    return np.array([
        [0.0, -v2, v1],
        [v2, 0.0, -v0],
        [-v1, v0, 0.0],
    ])


def vee(M):
    """Inverse of hat. Rejects matrices that are not skew-symmetric."""
    M = np.asarray(M, dtype=float)
    if np.abs(M + M.T).max() > SKEW_TOL:
        raise ValueError("vee: input is not skew-symmetric")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def cross(a, b):
    """Cross product of two 3-vectors.

    Forms the same products and differences as the 3-vector branch of
    np.cross (first component a1*b2 - a2*b1), so the result is bit for
    bit np.cross(a, b), without its axis handling.
    """
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def axis_rotation(axis):
    """Rodrigues rotation about a fixed unit axis, as a function of the angle (rad).

    hat(axis), its square and the identity are built once, so a call
    costs only the two trigonometric terms.
    """
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("axis_rotation: axis must be a unit vector")
    K = hat(axis)
    K2 = K @ K
    eye = np.eye(3)

    def rotation(angle):
        return eye + np.sin(angle) * K + (1.0 - np.cos(angle)) * K2

    return rotation


def rotation_from_axis_angle(axis, angle):
    """Rodrigues rotation about a unit axis by angle (rad)."""
    return axis_rotation(axis)(angle)


def angle_between(a, b):
    """Angle between two nonzero vectors, in [0, pi].

    b may stack vectors along a leading axis; the result then holds one
    angle per row. Rows use the same dot kernel as a single vector, so
    each angle is bit-for-bit the one a per-row call returns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = math.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    # nb.all() is False exactly when some norm is zero (NaN counts as true).
    if na == 0.0 or not nb.all():
        raise ValueError("angle_between: zero-length vector has no direction")
    return np.arccos((np.vecdot(b, a) / (na * nb)).clip(-1.0, 1.0))


def wrap_angle(theta):
    """Wrap an angle to (-pi, pi]."""
    w = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if np.isscalar(theta):
        return np.pi if w == -np.pi else float(w)
    w = np.asarray(w)
    w[w == -np.pi] = np.pi
    return w


def is_rotation(R, tol=ORTHO_TOL):
    """True if R is orthonormal with determinant +1 within tol."""
    R = np.asarray(R, dtype=float)
    return (np.max(np.abs(R.T @ R - np.eye(3))) < tol
            and abs(np.linalg.det(R) - 1.0) < tol)


def orthonormalize(R):
    """Nearest rotation matrix (polar decomposition via SVD)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = U @ Vt
    # D is orthogonal, so its determinant is +/-1 and the sign of the
    # triple product (row 0) . (row 1 x row 2) is the sign of det(D).
    if D[0] @ cross(D[1], D[2]) < 0.0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        D = U @ Vt
    return D


def rotation_to_quat(R):
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0.

    Computed in Python floats: the trace sums the diagonal in the order
    ndarray.trace does, and sqrt is correctly rounded in both, so the
    result is bit for bit the numpy formula's.
    """
    R = np.asarray(R, dtype=float).tolist()
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    t = r00 + r11 + r22
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    else:
        # The first largest diagonal entry, as argmax picks it.
        i = 0 if r00 >= r11 and r00 >= r22 else (1 if r11 >= r22 else 2)
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(R[i][i] - R[j][j] - R[k][k] + 1.0) * 2.0
        q = [0.0] * 4
        q[0] = (R[k][j] - R[j][k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j][i] + R[i][j]) / s
        q[1 + k] = (R[k][i] + R[i][k]) / s
    if q[0] < 0.0:
        q = [-c for c in q]
    return np.array(q)
