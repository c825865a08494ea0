"""Minimal 3D linear algebra: hat/vee maps, rotations, and angle utilities.

All vectors are length-3 numpy arrays and all rotations are 3x3 numpy
arrays in SO(3). Functions are pure and never mutate their inputs.
"""

from __future__ import annotations

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


def rotation_from_axis_angle(axis, angle):
    """Rodrigues rotation about a unit axis by angle (rad)."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("rotation_from_axis_angle: axis must be a unit vector")
    K = hat(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def angle_between(a, b):
    """Angle between two nonzero vectors, in [0, pi].

    b may stack vectors along a leading axis; the result then holds one
    angle per row. Rows use the same dot kernel as a single vector, so
    each angle is bit-for-bit the one a per-row call returns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    if na == 0.0 or (nb == 0.0).any():
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
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    R = np.asarray(R, dtype=float)
    t = R.trace()
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
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
