"""Rigid transforms, axis-angle rotations, and point-set distances.

Conventions:
  - positions are metres in a right-handed, z-up world frame
  - inside the program 3-d rotations are 3x3 matrices; rotation vectors
    (unit axis * angle, radians; canonical form keeps the angle in [0, pi])
    appear only at the boundaries: spec tables, observations, reward inputs
    and files
  - a Transform applies rotation first, then translation
  - everything is float64; all functions are pure
"""
from __future__ import annotations

import math

import numpy as np

# Below this angle Rodrigues terms switch to their series expansions.
_TINY_ANGLE = 1e-9


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """(3,) float64 vector."""
    return np.array([x, y, z], dtype=np.float64)


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a float64 vector by its own arithmetic, the square
    root of the dot product of its flattened form with itself, without the
    wrapper's per-call cost. A Python sum of squares would differ in the
    last bit."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors: its products and differences, on Python
    floats, without the wrapper's per-call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return np.asarray(v, dtype=np.float64) / n


# ---------------------------------------------------------------------------
# Rotation vectors
# ---------------------------------------------------------------------------

def canonicalize_rotvec(r: np.ndarray) -> np.ndarray:
    """Wrap a rotation vector to magnitude <= pi (same rotation)."""
    r = np.asarray(r, dtype=np.float64)
    angle = float(np.linalg.norm(r))
    if angle <= np.pi:
        return r.copy()
    axis = r / angle
    theta = np.remainder(angle, 2.0 * np.pi)
    if theta > np.pi:
        return axis * (theta - 2.0 * np.pi)  # flips axis via negative angle
    return axis * theta


def rotvec_to_matrix(r: np.ndarray) -> np.ndarray:
    """Rodrigues formula; proper orthogonal output.

    Angles below 1e-9 use the 2nd-order series to avoid dividing by ~0.
    Spelled out componentwise on Python floats: this sits on the kinematics
    hot path, where numpy's per-call overhead would dominate.
    """
    return np.array(rotvec_rows(*np.asarray(r, dtype=np.float64).tolist()))


def rotvec_rows(x: float, y: float, z: float) -> list:
    """`rotvec_to_matrix((x, y, z))` as three row lists of Python floats,
    for callers that stack several matrices into one array."""
    sq = x * x + y * y + z * z
    angle = math.sqrt(sq)
    if angle < _TINY_ANGLE:
        # I + K + K^2/2 with K = skew(r)
        return [
            [1.0 - 0.5 * (y * y + z * z), -z + 0.5 * x * y, y + 0.5 * x * z],
            [z + 0.5 * x * y, 1.0 - 0.5 * (x * x + z * z), -x + 0.5 * y * z],
            [-y + 0.5 * x * z, x + 0.5 * y * z, 1.0 - 0.5 * (x * x + y * y)],
        ]
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / sq
    return [
        [1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
        [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
        [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)],
    ]


def matrix_to_rotvec(m: np.ndarray) -> np.ndarray:
    """Canonical (angle in [0, pi]) rotation vector of a rotation matrix.

    Shepperd's method: the unit quaternion (w, v) is read off whichever of
    trace, m00, m11, m22 is largest, so every division is by 4|q_i| >= 1.6;
    w is kept >= 0 and the angle is 2 atan2(|v|, w). Unlike arccos of the
    trace and a division by sin(angle), this stays accurate over the whole
    range, angles near 0 and pi included.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m).tolist()
    trace = m00 + m11 + m22
    if trace >= m00 and trace >= m11 and trace >= m22:
        s = 2.0 * math.sqrt(1.0 + trace)                 # 4w
        w, x, y, z = 0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
    elif m00 >= m11 and m00 >= m22:
        s = 2.0 * math.sqrt(1.0 + m00 - m11 - m22)       # 4x
        w, x, y, z = (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
    elif m11 >= m22:
        s = 2.0 * math.sqrt(1.0 + m11 - m00 - m22)       # 4y
        w, x, y, z = (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
    else:
        s = 2.0 * math.sqrt(1.0 + m22 - m00 - m11)       # 4z
        w, x, y, z = (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        return np.zeros(3)
    k = 2.0 * math.atan2(n, w) / n
    return np.array([x * k, y * k, z * k])


def rotvec_difference(target: np.ndarray, current: np.ndarray, *,
                      target_matrix: np.ndarray | None = None) -> np.ndarray:
    """Rotation vector taking `current` to `target`: rotvec(R_t @ R_c^T).

    This is the group-consistent replacement for componentwise subtraction
    of rotation vectors, which is not well-defined across charts. A caller
    that holds `rotvec_to_matrix(target)` (an episode constant) passes it
    as `target_matrix`; the result is the same bits.
    """
    if target_matrix is None:
        target_matrix = rotvec_to_matrix(target)
    return matrix_to_rotvec(target_matrix @ rotvec_to_matrix(current).T)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

class Transform:
    """Rigid transform: p -> R @ p + translation.

    Built from a rotation vector (spec tables, anchors, files, tests) or,
    inside the program, from a rotation matrix with `from_matrix`. The other
    form is derived on first read and cached: `rotation_matrix` is R,
    `rotation` the rotation vector (canonical when derived from R).
    Transforms are values: nothing mutates one after construction.
    """

    __slots__ = ("translation", "_rotation", "_matrix")

    def __init__(self, translation=None, rotation=None):
        self.translation = (np.zeros(3) if translation is None
                            else np.asarray(translation, dtype=np.float64))
        self._rotation = (np.zeros(3) if rotation is None
                          else np.asarray(rotation, dtype=np.float64))
        self._matrix = None

    @classmethod
    def from_matrix(cls, translation: np.ndarray, rotation_matrix: np.ndarray,
                    rotation: np.ndarray | None = None) -> "Transform":
        """Transform from a float64 (3,) translation and (3, 3) rotation
        matrix; `rotation`, when the caller holds it, is the matrix's
        rotation vector (`matrix_to_rotvec(rotation_matrix)`)."""
        t = cls.__new__(cls)
        t.translation = translation
        t._rotation = rotation
        t._matrix = rotation_matrix
        return t

    @property
    def rotation(self) -> np.ndarray:
        if self._rotation is None:
            self._rotation = matrix_to_rotvec(self._matrix)
        return self._rotation

    @property
    def rotation_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = rotvec_to_matrix(self._rotation)
        return self._matrix

    @staticmethod
    def identity() -> "Transform":
        return Transform()

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation_matrix
        m[:3, 3] = self.translation
        return m

    def __repr__(self) -> str:
        return f"Transform(translation={self.translation!r}, rotation={self.rotation!r})"


def transform(tx: float = 0.0, ty: float = 0.0, tz: float = 0.0,
              rx: float = 0.0, ry: float = 0.0, rz: float = 0.0) -> Transform:
    """Shorthand constructor from six scalars."""
    return Transform(vec3(tx, ty, tz), vec3(rx, ry, rz))


def compose(a: Transform, b: Transform) -> Transform:
    """a o b: apply b first, then a."""
    ra = a.rotation_matrix
    return Transform.from_matrix(a.translation + ra @ b.translation,
                                 ra @ b.rotation_matrix)


def invert(t: Transform) -> Transform:
    r_inv = t.rotation_matrix.T
    return Transform.from_matrix(-(r_inv @ t.translation), r_inv)


def apply(t: Transform, p: np.ndarray) -> np.ndarray:
    """Transform point p: rotated then translated."""
    return t.rotation_matrix @ np.asarray(p, dtype=np.float64) + t.translation


# ---------------------------------------------------------------------------
# Point-set distance
# ---------------------------------------------------------------------------

def point_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance via sqrt of the summed squared difference.

    The package's canonical distance: chamfer and every observation/reward
    distance go through this same arithmetic, so singleton chamfer equals
    point_distance bit-exactly (np.linalg.norm's BLAS path may differ in the
    last ulp and is avoided).
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt((d * d).sum()))


def points_to_point_distances(pts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances from each row of pts (K,3) to point p, point_distance arithmetic."""
    d = np.asarray(pts, dtype=np.float64) - np.asarray(p, dtype=np.float64)[None, :]
    return np.sqrt((d * d).sum(axis=1))


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean nearest-neighbour distance between point sets.

    0.5 * (mean_a min_b |a-b| + mean_b min_a |a-b|). For singleton sets this
    equals point_distance(a, b) exactly.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty point set")
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return float(0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean()))
