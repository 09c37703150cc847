"""Frame conventions, rotation algebra, and the shared domain types.

Conventions used throughout the toolkit:

- World frame is local ENU (East-North-Up) anchored at a per-scenario origin.
- Body frame is platform-fixed with its origin at the platform centre.
- Quaternions are scalar-last ``(qx, qy, qz, qw)`` with canonical sign
  ``qw >= 0``; the stored attitude quaternion always maps body -> ENU,
  i.e. ``rotate(q, v_body) = v_enu``.
- Euler angles are intrinsic Z-Y-X (yaw-pitch-roll), reported in degrees.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

UNIT_NORM_TOL = 1e-9
ORTHONORMAL_TOL = 1e-9
# How far from 1 the norm of a quaternion read from a file may be (pose CSV,
# epoch truth, calibration and scenario configs): the writers put it within
# a few 1e-16, and seven significant digits stay within this. A reader
# rejects a quaternion outside it instead of normalizing it away.
QUAT_READ_TOL = 1e-6


@dataclass(frozen=True)
class Vec3:
    """3D vector; metres for positions and baselines, unitless for directions."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValidationError(f"Vec3 components must be finite, got {(self.x, self.y, self.z)}")

    @classmethod
    def from_array(cls, a) -> Vec3:
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion, scalar-last, canonical sign ``qw >= 0``."""

    qx: float
    qy: float
    qz: float
    qw: float

    def __post_init__(self) -> None:
        n = math.sqrt(self.qx**2 + self.qy**2 + self.qz**2 + self.qw**2)
        # Negated so a non-finite component (NaN norm) fails the check too.
        if not abs(n - 1.0) <= UNIT_NORM_TOL:
            raise ValidationError(f"quaternion norm {n!r} is not 1 within {UNIT_NORM_TOL}")

    @classmethod
    def identity(cls) -> UnitQuaternion:
        return cls(0.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_array(cls, a, *, canonicalize: bool = True) -> UnitQuaternion:
        """Build from ``[qx, qy, qz, qw]``, normalizing and fixing the sign."""
        q = np.asarray(a, dtype=np.float64)
        if q.shape != (4,):
            raise ValidationError(f"quaternion array must have shape (4,), got {q.shape}")
        n = float(np.linalg.norm(q))
        if n < 1e-12:
            raise ValidationError("cannot normalize a zero quaternion")
        x, y, z, w = (q / n).tolist()
        if canonicalize and (w or x or y or z) < 0.0:  # the sign rule of unit_quats
            x, y, z, w = -x, -y, -z, -w
        return cls(x, y, z, w)

    def as_array(self) -> np.ndarray:
        return np.array([self.qx, self.qy, self.qz, self.qw], dtype=np.float64)

    def conjugate(self) -> UnitQuaternion:
        return UnitQuaternion.from_array([-self.qx, -self.qy, -self.qz, self.qw])


def check_read_norm(q: list[float], what: str) -> None:
    """Raise ValidationError unless ``[qx, qy, qz, qw]`` read from a file has
    a norm within :data:`QUAT_READ_TOL` of 1."""
    norm = math.hypot(*q)
    # negated so that a NaN norm fails too
    if not abs(norm - 1.0) <= QUAT_READ_TOL:
        raise ValidationError(f"{what} norm {norm!r} is not 1 within {QUAT_READ_TOL}")


def read_quaternion(q: list[float], what: str = "quaternion") -> UnitQuaternion:
    """A quaternion read from a file, checked by :func:`check_read_norm` and
    normalized, its sign kept."""
    check_read_norm(q, what)
    return UnitQuaternion.from_array(q, canonicalize=False)


@dataclass(frozen=True)
class RotationMatrix:
    """Proper orthogonal 3x3 matrix."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValidationError(f"rotation matrix must be 3x3, got {m.shape}")
        if not np.allclose(m.T @ m, np.eye(3), atol=ORTHONORMAL_TOL, rtol=0.0):
            raise ValidationError("matrix is not orthogonal within tolerance")
        if abs(np.linalg.det(m) - 1.0) > ORTHONORMAL_TOL:
            raise ValidationError("matrix determinant is not +1 within tolerance")
        object.__setattr__(self, "m", m)

    def as_array(self) -> np.ndarray:
        return self.m


@dataclass(frozen=True)
class AntennaLayout:
    """Body-frame antenna positions, indexed by antenna id 1..N."""

    body_positions: tuple[Vec3, ...]

    def __post_init__(self) -> None:
        if len(self.body_positions) < 2:
            raise ValidationError("a layout needs at least 2 antennas")
        pts = self.positions
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) < 1e-9:
                    raise ValidationError(f"antennas {i + 1} and {j + 1} coincide")
        # 3D attitude needs two linearly independent baselines
        diffs = pts[1:] - pts[0]
        if np.linalg.matrix_rank(diffs, tol=1e-9) < 2:
            raise ValidationError("antenna layout is collinear; attitude is unobservable")

    @property
    def antenna_count(self) -> int:
        return len(self.body_positions)

    @functools.cached_property
    def positions(self) -> np.ndarray:
        """Read-only (n, 3) body positions; antenna k is row k - 1."""
        pts = np.array([p.as_array() for p in self.body_positions])
        pts.flags.writeable = False
        return pts

    @property
    def antenna_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.body_positions) + 1))

    def position_of(self, antenna_id: int) -> Vec3:
        if not 1 <= antenna_id <= len(self.body_positions):
            raise ValidationError(f"antenna id {antenna_id} outside layout 1..{len(self.body_positions)}")
        return self.body_positions[antenna_id - 1]

    def baseline(self, id_from: int, id_to: int) -> Vec3:
        """Body-frame baseline vector from antenna ``id_from`` to ``id_to``."""
        return self.position_of(id_to) - self.position_of(id_from)


def hexagon_layout(circumradius_m: float = 0.9) -> AntennaLayout:
    """Six antennas on a regular hexagon in the body x-y plane.

    The default 0.9 m circumradius puts opposite antennas 1.8 m apart.
    """
    positions = []
    for k in range(6):
        ang = math.radians(60.0 * k)
        positions.append(Vec3(circumradius_m * math.cos(ang), circumradius_m * math.sin(ang), 0.0))
    return AntennaLayout(tuple(positions))


def sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 1, one row at a time from zero, as a Python ``sum``
    adds a list: a zero row never changes the total, so an epoch's sums do
    not depend on how many padding rows its block gave it."""
    total = np.zeros(x.shape[:1] + x.shape[2:])
    for j in range(x.shape[1]):
        total += x[:, j]
    return total


def unit_quats(q: np.ndarray, *, canonicalize: bool = True) -> np.ndarray:
    """Each row of an (E, 4) quaternion array divided by its norm, the float
    ``np.linalg.norm`` gives for the row alone (``norm(q, axis=1)`` differs in
    the last bit), then given the canonical sign: qw > 0, or the first
    nonzero of qx, qy, qz positive when qw == 0."""
    q = q / np.sqrt(np.matmul(q[:, None, :], q[:, :, None]))[:, 0]
    if not canonicalize:
        return q
    x, y, z, w = q.T
    lead = np.where(w != 0.0, w, np.where(x != 0.0, x, np.where(y != 0.0, y, z)))
    return np.where(lead[:, None] < 0.0, -q, q)


def quat_to_matrix(q: UnitQuaternion | np.ndarray) -> np.ndarray:
    """Rotation matrix R (3, 3) with ``rotate(q, v) = R @ v``; for an
    (..., 4) array of unit quaternions, the (..., 3, 3) stack of them (a NaN
    row gives a NaN matrix).

    A unit ``q`` makes R proper orthogonal by construction, so it is not
    re-checked here; :class:`RotationMatrix` checks matrices from elsewhere.
    """
    one = isinstance(q, UnitQuaternion)
    x, y, z, w = (q.qx, q.qy, q.qz, q.qw) if one else np.moveaxis(q, -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    m = [
        1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
        2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
        2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy),
    ]
    if one:
        return np.array(m).reshape(3, 3)
    return np.stack(m, axis=-1).reshape(np.shape(x) + (3, 3))


def matrix_to_quat(r: np.ndarray) -> UnitQuaternion:
    """Inverse of :func:`quat_to_matrix`, canonical-sign result (Shepperd's method).

    Raises ValidationError unless ``r`` is a proper rotation matrix.
    """
    m = RotationMatrix(r).m
    t = float(np.trace(m))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return UnitQuaternion.from_array([x, y, z, w])


def rotate(q: UnitQuaternion, v: Vec3) -> Vec3:
    return Vec3.from_array(quat_to_matrix(q) @ v.as_array())


def quat_multiply(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a * b; rotates by b first, then a."""
    x1, y1, z1, w1 = a.qx, a.qy, a.qz, a.qw
    x2, y2, z2, w2 = b.qx, b.qy, b.qz, b.qw
    return UnitQuaternion.from_array(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ]
    )


def quat_angle(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Rotation angle (radians) between two attitudes, sign-insensitive.

    Uses the chord form: with the sign chosen so qa.qb >= 0, the 4D chord is
    |qa - qb| = 2 sin(theta/4) for rotation angle theta, so
    theta = 4 asin(|qa - qb| / 2). This stays accurate for very small angles
    where the dot-product/acos form loses precision.
    """
    qa, qb = a.as_array(), b.as_array()
    d = min(float(np.linalg.norm(qa - qb)), float(np.linalg.norm(qa + qb)))
    return 4.0 * math.asin(min(1.0, 0.5 * d))


def euler_to_quat(roll_deg: float, pitch_deg: float, yaw_deg: float) -> UnitQuaternion:
    """Compose intrinsic Z-Y-X (yaw, then pitch, then roll) into a quaternion."""
    hr = math.radians(roll_deg) / 2.0
    hp = math.radians(pitch_deg) / 2.0
    hy = math.radians(yaw_deg) / 2.0
    cr, sr = math.cos(hr), math.sin(hr)
    cp, sp = math.cos(hp), math.sin(hp)
    cy, sy = math.cos(hy), math.sin(hy)
    return UnitQuaternion.from_array(
        [
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
            cr * cp * cy + sr * sp * sy,
        ]
    )


def euler_from_quat(q: UnitQuaternion) -> tuple[float, float, float]:
    """Decompose into intrinsic Z-Y-X ``(roll, pitch, yaw)`` degrees.

    Pitch is confined to [-90, +90]. At gimbal lock (|pitch| = 90) the
    yaw/roll split is undefined; by convention roll := 0 and yaw absorbs
    the remaining rotation.
    """
    return euler_from_matrix(quat_to_matrix(q).tolist())


def euler_from_matrix(m: list[list[float]]) -> tuple[float, float, float]:
    """:func:`euler_from_quat` of a rotation matrix given as nested lists."""
    sp = max(-1.0, min(1.0, -m[2][0]))
    pitch = math.asin(sp)
    if abs(sp) >= 1.0 - 1e-12:
        # gimbal lock: only yaw -/+ roll is observable
        roll = 0.0
        yaw = math.atan2(-m[0][1], m[1][1])
    else:
        roll = math.atan2(m[2][1], m[2][2])
        yaw = math.atan2(m[1][0], m[0][0])
    return math.degrees(roll), math.degrees(pitch), math.degrees(yaw)
