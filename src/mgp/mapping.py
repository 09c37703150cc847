"""Direct georeferencing of scanner returns and reflector-based evaluation.

A scan point measured in the scanner frame reaches world (ENU) coordinates
through the rigid chain

    p_world = p + R_eb(q) * (lever_arm + R_boresight * p_scan)

using the platform pose (position ``p``, body->ENU attitude ``q``) nearest
in time to the pulse. No pose interpolation is applied: a pulse with no
pose within :data:`MAX_POSE_GAP_S` is dropped and counted. Accuracy is
evaluated against surveyed reflector discs by truth-seeded clustering:
flagged returns within a fixed radius of each known reflector position are
averaged and compared against it.

Poses, pulses and points are arrays, not one object each: :class:`Poses`
holds E epochs' times, positions and attitudes (NaN rows where missing), a
:class:`ScanFrame` (n, 4) ``[t, x, y, z]`` pulse rows and (n,) bool reflector
labels, a :class:`Cloud` (n, 3) ENU points and (n,) bool flags.

The cloud file formats, and the chunked readers the pulse path streams
through, live in :mod:`mgp.streams`; this module is geometry and
evaluation only. georef turns a scan a chunk of lines at a time, and the
chunks' clouds, joined, are the whole stream's bit for bit, because every
point is turned by elementwise products and sums in one order
(``_turn``), never by a matrix product whose last bits can depend on how
many rows it has: a point's bits depend on its own pulse and pose alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import UNIT_NORM_TOL, Rows, UnitQuaternion, Vec3, quat_to_matrix
from .errors import ValidationError

# Half the 10 Hz pose interval: a pulse further than this from every pose
# epoch has no usable pose.
MAX_POSE_GAP_S = 0.06
DEFAULT_CLUSTER_RADIUS_M = 0.5
DEFAULT_MIN_HITS = 10


@dataclass(frozen=True, eq=False)
class Poses(Rows):
    """Platform poses of E epochs as arrays.

    ``t`` (E,) holds strictly increasing times, ``p`` (E, 3) ENU positions
    with a NaN row where the epoch has no position, ``q`` (E, 4) body->ENU
    unit quaternions ``[qx, qy, qz, qw]`` with a NaN row where it has no
    attitude, and ``n_fix`` (E,) the fixed antennas the epoch used. Build
    from outside data with :meth:`checked`.
    """

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    n_fix: np.ndarray

    @classmethod
    def checked(cls, t: np.ndarray, p: np.ndarray, q: np.ndarray, n_fix: np.ndarray) -> Poses:
        """Build after checking every rule above."""
        n = len(t)
        if (t.shape, p.shape, q.shape, n_fix.shape) != ((n,), (n, 3), (n, 4), (n,)):
            raise ValidationError("poses need (E,) t and n_fix, (E, 3) p and (E, 4) q")
        if not np.isfinite(t).all() or (np.diff(t) <= 0.0).any():
            raise ValidationError("pose times must be finite and strictly increasing")
        for what, rows in (("position", p), ("quaternion", q)):
            if not (np.isfinite(rows).all(axis=1) | np.isnan(rows).all(axis=1)).all():
                raise ValidationError(f"each {what} row must be all finite or all NaN")
        if (np.abs(np.sqrt(np.einsum("ij,ij->i", q, q)) - 1.0) > UNIT_NORM_TOL).any():
            raise ValidationError(f"pose quaternions must have unit norm within {UNIT_NORM_TOL}")
        if n_fix.dtype.kind not in "iu" or (n_fix < 0).any():
            raise ValidationError("n_fix must be a nonnegative integer")
        return cls(t, p, q, n_fix)

    @property
    def complete(self) -> np.ndarray:
        """(E,) bool: the epochs with both a position and an attitude."""
        return ~(np.isnan(self.p[:, 0]) | np.isnan(self.q[:, 0]))


@dataclass(frozen=True)
class MountCalibration:
    """Scanner mounting: body-frame lever arm and scanner->body boresight."""

    lever_arm: Vec3 = Vec3(0.0, 0.0, 0.0)
    boresight: UnitQuaternion = field(default_factory=UnitQuaternion.identity)


@dataclass(frozen=True, eq=False)
class ScanFrame:
    """One scanner revolution's worth of pulses.

    ``pulses`` has one ``[t, x, y, z]`` row per return (pulse time, then the
    scanner-frame point in metres); ``reflector`` is its (n,) truth label.
    """

    t: float
    pulses: np.ndarray
    reflector: np.ndarray


@dataclass(frozen=True, eq=False)
class Cloud(Rows):
    """World-frame (ENU) points ``p`` (n, 3) and their reflector flags (n,)."""

    p: np.ndarray
    reflector: np.ndarray


@dataclass(frozen=True)
class ReflectorResult:
    """Association outcome for one surveyed reflector."""

    truth: Vec3
    error: Vec3 | None
    n_hits: int
    resolved: bool


@dataclass(frozen=True)
class ReflectorReport:
    """Cloud accuracy against surveyed reflectors.

    RMS values cover resolved reflectors only; ``unresolved`` counts the
    reflectors excluded for having fewer than the required hits.
    """

    per_reflector: tuple[ReflectorResult, ...]
    rms_horizontal_m: float | None
    rms_vertical_m: float | None
    unresolved: int


def _turn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``r @ v`` for a rotation ``r`` (3, 3) or a stack (n, 3, 3) and
    points ``v`` (3,) or (n, 3), by elementwise products and sums in one
    order: each point's bits do not depend on the other points."""
    return r[..., 0] * v[..., :1] + r[..., 1] * v[..., 1:2] + r[..., 2] * v[..., 2:]


def georeference(
    p: np.ndarray, q: np.ndarray, calib: MountCalibration, point: np.ndarray
) -> np.ndarray:
    """One scanner-frame point (3,) in world coordinates, from the platform
    position ``p`` (3,) and body->ENU attitude ``q`` (4,); the same bits
    :func:`georeference_stream` gives the point."""
    body = _turn(quat_to_matrix(calib.boresight), point) + calib.lever_arm.as_array()
    return _turn(quat_to_matrix(q), body) + p


def georeference_stream(
    poses: Poses,
    frames: Iterable[ScanFrame],
    calib: MountCalibration,
) -> tuple[Cloud, int]:
    """Georeference every pulse against its nearest-in-time pose among the
    epochs with both a position and an attitude.

    Returns the cloud and the count of pulses dropped for having no such
    pose within :data:`MAX_POSE_GAP_S`. Each point depends on its own pulse
    and pose alone, so the clouds of any cut of the frames into runs,
    joined, are the stream's cloud bit for bit.
    """
    poses = poses.select(poses.complete)
    if not len(poses):
        raise ValidationError("no pose has both a position and an attitude")
    times = poses.t

    frames = list(frames)
    pulses = np.concatenate([f.pulses for f in frames] or [np.empty((0, 4))])
    flags = np.concatenate([f.reflector for f in frames] or [np.empty(0, dtype=bool)])
    ts = pulses[:, 0]
    # nearest pose per pulse: candidate just below and just above
    hi = np.clip(np.searchsorted(times, ts), 0, len(times) - 1)
    lo = np.clip(hi - 1, 0, len(times) - 1)
    pick_hi = np.abs(times[hi] - ts) <= np.abs(times[lo] - ts)
    nearest = np.where(pick_hi, hi, lo)
    keep = np.abs(times[nearest] - ts) <= MAX_POSE_GAP_S

    k = nearest[keep]
    body = _turn(quat_to_matrix(calib.boresight), pulses[keep, 1:]) + calib.lever_arm.as_array()
    world = _turn(quat_to_matrix(poses.q)[k], body) + poses.p[k]
    return Cloud(p=world, reflector=flags[keep]), int((~keep).sum())


def check_survey(reflectors: Sequence[Vec3], cluster_radius_m: float, min_hits: int) -> None:
    """ValidationError unless reflectors, cluster radius and hits are usable."""
    if not reflectors:
        raise ValidationError("no reflectors to evaluate")
    if not (cluster_radius_m > 0.0):
        raise ValidationError("cluster_radius_m must be positive")
    if min_hits < 1:
        raise ValidationError("min_hits must be at least 1")


def evaluate_reflectors(
    cloud: Cloud,
    truth_reflectors: Sequence[Vec3],
    cluster_radius_m: float = DEFAULT_CLUSTER_RADIUS_M,
    min_hits: int = DEFAULT_MIN_HITS,
) -> ReflectorReport:
    """Compare flagged cloud points against surveyed reflector positions.

    Each reflector's estimate is the centroid of flagged points within
    ``cluster_radius_m`` of its surveyed position; reflectors with fewer
    than ``min_hits`` such points are reported unresolved and excluded from
    the RMS figures.
    """
    check_survey(truth_reflectors, cluster_radius_m, min_hits)
    flagged = cloud.p[cloud.reflector]
    results: list[ReflectorResult] = []
    for truth in truth_reflectors:
        d = flagged - truth.as_array()
        near = flagged[np.einsum("ij,ij->i", d, d) <= cluster_radius_m**2]
        err = None
        if len(near) >= min_hits:
            err = Vec3.from_array(near.mean(axis=0) - truth.as_array())
        results.append(ReflectorResult(truth, err, len(near), resolved=err is not None))
    errs = [r.error for r in results if r.error is not None]
    n = len(errs)
    return ReflectorReport(
        per_reflector=tuple(results),
        rms_horizontal_m=math.sqrt(sum(e.x**2 + e.y**2 for e in errs) / n) if n else None,
        rms_vertical_m=math.sqrt(sum(e.z**2 for e in errs) / n) if n else None,
        unresolved=len(results) - n,
    )
