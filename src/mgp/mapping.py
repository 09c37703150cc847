"""Direct georeferencing of scanner returns and reflector-based evaluation.

A scan point measured in the scanner frame reaches world (ENU) coordinates
through the rigid chain

    p_world = p + R_eb(q) * (lever_arm + R_boresight * p_scan)

using the platform pose (position ``p``, body->ENU attitude ``q``) nearest
in time to the pulse. No pose interpolation is applied: a pulse with no
pose within ``max_pose_gap_s`` is dropped and counted. Accuracy is evaluated
against surveyed reflector discs by truth-seeded clustering: flagged returns
within a fixed radius of each known reflector position are averaged and
compared against it.

Poses, pulses and points are arrays, not one object each: :class:`Poses`
holds E epochs' times, positions and attitudes (NaN rows where missing), a
:class:`ScanFrame` (n, 4) ``[t, x, y, z]`` pulse rows and (n,) bool reflector
labels, a :class:`Cloud` (n, 3) ENU points and (n,) bool flags.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import UNIT_NORM_TOL, UnitQuaternion, Vec3, quat_to_matrix
from .errors import InputError, ValidationError

# Half the 10 Hz pose interval: a pulse further than this from every pose
# epoch has no usable pose.
DEFAULT_MAX_POSE_GAP_S = 0.06
DEFAULT_CLUSTER_RADIUS_M = 0.5
DEFAULT_MIN_HITS = 10

# One .bin cloud record: E, N, U as little-endian float64, then the flag
# byte; 25 bytes, unpadded (the struct layout "<dddB").
_BIN_RECORD = np.dtype([("p", "<f8", (3,)), ("flag", "u1")])


@dataclass(frozen=True, eq=False)
class Poses:
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

    def __len__(self) -> int:
        return len(self.t)

    @property
    def complete(self) -> np.ndarray:
        """(E,) bool: the epochs with both a position and an attitude."""
        return ~(np.isnan(self.p[:, 0]) | np.isnan(self.q[:, 0]))

    def select(self, keep: np.ndarray) -> Poses:
        """The epochs where the bool mask ``keep`` is True."""
        return Poses(self.t[keep], self.p[keep], self.q[keep], self.n_fix[keep])


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
class Cloud:
    """World-frame (ENU) points ``p`` (n, 3) and their reflector flags (n,)."""

    p: np.ndarray
    reflector: np.ndarray

    def __len__(self) -> int:
        return len(self.p)


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


def georeference(
    p: np.ndarray, q: np.ndarray, calib: MountCalibration, point: np.ndarray
) -> np.ndarray:
    """One scanner-frame point (3,) in world coordinates, from the platform
    position ``p`` (3,) and body->ENU attitude ``q`` (4,)."""
    body = calib.lever_arm.as_array() + quat_to_matrix(calib.boresight) @ point
    return p + quat_to_matrix(q) @ body


def georeference_stream(
    poses: Poses,
    frames: Iterable[ScanFrame],
    calib: MountCalibration,
    max_pose_gap_s: float = DEFAULT_MAX_POSE_GAP_S,
) -> tuple[Cloud, int]:
    """Georeference every pulse against its nearest-in-time pose among the
    epochs with both a position and an attitude.

    Returns the cloud and the count of pulses dropped for having no such
    pose within ``max_pose_gap_s``.
    """
    poses = poses.select(poses.complete)
    if not len(poses):
        raise ValidationError("no pose has both a position and an attitude")
    if not (max_pose_gap_s > 0.0):
        raise ValidationError("max_pose_gap_s must be positive")
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
    keep = np.abs(times[nearest] - ts) <= max_pose_gap_s
    dropped = int((~keep).sum())

    r_bs = quat_to_matrix(calib.boresight)
    lever = calib.lever_arm.as_array()
    body = np.ascontiguousarray(pulses[:, 1:]) @ r_bs.T + lever

    # kept pulses grouped by pose, in pulse order within each group; the
    # split's first piece ends at the first group start and is empty
    kept = np.flatnonzero(keep)
    by_pose = kept[np.argsort(nearest[kept], kind="stable")]
    starts = np.flatnonzero(np.diff(nearest[by_pose], prepend=-1))
    r_eb = quat_to_matrix(poses.q)
    world = np.empty_like(body)
    for rows in np.split(by_pose, starts)[1:]:
        k = nearest[rows[0]]
        world[rows] = body[rows] @ r_eb[k].T + poses.p[k]
    return Cloud(p=world[keep], reflector=flags[keep]), dropped


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
    if not truth_reflectors:
        raise ValidationError("no reflectors to evaluate")
    if not (cluster_radius_m > 0.0):
        raise ValidationError("cluster_radius_m must be positive")
    if min_hits < 1:
        raise ValidationError("min_hits must be at least 1")

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


def write_cloud(path: str | Path, cloud: Cloud) -> None:
    """Write a cloud file; format chosen by extension (.xyz ASCII, .bin binary)."""
    path = Path(path)
    if path.suffix == ".xyz":
        flags = cloud.reflector.astype(np.uint8).tolist()
        with open(path, "w") as fh:
            fh.writelines(
                f"{e!r} {n!r} {u!r} {f}\n" for (e, n, u), f in zip(cloud.p.tolist(), flags)
            )
    elif path.suffix == ".bin":
        rec = np.empty(len(cloud), dtype=_BIN_RECORD)
        rec["p"], rec["flag"] = cloud.p, cloud.reflector
        path.write_bytes(rec.tobytes())
    else:
        raise InputError(f"unsupported cloud extension {path.suffix!r} (use .xyz or .bin)")


def _xyz_columns(path: Path) -> np.ndarray:
    """The ``E N U flag`` columns of a .xyz file, one (n, 4) row per line.
    A line that is not four numbers raises InputError naming it."""
    text = path.read_text()
    if not text:
        return np.empty((0, 4))
    try:
        # loadtxt warns on input without data; the loop below names line 1
        if not text.isspace():
            cols = np.loadtxt(io.StringIO(text), ndmin=2, comments=None)
            if cols.shape == (text.count("\n") + (not text.endswith("\n")), 4):
                return cols
    except ValueError:
        pass
    # the bulk parse failed or skipped a blank line: name the line, parsing
    # each with loadtxt itself (float() would also take "1_0" or "１")
    for lineno, line in enumerate(text.removesuffix("\n").split("\n"), 1):
        try:
            ok = bool(line.strip()) and np.loadtxt(
                io.StringIO(line), ndmin=2, comments=None
            ).shape == (1, 4)
        except ValueError:
            ok = False
        if not ok:
            raise InputError(f"{path}:{lineno}: expected 'E N U flag'")
    raise InputError(f"{path}: unreadable cloud file")


def read_cloud(path: str | Path) -> Cloud:
    """Read a cloud written by :func:`write_cloud`. A non-finite coordinate
    or a flag other than 0/1 raises InputError naming ``path:line`` (.xyz)
    or ``path: record k`` (.bin, counted from 1)."""
    path = Path(path)
    if path.suffix == ".xyz":
        cols = _xyz_columns(path)
        p, flag, where = cols[:, :3], cols[:, 3], f"{path}:"
    elif path.suffix == ".bin":
        data = path.read_bytes()
        if len(data) % _BIN_RECORD.itemsize:
            raise InputError(f"{path}: truncated binary cloud record")
        rec = np.frombuffer(data, dtype=_BIN_RECORD)
        p, flag, where = rec["p"], rec["flag"], f"{path}: record "
    else:
        raise InputError(f"unsupported cloud extension {path.suffix!r} (use .xyz or .bin)")
    finite = np.isfinite(p).all(axis=1)
    bad = np.flatnonzero(~finite | ((flag != 0) & (flag != 1)))
    if len(bad):
        k = bad[0]
        what = f"non-finite point {tuple(p[k].tolist())}"
        if finite[k]:
            what = f"flag {flag[k]:g} is not 0 or 1"
        raise InputError(f"{where}{k + 1}: {what}")
    return Cloud(p=np.ascontiguousarray(p), reflector=flag == 1)
