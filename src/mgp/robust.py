"""Consensus wrapper around the Q-method attitude estimator.

Wrong-fix baselines are metre-level gross errors, not noise, so the plain
weighted solve tilts under them. The wrapper solves a candidate rotation from
every pair of fixed baselines, scores each by how many full-length baselines
it reproduces within the inlier threshold, and refits on the winning
consensus set. Observations flagged non-fixed never enter the candidate pool;
they are reported as outliers directly.

Six antennas give at most 15 baselines and so at most 105 pairs, few enough
to score all of them: there is no sampling, no seed and no iteration cap, and
the result depends only on the observations and the thresholds. The search
runs as array operations per epoch: one stacked eigen solve over the pairs
that pass the angle screen and one (P, m, 3) residual evaluation to score
them all.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .attitude import (
    EIGEN_GAP_TOL,
    AttitudeSolution,
    Baselines,
    VectorObservation,
    _davenport_k,
    _dominant_eigenpairs,
    estimate_attitude,
)
from .core import UnitQuaternion, rotate
from .errors import DegenerateGeometryError, InsufficientDataError, ValidationError

# Body-baseline pairs separated by less than this angle are rejected as
# degenerate before the eigen solve.
MIN_PAIR_ANGLE_DEG = 5.0

# Component orders of a x b = a[_YZX] * b[_ZXY] - a[_ZXY] * b[_YZX], the
# products and differences np.cross forms.
_YZX, _ZXY = [1, 2, 0], [2, 0, 1]


@dataclass(frozen=True)
class RansacParams:
    """Tuning for the consensus search.

    ``inlier_threshold_m`` applies to the full-length baseline residual in
    metres. ``min_inliers`` is the consensus size below which the epoch is
    declared unavailable rather than trusted.
    """

    inlier_threshold_m: float = 0.05
    min_inliers: int = 4

    def __post_init__(self) -> None:
        if not (self.inlier_threshold_m > 0.0):
            raise ValidationError("inlier_threshold_m must be positive")
        if self.min_inliers < 2:
            raise ValidationError("min_inliers cannot be below the 2-baseline pair size")


@dataclass(frozen=True)
class RobustAttitudeResult:
    """Consensus outcome for one epoch.

    ``solution.available`` is False when the best consensus set stayed below
    ``min_inliers``. Inlier and outlier pair sets partition the input
    observations; every non-fixed observation lands in the outlier set.
    ``iterations_used`` is the number of pair hypotheses scored: fixed
    baseline pairs that pass the angle screen and the eigen-gap check.
    """

    solution: AttitudeSolution
    inlier_pairs: frozenset[tuple[int, int]]
    outlier_pairs: frozenset[tuple[int, int]]
    iterations_used: int


def baseline_residual(obs: VectorObservation, q_eb: UnitQuaternion) -> float:
    """Full-length residual ``|| v - R(q_eb) w ||`` in metres."""
    predicted = rotate(q_eb, obs.w)
    return (obs.v - predicted).norm()


def _rotations_eb(q_be: np.ndarray) -> np.ndarray:
    """Body->ENU rotations (P, 3, 3) from raw ENU->body eigenvectors (P, 4).

    Each matrix is the transpose of R(q), so sign and scale of ``q`` are free.
    """
    x, y, z, w = (q_be / np.linalg.norm(q_be, axis=1)[:, None]).T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array(
        (
            1.0 - 2.0 * (yy + zz), 2.0 * (xy + wz), 2.0 * (xz - wy),
            2.0 * (xy - wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz + wx),
            2.0 * (xz + wy), 2.0 * (yz - wx), 1.0 - 2.0 * (xx + yy),
        )
    ).T.reshape(-1, 3, 3)


@functools.lru_cache(maxsize=32)
def _pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``(i, j)``, ``i < j``, of m observations, in that order."""
    p0, p1 = np.triu_indices(m, 1)
    p0.flags.writeable = p1.flags.writeable = False
    return p0, p1


def ransac_attitude(
    observations: Baselines | Iterable[VectorObservation], params: RansacParams
) -> RobustAttitudeResult:
    """Consensus attitude over baseline observations.

    Raises InsufficientDataError when fewer than two fixed observations
    exist, and DegenerateGeometryError when no pair of them passes both the
    angle screen and the eigen-gap check.
    """
    if not isinstance(observations, Baselines):
        observations = Baselines.of(observations)
    candidates = observations.fixed_only()
    m = len(candidates)
    if m < 2:
        raise InsufficientDataError("RANSAC needs at least 2 fixed baseline observations")

    vs, ws = candidates.v, candidates.w
    w_len = np.linalg.norm(ws, axis=1)
    vs_hat = vs / np.linalg.norm(vs, axis=1)[:, None]
    ws_hat = ws / w_len[:, None]

    # Every pair in (i, j) order, minus the near-collinear body baselines.
    p0, p1 = _pair_indices(m)
    u0, u1 = ws_hat[p0], ws_hat[p1]
    cross = u0[:, _YZX] * u1[:, _ZXY] - u0[:, _ZXY] * u1[:, _YZX]
    keep = np.sqrt((cross * cross).sum(axis=1)) >= math.sin(math.radians(MIN_PAIR_ANGLE_DEG))
    p0, p1 = p0[keep], p1[keep]
    a0 = (w_len[p0] / (w_len[p0] + w_len[p1]))[:, None, None]
    b = a0 * ws_hat[p0, :, None] * vs_hat[p0, None, :] + (
        (1.0 - a0) * ws_hat[p1, :, None] * vs_hat[p1, None, :]
    )
    _, q_be, gap = _dominant_eigenpairs(_davenport_k(b))
    # A pair with a degenerate eigen gap (collinear measured baselines behind
    # well-separated body baselines) yields no rotation and is not scored.
    solved = gap >= EIGEN_GAP_TOL
    hypotheses = int(solved.sum())
    if hypotheses == 0:
        raise DegenerateGeometryError("no baseline pair with an observable rotation")

    r_eb = _rotations_eb(q_be[solved])
    res = np.linalg.norm(vs - ws @ r_eb.transpose(0, 2, 1), axis=2)
    inlier = res <= params.inlier_threshold_m
    count = inlier.sum(axis=1)
    sres = np.where(inlier, res, 0.0).sum(axis=1)
    # Most inliers, then smallest residual sum; exact ties go to the first pair.
    mask = inlier[np.lexsort((sres, -count))[0]]

    if int(mask.sum()) >= params.min_inliers:
        consensus = candidates.select(mask)
        solution = estimate_attitude(consensus)
        inliers = consensus.pair_set()
    else:
        solution = AttitudeSolution.unavailable()
        inliers = frozenset()
    return RobustAttitudeResult(
        solution=solution,
        inlier_pairs=inliers,
        outlier_pairs=observations.pair_set() - inliers,
        iterations_used=hypotheses,
    )
