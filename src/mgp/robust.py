"""Consensus wrapper around the Q-method attitude estimator.

Wrong-fix baselines are metre-level gross errors, not noise, so the plain
weighted solve tilts under them. The wrapper solves a candidate rotation from
every pair of fixed baselines, scores each by how many full-length baselines
it reproduces within the inlier threshold, and refits on the winning
consensus set. Observations flagged non-fixed never enter the candidate pool;
they are reported as outliers directly.

Six antennas give at most 15 baselines and so at most 105 pairs, few enough
to score all of them: there is no sampling, no seed and no iteration cap, and
the result depends only on the observations and the thresholds.

:func:`consensus` runs the search over a block of epochs at once. A pair
hypothesis is the optimal attitude from two vector measurements, which has a
closed form (Markley, "Fast quaternion attitude estimation from two vector
measurements", JGCD 25(2), 2002), and so does its eigen gap, so every pair of
the block is solved in one pass of array operations with no eigen solve.
Their rotations come from :func:`mgp.core.quat_to_matrix`. The block's
hypotheses are put into per-epoch slots and scored against their epoch's
rows by broadcasting, on one (E, M, S) residual array, and the winning
consensus sets refitted with one stacked eigen solve. Every step acts
on each hypothesis or epoch alone, with sums in row order, so an epoch's
result does not depend on the block it was solved in;
:func:`ransac_attitude` is the search on a block of one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .attitude import (
    EIGEN_GAP_TOL,
    AttitudeSolution,
    Baselines,
    estimate_attitude,  # unused here; perfbench/tracer.py traces it under this name
    refit,
    refit_solution,
)
from .core import quat_to_matrix, sum_rows
from .errors import DegenerateGeometryError, InsufficientDataError, ValidationError

# Body-baseline pairs separated by less than this angle are rejected as
# degenerate before they are solved.
MIN_PAIR_ANGLE_DEG = 5.0
_MIN_PAIR_SIN = math.sin(math.radians(MIN_PAIR_ANGLE_DEG))

# Half turns about the body x, y and z axes, each negating the other two
# components, and the quaternion product e_k * q each one composes as a
# signed permutation of (x, y, z, w). Both are exact in floating point.
_TURN = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
_TURN_ORDER = np.array([[3, 2, 1, 0], [2, 3, 0, 1], [1, 0, 3, 2]])
_TURN_SIGN = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, 1.0, -1.0]])


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
    ``min_inliers``; ``inlier_pairs`` is then empty. Non-fixed observations
    are never inliers. ``iterations_used`` is the number of pair hypotheses scored: fixed
    baseline pairs that pass the angle screen and the eigen-gap check.
    """

    solution: AttitudeSolution
    inlier_pairs: frozenset[tuple[int, int]]
    iterations_used: int


class Consensus(NamedTuple):
    """Outcome of :func:`consensus` for a block of E epochs.

    ``hypotheses`` (E,) counts each epoch's scored pair hypotheses.
    ``inliers`` (E, M) marks the winning consensus set, in the epoch's row
    order, where it reached ``min_inliers`` and is all False elsewhere; those
    epochs are ``refitted``, and ``lam``, ``q_be`` (E, 4), ``gap`` and
    ``weights_sum`` hold the refit's eigenvalue, raw ENU-to-body eigenvector,
    eigen gap and weight sum (NaN for the others).
    """

    hypotheses: np.ndarray
    inliers: np.ndarray
    refitted: np.ndarray
    lam: np.ndarray
    q_be: np.ndarray
    gap: np.ndarray
    weights_sum: np.ndarray

    @property
    def available(self) -> np.ndarray:
        """Epochs whose refit has a non-degenerate eigen gap."""
        return self.gap >= EIGEN_GAP_TOL


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the columns of two (3, N) arrays."""
    return np.array(
        (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (3, ...) arrays, summed in
    component order whatever the array's shape."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _pair_gap(
    b1: np.ndarray, b2: np.ndarray, b_sin: np.ndarray,
    r_dot: np.ndarray, r_sin: np.ndarray, a1: np.ndarray, a2: np.ndarray,
) -> np.ndarray:
    """Eigen gap of each two-vector Davenport matrix, in closed form.

    With unit measurements b1, b2 of unit references r1, r2, weights a1, a2
    and the angles tb = (b1, b2), tr = (r1, r2), the eigenvalues of K are
    +-sqrt(a1^2 + a2^2 + 2 a1 a2 cos(tb -+ tr)). The gap between the top two
    is therefore 4 a1 a2 sin(tb) sin(tr) / (sum of the two), which stays
    accurate as sin(tb) goes to zero, where eigh leaves rounding noise.
    ``b_sin`` is sin(tb); ``r_dot`` and ``r_sin`` are cos(tr) and sin(tr),
    with sin(tr) at least sin(MIN_PAIR_ANGLE_DEG), which keeps the sum of
    the two eigenvalues positive.
    """
    base, cos_cos, sin_sin = a1 * a1 + a2 * a2, _dot(b1, b2) * r_dot, b_sin * r_sin
    top = np.sqrt(base + 2.0 * a1 * a2 * (cos_cos + sin_sin))
    second = np.sqrt(np.maximum(base + 2.0 * a1 * a2 * (cos_cos - sin_sin), 0.0))
    return 4.0 * a1 * a2 * b_sin * r_sin / (top + second)


def _pair_quaternions(
    b1: np.ndarray, b2: np.ndarray, b3: np.ndarray,
    r1: np.ndarray, r2: np.ndarray, r3: np.ndarray, a1: np.ndarray, a2: np.ndarray,
) -> np.ndarray:
    """Raw ENU->body quaternions (4, P) of the optimal two-vector attitudes.

    Markley's closed form for measurements b1, b2 of references r1, r2,
    each (3, P), with unit normals b3 = b1 x b2 / |.|, r3 = r1 x r2 / |.|. It
    divides by 1 + b3.r3, so where the normals point apart the references
    are first turned half a turn about the body axis that brings r3 closest
    to b3 (leaving b3.r3 >= 0), and the turn is composed back afterwards.
    """
    overlap = b3 * r3
    turned = np.flatnonzero(_dot(b3, r3) < 0.0)
    axis = np.argmax(overlap[:, turned], axis=0)
    if len(turned):
        r1, r2, r3 = r1.copy(), r2.copy(), r3.copy()
        for r in (r1, r2, r3):
            r[:, turned] *= _TURN[axis].T
    s = a1 * _cross(b1, r1) + a2 * _cross(b2, r2)
    c = 1.0 + _dot(b3, r3)
    b3xr3, b3pr3 = _cross(b3, r3), b3 + r3
    alpha = c * (a1 * _dot(b1, r1) + a2 * _dot(b2, r2)) + _dot(b3xr3, s)
    beta = _dot(b3pr3, s)
    gamma = np.hypot(alpha, beta)
    # Markley's two branches, picked by the sign of alpha so that neither
    # divides by a small gamma - |alpha|.
    pos = alpha >= 0.0
    g = np.where(pos, gamma + alpha, beta)
    h = np.where(pos, beta, gamma - alpha)
    q = np.empty((4, len(c)))
    q[:3] = g * b3xr3 + h * b3pr3
    q[3] = g * c
    if len(turned):
        q[:, turned] = np.take_along_axis(q[:, turned], _TURN_ORDER[axis].T, axis=0)
        q[:, turned] *= _TURN_SIGN[axis].T
    return q


@functools.lru_cache(maxsize=32)
def _pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``(i, j)``, ``i < j``, of m observations, in that order."""
    p0, p1 = np.triu_indices(m, 1)
    p0.flags.writeable = p1.flags.writeable = False
    return p0, p1


def consensus(baselines: Baselines, ends: Sequence[int], params: RansacParams) -> Consensus:
    """Consensus attitude of a block of epochs given by their fixed
    baselines, epoch k's (at least two) in rows ``ends[k]:ends[k + 1]``.

    Per epoch: every pair ``(i, j)`` of its baselines that passes the angle
    screen and the eigen-gap check is a hypothesis; the one reproducing the
    most baselines within the inlier threshold wins, then the smallest
    inlier residual sum, then the first pair. A winner with at least
    ``min_inliers`` inliers is refitted on them.
    """
    rows = np.diff(ends)
    n_ep, width = len(rows), int(rows.max())
    valid = np.arange(width) < rows[:, None]
    # Vectors are stored one component per row, (3, E, M) for the block's
    # baselines, so that every array operation below runs along the long
    # axes. Padding rows hold a unit vector, so normalising them is
    # harmless; the masks keep them out of every score and sum.
    v = np.zeros((3, n_ep, width))
    v[0] = 1.0
    w = v.copy()
    v[:, valid] = baselines.v.T
    w[:, valid] = baselines.w.T
    w_len = np.sqrt(_dot(w, w))
    v_hat = v / np.sqrt(_dot(v, v))
    w_hat = w / w_len

    # Every pair of each epoch's own rows, in (epoch, i, j) order, minus the
    # near-collinear body baselines.
    p0, p1 = _pair_indices(width)
    ep, pair = np.nonzero(p1 < rows[:, None])
    i, j = p0[pair], p1[pair]
    r1, r2 = w_hat[:, ep, i], w_hat[:, ep, j]
    rx = _cross(r1, r2)
    r_sin = np.sqrt(_dot(rx, rx))
    keep = np.flatnonzero(r_sin >= _MIN_PAIR_SIN)
    ep, i, j, r_sin = ep[keep], i[keep], j[keep], r_sin[keep]
    r1, r2, rx = r1[:, keep], r2[:, keep], rx[:, keep]
    b1, b2 = v_hat[:, ep, i], v_hat[:, ep, j]
    bx = _cross(b1, b2)
    b_sin = np.sqrt(_dot(bx, bx))
    a1 = w_len[ep, i] / (w_len[ep, i] + w_len[ep, j])
    a2 = 1.0 - a1
    # A pair with a degenerate eigen gap (collinear measured baselines behind
    # well-separated body baselines) yields no rotation and is not scored.
    solved = _pair_gap(b1, b2, b_sin, _dot(r1, r2), r_sin, a1, a2) >= EIGEN_GAP_TOL
    b3 = bx / np.where(solved, b_sin, 1.0)
    q = _pair_quaternions(b1, b2, b3, r1, r2, rx / r_sin, a1, a2)
    ep = ep[solved]
    # (9, P) body->ENU rotations, R(q)^T of each normalized q: R[i][k] in row i * 3 + k
    q = q[:, solved]
    rot = quat_to_matrix((q / np.sqrt(_dot(q, q) + q[3] * q[3])).T).T.reshape(9, -1)

    # Score every hypothesis against all rows of its epoch by broadcasting:
    # the rotations go to per-epoch slots, (9, E, 1, S) for the most
    # hypotheses S any epoch has (at least one slot, unscored when empty),
    # and the rows stand as (3, E, M, 1).
    hypotheses = np.bincount(ep, minlength=n_ep)
    slot = np.arange(len(ep)) - (np.cumsum(hypotheses) - hypotheses)[ep]
    n_slots = max(1, int(hypotheses.max(initial=0)))
    slots = np.zeros((9, n_ep, 1, n_slots))
    slots[:, ep, 0, slot] = rot
    # Each residual is |v - (r0 w0 + r1 w1 + r2 w2)| summed in that order,
    # built in place in three (E, M, S) buffers.
    vb, wb = v[..., None], w[..., None]
    shape = (n_ep, width, n_slots)
    sq, d, term = np.zeros(shape), np.empty(shape), np.empty(shape)
    for row in range(3):
        r = slots[3 * row: 3 * row + 3]
        np.multiply(r[0], wb[0], out=d)
        d += np.multiply(r[1], wb[1], out=term)
        d += np.multiply(r[2], wb[2], out=term)
        np.subtract(vb[row], d, out=d)
        sq += np.multiply(d, d, out=d)
    res = np.sqrt(sq, out=sq)
    inlier = (res <= params.inlier_threshold_m) & valid[:, :, None]
    # (E, S) counts and residual sums over the rows, each in row order; an
    # unscored slot counts -1
    count = np.where(np.arange(n_slots) < hypotheses[:, None], inlier.sum(axis=1), -1)
    sres = sum_rows(np.where(inlier, res, 0.0))
    # Per epoch the most inliers, then the smallest residual sum; exact ties
    # go to the first slot, which holds the first pair.
    top = count.max(axis=1)
    best = np.where(count == top[:, None], sres, np.inf).argmin(axis=1)
    winners = np.flatnonzero(top >= params.min_inliers)

    inliers = np.zeros((n_ep, width), dtype=bool)
    inliers[winners] = inlier[winners, :, best[winners]]
    refitted = np.zeros(n_ep, dtype=bool)
    refitted[winners] = True
    lam, gap, weights_sum = np.full(n_ep, np.nan), np.full(n_ep, np.nan), np.full(n_ep, np.nan)
    q_be = np.full((n_ep, 4), np.nan)
    if len(winners):
        # the refit takes (E, M, 3) rows, as estimate_attitude passes them
        v_e = np.ascontiguousarray(v[:, winners].transpose(1, 2, 0))
        w_e = np.ascontiguousarray(w[:, winners].transpose(1, 2, 0))
        lam[winners], q_be[winners], gap[winners], weights_sum[winners] = refit(
            v_e, w_e, inliers[winners]
        )
    return Consensus(
        hypotheses=hypotheses,
        inliers=inliers,
        refitted=refitted,
        lam=lam,
        q_be=q_be,
        gap=gap,
        weights_sum=weights_sum,
    )


def ransac_attitude(observations: Baselines, params: RansacParams) -> RobustAttitudeResult:
    """Consensus attitude over one epoch's baseline observations.

    Raises InsufficientDataError when fewer than two fixed observations
    exist, and DegenerateGeometryError when no pair of them passes both the
    angle screen and the eigen-gap check, or when the consensus set itself
    is degenerate.
    """
    candidates = observations.fixed_only()
    m = len(candidates)
    if m < 2:
        raise InsufficientDataError("RANSAC needs at least 2 fixed baseline observations")

    found = consensus(candidates, [0, m], params)
    if found.hypotheses[0] == 0:
        raise DegenerateGeometryError("no baseline pair with an observable rotation")
    if found.refitted[0]:
        chosen = candidates.select(found.inliers[0])
        solution = refit_solution(
            found.lam[0], found.q_be[0], found.gap[0], found.weights_sum[0], chosen.pairs
        )
        inliers = chosen.pair_set()
    else:
        solution = AttitudeSolution.unavailable()
        inliers = frozenset()
    return RobustAttitudeResult(
        solution=solution,
        inlier_pairs=inliers,
        iterations_used=int(found.hypotheses[0]),
    )
