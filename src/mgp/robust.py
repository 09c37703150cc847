"""Consensus wrapper around the Q-method attitude estimator.

Wrong-fix baselines are metre-level gross errors, not noise, so the plain
weighted solve tilts under them. The wrapper solves a candidate rotation from
every pair of fixed baselines, scores each by how many full-length baselines
it reproduces within the inlier threshold, and refits on the winning
consensus set. Observations flagged non-fixed never enter the candidate pool;
they are reported as outliers directly.

Six antennas give at most 15 baselines and so at most 105 pairs, few enough
to count all of them: there is no sampling, no seed and no iteration cap, and
the result depends only on the observations and the thresholds.

:func:`consensus` runs the search over a block of epochs at once. A pair
hypothesis is the optimal attitude from two vector measurements, which has a
closed form (Markley, "Fast quaternion attitude estimation from two vector
measurements", JGCD 25(2), 2002), and so does its eigen gap, so every pair of
the block is screened and counted in one pass of array operations with no
eigen solve. Most epochs hold no wrong fix, and there the first hypothesis
already reproduces every baseline; then so does every winner, and the rest
of the search cannot change the consensus set. A baseline whose measured
length is off its body length by more than the threshold is an inlier of
no rotation, so the same holds for a hypothesis that reproduces every other
baseline. So one hypothesis per epoch, the first of two baselines of the
right length, is rotated and scored first (early verification, as in Matas
and Chum, "Randomized RANSAC with T(d,d) test", 2002, made exact here), and
only the epochs it leaves open have all their hypotheses rotated, put into
per-epoch slots and scored against their epoch's rows by broadcasting, on
one (E, M, S) residual array. Rotations come from
:func:`mgp.core.quat_to_matrix`; the winning consensus sets are refitted
with one stacked eigen solve. Every step acts on each hypothesis or epoch
alone, with sums in row order, so an epoch's result does not depend on the
block it was solved in, nor on whether one hypothesis settled it;
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

# Blocks with fewer pair hypotheses than this in all are searched in full:
# there the fixed cost of trying one hypothesis per epoch first is about
# what it saves. On blocks of 1 to 32 epochs of four, five and six antennas
# the try began to pay between 150 and 250 hypotheses a block; a block of
# 32 three-antenna epochs has at most 96.
_PROBE_MIN_HYPOTHESES = 200
# |v - R w| is at least ||v| - |w||, so a baseline whose two lengths differ
# by more than the inlier threshold is an inlier of no rotation. A computed
# residual is off by a few units in the last place of the lengths, so the
# search counts a baseline as such only past the threshold by this share of
# them as well, far beyond any rounding.
_STRAY_SLACK = 1e-9

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
    are never inliers. ``iterations_used`` is the number of pair hypotheses:
    fixed baseline pairs that pass the angle screen and the eigen-gap check,
    whether or not the search had to score them.
    """

    solution: AttitudeSolution
    inlier_pairs: frozenset[tuple[int, int]]
    iterations_used: int


class Consensus(NamedTuple):
    """Outcome of :func:`consensus` for a block of E epochs.

    ``hypotheses`` (E,) counts each epoch's pair hypotheses, the pairs that
    pass the angle screen and the eigen-gap check; :func:`consensus` scores
    only as many of them as the outcome needs.
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


def _residuals(rot: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(E, M, S) residuals of S rotations per epoch, (9, E, 1, S), against
    each epoch's rows, (3, E, M, 1): each |v - (r0 w0 + r1 w1 + r2 w2)|
    summed in that order, built in place in three buffers."""
    shape = (v.shape[1], v.shape[2], rot.shape[3])
    sq, d, term = np.zeros(shape), np.empty(shape), np.empty(shape)
    for row in range(3):
        r = rot[3 * row: 3 * row + 3]
        np.multiply(r[0], w[0], out=d)
        d += np.multiply(r[1], w[1], out=term)
        d += np.multiply(r[2], w[2], out=term)
        np.subtract(v[row], d, out=d)
        sq += np.multiply(d, d, out=d)
    return np.sqrt(sq, out=sq)


def _search(
    rot: np.ndarray, ep: np.ndarray, hypotheses: np.ndarray,
    v: np.ndarray, w: np.ndarray, valid: np.ndarray, params: RansacParams,
) -> np.ndarray:
    """Every hypothesis of E epochs scored against all rows of its epoch:
    the rows (E, M) each epoch's winner takes, all False where that is fewer
    than ``min_inliers``. ``rot`` (9, H) holds the hypotheses by epoch,
    ``ep`` their epochs; ``v``, ``w`` (3, E, M) and ``valid`` (E, M) the
    rows.

    The rotations go to per-epoch slots, (9, E, 1, S) for the most
    hypotheses S any epoch has (at least one slot, unscored when empty), and
    the rows stand as (3, E, M, 1). The winner has the most inliers, then
    the smallest residual sum; exact ties go to the first slot, which holds
    the first pair.
    """
    n_ep = len(hypotheses)
    slot = np.arange(len(ep)) - (np.cumsum(hypotheses) - hypotheses)[ep]
    n_slots = max(1, int(hypotheses.max(initial=0)))
    slots = np.zeros((9, n_ep, 1, n_slots))
    slots[:, ep, 0, slot] = rot
    res = _residuals(slots, v[..., None], w[..., None])
    inlier = (res <= params.inlier_threshold_m) & valid[:, :, None]
    # (E, S) counts and residual sums over the rows, each in row order; an
    # unscored slot counts -1
    count = np.where(np.arange(n_slots) < hypotheses[:, None], inlier.sum(axis=1), -1)
    sres = sum_rows(np.where(inlier, res, 0.0))
    top = count.max(axis=1)
    best = np.where(count == top[:, None], sres, np.inf).argmin(axis=1)
    return inlier[np.arange(n_ep), :, best] & (top >= params.min_inliers)[:, None]


def _pair_rotations(pairs: tuple[np.ndarray, ...], cols: np.ndarray) -> np.ndarray:
    """(9, H) body->ENU rotations of the pair hypotheses in columns ``cols``
    of ``pairs``: b1, b2, b1 x b2, its norm, r1, r2, r1 x r2, its norm, a1
    and a2, each (3, P) or (P,), in that order (see
    :func:`_pair_quaternions`). Where ``cols`` is every column, nothing is
    copied. Each rotation is R(q)^T of the normalized q, R[i][k] in row
    i * 3 + k."""
    if len(cols) < len(pairs[3]):
        pairs = tuple(np.take(x, cols, axis=-1) for x in pairs)
    b1, b2, bx, b_sin, r1, r2, rx, r_sin, a1, a2 = pairs
    q = _pair_quaternions(b1, b2, bx / b_sin, r1, r2, rx / r_sin, a1, a2)
    return quat_to_matrix((q / np.sqrt(_dot(q, q) + q[3] * q[3])).T).T.reshape(9, -1)


def _settle_then_search(
    pairs: tuple[np.ndarray, ...], cols: np.ndarray, ep: np.ndarray, clean: np.ndarray,
    hypotheses: np.ndarray, v: np.ndarray, w: np.ndarray, valid: np.ndarray,
    stray: np.ndarray, params: RansacParams,
) -> np.ndarray:
    """:func:`_search`'s outcome, settling what epochs it can on one
    hypothesis first. ``cols`` picks the hypotheses among the block's
    screened ``pairs`` (see :func:`_pair_rotations`), by epoch, ``ep`` gives
    their epochs and ``clean`` marks those of two rows that are not
    ``stray`` (E, M), an inlier of no rotation.

    No winner takes more than an epoch's other rows, so an epoch with fewer
    of them than ``min_inliers`` is settled with no winner. In the others,
    the first clean hypothesis is rotated and scored; where it takes every
    row but the stray ones, so does every winner, and the epoch is settled
    with that set. Only the epochs left open have all their hypotheses
    rotated and scored. Each rotation and residual is the one the full
    search computes, element by element with the same operations.
    """
    kept = valid & ~stray
    open_ = (hypotheses > 0) & (kept.sum(axis=1) >= params.min_inliers)
    tried = np.flatnonzero(clean & open_[ep])
    tried_ep = ep[tried]
    first = tried[tried_ep != np.append(-1, tried_ep[:-1])]
    probed = ep[first]
    rot = _pair_rotations(pairs, cols[first])[:, :, None, None]
    rows = (np.take(x, probed, axis=1)[..., None] for x in (v, w))
    taken = (_residuals(rot, *rows)[..., 0] <= params.inlier_threshold_m) & valid[probed]
    settles = (taken | ~kept[probed]).all(axis=1)
    inliers = np.zeros(valid.shape, dtype=bool)
    inliers[probed[settles]] = taken[settles]
    open_[probed[settles]] = False
    rest = np.flatnonzero(open_)
    if len(rest):
        rot = _pair_rotations(pairs, cols[open_[ep]])
        rest_ep = np.repeat(np.arange(len(rest)), hypotheses[rest])
        v, w = (np.take(x, rest, axis=1) for x in (v, w))
        inliers[rest] = _search(rot, rest_ep, hypotheses[rest], v, w, valid[rest], params)
    return inliers


def consensus(baselines: Baselines, ends: Sequence[int], params: RansacParams) -> Consensus:
    """Consensus attitude of a block of epochs given by their fixed
    baselines, epoch k's (at least two) in rows ``ends[k]:ends[k + 1]``.

    Per epoch: every pair ``(i, j)`` of its baselines that passes the angle
    screen and the eigen-gap check is a hypothesis; the one reproducing the
    most baselines within the inlier threshold wins, then the smallest
    inlier residual sum, then the first pair. A winner with at least
    ``min_inliers`` inliers is refitted on them.

    A baseline whose measured length is off its body length by more than
    the threshold is reproduced by no rotation. Where one hypothesis, an
    epoch's first of two other baselines, reproduces all its other
    baselines, every winner does, so the search stops there: the epoch's
    other hypotheses are counted but never rotated or scored. An epoch with
    fewer other baselines than ``min_inliers`` has no winner to refit and
    is not searched at all. Only the epochs left are searched in full. A
    block of fewer than ``_PROBE_MIN_HYPOTHESES`` hypotheses in all, such as
    one of 32 three-antenna epochs (at most 96), is searched in full at
    once.
    """
    rows = np.diff(ends)
    n_ep, width = len(rows), int(rows.max(initial=0))
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
    v_len, w_len = np.sqrt(_dot(v, v)), np.sqrt(_dot(w, w))
    v_hat = v / v_len
    w_hat = w / w_len

    # Every pair of each epoch's own rows, in (epoch, i, j) order, minus the
    # near-collinear body baselines. i and j index the rows of the (E, M)
    # grid flat; np.take copies columns as fancy indexing does, at a third
    # of its cost.
    p0, p1 = _pair_indices(width)
    ep, pair = np.nonzero(p1 < rows[:, None])
    i, j = ep * width + p0[pair], ep * width + p1[pair]
    r1, r2 = (np.take(w_hat.reshape(3, -1), k, axis=1) for k in (i, j))
    rx = _cross(r1, r2)
    r_sin = np.sqrt(_dot(rx, rx))
    keep = np.flatnonzero(r_sin >= _MIN_PAIR_SIN)
    ep, i, j, r_sin = ep[keep], i[keep], j[keep], r_sin[keep]
    r1, r2, rx = (np.take(x, keep, axis=1) for x in (r1, r2, rx))
    b1, b2 = (np.take(v_hat.reshape(3, -1), k, axis=1) for k in (i, j))
    bx = _cross(b1, b2)
    b_sin = np.sqrt(_dot(bx, bx))
    w_len_i, w_len_j = w_len.ravel()[i], w_len.ravel()[j]
    a1 = w_len_i / (w_len_i + w_len_j)
    a2 = 1.0 - a1
    # A pair with a degenerate eigen gap (collinear measured baselines behind
    # well-separated body baselines) yields no rotation and is not counted.
    cols = np.flatnonzero(_pair_gap(b1, b2, b_sin, _dot(r1, r2), r_sin, a1, a2) >= EIGEN_GAP_TOL)
    ep = ep[cols]
    hypotheses = np.bincount(ep, minlength=n_ep)
    pairs = (b1, b2, bx, b_sin, r1, r2, rx, r_sin, a1, a2)
    if len(ep) < _PROBE_MIN_HYPOTHESES:
        inliers = _search(_pair_rotations(pairs, cols), ep, hypotheses, v, w, valid, params)
    else:
        # the rows that no rotation takes (see _STRAY_SLACK)
        stray = valid & (
            np.abs(v_len - w_len) - params.inlier_threshold_m > _STRAY_SLACK * (v_len + w_len)
        )
        clean = ~(stray.ravel()[i[cols]] | stray.ravel()[j[cols]])
        inliers = _settle_then_search(
            pairs, cols, ep, clean, hypotheses, v, w, valid, stray, params
        )

    # every winner takes at least min_inliers >= 2 rows
    refitted = inliers.any(axis=1)
    lam, gap, weights_sum = np.full(n_ep, np.nan), np.full(n_ep, np.nan), np.full(n_ep, np.nan)
    q_be = np.full((n_ep, 4), np.nan)
    if refitted.any():
        # the refit takes (E, M, 3) rows, as estimate_attitude passes them
        v_e = np.ascontiguousarray(v[:, refitted].transpose(1, 2, 0))
        w_e = np.ascontiguousarray(w[:, refitted].transpose(1, 2, 0))
        lam[refitted], q_be[refitted], gap[refitted], weights_sum[refitted] = refit(
            v_e, w_e, inliers[refitted]
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
