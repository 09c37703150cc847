"""The exhaustive consensus search: every hypothesis of every epoch rotated
and scored, as :func:`mgp.robust.consensus` ran before it settled epochs on
their first hypothesis. Kept as the reference of
``test_consensus_differential.py``, which holds the kernel to it bit for bit.

The pair side (``_pair_gap``, ``_pair_quaternions``) is the library's; its
own reference is the stacked ``eigh`` solve of ``test_ransac_differential.py``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from mgp.attitude import EIGEN_GAP_TOL, Baselines, refit
from mgp.core import quat_to_matrix, sum_rows
from mgp.robust import (
    _MIN_PAIR_SIN,
    Consensus,
    RansacParams,
    _cross,
    _dot,
    _pair_gap,
    _pair_indices,
    _pair_quaternions,
)


def exhaustive_consensus(
    baselines: Baselines, ends: Sequence[int], params: RansacParams
) -> Consensus:
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
