"""Independent reference implementations used for cross-checking.

These deliberately share no code with the production estimators beyond the
core types and :class:`Baselines`: the attitude oracle solves a record's rows
by an SVD orthogonal Procrustes solve, not the 4x4 eigen path, and the
mapping budget is a closed-form error propagation. They are wired to the
``oracle`` CLI subcommand so results can be reproduced outside the test suite.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .attitude import Baselines
from .core import UnitQuaternion, matrix_to_quat
from .errors import DegenerateGeometryError, InsufficientDataError, ValidationError


def wahba_svd(observations: Baselines, weights: Sequence[float]) -> UnitQuaternion:
    """Orthogonal-Procrustes attitude solution (body -> ENU).

    Solves the same weighted alignment problem as the production estimator:
    find the rotation carrying body-frame reference baselines onto their
    measured ENU counterparts, via SVD of the weighted profile matrix with
    determinant sign correction.

    Args:
        observations: one epoch's baselines, (m, 3) ``v`` (measured, ENU)
            and ``w`` (reference, body); only the bool ``fixed`` rows are used.
        weights: one nonnegative weight per row.

    Returns:
        Canonical-sign quaternion mapping body to ENU.
    """
    a, fixed = np.asarray(weights, dtype=np.float64), observations.fixed
    if a.shape != (len(observations),) or fixed.shape != a.shape or fixed.dtype != bool:
        raise ValidationError("one weight and one bool fixed flag required per observation")
    if np.count_nonzero(fixed) < 2:
        raise InsufficientDataError("attitude needs at least 2 baseline observations")
    vs, ws, a = observations.v[fixed], observations.w[fixed], a[fixed]
    vn = np.linalg.norm(vs, axis=1)
    wn = np.linalg.norm(ws, axis=1)
    if np.any(vn <= 0.0) or np.any(wn <= 0.0):
        raise ValidationError("zero-length baseline vector")
    vs_hat = vs / vn[:, None]
    ws_hat = ws / wn[:, None]

    # R_eb maximizes sum_i a_i v_hat . (R w_hat): profile M = sum a v_hat w_hat^T
    m = (vs_hat * a[:, None]).T @ ws_hat
    u, s, vt = np.linalg.svd(m)
    d = float(np.linalg.det(u) * np.linalg.det(vt))
    # s[1] + d*s[2] ~ 0 means the rotation about the dominant axis is free
    if s[1] + d * s[2] < 1e-9 * max(1.0, s[0]):
        raise DegenerateGeometryError("baseline geometry leaves attitude unobservable")
    r_eb = u @ np.diag([1.0, 1.0, d]) @ vt
    return matrix_to_quat(r_eb)


def gain_scan(k: np.ndarray, n_samples: int, seed: int = 0) -> tuple[UnitQuaternion, float]:
    """Brute-force maximization of ``q^T K q`` over sampled unit quaternions.

    Args:
        k: 4x4 symmetric matrix.
        n_samples: number of uniformly sampled unit quaternions (>= 10_000).
        seed: RNG seed for the sample set.

    Returns:
        ``(best_q, best_gain)``; ``best_gain`` never exceeds the true maximum
        eigenvalue of ``k``.
    """
    if n_samples < 10_000:
        raise ValidationError("gain_scan needs at least 10000 samples")
    k = np.asarray(k, dtype=np.float64)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n_samples, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    gains = np.einsum("ni,ij,nj->n", q, k, q)
    best = int(np.argmax(gains))
    return UnitQuaternion.from_array(q[best]), float(gains[best])


def mapping_error_budget(sigma_pos_m: float, sigma_att_rad: float, altitude_m: float) -> float:
    """Predicted ground-point error SD from pose error magnitudes.

    ``sigma = sqrt(sigma_pos^2 + (altitude * sigma_att)^2)``: the attitude
    term is the lever of a small rotation error over the scan range.
    """
    if sigma_pos_m < 0.0 or sigma_att_rad < 0.0 or altitude_m < 0.0:
        raise ValidationError("error-budget inputs must be nonnegative")
    return math.sqrt(sigma_pos_m**2 + (altitude_m * sigma_att_rad) ** 2)
