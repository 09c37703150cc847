"""Attitude from GNSS baseline vectors via the Davenport Q-method.

Each relatively-positioned antenna pair contributes one vector observation:
the measured baseline ``v`` in ENU and the known rigid-body baseline ``w``
in body coordinates. The optimal rotation minimizes the weighted loss

    L(R) = 0.5 * sum_i a_i * || v_hat_i - R w_hat_i ||^2

which is equivalent to maximizing the gain ``g = 1 - L = q^T K q`` over unit
quaternions, so the answer is the dominant eigenvector of the symmetric 4x4
Davenport matrix ``K``. Weights follow baseline length: longer baselines
carry proportionally more angular information for the same carrier-phase
noise.

The eigen solve goes through ``numpy.linalg.eigh``. The weighted solve
works on a stack of E epochs at once, each holding its observations in the
rows of an (E, M, 3) array that a mask selects: the RANSAC wrapper refits the
winning consensus sets of a whole block of epochs with one (E, 4, 4) call,
and ``estimate_attitude`` is the same solve on a stack of one. A masked or
padding row carries zero weight, and each epoch's profile matrix is its own
product in the stacked matmul, so an epoch's solution does not depend on the
block it was solved in.

An epoch's observations travel as one :class:`Baselines` record of arrays;
:class:`VectorObservation` is the one-baseline view for callers that want
objects, and the estimators accept either form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import UnitQuaternion, Vec3, sum_rows, unit_quats
from .errors import DegenerateGeometryError, InsufficientDataError, ValidationError

# Distinct eigenvalues closer than this leave the maximizing quaternion
# direction numerically undetermined.
EIGEN_GAP_TOL = 1e-9


@dataclass(frozen=True)
class VectorObservation:
    """One baseline measurement: ENU vector ``v`` against body vector ``w``.

    ``antenna_pair`` is the ordered (from, to) pair of 1-based antenna ids;
    ``fixed`` records whether both endpoint solutions were ambiguity-fixed.
    Non-fixed observations are carried for bookkeeping but excluded from
    estimation.
    """

    v: Vec3
    w: Vec3
    antenna_pair: tuple[int, int]
    fixed: bool = True

    def __post_init__(self) -> None:
        if self.v.norm() <= 0.0 or self.w.norm() <= 0.0:
            raise ValidationError("baseline vectors must have positive length")
        a, b = self.antenna_pair
        if a == b:
            raise ValidationError("antenna pair must reference two distinct antennas")


@dataclass(frozen=True, eq=False)
class Baselines:
    """The baseline observations of one epoch as arrays.

    ``pairs`` (m, 2) holds the (from, to) antenna ids, ``v`` (m, 3) the
    measured ENU baselines, ``w`` (m, 3) the body baselines and ``fixed``
    (m,) the ambiguity state. Build from outside data with :meth:`checked` or
    :meth:`of`; iterating yields :class:`VectorObservation` views.
    """

    pairs: np.ndarray
    v: np.ndarray
    w: np.ndarray
    fixed: np.ndarray

    @classmethod
    def checked(
        cls, pairs: np.ndarray, v: np.ndarray, w: np.ndarray, fixed: np.ndarray
    ) -> Baselines:
        """Build after checking the :class:`VectorObservation` rules on every row."""
        m = len(pairs)
        if pairs.shape != (m, 2) or v.shape != (m, 3) or w.shape != (m, 3) or fixed.shape != (m,):
            raise ValidationError("baselines need (m, 2) pairs, (m, 3) vectors and (m,) flags")
        if not (((v * v).sum(axis=1) > 0.0).all() and ((w * w).sum(axis=1) > 0.0).all()):
            raise ValidationError("baseline vectors must have positive length")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValidationError("antenna pair must reference two distinct antennas")
        return cls(pairs, v, w, fixed)

    @classmethod
    def of(cls, observations: Iterable[VectorObservation]) -> Baselines:
        obs = list(observations)
        return cls.checked(
            np.array([o.antenna_pair for o in obs], dtype=np.int64).reshape(-1, 2),
            np.array([o.v.as_array() for o in obs]).reshape(-1, 3),
            np.array([o.w.as_array() for o in obs]).reshape(-1, 3),
            np.array([o.fixed for o in obs], dtype=bool),
        )

    def select(self, keep: np.ndarray) -> Baselines:
        """The rows where the bool mask ``keep`` is True."""
        return Baselines(self.pairs[keep], self.v[keep], self.w[keep], self.fixed[keep])

    def fixed_only(self) -> Baselines:
        return self if self.fixed.all() else self.select(self.fixed)

    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.pairs.tolist()))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[VectorObservation]:
        rows = zip(self.pairs.tolist(), self.v.tolist(), self.w.tolist(), self.fixed.tolist())
        for (a, b), v, w, fixed in rows:
            yield VectorObservation(Vec3(*v), Vec3(*w), (a, b), fixed)


@dataclass(frozen=True)
class AttitudeSolution:
    """Result of one attitude solve.

    ``q`` maps body to ENU. ``lambda_max`` is the dominant eigenvalue of the
    Davenport matrix (at most the weight sum, with equality only for a
    perfectly consistent observation set).
    """

    available: bool
    q: UnitQuaternion | None = None
    lambda_max: float | None = None
    weights_sum: float | None = None
    used_observations: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.available and self.q is None:
            raise ValidationError("available solution requires a quaternion")
        if not self.available and self.q is not None:
            raise ValidationError("unavailable solution cannot carry a quaternion")
        if self.lambda_max is not None and self.weights_sum is not None:
            if self.lambda_max > self.weights_sum + 1e-9:
                raise ValidationError(
                    f"gain {self.lambda_max!r} exceeds the weight sum {self.weights_sum!r}"
                )

    @classmethod
    def unavailable(cls) -> "AttitudeSolution":
        return cls(available=False)


def baseline_weights(observations: Sequence[VectorObservation]) -> list[float]:
    """Normalized weights ``a_i = |w_i| / sum_j |w_j|`` (sum to one)."""
    if not observations:
        raise InsufficientDataError("no observations to weight")
    ws = np.array([o.w.as_array() for o in observations])[None]
    return _length_weights(ws, np.ones(ws.shape[:2], dtype=bool))[0].tolist()


def _length_weights(ws: np.ndarray, use: np.ndarray) -> np.ndarray:
    """(E, M) weights over the rows ``use`` selects in each epoch of the
    (E, M, 3) body baselines, zero elsewhere. Each length as Vec3.norm forms
    it, so list and array callers get bitwise the same weights."""
    lengths = np.sqrt(ws[..., 0] * ws[..., 0] + ws[..., 1] * ws[..., 1] + ws[..., 2] * ws[..., 2])
    lengths = np.where(use, lengths, 0.0)
    return lengths / sum_rows(lengths)[:, None]


def davenport_matrix(
    observations: Sequence[VectorObservation], weights: Sequence[float]
) -> np.ndarray:
    """Symmetric 4x4 gain matrix ``K`` with ``q^T K q = sum_i a_i w_hat_i . R(q) v_hat_i``.

    Directions are unit-normalized here, so callers pass raw baseline
    vectors. The dominant eigenvector of ``K`` is the ENU-to-body rotation
    (the inverse of the stored attitude).
    """
    if len(observations) < 2:
        raise InsufficientDataError("attitude needs at least 2 baseline observations")
    if len(weights) != len(observations):
        raise ValidationError("one weight required per observation")
    vs = np.array([o.v.as_array() for o in observations])
    ws = np.array([o.w.as_array() for o in observations])
    return _weighted_k(vs[None], ws[None], np.asarray(weights, dtype=np.float64)[None])[0]


def _weighted_k(vs: np.ndarray, ws: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(E, 4, 4) Davenport matrices of (E, M, 3) baselines under (E, M) weights."""
    vs = vs / np.linalg.norm(vs, axis=-1)[..., None]
    ws = ws / np.linalg.norm(ws, axis=-1)[..., None]
    return _davenport_k(np.matmul((ws * a[..., None]).swapaxes(-1, -2), vs))


def _davenport_k(b: np.ndarray) -> np.ndarray:
    """Davenport matrices from attitude profile matrices ``B = sum_i a_i w_i v_i^T``.

    Works on a single (3, 3) ``B`` or a stack of shape (..., 3, 3).
    """
    tr = b[..., 0, 0] + b[..., 1, 1] + b[..., 2, 2]
    k = np.empty(b.shape[:-2] + (4, 4), dtype=np.float64)
    k[..., :3, :3] = b + np.swapaxes(b, -1, -2)
    for i in range(3):
        k[..., i, i] -= tr
    # Off-diagonal sign makes q^T K q the gain under the rotation convention
    # R(q) v rather than the transposed (frame-transform) convention.
    k[..., 0, 3] = k[..., 3, 0] = b[..., 2, 1] - b[..., 1, 2]
    k[..., 1, 3] = k[..., 3, 1] = b[..., 0, 2] - b[..., 2, 0]
    k[..., 2, 3] = k[..., 3, 2] = b[..., 1, 0] - b[..., 0, 1]
    k[..., 3, 3] = tr
    return k


def _dominant_eigenpairs(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenvalue, its eigenvector and the gap to the runner-up.

    ``k`` is one symmetric 4x4 matrix or a stack of shape (..., 4, 4); the
    whole stack goes through a single LAPACK call, which solves each matrix
    exactly as it would alone.
    """
    vals, vecs = np.linalg.eigh(k)
    return vals[..., 3], vecs[..., :, 3], vals[..., 3] - vals[..., 2]


def _check_gap(gap: float) -> None:
    if gap < EIGEN_GAP_TOL:
        raise DegenerateGeometryError(
            f"dominant eigenvalue separated by only {gap:.3e}; geometry is degenerate"
        )


def _max_eigenpair(k: np.ndarray) -> tuple[float, np.ndarray]:
    lam, q, gap = _dominant_eigenpairs(k)
    _check_gap(gap)
    return float(lam), q


def solve_max_eigenpair(k: np.ndarray) -> tuple[float, UnitQuaternion]:
    """Dominant eigenpair of a symmetric 4x4 matrix.

    Raises DegenerateGeometryError when the top two eigenvalues are closer
    than EIGEN_GAP_TOL, which is how unobservable (collinear-baseline)
    geometry manifests.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (4, 4):
        raise ValidationError("K must be 4x4")
    if not np.allclose(k, k.T, atol=1e-9 * max(1.0, float(np.max(np.abs(k))))):
        raise ValidationError("K must be symmetric")
    lam, q = _max_eigenpair(0.5 * (k + k.T))
    return lam, UnitQuaternion.from_array(q)


def refit(
    vs: np.ndarray, ws: np.ndarray, use: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted Q-method over the rows ``use`` selects in each epoch of the
    (E, M, 3) measured and body baselines, every epoch holding at least one.

    Returns each epoch's dominant eigenvalue, raw ENU-to-body eigenvector
    (E, 4), eigen gap and weight sum; :func:`body_to_enu` turns the
    eigenvectors into attitudes.
    """
    a = _length_weights(ws, use)
    lam, q_be, gap = _dominant_eigenpairs(_weighted_k(vs, ws, a))
    return lam, q_be, gap, sum_rows(a)


def body_to_enu(q_be: np.ndarray) -> np.ndarray:
    """The (E, 4) body-to-ENU attitudes of (E, 4) raw ENU-to-body
    eigenvectors: conjugated, normalized and canonically signed."""
    return unit_quats(q_be * np.array((-1.0, -1.0, -1.0, 1.0)))


def refit_solution(
    lam: float, q_be: np.ndarray, gap: float, weights_sum: float, pairs: np.ndarray
) -> AttitudeSolution:
    """One epoch's :func:`refit` outcome as a solution over the antenna
    ``pairs`` it used; raises DegenerateGeometryError on a degenerate gap."""
    _check_gap(gap)
    return AttitudeSolution(
        available=True,
        q=UnitQuaternion(*body_to_enu(q_be[None])[0].tolist()),
        lambda_max=float(lam),
        weights_sum=float(weights_sum),
        used_observations=tuple(map(tuple, pairs.tolist())),
    )


def estimate_attitude(
    observations: Baselines | Iterable[VectorObservation],
) -> AttitudeSolution:
    """Weighted Q-method attitude from the fixed observations.

    The eigen solve yields the ENU-to-body quaternion; the returned solution
    stores its conjugate so ``q`` rotates body vectors into ENU.
    """
    if not isinstance(observations, Baselines):
        observations = Baselines.of(observations)
    fixed = observations.fixed_only()
    if len(fixed) < 2:
        raise InsufficientDataError("attitude needs at least 2 fixed baseline observations")
    found = refit(fixed.v[None], fixed.w[None], np.ones((1, len(fixed)), dtype=bool))
    return refit_solution(*(x[0] for x in found), fixed.pairs)
