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

The eigen solve goes through ``numpy.linalg.eigh``. Its helpers accept a
stack of matrices as well as a single one, so the RANSAC wrapper builds every
two-baseline hypothesis of an epoch as one (P, 4, 4) array and solves them
in a single call; the inlier refit and ``solve_max_eigenpair`` use the same
path with one matrix.

An epoch's observations travel as one :class:`Baselines` record of arrays;
:class:`VectorObservation` is the one-baseline view for callers that want
objects, and the estimators accept either form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import UnitQuaternion, Vec3
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
    return _length_weights(np.array([o.w.as_array() for o in observations])).tolist()


def _length_weights(ws: np.ndarray) -> np.ndarray:
    # Each length as Vec3.norm forms it and the total as a left-to-right
    # Python sum, so list and array callers get bitwise the same weights.
    lengths = np.sqrt(ws[:, 0] * ws[:, 0] + ws[:, 1] * ws[:, 1] + ws[:, 2] * ws[:, 2])
    return lengths / sum(lengths.tolist())


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
    return _weighted_k(vs, ws, np.asarray(weights, dtype=np.float64))


def _weighted_k(vs: np.ndarray, ws: np.ndarray, a: np.ndarray) -> np.ndarray:
    vs = vs / np.linalg.norm(vs, axis=1)[:, None]
    ws = ws / np.linalg.norm(ws, axis=1)[:, None]
    return _davenport_k((ws * a[:, None]).T @ vs)


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
    whole stack goes through a single LAPACK call.
    """
    vals, vecs = np.linalg.eigh(k)
    return vals[..., 3], vecs[..., :, 3], vals[..., 3] - vals[..., 2]


def _max_eigenpair(k: np.ndarray) -> tuple[float, np.ndarray]:
    lam, q, gap = _dominant_eigenpairs(k)
    if gap < EIGEN_GAP_TOL:
        raise DegenerateGeometryError(
            f"dominant eigenvalue separated by only {gap:.3e}; geometry is degenerate"
        )
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
    weights = _length_weights(fixed.w)
    lam, q_be = _max_eigenpair(_weighted_k(fixed.v, fixed.w, weights))
    q_eb = UnitQuaternion.from_array(q_be * np.array((-1.0, -1.0, -1.0, 1.0)))
    return AttitudeSolution(
        available=True,
        q=q_eb,
        lambda_max=lam,
        weights_sum=sum(weights.tolist()),
        used_observations=tuple(map(tuple, fixed.pairs.tolist())),
    )
