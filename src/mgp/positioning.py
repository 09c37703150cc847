"""Hybrid platform positioning from per-antenna GNSS solutions.

Every ambiguity-fixed antenna provides an independent centimetre-grade
position. With the platform attitude known, each one maps back to the body
origin through its lever arm, and the average over all fixed antennas is the
platform position:

    p = (1/N_fix) * sum_i (p_i - R q_i)

where ``q_i`` is the antenna's body-frame mount offset. Availability then
requires only one fixed antenna rather than one specific receiver. Float and
no-solution antennas never contribute.

An epoch's solutions travel as one :class:`Fixes` record of arrays, and the
mean is taken over its FIXED rows in one array expression;
:class:`FixSolution` is the one-antenna view for callers that want objects.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import AntennaLayout, UnitQuaternion, Vec3, quat_to_matrix
from .errors import ConfigurationError, ValidationError


class FixStatus(enum.Enum):
    """Ambiguity state of one antenna's relative-positioning solution."""

    FIXED = "fixed"
    FLOAT = "float"
    NONE = "none"


@dataclass(frozen=True)
class FixSolution:
    """One antenna's epoch solution. ``p`` is ENU metres from the reference."""

    antenna_id: int
    status: FixStatus
    p: Vec3 | None = None
    sats_used: int = 0

    def __post_init__(self) -> None:
        if self.antenna_id < 1:
            raise ValidationError("antenna ids are 1-based")
        if self.status is FixStatus.NONE and self.p is not None:
            raise ValidationError("a no-solution antenna cannot carry a position")
        if self.status is not FixStatus.NONE and self.p is None:
            raise ValidationError(f"{self.status.value} solution requires a position")
        if self.sats_used < 0:
            raise ValidationError("sats_used must be nonnegative")


# Grade codes of Fixes.grade: index into this tuple.
FIX_GRADES = (FixStatus.NONE, FixStatus.FLOAT, FixStatus.FIXED)
_GRADE_OF = {status: grade for grade, status in enumerate(FIX_GRADES)}
_NO_P = np.full(3, np.nan)


@dataclass(frozen=True, eq=False)
class Fixes:
    """The antenna solutions of one epoch as arrays.

    ``ids`` (n,) are 1-based antenna ids, ``grade`` (n,) indexes
    :data:`FIX_GRADES` (0 none, 1 float, 2 fixed), ``p`` (n, 3) holds ENU
    metres with a NaN row where the grade is 0, and ``sats_used`` (n,) counts
    the solution satellites. Build from outside data with :meth:`checked` or
    :meth:`of`; iterating yields :class:`FixSolution` views.
    """

    ids: np.ndarray
    grade: np.ndarray
    p: np.ndarray
    sats_used: np.ndarray

    @classmethod
    def checked(
        cls, ids: np.ndarray, grade: np.ndarray, p: np.ndarray, sats_used: np.ndarray
    ) -> Fixes:
        """Build after checking the :class:`FixSolution` rules on every row."""
        n = len(ids)
        if grade.shape != (n,) or sats_used.shape != (n,) or p.shape != (n, 3):
            raise ValidationError("fixes need (n,) ids, grades and counts and (n, 3) positions")
        if (ids < 1).any():
            raise ValidationError("antenna ids are 1-based")
        if (sats_used < 0).any():
            raise ValidationError("sats_used must be nonnegative")
        if not ((grade >= 0) & (grade <= 2)).all():
            raise ValidationError("fix grade must be 0, 1 or 2")
        empty = np.isnan(p).all(axis=1)
        if (~empty & (grade == 0)).any():
            raise ValidationError("a no-solution antenna cannot carry a position")
        unsolved = empty & (grade > 0)
        if unsolved.any():
            status = FIX_GRADES[grade[unsolved][0]]
            raise ValidationError(f"{status.value} solution requires a position")
        if not np.isfinite(p[~empty]).all():
            raise ValidationError("fix positions must be finite")
        return cls(ids, grade, p, sats_used)

    @classmethod
    def of(cls, solutions: Iterable[FixSolution]) -> Fixes:
        sols = list(solutions)
        return cls.checked(
            np.array([f.antenna_id for f in sols], dtype=np.int64),
            np.array([_GRADE_OF[f.status] for f in sols], dtype=np.int8),
            np.array([_NO_P if f.p is None else f.p.as_array() for f in sols]).reshape(-1, 3),
            np.array([f.sats_used for f in sols], dtype=np.int64),
        )

    @property
    def fixed(self) -> np.ndarray:
        return self.grade == 2

    def select(self, keep: np.ndarray) -> Fixes:
        """The rows where the bool mask ``keep`` is True."""
        return Fixes(self.ids[keep], self.grade[keep], self.p[keep], self.sats_used[keep])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[FixSolution]:
        rows = zip(self.ids.tolist(), self.grade.tolist(), self.p.tolist(), self.sats_used.tolist())
        for i, g, p, n in rows:
            yield FixSolution(i, FIX_GRADES[g], Vec3(*p) if g else None, n)


@dataclass(frozen=True)
class PositionSolution:
    """Platform position for one epoch.

    ``available`` is False when no fixed antenna could be mapped to the body
    origin; ``p`` is then absent.
    """

    available: bool
    p: Vec3 | None = None
    n_used: int = 0
    contributing_antennas: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.available and self.p is None:
            raise ValidationError("available position requires coordinates")
        if not self.available and self.p is not None:
            raise ValidationError("unavailable position cannot carry coordinates")
        if self.available != (self.n_used >= 1):
            raise ValidationError("available must hold exactly when n_used >= 1")
        if self.n_used != len(self.contributing_antennas):
            raise ValidationError("n_used must match the contributing antenna set")

    @classmethod
    def unavailable(cls) -> "PositionSolution":
        return cls(available=False)


def hybrid_position(
    fixes: Fixes | Iterable[FixSolution],
    attitude: UnitQuaternion | None,
    layout: AntennaLayout,
) -> PositionSolution:
    """Average body-origin position over all fixed antennas.

    Without an attitude the lever arms cannot be removed, so only an antenna
    mounted exactly at the body origin can still contribute (alone).
    """
    if not isinstance(fixes, Fixes):
        fixes = Fixes.of(fixes)
    ids = fixes.ids.tolist()
    if len(set(ids)) != len(ids):
        dup = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise ValidationError(f"duplicate solution for antenna {dup}")

    n = layout.antenna_count
    fixed = fixes.fixed
    fixed_ids = fixes.ids[fixed]
    if (fixed_ids > n).any():
        raise ConfigurationError(
            f"antenna {fixed_ids[fixed_ids > n][0]} has no layout entry (layout has {n})"
        )
    if not len(fixed_ids):
        return PositionSolution.unavailable()

    levers = layout.positions[fixed_ids - 1]
    p = fixes.p[fixed]
    if attitude is None:
        at_origin = np.flatnonzero(~levers.any(axis=1))
        if not len(at_origin):
            return PositionSolution.unavailable()
        k = at_origin[0]
        return PositionSolution(
            available=True,
            p=Vec3.from_array(p[k]),
            n_used=1,
            contributing_antennas=frozenset({int(fixed_ids[k])}),
        )

    # One matrix-vector product per lever arm (a stacked matmul), so each
    # rotated lever and the row-order sum match a per-antenna loop bitwise.
    rotated = (quat_to_matrix(attitude) @ levers[:, :, None])[:, :, 0]
    mean = (p - rotated).sum(axis=0) / len(fixed_ids)
    return PositionSolution(
        available=True,
        p=Vec3.from_array(mean),
        n_used=len(fixed_ids),
        contributing_antennas=frozenset(fixed_ids.tolist()),
    )
