"""Hybrid platform positioning from per-antenna GNSS solutions.

Every ambiguity-fixed antenna provides an independent centimetre-grade
position. With the platform attitude known, each one maps back to the body
origin through its lever arm, and the average over all fixed antennas is the
platform position:

    p = (1/N_fix) * sum_i (p_i - R q_i)

where ``q_i`` is the antenna's body-frame mount offset. Availability then
requires only one fixed antenna rather than one specific receiver. Float and
no-solution antennas never contribute.

An epoch's solutions travel as one :class:`Fixes` record of arrays.
:func:`fuse_positions` takes the mean for a block of epochs at once, as a
masked mean over an (E, n, 3) array summed in row order, and
:func:`hybrid_position` is that fusion on a block of one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import AntennaLayout, Rows, UnitQuaternion, Vec3, first_repeat, quat_to_matrix, sum_rows
from .errors import ConfigurationError, ValidationError


class FixStatus(enum.Enum):
    """Ambiguity state of one antenna's relative-positioning solution."""

    FIXED = "fixed"
    FLOAT = "float"
    NONE = "none"


# Grade codes of Fixes.grade: index into this tuple.
FIX_GRADES = (FixStatus.NONE, FixStatus.FLOAT, FixStatus.FIXED)


@dataclass(frozen=True, eq=False)
class Fixes(Rows):
    """The antenna solutions of one epoch as arrays.

    ``ids`` (n,) are 1-based antenna ids, ``grade`` (n,) indexes
    :data:`FIX_GRADES` (0 none, 1 float, 2 fixed), ``p`` (n, 3) holds ENU
    metres with a NaN row where the grade is 0, and ``sats_used`` (n,) counts
    the solution satellites. Build from outside data with :meth:`checked`.
    """

    ids: np.ndarray
    grade: np.ndarray
    p: np.ndarray
    sats_used: np.ndarray

    @classmethod
    def checked(
        cls, ids: np.ndarray, grade: np.ndarray, p: np.ndarray, sats_used: np.ndarray
    ) -> Fixes:
        """Build after checking every row: a 1-based id, a grade of 0, 1 or
        2, a finite position exactly where the grade is not 0, and a
        nonnegative satellite count."""
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

    @property
    def fixed(self) -> np.ndarray:
        return self.grade == 2


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


def check_unique_ids(fixes: Fixes) -> None:
    """Raise ValidationError when two solutions name the same antenna."""
    dup = first_repeat(fixes.ids.tolist())
    if dup is not None:
        raise ValidationError(f"duplicate solution for antenna {dup}")


def fuse_positions(
    p: np.ndarray, levers: np.ndarray, fixed: np.ndarray, r_eb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Body-origin positions of a block of E epochs.

    ``p`` and ``levers`` (E, n, 3) hold each epoch's antenna positions and
    body lever arms, ``fixed`` (E, n) marks its fixed rows and ``r_eb``
    (E, 3, 3) holds its body->ENU rotation, NaN where it has no attitude.
    With an attitude, every fixed antenna contributes; without one, only the
    first fixed antenna mounted exactly at the body origin can (alone).
    Returns the positions (E, 3) and the (E, n) mask of the rows that
    contributed; an epoch with none has no position.
    """
    has_att = ~np.isnan(r_eb[:, 0, 0])
    used = fixed & has_att[:, None]
    if not has_att.all():
        # epochs with an attitude use this row already
        at_origin = fixed & ~levers.any(axis=2)
        first = np.argmax(at_origin, axis=1)
        lone = np.flatnonzero(at_origin[np.arange(len(p)), first])
        used[lone, first[lone]] = True
        # a lever of zero rotates to zero exactly under any finite matrix
        r_eb = np.where(has_att[:, None, None], r_eb, 0.0)
    # One matrix-vector product per lever arm (a stacked matmul) and the
    # masked mean summed row by row, so each position matches a per-antenna
    # loop bitwise and does not depend on the block around it.
    rotated = (r_eb[:, None] @ levers[..., None])[..., 0]
    total = sum_rows(np.where(used[..., None], p - rotated, 0.0))
    return total / np.maximum(used.sum(axis=1), 1)[:, None], used


def hybrid_position(
    fixes: Fixes,
    attitude: UnitQuaternion | None,
    layout: AntennaLayout,
) -> PositionSolution:
    """Average body-origin position over all fixed antennas.

    Without an attitude the lever arms cannot be removed, so only an antenna
    mounted exactly at the body origin can still contribute (alone).
    """
    check_unique_ids(fixes)
    n = layout.antenna_count
    fixed_ids = fixes.ids[fixes.fixed]
    if (fixed_ids > n).any():
        raise ConfigurationError(
            f"antenna {fixed_ids[fixed_ids > n][0]} has no layout entry (layout has {n})"
        )
    if not len(fixed_ids):
        return PositionSolution.unavailable()

    r_eb = np.full((1, 3, 3), np.nan) if attitude is None else quat_to_matrix(attitude)[None]
    p, used = fuse_positions(
        fixes.p[fixes.fixed][None],
        layout.positions[fixed_ids - 1][None],
        np.ones((1, len(fixed_ids)), dtype=bool),
        r_eb,
    )
    if not used.any():
        return PositionSolution.unavailable()
    return PositionSolution(
        available=True,
        p=Vec3.from_array(p[0]),
        n_used=int(used.sum()),
        contributing_antennas=frozenset(fixed_ids[used[0]].tolist()),
    )
