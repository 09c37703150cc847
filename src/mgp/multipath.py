"""Multipath detection from cross-antenna SNR disagreement.

Antennas sit within a couple of metres of each other, so a satellite seen by
direct line of sight shows nearly the same carrier SNR at every antenna. A
reflected signal interferes constructively at one mount point and
destructively at another, so its SNR scatters across the array. The
per-satellite population standard deviation

    sigma_snr = sqrt((1/N) * sum_n (SNR_n - mean)^2)

over the N antennas tracking the satellite is therefore a direct multipath
discriminator: flag the satellite when sigma_snr exceeds a threshold, given
enough antennas track it to make the statistic meaningful.

An epoch's SNR travels as one :class:`SnrTable`, an (s, n) matrix with NaN
where an antenna does not track a satellite, and every satellite is scored
in the same array pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .core import first_repeat, sum_rows
from .errors import InsufficientDataError, ValidationError

SNR_MIN_DBHZ = 10.0
SNR_MAX_DBHZ = 60.0

DEFAULT_SD_THRESHOLD_DBHZ = 4.0
DEFAULT_MIN_ANTENNA_COUNT = 4


@dataclass(frozen=True, eq=False)
class SnrTable:
    """The SNR of one epoch: ``dbhz`` (s, n) holds satellite ``sat_ids[k]``
    in row k and antenna j + 1 in column j, NaN where it is not tracked.
    Build from outside data with :meth:`checked`."""

    sat_ids: tuple[str, ...]
    dbhz: np.ndarray

    @classmethod
    def checked(cls, sat_ids: tuple[str, ...], dbhz: np.ndarray) -> SnrTable:
        """Build after checking every row: a non-empty satellite id, at least
        one tracking antenna, and every value within [SNR_MIN_DBHZ,
        SNR_MAX_DBHZ]."""
        if dbhz.ndim != 2 or len(dbhz) != len(sat_ids):
            raise ValidationError("SNR needs one row per satellite")
        if not all(sat_ids):
            raise ValidationError("satellite id must be non-empty")
        untracked = np.isnan(dbhz).all(axis=1)
        if untracked.any():
            sat = sat_ids[np.flatnonzero(untracked)[0]]
            raise ValidationError(f"{sat}: no antenna tracks this satellite")
        bad = (dbhz < SNR_MIN_DBHZ) | (dbhz > SNR_MAX_DBHZ)  # NaN is neither
        if bad.any():
            k, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"{sat_ids[k]}: SNR {dbhz[k, j]} outside [{SNR_MIN_DBHZ}, {SNR_MAX_DBHZ}] dB-Hz"
            )
        return cls(sat_ids, dbhz)

    def __len__(self) -> int:
        return len(self.sat_ids)


@dataclass(frozen=True, eq=False)
class MultipathReport:
    """Detection outcome for one epoch, one entry per satellite of ``sat_ids``.

    ``sigma_snr`` is NaN where fewer than two antennas track the satellite,
    and ``n_antennas`` counts the antennas that do. ``verdict`` is 0 (clean),
    1 (multipath: the spread exceeds the threshold) or 2 (unknown: too few
    antennas). ``excluded_sats`` contains exactly the satellites of verdict 1.
    """

    sat_ids: tuple[str, ...]
    sigma_snr: np.ndarray
    n_antennas: np.ndarray
    verdict: np.ndarray
    excluded_sats: frozenset[str]


def _spread(dbhz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population SD of each row's tracked values (NaN below two) and the
    number of tracked values.

    Sums run left to right over the columns (:func:`mgp.core.sum_rows`) and
    squares use libm ``pow`` as Python's ``**`` does, so each SD is bitwise
    the scalar two-pass formula over that row's values in antenna order.
    """
    tracked = ~np.isnan(dbhz)
    count = tracked.sum(axis=1)
    x = np.where(tracked, dbhz, 0.0)
    dev = np.where(tracked, x - (sum_rows(x) / count)[:, None], 0.0)
    var = sum_rows(np.float_power(dev, 2.0))
    return np.where(count >= 2, np.sqrt(var / count), np.nan), count


def classify(
    dbhz: np.ndarray, threshold_dbhz: float, min_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``sigma_snr``, ``n_antennas`` and ``verdict`` columns of a
    :class:`MultipathReport` for the rows of ``dbhz``. Each row is scored on
    its own, so the rows of several epochs stacked score as each epoch alone."""
    sigma, count = _spread(dbhz)
    flagged = sigma > threshold_dbhz
    return sigma, count, np.where(count < min_count, 2, flagged.astype(np.int8))


def snr_sd(values: Sequence[float]) -> float:
    """Population standard deviation (divide by N, not N-1)."""
    if len(values) < 2:
        raise InsufficientDataError("SNR spread needs at least 2 values")
    return float(_spread(np.array([values], dtype=np.float64))[0][0])


def detect_multipath(
    snr: SnrTable,
    threshold_dbhz: float = DEFAULT_SD_THRESHOLD_DBHZ,
    min_count: int = DEFAULT_MIN_ANTENNA_COUNT,
) -> MultipathReport:
    """Classify every satellite by its cross-antenna SNR spread.

    Satellites tracked by fewer than ``min_count`` antennas stay unknown
    (never excluded): the spread of a couple of samples says nothing. An
    empty table yields an empty report.
    """
    if not (threshold_dbhz > 0.0):
        raise ValidationError("threshold must be positive")
    if min_count < 2:
        raise ValidationError("min_count must be at least 2")
    sat_ids = snr.sat_ids
    dup = first_repeat(sat_ids)
    if dup is not None:
        raise ValidationError(f"duplicate SNR row for satellite {dup}")
    sigma, count, verdict = classify(snr.dbhz, threshold_dbhz, min_count)
    excluded = frozenset(compress(sat_ids, (verdict == 1).tolist()))
    return MultipathReport(sat_ids, sigma, count, verdict, excluded)
