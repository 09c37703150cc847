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
in the same array pass. :class:`SnrRow` is the one-satellite view for callers
that want objects.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InsufficientDataError, ValidationError

SNR_MIN_DBHZ = 10.0
SNR_MAX_DBHZ = 60.0

DEFAULT_SD_THRESHOLD_DBHZ = 4.0
DEFAULT_MIN_ANTENNA_COUNT = 4


class MultipathVerdict(enum.Enum):
    """Classification of one satellite at one epoch."""

    CLEAN = "clean"
    MULTIPATH = "multipath"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SnrRow:
    """SNR of one satellite across the array; ``None`` where untracked."""

    sat_id: str
    snr_dbhz: tuple[float | None, ...]

    def __post_init__(self) -> None:
        if not self.sat_id:
            raise ValidationError("satellite id must be non-empty")
        present = [s for s in self.snr_dbhz if s is not None]
        if not present:
            raise ValidationError(f"{self.sat_id}: no antenna tracks this satellite")
        for s in present:
            if not (SNR_MIN_DBHZ <= s <= SNR_MAX_DBHZ):
                raise ValidationError(
                    f"{self.sat_id}: SNR {s} outside [{SNR_MIN_DBHZ}, {SNR_MAX_DBHZ}] dB-Hz"
                )


@dataclass(frozen=True, eq=False)
class SnrTable:
    """The SNR of one epoch: ``dbhz`` (s, n) holds satellite ``sat_ids[k]``
    in row k and antenna j + 1 in column j, NaN where it is not tracked.
    Build from outside data with :meth:`checked` or :meth:`of`; iterating
    yields :class:`SnrRow` views."""

    sat_ids: tuple[str, ...]
    dbhz: np.ndarray

    @classmethod
    def checked(cls, sat_ids: tuple[str, ...], dbhz: np.ndarray) -> SnrTable:
        """Build after checking the :class:`SnrRow` rules on every row."""
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

    @classmethod
    def of(cls, rows: Iterable[SnrRow]) -> SnrTable:
        rows = list(rows)
        if len({len(r.snr_dbhz) for r in rows}) > 1:
            raise ValidationError("SNR rows of one epoch must have the same width")
        values = [[np.nan if x is None else x for x in r.snr_dbhz] for r in rows]
        width = len(values[0]) if values else 0
        dbhz = np.array(values, dtype=np.float64).reshape(len(values), width)
        return cls.checked(tuple(r.sat_id for r in rows), dbhz)

    def columns(self, keep: np.ndarray) -> SnrTable:
        """The table on the antenna columns where the bool mask ``keep`` is
        True, without the satellites none of them tracks."""
        if not self.sat_ids:
            return self
        dbhz = self.dbhz[:, keep]
        tracked = ~np.isnan(dbhz).all(axis=1)
        return SnrTable(tuple(compress(self.sat_ids, tracked.tolist())), dbhz[tracked])

    def __len__(self) -> int:
        return len(self.sat_ids)

    def __iter__(self) -> Iterator[SnrRow]:
        for sat, row in zip(self.sat_ids, self.dbhz.tolist()):
            yield SnrRow(sat, tuple(None if x != x else x for x in row))


@dataclass(frozen=True)
class SatelliteAssessment:
    """Per-satellite detection detail."""

    sigma_snr: float | None
    n_antennas: int
    verdict: MultipathVerdict


# Verdict codes of MultipathReport.verdict: index into this tuple.
VERDICTS = (MultipathVerdict.CLEAN, MultipathVerdict.MULTIPATH, MultipathVerdict.UNKNOWN)


@dataclass(frozen=True, eq=False)
class MultipathReport:
    """Detection outcome for one epoch, one entry per satellite of ``sat_ids``.

    ``sigma_snr`` is NaN where fewer than two antennas track the satellite;
    ``verdict`` indexes :data:`VERDICTS`. ``excluded_sats`` contains exactly
    the satellites whose verdict is MULTIPATH.
    """

    sat_ids: tuple[str, ...]
    sigma_snr: np.ndarray
    n_antennas: np.ndarray
    verdict: np.ndarray
    excluded_sats: frozenset[str]

    @property
    def per_satellite(self) -> dict[str, SatelliteAssessment]:
        """The assessments as objects, keyed by satellite (built on access)."""
        rows = zip(self.sigma_snr.tolist(), self.n_antennas.tolist(), self.verdict.tolist())
        return {
            sat: SatelliteAssessment(None if sd != sd else sd, n, VERDICTS[v])
            for sat, (sd, n, v) in zip(self.sat_ids, rows)
        }


def _spread(dbhz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population SD of each row's tracked values (NaN below two) and the
    number of tracked values.

    Sums run left to right over the columns and squares use libm ``pow`` as
    Python's ``**`` does, so each SD is bitwise the scalar two-pass formula
    over that row's values in antenna order.
    """
    tracked = ~np.isnan(dbhz)
    count = tracked.sum(axis=1)
    x = np.where(tracked, dbhz, 0.0)
    total = np.zeros(len(x))
    for column in x.T:
        total += column
    dev = np.where(tracked, x - (total / count)[:, None], 0.0)
    var = np.zeros(len(x))
    for column in np.float_power(dev, 2.0).T:
        var += column
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
    snr: SnrTable | Iterable[SnrRow],
    threshold_dbhz: float = DEFAULT_SD_THRESHOLD_DBHZ,
    min_count: int = DEFAULT_MIN_ANTENNA_COUNT,
) -> MultipathReport:
    """Classify every satellite by its cross-antenna SNR spread.

    Satellites tracked by fewer than ``min_count`` antennas stay UNKNOWN
    (never excluded): the spread of a couple of samples says nothing. An
    empty table yields an empty report.
    """
    if not (threshold_dbhz > 0.0):
        raise ValidationError("threshold must be positive")
    if min_count < 2:
        raise ValidationError("min_count must be at least 2")
    if not isinstance(snr, SnrTable):
        snr = SnrTable.of(snr)
    sat_ids = snr.sat_ids
    if len(set(sat_ids)) != len(sat_ids):
        dup = next(s for k, s in enumerate(sat_ids) if s in sat_ids[:k])
        raise ValidationError(f"duplicate SNR row for satellite {dup}")
    sigma, count, verdict = classify(snr.dbhz, threshold_dbhz, min_count)
    excluded = frozenset(compress(sat_ids, (verdict == 1).tolist()))
    return MultipathReport(sat_ids, sigma, count, verdict, excluded)
