from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgp import (
    InsufficientDataError,
    MultipathReport,
    SnrTable,
    ValidationError,
    detect_multipath,
    snr_sd,
)

from conftest import snr_of

# MultipathReport.verdict codes
CLEAN, MULTIPATH, UNKNOWN = 0, 1, 2

snr_values = st.lists(st.floats(10.0, 60.0), min_size=2, max_size=12)


# -- snr_sd -----------------------------------------------------------------


def test_snr_sd_matches_numpy_population_sd() -> None:
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        vals = rng.uniform(10.0, 60.0, size=n)
        assert snr_sd(list(vals)) == pytest.approx(float(np.std(vals)), abs=1e-12)


def test_snr_sd_worked_value() -> None:
    # one antenna 12 dB-Hz low: mean 43, squared deviations sum to 120,
    # sd = sqrt(120/6) = sqrt(20)
    vals = [45.0, 45.0, 45.0, 45.0, 45.0, 33.0]
    assert snr_sd(vals) == pytest.approx(math.sqrt(20.0), abs=1e-15)
    assert snr_sd(vals) == pytest.approx(4.47213595499958, abs=1e-12)


def test_snr_sd_constant_is_zero() -> None:
    assert snr_sd([47.0] * 6) == 0.0


def test_snr_sd_requires_two_values() -> None:
    with pytest.raises(InsufficientDataError):
        snr_sd([45.0])
    with pytest.raises(InsufficientDataError):
        snr_sd([])


@settings(max_examples=100, deadline=None)
@given(vals=snr_values)
def test_snr_sd_shift_invariant(vals: list[float]) -> None:
    base = snr_sd(vals)
    shifted = snr_sd([v - 5.0 for v in vals])
    assert shifted == pytest.approx(base, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(vals=snr_values)
def test_snr_sd_permutation_invariant(vals: list[float]) -> None:
    assert snr_sd(list(reversed(vals))) == pytest.approx(snr_sd(vals), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(vals=snr_values, c=st.floats(0.1, 0.8))
def test_snr_sd_scales_linearly(vals: list[float], c: float) -> None:
    mean = sum(vals) / len(vals)
    scaled = [mean + c * (v - mean) for v in vals]
    assert snr_sd(scaled) == pytest.approx(c * snr_sd(vals), abs=1e-9)


# -- SnrTable.checked ----------------------------------------------------------


def test_snr_row_validation() -> None:
    """``SnrTable.checked`` applies the rules of one satellite's SNR row to
    every row."""

    def checked(sat_ids: tuple[str, ...], rows: list) -> SnrTable:
        return SnrTable.checked(sat_ids, np.array(rows, dtype=np.float64))

    with pytest.raises(ValidationError, match="^satellite id must be non-empty$"):
        checked(("",), [[45.0, 45.0]])
    with pytest.raises(ValidationError, match="^G01: no antenna tracks this satellite$"):
        checked(("G01",), [[np.nan, np.nan, np.nan]])
    with pytest.raises(ValidationError, match=r"^G01: SNR 9.9 outside \[10.0, 60.0\] dB-Hz$"):
        checked(("G01",), [[45.0, 9.9]])
    with pytest.raises(ValidationError, match=r"^G01: SNR 60.1 outside \[10.0, 60.0\] dB-Hz$"):
        checked(("G01",), [[45.0, 60.1]])
    with pytest.raises(ValidationError, match="^SNR needs one row per satellite$"):
        checked(("G01", "G02"), [[45.0, 45.0]])
    # the rules hold on every row, not only the first
    with pytest.raises(ValidationError, match="^G02: no antenna tracks this satellite$"):
        checked(("G01", "G02"), [[45.0, np.nan], [np.nan, np.nan]])


# -- detect_multipath ----------------------------------------------------------


def _detect(rows: list, **kwargs) -> MultipathReport:
    return detect_multipath(snr_of(rows), **kwargs)


def _assess(rep: MultipathReport, sat: str) -> tuple[float | None, int, int]:
    """One satellite's ``(sigma_snr or None, n_antennas, verdict)``."""
    k = rep.sat_ids.index(sat)
    sigma = float(rep.sigma_snr[k])
    return (None if math.isnan(sigma) else sigma), int(rep.n_antennas[k]), int(rep.verdict[k])


def test_flags_high_spread_satellite() -> None:
    rows = [
        ("G01", (45.0, 45.1, 44.9, 45.0, 45.05, 44.95)),
        ("G02", (50.0, 38.0, 49.0, 36.0, 51.0, 37.0)),
    ]
    rep = _detect(rows, threshold_dbhz=4.0, min_count=4)
    assert _assess(rep, "G01")[2] == CLEAN
    assert _assess(rep, "G02")[2] == MULTIPATH
    assert rep.excluded_sats == frozenset({"G02"})
    assert _assess(rep, "G02")[1] == 6


def test_threshold_boundary_exact_sd_is_clean() -> None:
    # sd exactly equal to the threshold is not an exceedance
    vals = (41.0, 49.0, 41.0, 49.0, 41.0, 49.0)  # sd exactly 4.0
    assert snr_sd(list(vals)) == 4.0
    rep = _detect([("G07", vals)], threshold_dbhz=4.0)
    assert _assess(rep, "G07")[2] == CLEAN
    rep2 = _detect([("G07", vals)], threshold_dbhz=math.nextafter(4.0, 0.0))
    assert _assess(rep2, "G07")[2] == MULTIPATH


def test_below_min_count_is_unknown_even_with_huge_spread() -> None:
    rows = [("G03", (58.0, 12.0, 58.0, None, None, None))]
    rep = _detect(rows, threshold_dbhz=4.0, min_count=4)
    sigma, n_antennas, verdict = _assess(rep, "G03")
    assert verdict == UNKNOWN
    assert n_antennas == 3
    assert sigma is not None  # spread is still reported
    assert rep.excluded_sats == frozenset()


def test_single_antenna_has_no_sigma() -> None:
    rep = _detect([("G04", (45.0, None, None, None, None, None))])
    assert _assess(rep, "G04") == (None, 1, UNKNOWN)


def test_none_entries_are_skipped_not_counted() -> None:
    rows = [("G05", (44.0, None, 44.0, 52.0, None, 52.0))]
    rep = _detect(rows, threshold_dbhz=3.9, min_count=4)
    sigma, n_antennas, verdict = _assess(rep, "G05")
    assert n_antennas == 4
    assert sigma == pytest.approx(4.0, abs=1e-12)
    assert verdict == MULTIPATH


def test_empty_rows_empty_report() -> None:
    rep = _detect([])
    assert rep.sat_ids == ()
    assert rep.sigma_snr.shape == rep.n_antennas.shape == rep.verdict.shape == (0,)
    assert rep.excluded_sats == frozenset()


def test_duplicate_satellite_rejected() -> None:
    rows = [("G06", (45.0,) * 6), ("G06", (46.0,) * 6)]
    with pytest.raises(ValidationError):
        _detect(rows)


def test_parameter_validation() -> None:
    with pytest.raises(ValidationError):
        _detect([], threshold_dbhz=0.0)
    with pytest.raises(ValidationError):
        _detect([], threshold_dbhz=-1.0)
    with pytest.raises(ValidationError):
        _detect([], min_count=1)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(20.0, 50.0), min_size=4, max_size=6),
    threshold=st.floats(0.5, 10.0),
)
def test_verdict_consistent_with_reported_sigma(vals: list[float], threshold: float) -> None:
    rep = _detect([("G09", tuple(vals))], threshold_dbhz=threshold, min_count=4)
    sigma, _, verdict = _assess(rep, "G09")
    if sigma > threshold:
        assert verdict == MULTIPATH
        assert "G09" in rep.excluded_sats
    else:
        assert verdict == CLEAN
        assert "G09" not in rep.excluded_sats
