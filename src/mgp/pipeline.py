"""Per-epoch processing chain and whole-stream metrics.

Stage order per epoch: (1) multipath detection on the SNR rows, (2) optional
fix re-query with the excluded satellites removed (simulated streams only),
(3) consensus attitude from the fixed baselines, (4) hybrid position using that
attitude. Per-antenna fix rates and the plain hybrid fix rate are always
computed from the observed (pre-feedback) statuses so the feedback gain
stays visible next to them.

A fix rate here is the share of epochs in which a solution of the given
kind existed: an antenna's rate counts its FIXED epochs, the hybrid rate
counts epochs where at least one antenna was FIXED. Metric spreads are
population standard deviations accumulated with exact summation, so the
result does not depend on epoch processing order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from .attitude import AttitudeSolution, Baselines
from .core import AntennaLayout, euler_from_quat, hexagon_layout
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InputError,
    InsufficientDataError,
    ValidationError,
)
from .multipath import (
    DEFAULT_MIN_ANTENNA_COUNT,
    DEFAULT_SD_THRESHOLD_DBHZ,
    MultipathReport,
    detect_multipath,
)
from .positioning import Fixes, PositionSolution, hybrid_position
from .robust import RansacParams, ransac_attitude
from .simulator import EpochRecord, requery_epoch
from .streams import PoseRow, _check_keys, _layout_from, _read_json_file


@dataclass(frozen=True)
class MultipathConfig:
    threshold_dbhz: float = DEFAULT_SD_THRESHOLD_DBHZ
    min_count: int = DEFAULT_MIN_ANTENNA_COUNT

    def __post_init__(self) -> None:
        if not (self.threshold_dbhz > 0.0):
            raise ValidationError("multipath threshold must be positive")
        if self.min_count < 2:
            raise ValidationError("multipath min_count must be at least 2")


@dataclass(frozen=True)
class PipelineConfig:
    """Processing configuration; ``antenna_subset`` restricts the run to the
    given 1-based antenna ids (fixes, baselines and SNR columns alike)."""

    layout: AntennaLayout = field(default_factory=hexagon_layout)
    ransac: RansacParams = field(default_factory=RansacParams)
    multipath: MultipathConfig = field(default_factory=MultipathConfig)
    multipath_feedback: bool = True
    attitude_min_baselines: int = 2
    antenna_subset: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.attitude_min_baselines < 2:
            raise ValidationError("attitude needs at least 2 baselines")
        if self.antenna_subset is not None:
            ids = tuple(self.antenna_subset)
            if not ids:
                raise ValidationError("antenna subset must not be empty")
            if len(set(ids)) != len(ids):
                raise ValidationError("antenna subset has duplicate ids")
            n = self.layout.antenna_count
            for i in ids:
                if not 1 <= i <= n:
                    raise ConfigurationError(f"antenna {i} is not covered by the layout")
            object.__setattr__(self, "antenna_subset", tuple(sorted(ids)))

    @property
    def active_antennas(self) -> tuple[int, ...]:
        if self.antenna_subset is not None:
            return self.antenna_subset
        return tuple(range(1, self.layout.antenna_count + 1))

    @functools.cached_property
    def active_mask(self) -> np.ndarray:
        """Read-only bool lookup by antenna id (length antenna count + 1):
        True for the antennas the run uses."""
        mask = np.zeros(self.layout.antenna_count + 1, dtype=bool)
        mask[list(self.active_antennas)] = True
        mask.flags.writeable = False
        return mask


def pipeline_config_from_dict(d: dict[str, Any]) -> PipelineConfig:
    try:
        _check_keys(
            d,
            {
                "layout",
                "ransac",
                "multipath",
                "multipath_feedback",
                "attitude_min_baselines",
                "antenna_subset",
            },
            "pipeline config",
        )
        kwargs: dict[str, Any] = {}
        if "layout" in d:
            kwargs["layout"] = _layout_from(d["layout"])
        if "ransac" in d:
            r = d["ransac"]
            _check_keys(r, {"inlier_threshold_m", "min_inliers"}, "ransac")
            rk: dict[str, Any] = {}
            if "min_inliers" in r:
                rk["min_inliers"] = int(r["min_inliers"])
            if "inlier_threshold_m" in r:
                rk["inlier_threshold_m"] = float(r["inlier_threshold_m"])
            kwargs["ransac"] = RansacParams(**rk)
        if "multipath" in d:
            m = d["multipath"]
            _check_keys(m, {"threshold_dbhz", "min_count"}, "multipath")
            mk: dict[str, Any] = {}
            if "threshold_dbhz" in m:
                mk["threshold_dbhz"] = float(m["threshold_dbhz"])
            if "min_count" in m:
                mk["min_count"] = int(m["min_count"])
            kwargs["multipath"] = MultipathConfig(**mk)
        if "multipath_feedback" in d:
            kwargs["multipath_feedback"] = bool(d["multipath_feedback"])
        if "attitude_min_baselines" in d:
            kwargs["attitude_min_baselines"] = int(d["attitude_min_baselines"])
        if d.get("antenna_subset") is not None:
            kwargs["antenna_subset"] = tuple(int(a) for a in d["antenna_subset"])
        return PipelineConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"pipeline config: {exc!r}") from exc


def load_pipeline_config(path: str) -> PipelineConfig:
    return pipeline_config_from_dict(_read_json_file(path))


@dataclass(frozen=True)
class EpochResult:
    t: float
    attitude: AttitudeSolution
    position: PositionSolution
    multipath: MultipathReport
    fixes_used: Fixes


def _attitude_stage(baselines: Baselines, config: PipelineConfig) -> AttitudeSolution:
    fixed = baselines.fixed_only()
    if len(fixed) < config.attitude_min_baselines:
        return AttitudeSolution.unavailable()
    k = len(config.active_antennas)
    max_pairs = k * (k - 1) // 2
    params = config.ransac
    params = replace(params, min_inliers=max(2, min(params.min_inliers, max_pairs)))
    try:
        return ransac_attitude(fixed, params).solution
    except (InsufficientDataError, DegenerateGeometryError):
        return AttitudeSolution.unavailable()


def _check_antenna_ids(epoch: EpochRecord, layout: AntennaLayout) -> None:
    n = layout.antenna_count
    ids = np.concatenate((epoch.fixes.ids, epoch.baselines.pairs.ravel()))
    bad = ids[(ids < 1) | (ids > n)]
    if len(bad):
        raise ValidationError(f"antenna {bad[0]} has no layout entry (layout has {n})")
    snr = epoch.snr_rows
    if len(snr) and snr.dbhz.shape[1] != n:
        raise ValidationError(
            f"SNR row {snr.sat_ids[0]} has {snr.dbhz.shape[1]} columns (layout has {n})"
        )


def _active(
    fixes: Fixes, baselines: Baselines, config: PipelineConfig
) -> tuple[Fixes, Baselines]:
    """The fixes and baselines of the active antennas only."""
    if config.antenna_subset is None:
        return fixes, baselines
    mask = config.active_mask
    return fixes.select(mask[fixes.ids]), baselines.select(mask[baselines.pairs].all(axis=1))


def process_epoch(epoch: EpochRecord, config: PipelineConfig) -> EpochResult:
    """Run one epoch through detection, feedback, attitude and position.

    Raises ValidationError for an epoch naming an antenna the layout lacks or
    holding an SNR row whose width differs from the layout, so ``run`` skips
    that epoch instead of aborting the stream.
    """
    _check_antenna_ids(epoch, config.layout)
    fixes, baselines = _active(epoch.fixes, epoch.baselines, config)
    snr = epoch.snr_rows
    if config.antenna_subset is not None:
        snr = snr.columns(config.active_mask[1:])

    report = detect_multipath(snr, config.multipath.threshold_dbhz, config.multipath.min_count)

    if (
        config.multipath_feedback
        and report.excluded_sats
        and epoch.truth is not None
        and epoch.truth.requery is not None
    ):
        fixes, baselines = _active(
            *requery_epoch(epoch, report.excluded_sats, config.layout), config
        )

    attitude = _attitude_stage(baselines, config)
    position = hybrid_position(
        fixes, attitude.q if attitude.available else None, config.layout
    )
    return EpochResult(
        t=epoch.t,
        attitude=attitude,
        position=position,
        multipath=report,
        fixes_used=fixes,
    )


@dataclass(frozen=True)
class MetricsReport:
    """Stream-level summary; rates are percentages, None marks undefined
    (no epochs, no availability, or truth channel absent).

    ``hybrid_fix_rate_multipath_pct`` is None when feedback is off or could
    not run, i.e. no processed epoch carried a requery record, rather than
    a copy of the raw rate."""

    epochs: int
    skipped: int
    per_antenna_fix_rate_pct: dict[int, float | None]
    hybrid_fix_rate_pct: float | None
    hybrid_fix_rate_multipath_pct: float | None
    attitude_availability_pct: float | None
    attitude_sd_deg: dict[str, float | None]
    position_sd_mm: dict[str, float | None]
    multipath_precision: float | None
    multipath_recall: float | None

    def __post_init__(self) -> None:
        rates = [
            self.hybrid_fix_rate_pct,
            self.hybrid_fix_rate_multipath_pct,
            self.attitude_availability_pct,
            *self.per_antenna_fix_rate_pct.values(),
        ]
        for r in rates:
            if r is not None and not 0.0 <= r <= 100.0:
                raise ValidationError(f"rate {r} outside [0, 100]")
        for sd in (*self.attitude_sd_deg.values(), *self.position_sd_mm.values()):
            if sd is not None and sd < 0.0:
                raise ValidationError("standard deviations must be nonnegative")

    def to_json_dict(self) -> dict[str, Any]:
        def pct(x: float | None) -> float | None:
            return None if x is None else round(x, 1)

        def nd(x: float | None, digits: int) -> float | None:
            return None if x is None else round(x, digits)

        return {
            "epochs": self.epochs,
            "skipped": self.skipped,
            "per_antenna_fix_rate_pct": {
                str(k): pct(v) for k, v in sorted(self.per_antenna_fix_rate_pct.items())
            },
            "hybrid_fix_rate_pct": pct(self.hybrid_fix_rate_pct),
            "hybrid_fix_rate_multipath_pct": pct(self.hybrid_fix_rate_multipath_pct),
            "attitude_availability_pct": pct(self.attitude_availability_pct),
            "attitude_sd_deg": {
                axis: nd(self.attitude_sd_deg.get(axis), 4)
                for axis in ("roll", "pitch", "yaw")
            },
            "position_sd_mm": {
                axis: nd(self.position_sd_mm.get(axis), 3) for axis in ("e", "n", "u")
            },
            "multipath_detection": {
                "precision": nd(self.multipath_precision, 4),
                "recall": nd(self.multipath_recall, 4),
            },
        }


@dataclass(frozen=True)
class RunResult:
    metrics: MetricsReport
    pose_rows: list[PoseRow]
    diagnostics: list[str]


def _wrap_deg(x: float) -> float:
    return (x + 180.0) % 360.0 - 180.0


def _population_sd(values: list[float]) -> float | None:
    n = len(values)
    if n == 0:
        return None
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return math.sqrt(var)


def _angle_sd(values: list[float]) -> float | None:
    # Unwrap about the first sample so a cluster straddling +-180 deg does
    # not explode the spread.
    if not values:
        return None
    base = values[0]
    return _population_sd([base + _wrap_deg(v - base) for v in values])


def run(
    epochs: Iterable[EpochRecord],
    config: PipelineConfig,
    *,
    diagnostics: list[str] | None = None,
) -> RunResult:
    """Process a stream and accumulate the metrics report.

    Per-epoch validation problems skip the epoch (with a diagnostic) and
    never abort the stream; configuration-level problems do abort. The
    ``diagnostics`` list may be shared with a skip-tolerant reader so parse
    skips and processing skips are counted together.
    """
    diags = diagnostics if diagnostics is not None else []
    ant_ids = config.active_antennas
    active = config.active_mask
    fixed_counts = np.zeros(len(active), dtype=np.int64)
    n_proc = 0
    raw_any = 0
    fb_any = 0
    att_avail = 0
    att_err: dict[str, list[float]] = {"roll": [], "pitch": [], "yaw": []}
    att_val: dict[str, list[float]] = {"roll": [], "pitch": [], "yaw": []}
    pos_err: dict[str, list[float]] = {"e": [], "n": [], "u": []}
    pos_val: dict[str, list[float]] = {"e": [], "n": [], "u": []}
    tp = fp = fn = 0
    truth_seen = requery_seen = False
    pose_rows: list[PoseRow] = []
    last_t: float | None = None

    for idx, epoch in enumerate(epochs):
        if last_t is not None and epoch.t <= last_t:
            diags.append(f"epoch {idx}: non-increasing timestamp {epoch.t!r}, skipped")
            continue
        try:
            result = process_epoch(epoch, config)
        except (ValidationError, InputError, InsufficientDataError) as exc:
            diags.append(f"epoch {idx} (t={epoch.t!r}): {exc}")
            continue
        last_t = epoch.t
        n_proc += 1

        # process_epoch has checked that every antenna id is in the layout
        raw_ids = epoch.fixes.ids[epoch.fixes.fixed]
        raw_ids = raw_ids[active[raw_ids]]
        fixed_counts += np.bincount(raw_ids, minlength=len(active))
        if len(raw_ids):
            raw_any += 1
        n_fix_used = int(np.count_nonzero(result.fixes_used.fixed))
        if n_fix_used:
            fb_any += 1

        if result.attitude.available:
            att_avail += 1
            roll, pitch, yaw = euler_from_quat(result.attitude.q)
            if epoch.truth is not None:
                roll_t, pitch_t, yaw_t = euler_from_quat(epoch.truth.attitude)
                att_err["roll"].append(_wrap_deg(roll - roll_t))
                att_err["pitch"].append(_wrap_deg(pitch - pitch_t))
                att_err["yaw"].append(_wrap_deg(yaw - yaw_t))
            else:
                att_val["roll"].append(roll)
                att_val["pitch"].append(pitch)
                att_val["yaw"].append(yaw)
        if result.position.available:
            if epoch.truth is not None:
                d = result.position.p - epoch.truth.position
                pos_err["e"].append(d.x)
                pos_err["n"].append(d.y)
                pos_err["u"].append(d.z)
            else:
                pos_val["e"].append(result.position.p.x)
                pos_val["n"].append(result.position.p.y)
                pos_val["u"].append(result.position.p.z)
        if epoch.truth is not None:
            truth_seen = True
            requery_seen |= epoch.truth.requery is not None
            universe = set(result.multipath.sat_ids)
            true_mp = epoch.truth.multipath_sats & universe
            detected = set(result.multipath.excluded_sats)
            tp += len(detected & true_mp)
            fp += len(detected - true_mp)
            fn += len(true_mp - detected)

        pose_rows.append(
            PoseRow(
                t=epoch.t,
                p=result.position.p if result.position.available else None,
                q=result.attitude.q if result.attitude.available else None,
                n_fix=n_fix_used,
                att_available=result.attitude.available,
            )
        )

    def pct(count: int) -> float | None:
        return 100.0 * count / n_proc if n_proc else None

    if truth_seen:
        att_sd = {axis: _population_sd(att_err[axis]) for axis in att_err}
        pos_sd_m = {axis: _population_sd(pos_err[axis]) for axis in pos_err}
    else:
        att_sd = {axis: _angle_sd(att_val[axis]) for axis in att_val}
        pos_sd_m = {axis: _population_sd(pos_val[axis]) for axis in pos_val}

    counts = fixed_counts.tolist()
    metrics = MetricsReport(
        epochs=n_proc,
        skipped=len(diags),
        per_antenna_fix_rate_pct={
            i: (100.0 * counts[i] / n_proc if n_proc else None) for i in ant_ids
        },
        hybrid_fix_rate_pct=pct(raw_any),
        hybrid_fix_rate_multipath_pct=(
            pct(fb_any) if config.multipath_feedback and requery_seen else None
        ),
        attitude_availability_pct=pct(att_avail),
        attitude_sd_deg=att_sd,
        position_sd_mm={
            axis: (None if sd is None else 1000.0 * sd) for axis, sd in pos_sd_m.items()
        },
        multipath_precision=tp / (tp + fp) if (tp + fp) > 0 else None,
        multipath_recall=tp / (tp + fn) if (tp + fn) > 0 else None,
    )
    return RunResult(metrics=metrics, pose_rows=pose_rows, diagnostics=diags)
