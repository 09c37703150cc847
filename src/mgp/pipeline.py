"""Per-epoch processing chain and whole-stream metrics.

Stage order per epoch: (1) multipath detection on the SNR rows, (2) optional
fix re-query with the excluded satellites removed, which replays the epoch's
requery record (:func:`mgp.epochs.requery_epoch`; simulated streams only),
(3) consensus attitude from the fixed baselines, (4) hybrid position using that
attitude. An epoch with fewer fixed baselines than the effective
``min_inliers`` skips stage (3), since consensus could never accept it.
Per-antenna fix rates and the plain hybrid fix rate are always computed from
the observed (pre-feedback) statuses so the feedback gain stays visible next
to them.

Stages (1) and (2) run per epoch as the stream arrives, together with every
check that can skip an epoch. ``run`` then takes the surviving epochs
through stages (3) and (4) in blocks of at most ``BLOCK_PAIRS`` pair
hypotheses, with one call of the consensus kernel and one position fusion
per block; ``process_epoch`` is the same chain on a block of one, and no
output depends on where the blocks fall.

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

from . import jsonvals
from .attitude import AttitudeSolution, Baselines, body_to_enu
from .core import (
    AntennaLayout,
    UnitQuaternion,
    Vec3,
    euler_from_quat,
    hexagon_layout,
    quat_to_matrix,
)
from .epochs import EpochRecord, requery_epoch
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
from .positioning import (
    Fixes,
    PositionSolution,
    check_unique_ids,
    fuse_positions,
    hybrid_position,
)
from .robust import RansacParams, consensus, ransac_attitude
from .streams import PoseRow


# Pair hypotheses per call of the consensus kernel. ``run`` hands it whole
# epochs and starts a new block when the next epoch would pass this cap:
# about 10 six-antenna or 340 three-antenna epochs, which keeps the block's
# temporaries near 1 MB however long the stream is.
BLOCK_PAIRS = 1024


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
    antenna_subset: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
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
    """Config from its JSON object form, decoded by :func:`jsonvals.decode`:
    a boolean flag, integer (not boolean) counts and ids, finite numbers for
    thresholds; anything else raises ConfigurationError naming the key."""
    return jsonvals.decode(PipelineConfig, d, "pipeline config")


def load_pipeline_config(path: str) -> PipelineConfig:
    return jsonvals.load(PipelineConfig, path, "pipeline config")


@dataclass(frozen=True)
class EpochResult:
    t: float
    attitude: AttitudeSolution
    position: PositionSolution
    multipath: MultipathReport
    fixes_used: Fixes


def _consensus_params(config: PipelineConfig) -> RansacParams:
    """The RANSAC tuning with ``min_inliers`` capped at the number of
    baselines the active antennas can form."""
    k = len(config.active_antennas)
    max_pairs = k * (k - 1) // 2
    params = config.ransac
    return replace(params, min_inliers=max(2, min(params.min_inliers, max_pairs)))


def _attitude_stage(baselines: Baselines, config: PipelineConfig) -> AttitudeSolution:
    fixed = baselines.fixed_only()
    params = _consensus_params(config)
    # consensus could never reach min_inliers with fewer fixed baselines
    if len(fixed) < params.min_inliers:
        return AttitudeSolution.unavailable()
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


def _front(
    epoch: EpochRecord, config: PipelineConfig
) -> tuple[Fixes, Baselines, MultipathReport]:
    """Stages (1) and (2) of one epoch: the active fixes and baselines after
    detection and feedback, and the detection report.

    Every reason to skip an epoch is found here, before consensus: an
    antenna the layout lacks, an SNR row whose width differs from the layout
    (ValidationError from the checks), a duplicate satellite or antenna
    solution, or a requery record that does not fit the layout.
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
    check_unique_ids(fixes)
    return fixes, baselines, report


def process_epoch(epoch: EpochRecord, config: PipelineConfig) -> EpochResult:
    """Run one epoch through detection, feedback, attitude and position: the
    stages ``run`` takes a block of epochs through, on a block of one.

    Raises ValidationError for an epoch that ``run`` would skip (see
    :func:`_front`).
    """
    fixes, baselines, report = _front(epoch, config)
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


def _solve_block(
    block: list[tuple[Fixes, Baselines | None]],
    config: PipelineConfig,
    params: RansacParams,
) -> tuple[list[UnitQuaternion | None], np.ndarray, np.ndarray, np.ndarray]:
    """Stages (3) and (4) of a block of epochs, each given with its active
    fixes and its consensus candidates (None below ``params.min_inliers``
    fixed baselines): the attitudes, the (E, 3) positions, which of them
    exist, and each epoch's number of fixed antennas."""
    n_ep = len(block)
    attitudes: list[UnitQuaternion | None] = [None] * n_ep
    r_eb = np.full((n_ep, 3, 3), np.nan)
    solve = [e for e, (_, candidates) in enumerate(block) if candidates is not None]
    if solve:
        found = consensus([block[e][1] for e in solve], params)
        for k in np.flatnonzero(found.available).tolist():
            q = attitudes[solve[k]] = body_to_enu(found.q_be[k])
            r_eb[solve[k]] = quat_to_matrix(q)

    fixes = [f for f, _ in block]
    rows = np.array([len(f) for f in fixes])
    valid = np.arange(int(rows.max(initial=0))) < rows[:, None]
    ids = np.concatenate([f.ids for f in fixes])
    fixed = np.zeros(valid.shape, dtype=bool)
    fixed[valid] = np.concatenate([f.grade for f in fixes]) == 2
    p = np.zeros(valid.shape + (3,))
    p[valid] = np.concatenate([f.p for f in fixes])
    levers = np.zeros(valid.shape + (3,))
    levers[valid] = config.layout.positions[ids - 1]
    positions, used = fuse_positions(p, levers, fixed, r_eb)
    return attitudes, positions, used.any(axis=1), fixed.sum(axis=1)


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


class _Tally:
    """The stream metrics and pose rows, accumulated epoch by epoch in
    stream order."""

    def __init__(self, config: PipelineConfig) -> None:
        self.active = config.active_mask
        self.fixed_counts = np.zeros(len(self.active), dtype=np.int64)
        self.n_proc = self.raw_any = self.fb_any = self.att_avail = 0
        self.att_err: dict[str, list[float]] = {"roll": [], "pitch": [], "yaw": []}
        self.att_val: dict[str, list[float]] = {"roll": [], "pitch": [], "yaw": []}
        self.pos_err: dict[str, list[float]] = {"e": [], "n": [], "u": []}
        self.pos_val: dict[str, list[float]] = {"e": [], "n": [], "u": []}
        self.tp = self.fp = self.fn = 0
        self.truth_seen = self.requery_seen = False
        self.pose_rows: list[PoseRow] = []

    def front(self, epoch: EpochRecord, report: MultipathReport) -> None:
        """An epoch that passed the front half: its observed fix counts and
        its detection score against the truth channel."""
        self.n_proc += 1
        # _front has checked that every antenna id is in the layout
        raw_ids = epoch.fixes.ids[epoch.fixes.fixed]
        raw_ids = raw_ids[self.active[raw_ids]]
        self.fixed_counts += np.bincount(raw_ids, minlength=len(self.active))
        if len(raw_ids):
            self.raw_any += 1
        if epoch.truth is not None:
            self.truth_seen = True
            self.requery_seen |= epoch.truth.requery is not None
            true_mp = epoch.truth.multipath_sats & set(report.sat_ids)
            detected = report.excluded_sats
            self.tp += len(detected & true_mp)
            self.fp += len(detected - true_mp)
            self.fn += len(true_mp - detected)

    def pose(
        self,
        t: float,
        truth: tuple[UnitQuaternion, Vec3] | None,
        q: UnitQuaternion | None,
        p: Vec3 | None,
        n_fix: int,
    ) -> None:
        if n_fix:
            self.fb_any += 1
        if q is not None:
            self.att_avail += 1
            roll, pitch, yaw = euler_from_quat(q)
            if truth is not None:
                roll_t, pitch_t, yaw_t = euler_from_quat(truth[0])
                self.att_err["roll"].append(_wrap_deg(roll - roll_t))
                self.att_err["pitch"].append(_wrap_deg(pitch - pitch_t))
                self.att_err["yaw"].append(_wrap_deg(yaw - yaw_t))
            else:
                self.att_val["roll"].append(roll)
                self.att_val["pitch"].append(pitch)
                self.att_val["yaw"].append(yaw)
        if p is not None:
            if truth is not None:
                d = p - truth[1]
                self.pos_err["e"].append(d.x)
                self.pos_err["n"].append(d.y)
                self.pos_err["u"].append(d.z)
            else:
                self.pos_val["e"].append(p.x)
                self.pos_val["n"].append(p.y)
                self.pos_val["u"].append(p.z)
        self.pose_rows.append(PoseRow(t=t, p=p, q=q, n_fix=n_fix))

    def report(self, config: PipelineConfig, skipped: int) -> MetricsReport:
        n_proc = self.n_proc

        def pct(count: int) -> float | None:
            return 100.0 * count / n_proc if n_proc else None

        if self.truth_seen:
            att_sd = {axis: _population_sd(v) for axis, v in self.att_err.items()}
            pos_sd_m = {axis: _population_sd(v) for axis, v in self.pos_err.items()}
        else:
            att_sd = {axis: _angle_sd(v) for axis, v in self.att_val.items()}
            pos_sd_m = {axis: _population_sd(v) for axis, v in self.pos_val.items()}
        counts = self.fixed_counts.tolist()
        tp, fp, fn = self.tp, self.fp, self.fn
        return MetricsReport(
            epochs=n_proc,
            skipped=skipped,
            per_antenna_fix_rate_pct={i: pct(counts[i]) for i in config.active_antennas},
            hybrid_fix_rate_pct=pct(self.raw_any),
            hybrid_fix_rate_multipath_pct=(
                pct(self.fb_any) if config.multipath_feedback and self.requery_seen else None
            ),
            attitude_availability_pct=pct(self.att_avail),
            attitude_sd_deg=att_sd,
            position_sd_mm={
                axis: (None if sd is None else 1000.0 * sd) for axis, sd in pos_sd_m.items()
            },
            multipath_precision=tp / (tp + fp) if (tp + fp) > 0 else None,
            multipath_recall=tp / (tp + fn) if (tp + fn) > 0 else None,
        )


def run(
    epochs: Iterable[EpochRecord],
    config: PipelineConfig,
    *,
    diagnostics: list[str] | None = None,
) -> RunResult:
    """Process a stream and accumulate the metrics report.

    Each epoch goes through the per-epoch front half (checks, subset,
    detection, feedback), where every skip is decided; the survivors then go
    to consensus attitude and position in blocks of at most ``BLOCK_PAIRS``
    pair hypotheses. Results match :func:`process_epoch` epoch by epoch.

    Per-epoch validation problems skip the epoch (with a diagnostic) and
    never abort the stream; configuration-level problems do abort. The
    ``diagnostics`` list may be shared with a skip-tolerant reader so parse
    skips and processing skips are counted together; ``skipped`` counts the
    entries added while this call runs, not those already in the list.
    """
    diags = diagnostics if diagnostics is not None else []
    first_diag = len(diags)
    params = _consensus_params(config)
    tally = _Tally(config)
    # The block keeps only what the back half needs (for the truth channel,
    # the true pose), not the epoch records.
    block: list[tuple[Fixes, Baselines | None]] = []
    stamps: list[tuple[float, tuple[UnitQuaternion, Vec3] | None]] = []
    block_pairs = 0

    def solve() -> None:
        attitudes, positions, has_p, n_fix = _solve_block(block, config, params)
        rows = zip(stamps, attitudes, positions.tolist(), has_p.tolist(), n_fix.tolist())
        for (t, truth), q, p, ok, n in rows:
            tally.pose(t, truth, q, Vec3(*p) if ok else None, n)

    last_t: float | None = None
    for idx, epoch in enumerate(epochs):
        if last_t is not None and epoch.t <= last_t:
            diags.append(f"epoch {idx}: non-increasing timestamp {epoch.t!r}, skipped")
            continue
        try:
            fixes, baselines, report = _front(epoch, config)
        except (ValidationError, InputError, InsufficientDataError) as exc:
            diags.append(f"epoch {idx} (t={epoch.t!r}): {exc}")
            continue
        last_t = epoch.t
        tally.front(epoch, report)
        candidates: Baselines | None = baselines.fixed_only()
        m = len(candidates)
        if m < params.min_inliers:
            candidates, m = None, 0
        pairs = m * (m - 1) // 2
        if block and block_pairs + pairs > BLOCK_PAIRS:
            solve()
            block, stamps, block_pairs = [], [], 0
        block.append((fixes, candidates))
        truth = epoch.truth
        stamps.append((epoch.t, None if truth is None else (truth.attitude, truth.position)))
        block_pairs += pairs
    if block:
        solve()
    metrics = tally.report(config, skipped=len(diags) - first_diag)
    return RunResult(metrics=metrics, pose_rows=tally.pose_rows, diagnostics=diags)
