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

``run`` takes stages (1) and (2), with every check that can skip an epoch,
over blocks of up to ``streams.READ_BLOCK`` epochs as the stream arrives:
one array pass per check over the block's rows (:class:`_FrontBlock`). An
epoch that a block check flags goes through the per-epoch :func:`_front`,
which gives the exact outcome, and an epoch that needs requery is replayed
on its own. ``run`` then takes the surviving epochs through stages (3) and
(4) in blocks of at most ``BLOCK_PAIRS`` pair hypotheses, with one call of
the consensus kernel and one position fusion per block; ``process_epoch``
is the same chain on a block of one, and no output depends on where any of
the blocks fall. ``run`` returns the stream's poses as one
:class:`mgp.mapping.Poses` record of arrays, built block by block.

A fix rate here is the share of epochs in which a solution of the given
kind existed: an antenna's rate counts its FIXED epochs, the hybrid rate
counts epochs where at least one antenna was FIXED. Metric spreads are
population standard deviations accumulated with exact summation, so the
result does not depend on epoch processing order.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

import numpy as np

from . import jsonvals, streams
from .attitude import AttitudeSolution, Baselines, body_to_enu
from .core import AntennaLayout, euler_from_matrix, hexagon_layout, quat_to_matrix
from .epochs import EpochRecord, requery_epoch
from .mapping import Poses
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
    classify,
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


def _feedback(
    epoch: EpochRecord, report: MultipathReport, config: PipelineConfig
) -> tuple[Fixes, Baselines] | None:
    """Stage (2): the active fixes and baselines replayed without the
    excluded satellites, or None when feedback is off, nothing was excluded
    or the epoch carries no requery record."""
    truth = epoch.truth
    if not (
        config.multipath_feedback
        and report.excluded_sats
        and truth is not None
        and truth.requery is not None
    ):
        return None
    return _active(*requery_epoch(epoch, report.excluded_sats, config.layout), config)


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
    replayed = _feedback(epoch, report, config)
    if replayed is not None:
        fixes, baselines = replayed
    check_unique_ids(fixes)
    return fixes, baselines, report


def _ends(epoch_of_row: np.ndarray, n_epochs: int) -> list[int]:
    """Row bounds of each epoch in a block: epoch k holds rows
    ``ends[k]:ends[k + 1]`` of rows sorted by ``epoch_of_row``."""
    return [0, *np.cumsum(np.bincount(epoch_of_row, minlength=n_epochs)).tolist()]


class _FrontBlock:
    """Stages (1) and (2) of a block of epochs, each step one array pass over
    the block's concatenated rows: the layout and SNR width checks, the
    subset masks, the SNR spread, and the search for duplicate satellite
    and antenna ids.

    ``flagged[k]`` marks an epoch that one of these checks finds at fault
    (or may: a duplicate among an epoch's raw satellites); :func:`_front`
    takes such an epoch on its own, for its exact outcome. Every other epoch
    gets its active fixes, its consensus candidates and its detection report
    as slices of the block's arrays from :meth:`epoch`.
    """

    def __init__(self, epochs: list[EpochRecord], config: PipelineConfig) -> None:
        n = config.layout.antenna_count
        active = config.active_mask
        n_epochs = len(epochs)
        flagged = np.zeros(n_epochs, dtype=bool)

        fixes = [e.fixes for e in epochs]
        ids = np.concatenate([f.ids for f in fixes])
        fix_epoch = np.repeat(np.arange(n_epochs), [len(f.ids) for f in fixes])
        known = (ids >= 1) & (ids <= n)
        flagged[fix_epoch[~known]] = True
        use = active[np.where(known, ids, 0)]
        ids, fix_epoch = ids[use], fix_epoch[use]
        seen = np.bincount(fix_epoch * (n + 1) + ids, minlength=n_epochs * (n + 1))
        flagged |= (seen.reshape(n_epochs, n + 1) > 1).any(axis=1)
        grade = np.concatenate([f.grade for f in fixes])[use]
        self.fixes = Fixes(
            ids, grade, np.concatenate([f.p for f in fixes])[use],
            np.concatenate([f.sats_used for f in fixes])[use],
        )
        self.fix_ends = _ends(fix_epoch, n_epochs)
        # the raw fixed antennas _Tally counts
        self.raw_fixed = ids[grade == 2], fix_epoch[grade == 2]

        baselines = [e.baselines for e in epochs]
        pairs = np.concatenate([b.pairs for b in baselines])
        pair_epoch = np.repeat(np.arange(n_epochs), [len(b.pairs) for b in baselines])
        known = ((pairs >= 1) & (pairs <= n)).all(axis=1)
        flagged[pair_epoch[~known]] = True
        fixed = np.concatenate([b.fixed for b in baselines])
        keep = known & fixed & active[np.where(known[:, None], pairs, 0)].all(axis=1)
        self.candidates = Baselines(
            pairs[keep], np.concatenate([b.v for b in baselines])[keep],
            np.concatenate([b.w for b in baselines])[keep], fixed[keep],
        )
        self.candidate_ends = _ends(pair_epoch[keep], n_epochs)

        tables = [e.snr_rows for e in epochs]
        fits = [t.dbhz.shape[1] == n for t in tables]
        flagged |= [bool(t.sat_ids) and not ok for t, ok in zip(tables, fits)]
        flagged |= [len(set(t.sat_ids)) != len(t.sat_ids) for t in tables]
        fitting = [t for t, ok in zip(tables, fits) if ok]
        dbhz = np.concatenate([t.dbhz for t in fitting] + [np.empty((0, n))])
        sats = tuple(itertools.chain.from_iterable(t.sat_ids for t in fitting))
        snr_epoch = np.repeat(np.flatnonzero(fits), [len(t.sat_ids) for t in fitting])
        if config.antenna_subset is not None:
            dbhz = dbhz[:, active[1:]]
            tracked = ~np.isnan(dbhz).all(axis=1)
            dbhz, snr_epoch = dbhz[tracked], snr_epoch[tracked]
            sats = tuple(itertools.compress(sats, tracked.tolist()))
        self.sats = sats
        self.sigma, self.count, self.verdict = classify(
            dbhz, config.multipath.threshold_dbhz, config.multipath.min_count
        )
        self.snr_ends = _ends(snr_epoch, n_epochs)
        self.excluding = np.bincount(snr_epoch[self.verdict == 1], minlength=n_epochs) > 0
        self.flagged = flagged.tolist()

    def report(self, k: int) -> MultipathReport:
        """The detection report of epoch k, as :func:`detect_multipath` gives it."""
        a, b = self.snr_ends[k], self.snr_ends[k + 1]
        sats, verdict = self.sats[a:b], self.verdict[a:b]
        excluded = frozenset()
        if self.excluding[k]:
            excluded = frozenset(itertools.compress(sats, (verdict == 1).tolist()))
        return MultipathReport(sats, self.sigma[a:b], self.count[a:b], verdict, excluded)

    def epoch(
        self, k: int, epoch: EpochRecord, config: PipelineConfig
    ) -> tuple[Fixes, Baselines, MultipathReport]:
        """Stages (1) and (2) of unflagged epoch k: its active fixes, its
        consensus candidates (the fixed active baselines) and its report."""
        report = self.report(k)
        replayed = _feedback(epoch, report, config)
        if replayed is not None:
            return replayed[0], replayed[1].fixed_only(), report
        a, b = self.fix_ends[k], self.fix_ends[k + 1]
        f = self.fixes
        fixes = Fixes(f.ids[a:b], f.grade[a:b], f.p[a:b], f.sats_used[a:b])
        a, b = self.candidate_ends[k], self.candidate_ends[k + 1]
        c = self.candidates
        return fixes, Baselines(c.pairs[a:b], c.v[a:b], c.w[a:b], c.fixed[a:b]), report


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stages (3) and (4) of a block of epochs, each given with its active
    fixes and its consensus candidates (None below ``params.min_inliers``
    fixed baselines): the (E, 4) attitudes and (E, 3) positions, NaN rows
    where an epoch has none, and each epoch's number of fixed antennas."""
    q = np.full((len(block), 4), np.nan)
    solve = [e for e, (_, candidates) in enumerate(block) if candidates is not None]
    if solve:
        found = consensus([block[e][1] for e in solve], params)
        q[np.array(solve)[found.available]] = body_to_enu(found.q_be[found.available])

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
    positions, used = fuse_positions(p, levers, fixed, quat_to_matrix(q))
    positions[~used.any(axis=1)] = np.nan
    return q, positions, fixed.sum(axis=1)


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
    poses: Poses
    diagnostics: list[str]


def _wrap_deg(x: float | np.ndarray) -> float | np.ndarray:
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


def _euler(q: np.ndarray) -> np.ndarray:
    """(E, 3) :func:`euler_from_quat` degrees of (E, 4) unit quaternions."""
    return np.array([euler_from_matrix(m) for m in quat_to_matrix(q).tolist()]).reshape(-1, 3)


def _sds(values: np.ndarray, axes: tuple[str, ...], sd) -> dict[str, float | None]:
    """``sd`` of each column of ``values``, keyed by axis name."""
    return {axis: sd(col) for axis, col in zip(axes, values.T.tolist())}


class _Tally:
    """The stream metrics and poses, accumulated in stream order: the front
    half's counts epoch by epoch, the poses and the truth block by block."""

    def __init__(self, config: PipelineConfig) -> None:
        self.active = config.active_mask
        self.fixed_counts = np.zeros(len(self.active), dtype=np.int64)
        self.n_proc = self.raw_any = 0
        self.tp = self.fp = self.fn = 0
        self.truth_seen = self.requery_seen = False
        # per solved block, after an empty one fixing the shapes: t, p, q,
        # n_fix and the true [qx, qy, qz, qw, E, N, U] (NaN without truth)
        self.blocks: list[tuple[np.ndarray, ...]] = [(
            np.empty(0), np.empty((0, 3)), np.empty((0, 4)), np.empty(0, np.int64), np.empty((0, 7))
        )]

    def fixed(self, front: _FrontBlock, passed: np.ndarray) -> None:
        """The observed (raw) fixed active antennas of the epochs of a front
        block that passed the front half, given as a bool per epoch."""
        ids, epoch = front.raw_fixed
        keep = passed[epoch]
        self.fixed_counts += np.bincount(ids[keep], minlength=len(self.active))
        self.raw_any += np.count_nonzero(np.bincount(epoch[keep]))

    def front(self, epoch: EpochRecord, report: MultipathReport) -> None:
        """An epoch that passed the front half: its detection score against
        the truth channel."""
        self.n_proc += 1
        if epoch.truth is not None:
            self.truth_seen = True
            self.requery_seen |= epoch.truth.requery is not None
            true_mp = epoch.truth.multipath_sats & set(report.sat_ids)
            detected = report.excluded_sats
            self.tp += len(detected & true_mp)
            self.fp += len(detected - true_mp)
            self.fn += len(true_mp - detected)

    def report(self, config: PipelineConfig, skipped: int) -> tuple[MetricsReport, Poses]:
        n_proc = self.n_proc

        def pct(count: int) -> float | None:
            return 100.0 * count / n_proc if n_proc else None

        *columns, truth = map(np.concatenate, zip(*self.blocks))
        poses = Poses(*columns)
        has_q, has_p = ~np.isnan(poses.q[:, 0]), ~np.isnan(poses.p[:, 0])
        angles, pos_axes = ("roll", "pitch", "yaw"), ("e", "n", "u")
        if self.truth_seen:
            att, pos = has_q & ~np.isnan(truth[:, 0]), has_p & ~np.isnan(truth[:, 0])
            att_err = _wrap_deg(_euler(poses.q[att]) - _euler(truth[att, :4]))
            att_sd = _sds(att_err, angles, _population_sd)
            pos_sd_m = _sds(poses.p[pos] - truth[pos, 4:], pos_axes, _population_sd)
        else:
            att_sd = _sds(_euler(poses.q[has_q]), angles, _angle_sd)
            pos_sd_m = _sds(poses.p[has_p], pos_axes, _population_sd)
        counts = self.fixed_counts.tolist()
        tp, fp, fn = self.tp, self.fp, self.fn
        metrics = MetricsReport(
            epochs=n_proc,
            skipped=skipped,
            per_antenna_fix_rate_pct={i: pct(counts[i]) for i in config.active_antennas},
            hybrid_fix_rate_pct=pct(self.raw_any),
            hybrid_fix_rate_multipath_pct=(
                pct(int((poses.n_fix > 0).sum()))
                if config.multipath_feedback and self.requery_seen
                else None
            ),
            attitude_availability_pct=pct(int(has_q.sum())),
            attitude_sd_deg=att_sd,
            position_sd_mm={
                axis: (None if sd is None else 1000.0 * sd) for axis, sd in pos_sd_m.items()
            },
            multipath_precision=tp / (tp + fp) if (tp + fp) > 0 else None,
            multipath_recall=tp / (tp + fn) if (tp + fn) > 0 else None,
        )
        return metrics, poses


def _chunks(
    epochs: Iterable[EpochRecord], diags: list[str]
) -> Iterator[tuple[list[EpochRecord], list[int]]]:
    """The stream in lists of up to ``READ_BLOCK`` epochs, each epoch with
    ``len(diags)`` as it was pulled: the place of its own diagnostics among
    those a shared reader adds. A fault of the stream itself is raised once
    the epochs before it have been handed out."""
    it = iter(epochs)
    while True:
        chunk: list[EpochRecord] = []
        marks: list[int] = []
        try:
            for epoch in it:
                chunk.append(epoch)
                marks.append(len(diags))
                if len(chunk) >= streams.READ_BLOCK:
                    break
        except Exception:
            if chunk:
                yield chunk, marks
            raise
        if not chunk:
            return
        yield chunk, marks


def _interleave(diags: list[str], notes: list[tuple[int, str]]) -> None:
    """Put each ``(place, message)`` of ``notes`` (places in order) into
    ``diags`` at the place it names, ahead of the entries added since."""
    if not notes:
        return
    start = notes[0][0]
    later = diags[start:]
    del diags[start:]
    at = start
    for place, message in notes:
        diags += later[at - start:place - start]
        diags.append(message)
        at = place
    diags += later[at - start:]


def run(
    epochs: Iterable[EpochRecord],
    config: PipelineConfig,
    *,
    diagnostics: list[str] | None = None,
) -> RunResult:
    """Process a stream and accumulate the metrics report.

    The front half (checks, subset, detection, feedback), where every skip
    is decided, runs over blocks of up to ``streams.READ_BLOCK`` epochs
    pulled from ``epochs`` (:class:`_FrontBlock`): one array pass per step
    over the block's rows. An epoch that a block check flags goes through
    the per-epoch :func:`_front` instead, and one that needs requery is
    replayed on its own. The timestamp check runs epoch by epoch in stream
    order. The survivors then go to consensus attitude and position in
    blocks of at most ``BLOCK_PAIRS`` pair hypotheses. Results match
    :func:`process_epoch` epoch by epoch, wherever the blocks fall.

    Per-epoch validation problems skip the epoch (with a diagnostic) and
    never abort the stream; configuration-level problems do abort. The
    ``diagnostics`` list may be shared with a skip-tolerant reader so parse
    skips and processing skips are counted together, in stream order;
    ``skipped`` counts the entries added while this call runs, not those
    already in the list.
    """
    diags = diagnostics if diagnostics is not None else []
    first_diag = len(diags)
    params = _consensus_params(config)
    tally = _Tally(config)
    # The block keeps only what the back half needs, not the epoch records:
    # per epoch its fixes and candidates, and its time and true pose.
    block: list[tuple[Fixes, Baselines | None]] = []
    stamps: list[list[float]] = []
    block_pairs = 0

    def solve() -> None:
        q, p, n_fix = _solve_block(block, config, params)
        stamp = np.array(stamps)
        tally.blocks.append((stamp[:, 0], p, q, n_fix, stamp[:, 1:]))

    last_t: float | None = None
    idx = -1
    for chunk, marks in _chunks(epochs, diags):
        front = _FrontBlock(chunk, config)
        passed = np.zeros(len(chunk), dtype=bool)
        notes: list[tuple[int, str]] = []
        for k, epoch in enumerate(chunk):
            idx += 1
            if last_t is not None and epoch.t <= last_t:
                message = f"epoch {idx}: non-increasing timestamp {epoch.t!r}, skipped"
                notes.append((marks[k], message))
                continue
            try:
                if front.flagged[k]:
                    fixes, baselines, report = _front(epoch, config)
                    candidates: Baselines | None = baselines.fixed_only()
                else:
                    fixes, candidates, report = front.epoch(k, epoch, config)
            except (ValidationError, InputError, InsufficientDataError) as exc:
                notes.append((marks[k], f"epoch {idx} (t={epoch.t!r}): {exc}"))
                continue
            last_t = epoch.t
            passed[k] = True
            tally.front(epoch, report)
            m = len(candidates)
            if m < params.min_inliers:
                candidates, m = None, 0
            pairs = m * (m - 1) // 2
            if block and block_pairs + pairs > BLOCK_PAIRS:
                solve()
                block, stamps, block_pairs = [], [], 0
            block.append((fixes, candidates))
            truth = epoch.truth
            if truth is None:
                stamps.append([epoch.t] + [math.nan] * 7)
            else:
                q, p = truth.attitude, truth.position
                stamps.append([epoch.t, q.qx, q.qy, q.qz, q.qw, p.x, p.y, p.z])
            block_pairs += pairs
        tally.fixed(front, passed)
        _interleave(diags, notes)
        # let this block's epochs go before the next block is read
        del chunk, front
    if block:
        solve()
    metrics, poses = tally.report(config, skipped=len(diags) - first_diag)
    return RunResult(metrics=metrics, poses=poses, diagnostics=diags)
