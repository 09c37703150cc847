"""Block processing chain and whole-stream metrics.

Stage order: (1) multipath detection on the SNR rows, (2) optional fix
re-query with the excluded satellites removed, which replays the requery
records of a front block's epochs at once (simulated streams only; see
:func:`mgp.epochs.replay`), (3) consensus attitude from the fixed
baselines, (4) hybrid position using that attitude. An epoch with fewer
fixed baselines than the effective ``min_inliers`` skips stage (3), since
consensus could never accept it. Per-antenna fix rates and the plain hybrid
fix rate are always computed from the observed (pre-feedback) statuses so
the feedback gain stays visible next to them.

There is one front half, :class:`_FrontBlock`: it takes stages (1) and
(2), with every check that can skip an epoch, over an
:class:`mgp.epochs.EpochBlock` as the reader decoded it, with one array
pass per check over the block's rows and one requery replay of all the
block's epochs that need it; its active fixes and consensus candidates
come out as one :class:`_Rows` record. The checks run on the rows as
read, so neither the antenna subset nor the feedback can hide a fault.
``run`` takes the stream through it one reader block at a time, then the
queued records' rows through stages (3) and (4) in blocks of at most
``BLOCK_PAIRS`` pair hypothesis slots, with one call of the consensus
kernel and one position fusion per block; ``process_epoch`` is the same
chain on a block of one, and no output depends on where any of the blocks
fall. ``run`` returns the stream's poses as one :class:`mgp.mapping.Poses`
record of arrays, built block by block.

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
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from . import jsonvals
from .attitude import AttitudeSolution, Baselines, body_to_enu
from .core import AntennaLayout, euler_from_matrix, first_repeat, hexagon_layout, quat_to_matrix
from .epochs import (
    EpochBlock,
    EpochRecord,
    EpochTruth,
    epoch_of_rows,
    offsets,
    replay,
    requery_epoch,  # unused here; perfbench/tracer.py traces it under this name
)
from .mapping import Poses
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InsufficientDataError,
    ValidationError,
)
from .multipath import (
    DEFAULT_MIN_ANTENNA_COUNT,
    DEFAULT_SD_THRESHOLD_DBHZ,
    MultipathReport,
    classify,
    detect_multipath,  # unused here; perfbench/tracer.py traces it under this name
)
from .positioning import Fixes, PositionSolution, fuse_positions, hybrid_position
from .robust import RansacParams, consensus, ransac_attitude


# Pair hypothesis slots per call of the consensus kernel, which scores each
# of a block's E epochs in S slots, S the most pairs any of them has. ``run``
# queues whole epochs, across front block edges, and starts a new block
# when the next epoch would take E * S past this cap: about 10 six-antenna
# or 340 three-antenna epochs, which keeps the block's temporaries near 1 MB
# however long the stream is and however its epochs' pair counts mix.
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


class _Rows(NamedTuple):
    """Stage (2) of a front block: its active fixes and its consensus
    candidates (the fixed active baselines) in epoch order, a replayed
    epoch's rows in the place of its rows as read, each row's epoch, and the
    pose row ``run`` gives each epoch it queues (-1 for the others)."""

    fixes: Fixes
    fix_epoch: np.ndarray
    candidates: Baselines
    candidate_epoch: np.ndarray
    pose_row: np.ndarray


class _FrontBlock:
    """Stages (1) and (2) of an :class:`EpochBlock`, each step one array
    pass over the block's rows as read: the checks, the subset masks, the
    SNR spread and the requery replay of every epoch that needs it
    (:func:`mgp.epochs.replay`). This is the only front half: ``run`` takes
    every block through it and ``process_epoch`` a block of one.

    ``faults[k]`` is the message of epoch k's first fault, or None. The
    checks run on the rows as read, before the subset or the replay can
    hide a row, in this order: an antenna outside the layout (the fixes,
    then the pairs), an SNR row of another width than the layout, a
    satellite named twice, a requery record of another antenna count (only
    when the epoch needs a replay), an antenna named twice. ``rows`` holds
    the block's stage (2) output.
    """

    def __init__(self, block: EpochBlock, config: PipelineConfig) -> None:
        n = config.layout.antenna_count
        active = config.active_mask
        n_epochs = len(block)
        faults: list[str | None] = [None] * n_epochs

        def fault(k: int, message: str) -> None:
            if faults[k] is None:
                faults[k] = message

        fixes, baselines, snr = block.fixes, block.baselines, block.snr
        ids, pairs = fixes.ids, baselines.pairs
        fix_epoch, pair_epoch = epoch_of_rows(block.fix_ends), epoch_of_rows(block.baseline_ends)
        known = (ids >= 1) & (ids <= n)
        known_ids = ((pairs >= 1) & (pairs <= n)).ravel()
        stray = itertools.chain(
            zip(fix_epoch[~known].tolist(), ids[~known].tolist()),
            zip(np.repeat(pair_epoch, 2)[~known_ids].tolist(), pairs.ravel()[~known_ids].tolist()),
        )
        for k, i in stray:
            fault(k, f"antenna {i} has no layout entry (layout has {n})")

        widths = block.snr_width.tolist()
        ends = block.snr_ends
        for k, (a, b) in enumerate(zip(ends, ends[1:])):
            rows = snr.sat_ids[a:b]
            if rows and widths[k] != n:
                fault(k, f"SNR row {rows[0]} has {widths[k]} columns (layout has {n})")
            if len(set(rows)) != len(rows):
                fault(k, f"duplicate SNR row for satellite {first_repeat(rows)}")

        use = active[np.where(known, ids, 0)]
        # the raw fixed active antennas _Tally counts
        raw_fixed = use & (fixes.grade == 2)
        self.raw_fixed = ids[raw_fixed], fix_epoch[raw_fixed]

        active_pairs = active[np.where(known_ids, pairs.ravel(), 0)].reshape(-1, 2).all(axis=1)
        keep = baselines.fixed & active_pairs

        # the rows of the epochs whose rows are as wide as the layout
        fits = np.repeat(block.snr_width == n, np.diff(block.snr_ends))
        dbhz = snr.dbhz[fits, :n] if fits.any() else np.empty((0, n))
        sats = tuple(itertools.compress(snr.sat_ids, fits.tolist()))
        snr_epoch = epoch_of_rows(block.snr_ends)[fits]
        if config.antenna_subset is not None:
            dbhz = dbhz[:, active[1:]]
            tracked = ~np.isnan(dbhz).all(axis=1)
            dbhz, snr_epoch = dbhz[tracked], snr_epoch[tracked]
            sats = tuple(itertools.compress(sats, tracked.tolist()))
        self.sats = sats
        self.sigma, self.count, self.verdict = classify(
            dbhz, config.multipath.threshold_dbhz, config.multipath.min_count
        )
        self.snr_ends = offsets(np.bincount(snr_epoch, minlength=n_epochs).tolist())
        self.excluding = np.bincount(snr_epoch[self.verdict == 1], minlength=n_epochs) > 0

        # stage (2) is needed where feedback is on, the epoch excludes
        # satellites and it carries a requery record
        needed = []
        if config.multipath_feedback:
            for k in np.flatnonzero(self.excluding).tolist():
                truth = block.truth[k]
                if faults[k] is not None or truth is None or truth.requery is None:
                    continue
                if len(truth.requery.antenna_channels) != n:
                    fault(k, "layout antenna count does not match the stream")
                else:
                    needed.append(k)
        # every row counts, the inactive antennas' and those a replay replaces
        seen = np.bincount(fix_epoch[known] * (n + 1) + ids[known], minlength=n_epochs * (n + 1))
        for k in np.flatnonzero((seen.reshape(n_epochs, n + 1) > 1).any(axis=1)).tolist():
            dup = first_repeat(ids[block.fix_ends[k]:block.fix_ends[k + 1]].tolist())
            fault(k, f"duplicate solution for antenna {dup}")
        self.faults = faults

        fixes, fix_epoch = fixes.select(use), fix_epoch[use]
        candidates, candidate_epoch = baselines.select(keep), pair_epoch[keep]
        # the epochs that need stage (2), replayed together; their rows take
        # the place of their rows as read
        replayed = [k for k in needed if faults[k] is None]
        if replayed:
            truths = [block.truth[k] for k in replayed]
            found = replay(
                [t.requery for t in truths],
                [t.multipath_sats for t in truths],
                [self._excluded(k) for k in replayed],
                config.layout,
            )

            def merge(rows, epoch, new, new_epoch, chosen):
                kept = ~np.isin(epoch, replayed)
                epoch = np.concatenate((epoch[kept], new_epoch[chosen]))
                order = np.argsort(epoch, kind="stable")
                rows = type(rows).joined([rows.select(kept), new.select(chosen)])
                return rows.select(order), epoch[order]

            f, b = found.fixes, found.baselines
            fixes, fix_epoch = merge(fixes, fix_epoch, f, np.repeat(replayed, n), active[f.ids])
            candidates, candidate_epoch = merge(
                candidates, candidate_epoch, b, np.array(replayed)[found.baseline_epoch],
                b.fixed & active[b.pairs].all(axis=1),
            )
        self.rows = _Rows(fixes, fix_epoch, candidates, candidate_epoch, np.full(n_epochs, -1))

    def _excluded(self, k: int) -> frozenset[str]:
        """The satellites epoch k's detection excludes."""
        if not self.excluding[k]:
            return frozenset()
        a, b = self.snr_ends[k], self.snr_ends[k + 1]
        return frozenset(itertools.compress(self.sats[a:b], (self.verdict[a:b] == 1).tolist()))

    def report(self, k: int) -> MultipathReport:
        """The detection report of epoch k, as :func:`detect_multipath` gives it."""
        a, b = self.snr_ends[k], self.snr_ends[k + 1]
        return MultipathReport(
            self.sats[a:b], self.sigma[a:b], self.count[a:b], self.verdict[a:b], self._excluded(k)
        )


def process_epoch(epoch: EpochRecord, config: PipelineConfig) -> EpochResult:
    """Run one epoch through detection, feedback, attitude and position:
    :class:`_FrontBlock` on a block of one, then ``ransac_attitude`` and
    ``hybrid_position``, the block kernels ``run`` uses applied to one epoch.

    Raises ValidationError, with the message ``run`` skips it with, for an
    epoch that has a fault (see :class:`_FrontBlock`).
    """
    front = _FrontBlock(EpochBlock.of([epoch], [0]), config)
    if front.faults[0] is not None:
        raise ValidationError(front.faults[0])
    params = _consensus_params(config)
    attitude = AttitudeSolution.unavailable()
    # consensus could never reach min_inliers with fewer fixed baselines
    if len(front.rows.candidates) >= params.min_inliers:
        try:
            attitude = ransac_attitude(front.rows.candidates, params).solution
        except (InsufficientDataError, DegenerateGeometryError):
            pass
    position = hybrid_position(
        front.rows.fixes, attitude.q if attitude.available else None, config.layout
    )
    return EpochResult(
        t=epoch.t,
        attitude=attitude,
        position=position,
        multipath=front.report(0),
        fixes_used=front.rows.fixes,
    )


def _solve_block(
    queue: list[_Rows], first: int, n_ep: int, config: PipelineConfig, params: RansacParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stages (3) and (4) of the ``n_ep`` epochs from pose row ``first`` on,
    out of the queued rows, consensus only with ``min_inliers`` candidates:
    the (E, 4) attitudes and (E, 3) positions, NaN rows where an epoch has
    none, and each epoch's number of fixed antennas."""
    # each row's epoch in the block, negative for the other epochs' rows
    f = [r.pose_row[r.fix_epoch] - first for r in queue]
    c = [r.pose_row[r.candidate_epoch] - first for r in queue]
    fixes = Fixes.joined([r.fixes.select(e >= 0) for r, e in zip(queue, f)])
    candidates = Baselines.joined([r.candidates.select(e >= 0) for r, e in zip(queue, c)])
    fix_epoch = np.concatenate([e[e >= 0] for e in f])
    candidate_epoch = np.concatenate([e[e >= 0] for e in c])

    q = np.full((n_ep, 4), np.nan)
    counts = np.bincount(candidate_epoch, minlength=n_ep)
    solve = counts >= params.min_inliers
    if solve.any():
        ends = offsets(counts[solve].tolist())
        found = consensus(candidates.select(solve[candidate_epoch]), ends, params)
        q[np.flatnonzero(solve)[found.available]] = body_to_enu(found.q_be[found.available])

    rows = np.bincount(fix_epoch, minlength=n_ep)
    valid = np.arange(int(rows.max(initial=0))) < rows[:, None]
    fixed = np.zeros(valid.shape, dtype=bool)
    fixed[valid] = fixes.grade == 2
    p = np.zeros(valid.shape + (3,))
    p[valid] = fixes.p
    levers = np.zeros(valid.shape + (3,))
    levers[valid] = config.layout.positions[fixes.ids - 1]
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
        def nd(x: float | None, digits: int) -> float | None:
            return None if x is None else round(x, digits)

        return {
            "epochs": self.epochs,
            "skipped": self.skipped,
            "per_antenna_fix_rate_pct": {
                str(k): nd(v, 1) for k, v in sorted(self.per_antenna_fix_rate_pct.items())
            },
            "hybrid_fix_rate_pct": nd(self.hybrid_fix_rate_pct, 1),
            "hybrid_fix_rate_multipath_pct": nd(self.hybrid_fix_rate_multipath_pct, 1),
            "attitude_availability_pct": nd(self.attitude_availability_pct, 1),
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

    def front(self, truth: EpochTruth | None, report: MultipathReport) -> None:
        """An epoch that passed the front half: its detection score against
        its truth channel."""
        self.n_proc += 1
        if truth is not None:
            self.truth_seen = True
            self.requery_seen |= truth.requery is not None
            true_mp = truth.multipath_sats & set(report.sat_ids)
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


def run(
    blocks: Iterable[tuple[EpochBlock, Sequence[tuple[int, str]]]],
    config: PipelineConfig,
    *,
    diagnostics: list[str] | None = None,
) -> RunResult:
    """Process a stream and accumulate the metrics report.

    ``blocks`` is the stream as :func:`mgp.streams.read_epoch_blocks` gives
    it (:func:`mgp.streams.epoch_blocks` for epoch records): each block of
    epochs with the ``(lineno, message)`` of each line the reader skipped
    there. The front half, where every skip is decided, takes each block as
    it is (:class:`_FrontBlock`); the timestamp check runs epoch by epoch in
    stream order, ahead of the block's checks. The survivors' rows then go
    to consensus attitude and position in blocks of at most ``BLOCK_PAIRS``
    pair hypothesis slots. Results match :func:`process_epoch` epoch by
    epoch, wherever the blocks fall.

    An epoch at fault is skipped with a message and never aborts the
    stream; configuration-level problems do abort. Each block's messages,
    the reader's and those of its skipped epochs, go to ``diagnostics`` in
    line order, before a fault of the stream propagates; ``skipped`` counts
    them all.
    """
    diags = diagnostics if diagnostics is not None else []
    first_diag = len(diags)
    params = _consensus_params(config)
    tally = _Tally(config)
    # The block keeps only what the back half needs, not the epoch or front
    # blocks: the rows records holding its epochs, each queued epoch marked
    # with its pose row, and per epoch its time and true pose.
    queue: list[_Rows] = []
    stamps: list[list[float]] = []
    # the block's first pose row, its epochs that reach consensus, most pairs
    first = solving = widest = 0

    def solve() -> None:
        q, p, n_fix = _solve_block(queue, first, len(stamps), config, params)
        stamp = np.array(stamps)
        tally.blocks.append((stamp[:, 0], p, q, n_fix, stamp[:, 1:]))

    last_t: float | None = None
    idx = -1
    for epochs, skips in blocks:
        front = _FrontBlock(epochs, config)
        counts = np.bincount(front.rows.candidate_epoch, minlength=len(epochs)).tolist()
        queue.append(front.rows)
        notes = list(skips)  # (line, message)
        for k, (t, line) in enumerate(zip(epochs.t.tolist(), epochs.lines.tolist())):
            idx += 1
            if last_t is not None and t <= last_t:
                notes.append((line, f"epoch {idx}: non-increasing timestamp {t!r}, skipped"))
                continue
            fault = front.faults[k]
            if fault is not None:
                notes.append((line, f"epoch {idx} (t={t!r}): {fault}"))
                continue
            last_t = t
            truth = epochs.truth[k]
            tally.front(truth, front.report(k))
            m = counts[k] if counts[k] >= params.min_inliers else 0
            pairs = m * (m - 1) // 2
            if pairs and stamps and (solving + 1) * max(widest, pairs) > BLOCK_PAIRS:
                solve()
                queue, first, stamps, solving, widest = [front.rows], first + len(stamps), [], 0, 0
            front.rows.pose_row[k] = first + len(stamps)
            if truth is None:
                stamps.append([t] + [math.nan] * 7)
            else:
                q, p = truth.attitude, truth.position
                stamps.append([t, q.qx, q.qy, q.qz, q.qw, p.x, p.y, p.z])
            if pairs:
                solving, widest = solving + 1, max(widest, pairs)
        tally.fixed(front, front.rows.pose_row >= 0)
        diags.extend(message for _, message in sorted(notes, key=lambda note: note[0]))
        # let this block go before the next block is read
        del epochs, front
    if stamps:
        solve()
    metrics, poses = tally.report(config, skipped=len(diags) - first_diag)
    return RunResult(metrics=metrics, poses=poses, diagnostics=diags)
