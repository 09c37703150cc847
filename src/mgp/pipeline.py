"""Block processing chain and whole-stream metrics.

Stage order: (1) multipath detection on the SNR rows, (2) optional fix
re-query with the excluded satellites removed, which replays the requery
states of a front block's epochs at once (simulated streams only; see
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
block's epochs that need it; its active fixes, consensus candidates and
epoch stamps come out as one :class:`_Rows` record. The checks run on the
rows as read, so neither the antenna subset nor the feedback can hide a
fault. ``run`` takes the stream through it one reader block at a time,
the timestamp check and the block's tally in array passes too, then the
queued records' rows through stages (3) and (4) in blocks of at most
``BLOCK_PAIRS`` pair hypothesis slots, with one call of the consensus
kernel and one position fusion per block; ``process_epoch`` is the same
chain on a block of one, and no output depends on where any of the blocks
fall. ``run`` returns the stream's poses as one :class:`mgp.mapping.Poses`.

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
from .core import AntennaLayout, euler_from_matrix, first_repeat, hexagon_layout
from .core import quat_to_matrix, unit_quats
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
    """Stage (2) of a front block: its active fixes and consensus candidates
    (the fixed active baselines) in epoch order, a replayed epoch's rows in
    the place of its rows as read, each row's epoch, the pose row ``run``
    gives each epoch it queues (-1 for the others), and each epoch's time
    and true pose ``[t, qx, qy, qz, qw, E, N, U]``, NaN without truth."""

    fixes: Fixes
    fix_epoch: np.ndarray
    candidates: Baselines
    candidate_epoch: np.ndarray
    pose_row: np.ndarray
    stamps: np.ndarray


class _FrontBlock:
    """Stages (1) and (2) of an :class:`EpochBlock`, each step one array
    pass over the block's rows as read: the checks, the subset masks, the
    SNR spread and the requery replay of every epoch that needs it
    (:func:`mgp.epochs.replay`). This is the only front half: ``run`` takes
    every block through it and ``process_epoch`` a block of one.

    ``faults`` maps each epoch at fault to the message of its first fault.
    The checks run on the rows as read, before the subset or the replay can
    hide a row, in this order: an antenna outside the layout (the fixes,
    then the pairs), an SNR row of another width than the layout, a
    satellite named twice, a requery stream of another antenna count (only
    when the epoch needs a replay), an antenna named twice. The scored SNR
    rows are ``sats``, ``sigma``, ``count`` and ``verdict``, epoch k's at
    ``snr_ends[k]:snr_ends[k + 1]``; ``rows`` holds the stage (2) output.
    """

    def __init__(self, block: EpochBlock, config: PipelineConfig) -> None:
        n = config.layout.antenna_count
        active = config.active_mask
        n_epochs = len(block)
        faults: dict[int, str] = {}

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
            faults.setdefault(k, f"antenna {i} has no layout entry (layout has {n})")

        ends, width = block.snr_ends, block.snr_width
        for k in np.flatnonzero((np.diff(ends) > 0) & (width != n)).tolist():
            message = f"SNR row {snr.sat_ids[ends[k]]} has {width[k]} columns (layout has {n})"
            faults.setdefault(k, message)
        code: dict[str, int] = {}  # satellite id -> its number in the block
        sat = np.array([code.setdefault(s, len(code)) for s in snr.sat_ids], dtype=np.int64)
        snr_epoch = epoch_of_rows(ends)
        seen = np.bincount(snr_epoch * len(code) + sat, minlength=n_epochs * len(code))
        for k in np.flatnonzero((seen.reshape(n_epochs, len(code)) > 1).any(axis=1)).tolist():
            dup = first_repeat(snr.sat_ids[ends[k]:ends[k + 1]])
            faults.setdefault(k, f"duplicate SNR row for satellite {dup}")

        use = active[np.where(known, ids, 0)]
        # the raw fixed active antennas _Tally counts
        raw_fixed = use & (fixes.grade == 2)
        self.raw_fixed = ids[raw_fixed], fix_epoch[raw_fixed]

        active_pairs = active[np.where(known_ids, pairs.ravel(), 0)].reshape(-1, 2).all(axis=1)
        keep = baselines.fixed & active_pairs

        # the rows of the epochs whose rows are as wide as the layout
        fits = np.repeat(width == n, np.diff(ends))
        dbhz = snr.dbhz[fits, :n] if fits.any() else np.empty((0, n))
        sats = tuple(itertools.compress(snr.sat_ids, fits.tolist()))
        snr_epoch = snr_epoch[fits]
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
        excluding = np.bincount(snr_epoch[self.verdict == 1], minlength=n_epochs) > 0

        # stage (2) is needed where feedback is on, the epoch excludes
        # satellites and it carries a requery state, and is a fault where
        # the block's requery constants are of another antenna count
        needed = []
        if config.multipath_feedback and block.requery is not None:
            for k in np.flatnonzero(excluding).tolist():
                truth = block.truth[k]
                if k not in faults and truth is not None and truth.requery is not None:
                    needed.append(k)
            if block.requery.layout.antenna_count != n:
                faults.update((k, "layout antenna count does not match the stream") for k in needed)
        # every row counts, the inactive antennas' and those a replay replaces
        seen = np.bincount(fix_epoch[known] * (n + 1) + ids[known], minlength=n_epochs * (n + 1))
        for k in np.flatnonzero((seen.reshape(n_epochs, n + 1) > 1).any(axis=1)).tolist():
            dup = first_repeat(ids[block.fix_ends[k]:block.fix_ends[k + 1]].tolist())
            faults.setdefault(k, f"duplicate solution for antenna {dup}")
        self.faults = faults

        stamps = np.full((n_epochs, 8), np.nan)
        stamps[:, 0] = block.t
        poses = {k: (*tr.attitude, tr.position.x, tr.position.y, tr.position.z)
                 for k, tr in enumerate(block.truth) if tr}
        stamps[list(poses), 1:] = np.array(list(poses.values())).reshape(-1, 7)
        fixes, fix_epoch = fixes.select(use), fix_epoch[use]
        candidates, candidate_epoch = baselines.select(keep), pair_epoch[keep]
        # the epochs that need stage (2), replayed together at their true
        # poses; their rows take the place of their rows as read
        replayed = [k for k in needed if k not in faults]
        if replayed:
            truths = [block.truth[k] for k in replayed]
            found = replay(block.requery, [t.requery for t in truths], stamps[replayed, 5:],
                           stamps[replayed, 1:5], [t.multipath_sats for t in truths],
                           [self._excluded(k) for k in replayed], config.layout)

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
        pose_row = np.full(n_epochs, -1)
        self.rows = _Rows(fixes, fix_epoch, candidates, candidate_epoch, pose_row, stamps)

    def _excluded(self, k: int) -> frozenset[str]:
        """The satellites epoch k's detection excludes."""
        a, b = self.snr_ends[k], self.snr_ends[k + 1]
        return frozenset(itertools.compress(self.sats[a:b], (self.verdict[a:b] == 1).tolist()))


def process_epoch(epoch: EpochRecord, config: PipelineConfig) -> EpochResult:
    """Run one epoch through detection, feedback, attitude and position:
    :class:`_FrontBlock` on a block of one, then ``ransac_attitude`` and
    ``hybrid_position``, the block kernels ``run`` uses applied to one epoch.

    Raises ValidationError, with the message ``run`` skips it with, for an
    epoch that has a fault (see :class:`_FrontBlock`).
    """
    front = _FrontBlock(EpochBlock.of([epoch], [0]), config)
    if front.faults:
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
        multipath=MultipathReport(
            front.sats, front.sigma, front.count, front.verdict, front._excluded(0)
        ),
        fixes_used=front.rows.fixes,
    )


def _solve_block(
    queue: list[_Rows], first: int, n_ep: int, config: PipelineConfig, params: RansacParams
) -> tuple[np.ndarray, ...]:
    """Stages (3) and (4) of the ``n_ep`` epochs from pose row ``first`` on,
    out of the queued rows, consensus only with ``min_inliers`` candidates:
    the pose block ``(t, p, q, n_fix, truth)`` :class:`_Tally` keeps, with
    NaN rows where an epoch has no position or attitude."""
    # each queued epoch's place in the block, negative for the other epochs
    place = [np.where(r.pose_row < first + n_ep, r.pose_row - first, -1) for r in queue]
    f = [e[r.fix_epoch] for r, e in zip(queue, place)]
    c = [e[r.candidate_epoch] for r, e in zip(queue, place)]
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
    stamps = np.concatenate([r.stamps[e >= 0] for r, e in zip(queue, place)])
    return stamps[:, 0], positions, q, fixed.sum(axis=1), stamps[:, 1:]


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
    half's counts per front block, the poses and the truth per consensus
    block, where every epoch that passed the front half has a pose row."""

    def __init__(self, config: PipelineConfig) -> None:
        self.active = config.active_mask
        self.fixed_counts = np.zeros(len(self.active), dtype=np.int64)
        self.raw_any, self.requery_seen = 0, False
        # scored SNR rows of epochs with truth: neither, fn, fp, tp
        self.hits = np.zeros(4, dtype=np.int64)
        # per solved block, after an empty one fixing the shapes: t, p, q,
        # n_fix and the true [qx, qy, qz, qw, E, N, U] (NaN without truth)
        self.blocks: list[tuple[np.ndarray, ...]] = [(
            np.empty(0), np.empty((0, 3)), np.empty((0, 4)), np.empty(0, np.int64), np.empty((0, 7))
        )]

    def front(
        self, front: _FrontBlock, passed: np.ndarray, truth: Sequence[EpochTruth | None]
    ) -> None:
        """The epochs of a front block that passed the front half, a bool per
        epoch, with the block's truth channels: their observed (raw) fixed
        active antennas, and the detection score of each scored SNR row of
        those with truth against their truth channel."""
        ids, epoch = front.raw_fixed
        keep = passed[epoch]
        self.fixed_counts += np.bincount(ids[keep], minlength=len(self.active))
        self.raw_any += np.count_nonzero(np.bincount(epoch[keep]))
        scored = np.flatnonzero(passed & ~np.isnan(front.rows.stamps[:, 1])).tolist()
        if not scored:
            return
        self.requery_seen = self.requery_seen or any(truth[k].requery is not None for k in scored)
        # a passed epoch names each satellite once, so its rows count the
        # satellites of true - detected, detected - true and detected & true
        row_epoch = epoch_of_rows(front.snr_ends)
        rows = np.isin(row_epoch, scored)
        sats = itertools.compress(front.sats, rows.tolist())
        true_mp = [s in truth[k].multipath_sats for s, k in zip(sats, row_epoch[rows].tolist())]
        detected = front.verdict[rows] == 1
        self.hits += np.bincount(2 * detected + np.array(true_mp, dtype=bool), minlength=4)

    def report(self, config: PipelineConfig, skipped: int) -> tuple[MetricsReport, Poses]:
        *columns, truth = map(np.concatenate, zip(*self.blocks))
        poses = Poses(*columns)
        n_proc, has_truth = len(poses), ~np.isnan(truth[:, 0])

        def pct(count: int) -> float | None:
            return 100.0 * count / n_proc if n_proc else None

        has_q, has_p = ~np.isnan(poses.q[:, 0]), ~np.isnan(poses.p[:, 0])
        angles, pos_axes = ("roll", "pitch", "yaw"), ("e", "n", "u")
        if has_truth.any():
            att, pos = has_q & has_truth, has_p & has_truth
            true_q = unit_quats(truth[att, :4], canonicalize=False)
            att_err = _wrap_deg(_euler(poses.q[att]) - _euler(true_q))
            att_sd = _sds(att_err, angles, _population_sd)
            pos_sd_m = _sds(poses.p[pos] - truth[pos, 4:], pos_axes, _population_sd)
        else:
            att_sd = _sds(_euler(poses.q[has_q]), angles, _angle_sd)
            pos_sd_m = _sds(poses.p[has_p], pos_axes, _population_sd)
        counts = self.fixed_counts.tolist()
        _, fn, fp, tp = self.hits.tolist()
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
    it: each block of epochs with the ``(lineno, message)`` of each line the
    reader skipped there (none for the blocks of :func:`mgp.simulate`). The
    front half, where every skip is decided, takes each block as it is
    (:class:`_FrontBlock`). An epoch is late when its time is not
    above every time of the earlier epochs without a front half fault; a
    late epoch is skipped with the timestamp message, even when it is also
    at fault. The survivors' rows then go to consensus attitude and position
    in blocks of at most ``BLOCK_PAIRS`` pair hypothesis slots. Each epoch's
    results match :func:`process_epoch`'s, wherever the blocks fall.

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
    # The block keeps only the rows records holding its epochs, not the
    # epoch or front blocks, each queued epoch marked with its pose row.
    queue: list[_Rows] = []
    # epochs posed, the block's first pose row, its consensus epochs, most pairs
    posed = first = solving = widest = 0

    def solve(end: int) -> None:
        tally.blocks.append(_solve_block(queue, first, end - first, config, params))

    # the epochs so far: the latest time among those without a front-half fault, their number
    last_t, idx = -math.inf, 0
    for epochs, skips in blocks:
        front = _FrontBlock(epochs, config)
        rows, t = front.rows, epochs.t
        faulted = np.isin(np.arange(len(epochs)), list(front.faults))
        latest = np.maximum.accumulate(np.concatenate(([last_t], np.where(faulted, -math.inf, t))))
        late, last_t = t <= latest[:-1], latest[-1]
        passed = ~late & ~faulted
        tally.front(front, passed, epochs.truth)
        notes = list(skips)  # (line, message)
        for k in np.flatnonzero(~passed).tolist():
            tk = t[k].item()
            why = (f": non-increasing timestamp {tk!r}, skipped" if late[k]
                   else f" (t={tk!r}): {front.faults[k]}")
            notes.append((epochs.lines[k].item(), f"epoch {idx + k}{why}"))
        idx += len(epochs)
        queue.append(rows)
        rows.pose_row[passed] = posed + np.arange(np.count_nonzero(passed))
        posed += np.count_nonzero(passed)
        counts = np.bincount(rows.candidate_epoch, minlength=len(epochs))
        reach = passed & (counts >= params.min_inliers)
        for row, m in zip(rows.pose_row[reach].tolist(), counts[reach].tolist()):
            pairs = m * (m - 1) // 2
            if row > first and (solving + 1) * max(widest, pairs) > BLOCK_PAIRS:
                solve(row)
                queue, first, solving, widest = [rows], row, 0, 0
            solving, widest = solving + 1, max(widest, pairs)
        diags.extend(message for _, message in sorted(notes, key=lambda note: note[0]))
        # let this block go before the next block is read
        del epochs, front
    if posed > first:
        solve(posed)
    metrics, poses = tally.report(config, skipped=len(diags) - first_diag)
    return RunResult(metrics=metrics, poses=poses, diagnostics=diags)
