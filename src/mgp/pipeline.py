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
block's epochs that need it. The checks run on the rows as read, so
neither the antenna subset nor the feedback can hide a fault. ``run``
takes each reader block through it and then the block's epochs without a
fault through stages (3) and (4), with one call of the consensus kernel
and one position fusion, as one item of :func:`mgp.ordered.ordered_map`
(:func:`_solved`), so a forked worker takes a share of whole blocks,
decoding included when the blocks come as calls; the caller keeps what
depends on stream order: the timestamp check, the tally sums and the
diagnostics in line order. ``process_epoch`` is the same chain on a block
of one epoch, as ``read_epochs`` yields them, and no output depends on
where the blocks fall. ``run`` returns the stream's poses as one
:class:`mgp.mapping.Poses`.

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
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from . import jsonvals
from .attitude import AttitudeSolution, body_to_enu
from .core import AntennaLayout, euler_from_matrix, first_repeat, hexagon_layout
from .core import quat_to_matrix, unit_quats
from .epochs import (
    EpochBlock,
    epoch_of_rows,
    offsets,
    replay,
    requery_epoch,  # unused here; perfbench/tracer.py traces it under this name
)
from .mapping import Poses
from .ordered import ordered_map
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


class _FrontBlock:
    """Stages (1) and (2) of an :class:`EpochBlock`, each step one array
    pass over the block's rows as read: the checks, the subset masks, the
    SNR spread and the requery replay of every epoch that needs it
    (:func:`mgp.epochs.replay`). This is the only front half: ``run`` takes
    every block through it and ``process_epoch`` a block of one.

    A block of another layout than the config's raises ConfigurationError.
    ``faults`` maps each epoch at fault to the message of its first fault.
    The checks run on the rows as read, before the subset or the replay can
    hide a row, in this order: an antenna outside the layout (the fixes,
    then the pairs), an SNR row of another width than the layout, a
    satellite named twice, an antenna named twice. The scored SNR rows are
    ``sats``, ``sigma``, ``count`` and ``verdict``, epoch k's at
    ``snr_ends[k]:snr_ends[k + 1]``. Stage (2) gives the active ``fixes``
    and ``candidates`` (the fixed active baselines) in epoch order, a
    replayed epoch's rows in the place of its rows as read, with each row's
    epoch (``fix_epoch``, ``candidate_epoch``), and ``stamps``, each epoch's
    time and true pose ``[t, qx, qy, qz, qw, E, N, U]``, NaN without truth.
    """

    def __init__(self, block: EpochBlock, config: PipelineConfig) -> None:
        if block.layout != config.layout:
            raise ConfigurationError("the stream's antenna layout is not the pipeline config's")
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
        # each epoch's raw fixed active antennas, a bool per antenna id
        raw = use & (fixes.grade == 2)
        self.raw_fixed = np.zeros((n_epochs, n + 1), dtype=bool)
        self.raw_fixed[fix_epoch[raw], ids[raw]] = True

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
        # satellites and it carries a requery state
        needed = []
        if config.multipath_feedback and block.requery is not None:
            for k in np.flatnonzero(excluding).tolist():
                truth = block.truth[k]
                if k not in faults and truth is not None and truth.requery is not None:
                    needed.append(k)
        # every row counts, the inactive antennas' and those a replay replaces
        seen = np.bincount(fix_epoch[known] * (n + 1) + ids[known], minlength=n_epochs * (n + 1))
        for k in np.flatnonzero((seen.reshape(n_epochs, n + 1) > 1).any(axis=1)).tolist():
            dup = first_repeat(ids[block.fix_ends[k]:block.fix_ends[k + 1]].tolist())
            faults.setdefault(k, f"duplicate solution for antenna {dup}")
        self.faults = faults

        stamps = np.full((n_epochs, 8), np.nan)
        stamps[:, 0] = block.t
        poses = {k: (*tr.attitude, *tr.position) for k, tr in enumerate(block.truth) if tr}
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
        self.fixes, self.fix_epoch, self.stamps = fixes, fix_epoch, stamps
        self.candidates, self.candidate_epoch = candidates, candidate_epoch

    def _excluded(self, k: int) -> frozenset[str]:
        """The satellites epoch k's detection excludes."""
        a, b = self.snr_ends[k], self.snr_ends[k + 1]
        return frozenset(itertools.compress(self.sats[a:b], (self.verdict[a:b] == 1).tolist()))


def process_epoch(epoch: EpochBlock, config: PipelineConfig) -> EpochResult:
    """Run a block of one epoch through detection, feedback, attitude and
    position: :class:`_FrontBlock`, then ``ransac_attitude`` and
    ``hybrid_position``, the block kernels ``run`` uses applied to one epoch.

    Raises ValidationError for a block of other than one epoch, and, with
    the message ``run`` skips it with, for an epoch that has a fault (see
    :class:`_FrontBlock`).
    """
    if len(epoch) != 1:
        raise ValidationError(f"process_epoch takes a block of one epoch, not {len(epoch)}")
    front = _FrontBlock(epoch, config)
    if front.faults:
        raise ValidationError(front.faults[0])
    params = _consensus_params(config)
    attitude = AttitudeSolution.unavailable()
    # consensus could never reach min_inliers with fewer fixed baselines
    if len(front.candidates) >= params.min_inliers:
        try:
            attitude = ransac_attitude(front.candidates, params).solution
        except (InsufficientDataError, DegenerateGeometryError):
            pass
    position = hybrid_position(
        front.fixes, attitude.q if attitude.available else None, config.layout
    )
    return EpochResult(
        t=epoch.t[0].item(),
        attitude=attitude,
        position=position,
        multipath=MultipathReport(
            front.sats, front.sigma, front.count, front.verdict, front._excluded(0)
        ),
        fixes_used=front.fixes,
    )


def _solve_block(front: _FrontBlock, config: PipelineConfig) -> tuple[np.ndarray, ...]:
    """Stages (3) and (4) of a front block's epochs without a fault, in one
    consensus call, only of those with ``min_inliers`` candidates, and one
    position fusion: each epoch's position, attitude and fixed count, NaN
    rows where it has no position or attitude (an epoch at fault too)."""
    n_ep = len(front.stamps)
    solve = np.ones(n_ep, dtype=bool)
    solve[list(front.faults)] = False
    params = _consensus_params(config)
    q = np.full((n_ep, 4), np.nan)
    counts = np.bincount(front.candidate_epoch, minlength=n_ep)
    reach = solve & (counts >= params.min_inliers)
    if reach.any():
        ends = offsets(counts[reach].tolist())
        found = consensus(front.candidates.select(reach[front.candidate_epoch]), ends, params)
        q[np.flatnonzero(reach)[found.available]] = body_to_enu(found.q_be[found.available])

    use = solve[front.fix_epoch]
    fixes, fix_epoch = front.fixes.select(use), front.fix_epoch[use]
    n_rows = np.bincount(fix_epoch, minlength=n_ep)
    # at least one row slot, unused where no epoch has a fix
    valid = np.arange(max(1, int(n_rows.max(initial=0)))) < n_rows[:, None]
    fixed = np.zeros(valid.shape, dtype=bool)
    fixed[valid] = fixes.grade == 2
    p = np.zeros(valid.shape + (3,))
    p[valid] = fixes.p
    levers = np.zeros(valid.shape + (3,))
    levers[valid] = config.layout.positions[fixes.ids - 1]
    positions, used = fuse_positions(p, levers, fixed, quat_to_matrix(q))
    positions[~used.any(axis=1)] = np.nan
    return positions, q, fixed.sum(axis=1)


def _solved(config: PipelineConfig, item: Any) -> tuple[Any, ...]:
    """One item of ``run``'s stream, a block of epochs with its reader's
    skips or a call that decodes one, as the process that takes it leaves it
    for the caller: the reader's ``(lineno, message)`` skips, each epoch's
    line and front half fault (:class:`_FrontBlock`), and the columns of
    every epoch, solved when it has no fault: ``t``, ``p``, ``q``,
    ``n_fix``, the true pose ``[qx, qy, qz, qw, E, N, U]``, the Euler
    degrees of the attitude and of the true attitude (NaN where there is
    none), the raw fixed active antennas, the detection score of the SNR
    rows against the truth channel (neither, fn, fp, tp) and whether it
    carries a requery state."""
    epochs, skips = item() if callable(item) else item
    front = _FrontBlock(epochs, config)
    truth, stamps, n_ep = epochs.truth, front.stamps, len(epochs)
    p, q, n_fix = _solve_block(front, config)
    has_truth = ~np.isnan(stamps[:, 1])
    true_q = np.full((n_ep, 4), np.nan)
    true_q[has_truth] = unit_quats(stamps[has_truth, 1:5], canonicalize=False)
    # the euler_from_quat degrees of each attitude, then each true attitude
    both, euler = np.concatenate((q, true_q)), np.full((2 * n_ep, 3), np.nan)
    has = np.flatnonzero(~np.isnan(both[:, 0]))
    if len(has):
        euler[has] = [euler_from_matrix(m) for m in quat_to_matrix(both[has]).tolist()]
    # an epoch without a fault names each satellite once, so its rows
    # count the satellites of true - detected, detected - true and
    # detected & true
    row_epoch = epoch_of_rows(front.snr_ends)
    scored = has_truth[row_epoch]
    sats = itertools.compress(front.sats, scored.tolist())
    true_mp = [s in truth[k].multipath_sats for s, k in zip(sats, row_epoch[scored].tolist())]
    code = 4 * row_epoch[scored] + 2 * (front.verdict[scored] == 1) + np.array(true_mp, dtype=bool)
    hits = np.bincount(code, minlength=4 * n_ep).reshape(n_ep, 4)
    requery = np.array([tr is not None and tr.requery is not None for tr in truth], dtype=bool)
    return skips, epochs.lines, front.faults, (
        epochs.t, p, q, n_fix, stamps[:, 1:], euler[:n_ep], euler[n_ep:],
        front.raw_fixed, hits, requery,
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


def _sds(values: np.ndarray, axes: tuple[str, ...], sd) -> dict[str, float | None]:
    """``sd`` of each column of ``values``, keyed by axis name."""
    return {axis: sd(col) for axis, col in zip(axes, values.T.tolist())}


class _Tally:
    """The :func:`_solved` columns of each block's epochs that passed the
    front half and the timestamp check, in stream order after an empty
    block fixing their shapes, and the stream poses and metrics of them."""

    def __init__(self, config: PipelineConfig) -> None:
        self.blocks: list[tuple[np.ndarray, ...]] = [(
            np.empty(0), np.empty((0, 3)), np.empty((0, 4)), np.empty(0, np.int64),
            np.empty((0, 7)), np.empty((0, 3)), np.empty((0, 3)),
            np.empty((0, len(config.active_mask)), bool), np.empty((0, 4), np.int64),
            np.empty(0, bool),
        )]

    def add(self, columns: tuple[np.ndarray, ...], passed: np.ndarray) -> None:
        self.blocks.append(tuple(column[passed] for column in columns))

    def report(self, config: PipelineConfig, skipped: int) -> tuple[MetricsReport, Poses]:
        *columns, truth, euler, true_euler, fixed, hits, requery = map(
            np.concatenate, zip(*self.blocks))
        poses = Poses(*columns)
        n_proc, has_truth = len(poses), ~np.isnan(truth[:, 0])

        def pct(count: int) -> float | None:
            return 100.0 * count / n_proc if n_proc else None

        has_q, has_p = ~np.isnan(poses.q[:, 0]), ~np.isnan(poses.p[:, 0])
        angles, pos_axes = ("roll", "pitch", "yaw"), ("e", "n", "u")
        if has_truth.any():
            att, pos = has_q & has_truth, has_p & has_truth
            att_sd = _sds(_wrap_deg(euler[att] - true_euler[att]), angles, _population_sd)
            pos_sd_m = _sds(poses.p[pos] - truth[pos, 4:], pos_axes, _population_sd)
        else:
            att_sd = _sds(euler[has_q], angles, _angle_sd)
            pos_sd_m = _sds(poses.p[has_p], pos_axes, _population_sd)
        counts = fixed.sum(axis=0).tolist()
        _, fn, fp, tp = hits.sum(axis=0).tolist()
        metrics = MetricsReport(
            epochs=n_proc,
            skipped=skipped,
            per_antenna_fix_rate_pct={i: pct(counts[i]) for i in config.active_antennas},
            hybrid_fix_rate_pct=pct(int(fixed.any(axis=1).sum())),
            hybrid_fix_rate_multipath_pct=(
                pct(int((poses.n_fix > 0).sum()))
                if config.multipath_feedback and requery.any()
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
    blocks: Iterable[Any],
    config: PipelineConfig,
    *,
    diagnostics: list[str] | None = None,
) -> RunResult:
    """Process a stream and accumulate the metrics report.

    ``blocks`` is the stream as :func:`mgp.streams.read_epoch_blocks` gives
    it, each block of epochs with the ``(lineno, message)`` of each line the
    reader skipped there (none for the blocks of :func:`mgp.simulate`), or
    as calls that decode them (:func:`mgp.streams.epoch_block_calls`). Each
    block's work, every skip but the timestamp's decided in it, is one item
    of :func:`mgp.ordered.ordered_map` (:func:`_solved`). Then, in stream
    order, an epoch is late when its time is not above every time of the
    earlier epochs without a front half fault; a late epoch is skipped with
    the timestamp message, even when it is also at fault. Each epoch's
    results match :func:`process_epoch`'s, wherever the blocks fall.

    An epoch at fault is skipped with a message and never aborts the
    stream; configuration-level problems do abort. Each block's messages,
    the reader's and those of its skipped epochs, go to ``diagnostics`` in
    line order, before a fault of the stream propagates; ``skipped`` counts
    them all.
    """
    diags = diagnostics if diagnostics is not None else []
    first_diag = len(diags)
    tally = _Tally(config)
    # the epochs so far: the latest time among those without a front-half fault, their number
    last_t, idx = -math.inf, 0
    with closing(ordered_map(functools.partial(_solved, config), blocks)) as solved:
        for skips, lines, faults, columns in solved:
            t = columns[0]
            faulted = np.isin(np.arange(len(t)), list(faults))
            latest = np.maximum.accumulate(
                np.concatenate(([last_t], np.where(faulted, -math.inf, t))))
            late, last_t = t <= latest[:-1], latest[-1]
            passed = ~late & ~faulted
            tally.add(columns, passed)
            notes = list(skips)  # (line, message)
            for k in np.flatnonzero(~passed).tolist():
                tk = t[k].item()
                why = (f": non-increasing timestamp {tk!r}, skipped" if late[k]
                       else f" (t={tk!r}): {faults[k]}")
                notes.append((lines[k].item(), f"epoch {idx + k}{why}"))
            idx += len(t)
            diags.extend(message for _, message in sorted(notes, key=lambda note: note[0]))
    metrics, poses = tally.report(config, skipped=len(diags) - first_diag)
    return RunResult(metrics=metrics, poses=poses, diagnostics=diags)
