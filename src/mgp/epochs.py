"""The epoch records and the replay of their fix outcomes.

An :class:`EpochRecord` is one epoch of the stream, whatever produced it:
the antenna solutions, the baseline observations and the SNR table, each a
record of arrays, plus an optional :class:`EpochTruth` channel. An
:class:`EpochBlock` holds the epochs of a reader block, as ``pipeline.run``
takes them, in one record of arrays of each kind.

The simulator draws every stochastic outcome once and retains the
underlying draws in the epoch's truth channel as a :class:`RequeryData`
record: the calibrated :class:`FixModel` plus one :class:`ChannelDraws`
group of arrays for the antennas and one for the baselines (uniforms,
wrong-fix flags, latent fixed-grade and float-grade measurements, wrong-fix
offsets). That makes the stream bitwise-reproducible and lets the pipeline
re-query fix outcomes for a reduced satellite set without re-running the
simulator: a re-query replays the same draws against the new
probabilities, so removing a multipath satellite can only promote
statuses, never revoke them. :func:`replay` re-queries a block of epochs
at once, grading the block's concatenated draws in one pass;
:func:`requery_epoch` is that replay on a block of one.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .attitude import Baselines
from .core import AntennaLayout, Rows, UnitQuaternion, Vec3
from .errors import ValidationError
from .multipath import SnrTable
from .positioning import Fixes


@dataclass(frozen=True)
class FixModel:
    """Logistic ambiguity-fix success model.

    The fix probability for a solution set with ``n_clean`` clean and
    ``n_mp`` multipath satellites is

        sigmoid(steepness * (n_clean - multipath_weight * n_mp - midpoint + bias))

    with a per-antenna ``bias`` (and a shared ``baseline_bias`` for
    moving-base baseline solves). When ``target_fix_probs`` is set, the
    per-antenna biases are calibrated at stream start so the full solution
    set hits those probabilities exactly; ``baseline_target_fix_prob``
    calibrates the baseline bias the same way. Antennas that fail to fix
    fall back to FLOAT with probability ``float_fraction``, else NONE.
    """

    steepness: float = 1.2
    midpoint: float = 5.0
    multipath_weight: float = 1.0
    antenna_bias: tuple[float, ...] | None = None
    target_fix_probs: tuple[float, ...] | None = None
    baseline_bias: float = 0.0
    baseline_target_fix_prob: float | None = None
    float_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not (self.steepness > 0.0):
            raise ValidationError("steepness must be positive")
        if self.multipath_weight < 0.0:
            raise ValidationError("multipath_weight must be nonnegative")
        if not 0.0 <= self.float_fraction <= 1.0:
            raise ValidationError("float_fraction must be in [0, 1]")
        for p in self.target_fix_probs or ():
            if not 0.0 < p < 1.0:
                raise ValidationError("target fix probabilities must be in (0, 1)")
        if self.baseline_target_fix_prob is not None:
            if not 0.0 < self.baseline_target_fix_prob < 1.0:
                raise ValidationError("baseline target fix probability must be in (0, 1)")
        values = (self.midpoint, self.multipath_weight, self.baseline_bias)
        if not all(map(math.isfinite, values + (self.antenna_bias or ()))):
            raise ValidationError("fix model values must be finite")

    def probability(self, n_clean: int, n_multipath: int, bias: float) -> float:
        arg = self.steepness * (
            n_clean - self.multipath_weight * n_multipath - self.midpoint + bias
        )
        return 1.0 / (1.0 + math.exp(-arg))


_DRAW_KEYS = ("u_fix", "u_float", "wrong", "latent_fixed", "latent_float", "wrong_offset")


@dataclass(frozen=True, eq=False)
class ChannelDraws(Rows):
    """Latent draws behind one group of n antenna (or baseline) solutions.

    ``u_fix``/``u_float`` (n,) are the uniforms compared against the model
    probabilities; ``wrong`` (n,) bool is the pre-evaluated wrong-fix
    Bernoulli; the (n, 3) latent vectors are the measurement under each
    ambiguity grade, and ``wrong_offset`` is added to a wrong fix. The
    epoch reader checks draws read from a stream finite; the simulator's
    own draws are finite by construction.
    """

    u_fix: np.ndarray
    u_float: np.ndarray
    wrong: np.ndarray
    latent_fixed: np.ndarray
    latent_float: np.ndarray
    wrong_offset: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.u_fix)
        shapes = [getattr(self, k).shape for k in _DRAW_KEYS]
        if shapes != [(n,)] * 3 + [(n, 3)] * 3:
            raise ValidationError("channel draws need (n,) uniforms and flags and (n, 3) vectors")
        if self.wrong.dtype != np.bool_:
            raise ValidationError("wrong-fix flags must be booleans")


@dataclass(frozen=True)
class RequeryData:
    """Replay record of one epoch: the calibrated fix model (resolved
    ``antenna_bias`` and ``baseline_bias``, no calibration targets), the
    solution satellites, and the draws of the n antennas and the n(n-1)/2
    baselines in ``(i, j)``, ``i < j`` order."""

    model: FixModel
    solution_sats: tuple[str, ...]
    antenna_channels: ChannelDraws
    baseline_channels: ChannelDraws

    def __post_init__(self) -> None:
        n = len(self.antenna_channels)
        if self.model.antenna_bias is None or len(self.model.antenna_bias) != n:
            raise ValidationError(f"antenna_bias needs one entry per antenna ({n})")
        if len(self.baseline_channels) != n * (n - 1) // 2:
            raise ValidationError(
                f"{n} antennas need {n * (n - 1) // 2} baseline channels, "
                f"got {len(self.baseline_channels)}"
            )


@dataclass(frozen=True)
class EpochTruth:
    position: Vec3
    attitude: UnitQuaternion
    multipath_sats: frozenset[str]
    corrupted_baselines: frozenset[tuple[int, int]]
    wrong_fix_antennas: frozenset[int]
    requery: RequeryData | None = None


@dataclass(frozen=True, eq=False)
class EpochRecord:
    """One epoch of the stream: the antenna solutions, the baseline
    observations and the SNR table, each a record of arrays."""

    t: float
    fixes: Fixes
    baselines: Baselines
    snr_rows: SnrTable
    truth: EpochTruth | None = None


def offsets(counts: Iterable[int]) -> list[int]:
    """The E + 1 row offsets of E epochs of ``counts`` rows each: epoch k
    holds rows ``ends[k]:ends[k + 1]``."""
    return [0, *itertools.accumulate(counts)]


def epoch_of_rows(ends: list[int]) -> np.ndarray:
    """The epoch of each row, given the epochs' row :func:`offsets`."""
    return np.repeat(np.arange(len(ends) - 1), np.diff(ends))


@dataclass(frozen=True, eq=False)
class EpochBlock:
    """E consecutive epochs: the (E,) times ``t`` and file ``lines``, the
    fixes, baselines and SNR rows of all E as one record each with its E + 1
    row :func:`offsets`, and the E truth channels. The SNR table is as wide
    as the widest epoch's rows, NaN-padded; ``snr_width`` (E,) int64 holds
    each epoch's own width, 0 for an epoch without SNR rows. The epoch
    reader decodes into this form; :meth:`of` joins records into it."""

    t: np.ndarray
    lines: np.ndarray
    fixes: Fixes
    fix_ends: list[int]
    baselines: Baselines
    baseline_ends: list[int]
    snr: SnrTable
    snr_ends: list[int]
    snr_width: np.ndarray
    truth: tuple[EpochTruth | None, ...]

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def of(cls, epochs: Sequence[EpochRecord], lines: Sequence[int]) -> EpochBlock:
        """The block of one or more ``epochs``, epoch k from line ``lines[k]``."""
        tables = [e.snr_rows for e in epochs]
        widths = [t.dbhz.shape[1] if len(t) else 0 for t in tables]
        snr_ends = offsets(map(len, tables))
        dbhz = np.full((snr_ends[-1], max(widths)), np.nan)
        for t, a, w in zip(tables, snr_ends, widths):
            dbhz[a:a + len(t), :w] = t.dbhz[:, :w]  # a table without rows has width 0
        sat_ids = tuple(itertools.chain.from_iterable(t.sat_ids for t in tables))
        fixes, baselines = [e.fixes for e in epochs], [e.baselines for e in epochs]
        return cls(
            np.array([e.t for e in epochs], dtype=np.float64), np.array(lines, dtype=np.int64),
            Fixes.joined(fixes), offsets(map(len, fixes)),
            Baselines.joined(baselines), offsets(map(len, baselines)),
            SnrTable(sat_ids, dbhz), snr_ends, np.array(widths, dtype=np.int64),
            tuple(e.truth for e in epochs),
        )

    def epoch(self, k: int) -> EpochRecord:
        """Epoch k of the block, its arrays slices of the block's."""
        f, b, s = (slice(ends[k], ends[k + 1])
                   for ends in (self.fix_ends, self.baseline_ends, self.snr_ends))
        snr = SnrTable(self.snr.sat_ids[s], self.snr.dbhz[s, : self.snr_width[k]])
        return EpochRecord(
            self.t[k].item(), self.fixes.select(f), self.baselines.select(b), snr, self.truth[k]
        )


def _grade(
    draws: ChannelDraws, p_fix: np.ndarray, float_fraction: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIXED mask, FLOAT mask and the measured (n, 3) vectors of a group of
    channels, each row with its own probability and float fraction: a fix
    takes the fixed-grade latent (plus its offset when wrong), a float the
    float-grade one."""
    fixed = draws.u_fix < p_fix
    floating = ~fixed & (draws.u_float < float_fraction)
    wrong = draws.wrong[:, None]
    fixed_vec = np.where(wrong, draws.latent_fixed + draws.wrong_offset, draws.latent_fixed)
    return fixed, floating, np.where(fixed[:, None], fixed_vec, draws.latent_float)


@functools.lru_cache(maxsize=8)
def _pair_baselines(layout: AntennaLayout) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (P, 2) antenna pairs ``(i, j)``, ``i < j``, in replay order,
    and their (P, 3) body-frame baselines."""
    n = layout.antenna_count
    pairs = np.array([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    pairs = pairs.reshape(-1, 2)
    body = np.array([layout.baseline(i, j).as_array() for i, j in pairs.tolist()])
    pairs.flags.writeable = body.flags.writeable = False
    return pairs, body


class Replay(NamedTuple):
    """The fix outcomes of a block of E epochs, as :func:`replay` gives them.

    ``fixes`` holds each epoch's n antenna solutions in turn. ``baselines``
    holds each epoch's solved (fixed or float) baselines in turn, and
    ``baseline_epoch`` the epoch of each of its rows. ``bl_fixed`` (E * P,)
    is the FIXED mask of every baseline channel, solved or not.
    """

    fixes: Fixes
    baselines: Baselines
    baseline_epoch: np.ndarray
    bl_fixed: np.ndarray


def replay(
    requeries: Sequence[RequeryData],
    multipath_sats: Sequence[frozenset[str]],
    excluded: Sequence[frozenset[str]],
    layout: AntennaLayout,
) -> Replay:
    """Replay the fix and baseline outcomes of a block of epochs, each with
    its ``excluded`` satellites removed from its solution satellites.

    Every record must have the layout's n antennas. Per epoch, the count of
    remaining satellites and of multipath ones among them give the fix
    probabilities (:meth:`FixModel.probability`); then one pass over the
    block's concatenated draws grades every channel against its epoch's
    probability, so each epoch's outcome is what it gets alone.
    """
    n = layout.antenna_count
    pairs, body = _pair_baselines(layout)
    p_ant: list[float] = []
    p_bl: list[float] = []
    fraction: list[float] = []
    used: list[int] = []
    for req, mp, out in zip(requeries, multipath_sats, excluded):
        remaining = [s for s in req.solution_sats if s not in out]
        n_mp = sum(1 for s in remaining if s in mp)
        n_clean = len(remaining) - n_mp
        model = req.model
        p_ant += [model.probability(n_clean, n_mp, b) for b in model.antenna_bias]
        p_bl.append(model.probability(n_clean, n_mp, model.baseline_bias))
        fraction.append(model.float_fraction)
        used.append(len(remaining))
    n_ep, n_pairs = len(used), len(pairs)
    ant_fixed, ant_float, ant_vec = _grade(
        ChannelDraws.joined([r.antenna_channels for r in requeries]),
        np.array(p_ant),
        np.repeat(fraction, n),
    )
    bl_fixed, bl_float, bl_vec = _grade(
        ChannelDraws.joined([r.baseline_channels for r in requeries]),
        np.repeat(p_bl, n_pairs),
        np.repeat(fraction, n_pairs),
    )
    grade = 2 * ant_fixed.astype(np.int8) + ant_float
    fixes = Fixes(
        ids=np.tile(np.arange(1, n + 1), n_ep),
        grade=grade,
        p=np.where((grade > 0)[:, None], ant_vec, np.nan),
        sats_used=np.repeat(np.array(used, dtype=np.int64), n),
    )
    keep = bl_fixed | bl_float
    baselines = Baselines(
        np.tile(pairs, (n_ep, 1))[keep], bl_vec[keep], np.tile(body, (n_ep, 1))[keep],
        bl_fixed[keep],
    )
    return Replay(fixes, baselines, np.repeat(np.arange(n_ep), n_pairs)[keep], bl_fixed)


def requery_epoch(
    epoch: EpochRecord, excluded: frozenset[str], layout: AntennaLayout
) -> tuple[Fixes, Baselines]:
    """Replay the epoch's fix and baseline outcomes with satellites removed:
    :func:`replay` on a block of one, the solved baselines only.

    Uses the latent draws stored in the truth channel, so the result is
    deterministic and promotes statuses monotonically as true multipath
    satellites are excluded. Only simulated streams carry the data needed.
    """
    if epoch.truth is None or epoch.truth.requery is None:
        raise ValidationError("epoch carries no re-query data (not a simulated stream?)")
    if len(epoch.truth.requery.antenna_channels) != layout.antenna_count:
        raise ValidationError("layout antenna count does not match the stream")
    found = replay([epoch.truth.requery], [epoch.truth.multipath_sats], [excluded], layout)
    return found.fixes, found.baselines
