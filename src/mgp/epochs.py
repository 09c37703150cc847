"""The epoch blocks and the replay of their fix outcomes.

An :class:`EpochBlock` holds consecutive epochs of the stream, at most
:data:`EPOCH_BLOCK` as the simulator and the reader make them, in one
record of arrays of each kind: the antenna solutions, the baseline
observations and the SNR table, plus each epoch's optional
:class:`EpochTruth` channel. It is the stream's one form from end to end:
the simulator yields blocks, the epoch writer encodes them, the reader
decodes into them and ``pipeline.run`` takes them. An :class:`EpochRecord`
is the one-epoch view of a block (:meth:`EpochBlock.epoch`).

A simulated epoch's truth channel keeps a :class:`RequeryData` record: the
stream's :class:`RequeryStream` constants, the PCG64 state before the
epoch's first draw and the true pose. :func:`draw_channels` makes the
epoch's :class:`ChannelDraws` from it, the simulator on its live generator
and :func:`replay` on one set to the stored state, so a re-query grades the
simulator's own draws against the probabilities of a reduced satellite set:
removing a multipath satellite can only promote statuses, never revoke
them. :func:`replay` re-queries a block of epochs at once, grading the
block's concatenated draws in one pass; :func:`requery_epoch` is that
replay on a block of one.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .attitude import Baselines
from .core import AntennaLayout, Rows, UnitQuaternion, Vec3, quat_to_matrix
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


@dataclass(frozen=True, eq=False)
class ChannelDraws(Rows):
    """Latent draws behind one group of n antenna (or baseline) solutions.

    ``u_fix``/``u_float`` (n,) are the uniforms compared against the model
    probabilities; ``wrong`` (n,) bool is the pre-evaluated wrong-fix
    Bernoulli; the (n, 3) latent vectors are the measurement under each
    ambiguity grade, and ``wrong_offset`` is added to a wrong fix.
    """

    u_fix: np.ndarray
    u_float: np.ndarray
    wrong: np.ndarray
    latent_fixed: np.ndarray
    latent_float: np.ndarray
    wrong_offset: np.ndarray


@dataclass(frozen=True)
class ChannelNoise:
    """Measurement-error magnitudes and wrong-fix injection of fix channels."""

    sigma_fixed_m: float = 0.005
    sigma_float_m: float = 0.3
    wrong_fix_prob: float = 0.02
    wrong_fix_unit_m: float = 0.19
    wrong_fix_max_multiple: int = 2

    def __post_init__(self) -> None:
        if self.sigma_fixed_m < 0.0 or self.sigma_float_m < 0.0:
            raise ValidationError("noise sigmas must be nonnegative")
        if not 0.0 <= self.wrong_fix_prob <= 1.0:
            raise ValidationError("wrong_fix_prob must be in [0, 1]")
        if not (self.wrong_fix_unit_m > 0.0):
            raise ValidationError("wrong_fix_unit_m must be positive")
        # the lattice of wrong-fix multiples has (2m + 1)**3 - 1 points, an int64
        if not 1 <= self.wrong_fix_max_multiple <= 10**6:
            raise ValidationError("wrong_fix_max_multiple must be in [1, 1000000]")


@dataclass(frozen=True)
class RequeryStream:
    """The stream-wide requery constants an epoch stream's header holds: the
    calibrated fix model, the solution satellites, the simulator's layout
    and channel noise, the PCG64 ``increment`` and the ``numpy`` that drew
    the stream, which must be this one (NEP 19 does not promise the same
    ``Generator`` values across numpy releases)."""

    model: FixModel
    solution_sats: tuple[str, ...]
    layout: AntennaLayout
    noise: ChannelNoise
    increment: int
    numpy: str

    def __post_init__(self) -> None:
        n, model = self.layout.antenna_count, self.model
        if model.antenna_bias is None or len(model.antenna_bias) != n:
            raise ValidationError(f"antenna_bias needs one entry per antenna ({n})")
        if model.target_fix_probs is not None or model.baseline_target_fix_prob is not None:
            raise ValidationError("the calibrated fix model has no fix probability targets")
        if not (0 < self.increment < 2**128 and self.increment % 2):
            raise ValidationError("the PCG64 increment must be an odd integer below 2**128")
        if self.numpy != np.__version__:
            raise ValidationError(f"the requery draws were made under numpy {self.numpy}, "
                                  f"not this numpy {np.__version__}; re-run mgp simulate")


@dataclass(frozen=True)
class RequeryData:
    """Replay record of one epoch: its stream's constants, the PCG64 state
    before its first draw (``state``, and ``uint32``, the 32-bit half the
    generator holds back for its next 32-bit draw, or None) and the true
    pose, the attitude as the epoch reader returns it (re-normalized)."""

    stream: RequeryStream
    state: int
    uint32: int | None
    position: Vec3
    attitude: UnitQuaternion

    def __post_init__(self) -> None:
        state, uint32 = self.state, self.uint32
        if type(state) is not int or not 0 <= state < 2**128:
            raise ValidationError(f"requery state must be an integer in [0, 2**128), got {state!r}")
        if uint32 is not None and (type(uint32) is not int or not 0 <= uint32 < 2**32):
            raise ValidationError(
                f"requery uint32 must be null or an integer in [0, 2**32), got {uint32!r}")


def draw_channels(rng: np.random.Generator, req: RequeryData) -> tuple[ChannelDraws, ChannelDraws]:
    """The antenna and the baseline channel draws of ``req``'s epoch, drawn
    from ``rng`` in the order the simulator documents: for the antennas,
    then the baselines, (n, 6) normals, (n, 3) uniforms and (n,) wrong-fix
    lattice indices. A latent vector is the true antenna position or
    baseline at ``req``'s pose plus a sigma times three of the normals."""
    layout, noise = req.stream.layout, req.stream.noise
    m = noise.wrong_fix_max_multiple
    side = 2 * m + 1
    r_eb = quat_to_matrix(req.attitude)
    truth = (req.position.as_array() + layout.positions @ r_eb.T,
             _pair_baselines(layout)[1] @ r_eb.T)
    groups = []
    for vecs in truth:
        n = len(vecs)
        norm, unif = rng.standard_normal((n, 6)), rng.random((n, 3))
        # the lattice is every integer vector in [-m, m]^3 but 0, in
        # row-major order: skip the middle of the cube
        k = rng.integers(0, side**3 - 1, n)
        lattice = (k + (k >= side**3 // 2))[:, None] // (side**2, side, 1) % side - m
        groups.append(ChannelDraws(
            unif[:, 0], unif[:, 1], unif[:, 2] < noise.wrong_fix_prob,
            vecs + noise.sigma_fixed_m * norm[:, :3], vecs + noise.sigma_float_m * norm[:, 3:],
            noise.wrong_fix_unit_m * lattice,
        ))
    return groups[0], groups[1]


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


# Epochs to a block, of the simulator and of the epoch reader. A block is
# held whole, so its size trades the fixed numpy calls per block against
# peak memory: on a 2-vCPU host, 64 ran the field-3ant benchmark about 5%
# faster than 32 but raised survey-6ant's peak RSS twice as much over
# per-epoch reading (2.6 MB against 1.4 MB).
EPOCH_BLOCK = 32


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
    each epoch's own width, 0 for an epoch without SNR rows. The simulator
    builds blocks whole and the epoch reader decodes into this form;
    :meth:`of` joins records into it."""

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
    draws: Sequence[tuple[ChannelDraws, ChannelDraws]] | None = None,
) -> Replay:
    """Replay the fix and baseline outcomes of a block of epochs, each with
    its ``excluded`` satellites removed from its solution satellites.

    Every record must have the layout's n antennas. Its channels are drawn
    again from its stored state (:func:`draw_channels`), unless the caller
    passes them as ``draws``. Per epoch, the count of remaining
    satellites and of multipath ones among them give the fix probabilities
    (:meth:`FixModel.probability`); then one pass over the block's
    concatenated draws grades every channel against its epoch's
    probability, so each epoch's outcome is what it gets alone.
    """
    if draws is None:
        bits = np.random.PCG64(0)
        rng, draws = np.random.Generator(bits), []
        for req in requeries:
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": req.state, "inc": req.stream.increment},
                          "has_uint32": int(req.uint32 is not None), "uinteger": req.uint32 or 0}
            draws.append(draw_channels(rng, req))
    n = layout.antenna_count
    pairs, body = _pair_baselines(layout)
    p_ant: list[float] = []
    p_bl: list[float] = []
    fraction: list[float] = []
    used: list[int] = []
    for req, mp, out in zip(requeries, multipath_sats, excluded):
        remaining = [s for s in req.stream.solution_sats if s not in out]
        n_mp = sum(1 for s in remaining if s in mp)
        n_clean = len(remaining) - n_mp
        model = req.stream.model
        p_ant += [model.probability(n_clean, n_mp, b) for b in model.antenna_bias]
        p_bl.append(model.probability(n_clean, n_mp, model.baseline_bias))
        fraction.append(model.float_fraction)
        used.append(len(remaining))
    n_ep, n_pairs = len(used), len(pairs)
    antenna_draws, baseline_draws = zip(*draws)
    ant_fixed, ant_float, ant_vec = _grade(
        ChannelDraws.joined(antenna_draws), np.array(p_ant), np.repeat(fraction, n)
    )
    bl_fixed, bl_float, bl_vec = _grade(
        ChannelDraws.joined(baseline_draws),
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

    Draws the epoch's channels again from the state in its truth channel,
    so the result is deterministic and promotes statuses monotonically as
    true multipath satellites are excluded. Only simulated streams carry
    the data needed.
    """
    if epoch.truth is None or epoch.truth.requery is None:
        raise ValidationError("epoch carries no re-query data (not a simulated stream?)")
    if epoch.truth.requery.stream.layout.antenna_count != layout.antenna_count:
        raise ValidationError("layout antenna count does not match the stream")
    found = replay([epoch.truth.requery], [epoch.truth.multipath_sats], [excluded], layout)
    return found.fixes, found.baselines
