"""The epoch blocks and the replay of their fix outcomes.

An :class:`EpochBlock` holds consecutive epochs of the stream, at most
:data:`EPOCH_BLOCK` as the simulator and the reader make them, in one
record of arrays of each kind: the antenna solutions, the baseline
observations and the SNR table, plus each epoch's optional
:class:`EpochTruth` channel. It is the stream's one form from end to end:
the simulator yields blocks, the epoch writer encodes them, the reader
decodes into them and ``pipeline.run`` takes them. A single epoch is a
block of one (:meth:`EpochBlock.epoch`).

A block holds its stream's antenna layout and :class:`RequeryStream`
constants once, and a simulated epoch's truth channel its true pose as
written and the PCG64 state before the epoch's first draw.
:func:`draw_channels` makes the epoch's generator calls, the simulator on
its live generator and :func:`replay` on one set to the stored state, and
:func:`block_draws` builds a block's :class:`ChannelDraws` from them and
the poses at once, so a re-query grades the simulator's own draws against
the probabilities of a reduced satellite set: removing a multipath
satellite can only promote statuses, never revoke them. :func:`replay`
re-queries a block of epochs at once, grading the block's draws in one
pass; :func:`requery_epoch` is that replay on a block of one.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .attitude import Baselines
from .core import AntennaLayout, Rows, quat_to_matrix, unit_quats
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
    calibrated fix model, the solution satellites, the simulator's channel
    noise, the PCG64 ``increment`` and the ``numpy`` that drew the stream,
    which must be this one (NEP 19 does not promise the same ``Generator``
    values across numpy releases)."""

    model: FixModel
    solution_sats: tuple[str, ...]
    noise: ChannelNoise
    increment: int
    numpy: str

    def __post_init__(self) -> None:
        model = self.model
        if model.target_fix_probs is not None or model.baseline_target_fix_prob is not None:
            raise ValidationError("the calibrated fix model has no fix probability targets")
        if not (0 < self.increment < 2**128 and self.increment % 2):
            raise ValidationError("the PCG64 increment must be an odd integer below 2**128")
        if self.numpy != np.__version__:
            raise ValidationError(f"the requery draws were made under numpy {self.numpy}, "
                                  f"not this numpy {np.__version__}; re-run mgp simulate")


def draw_channels(rng: np.random.Generator, stream: RequeryStream,
                  n: int) -> tuple[np.ndarray, ...]:
    """One epoch's channel draws from ``rng`` for ``n`` antennas, in the
    order the simulator documents: for the antennas, then the baselines,
    (n, 6) normals, (n, 3) uniforms and (n,) wrong-fix lattice indices: all
    that is drawn per epoch; :func:`block_draws` builds the channels."""
    lattice = (2 * stream.noise.wrong_fix_max_multiple + 1) ** 3 - 1
    out: list[np.ndarray] = []
    for rows in (n, n * (n - 1) // 2):
        out += rng.standard_normal((rows, 6)), rng.random((rows, 3)), rng.integers(0, lattice, rows)
    return tuple(out)


def block_draws(stream: RequeryStream, layout: AntennaLayout, positions: np.ndarray,
                attitudes: np.ndarray, raw: Sequence[tuple[np.ndarray, ...]]
                ) -> tuple[ChannelDraws, ChannelDraws]:
    """The antenna and the baseline channel draws of E epochs of ``stream``
    on ``layout``, each epoch's in turn, from the (E, 3) true positions and
    (E, 4) attitudes and each epoch's :func:`draw_channels`. A latent vector
    is the true antenna position or baseline at the epoch's pose plus a
    sigma times three of the normals. The attitudes are normalized here,
    sign kept: the one place that fixes the bits a replay is built at."""
    noise, m = stream.noise, stream.noise.wrong_fix_max_multiple
    side = 2 * m + 1
    r_t = np.swapaxes(quat_to_matrix(unit_quats(attitudes, canonicalize=False)), 1, 2)
    truth = (positions[:, None] + layout.positions @ r_t, _pair_baselines(layout)[1] @ r_t)
    columns = [np.concatenate(column) for column in zip(*raw)]
    groups = []
    for vecs, (norm, unif, k) in zip(truth, (columns[:3], columns[3:])):
        vecs = vecs.reshape(-1, 3)
        # the lattice is every integer vector in [-m, m]^3 but 0, in
        # row-major order: skip the middle of the cube
        lattice = (k + (k >= side**3 // 2))[:, None] // (side**2, side, 1) % side - m
        groups.append(ChannelDraws(
            unif[:, 0], unif[:, 1], unif[:, 2] < noise.wrong_fix_prob,
            vecs + noise.sigma_fixed_m * norm[:, :3], vecs + noise.sigma_float_m * norm[:, 3:],
            noise.wrong_fix_unit_m * lattice,
        ))
    return groups[0], groups[1]


@dataclass(frozen=True)
class EpochTruth:
    """The true pose as written, the position ``[E, N, U]`` and the
    attitude ``[qx, qy, qz, qw]``, the simulator's faults and ``requery``,
    the PCG64 state before the epoch's first draw and the 32-bit half held
    back for the next draw, or None."""

    position: tuple[float, float, float]
    attitude: tuple[float, float, float, float]
    multipath_sats: frozenset[str]
    corrupted_baselines: frozenset[tuple[int, int]]
    wrong_fix_antennas: frozenset[int]
    requery: tuple[int, int | None] | None = None


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
    row :func:`offsets`, the E truth channels and the stream's ``layout``
    (the body frame of ``w``) and ``requery`` constants. The SNR table is as
    wide as the widest epoch's rows, NaN-padded; ``snr_width`` (E,) int64
    holds each epoch's own width, 0 for an epoch without SNR rows. The
    simulator builds blocks whole and the epoch reader decodes into this
    form."""

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
    layout: AntennaLayout
    requery: RequeryStream | None

    def __len__(self) -> int:
        return len(self.t)

    def epoch(self, k: int) -> EpochBlock:
        """Epoch k as a block of one, its arrays slices of the block's and
        its row offsets rebased."""
        f, b, s = (slice(ends[k], ends[k + 1])
                   for ends in (self.fix_ends, self.baseline_ends, self.snr_ends))
        one = slice(k, k + 1)
        return EpochBlock(
            self.t[one], self.lines[one], self.fixes.select(f), [0, f.stop - f.start],
            self.baselines.select(b), [0, b.stop - b.start],
            SnrTable(self.snr.sat_ids[s], self.snr.dbhz[s, : self.snr_width[k]]),
            [0, s.stop - s.start], self.snr_width[one], self.truth[one], self.layout, self.requery)


def _grade(
    draws: ChannelDraws, p_fix: np.ndarray, float_fraction: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIXED mask, FLOAT mask and the measured (n, 3) vectors of a group of
    channels, each row with its own fix probability: a fix takes the
    fixed-grade latent (plus its offset when wrong), a float the float-grade
    one."""
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
    stream: RequeryStream,
    states: Sequence[tuple[int, int | None]],
    positions: np.ndarray,
    attitudes: np.ndarray,
    multipath_sats: Sequence[frozenset[str]],
    excluded: Sequence[frozenset[str]],
    layout: AntennaLayout,
    draws: tuple[ChannelDraws, ChannelDraws] | None = None,
) -> Replay:
    """Replay the fix and baseline outcomes of a block of epochs of
    ``stream``, each with its ``excluded`` satellites removed.

    ``layout`` is the stream's, of n antennas. The channels are drawn
    again from the epochs' requery ``states`` and their (E, 3) true
    ``positions`` and (E, 4) ``attitudes`` (:func:`block_draws`), unless the
    caller passes them as ``draws``. Per epoch, the count of remaining
    satellites and of multipath ones among them give the fix probabilities
    (:meth:`FixModel.probability`, once per distinct pair); then one pass
    over the block's draws grades every channel against its epoch's
    probability, so each epoch's outcome is what it gets alone.
    """
    n = layout.antenna_count
    if draws is None:
        bits = np.random.PCG64(0)
        rng, raw = np.random.Generator(bits), []
        for state, uint32 in states:
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": state, "inc": stream.increment},
                          "has_uint32": int(uint32 is not None), "uinteger": uint32 or 0}
            raw.append(draw_channels(rng, stream, n))
        draws = block_draws(stream, layout, positions, attitudes, raw)
    pairs, body = _pair_baselines(layout)
    model = stream.model
    counts = []
    for mp, out in zip(multipath_sats, excluded):
        remaining = [s for s in stream.solution_sats if s not in out]
        n_mp = sum(1 for s in remaining if s in mp)
        counts.append((len(remaining) - n_mp, n_mp))
    biases = (*model.antenna_bias, model.baseline_bias)
    p_of = {c: [model.probability(*c, b) for b in biases] for c in set(counts)}
    p = np.array([p_of[c] for c in counts]).reshape(-1, n + 1)
    n_ep, n_pairs = len(counts), len(pairs)
    ant_fixed, ant_float, ant_vec = _grade(draws[0], p[:, :n].ravel(), model.float_fraction)
    bl_fixed, bl_float, bl_vec = _grade(draws[1], np.repeat(p[:, n], n_pairs), model.float_fraction)
    grade = 2 * ant_fixed.astype(np.int8) + ant_float
    fixes = Fixes(
        ids=np.tile(np.arange(1, n + 1), n_ep),
        grade=grade,
        p=np.where((grade > 0)[:, None], ant_vec, np.nan),
        sats_used=np.repeat(np.array([sum(c) for c in counts], dtype=np.int64), n),
    )
    keep = bl_fixed | bl_float
    baselines = Baselines(
        np.tile(pairs, (n_ep, 1))[keep], bl_vec[keep], np.tile(body, (n_ep, 1))[keep],
        bl_fixed[keep],
    )
    return Replay(fixes, baselines, np.repeat(np.arange(n_ep), n_pairs)[keep], bl_fixed)


def requery_epoch(epoch: EpochBlock, excluded: frozenset[str]) -> tuple[Fixes, Baselines]:
    """Replay the fix and baseline outcomes of a block of one epoch with
    satellites removed: :func:`replay` on it, the solved baselines only.

    Draws the epoch's channels again from the state in its truth channel,
    on the block's layout, so the result is deterministic and promotes
    statuses monotonically as true multipath satellites are excluded. Only
    simulated streams carry the data needed.
    """
    if len(epoch) != 1:
        raise ValidationError(f"requery_epoch takes a block of one epoch, not {len(epoch)}")
    truth, stream = epoch.truth[0], epoch.requery
    if truth is None or truth.requery is None or stream is None:
        raise ValidationError("epoch carries no re-query data (not a simulated stream?)")
    found = replay(stream, [truth.requery], np.array([truth.position]),
                   np.array([truth.attitude]), [truth.multipath_sats], [excluded], epoch.layout)
    return found.fixes, found.baselines
