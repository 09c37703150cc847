"""One epoch at a time: the tests' per-epoch helpers, and the scalar
reference of the block simulator and the block epoch writer.

The library's epoch stream is :class:`mgp.EpochBlock` records from the
simulator to the file and back, and a single epoch is a block of one. Tests
that look at, edit or reorder single epochs take the blocks' epochs
(:func:`epochs_of`), make or edit one (:func:`one_epoch`, :func:`edited`)
and join them back into reader-sized blocks for ``write_epochs`` and
``run`` (:func:`joined`, :func:`blocks_of`, :func:`epoch_blocks`,
:func:`no_skips`); :func:`epoch_from_dict` decodes
one epoch line of a stream header (:func:`stream_header`,
:func:`header_of`), :func:`read_skipping` reads a stream's epochs one at a
time, recording the lines the reader skips, and :func:`replay_truths`
replays epochs by their truth channels. :func:`simulate_records` and :func:`epoch_to_dict` are the
per-epoch simulator loop and line encoder the blocks replaced, kept as the
reference of ``test_simulator.py``'s differential tests with
:func:`write_lines`, the line writer, and
:func:`draw_channels` is the per-epoch channel draw the block draws
(``mgp.epochs.block_draws``) replaced.
"""
from __future__ import annotations

import itertools
import json
import math
from contextlib import closing
from dataclasses import replace
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

import mgp
from mgp.attitude import Baselines
from mgp.core import AntennaLayout, UnitQuaternion, Vec3, hexagon_layout, quat_to_matrix
from mgp.epochs import (
    ChannelDraws,
    ChannelNoise,
    EpochBlock,
    EpochTruth,
    Replay,
    RequeryStream,
    _pair_baselines,
    offsets,
    replay,
)
from mgp.multipath import SNR_MAX_DBHZ, SNR_MIN_DBHZ, SnrTable
from mgp.positioning import Fixes
from mgp.simulator import (
    ScenarioConfig,
    _effective_biases,
    multipath_satellite_ids,
    trajectory_position,
    truth_attitude,
)
from mgp.streams import _GRADE_NAMES


def one_epoch(t: float, fixes: Fixes, baselines: Baselines, snr: SnrTable,
              truth: EpochTruth | None = None, requery: RequeryStream | None = None,
              line: int = 0, layout: AntennaLayout | None = None) -> EpochBlock:
    """The block of one epoch from line ``line`` of its records, of the
    stream of ``layout``, by default the hexagon."""
    width = snr.dbhz.shape[1] if len(snr) else 0  # a table without rows has width 0
    return EpochBlock(
        np.array([t], dtype=np.float64), np.array([line], dtype=np.int64),
        fixes, [0, len(fixes)], baselines, [0, len(baselines)], snr, [0, len(snr)],
        np.array([width], dtype=np.int64), (truth,), layout or hexagon_layout(), requery,
    )


def edited(epoch: EpochBlock, **changes: Any) -> EpochBlock:
    """The block of one ``epoch`` with some of the :func:`one_epoch`
    arguments changed."""
    fields = dict(t=epoch.t[0].item(), fixes=epoch.fixes, baselines=epoch.baselines,
                  snr=epoch.snr, truth=epoch.truth[0], requery=epoch.requery,
                  line=epoch.lines[0].item(), layout=epoch.layout)
    return one_epoch(**{**fields, **changes})


def epochs_of(blocks: Iterable[EpochBlock]) -> list[EpochBlock]:
    """Every epoch of ``blocks``, in order, as a block of one."""
    return [block.epoch(k) for block in blocks for k in range(len(block))]


def joined(epochs: Sequence[EpochBlock], lines: Iterable[int]) -> EpochBlock:
    """The blocks of one epoch ``epochs`` of one stream as one block, epoch
    k from line ``lines[k]``, its SNR table as wide as its widest epoch's,
    NaN-padded."""
    tables = [e.snr for e in epochs]
    widths = [t.dbhz.shape[1] if len(t) else 0 for t in tables]
    snr_ends = offsets(map(len, tables))
    dbhz = np.full((snr_ends[-1], max(widths)), np.nan)
    for t, a, w in zip(tables, snr_ends, widths):
        dbhz[a:a + len(t), :w] = t.dbhz[:, :w]
    sat_ids = tuple(itertools.chain.from_iterable(t.sat_ids for t in tables))
    fixes, baselines = [e.fixes for e in epochs], [e.baselines for e in epochs]
    return EpochBlock(
        np.concatenate([e.t for e in epochs]), np.array(list(lines), dtype=np.int64),
        Fixes.joined(fixes), offsets(map(len, fixes)),
        Baselines.joined(baselines), offsets(map(len, baselines)),
        SnrTable(sat_ids, dbhz), snr_ends, np.array(widths, dtype=np.int64),
        tuple(itertools.chain.from_iterable(e.truth for e in epochs)), epochs[0].layout,
        epochs[0].requery,
    )


def blocks_of(epochs: Iterable[EpochBlock]) -> Iterator[EpochBlock]:
    """``epochs`` :func:`joined` into blocks of ``mgp.streams.READ_BLOCK``,
    epoch k at line k + 2, as the reader reads the stream ``write_epochs``
    writes of them. When ``epochs`` raises, the epochs before the fault are
    handed out first."""
    for k, batch in enumerate(mgp.streams._batches(epochs, mgp.streams.READ_BLOCK)):
        first = 2 + k * mgp.streams.READ_BLOCK
        yield joined(batch, range(first, first + len(batch)))


def no_skips(blocks: Iterable[EpochBlock]) -> Iterator[tuple[EpochBlock, list]]:
    """``blocks`` as ``run`` takes them, each with no skipped lines."""
    return ((block, []) for block in blocks)


def epoch_blocks(epochs: Iterable[EpochBlock]) -> Iterator[tuple[EpochBlock, list]]:
    """:func:`no_skips` of the :func:`blocks_of` ``epochs``."""
    return no_skips(blocks_of(epochs))


def read_skipping(path: Any, diagnostics: list[str]) -> Iterator[EpochBlock]:
    """The epochs of ``mgp.read_epoch_blocks(path)`` one at a time, each a
    block of one, and each line the reader skips recorded in
    ``diagnostics`` as it is reached, in line order."""
    with closing(mgp.read_epoch_blocks(str(path))) as blocks:
        for block, skips in blocks:
            epochs = [(line, k) for k, line in enumerate(block.lines.tolist())]
            for _, item in sorted([*skips, *epochs], key=lambda pair: pair[0]):
                if isinstance(item, str):
                    diagnostics.append(item)
                else:
                    yield block.epoch(item)


def write_lines(path: Any, header: dict[str, Any], records: Iterable[dict[str, Any]]) -> None:
    """Write the header line, then one JSON line per record."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(d) + "\n" for d in [header, *records])


def stream_header(layout: AntennaLayout | None = None,
                  requery: RequeryStream | None = None) -> mgp.streams._EpochHeader:
    """The decoded header of an epoch stream of ``layout``, by default the
    hexagon, and the requery constants ``requery``."""
    return mgp.streams._EpochHeader(layout or hexagon_layout(), requery)


def header_of(block: EpochBlock) -> mgp.streams._EpochHeader:
    """The decoded header of the stream of ``block``."""
    return stream_header(block.layout, block.requery)


def epoch_from_dict(d: dict[str, Any], header: mgp.streams._EpochHeader | None = None,
                    line: int = 0) -> EpochBlock:
    """The epoch of a parsed line ``line`` of a stream of the decoded
    ``header`` (:func:`stream_header` by default), a block of one: the
    reader's block decoder on it. Raises ValidationError for any fault of
    the line."""
    return mgp.streams._decode([d], [line], header or stream_header())


def replay_truths(stream: RequeryStream, truths: Sequence[EpochTruth],
                  excluded: Sequence[frozenset[str]], layout: AntennaLayout) -> Replay:
    """``mgp.epochs.replay`` of epochs of ``stream`` with the truth channels
    ``truths``, each with its ``excluded`` satellites, at their true poses."""
    return replay(stream, [t.requery for t in truths],
                  np.array([t.position for t in truths]).reshape(-1, 3),
                  np.array([t.attitude for t in truths]).reshape(-1, 4),
                  [t.multipath_sats for t in truths], excluded, layout)


def epoch_to_dict(epoch: EpochBlock) -> dict[str, Any]:
    """The JSON object of the line of a block of one epoch, encoded row by
    row."""
    truth = None
    if epoch.truth[0] is not None:
        tr = epoch.truth[0]
        truth = {
            "position": list(tr.position),
            "attitude": list(tr.attitude),
            "multipath_sats": sorted(tr.multipath_sats),
            "corrupted_baselines": sorted(list(p) for p in tr.corrupted_baselines),
            "wrong_fix_antennas": sorted(tr.wrong_fix_antennas),
            "requery": None if tr.requery is None
            else {"state": tr.requery[0], "uint32": tr.requery[1]},
        }
    fx, bl, snr = epoch.fixes, epoch.baselines, epoch.snr
    snr_values = snr.dbhz.tolist()
    if np.isnan(snr.dbhz).any():
        snr_values = [[None if x != x else x for x in row] for row in snr_values]
    return {
        "t": epoch.t[0].item(),
        "fixes": [
            {
                "antenna_id": i,
                "status": _GRADE_NAMES[g],
                "p": p if g else None,
                "sats_used": n,
            }
            for i, g, p, n in zip(
                fx.ids.tolist(), fx.grade.tolist(), fx.p.tolist(), fx.sats_used.tolist()
            )
        ],
        "baselines": [
            {"antenna_pair": pair, "v": v, "fixed": fixed}
            for pair, v, fixed in zip(bl.pairs.tolist(), bl.v.tolist(), bl.fixed.tolist())
        ],
        "snr_rows": [
            {"sat_id": sat, "snr": row} for sat, row in zip(snr.sat_ids, snr_values)
        ],
        "truth": truth,
    }


def draw_channels(rng: np.random.Generator, stream: RequeryStream, layout: AntennaLayout,
                  position: Vec3, attitude: UnitQuaternion) -> tuple[ChannelDraws, ChannelDraws]:
    """The antenna and the baseline channel draws of an epoch of ``stream``
    on the antennas of ``layout`` at the pose ``position``, ``attitude``,
    drawn from ``rng`` in the order
    the simulator documents: for the antennas, then the baselines, (n, 6)
    normals, (n, 3) uniforms and (n,) wrong-fix lattice indices. A latent
    vector is the true antenna position or baseline at the pose plus a
    sigma times three of the normals."""
    noise = stream.noise
    m = noise.wrong_fix_max_multiple
    side = 2 * m + 1
    r_eb = quat_to_matrix(attitude)
    truth = (position.as_array() + layout.positions @ r_eb.T,
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


def simulate_records(config: ScenarioConfig) -> Iterator[EpochBlock]:
    """The epoch stream of ``config`` one epoch at a time, each a block of
    one at the line the writer gives it, each epoch's fix outcomes a replay
    of its own draws, in the simulator's documented draw order."""
    rng = np.random.default_rng(config.seed)
    layout = config.layout
    n_ant = layout.antenna_count
    n_sat = len(config.constellation)
    pairs, _ = _pair_baselines(layout)

    mp_sats = multipath_satellite_ids(config)
    mp_mask = np.array([s.sat_id in mp_sats for s in config.constellation])
    n_mp = int(mp_mask.sum())
    n_clean = n_sat - n_mp
    ant_bias, bl_bias = _effective_biases(config, n_clean, n_mp)
    model = replace(
        config.fix_model,
        antenna_bias=tuple(ant_bias),
        target_fix_probs=None,
        baseline_bias=bl_bias,
        baseline_target_fix_prob=None,
    )
    solution_sats = tuple(s.sat_id for s in config.constellation)

    noise = config.noise
    snr_model = noise.snr
    nominal = np.array([snr_model.nominal(s.elevation_deg) for s in config.constellation])
    channel_noise = ChannelNoise(noise.sigma_fixed_m, noise.sigma_float_m, noise.wrong_fix_prob,
                                 noise.wrong_fix_unit_m, noise.wrong_fix_max_multiple)
    stream = RequeryStream(model, solution_sats, channel_noise,
                           rng.bit_generator.state["state"]["inc"], np.__version__)

    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_sat, n_ant))

    for k in range(config.n_epochs):
        t = k / config.rate_hz
        p_plat = trajectory_position(config, t)
        q_truth = truth_attitude(config, t)
        # the attitude as the block draws normalise it, for replays to match
        q_unit = UnitQuaternion.from_array(q_truth.as_array(), canonicalize=False)
        bits = rng.bit_generator.state
        state = bits["state"]["state"], bits["uinteger"] if bits["has_uint32"] else None
        ant_channels, bl_channels = draws = draw_channels(rng, stream, layout, p_plat, q_unit)
        snr_jit = rng.standard_normal((n_sat, n_ant))
        found = replay(stream, [state], p_plat.as_array()[None], q_truth.as_array()[None],
                       [mp_sats], [frozenset()], layout, draws)
        fixes, baselines = found.fixes, found.baselines

        offsets = np.zeros((n_sat, n_ant))
        if n_mp and snr_model.fading_amplitude_db > 0.0:
            swing = 3.0 * np.sin(2.0 * math.pi * t / snr_model.fading_period_s + phases)
            offsets[mp_mask] = snr_model.fading_amplitude_db * np.clip(
                swing[mp_mask], -1.0, 1.0
            )
        snr = nominal[:, None] + offsets + snr_model.thermal_jitter_db * snr_jit
        snr = np.round(np.clip(snr, SNR_MIN_DBHZ, SNR_MAX_DBHZ), 2)

        wrong_ants = frozenset((np.flatnonzero(fixes.fixed & ant_channels.wrong) + 1).tolist())
        corrupted = frozenset(map(tuple, pairs[found.bl_fixed & bl_channels.wrong].tolist()))
        truth = EpochTruth(
            position=(p_plat.x, p_plat.y, p_plat.z),
            attitude=tuple(q_truth.as_array().tolist()),
            multipath_sats=mp_sats,
            corrupted_baselines=corrupted,
            wrong_fix_antennas=wrong_ants,
            requery=state,
        )
        yield one_epoch(t, fixes, baselines, SnrTable(solution_sats, snr), truth, stream, k + 2,
                        layout)
