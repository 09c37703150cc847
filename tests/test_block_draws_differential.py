"""Differential test: the block channel draws against the per-epoch draws
they replaced.

The reference, ``scalar_epochs.draw_channels``, makes one epoch's
``ChannelDraws`` at a time: its own rotation matrix, matmuls, lattice
decode and sigma scaling after each epoch's generator calls. The library
makes only the generator calls per epoch (``mgp.epochs.draw_channels``)
and builds a whole block's channels at once (``mgp.epochs.block_draws``).
The block's antenna and baseline draws must be bitwise the reference's of
its epochs joined, on blocks around the block size, random poses and
generator states (some holding back a 32-bit half), two wrong-fix lattice
sizes and two layouts; and ``replay``, which draws the block itself, must
grade exactly as it does on the reference's draws. A block of epochs of
two requery streams is refused.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import mgp
from mgp import ValidationError, Vec3
from mgp.core import AntennaLayout, UnitQuaternion, hexagon_layout
from mgp.epochs import (
    ChannelDraws,
    ChannelNoise,
    EpochBlock,
    FixModel,
    RequeryStream,
    block_draws,
    draw_channels,
    replay,
)

from scalar_epochs import draw_channels as reference_draws
from scalar_epochs import epochs_of, replay_truths

_LAYOUTS = {
    3: AntennaLayout((Vec3(0.0, 0.0, 0.0), Vec3(1.2, 0.1, 0.0), Vec3(0.3, 0.9, 0.05))),
    6: hexagon_layout(),
}
_SATS = tuple(f"G{k:02d}" for k in range(1, 11))


def _stream(n_ant: int, max_multiple: int, increment: int = 0xDA3E39CB94B95BDB) -> RequeryStream:
    model = FixModel(antenna_bias=tuple(np.linspace(-1.0, 2.0, n_ant).tolist()),
                     baseline_bias=0.5, float_fraction=0.6)
    noise = ChannelNoise(wrong_fix_prob=0.3, wrong_fix_max_multiple=max_multiple)
    return RequeryStream(model, _SATS, _LAYOUTS[n_ant], noise, increment, np.__version__)


def _generator(stream: RequeryStream, state: int, uint32: int | None) -> np.random.Generator:
    """A generator of ``stream`` at a stored state."""
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": stream.increment},
                  "has_uint32": int(uint32 is not None), "uinteger": uint32 or 0}
    return np.random.Generator(bits)


def _records(n: int, seed: int) -> tuple[list[tuple[int, int | None]], np.ndarray, np.ndarray]:
    """``n`` random generator states, about half of them holding back a
    32-bit half, and (n, 3) positions and (n, 4) unit attitudes."""
    rng = np.random.default_rng(seed)
    states, positions, attitudes = [], [], []
    for _ in range(n):
        state = int(rng.integers(0, 2**64, dtype=np.uint64)) << 64 | int(
            rng.integers(0, 2**64, dtype=np.uint64))
        states.append((state, int(rng.integers(0, 2**32)) if rng.random() < 0.5 else None))
        q = rng.standard_normal(4)
        positions.append(rng.normal(0.0, 200.0, 3))
        attitudes.append(q / np.linalg.norm(q))
    return states, np.array(positions), np.array(attitudes)


def _assert_bitwise(got: ChannelDraws, want: ChannelDraws, what: str) -> None:
    for f in dataclasses.fields(ChannelDraws):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, (what, f.name)
        assert a.tobytes() == b.tobytes(), (what, f.name)


@pytest.mark.parametrize("n_ant", [3, 6])
@pytest.mark.parametrize("max_multiple", [1, 3])
@pytest.mark.parametrize("n_epochs", [1, 31, 32, 33, 65])
def test_block_draws_are_the_per_epoch_draws(n_ant: int, max_multiple: int, n_epochs: int) -> None:
    stream = _stream(n_ant, max_multiple)
    states, positions, attitudes = _records(
        n_epochs, seed=1000 * n_ant + 100 * max_multiple + n_epochs)
    assert any(uint32 is None for _, uint32 in states) or n_epochs == 1
    assert any(uint32 is not None for _, uint32 in states) or n_epochs == 1
    # the reference at each attitude as block_draws normalizes it
    want = [reference_draws(_generator(stream, *state), stream, Vec3(*p.tolist()),
                            UnitQuaternion.from_array(q, canonicalize=False))
            for state, p, q in zip(states, positions, attitudes)]
    got = block_draws(stream, positions, attitudes,
                      [draw_channels(_generator(stream, *state), stream) for state in states])
    for group, (block, epochs) in enumerate(zip(got, zip(*want))):
        _assert_bitwise(block, ChannelDraws.joined(epochs), f"group {group}")

    # replay draws the block itself and grades as on the reference's draws
    rng = np.random.default_rng(n_epochs)
    mp = [frozenset(s for s in _SATS if rng.random() < 0.4) for _ in states]
    out = [frozenset(s for s in _SATS if rng.random() < 0.3) for _ in states]
    drawn = tuple(ChannelDraws.joined(epochs) for epochs in zip(*want))
    found = replay(stream, states, positions, attitudes, mp, out, stream.layout)
    expected = replay(stream, states, positions, attitudes, mp, out, stream.layout, drawn)
    for record in ("fixes", "baselines"):
        got_rows, want_rows = getattr(found, record), getattr(expected, record)
        for f in dataclasses.fields(got_rows):
            got_col, want_col = getattr(got_rows, f.name), getattr(want_rows, f.name)
            assert got_col.tobytes() == want_col.tobytes(), (record, f.name)
    assert np.array_equal(found.baseline_epoch, expected.baseline_epoch)
    assert np.array_equal(found.bl_fixed, expected.bl_fixed)


def test_a_block_of_two_requery_streams_is_refused() -> None:
    """``EpochBlock.of`` refuses epochs of two requery streams, and states
    without a stream; a block of one stream replays as one."""
    cfg = mgp.load_scenario(mgp.bundled_scenario_path("multipath"))
    epochs = epochs_of(mgp.simulate(dataclasses.replace(cfg, duration_s=0.4)))
    stream = epochs[0].requery
    other = dataclasses.replace(stream, increment=stream.increment + 2)
    epochs[2] = dataclasses.replace(epochs[2], requery=other)
    with pytest.raises(ValidationError, match="one requery stream"):
        EpochBlock.of(epochs, range(4))
    bare = [dataclasses.replace(e, requery=None) for e in epochs]
    with pytest.raises(ValidationError, match="requery state without requery constants"):
        EpochBlock.of(bare, range(4))
    # an equal stream is the same stream
    epochs[2] = dataclasses.replace(epochs[2], requery=dataclasses.replace(stream))
    block = EpochBlock.of(epochs, range(4))
    none = [frozenset()] * 4
    assert len(replay_truths(block.requery, block.truth, none, stream.layout).fixes) == 24
