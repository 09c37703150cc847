"""Differential test: ``run``'s block consensus against a per-epoch loop.

``run`` takes the stream a block of ``mgp.streams.READ_BLOCK`` lines at a
time: the reader decodes the block, the front half decides every skip but
the timestamp's per epoch, and the block's epochs without a fault are
solved in one consensus call. The block sizes must not show in any output:
a block of one line, a few, the default blocks and the whole stream as one
block give byte-identical metrics and bitwise identical poses, and so does
the reference below, which takes the stream through ``process_epoch`` one
epoch at a time, with bad epochs placed at block edges and inside blocks.
Under both, the consensus kernel gives bitwise the same result for an
epoch in a block as for that epoch alone. The runs here delete
``os.fork``, so that the consensus and replay calls, which a worker would
make, are counted in the one process.
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import mgp
import mgp.pipeline
import mgp.streams
from mgp import PipelineConfig, RansacParams
from mgp.epochs import offsets
from mgp.errors import InputError, InsufficientDataError, ValidationError
from mgp.robust import consensus

from conftest import baselines_of
from scalar_epochs import read_skipping
from test_epoch_differential import _scenario
from test_ransac_differential import _ragged_block, _random_epoch

# Each case with a reader block of a few lines, so that EDITS land on block
# edges and inside blocks: six antennas form up to 105 pairs per epoch, five
# 45 and antennas 1, 3 and 5 three. Under a subset of five, the multipath
# stream's replayed epochs take the place of their rows as read.
CASES = [("multipath", None, 5), ("fixrate", (1, 3, 5), 7), ("multipath", (1, 2, 4, 5, 6), 4)]
IDS = ["multipath-all", "fixrate-1-3-5", "multipath-1-2-4-5-6"]


@pytest.fixture(scope="module")
def streams(tmp_path_factory) -> dict[str, Path]:
    out = {}
    for name in ("multipath", "fixrate"):
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, 6.0)))
        out[name] = path
    return out


def _run(path: Path, config: PipelineConfig, read_block: int | None, monkeypatch) -> tuple:
    """Metrics JSON, poses, diagnostics and the epoch count of every
    consensus call of one ``run`` in one process, at ``read_block`` lines
    per reader block when given."""
    blocks: list[int] = []
    kernel = mgp.pipeline.consensus

    def counting(baselines, ends, params):
        blocks.append(len(ends) - 1)
        return kernel(baselines, ends, params)

    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        if read_block is not None:
            m.setattr(mgp.streams, "READ_BLOCK", read_block)
        m.setattr(mgp.pipeline, "consensus", counting)
        result = mgp.run(mgp.streams.epoch_block_calls(str(path)), config)
    metrics = json.dumps(result.metrics.to_json_dict(), indent=2)
    return metrics, result.poses, result.diagnostics, blocks


def _per_epoch(path: Path, config: PipelineConfig) -> tuple[mgp.Poses, list[str], int]:
    """Poses, diagnostics and skip count of the stream taken through
    ``process_epoch`` one epoch at a time, with run's skip rules."""
    diags: list[str] = []
    rows: list[list[float]] = []
    n_fix: list[int] = []
    last_t = None
    epochs = read_skipping(path, diags)
    for idx, epoch in enumerate(epochs):
        t = epoch.t[0].item()
        if last_t is not None and t <= last_t:
            diags.append(f"epoch {idx}: non-increasing timestamp {t!r}, skipped")
            continue
        try:
            result = mgp.process_epoch(epoch, config)
        except (ValidationError, InputError, InsufficientDataError) as exc:
            diags.append(f"epoch {idx} (t={t!r}): {exc}")
            continue
        last_t = t
        att, pos = result.attitude, result.position
        p = pos.p.as_array().tolist() if pos.available else [np.nan] * 3
        q = att.q.as_array().tolist() if att.available else [np.nan] * 4
        rows.append([t, *p, *q])
        n_fix.append(int(result.fixes_used.fixed.sum()))
    a = np.array(rows).reshape(-1, 8)
    poses = mgp.Poses.checked(a[:, 0], a[:, 1:4], a[:, 4:], np.array(n_fix, dtype=np.int64))
    return poses, diags, len(diags)


def _assert_same_poses(got: mgp.Poses, want: mgp.Poses) -> None:
    """Bitwise equal times, positions, attitudes and fixed counts."""
    for name in ("t", "p", "q", "n_fix"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


def _read_blocks(mid: int) -> list[int | None]:
    """Reader blocks of one line, a few lines, the default, the whole stream."""
    return [1, mid, None, 10**9]


@pytest.mark.parametrize("name, subset, mid", CASES, ids=IDS)
def test_block_partition_does_not_change_outputs(streams, monkeypatch, name, subset, mid) -> None:
    config = PipelineConfig(antenna_subset=subset)
    runs = [_run(streams[name], config, size, monkeypatch) for size in _read_blocks(mid)]
    one, few, whole = runs[0], runs[1], runs[3]
    assert set(one[3]) == {1} and len(whole[3]) == 1
    assert len(few[3]) > 3 and max(few[3]) > 1
    for metrics, poses, diags, _ in runs[1:]:
        assert metrics == one[0]
        _assert_same_poses(poses, one[1])
        assert diags == one[2] == []


def _set_t_to_previous(records: list[dict], k: int) -> None:
    records[k]["t"] = records[k - 1]["t"]


def _unknown_antenna(records: list[dict], k: int) -> None:
    records[k]["fixes"][0]["antenna_id"] = 9


def _no_requery(record: dict) -> None:
    # keep feedback from replacing the record's own fixes and baselines
    if record.get("truth"):
        record["truth"]["requery"] = None


def _ahead_unknown_antenna(records: list[dict], k: int) -> None:
    # a faulted epoch's time never counts: the next two epochs are not late
    records[k]["t"] = records[k + 2]["t"]
    _unknown_antenna(records, k)


def _late_unknown_antenna(records: list[dict], k: int) -> None:
    # the timestamp check comes first, so its message wins
    _set_t_to_previous(records, k)
    _unknown_antenna(records, k)


def _set_t_to_two_before(records: list[dict], k: int) -> None:
    # record 32 starts a reader block of 32 lines; record 31 is at fault,
    # so record 30 holds the latest time this block is checked against
    records[k]["t"] = records[k - 2]["t"]


def _duplicate_fix(records: list[dict], k: int) -> None:
    fixes = records[k]["fixes"]
    fixes[1]["antenna_id"] = fixes[0]["antenna_id"]
    _no_requery(records[k])


def _mistyped(records: list[dict], k: int) -> None:
    records[k]["t"] = True


def _one_fixed_baseline(records: list[dict], k: int) -> None:
    for j, b in enumerate(records[k]["baselines"]):
        b["fixed"] = j == 0
    _no_requery(records[k])


def _degenerate_only(records: list[dict], k: int) -> None:
    # every measured baseline along one ENU direction: each pair passes the
    # body angle screen but none has an observable rotation
    for j, b in enumerate(records[k]["baselines"]):
        b["v"] = [1.0 + 0.1 * j, 0.0, 0.0]
        b["fixed"] = True
    _no_requery(records[k])


# Stream positions of the edits: the first epoch, the last, runs of
# neighbours and lone ones, so that at each cap some land on a block edge and
# some inside a block.
EDITS = {
    0: _one_fixed_baseline,
    3: _set_t_to_previous,
    4: _unknown_antenna,
    5: _duplicate_fix,
    9: _mistyped,
    10: _degenerate_only,
    13: _ahead_unknown_antenna,
    17: _duplicate_fix,
    22: _degenerate_only,
    23: _one_fixed_baseline,
    26: _late_unknown_antenna,
    31: _unknown_antenna,
    32: _set_t_to_two_before,
    38: _mistyped,
    44: _set_t_to_previous,
    50: _degenerate_only,
    59: _mistyped,
}


def _bad_stream(clean: Path, path: Path, line_edits: dict | None = None) -> Path:
    """The clean stream with EDITS applied, then each of ``line_edits``
    (record index: function of the line) to its line."""
    lines = clean.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 60
    for k, edit in EDITS.items():
        edit(records, k)
    out = [json.dumps(r) for r in records]
    for k, edit in (line_edits or {}).items():
        out[k] = edit(out[k])
    path.write_text("\n".join([lines[0], *out]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name, subset, mid", CASES, ids=IDS)
def test_bad_epochs_match_per_epoch_loop(streams, monkeypatch, tmp_path, name, subset, mid) -> None:
    path = _bad_stream(streams[name], tmp_path / "bad.jsonl")

    config = PipelineConfig(antenna_subset=subset)
    poses, diags, skipped = _per_epoch(path, config)
    # 3 mistyped lines, 4 early timestamps, 3 unknown antennas, 2 duplicates
    assert skipped == 12
    assert np.isnan(poses.q[:, 0]).sum() >= 5
    for size in _read_blocks(mid):
        metrics, got_poses, got_diags, blocks = _run(path, config, size, monkeypatch)
        assert got_diags == diags
        _assert_same_poses(got_poses, poses)
        assert json.loads(metrics)["skipped"] == skipped
        assert json.loads(metrics)["epochs"] == len(poses)
        if size == mid:
            assert len(blocks) > 3 and max(blocks) > 1


def _edit_line(edit) -> Callable[[str], str]:
    def on_line(line: str) -> str:
        record = json.loads(line)
        edit(record)
        return json.dumps(record)

    return on_line


def _drop_fix_key(record: dict) -> None:
    del record["fixes"][0]["sats_used"]


def _nan_baseline(record: dict) -> None:
    record["baselines"][-1]["v"][2] = float("nan")


def _string_flag(record: dict) -> None:
    record["baselines"][0]["fixed"] = "true"


# Reader faults on top of EDITS, placed for blocks of 3 lines, which start
# at records 0, 3, 6, ... (a blank line does not count): a truncated line
# ends the block that a mistyped line (9) starts, a missing key starts the
# next block, a non-finite value ends a block just before a blank line, a
# mistyped flag ends another, and a second non-finite value sits next to
# the mistyped last line.
LINE_EDITS = {
    11: lambda line: line[: len(line) // 2],
    12: _edit_line(_drop_fix_key),
    29: _edit_line(_nan_baseline),
    30: lambda line: "  \n" + line,
    47: _edit_line(_string_flag),
    58: _edit_line(_nan_baseline),
}


@pytest.mark.parametrize(
    "name, subset, faults",
    [
        ("multipath", None, True),
        ("fixrate", (1, 3, 5), True),
        ("multipath", None, False),
        ("multipath", (1, 2, 4, 5, 6), False),
    ],
    ids=["multipath-all", "fixrate-1-3-5", "multipath-replayed", "multipath-replayed-1-2-4-5-6"],
)
def test_read_blocks_do_not_change_outputs(streams, monkeypatch, tmp_path, name, subset, faults):
    """Reader blocks (and the front half blocks of ``run``, which take one
    reader block at a time) of one line, three lines, the default and the
    whole stream give byte-identical metrics, equal poses and the same
    diagnostics in the same order, which match the per-epoch loop's. On the
    clean multipath stream, with all antennas or five, every epoch is
    replayed by the block replay."""
    path = streams[name]
    if faults:
        path = _bad_stream(path, tmp_path / "bad.jsonl", LINE_EDITS)
    config = PipelineConfig(antenna_subset=subset)
    poses, diags, skipped = _per_epoch(path, config)
    # 12 from EDITS, 5 more bad lines (the blank line is no epoch)
    assert skipped == (17 if faults else 0)
    replayed: list[int] = []
    block_replay = mgp.pipeline.replay

    def counting(stream, states, *args):
        replayed.append(len(states))
        return block_replay(stream, states, *args)

    monkeypatch.setattr(mgp.pipeline, "replay", counting)
    runs = []
    for read_block in (1, 3, None, 10**9):
        replayed.clear()
        runs.append(_run(path, config, read_block, monkeypatch))
        if not faults:
            size = min(read_block or mgp.streams.READ_BLOCK, 60)
            assert replayed == [min(size, 60 - k) for k in range(0, 60, size)]
    for metrics, got_poses, got_diags, _ in runs:
        assert metrics == runs[0][0]
        assert json.loads(metrics)["skipped"] == skipped
        _assert_same_poses(got_poses, poses)
        assert got_diags == diags


def test_consensus_of_a_block_is_bitwise_its_blocks_of_one() -> None:
    """Random epochs of 2 to 15 baselines solved as one block, whose widest
    epoch pads every other, and one by one: every output is bitwise equal.
    Among them are epochs where no pair passes the angle screen or none has
    an observable rotation, which score no hypothesis."""
    rng = np.random.default_rng(7)
    epochs = [baselines_of(_random_epoch(rng)).fixed_only() for _ in range(200)]
    epochs += [baselines_of(obs) for obs in _ragged_block(rng, 60)]
    epochs = [epochs[k] for k in rng.permutation(len(epochs)) if len(epochs[k]) >= 2]
    params = RansacParams(inlier_threshold_m=0.05, min_inliers=3)
    block = consensus(mgp.Baselines.joined(epochs), offsets(map(len, epochs)), params)
    assert block.inliers.shape[1] == 15 and block.refitted.sum() > 100
    assert (block.hypotheses == 0).sum() >= 15
    for k, epoch in enumerate(epochs):
        m = len(epoch)
        one = consensus(epoch, [0, m], params)
        assert one.hypotheses[0] == block.hypotheses[k]
        assert np.array_equal(one.inliers[0], block.inliers[k, :m])
        assert not block.inliers[k, m:].any()
        for name in ("refitted", "lam", "q_be", "gap", "weights_sum"):
            assert np.array_equal(getattr(one, name)[0], getattr(block, name)[k], equal_nan=True)
