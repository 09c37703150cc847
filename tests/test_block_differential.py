"""Differential test: ``run``'s block consensus against a per-epoch loop.

``run`` decides every skip per epoch and then solves the surviving epochs
in blocks of at most ``mgp.pipeline.BLOCK_PAIRS`` pair hypotheses. The block
sizes must not show in any output: a block of one epoch, the default blocks
and the whole stream as one block give byte-identical metrics and identical
pose rows, and so does the reference below, which takes the stream through
``process_epoch`` one epoch at a time, with bad epochs placed at block edges
and inside blocks. Under both, the consensus kernel gives bitwise the same
result for an epoch in a block as for that epoch alone.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import mgp
import mgp.pipeline
from mgp import Baselines, PipelineConfig, RansacParams
from mgp.errors import InputError, InsufficientDataError, ValidationError
from mgp.robust import consensus

from test_epoch_differential import _scenario
from test_ransac_differential import _random_epoch

# Each case with a block cap that puts a few epochs in a block: six
# antennas form up to 105 pairs per epoch, antennas 1, 3 and 5 three.
CASES = [("multipath", None, 250), ("fixrate", (1, 3, 5), 9)]


@pytest.fixture(scope="module")
def streams(tmp_path_factory) -> dict[str, Path]:
    out = {}
    for name in ("multipath", "fixrate"):
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, 6.0)))
        out[name] = path
    return out


def _run(path: Path, config: PipelineConfig, cap: int | None, monkeypatch) -> tuple:
    """Metrics JSON, pose rows, diagnostics and the epoch count of every
    consensus block of one ``estimate`` at block cap ``cap``."""
    blocks: list[int] = []
    kernel = mgp.pipeline.consensus

    def counting(epochs, params):
        blocks.append(len(epochs))
        return kernel(epochs, params)

    with monkeypatch.context() as m:
        if cap is not None:
            m.setattr(mgp.pipeline, "BLOCK_PAIRS", cap)
        m.setattr(mgp.pipeline, "consensus", counting)
        diags: list[str] = []
        epochs = mgp.read_epochs(str(path), skip_malformed=True, diagnostics=diags)
        result = mgp.run(epochs, config, diagnostics=diags)
    metrics = json.dumps(result.metrics.to_json_dict(), indent=2)
    return metrics, result.pose_rows, result.diagnostics, blocks


def _per_epoch(path: Path, config: PipelineConfig) -> tuple[list[mgp.PoseRow], list[str], int]:
    """Pose rows, diagnostics and skip count of the stream taken through
    ``process_epoch`` one epoch at a time, with run's skip rules."""
    diags: list[str] = []
    rows: list[mgp.PoseRow] = []
    last_t = None
    epochs = mgp.read_epochs(str(path), skip_malformed=True, diagnostics=diags)
    for idx, epoch in enumerate(epochs):
        if last_t is not None and epoch.t <= last_t:
            diags.append(f"epoch {idx}: non-increasing timestamp {epoch.t!r}, skipped")
            continue
        try:
            result = mgp.process_epoch(epoch, config)
        except (ValidationError, InputError, InsufficientDataError) as exc:
            diags.append(f"epoch {idx} (t={epoch.t!r}): {exc}")
            continue
        last_t = epoch.t
        att, pos = result.attitude, result.position
        rows.append(
            mgp.PoseRow(
                t=epoch.t,
                p=pos.p if pos.available else None,
                q=att.q if att.available else None,
                n_fix=int(result.fixes_used.fixed.sum()),
            )
        )
    return rows, diags, len(diags)


def _caps(mid: int) -> list[int | None]:
    """A block of one epoch, a few epochs, the default, the whole stream."""
    return [1, mid, None, 10**9]


@pytest.mark.parametrize("name, subset, mid", CASES, ids=["multipath-all", "fixrate-1-3-5"])
def test_block_partition_does_not_change_outputs(streams, monkeypatch, name, subset, mid) -> None:
    config = PipelineConfig(antenna_subset=subset)
    runs = [_run(streams[name], config, cap, monkeypatch) for cap in _caps(mid)]
    one, few, whole = runs[0], runs[1], runs[3]
    assert set(one[3]) == {1} and len(whole[3]) == 1
    assert len(few[3]) > 3 and max(few[3]) > 1
    for metrics, rows, diags, _ in runs[1:]:
        assert metrics == one[0]
        assert rows == one[1]
        assert diags == one[2] == []


def _set_t_to_previous(records: list[dict], k: int) -> None:
    records[k]["t"] = records[k - 1]["t"]


def _unknown_antenna(records: list[dict], k: int) -> None:
    records[k]["fixes"][0]["antenna_id"] = 9


def _no_requery(record: dict) -> None:
    # keep feedback from replacing the record's own fixes and baselines
    if record.get("truth"):
        record["truth"]["requery"] = None


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
    17: _duplicate_fix,
    22: _degenerate_only,
    23: _one_fixed_baseline,
    31: _unknown_antenna,
    38: _mistyped,
    44: _set_t_to_previous,
    50: _degenerate_only,
    59: _mistyped,
}


@pytest.mark.parametrize("name, subset, mid", CASES, ids=["multipath-all", "fixrate-1-3-5"])
def test_bad_epochs_match_per_epoch_loop(streams, monkeypatch, tmp_path, name, subset, mid) -> None:
    lines = streams[name].read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 60
    for k, edit in EDITS.items():
        edit(records, k)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")

    config = PipelineConfig(antenna_subset=subset)
    rows, diags, skipped = _per_epoch(path, config)
    # 3 mistyped lines, 2 early timestamps, 2 unknown antennas, 2 duplicates
    assert skipped == 9
    assert sum(not r.att_available for r in rows) >= 5
    for cap in _caps(mid):
        metrics, got_rows, got_diags, blocks = _run(path, config, cap, monkeypatch)
        assert got_diags == diags
        assert got_rows == rows
        assert json.loads(metrics)["skipped"] == skipped
        assert json.loads(metrics)["epochs"] == len(rows)
        if cap == mid:
            assert len(blocks) > 3 and max(blocks) > 1


def test_consensus_of_a_block_is_bitwise_its_blocks_of_one() -> None:
    """Random epochs of 2 to 15 baselines solved as one block, whose widest
    epoch pads every other, and one by one: every output is bitwise equal."""
    rng = np.random.default_rng(7)
    epochs = [Baselines.of(_random_epoch(rng)).fixed_only() for _ in range(200)]
    epochs = [e for e in epochs if len(e) >= 2]
    params = RansacParams(inlier_threshold_m=0.05, min_inliers=3)
    block = consensus(epochs, params)
    assert block.inliers.shape[1] == 15 and block.refitted.sum() > 100
    for k, epoch in enumerate(epochs):
        one = consensus([epoch], params)
        m = len(epoch)
        assert one.hypotheses[0] == block.hypotheses[k]
        assert np.array_equal(one.inliers[0], block.inliers[k, :m])
        assert not block.inliers[k, m:].any()
        for name in ("refitted", "lam", "q_be", "gap", "weights_sum"):
            assert np.array_equal(getattr(one, name)[0], getattr(block, name)[k], equal_nan=True)
