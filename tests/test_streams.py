from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import mgp
from mgp import (
    ConfigurationError,
    InputError,
    NoiseModel,
    Poses,
    Satellite,
    ScenarioConfig,
    UnitQuaternion,
    ValidationError,
    Vec3,
    bundled_scenario_path,
    euler_to_quat,
    load_calibration,
    load_reflectors,
    load_scenario,
    read_epochs,
    read_poses,
    read_scan,
    scenario_from_dict,
    simulate,
    write_epochs,
    write_poses,
    write_scan,
)

from scalar_epochs import (
    blocks_of,
    edited,
    epoch_from_dict,
    epoch_to_dict,
    epochs_of,
    header_of,
    read_skipping,
)

SATS = tuple(
    Satellite(sat_id=f"G{k:02d}", azimuth_deg=40.0 * k, elevation_deg=25.0 + 8.0 * k)
    for k in range(8)
)


def _scenario(**kw) -> ScenarioConfig:
    base = dict(seed=21, duration_s=1.0, rate_hz=10.0, constellation=SATS)
    base.update(kw)
    return ScenarioConfig(**base)


# -- epoch streams ---------------------------------------------------------------


def test_epoch_stream_round_trip_byte_identical(tmp_path: Path) -> None:
    epochs = epochs_of(simulate(_scenario(noise=NoiseModel(wrong_fix_prob=0.3))))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    assert write_epochs(str(p1), blocks_of(epochs)) == len(epochs)
    back = list(read_epochs(str(p1)))
    write_epochs(str(p2), blocks_of(back))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("fork", [True, False], ids=["worker", "one-process"])
def test_write_epochs_keeps_the_blocks_before_a_fault(tmp_path: Path, monkeypatch, fork) -> None:
    """A block source that raises after its first block of 32 epochs: the
    header and all 32 are written before the fault propagates, with a
    worker or without one."""
    blocks = list(simulate(_scenario(duration_s=4.0)))
    assert [len(block) for block in blocks] == [32, 8]

    def failing():
        yield blocks[0]
        raise ValueError("source failed")

    if not fork:
        monkeypatch.delattr(os, "fork")
    path, reference = tmp_path / "cut.jsonl", tmp_path / "whole.jsonl"
    with pytest.raises(ValueError, match="^source failed$"):
        write_epochs(str(path), failing())
    assert write_epochs(str(reference), blocks[:1]) == 32
    assert path.read_bytes() == reference.read_bytes()


def test_write_epochs_writes_nothing_before_the_first_block(tmp_path: Path) -> None:
    """The header holds the first block's layout: a block source that
    raises before its first block leaves the file empty, as one without a
    block does."""
    def failing():
        raise ValueError("source failed")
        yield

    path = tmp_path / "e.jsonl"
    with pytest.raises(ValueError, match="^source failed$"):
        write_epochs(str(path), failing())
    assert path.read_bytes() == b""
    assert write_epochs(str(path), []) == 0
    assert path.read_bytes() == b""


def test_write_epochs_refuses_a_block_of_other_requery_constants(tmp_path: Path) -> None:
    """Every requery record must hold the header's constants, which are the
    first block's: a later block of another stream raises, after the blocks
    before it are written."""
    first = list(simulate(_scenario(duration_s=4.0)))
    other = list(simulate(_scenario(duration_s=4.0, seed=22)))
    path, reference = tmp_path / "mixed.jsonl", tmp_path / "first.jsonl"
    with pytest.raises(ValidationError, match="not those of its stream header"):
        write_epochs(str(path), [*first, other[0]])
    assert write_epochs(str(reference), first) == 40
    assert path.read_bytes() == reference.read_bytes()


def test_write_epochs_refuses_a_block_of_another_layout(tmp_path: Path) -> None:
    """A stream has one body frame, the first block's: a later block of
    another layout raises, after the blocks before it are written."""
    first = list(simulate(_scenario(duration_s=4.0)))
    wider = edited(first[0].epoch(0), layout=mgp.hexagon_layout(0.95))
    path, reference = tmp_path / "mixed.jsonl", tmp_path / "first.jsonl"
    message = "^a block's layout or constants are not those of its stream header$"
    with pytest.raises(ValidationError, match=message):
        write_epochs(str(path), [*first, wider])
    assert write_epochs(str(reference), first) == 40
    assert path.read_bytes() == reference.read_bytes()


def test_write_epochs_writes_the_reader_blocks_back(tmp_path: Path) -> None:
    """A block's SNR table is as wide as its widest epoch, NaN-padded: the
    writer cuts each epoch's rows to that epoch's own width, and writes a
    NaN within it as null, so the reader's blocks of epochs of 6, 5 and 0
    SNR columns write the lines they were read from."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.5)))
    path, back = tmp_path / "e.jsonl", tmp_path / "back.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for row in records[1]["snr_rows"]:
        row["snr"] = row["snr"][:5]
    records[2]["snr_rows"][0]["snr"][0] = None
    records[3]["snr_rows"] = []
    path.write_text("\n".join([header, *map(json.dumps, records)]) + "\n", encoding="utf-8")
    blocks = [block for block, skips in mgp.read_epoch_blocks(str(path)) if not skips]
    assert [block.snr_width.tolist() for block in blocks] == [[6, 5, 6, 0, 6]]
    assert write_epochs(str(back), blocks) == 5
    assert back.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("nulled", ["first", "every"])
def test_write_epochs_writes_null_truth_streams_back(tmp_path: Path, nulled: str) -> None:
    """A stream whose first epoch's truth is null, or every epoch's, as a
    field stream is made of a simulated one: the reader's blocks hold the
    header's requery constants, so they are written back as the bytes they
    were read from, header constants included."""
    path, back = tmp_path / "e.jsonl", tmp_path / "back.jsonl"
    write_epochs(str(path), simulate(_scenario(duration_s=4.0)))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(header)["requery"] is not None
    records = [json.loads(line) for line in lines]
    for record in records[:1] if nulled == "first" else records:
        record["truth"] = None
    path.write_text("\n".join([header, *map(json.dumps, records)]) + "\n", encoding="utf-8")
    assert write_epochs(str(back), [block for block, _ in mgp.read_epoch_blocks(str(path))]) == 40
    assert back.read_bytes() == path.read_bytes()


def test_epoch_round_trip_preserves_truth_and_values(tmp_path: Path) -> None:
    epochs = epochs_of(simulate(_scenario()))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    back = list(read_epochs(str(path)))
    assert len(back) == len(epochs)
    for a, b in zip(epochs, back):
        assert a.t.tolist() == b.t.tolist()
        for name in ("ids", "grade", "p", "sats_used"):
            assert np.array_equal(getattr(a.fixes, name), getattr(b.fixes, name), equal_nan=True)
        for name in ("pairs", "fixed", "v", "w"):
            assert np.array_equal(getattr(a.baselines, name), getattr(b.baselines, name))
        assert a.snr.sat_ids == b.snr.sat_ids
        assert np.array_equal(a.snr.dbhz, b.snr.dbhz, equal_nan=True)
        (ta,), (tb,) = a.truth, b.truth
        assert ta.multipath_sats == tb.multipath_sats
        assert ta.corrupted_baselines == tb.corrupted_baselines
        assert ta.wrong_fix_antennas == tb.wrong_fix_antennas
        assert np.array_equal(ta.position, tb.position)
        assert ta.attitude == tb.attitude
        assert ta.requery == tb.requery
        assert a.requery == b.requery


def test_epoch_header_line_exact(tmp_path: Path) -> None:
    """The header holds the layout, for a stream without requery constants
    too, and a baseline row is its pair, ``v`` and ``fixed``."""
    layout = mgp.AntennaLayout((Vec3(0.0, 0.0, 0.0), Vec3(1.5, 0.0, 0.0), Vec3(0.0, 1.0, 0.25)))
    epoch = epochs_of(simulate(_scenario(layout=layout)))[0]
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), [edited(epoch, truth=None, requery=None)])
    first, line = path.read_text(encoding="utf-8").splitlines()
    assert first == ('{"format": "mgp-epoch", "version": 3, "layout": {"body_positions": '
                     '[[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.0, 0.25]]}, "requery": null}')
    assert {tuple(row) for row in json.loads(line)["baselines"]} == {("antenna_pair", "v", "fixed")}


def test_a_version_2_stream_is_refused_at_line_1(tmp_path: Path) -> None:
    """A version 2 stream, its layout in the requery constants and a body
    vector ``w`` in every baseline row, is refused as a fault of line 1
    that says to simulate again, by the strict reader and in skip mode."""
    path = tmp_path / "v2.jsonl"
    write_epochs(str(path), simulate(_scenario(duration_s=0.3)))
    header, *lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    body = header["layout"]["body_positions"]
    header = {"format": "mgp-epoch", "version": 2,
              "requery": {**header["requery"], "layout": header.pop("layout")}}
    for record in lines:
        for row in record["baselines"]:
            i, j = row["antenna_pair"]
            row["w"] = [b - a for a, b in zip(body[i - 1], body[j - 1])]
    path.write_text("".join(json.dumps(d) + "\n" for d in [header, *lines]), encoding="utf-8")
    message = f"{path}:1: epoch stream version 2 is no longer read; re-run mgp simulate"
    for read in (read_epochs, lambda p: read_skipping(p, [])):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            list(read(str(path)))


def test_epoch_dict_round_trip_without_truth() -> None:
    epoch = epochs_of(simulate(_scenario()))[0]
    d = epoch_to_dict(epoch)
    d.pop("truth")
    back = epoch_from_dict(json.loads(json.dumps(d)))
    assert back.truth == (None,)
    assert back.t.tolist() == epoch.t.tolist()


def test_read_epochs_rejects_wrong_header(tmp_path: Path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "mgp-scan", "version": 1}\n', encoding="utf-8")
    with pytest.raises(InputError):
        list(read_epochs(str(path)))
    path.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        list(read_epochs(str(path)))
    # wrong header aborts even when bad lines are skipped
    path.write_text('{"format": "other"}\n', encoding="utf-8")
    with pytest.raises(InputError):
        list(read_skipping(path, []))


def test_read_epochs_malformed_line_strict_vs_skip(tmp_path: Path) -> None:
    epochs = epochs_of(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(2, "{not json")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(InputError):
        list(read_epochs(str(path)))

    diags: list[str] = []
    back = list(read_skipping(path, diags))
    assert len(back) == len(epochs)
    assert len(diags) == 1
    assert "skipped epoch" in diags[0]


def test_read_epochs_missing_key_is_input_error(tmp_path: Path) -> None:
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), simulate(_scenario(duration_s=0.1)))
    header, line = path.read_text(encoding="utf-8").splitlines()
    d = json.loads(line)
    d.pop("fixes")
    path.write_text(header + "\n" + json.dumps(d) + "\n", encoding="utf-8")
    with pytest.raises(InputError):
        list(read_epochs(str(path)))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h["requery"]["model"]["antenna_bias"].pop(),
         r"antenna_bias needs one entry per antenna \(6\)"),
        (lambda h: h["layout"]["body_positions"].pop(),
         r"antenna_bias needs one entry per antenna \(5\)"),
        (lambda h: h["requery"]["model"].update(baseline_bias=math.nan),
         "baseline_bias must be finite"),
        (lambda h: h["requery"]["model"].update(steepness=-1.0), "steepness must be positive"),
        (lambda h: h["requery"]["model"].update(float_fraction=2.0), "float_fraction must be in"),
    ],
    ids=[
        "antenna-bias-short",
        "antennas-5-of-6",
        "nan-baseline-bias",
        "negative-steepness",
        "float-fraction-2",
    ],
)
def test_read_epochs_rejects_bad_requery_record(tmp_path: Path, edit, message: str) -> None:
    """Requery constants that fail their checks, which the stream header
    holds for every epoch, are a fault of the file: strict reading and skip
    mode alike name ``path:1``."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    for read in (read_epochs, lambda p: read_skipping(p, [])):
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:1: .*{message}"):
            list(read(str(path)))


def _set_first(group: str, key: str, value):
    def edit(record: dict) -> None:
        record[group][0][key] = value

    return edit


def _state(record: dict) -> dict:
    return record["truth"]["requery"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_first("fixes", "antenna_id", 1.7), "antenna ids must be integers"),
        (_set_first("baselines", "fixed", "no"), "baseline fixed flags must be booleans"),
        (lambda record: _state(record).update(state=True),
         "requery state must be an integer in [0, 2**128), got True"),
        (_set_first("fixes", "sats_used", 3.9), "sats_used must be integers"),
        (lambda record: record.update(t=True), "epoch time must be a number, got True"),
        (_set_first("snr_rows", "sat_id", 7), "satellite ids must be strings"),
        (_set_first("baselines", "antenna_pair", [1, 2, 9]), "antenna pairs need 2 values each"),
        (lambda record: record.update(fixes={}), "fixes must be a JSON array"),
        (lambda record: record.update(baselines=""), "baselines must be a JSON array"),
        (lambda record: record.update(snr_rows={}), "snr_rows must be a JSON array"),
        (lambda record: _state(record).update(uint32=1.0),
         "requery uint32 must be null or an integer in [0, 2**32), got 1.0"),
        (_set_first("fixes", "p", 5), "fix positions must be a JSON array"),
        (_set_first("baselines", "v", "abc"), "baseline vectors must be a JSON array"),
        (lambda record: record["truth"].update(attitude=1.5), "truth attitude must be a JSON array"),
        (lambda record: record["truth"].update(attitude=[0.0, 0.0, 1.0]),
         "truth attitude need 4 values each"),
        (lambda record: _state(record).clear(), "missing key 'state' in requery"),
        (lambda record: record.update(truht=record.pop("truth")), "unknown key 'truht'"),
        (_set_first("fixes", "P", [1.0, 2.0, 3.0]), "unknown key 'P' in fixes"),
        (lambda record: _state(record).update(note=""), "unknown key 'note' in requery"),
        (lambda record: record["fixes"].__setitem__(0, [1]), "fixes must be JSON objects"),
        (lambda record: record["baselines"].__setitem__(0, 5), "baselines must be JSON objects"),
        (lambda record: record["snr_rows"].__setitem__(0, "x"), "snr_rows must be JSON objects"),
        (lambda record: record.update(truth=[1]), "truth must be a JSON object or null"),
        (lambda record: record["truth"].update(requery=5), "requery must be a JSON object or null"),
        (lambda record: record["truth"].update(requery=[]),
         "requery must be a JSON object or null"),
        (_set_first("fixes", "status", ["fixed"]), "fix status must be one of"),
        (_set_first("fixes", "status", {}), "fix status must be one of"),
        # The fix model and the channel draws of a version-1 line are the
        # header's constants and the redrawn state's now: a line carrying
        # them has keys the format does not.
        (lambda record: _state(record).update(model="x"), "unknown key 'model' in requery"),
        (lambda record: _state(record).update(antenna_channels=3),
         "unknown key 'antenna_channels' in requery"),
        (lambda record: _state(record).update(baseline_channels={}),
         "unknown key 'baseline_channels' in requery"),
    ],
    ids=[
        "antenna-id-float",
        "fixed-string",
        "state-true",
        "sats-used-float",
        "t-true",
        "sat-id-number",
        "pair-three-ids",
        "fixes-object",
        "baselines-string",
        "snr-rows-object",
        "uint32-float",
        "position-number",
        "vector-string",
        "attitude-number",
        "attitude-three-values",
        "requery-without-keys",
        "truth-misspelled",
        "fix-unknown-key",
        "requery-unknown-key",
        "fix-array",
        "baseline-number",
        "snr-row-string",
        "truth-array",
        "requery-number",
        "requery-array",
        "status-list",
        "status-object",
        "model-string",
        "antenna-channels-number",
        "baseline-channels-object",
    ],
)
def test_read_epochs_rejects_mistyped_fields(tmp_path: Path, edit, message: str) -> None:
    """A field of the wrong JSON type is a malformed line, not a value to
    coerce, an array of another type is not an empty one, and a row of
    numbers must be an array of its width; a key the format does not have
    is no key to ignore. Strict reading names ``path:line``, skip mode
    counts it."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {re.escape(message)}"):
        list(read_epochs(str(path)))
    diags: list[str] = []
    back = list(read_skipping(path, diags))
    assert [e.t[0] for e in back] == [e.t[0] for i, e in enumerate(epochs) if i != 1]
    assert len(diags) == 1 and diags[0].startswith(f"{path}:3: skipped epoch")


@pytest.mark.parametrize("row, width", [(0, 0), (0, 7), (-1, 5), (3, 0)],
                         ids=["first-empty", "first-wide", "last-short", "middle-empty"])
def test_read_epochs_names_the_snr_widths_that_disagree(tmp_path: Path, row: int,
                                                        width: int) -> None:
    """SNR rows of one epoch must share one width: a line with a row of
    another width names the first row's width and the first other one,
    alone and inside a full reader block, and does not blame the good rows."""
    epochs = epochs_of(simulate(_scenario(duration_s=4.0)))
    assert len(epochs) > mgp.streams.READ_BLOCK
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    k = mgp.streams.READ_BLOCK // 2
    record = json.loads(lines[k])
    snr = record["snr_rows"][row]["snr"]
    n = len(snr)
    record["snr_rows"][row]["snr"] = (snr * 2)[:width]
    first, other = (width, n) if row == 0 else (n, width)
    message = f"SNR rows need one width, got {first} and {other}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        epoch_from_dict(record)
    lines[k] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    diags: list[str] = []
    assert len(list(read_skipping(path, diags))) == len(epochs) - 1
    assert diags == [f"{path}:{k + 1}: skipped epoch: {message}"]


@pytest.mark.parametrize("line", ["[1, 2]", "5", '"x"', "null"])
def test_read_epochs_names_a_line_that_is_not_an_object(tmp_path: Path, line: str) -> None:
    epochs = epochs_of(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: epoch line must be a JSON "
                                         "object$"):
        list(read_epochs(str(path)))


def test_block_decoder_checks_each_epoch_on_its_own() -> None:
    """Epochs that each name every antenna pair decode as one block, into
    the arrays each gives alone; a pair named twice in one epoch fails it."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.5)))
    stream = header_of(epochs[0])
    dicts = [json.loads(json.dumps(epoch_to_dict(e))) for e in epochs]
    block = mgp.streams._decode(dicts, range(2, len(dicts) + 2), stream)
    for got, d in zip(map(block.epoch, range(len(block))), dicts, strict=True):
        alone = epoch_from_dict(d, stream)
        assert got.t.tolist() == alone.t.tolist() and got.snr.sat_ids == alone.snr.sat_ids
        for name in ("fixes", "baselines", "snr"):
            for a, b in zip(vars(getattr(got, name)).values(), vars(getattr(alone, name)).values()):
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    pairs = dicts[2]["baselines"]
    pairs[1]["antenna_pair"] = pairs[0]["antenna_pair"][::-1]
    with pytest.raises(ValidationError, match="baseline antenna pairs must be unordered-unique"):
        mgp.streams._decode(dicts, range(len(dicts)), stream)


_NO_STATUS = object()


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("fixd", _NO_STATUS, "fix status must be one of ('none', 'float', 'fixed')"),
        (["fixed"], _NO_STATUS, "fix status must be one of ('none', 'float', 'fixed')"),
        (_NO_STATUS, "fixd", "missing key 'status' in fixes"),
        (_NO_STATUS, ["fixed"], "missing key 'status' in fixes"),
    ],
    ids=["misspelled-then-missing", "list-then-missing", "missing-then-misspelled",
         "missing-then-list"],
)
def test_the_first_fix_without_a_known_status_names_the_fault(first, second, message) -> None:
    """Whatever is wrong with a status, the first fix in fix order that has
    no known one names the line's fault."""
    d = json.loads(json.dumps(epoch_to_dict(epochs_of(simulate(_scenario(duration_s=0.1)))[0])))
    for fix, status in zip(d["fixes"], (first, second)):
        if status is _NO_STATUS:
            del fix["status"]
        else:
            fix["status"] = status
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        epoch_from_dict(d)


def _two_faults(first: str, second: str):
    edits = {
        "t-true": lambda r: r.update(t=True),
        "no-v": lambda r: r["baselines"][0].pop("v"),
        "id-float": lambda r: r["fixes"][0].update(antenna_id=1.7),
        "no-sats-used": lambda r: r["fixes"][0].pop("sats_used"),
        "sat-id-number": lambda r: r["snr_rows"][0].update(sat_id=7),
        "snr-row-number": lambda r: r["snr_rows"][1].update(snr=5),
        "no-status": lambda r: r["fixes"][1].pop("status"),
        "status-list": lambda r: r["fixes"][0].update(status=["fixed"]),
        "attitude-2": lambda r: r["truth"].update(attitude=[0.0, 0.0, 0.0, 2.0]),
        "snr-string": lambda r: r["snr_rows"][0]["snr"].__setitem__(0, "40"),
        "state-string": lambda r: _state(r).update(state=str(_state(r)["state"])),
        "state-negative": lambda r: _state(r).update(state=-1),
        "uint32-string": lambda r: _state(r).update(uint32="7"),
        "no-uint32": lambda r: _state(r).pop("uint32"),
    }

    def edit(record: dict) -> None:
        edits[first](record)
        edits[second](record)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_two_faults("t-true", "no-v"), "epoch time must be a number, got True"),
        (_two_faults("no-v", "id-float"), "antenna ids must be integers"),
        (_two_faults("sat-id-number", "no-sats-used"),
         "missing key 'sats_used' in fixes"),
        (_two_faults("snr-row-number", "sat-id-number"), "satellite ids must be strings"),
        (_two_faults("no-status", "status-list"),
         "fix status must be one of ('none', 'float', 'fixed')"),
        (_two_faults("attitude-2", "snr-string"), "SNR values must be numbers"),
        (_two_faults("state-string", "attitude-2"),
         "truth attitude norm 2.0 is not 1 within 1e-06"),
        (_two_faults("state-negative", "no-uint32"), "missing key 'uint32' in requery"),
        (_two_faults("uint32-string", "state-negative"),
         "requery state must be an integer in [0, 2**128), got -1"),
    ],
    ids=["time-before-key", "type-before-key", "key-before-type", "ids-before-widths",
         "unhashable-before-key", "snr-before-truth", "attitude-before-state",
         "key-before-state", "state-before-uint32"],
)
def test_read_epochs_reports_the_first_of_two_faults(tmp_path: Path, edit, message: str) -> None:
    """A line with two faults reports the one a field-by-field reading of
    the epoch meets first, whichever of them the block decoder's line pass
    (lookups) or its checks find: alone (the decoder on a block of one) and
    inside a full block of the reader."""
    epochs = epochs_of(simulate(_scenario(duration_s=4.0)))
    assert len(epochs) > mgp.streams.READ_BLOCK
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    k = mgp.streams.READ_BLOCK // 2
    record = json.loads(lines[k])
    edit(record)
    lines[k] = json.dumps(record)
    stream = header_of(epochs[0])
    with pytest.raises((InputError, ValidationError), match=f"^{re.escape(message)}$"):
        epoch_from_dict(json.loads(lines[k]), stream)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}:{k + 1}: {message}')}$"):
        list(read_epochs(str(path)))


@pytest.mark.parametrize(
    "attitude, norm", [([0.0, 0.0, 0.0, 2.0], "2.0"), ([0.0, 0.0, 0.0, 0.0], "0.0")]
)
def test_read_epochs_rejects_non_unit_truth_attitude(tmp_path: Path, attitude, norm) -> None:
    """A truth attitude is read, not normalized: one off unit norm by more
    than QUAT_READ_TOL is a malformed line, one within it kept as written."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    records[0]["truth"]["attitude"] = [0.0, 0.0, 0.0, 1.0000005]
    records[1]["truth"]["attitude"] = attitude
    path.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n", encoding="utf-8")

    message = f"{path}:3: truth attitude norm {norm} is not 1 within 1e-06"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        list(read_epochs(str(path)))
    diags: list[str] = []
    back = list(read_skipping(path, diags))
    assert [e.t[0] for e in back] == [e.t[0] for i, e in enumerate(epochs) if i != 1]
    assert back[0].truth[0].attitude == (0.0, 0.0, 0.0, 1.0000005)
    assert diags == [f"{path}:3: skipped epoch: truth attitude norm {norm} is not 1 within 1e-06"]


# -- scan streams -----------------------------------------------------------------


def test_scan_round_trip_byte_identical(tmp_path: Path) -> None:
    cfg = _scenario(
        trajectory=mgp.Trajectory(
            mgp.TrajectoryKind.WAYPOINT,
            waypoints=(Vec3(-5.0, 0.0, 20.0), Vec3(5.0, 0.0, 20.0)),
            speed_mps=2.0,
        ),
        duration_s=2.0,
        reflectors=(mgp.Reflector(position=Vec3(0.0, 3.0, 0.0), radius_m=1.0),),
    )
    frames = list(mgp.scan_stream(cfg, mgp.ScannerModel(spin_hz=5.0, pulses_per_rev=64)))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    n = write_scan(str(p1), frames)
    assert n == len(frames)
    back = list(read_scan(str(p1)))
    write_scan(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert any(f.reflector.any() for f in back)
    assert all(f.pulses.shape == (len(f.reflector), 4) for f in back)


def test_scan_header_and_pulse_shape(tmp_path: Path) -> None:
    frames = [
        mgp.ScanFrame(
            t=0.0,
            pulses=np.array([[0.01, 1.0, 2.0, -20.0]]),
            reflector=np.array([True]),
        )
    ]
    path = tmp_path / "s.jsonl"
    write_scan(str(path), frames)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"format": "mgp-scan", "version": 1}'
    row = json.loads(lines[1])
    assert row["pulses"] == [[0.01, 1.0, 2.0, -20.0, 1]]


def test_read_scan_rejects_wrong_header_and_bad_rows(tmp_path: Path) -> None:
    path = tmp_path / "s.jsonl"
    path.write_text('{"format": "mgp-epoch", "version": 1}\n', encoding="utf-8")
    with pytest.raises(InputError):
        list(read_scan(str(path)))
    path.write_text('{"format": "mgp-scan", "version": 1}\n{"t": 0.0}\n', encoding="utf-8")
    with pytest.raises(InputError):
        list(read_scan(str(path)))
    path.write_text(
        '{"format": "mgp-scan", "version": 1}\n{"t": 0.0, "pulses": [[0.0, 1.0]]}\n',
        encoding="utf-8",
    )
    with pytest.raises(InputError):
        list(read_scan(str(path)))


def test_read_scan_non_finite_pulse_names_path_and_line(tmp_path: Path) -> None:
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"format": "mgp-scan", "version": 1}\n'
        '{"t": 0.0, "pulses": [[0.0, 1.0, 2.0, 3.0, 0]]}\n'
        '{"t": 0.1, "pulses": [[0.1, NaN, 2.0, 3.0, 0]]}\n',
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: pulses must be finite$"):
        list(read_scan(str(path)))


@pytest.mark.parametrize(
    "row, message",
    [
        ('{"t": NaN, "pulses": [[0.1, 1.0, 2.0, 3.0, 0]]}', "frame time must be finite, got nan"),
        ('{"t": 0.1, "pulses": [[NaN, 1.0, 2.0, 3.0, 0]]}', "pulses must be finite"),
        ('{"t": 0.1, "pulses": [[0.1, 1.0, 2.0, 3.0, 0], [Infinity, 1.0, 2.0, 3.0, 1]]}',
         "pulses must be finite"),
        ('{"t": 0.1, "pulses": [[0.01, 1, 2, -20, "0"]]}', "pulses must be numbers"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, 0, 9.0]]}',
         "pulses need 5 values each"),
        ('{"t": 0.1, "pulses": [[0.01, "1.5", 2.0, -20.0, 0]]}', "pulses must be numbers"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, 0], [0.02, 1.0]]}',
         "pulses need 5 values each"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, 3]]}', "pulse reflector flag must be 0 or 1"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, true]]}', "pulses must be numbers"),
        ('{"t": false, "pulses": [[0.01, 1.0, 2.0, -20.0, 0]]}',
         "frame time must be a number, got False"),
        ('{"t": "0.5", "pulses": [[0.51, 1.0, 2.0, -20.0, 0]]}',
         "frame time must be a number, got '0.5'"),
        ('{"t": 0.1, "pulses": [[0.1, 1.0, 2.0, 3.0, 0]], "x": 1}', "unknown key 'x'"),
        ('[0.1, [[0.1, 1.0, 2.0, 3.0, 0]]]', "scan line must be a JSON object"),
        ('{"t": 0.1}', "missing key 'pulses'"),
        ('{"pulses": [[0.1, 1.0, 2.0, 3.0, 0]]}', "missing key 't'"),
        ('{"t": 0.1, "pulses": [0.1, 1.0, 2.0, 3.0, 0]}', "pulses must be a JSON array"),
    ],
    ids=[
        "nan-frame-time",
        "nan-pulse-time",
        "inf-pulse-time",
        "string-flag",
        "six-values",
        "string-coordinate",
        "ragged-pulses",
        "flag-3",
        "bool-flag",
        "bool-frame-time",
        "string-frame-time",
        "unknown-key",
        "non-object",
        "missing-pulses",
        "missing-t",
        "flat-pulses",
    ],
)
@pytest.mark.filterwarnings("error")
def test_read_scan_rejects_non_finite_times(tmp_path: Path, row: str, message: str) -> None:
    """Non-finite times, malformed pulses and lines that break the epoch-line
    rules (an object of the keys ``t`` and ``pulses``) name the file and line."""
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"format": "mgp-scan", "version": 1}\n'
        '{"t": 0.0, "pulses": [[0.0, 1.0, 2.0, 3.0, 0]]}\n' + row + "\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {message}"):
        list(read_scan(str(path)))


# -- pose CSV -----------------------------------------------------------------------


NAN3, NAN4 = [math.nan] * 3, [math.nan] * 4


def _poses() -> Poses:
    q = euler_to_quat(1.0, -2.0, 33.0).as_array()
    return Poses.checked(
        np.array([0.0, 0.1, 0.2]),
        np.array([[1.0, 2.0, 3.0], NAN3, [1.1, 2.1, 3.1]]),
        np.array([q, NAN4, NAN4]),
        np.array([6, 0, 2]),
    )


def test_pose_csv_round_trip(tmp_path: Path) -> None:
    poses = _poses()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert write_poses(str(p1), poses) == 3
    back = read_poses(str(p1))
    write_poses(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.t.tolist() == [0.0, 0.1, 0.2]
    assert np.isnan(back.p[1]).all() and np.isnan(back.q[1]).all()
    assert np.isfinite(back.p[2]).all() and np.isnan(back.q[2]).all()
    assert np.array_equal(back.q[0], poses.q[0])
    assert back.n_fix.tolist() == [6, 0, 2]
    assert back.complete.tolist() == [True, False, False]


def test_pose_csv_att_available_follows_quaternion(tmp_path: Path) -> None:
    # the flag is written from the quaternion row, so it cannot say 1 over
    # empty quaternion cells, which the reader would reject
    q = euler_to_quat(0.0, 0.0, 90.0).as_array()
    poses = Poses.checked(np.array([0.0, 0.1]), np.array([NAN3, NAN3]), np.array([NAN4, q]),
                          np.array([0, 3]))
    path = tmp_path / "p.csv"
    write_poses(str(path), poses)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        "0.0,,,,,,,,0,0",
        "0.1,,,," + ",".join(repr(c) for c in q.tolist()) + ",3,1",
    ]
    back = read_poses(str(path))
    assert np.isnan(back.q[0]).all() and np.array_equal(back.q[1], q)


def test_pose_csv_header_exact(tmp_path: Path) -> None:
    path = tmp_path / "p.csv"
    write_poses(str(path), _poses().select(np.zeros(3, dtype=bool)))
    assert path.read_text(encoding="utf-8") == "t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n"
    assert len(read_poses(str(path))) == 0


def test_read_poses_normalizes_near_unit_quaternions(tmp_path: Path) -> None:
    # within QUAT_READ_TOL of 1 a quaternion is read as the unit one
    path = tmp_path / "p.csv"
    path.write_text(
        "t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n0.0,,,,0.0,0.0,0.0,1.0000005,0,1\n",
        encoding="utf-8",
    )
    assert read_poses(str(path)).q.tolist() == [[0.0, 0.0, 0.0, 1.0]]


def test_pose_csv_rejects_bad_files(tmp_path: Path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_poses(str(path))
    path.write_text("t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_poses(str(path))
    path.write_text("t,E,N,U,qx,qy,qz,qw,n_fix,att_available\nx,,,,,,,,0,0\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_poses(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.0,nan,2.0,3.0,0.0,0.0,0.0,1.0,6,1", "position must be finite"),
        ("0.0,1.0,2.0,3.0,0.0,nan,0.0,1.0,6,1", "quaternion norm nan"),
        ("nan,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1", "pose timestamp must be finite"),
    ],
)
def test_read_poses_non_finite_cell_names_path_and_line(
    tmp_path: Path, row: str, message: str
) -> None:
    path = tmp_path / "p.csv"
    good = "0.1,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1"
    path.write_text(f"t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n{good}\n{row}\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {message}"):
        read_poses(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,x", "att_available must be 0 or 1, got 'x'"),
        ("0.2,1.0,2.0,3.0,,,,,6,1", "att_available is 1 but the quaternion cells are empty"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,0",
         "att_available is 0 but the quaternion cells are filled"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,-1,1", "n_fix must be a nonnegative integer, got '-1'"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,2.5,1", "n_fix must be a nonnegative integer, got '2.5'"),
        ("0.1,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1",
         "pose timestamp 0.1 is not after the previous 0.1"),
        ("0.05,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1",
         "pose timestamp 0.05 is not after the previous 0.1"),
        ("0.2,1.0,,3.0,,,,,2,0", "position cells must be all empty or all filled"),
        ("0.2,,,,0.0,0.0,,1.0,0,1", "quaternion cells must be all empty or all filled"),
        ("0.2,1_0,2.0,3.0,,,,,2,0", "'1_0' is not a number"),
        (" 0.2,1.0,2.0,3.0,,,,,2,0", "' 0.2' is not a number"),
        ("0.2,1.0,2.0,3.0,2.0,0.0,0.0,0.0,6,1", "quaternion norm 2.0 is not 1 within 1e-06"),
        ("0.2,1.0,2.0,3.0,,,,,1234567890123456,0", "n_fix 1234567890123456 is too large"),
        ("0.2,1.0,-\uff19\uff18.\uff15,3.0,,,,,2,0", "'-\uff19\uff18.\uff15' is not a number"),
        ("\u0660.\u0662,1.0,2.0,3.0,,,,,2,0", "'\u0660.\u0662' is not a number"),
    ],
    ids=[
        "att-x", "att-1-no-quaternion", "att-0-with-quaternion", "n-fix-negative",
        "n-fix-fraction", "time-repeated", "time-decreasing", "position-partial",
        "quaternion-partial", "digit-separator", "padded-time", "quaternion-not-unit",
        "n-fix-too-large", "fullwidth-position", "arabic-indic-time",
    ],
)
def test_read_poses_rejects_inconsistent_rows(tmp_path: Path, row: str, message: str) -> None:
    path = tmp_path / "p.csv"
    good = "0.1,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1"
    path.write_text(f"t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n{good}\n{row}\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {re.escape(message)}$"):
        read_poses(str(path))


# -- config loaders ---------------------------------------------------------------


def test_bundled_scenarios_exist_and_load() -> None:
    for name in ("multipath", "fixrate", "flight"):
        cfg = load_scenario(bundled_scenario_path(name))
        assert cfg.n_epochs > 0
    with pytest.raises(InputError):
        bundled_scenario_path("nope")


def test_scenario_from_dict_minimal() -> None:
    cfg = scenario_from_dict(
        {
            "seed": 3,
            "duration_s": 1.0,
            "rate_hz": 5.0,
            "constellation": [{"sat_id": "G01", "azimuth_deg": 10.0, "elevation_deg": 60.0}],
        }
    )
    assert cfg.seed == 3
    assert cfg.n_epochs == 5
    assert cfg.layout.antenna_count == 6  # hexagon default
    assert cfg.scanner is None


def test_scenario_from_dict_rejects_unknown_keys() -> None:
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"seed": 1, "bogus": 2})
    with pytest.raises(ConfigurationError):
        scenario_from_dict(
            {
                "constellation": [
                    {"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 50.0, "prn": 7}
                ]
            }
        )


def test_scenario_from_dict_layout_forms() -> None:
    base = {"constellation": [{"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 50.0}]}
    cfg = scenario_from_dict({**base, "layout": {"hexagon_circumradius_m": 0.45}})
    assert cfg.layout.position_of(1).norm() == pytest.approx(0.45)
    cfg2 = scenario_from_dict(
        {
            **base,
            "layout": {
                "body_positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
            },
        }
    )
    assert cfg2.layout.antenna_count == 3
    with pytest.raises(ConfigurationError):
        scenario_from_dict(
            {
                **base,
                "layout": {"hexagon_circumradius_m": 0.9, "body_positions": [[0.0, 0.0, 0.0]]},
            }
        )


def test_scenario_validation_error_propagates() -> None:
    # a well-formed dict with semantically invalid content keeps its
    # ValidationError rather than becoming a ConfigurationError
    with pytest.raises(mgp.ValidationError):
        scenario_from_dict(
            {
                "constellation": [
                    {"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 95.0}
                ]
            }
        )


def test_load_scenario_bad_json(tmp_path: Path) -> None:
    path = tmp_path / "s.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(InputError):
        load_scenario(str(path))
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InputError):
        load_scenario(str(path))


def test_load_calibration(tmp_path: Path) -> None:
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {"lever_arm": [0.1, 0.0, -0.2], "boresight": [0.0, 0.0, 0.0, 1.0]}
        ),
        encoding="utf-8",
    )
    calib = load_calibration(str(path))
    assert calib.lever_arm == Vec3(0.1, 0.0, -0.2)
    assert calib.boresight == UnitQuaternion.identity()
    path.write_text(json.dumps({"lever": [0.0, 0.0, 0.0]}), encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_calibration(str(path))


@pytest.mark.parametrize("boresight", [[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
def test_load_calibration_rejects_non_unit_boresight(tmp_path: Path, boresight) -> None:
    """A boresight off unit norm is an error naming the file and the key,
    not a rotation to normalize."""
    path = tmp_path / "c.json"
    calib = {"lever_arm": [0.0, 0.0, 0.0], "boresight": boresight}
    path.write_text(json.dumps(calib), encoding="utf-8")
    norm = math.hypot(*boresight)
    message = f"{path}: calibration: boresight: quaternion norm {norm!r} is not 1 within 1e-06"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_calibration(str(path))


def test_load_reflectors(tmp_path: Path) -> None:
    path = tmp_path / "r.json"
    path.write_text(
        json.dumps(
            {
                "reflectors": [[-75.0, 4.0, 0.0], [45.0, 4.0, 0.0]],
                "cluster_radius_m": 0.8,
                "min_hits": 12,
            }
        ),
        encoding="utf-8",
    )
    positions, radius, min_hits = load_reflectors(str(path))
    assert len(positions) == 2
    assert positions[0] == Vec3(-75.0, 4.0, 0.0)
    assert radius == 0.8
    assert min_hits == 12
    path.write_text(json.dumps({"cluster_radius_m": 0.8}), encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_reflectors(str(path))
