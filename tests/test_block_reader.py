"""Differential test: the epoch reader's blocks against the lines they hold.

``read_epoch_blocks`` gives each block of ``READ_BLOCK`` non-blank lines as
one :class:`mgp.EpochBlock` and the ``(lineno, message)`` of each line it
skipped. On the bundled streams, and on streams with the faults of
``test_epoch_faults`` (and those the reader finds with the header layout
or by a row named twice) on any lines, at several block sizes:

- each ``block.epoch(k)`` is bitwise the block of one that
  ``epoch_from_dict`` makes of its line: every array's dtype, shape and
  bytes, every time and the truth channel;
- each block is bitwise the ``joined`` blocks of one of its own
  ``epoch(k)``: its SNR table, one column per layout antenna, and the row
  offsets;
- ``block.lines`` names those lines, and the epochs and skips of a block
  cover its lines;
- the skips are what ``read_skipping`` records, in line order;
- ``run`` on the reader's blocks and on ``epoch_blocks`` of the epochs
  ``read_skipping`` gives has the same metrics, poses and diagnostics, but
  for the reader's skips, which only the first counts and places.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
import mgp.streams

from conftest import decoded_header
from scalar_epochs import epoch_blocks, epoch_from_dict, joined, read_skipping
from test_epoch_differential import _scenario
from test_epoch_faults import FAULTS, _faulty_line

READ_BLOCKS = (1, 3, 7, 32)


def _same(got: Any, want: Any, where: str = "epoch") -> None:
    """Bitwise equality of two records, field by field: arrays by dtype,
    shape and bytes, floats by their bits, the rest by type and value."""
    assert type(got) is type(want), where
    if isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _same(a, b, f"{where}[{k}]")
    elif isinstance(got, float):
        assert got.hex() == want.hex(), where
    else:
        assert got == want, where


def _check_blocks(path: Path, read_block: int, monkeypatch) -> None:
    """The block reader's epochs, lines and skips at ``read_block`` lines
    per block against the file's lines and ``read_skipping``."""
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", read_block)
    text = path.read_text(encoding="utf-8").split("\n")
    nonblank = [n for n, line in enumerate(text[1:], start=2) if line.strip()]
    stream = decoded_header(text[0])
    blocks = list(mgp.read_epoch_blocks(str(path)))
    covered: list[int] = []
    for b, (block, skips) in enumerate(blocks):
        assert isinstance(block, mgp.EpochBlock)
        lines = block.lines.tolist()
        assert lines == sorted(lines)
        want = nonblank[b * read_block:(b + 1) * read_block]
        assert sorted(lines + [n for n, _ in skips]) == want
        covered += want
        for k, n in enumerate(lines):
            _same(block.epoch(k), epoch_from_dict(json.loads(text[n - 1]), stream, n),
                  f"line {n}")
        if len(block):
            _same(block, joined(list(map(block.epoch, range(len(block)))), lines), f"block {b}")
        for n, message in skips:
            assert message.startswith(f"{path}:{n}: skipped epoch: ")
    assert covered == nonblank
    diags: list[str] = []
    epochs = list(read_skipping(path, diags))
    assert [m for _, skips in blocks for _, m in skips] == diags
    assert len(epochs) == sum(len(block) for block, _ in blocks)


def _check_runs(path: Path, read_block: int, config: mgp.PipelineConfig, monkeypatch) -> None:
    """``run`` on the reader's blocks against ``run`` on the records helper's
    blocks of the same epochs."""
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", read_block)
    got = mgp.run(mgp.read_epoch_blocks(str(path)), config)
    skipped: list[str] = []
    epochs = list(read_skipping(path, skipped))
    want = mgp.run(epoch_blocks(epochs), config)
    got_m, want_m = got.metrics.to_json_dict(), want.metrics.to_json_dict()
    assert got_m.pop("skipped") == want_m.pop("skipped") + len(skipped)
    assert json.dumps(got_m) == json.dumps(want_m)
    _same(dataclasses.astuple(got.poses), dataclasses.astuple(want.poses), "poses")
    reader = set(skipped)
    assert [d for d in got.diagnostics if d not in reader] == want.diagnostics
    assert [d for d in got.diagnostics if d in reader] == skipped


def _snr_width_5(record: dict) -> None:
    for row in record["snr_rows"]:
        row["snr"] = row["snr"][:5]


def _no_snr_rows(record: dict) -> None:
    record["snr_rows"] = []


def _unknown_antenna(record: dict) -> None:
    record["fixes"][0]["antenna_id"] = 9


def _dup_satellite(record: dict) -> None:
    record["snr_rows"].append(record["snr_rows"][0])


def _dup_antenna(record: dict) -> None:
    record["fixes"].append(record["fixes"][0])


# Edits of a line that parses: no SNR rows leaves it an epoch; rows of
# another width than the layout, an antenna outside it, and a satellite or
# an antenna named twice are faults the reader finds per epoch, with the
# header layout, after the checks of each field's JSON type.
EPOCH_EDITS = {"snr-width-5": _snr_width_5, "no-snr-rows": _no_snr_rows,
               "unknown-antenna": _unknown_antenna, "dup-satellite": _dup_satellite,
               "dup-antenna": _dup_antenna}


# Records of the "edited" stream and their edits: alone, next to each other
# and on both sides of the edges of blocks of 3, 7 and 32 lines.
EDITED = {0: "no-snr-rows", 2: "dup-satellite", 6: "snr-width-5", 7: "no-snr-rows",
          13: "unknown-antenna", 14: "dup-antenna", 20: "snr-width-5", 30: "dup-antenna",
          31: "no-snr-rows", 32: "snr-width-5", 33: "dup-satellite"}


@pytest.fixture(scope="module")
def bundled(tmp_path_factory) -> dict[str, Path]:
    """The bundled streams, and the multipath one with the EDITED records."""
    out = {}
    for name in ("multipath", "fixrate", "flight"):
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, 4.0)))
        out[name] = path
    header, *lines = out["multipath"].read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for k, edit in EDITED.items():
        EPOCH_EDITS[edit](records[k])
    out["edited"] = tmp_path_factory.mktemp("edited") / "epochs.jsonl"
    out["edited"].write_text("\n".join([header, *map(json.dumps, records)]) + "\n",
                             encoding="utf-8")
    return out


@pytest.mark.parametrize("read_block", READ_BLOCKS)
@pytest.mark.parametrize("name", ["multipath", "fixrate", "flight", "edited"])
def test_bundled_blocks_are_their_lines(bundled, monkeypatch, name: str, read_block: int) -> None:
    _check_blocks(bundled[name], read_block, monkeypatch)
    _check_runs(bundled[name], read_block, mgp.PipelineConfig(), monkeypatch)


# The lines of each clean stream, by name. The fixture fills it, and the
# hypothesis tests look their stream up here: hypothesis writes the repr of
# each test argument into its falsifying-example note.
CLEAN_LINES: dict[str, list[str]] = {}


@pytest.fixture(scope="module")
def clean_lines(tmp_path_factory) -> dict[str, list[str]]:
    for name in ("multipath", "fixrate"):
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, 4.0)))
        CLEAN_LINES[name] = path.read_text(encoding="utf-8").splitlines()
    return CLEAN_LINES


@pytest.mark.usefixtures("clean_lines")
@pytest.mark.parametrize("name, subset", [("multipath", None), ("fixrate", (1, 3, 5))],
                         ids=["multipath-all", "fixrate-1-3-5"])
@settings(
    max_examples=4,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_faulty_stream_blocks_are_their_lines(
    monkeypatch, tmp_path: Path, name: str, subset, data: st.DataObject
) -> None:
    header, *lines = CLEAN_LINES[name]
    kinds = (*FAULTS, *EPOCH_EDITS, "early-timestamp")
    chosen = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=10,
                                unique=True))
    out = [header]
    for k, line in enumerate(lines):
        kind = data.draw(st.sampled_from(kinds), label=f"record {k}") if k in chosen else None
        record = json.loads(line)
        if kind == "blank":
            out.append("  ")
        elif kind == "early-timestamp" and k:
            record["t"] = json.loads(lines[k - 1])["t"]
            line = json.dumps(record)
        elif kind in EPOCH_EDITS:
            EPOCH_EDITS[kind](record)
            line = json.dumps(record)
        elif kind in FAULTS and kind != "blank":
            line = _faulty_line(record, kind, data)
        out.append(line)
    path = tmp_path / "faulty.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    config = mgp.PipelineConfig(antenna_subset=subset)
    for read_block in READ_BLOCKS:
        _check_blocks(path, read_block, monkeypatch)
        _check_runs(path, read_block, config, monkeypatch)


def _snr_rows_differ(record: dict) -> None:
    row = record["snr_rows"][-1]
    row["snr"] = row["snr"][:-1]


def _raises(objects: list, lines: list[int], stream) -> bool:
    try:
        mgp.streams._decode(objects, lines, stream)
    except Exception:
        return True
    return False


@pytest.mark.usefixtures("clean_lines")
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_block_raises_exactly_when_one_of_its_lines_raises_alone(data: st.DataObject) -> None:
    """``_decode`` on the parsed lines of a block, the faults and edits of
    the reader's tests on some (and an epoch whose own SNR rows differ in
    width), raises exactly when one of those lines raises alone."""
    header, *lines = CLEAN_LINES["multipath"]
    stream = decoded_header(header)
    first = data.draw(st.integers(0, len(lines) - 2), label="first")
    block = lines[first:first + data.draw(st.integers(2, 8), label="size")]
    # the edits twice as often as each fault: the per-epoch checks run on
    # the rows of the whole block, so they could mix epochs up
    kinds = (*FAULTS, *EPOCH_EDITS, *EPOCH_EDITS, "snr-rows-differ")
    chosen = data.draw(st.lists(st.integers(0, len(block) - 1), min_size=1, max_size=3,
                                unique=True))
    objects, numbers = [], []
    for k, line in enumerate(block):
        n = first + 2 + k
        kind = data.draw(st.sampled_from(kinds), label=f"line {n}") if k in chosen else None
        record = json.loads(line)
        if kind == "snr-rows-differ":
            _snr_rows_differ(record)
        elif kind in EPOCH_EDITS:
            EPOCH_EDITS[kind](record)
        elif kind is not None:
            line = "  " if kind == "blank" else _faulty_line(record, kind, data)
            record = mgp.streams._parsed(line)
        if not isinstance(record, Exception):
            objects.append(record)
            numbers.append(n)
    alone = [_raises([obj], [n], stream) for obj, n in zip(objects, numbers)]
    assert _raises(objects, numbers, stream) == any(alone)


def test_a_block_whose_only_faults_do_not_parse_is_decoded_once(
    clean_lines, monkeypatch
) -> None:
    """Lines that are not JSON are set aside before the block is decoded,
    and epochs with and without SNR rows share one table of the layout's
    width: such a block is built by one ``_decode`` call, of the lines that
    parse."""
    header, *lines = clean_lines["multipath"]
    block = []
    for n, line in enumerate(lines[:mgp.streams.READ_BLOCK], start=2):
        if n % 5 == 0:
            record = json.loads(line)
            _no_snr_rows(record)
            line = json.dumps(record)
        block.append((n, "{not json" if n % 7 == 0 else line))
    calls: list[list[int]] = []
    decode = mgp.streams._decode

    def counted(objects, numbers, stream):
        calls.append(list(numbers))
        return decode(objects, numbers, stream)

    monkeypatch.setattr(mgp.streams, "_decode", counted)
    epochs, faults = mgp.streams._epoch_block("e.jsonl", block, decoded_header(header))
    good = [n for n, line in block if line != "{not json"]
    assert calls == [good]
    assert epochs.lines.tolist() == good
    assert [n for n, _ in faults] == [n for n, line in block if line == "{not json"]
    assert epochs.snr.dbhz.shape[1] == 6
    rows = np.diff(epochs.snr_ends)
    assert rows.min() == 0 < rows.max()


@pytest.mark.parametrize("other", ["{not json", "[1, 2]"], ids=["not-json", "array"])
def test_faults_come_in_line_order(clean_lines, tmp_path: Path, other: str) -> None:
    """A line that fails validation before one that does not parse, or one
    that is no object, in the same block: the block reader, ``read_epochs``,
    ``read_skipping`` and ``run`` name them in line order."""
    header, *lines = clean_lines["multipath"]
    lines = list(lines[:mgp.streams.READ_BLOCK])
    lines[3], lines[9] = json.dumps({**json.loads(lines[3]), "t": "bad"}), other
    path = tmp_path / "epochs.jsonl"
    path.write_text("\n".join([header, *lines]) + "\n",
                    encoding="utf-8")
    where = [f"{path}:5", f"{path}:11"]
    blocks = list(mgp.read_epoch_blocks(str(path)))
    assert [[n for n, _ in skips] for _, skips in blocks] == [[5, 11]]
    with pytest.raises(mgp.InputError) as fault:
        list(mgp.read_epochs(str(path)))
    assert str(fault.value).startswith(f"{where[0]}: epoch time must be a number")
    diags: list[str] = []
    assert len(list(read_skipping(path, diags))) == len(lines) - 2
    assert [d.split(": ")[0] for d in diags] == where
    assert diags == [message for _, skips in blocks for _, message in skips]
    result = mgp.run(mgp.read_epoch_blocks(str(path)), mgp.PipelineConfig())
    assert [d.split(": ")[0] for d in result.diagnostics if "skipped epoch" in d] == where
