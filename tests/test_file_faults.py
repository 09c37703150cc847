"""Fault injection for the files ``mgp georef`` and ``mgp evaluate`` read.

A short flight's scan JSONL and pose CSV (read by ``georef``) and its cloud,
``.xyz`` and ``.bin`` (read by ``evaluate``), get one fault on a chosen
line or record: a value of the wrong type (in a binary cloud, a flag byte
other than 0 or 1), a non-finite number, a digit that is not ASCII, a
missing or an unknown key (in the CSV and ``.xyz`` files, a cell or column
too few or too many), a scan line that is not a JSON object, a truncated
line or record, or a byte that is not UTF-8. The command must exit 1 or 2
with one message that names the file and the line (``path:line``, or
``path: record k`` in a binary cloud), without a traceback or Python's own
error text.

An epoch line longer than ``MAX_EPOCH_LINE`` characters is skipped by
``estimate`` with a message naming ``path:line``, read past without being
held whole. A first line that long, of an epoch, scan or pose file, is
refused at ``path:1`` unparsed, and so is any pose line that long at its
own ``path:line``.

The stream headers are faults of the file: an epoch header (read by
``estimate``) of version 1, of another version, with requery constants of
a key, type or value it does not hold or written under another numpy, and
a scan header whose version is not the JSON integer 1, each make the
command exit 1 naming ``path:1``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
from mgp.cli import main

from scalar_epochs import read_skipping
from test_cli import _chain_files

# each ASCII digit's fullwidth and Arabic-Indic forms
NON_ASCII_DIGITS = {str(d): [chr(0xFF10 + d), chr(0x0660 + d)] for d in range(10)}
# Python's text for an error it raises itself
PYTHON_ERRORS = ("Traceback", "Error(", "not subscriptable", "indices must be")

SCAN_FAULTS = ("wrong-type", "non-finite", "non-ascii-digit", "missing-key", "unknown-key",
               "non-object", "truncated", "not-utf8")
TEXT_FAULTS = ("wrong-type", "non-finite", "non-ascii-digit", "missing-key", "unknown-key",
               "truncated", "not-utf8")
BIN_FAULTS = ("bad-flag", "non-finite", "truncated")

FAULT_SETTINGS = settings(
    max_examples=8,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> dict[str, str]:
    """A short flight's files, a binary copy of its cloud included."""
    files = _chain_files(tmp_path_factory.mktemp("chain"))
    files["cloud.bin"] = str(Path(files["cloud.xyz"]).with_suffix(".bin"))
    assert _cli(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                 "--calib", files["calib"], "--cloud", files["cloud.bin"]])[0] == 0
    return files


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_named(code: int, err: str, where: str) -> None:
    assert code in (1, 2), err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err
    assert not [text for text in PYTHON_ERRORS if text in err], err


def _non_ascii_digit(text: str, data: st.DataObject) -> str:
    """``text`` with one of its ASCII digits written as another script's."""
    at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c.isascii() and c.isdigit()]))
    return text[:at] + data.draw(st.sampled_from(NON_ASCII_DIGITS[text[at]])) + text[at + 1:]


def _faulty_line(line: str, fault: str, data: st.DataObject) -> bytes:
    """The faults every text file shares."""
    if fault == "truncated":
        return line[: data.draw(st.integers(1, len(line) - 1))].encode()
    if fault == "not-utf8":
        raw = line.encode()
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    assert fault == "non-ascii-digit"
    return _non_ascii_digit(line, data).encode("utf-8")


def _with_line(path: str, tmp: Path, data: st.DataObject, first: int, fault_of) -> tuple[Path, int]:
    """A copy of the text file ``path`` with one of its lines from line
    ``first`` on replaced by ``fault_of(line)``; the copy and the line number."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")[:-1]
    k = data.draw(st.integers(first - 1, len(lines) - 1), label="line index")
    out = tmp / Path(path).name
    raw = [line.encode() for line in lines]
    raw[k] = fault_of(lines[k])
    out.write_bytes(b"\n".join(raw) + b"\n")
    return out, k + 1


@pytest.mark.parametrize("fault", SCAN_FAULTS)
@FAULT_SETTINGS
@given(data=st.data())
def test_georef_names_the_faulty_scan_line(
    chain, tmp_path: Path, fault: str, data: st.DataObject
) -> None:
    def fault_of(line: str) -> bytes:
        if fault in ("truncated", "not-utf8", "non-ascii-digit"):
            return _faulty_line(line, fault, data)
        frame = json.loads(line)
        pulses = frame["pulses"]
        if fault == "missing-key":
            del frame[data.draw(st.sampled_from(["t", "pulses"]))]
        elif fault == "unknown-key":
            frame[data.draw(st.sampled_from(["x", "T", "true"]))] = data.draw(
                st.sampled_from([1, "false", None]))
        elif fault == "non-object":
            frame = data.draw(st.sampled_from([[frame["t"], pulses], 5, "x", None]))
        else:
            bad = (["1.0", True, None, [1.0], {}] if fault == "wrong-type"
                   else [math.nan, math.inf, -math.inf])
            value = data.draw(st.sampled_from(bad))
            if not pulses or data.draw(st.booleans(), label="frame time"):
                frame["t"] = value
            else:
                row = data.draw(st.sampled_from(pulses))
                row[data.draw(st.integers(0, 4))] = value
        return json.dumps(frame).encode()

    scan, lineno = _with_line(chain["scan.jsonl"], tmp_path, data, 2, fault_of)
    code, err = _cli(["georef", "--poses", chain["poses.csv"], "--scan", str(scan),
                      "--calib", chain["calib"], "--cloud", str(tmp_path / "cloud.xyz")])
    _assert_named(code, err, f"{scan}:{lineno}")


# the cells of a pose CSV row: the time, the position, the quaternion, n_fix
# and att_available
FLOAT_CELLS = range(8)
WRONG_CELLS = {"float": ["x", "true", "1_0", " 1.0", "0x10"], "n_fix": ["1.5", "x", "-1", ""],
               "att": ["2", "x", "", "true"]}


@pytest.mark.parametrize("fault", TEXT_FAULTS)
@FAULT_SETTINGS
@given(data=st.data())
def test_georef_names_the_faulty_pose_row(
    chain, tmp_path: Path, fault: str, data: st.DataObject
) -> None:
    def fault_of(line: str) -> bytes:
        if fault in ("truncated", "not-utf8"):
            return _faulty_line(line, fault, data)
        cells = line.split(",")
        filled = [i for i in FLOAT_CELLS if cells[i]]
        if fault == "missing-key":
            del cells[data.draw(st.integers(0, len(cells) - 1))]
        elif fault == "unknown-key":
            at = data.draw(st.integers(0, len(cells)))
            cells.insert(at, data.draw(st.sampled_from(["", "0"])))
        elif fault == "non-ascii-digit":
            digits = [i for i, c in enumerate(cells) if any(map(str.isdigit, c))]
            i = data.draw(st.sampled_from(digits))
            cells[i] = _non_ascii_digit(cells[i], data)
        elif fault == "non-finite":
            cells[data.draw(st.sampled_from(filled))] = data.draw(
                st.sampled_from(["nan", "inf", "-inf"]))
        else:
            i = data.draw(st.sampled_from(filled + [8, 9]))
            kind = "float" if i < 8 else ("n_fix", "att")[i - 8]
            cells[i] = data.draw(st.sampled_from(WRONG_CELLS[kind]))
        return ",".join(cells).encode("utf-8")

    poses, lineno = _with_line(chain["poses.csv"], tmp_path, data, 2, fault_of)
    code, err = _cli(["georef", "--poses", str(poses), "--scan", chain["scan.jsonl"],
                      "--calib", chain["calib"], "--cloud", str(tmp_path / "cloud.xyz")])
    _assert_named(code, err, f"{poses}:{lineno}")


def _evaluate(chain: dict[str, str], cloud: Path, tmp: Path) -> tuple[int, str]:
    return _cli(["evaluate", "--cloud", str(cloud), "--reflectors", chain["refl"],
                 "--report", str(tmp / "report.json")])


@pytest.mark.parametrize("fault", TEXT_FAULTS)
@FAULT_SETTINGS
@given(data=st.data())
def test_evaluate_names_the_faulty_xyz_line(
    chain, tmp_path: Path, fault: str, data: st.DataObject
) -> None:
    # the start of the message that names the fault
    named: list[str] = []

    def fault_of(line: str) -> bytes:
        if fault == "not-utf8":
            raw = _faulty_line(line, fault, data)
            bad = next(b for b in raw if b >= 0x80)
            named.append(f"byte {bad:#04x} is not UTF-8 (")
            return raw
        if fault in ("truncated", "non-ascii-digit"):
            raw = _faulty_line(line, fault, data)
            values = raw.decode().split()
        else:
            values = line.split(" ")
            if fault == "missing-key":
                del values[data.draw(st.integers(0, 3))]
            elif fault == "unknown-key":
                values.insert(data.draw(st.integers(0, 4)), "0")
            else:
                i = data.draw(st.integers(0, 3))
                bad = (["x", "true", "1_0", "0x10"] + (["2", "0.5", "-1"] if i == 3 else [])
                       if fault == "wrong-type" else ["nan", "inf", "-inf"])
                values[i] = data.draw(st.sampled_from(bad))
            raw = " ".join(values).encode()
        if len(values) != 4:
            named.append(f"expected 4 columns 'E N U flag', got {len(values)}")
        elif fault == "non-finite" or values[3] in ("2", "0.5", "-1"):
            # four numbers, which the bulk parse reads: the value is named
            named.append(f"flag {values[3]} is not 0 or 1" if i == 3 else "non-finite point (")
        else:
            cell = next(c for c in values if c not in line.split(" "))
            named.append(f"{cell!r} is not a number")
        return raw

    cloud, lineno = _with_line(chain["cloud.xyz"], tmp_path, data, 1, fault_of)
    code, err = _evaluate(chain, cloud, tmp_path)
    _assert_named(code, err, f"{cloud}:{lineno}")
    assert err.startswith(f"error: {cloud}:{lineno}: {named[0]}"), err


@pytest.mark.parametrize("fault", BIN_FAULTS)
@FAULT_SETTINGS
@given(data=st.data())
def test_evaluate_names_the_faulty_bin_record(
    chain, tmp_path: Path, fault: str, data: st.DataObject
) -> None:
    raw = Path(chain["cloud.bin"]).read_bytes()
    size = 25  # three little-endian float64 and a flag byte
    n = len(raw) // size
    assert n * size == len(raw) and n > 2
    k = data.draw(st.integers(1, n), label="record")
    start = (k - 1) * size
    if fault == "truncated":
        raw = raw[: start + data.draw(st.integers(1, size - 1))]
    elif fault == "non-finite":
        at = start + 8 * data.draw(st.integers(0, 2))
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        raw = raw[:at] + struct.pack("<d", value) + raw[at + 8:]
    else:
        assert fault == "bad-flag"
        flag = data.draw(st.integers(2, 255))
        raw = raw[: start + 24] + bytes([flag]) + raw[start + 25:]
    cloud = tmp_path / "cloud.bin"
    cloud.write_bytes(raw)
    _assert_named(*_evaluate(chain, cloud, tmp_path), f"{cloud}: record {k}")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "bad, reason",
    [
        (b"\xff\xfe", "byte 0xff is not UTF-8 (invalid start byte)"),
        # the first two bytes of the three of "\u20ac", cut by the line end
        (b"\xe2\x82", "byte 0xe2 is not UTF-8 (unexpected end of data)"),
        # the same two bytes cut by a blank the line ends with
        (b"\xe2\x82 ", "byte 0xe2 is not UTF-8 (invalid continuation byte)"),
    ],
    ids=["invalid-start", "cut-by-line-end", "cut-by-trailing-blank"],
)
def test_every_reader_names_a_byte_not_utf8_by_one_rule(
    chain, tmp_path: Path, newline: bytes, bad: bytes, reason: str
) -> None:
    """The same bytes at the end of line 3, under each line end: every text
    reader names the same ``path:line`` and the same reason."""
    (tmp_path / "calib.json").write_bytes(b'{\n  "lever_arm":\n  [0.0, 0.0, 0.0]\n}\n')
    paths = {}
    for name in ("epochs.jsonl", "scan.jsonl", "poses.csv", "cloud.xyz", "calib.json"):
        source = Path(chain[name]) if name != "calib.json" else tmp_path / name
        lines = source.read_bytes().split(b"\n")
        lines[2] += bad
        paths[name] = tmp_path / name
        paths[name].write_bytes(newline.join(lines))

    readers = {
        "epochs.jsonl": lambda path: list(mgp.read_epochs(path)),
        "scan.jsonl": lambda path: list(mgp.read_scan(path)),
        "poses.csv": mgp.read_poses,
        "cloud.xyz": mgp.read_cloud,
        "calib.json": mgp.load_calibration,
    }
    for name, read in readers.items():
        with pytest.raises(mgp.InputError) as exc:
            read(str(paths[name]))
        assert str(exc.value) == f"{paths[name]}:3: {reason}", name
    diagnostics: list[str] = []
    epochs = list(read_skipping(paths["epochs.jsonl"], diagnostics))
    assert diagnostics == [f"{paths['epochs.jsonl']}:3: skipped epoch: {reason}"]
    assert len(epochs) == len(list(mgp.read_epochs(chain["epochs.jsonl"]))) - 1


class _Readlines(io.StringIO):
    """A text file that keeps the length of each line it gives."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.sizes: list[int] = []

    def readline(self, size: int | None = -1) -> str:
        line = super().readline(size)
        self.sizes.append(len(line))
        return line


@pytest.mark.parametrize("over", [0, 1, 10**6], ids=["at-limit", "one-over", "far-over"])
@pytest.mark.parametrize("last", [False, True], ids=["inside", "last-unended"])
def test_an_oversize_epoch_line_is_skipped_unparsed(
    chain, tmp_path: Path, over: int, last: bool
) -> None:
    """An epoch line of more than ``MAX_EPOCH_LINE`` characters, valid JSON
    padded with blanks, is skipped and named ``path:line`` by the reader and
    by ``estimate``, read past a piece at a time; one of that many is read
    as any other line."""
    limit = mgp.streams.MAX_EPOCH_LINE
    lines = Path(chain["epochs.jsonl"]).read_text(encoding="utf-8").splitlines()
    k = len(lines) - 1 if last else 2
    lines[k] = lines[k][:-1] + " " * (limit + over - len(lines[k])) + "}"
    text = "\n".join(lines) + ("" if last else "\n")
    path = tmp_path / "epochs.jsonl"
    path.write_text(text, encoding="utf-8")
    message = f"{path}:{k + 1}: line longer than {limit} characters"
    diagnostics: list[str] = []
    epochs = list(read_skipping(path, diagnostics))
    n = len(list(mgp.read_epochs(chain["epochs.jsonl"])))
    assert len(epochs) == n - bool(over)
    assert diagnostics == [message.replace(": line", ": skipped epoch: line")] * bool(over)

    f = _Readlines(text)
    f.readline()
    read = list(mgp.streams._epoch_lines_of(f))
    assert [lineno for lineno, _ in read] == list(range(2, len(lines) + 1))
    assert max(f.sizes) <= limit + 1
    argv = ["estimate", "--epochs", str(path), "--config", chain["pipe"],
            "--poses", str(tmp_path / "p.csv"), "--metrics", str(tmp_path / "m.json")]
    if over:
        with pytest.raises(mgp.InputError) as exc:
            list(mgp.read_epochs(str(path)))
        assert str(exc.value) == message
        assert _cli(argv) == (0, f"{diagnostics[0]}\n")
    else:
        assert _cli(argv) == (0, "")


@pytest.mark.parametrize("name", ["epochs.jsonl", "scan.jsonl", "poses.csv"])
def test_header_with_a_byte_not_utf8_names_line_1(chain, tmp_path: Path, name: str) -> None:
    """A header line is read by the one UTF-8 rule, like every other line:
    the reader and the CLI step name ``path:1`` and exit 1."""
    header, rest = Path(chain[name]).read_bytes().split(b"\n", 1)
    path = tmp_path / name
    # inside the format name, or at the end of the CSV header
    bad = header.replace(b'-epoch"', b'-epoch\xff"').replace(b'-scan"', b'-scan\xff"')
    path.write_bytes((bad if bad != header else header + b"\xff") + b"\n" + rest)
    message = f"{path}:1: byte 0xff is not UTF-8 (invalid start byte)"

    read = {"epochs.jsonl": lambda p: list(mgp.read_epochs(p)),
            "scan.jsonl": lambda p: list(mgp.read_scan(p)), "poses.csv": mgp.read_poses}[name]
    with pytest.raises(mgp.InputError) as exc:
        read(str(path))
    assert str(exc.value) == message

    files = {**chain, name: str(path)}
    if name == "epochs.jsonl":
        argv = ["estimate", "--epochs", files[name], "--config", chain["pipe"],
                "--poses", str(tmp_path / "p.csv"), "--metrics", str(tmp_path / "m.json")]
    else:
        argv = ["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                "--calib", chain["calib"], "--cloud", str(tmp_path / "cloud.xyz")]
    assert _cli(argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize("name", ["epochs.jsonl", "scan.jsonl", "poses.csv"])
def test_an_oversize_header_names_line_1(chain, tmp_path: Path, name: str) -> None:
    """A first line of 3,000,000 characters, not the format's header, is
    refused unparsed and unechoed: the reader reads ``MAX_EPOCH_LINE + 1``
    characters of it, and the reader and the CLI step name ``path:1`` in
    one short line and exit 1."""
    limit = mgp.streams.MAX_EPOCH_LINE
    rest = Path(chain[name]).read_text(encoding="utf-8").split("\n", 1)[1]
    long = ("t,E,N" + ",x" * 1_499_998 if name == "poses.csv"
            else json.dumps({"format": "other", "pad": "x" * 2_999_970}))
    assert len(long) == 3_000_000 + (name == "poses.csv")
    path = tmp_path / name
    path.write_text(long + "\n" + rest, encoding="utf-8")
    message = f"{path}:1: line longer than {limit} characters"

    f = _Readlines(long + "\n" + rest)
    with pytest.raises(mgp.InputError) as exc:
        mgp.streams._first_line(f, str(path))
    assert str(exc.value) == message and f.sizes == [limit + 1]
    read = {"epochs.jsonl": lambda p: list(mgp.read_epochs(p)),
            "scan.jsonl": lambda p: list(mgp.read_scan(p)), "poses.csv": mgp.read_poses}[name]
    with pytest.raises(mgp.InputError) as exc:
        read(str(path))
    assert str(exc.value) == message

    files = {**chain, name: str(path)}
    if name == "epochs.jsonl":
        argv = ["estimate", "--epochs", files[name], "--config", chain["pipe"],
                "--poses", str(tmp_path / "p.csv"), "--metrics", str(tmp_path / "m.json")]
    else:
        argv = ["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                "--calib", chain["calib"], "--cloud", str(tmp_path / "cloud.xyz")]
    assert _cli(argv) == (1, f"error: {message}\n")


def test_an_oversize_pose_line_ends_georef(chain, tmp_path: Path, monkeypatch) -> None:
    """A pose line of 3,000,000 characters after the header is refused
    unparsed and unechoed: the reader reads ``MAX_EPOCH_LINE + 1``
    characters of it and no further line, and the reader and ``georef``
    name its ``path:line`` in one short line and exit 1."""
    limit = mgp.streams.MAX_EPOCH_LINE
    header, rest = Path(chain["poses.csv"]).read_text(encoding="utf-8").split("\n", 1)
    long = ("0.0" + ",1" * 1_500_000)[:3_000_000]
    assert len(long) == 3_000_000
    text = f"{header}\n{long}\n{rest}"
    path = tmp_path / "poses.csv"
    path.write_text(text, encoding="utf-8")
    message = f"{path}:2: line longer than {limit} characters"
    with pytest.raises(mgp.InputError) as exc:
        mgp.read_poses(str(path))
    assert str(exc.value) == message

    f = _Readlines(text)
    with monkeypatch.context() as m:
        m.setattr(mgp.streams, "open_text", lambda _: f)
        with pytest.raises(mgp.InputError):
            mgp.read_poses(str(path))
    assert f.sizes == [len(header) + 1, limit + 1]
    argv = ["georef", "--poses", str(path), "--scan", chain["scan.jsonl"],
            "--calib", chain["calib"], "--cloud", str(tmp_path / "cloud.xyz")]
    assert _cli(argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    ("header", "reason"),
    [(b"", "missing stream header: Expecting value: line 1 column 1 (char 0)"),
     (b"mgp-epoch", "missing stream header: Expecting value: line 1 column 1 (char 0)"),
     (b'{"format": "mgp-epoch"', "missing stream header: "
      "Expecting ',' delimiter: line 1 column 23 (char 22)"),
     (b"[]", "unexpected stream header []")],
    ids=["blank", "not-json", "cut-short", "not-the-header"],
)
@pytest.mark.parametrize("name", ["epochs.jsonl", "scan.jsonl"])
def test_a_stream_header_fault_names_line_1(
    chain, tmp_path: Path, name: str, header: bytes, reason: str
) -> None:
    """A header that is blank, not JSON or not the format's header is a
    fault of line 1, named ``path:1`` with JSON's position in that line,
    whichever line end the file uses."""
    rest = Path(chain[name]).read_bytes().split(b"\n", 1)[1]
    read = {"epochs.jsonl": lambda p: list(read_skipping(p, [])),
            "scan.jsonl": lambda p: list(mgp.read_scan(p))}[name]
    for newline in (b"\n", b"\r\n"):
        path = tmp_path / name
        path.write_bytes(header + newline + rest.replace(b"\n", newline))
        with pytest.raises(mgp.InputError) as exc:
            read(str(path))
        assert str(exc.value) == f"{path}:1: {reason}"


def _requery(header: dict) -> dict:
    return header["requery"]


# each fault of an epoch stream's header, and the message that names it
EPOCH_HEADER_FAULTS = {
    "missing-key": (lambda h: _requery(h).pop("increment"),
                    "stream header: missing key 'increment' in requery"),
    "missing-model-key": (lambda h: _requery(h)["model"].pop("midpoint"),
                          "stream header: missing key 'midpoint' in requery.model"),
    "missing-requery": (lambda h: h.pop("requery"), "stream header: missing key 'requery'"),
    "unknown-key": (lambda h: _requery(h).update(seed=1),
                    "stream header: unknown key requery.seed"),
    "unknown-top-key": (lambda h: h.update(note="x"), "stream header: unknown key note"),
    "wrong-type": (lambda h: _requery(h)["noise"].update(sigma_fixed_m="0.005"),
                   "stream header: requery.noise.sigma_fixed_m must be a number, got '0.005'"),
    "increment-float": (lambda h: _requery(h).update(increment=1.0),
                        "stream header: requery.increment must be an integer, got 1.0"),
    "increment-even": (lambda h: _requery(h).update(increment=2),
                       "stream header: requery: the PCG64 increment must be an odd integer "
                       "below 2**128"),
    "satellite-number": (lambda h: _requery(h)["solution_sats"].__setitem__(0, 7),
                         "stream header: requery.solution_sats[0] must be a string, got 7"),
    "antenna-bias-short": (lambda h: _requery(h)["model"]["antenna_bias"].pop(),
                           "stream header: requery: antenna_bias needs one entry per antenna (6)"),
    "antenna-bias-long": (lambda h: _requery(h)["model"]["antenna_bias"].append(0.0),
                          "stream header: requery: antenna_bias needs one entry per antenna (6)"),
    "target": (lambda h: _requery(h)["model"].update(baseline_target_fix_prob=0.5),
               "stream header: requery: the calibrated fix model has no fix probability "
               "targets"),
    "lattice": (lambda h: _requery(h)["noise"].update(wrong_fix_max_multiple=0),
                "stream header: requery.noise: wrong_fix_max_multiple must be in [1, 1000000]"),
    "missing-noise-key": (lambda h: _requery(h)["noise"].pop("wrong_fix_prob"),
                          "stream header: missing key 'wrong_fix_prob' in requery.noise"),
    "numpy": (lambda h: _requery(h).update(numpy="1.26.4"),
              "stream header: requery: the requery draws were made under numpy 1.26.4, not "
              f"this numpy {np.__version__}; re-run mgp simulate"),
    "version-1": (lambda h: h.update(version=1),
                  "epoch stream version 1 is no longer read; re-run mgp simulate"),
    "version-2": (lambda h: h.update(version=2),
                  "epoch stream version 2 is no longer read; re-run mgp simulate"),
    "version-4": (lambda h: h.update(version=4), "unexpected stream header"),
    "missing-layout": (lambda h: h.pop("layout"), "stream header: missing key 'layout'"),
    "layout-in-requery": (lambda h: _requery(h).update(layout=h["layout"]),
                          "stream header: unknown key requery.layout"),
    "layout-collinear": (lambda h: h["layout"].update(body_positions=[[0, 0, 0], [1, 0, 0],
                                                                      [2, 0, 0]]),
                         "stream header: layout: antenna layout is collinear"),
    "version-true": (lambda h: h.update(version=True),
                     "stream header version must be an integer, got True"),
    "version-float": (lambda h: h.update(version=2.0),
                      "stream header version must be an integer, got 2.0"),
    "version-1.0": (lambda h: h.update(version=1.0),
                    "stream header version must be an integer, got 1.0"),
    "version-missing": (lambda h: h.pop("version"),
                        "stream header version must be an integer, got None"),
}


@pytest.mark.parametrize("fault", list(EPOCH_HEADER_FAULTS))
def test_an_epoch_header_fault_fails_at_line_1(chain, tmp_path: Path, fault: str) -> None:
    """A fault of the epoch header, the requery constants included, is a
    fault of the file: ``mgp estimate`` exits 1 naming ``path:1``, and the
    reader raises it also when it skips bad lines."""
    edit, message = EPOCH_HEADER_FAULTS[fault]
    header, rest = Path(chain["epochs.jsonl"]).read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(header)
    edit(header)
    path = tmp_path / "epochs.jsonl"
    path.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
    code, err = _cli(["estimate", "--epochs", str(path), "--config", chain["pipe"],
                      "--poses", str(tmp_path / "p.csv"), "--metrics", str(tmp_path / "m.json")])
    assert code == 1 and err.startswith(f"error: {path}:1: {message}"), err
    _assert_named(code, err, f"{path}:1")
    with pytest.raises(mgp.InputError, match=f"^{re.escape(f'{path}:1: {message}')}"):
        list(read_skipping(path, []))


@pytest.mark.parametrize("version", ["true", "1.0", "1.5", '"1"', "null"])
def test_a_scan_header_version_must_be_an_integer(chain, tmp_path: Path, version: str) -> None:
    """``true == 1`` and ``1.0 == 1`` in Python, but neither is the JSON
    integer 1: ``mgp georef`` exits 1 naming the scan file's line 1."""
    rest = Path(chain["scan.jsonl"]).read_text(encoding="utf-8").split("\n", 1)[1]
    path = tmp_path / "scan.jsonl"
    path.write_text(f'{{"format": "mgp-scan", "version": {version}}}\n{rest}', encoding="utf-8")
    got = json.loads(version)
    message = f"{path}:1: stream header version must be an integer, got {got!r}"
    code, err = _cli(["georef", "--poses", chain["poses.csv"], "--scan", str(path),
                      "--calib", chain["calib"], "--cloud", str(tmp_path / "cloud.xyz")])
    assert (code, err) == (1, f"error: {message}\n")
    with pytest.raises(mgp.InputError, match=f"^{re.escape(message)}$"):
        list(mgp.read_scan(str(path)))


def test_a_scan_header_with_another_key_fails_at_line_1(chain, tmp_path: Path) -> None:
    rest = Path(chain["scan.jsonl"]).read_text(encoding="utf-8").split("\n", 1)[1]
    path = tmp_path / "scan.jsonl"
    path.write_text(f'{{"format": "mgp-scan", "version": 1, "x": 0}}\n{rest}', encoding="utf-8")
    with pytest.raises(mgp.InputError, match=f"^{re.escape(str(path))}:1: unexpected stream header"):
        list(mgp.read_scan(str(path)))
