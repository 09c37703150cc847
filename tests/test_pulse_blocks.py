"""The pulse path in blocks: ``georef`` and ``evaluate`` in bounded memory.

``georef`` georeferences and writes a scan in chunks of whole lines of
about ``mgp.streams.CHUNK`` characters (``scan_chunks``), and ``evaluate``
reads a .xyz cloud in chunks of whole lines cut the same way and a .bin
cloud in blocks of the whole records of ``CHUNK`` bytes (``cloud_blocks``);
the chunks and blocks are shared with the worker of ``ordered_map``. With small
sizes, down to one line or record a chunk or block, the files, reports and
messages must be those of a size no file reaches: one chunk or block, the
whole stream, in one process. A failed ``georef`` must leave no partial
cloud, and peak memory must not grow with the scan.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mgp
from mgp.cli import main

from test_scan_differential import SCENARIOS

SMALL = 37
RECORD = struct.calcsize("<dddB")
# chunk sizes: blocks of SMALL .bin records (about 15 .xyz lines, one scan
# line), and one that no file here reaches: one block, the whole stream
SMALL_CHUNK = SMALL * RECORD
WHOLE = 1 << 30
MB = 1 << 20


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _files(root: Path, name: str) -> dict[str, Path]:
    """A scenario's scan and pose files, a calibration with a lever arm and
    a boresight rotation, and its reflector file."""
    cfg = mgp.scenario_from_dict(SCENARIOS[name])
    files = {key: root / key for key in ("scan.jsonl", "poses.csv", "calib.json", "refl.json")}
    mgp.write_scan(str(files["scan.jsonl"]), mgp.scan_stream(cfg, cfg.scanner))
    truth = mgp.truth_poses(cfg, np.arange(cfg.n_epochs) / cfg.rate_hz)
    poses = mgp.corrupt_poses(truth, sigma_pos_m=0.01, sigma_att_deg=0.07, tau_s=8.0, seed=3)
    mgp.write_poses(str(files["poses.csv"]), poses)
    boresight = mgp.UnitQuaternion.from_array([0.01, -0.02, 0.005, 1.0]).as_array().tolist()
    files["calib.json"].write_text(
        json.dumps({"lever_arm": [0.1, -0.05, -0.2], "boresight": boresight}), encoding="utf-8"
    )
    reflectors = [[r.position.x, r.position.y, r.position.z] for r in cfg.reflectors]
    files["refl.json"].write_text(
        json.dumps({"reflectors": reflectors, "cluster_radius_m": 0.8}), encoding="utf-8"
    )
    return files


@pytest.fixture(scope="module")
def flight(tmp_path_factory: pytest.TempPathFactory) -> dict[str, Path]:
    return _files(tmp_path_factory.mktemp("flight"), "flight-10s")


def _georef(files: dict[str, Path], scan: Path, cloud: Path) -> tuple[int, str, str]:
    return _cli(["georef", "--poses", files["poses.csv"], "--scan", scan,
                 "--calib", files["calib.json"], "--cloud", cloud])


def _evaluate(refl: Path, cloud: Path, report: Path) -> tuple[int, str, str]:
    return _cli(["evaluate", "--cloud", cloud, "--reflectors", refl, "--report", report])


def _chain_outputs(files: dict[str, Path], out: Path) -> list[object]:
    """Exit codes, stdout and stderr of georef and evaluate to both cloud
    formats, and the bytes of the clouds and reports."""
    got: list[object] = []
    for suffix in (".xyz", ".bin"):
        cloud, report = out / f"cloud{suffix}", out / f"report{suffix}.json"
        got += [_georef(files, files["scan.jsonl"], cloud),
                _evaluate(files["refl.json"], cloud, report),
                cloud.read_bytes(), report.read_bytes()]
    return got


def _set_sizes(monkeypatch: pytest.MonkeyPatch, size: int) -> None:
    """Scan and .xyz chunks of ``size`` characters and .bin blocks of the
    whole records of ``size`` bytes; at WHOLE, each file is one chunk or
    block."""
    monkeypatch.setattr(mgp.streams, "CHUNK", size)


@pytest.mark.parametrize("name", ["flight-10s", "descent"])
def test_small_blocks_write_the_whole_stream_bytes(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, flight: dict[str, Path], name: str
) -> None:
    # descent has frames without a pulse
    files = flight if name == "flight-10s" else _files(tmp_path, name)
    _set_sizes(monkeypatch, WHOLE)
    whole = _chain_outputs(files, tmp_path)
    assert all(code == 0 for code, _, _ in whole[0::4] + whole[1::4])
    # the clouds of one in-process call over the whole scan
    cloud, _ = mgp.georeference_stream(
        mgp.read_poses(str(files["poses.csv"])), mgp.read_scan(str(files["scan.jsonl"])),
        mgp.load_calibration(str(files["calib.json"])),
    )
    for k, suffix in ((2, ".xyz"), (6, ".bin")):
        mgp.write_cloud(tmp_path / f"ref{suffix}", cloud)
        assert whole[k] == (tmp_path / f"ref{suffix}").read_bytes(), suffix
    # chunks of one line and blocks of one and two records on the shorter
    # scan only: flight-10s holds 117k pulses, and one-record blocks would
    # take it a minute
    for size in (1, 2 * RECORD, SMALL_CHUNK) if name == "descent" else (SMALL_CHUNK,):
        _set_sizes(monkeypatch, size)
        assert _chain_outputs(files, tmp_path) == whole, size
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    # the small scan and .xyz chunks are many, whole lines numbered from the
    # scan's line 2 and the cloud's line 1, and each but the last ends at
    # the line that takes it past SMALL_CHUNK characters; the small .bin
    # blocks all but the last hold SMALL records
    for path, first in ((files["scan.jsonl"], 2), (tmp_path / "cloud.xyz", 1)):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[first - 1:]
        chunks = list(mgp.streams.scan_chunks(str(path)) if first == 2
                      else mgp.streams.cloud_blocks(path))
        assert len(chunks) > 10
        assert [line for _, chunk in chunks for line in chunk] == lines
        assert [k for k, _ in chunks] == list(
            itertools.accumulate([len(chunk) for _, chunk in chunks[:-1]], initial=first)
        )
        for _, chunk in chunks[:-1]:
            assert len("".join(chunk[:-1])) <= SMALL_CHUNK < len("".join(chunk))
    blocks = list(mgp.streams.cloud_blocks(tmp_path / "cloud.bin"))
    assert len(blocks) > 10
    assert [k for k, _ in blocks] == list(range(1, SMALL * len(blocks), SMALL))
    assert {len(data) for _, data in blocks[:-1]} == {SMALL_CHUNK}
    assert 0 < len(blocks[-1][1]) <= SMALL_CHUNK


def test_an_empty_scan_writes_an_empty_cloud(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    _set_sizes(monkeypatch, SMALL_CHUNK)
    poses = tmp_path / "poses.csv"
    mgp.write_poses(str(poses), mgp.Poses(
        np.array([0.0, 0.1]), np.zeros((2, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (2, 1)),
        np.array([6, 6]),
    ))
    files = {"poses.csv": poses, "calib.json": tmp_path / "calib.json",
             "refl.json": tmp_path / "refl.json"}
    files["calib.json"].write_text('{"lever_arm": [0.0, 0.0, 0.0]}', encoding="utf-8")
    files["refl.json"].write_text('{"reflectors": [[0.0, 2.0, 0.0]]}', encoding="utf-8")
    no_pulse = mgp.ScanFrame(t=0.0, pulses=np.empty((0, 4)), reflector=np.empty(0, dtype=bool))
    for frames in ([], [no_pulse] * 3):
        scan = tmp_path / "scan.jsonl"
        mgp.write_scan(str(scan), frames)
        for suffix in (".xyz", ".bin"):
            cloud = tmp_path / f"cloud{suffix}"
            cloud.write_bytes(b"an earlier cloud\n")
            assert _georef(files, scan, cloud) == (
                0, f"wrote 0 points to {cloud} (0 pulses dropped)\n", ""
            )
            assert cloud.read_bytes() == b""
            report = tmp_path / "report.json"
            assert _evaluate(files["refl.json"], cloud, report)[0] == 0
            assert json.loads(report.read_text(encoding="utf-8"))["unresolved"] == 1


def test_a_scan_whose_times_go_back_writes_the_whole_stream_points(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, flight: dict[str, Path]
) -> None:
    # every pulse moved to a random place, the frame sizes kept: times go
    # back within frames and between them, and each pose's pulses spread
    # over many blocks
    frames = list(mgp.read_scan(str(flight["scan.jsonl"])))
    order = np.random.default_rng(11).permutation(sum(len(f.pulses) for f in frames))
    cuts = np.cumsum([len(f.pulses) for f in frames])[:-1]
    pulses = np.split(np.concatenate([f.pulses for f in frames])[order], cuts)
    flags = np.split(np.concatenate([f.reflector for f in frames])[order], cuts)
    scan = tmp_path / "shuffled.jsonl"
    mgp.write_scan(str(scan), [mgp.ScanFrame(f.t, p, r) for f, p, r in zip(frames, pulses, flags)])
    poses = mgp.read_poses(str(flight["poses.csv"]))
    calib = mgp.load_calibration(str(flight["calib.json"]))
    whole, dropped = mgp.georeference_stream(poses, mgp.read_scan(str(scan)), calib)

    _set_sizes(monkeypatch, SMALL_CHUNK)
    cloud = tmp_path / "cloud.bin"
    code, out, _ = _georef(flight, scan, cloud)
    assert (code, out) == (0, f"wrote {len(whole)} points to {cloud} ({dropped} pulses dropped)\n")
    back = mgp.read_cloud(cloud)
    assert np.array_equal(back.reflector, whole.reflector)
    assert np.array_equal(back.p, whole.p)


def _xyz_lines(n: int) -> list[bytes]:
    return [f"{i}.5 -2.25 {0.125 * i!r} {i % 2}\n".encode() for i in range(n)]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "line, message",
    [
        (b"1.0 2.0 \xff 1", "byte 0xff is not UTF-8 (invalid start byte)"),
        (b"1.0 2.0 3.0", "expected 4 columns 'E N U flag', got 3"),
        (b"1.0 nan 3.0 1", "non-finite point (1.0, nan, 3.0)"),
        (b"1.0 2.0 3.0 2", "flag 2 is not 0 or 1"),
    ],
    ids=["not-utf8", "three-columns", "non-finite", "flag-2"],
)
def test_a_xyz_fault_in_the_second_block_is_named_as_in_one_block(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, line: bytes, message: str, newline: bytes
) -> None:
    lines = _xyz_lines(3 * SMALL)
    lines[SMALL] = line + b"\n"
    path = tmp_path / "cloud.xyz"
    path.write_bytes(b"".join(lines).replace(b"\n", newline))
    # chunks that the line after the first SMALL lines takes past the size:
    # the faulty line opens the second block, whatever the line end
    size = len(b"".join(lines[:SMALL])) - 1
    _set_sizes(monkeypatch, size)
    assert [first for first, _ in mgp.streams.cloud_blocks(path)][:2] == [1, SMALL + 1]
    _assert_named_in_both_block_sizes(
        tmp_path, monkeypatch, path, f"{path}:{SMALL + 1}: {message}", size
    )


@pytest.mark.parametrize(
    "record, message",
    [
        (struct.pack("<dddB", 1.0, 2.0, 3.0, 2), "flag 2 is not 0 or 1"),
        (struct.pack("<dddB", 1.0, -np.inf, 3.0, 0), "non-finite point (1.0, -inf, 3.0)"),
        (struct.pack("<dddB", 1.0, 2.0, 3.0, 1)[:11], "truncated"),
    ],
    ids=["flag-2", "non-finite", "truncated"],
)
def test_a_bin_fault_in_the_second_block_is_named_as_in_one_block(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, record: bytes, message: str
) -> None:
    records = [struct.pack("<dddB", i + 0.5, -2.25, 0.125 * i, i % 2) for i in range(SMALL)]
    path = tmp_path / "cloud.bin"
    tail = [] if message == "truncated" else records
    path.write_bytes(b"".join(records + [record] + tail))
    _assert_named_in_both_block_sizes(
        tmp_path, monkeypatch, path, f"{path}: record {SMALL + 1}: {message}", SMALL_CHUNK
    )


def _assert_named_in_both_block_sizes(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, cloud: Path, expected: str, small: int
) -> None:
    refl = tmp_path / "refl.json"
    refl.write_text('{"reflectors": [[0.0, 2.0, 0.0]]}', encoding="utf-8")
    for size in (small, WHOLE):
        _set_sizes(monkeypatch, size)
        with pytest.raises(mgp.InputError, match=f"^{re.escape(expected)}$"):
            mgp.read_cloud(cloud)
        report = tmp_path / "report.json"
        assert _evaluate(refl, cloud, report) == (1, "", f"error: {expected}\n")
        assert not report.exists()


def test_crlf_and_lf_clouds_read_the_same_in_blocks(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    _set_sizes(monkeypatch, SMALL_CHUNK)
    lines = b"".join(_xyz_lines(3 * SMALL))
    names = {"lf.xyz": b"\n", "crlf.xyz": b"\r\n", "cr.xyz": b"\r"}
    for name, newline in names.items():
        (tmp_path / name).write_bytes(lines.replace(b"\n", newline))
    lf, crlf, cr = (mgp.read_cloud(tmp_path / name) for name in names)
    assert len(lf) == 3 * SMALL
    for other in (crlf, cr):
        assert np.array_equal(lf.p, other.p) and np.array_equal(lf.reflector, other.reflector)
    # a cloud whose lines "\r" alone ends is cut into chunks of lines too
    assert len(list(mgp.streams.cloud_blocks(tmp_path / "cr.xyz"))) > 1


@pytest.mark.parametrize("earlier", [b"an earlier cloud\n", None], ids=["earlier", "none"])
def test_a_bad_scan_line_in_the_second_block_leaves_the_cloud_as_it_was(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, flight: dict[str, Path],
    earlier: bytes | None,
) -> None:
    _set_sizes(monkeypatch, SMALL_CHUNK)
    # the chunk results the caller takes, each appended to the cloud
    written: list[int] = []
    ordered_map = mgp.cli.ordered_map

    def recorded(fn, items):
        for result in ordered_map(fn, items):
            written.append(result[1])
            yield result

    monkeypatch.setattr(mgp.cli, "ordered_map", recorded)
    lines = flight["scan.jsonl"].read_text(encoding="utf-8").splitlines(keepends=True)
    k = 6  # a frame line read after the first blocks were written
    lines[k - 1] = lines[k - 1].replace("[", "[true, ", 2)
    scan = tmp_path / "scan.jsonl"
    scan.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    cloud = out / "cloud.xyz"
    if earlier is not None:
        cloud.write_bytes(earlier)

    code, stdout, err = _georef(flight, scan, cloud)
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {scan}:{k}: ") and err.count("\n") == 1, err
    assert written, "the fault must come after a block was written"
    assert [p.name for p in out.iterdir()] == ([] if earlier is None else ["cloud.xyz"])
    if earlier is not None:
        assert cloud.read_bytes() == earlier


def _synthetic_files(root: Path, frames: int) -> dict[str, Path]:
    """Poses at 10 Hz and a scan of ``frames`` 10 Hz frames of 250 pulses
    each, every tenth pulse flagged, around one reflector."""
    rng = np.random.default_rng(frames)
    t = np.arange(frames + 1) * 0.1
    files = {key: root / key for key in ("scan.jsonl", "poses.csv", "calib.json", "refl.json")}
    mgp.write_poses(str(files["poses.csv"]), mgp.Poses(
        t, np.column_stack([t, np.zeros_like(t), np.full_like(t, 30.0)]),
        np.tile([0.0, 0.0, 0.0, 1.0], (len(t), 1)), np.full(len(t), 6),
    ))
    n = 250
    mgp.write_scan(str(files["scan.jsonl"]), (
        mgp.ScanFrame(
            t=float(k * 0.1),
            pulses=np.column_stack([k * 0.1 + np.arange(n) * (0.1 / n),
                                    rng.normal(scale=5.0, size=(n, 2)), np.full(n, -30.0)]),
            reflector=np.arange(n) % 10 == 0,
        )
        for k in range(frames)
    ))
    files["calib.json"].write_text('{"lever_arm": [0.0, 0.0, 0.0]}', encoding="utf-8")
    files["refl.json"].write_text(
        '{"reflectors": [[0.0, 0.0, 0.0]], "cluster_radius_m": 3.0}', encoding="utf-8"
    )
    return files


def _peak_bytes(argv: list[object]) -> int:
    tracemalloc.start()
    try:
        assert _cli(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_georef_and_evaluate_peak_memory_does_not_grow_with_the_scan(tmp_path: Path) -> None:
    peaks = []
    for frames in (120, 240):
        root = tmp_path / str(frames)
        root.mkdir()
        files = _synthetic_files(root, frames)
        cloud = root / "cloud.xyz"
        peaks.append((
            _peak_bytes(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                         "--calib", files["calib.json"], "--cloud", cloud]),
            _peak_bytes(["evaluate", "--cloud", cloud, "--reflectors", files["refl.json"],
                         "--report", root / "report.json"]),
        ))
    (georef_n, evaluate_n), (georef_2n, evaluate_2n) = peaks
    assert abs(georef_2n - georef_n) < MB, peaks
    assert abs(evaluate_2n - evaluate_n) < MB, peaks
