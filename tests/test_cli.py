from __future__ import annotations

import json
import math
import os
import shutil
import struct
import subprocess
from pathlib import Path

import pytest

from mgp import bundled_scenario_path, read_epoch_blocks, read_poses
from mgp.cli import main

SCENARIO = {
    "seed": 11,
    "duration_s": 3.0,
    "rate_hz": 10.0,
    "constellation": [
        {"sat_id": f"G{k:02d}", "azimuth_deg": 40.0 * k, "elevation_deg": 25.0 + 8.0 * k}
        for k in range(8)
    ],
    "fix_model": {"antenna_bias": [20.0] * 6, "baseline_bias": 20.0},
    "noise": {"wrong_fix_prob": 0.0},
}

FLIGHT = {
    **SCENARIO,
    "trajectory": {
        "kind": "waypoint",
        "waypoints": [[-5.0, 0.0, 20.0], [5.0, 0.0, 20.0]],
        "speed_mps": 3.0,
    },
    "scanner": {"spin_hz": 13.0, "pulses_per_rev": 240},
    "reflectors": [{"position": [0.0, 2.0, 0.0], "radius_m": 1.0}],
}


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_full_chain(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", FLIGHT)
    epochs = str(tmp_path / "epochs.jsonl")
    scan = str(tmp_path / "scan.jsonl")
    assert main(["simulate", "--config", scen, "--out", epochs, "--scan", scan]) == 0
    out = capsys.readouterr().out
    assert "wrote 30 epochs" in out
    assert "scan frames" in out

    pipe = _write(tmp_path / "pipe.json", {})
    poses = str(tmp_path / "poses.csv")
    metrics = str(tmp_path / "metrics.json")
    assert main(["estimate", "--epochs", epochs, "--config", pipe, "--poses", poses, "--metrics", metrics]) == 0
    m = json.loads(Path(metrics).read_text(encoding="utf-8"))
    assert m["epochs"] == 30
    assert m["hybrid_fix_rate_pct"] == 100.0
    assert len(read_poses(poses)) == 30

    calib = _write(tmp_path / "calib.json", {"lever_arm": [0.0, 0.0, 0.0]})
    cloud = str(tmp_path / "cloud.xyz")
    assert main(["georef", "--poses", poses, "--scan", scan, "--calib", calib, "--cloud", cloud]) == 0

    refl = _write(
        tmp_path / "refl.json",
        {"reflectors": [[0.0, 2.0, 0.0]], "cluster_radius_m": 0.8, "min_hits": 5},
    )
    report = str(tmp_path / "report.json")
    assert main(["evaluate", "--cloud", cloud, "--reflectors", refl, "--report", report]) == 0
    rep = json.loads(Path(report).read_text(encoding="utf-8"))
    assert rep["unresolved"] == 0
    # sanity bounds only: on a flight this short the centroid offset is
    # dominated by which pulses sample the disc, not by estimation error
    assert rep["rms_horizontal_m"] < 0.5
    assert rep["rms_vertical_m"] < 0.05


def test_simulate_deterministic_output(tmp_path: Path) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["simulate", "--config", scen, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", scen, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_override_changes_stream(tmp_path: Path) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["simulate", "--config", scen, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", scen, "--seed", "999", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def _simulate_scan_fails_before_writing(tmp_path: Path, capsys, scenario: dict) -> str:
    """Run ``simulate --scan`` on ``scenario``, which cannot make a scan:
    exit 1, nothing on stdout and no output file; returns stderr."""
    scen = _write(tmp_path / "scen.json", scenario)
    code = main(
        ["simulate", "--config", scen, "--out", str(tmp_path / "e.jsonl"), "--scan", str(tmp_path / "s.jsonl")]
    )
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scen.json"]
    return err


def test_simulate_scan_without_scanner_fails(tmp_path: Path, capsys) -> None:
    err = _simulate_scan_fails_before_writing(tmp_path, capsys, SCENARIO)
    assert err == "error: scenario has no scanner model, cannot write a scan stream\n"


def test_simulate_scan_with_a_static_trajectory_fails(tmp_path: Path, capsys) -> None:
    static = {**FLIGHT, "trajectory": {"kind": "static", "waypoints": [[0.0, 0.0, 20.0]]}}
    err = _simulate_scan_fails_before_writing(tmp_path, capsys, static)
    assert err == "error: scan generation requires a waypoint trajectory\n"


def test_estimate_antenna_subset_and_feedback_flags(tmp_path: Path) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = str(tmp_path / "epochs.jsonl")
    main(["simulate", "--config", scen, "--out", epochs])
    pipe = _write(tmp_path / "pipe.json", {})
    poses = str(tmp_path / "poses.csv")
    metrics = str(tmp_path / "metrics.json")
    code = main(
        [
            "estimate",
            "--epochs",
            epochs,
            "--config",
            pipe,
            "--poses",
            poses,
            "--metrics",
            metrics,
            "--antennas",
            "1,3,5",
            "--no-multipath-feedback",
        ]
    )
    assert code == 0
    m = json.loads(Path(metrics).read_text(encoding="utf-8"))
    assert set(m["per_antenna_fix_rate_pct"].keys()) == {"1", "3", "5"}
    assert m["hybrid_fix_rate_multipath_pct"] is None


def test_estimate_bad_antennas_value(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = str(tmp_path / "epochs.jsonl")
    main(["simulate", "--config", scen, "--out", epochs])
    pipe = _write(tmp_path / "pipe.json", {})
    code = main(
        [
            "estimate",
            "--epochs",
            epochs,
            "--config",
            pipe,
            "--poses",
            str(tmp_path / "p.csv"),
            "--metrics",
            str(tmp_path / "m.json"),
            "--antennas",
            "1,x",
        ]
    )
    assert code == 1
    assert "antennas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, bad",
    [("1_0,3", "1_0"), ("1, 3", " 3"), ("３", "３"), ("1,,3", ""), ("1,3,", ""),
     ("+3", "+3"), ("1,-3", "-3"), ("-1,3", "-1")],
)
def test_estimate_antennas_accepts_only_ascii_digit_ids(
    tmp_path: Path, capsys, value: str, bad: str
) -> None:
    pipe = _write(tmp_path / "pipe.json", {})
    poses, metrics = tmp_path / "p.csv", tmp_path / "m.json"
    code = main(
        ["estimate", "--epochs", str(tmp_path / "e.jsonl"), "--config", pipe,
         "--poses", str(poses), "--metrics", str(metrics), "--antennas", value]
    )
    assert code == 1
    assert f"bad --antennas item {bad!r} in {value!r}" in capsys.readouterr().err
    assert not poses.exists() and not metrics.exists()


def test_estimate_mistyped_config_exits_one(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = str(tmp_path / "epochs.jsonl")
    main(["simulate", "--config", scen, "--out", epochs])
    pipe = _write(tmp_path / "pipe.json", {"ransac": {"min_inliers": 4.9}})
    poses, metrics = tmp_path / "p.csv", tmp_path / "m.json"
    code = main(
        ["estimate", "--epochs", epochs, "--config", pipe, "--poses", str(poses),
         "--metrics", str(metrics)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {pipe}: pipeline config: ransac.min_inliers must be an integer" in err
    assert not poses.exists() and not metrics.exists()


def test_estimate_skips_epoch_with_antenna_outside_layout(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = tmp_path / "epochs.jsonl"
    main(["simulate", "--config", scen, "--out", str(epochs)])
    lines = epochs.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[5])
    record["truth"] = None
    stray = next(f for f in record["fixes"] if f["status"] == "fixed")
    record["fixes"].append({**stray, "antenna_id": 9})
    lines[5] = json.dumps(record)
    epochs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pipe = _write(tmp_path / "pipe.json", {})
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    code = main(
        [
            "estimate",
            "--epochs",
            str(epochs),
            "--config",
            pipe,
            "--poses",
            str(tmp_path / "p.csv"),
            "--metrics",
            str(metrics),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    reason = "antenna 9 has no layout entry (layout has 6)"
    assert captured.err == f"{epochs}:6: skipped epoch: {reason}\n"
    assert "processed 29 epochs (1 skipped)" in captured.out
    m = json.loads(metrics.read_text(encoding="utf-8"))
    assert (m["epochs"], m["skipped"]) == (29, 1)


def _estimate_edited(tmp_path: Path, capsys, line: int, edit,
                     flags: tuple[str, ...] = ()) -> tuple[int, str, Path, Path]:
    """``estimate`` with ``flags`` on a simulated stream with its line
    ``line`` (1 is the header) replaced by ``edit`` of its JSON value: the
    exit code, stderr, the stream and the metrics file."""
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = tmp_path / "epochs.jsonl"
    main(["simulate", "--config", scen, "--out", str(epochs)])
    lines = epochs.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line - 1])
    edit(record)
    lines[line - 1] = json.dumps(record)
    epochs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pipe = _write(tmp_path / "pipe.json", {})
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    code = main(["estimate", "--epochs", str(epochs), "--config", pipe,
                 "--poses", str(tmp_path / "p.csv"), "--metrics", str(metrics), *flags])
    return code, capsys.readouterr().err, epochs, metrics


def test_estimate_refuses_a_header_with_short_antenna_bias(tmp_path: Path, capsys) -> None:
    """The calibrated fix model is the stream header's, for every epoch: a
    short ``antenna_bias`` there is a fault of the file."""
    code, err, epochs, _ = _estimate_edited(
        tmp_path, capsys, 1, lambda header: header["requery"]["model"]["antenna_bias"].pop())
    assert code == 1
    assert err == (f"error: {epochs}:1: stream header: requery: "
                   "antenna_bias needs one entry per antenna (6)\n")


def _turned(header: dict) -> None:
    """Turn the header layout's body positions 30 degrees about z."""
    c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
    header["layout"]["body_positions"] = [
        [c * x - s * y, s * x + c * y, z] for x, y, z in header["layout"]["body_positions"]]


@pytest.mark.parametrize("flags", [[], ["--no-multipath-feedback"]],
                         ids=["feedback", "no-feedback"])
def test_estimate_refuses_a_stream_of_another_layout(tmp_path: Path, capsys, flags) -> None:
    """One run has one body frame: a stream whose header layout is not the
    pipeline config's, here the config's turned 30 degrees about z, is a
    fault of the file, with feedback on or off, and no output is written."""
    code, err, epochs, metrics = _estimate_edited(tmp_path, capsys, 1, _turned, flags)
    assert (code, err) == (
        1, f"error: {epochs}:1: the stream's antenna layout is not the pipeline config's\n")
    assert not metrics.exists()


@pytest.mark.parametrize(
    "pair, reason",
    [([1, 7], "antenna 7 has no layout entry (layout has 6)"),
     ([0, 2], "antenna 0 has no layout entry (layout has 6)"),
     ([3, 3], "antenna pair must reference two distinct antennas")],
    ids=["outside", "zero", "same-antenna"],
)
def test_estimate_skips_a_line_whose_pair_has_no_body_vector(
    tmp_path: Path, capsys, pair: list[int], reason: str
) -> None:
    """A baseline pair naming an antenna the header layout does not have,
    or one antenna twice, has no body vector: the reader skips its line at
    ``path:line`` with the pair's own fault, and the skip is counted."""
    def edit(record: dict) -> None:
        record["baselines"][0]["antenna_pair"] = pair

    code, err, epochs, metrics = _estimate_edited(tmp_path, capsys, 6, edit)
    assert code == 0
    assert err == f"{epochs}:6: skipped epoch: {reason}\n"
    m = json.loads(metrics.read_text(encoding="utf-8"))
    assert (m["epochs"], m["skipped"]) == (29, 1)


def test_estimate_skips_epoch_with_a_bad_requery_state(tmp_path: Path, capsys) -> None:
    code, err, epochs, metrics = _estimate_edited(
        tmp_path, capsys, 6, lambda record: record["truth"]["requery"].update(state="x"))
    assert code == 0
    assert f"{epochs}:6: skipped epoch" in err
    assert "requery state must be an integer in [0, 2**128), got 'x'" in err
    m = json.loads(metrics.read_text(encoding="utf-8"))
    assert (m["epochs"], m["skipped"]) == (29, 1)


def test_estimate_skips_epoch_with_mistyped_antenna_id(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = tmp_path / "epochs.jsonl"
    main(["simulate", "--config", scen, "--out", str(epochs)])
    lines = epochs.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[5])
    record["fixes"][0]["antenna_id"] = 1.7
    lines[5] = json.dumps(record)
    epochs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pipe = _write(tmp_path / "pipe.json", {})
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    code = main(
        [
            "estimate",
            "--epochs",
            str(epochs),
            "--config",
            pipe,
            "--poses",
            str(tmp_path / "p.csv"),
            "--metrics",
            str(metrics),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert f"{epochs}:6: skipped epoch: antenna ids must be integers" in captured.err
    assert "processed 29 epochs (1 skipped)" in captured.out
    m = json.loads(metrics.read_text(encoding="utf-8"))
    assert (m["epochs"], m["skipped"]) == (29, 1)


def test_georef_nan_pose_reports_path_and_line(tmp_path: Path, capsys) -> None:
    poses = tmp_path / "poses.csv"
    poses.write_text(
        "t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n"
        "0.0,1.0,2.0,30.0,0.0,0.0,0.0,1.0,6,1\n"
        "0.1,nan,2.0,30.0,0.0,0.0,0.0,1.0,6,1\n",
        encoding="utf-8",
    )
    scan = tmp_path / "scan.jsonl"
    scan.write_text('{"format": "mgp-scan", "version": 1}\n', encoding="utf-8")
    calib = _write(tmp_path / "calib.json", {"lever_arm": [0.0, 0.0, 0.0]})
    code = main(
        [
            "georef",
            "--poses",
            str(poses),
            "--scan",
            str(scan),
            "--calib",
            calib,
            "--cloud",
            str(tmp_path / "cloud.xyz"),
        ]
    )
    assert code == 1
    assert f"error: {poses}:3: position must be finite" in capsys.readouterr().err


def test_georef_without_a_usable_pose_names_the_pose_file(tmp_path: Path, capsys) -> None:
    # every row lacks a position or an attitude: nothing to georeference with
    poses = tmp_path / "poses.csv"
    poses.write_text(
        "t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n"
        "0.0,1.0,2.0,30.0,,,,,1,0\n"
        "0.1,,,,0.0,0.0,0.0,1.0,0,1\n",
        encoding="utf-8",
    )
    scan = tmp_path / "scan.jsonl"
    scan.write_text('{"format": "mgp-scan", "version": 1}\n', encoding="utf-8")
    calib = _write(tmp_path / "calib.json", {"lever_arm": [0.0, 0.0, 0.0]})
    argv = ["georef", "--poses", str(poses), "--scan", str(scan), "--calib", calib]
    assert main(argv + ["--cloud", str(tmp_path / "cloud.xyz")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {poses}: no pose has both a position and an attitude\n"


def test_georef_rejects_the_cloud_suffix_before_reading(tmp_path: Path, capsys) -> None:
    # none of the inputs exists: the suffix is checked before any is opened
    argv = ["georef", "--poses", str(tmp_path / "poses.csv"), "--scan", str(tmp_path / "scan"),
            "--calib", str(tmp_path / "calib.json"), "--cloud", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: unsupported cloud extension '.txt' (use .xyz or .bin)\n"
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "name, payload, where",
    [
        ("cloud.xyz", b"1.0 2.0 0.0 1\nnan 0.0 0.0 1\n", ":2: non-finite point"),
        ("cloud.xyz", b"1.0 2.0 0.0 7\n", ":1: flag 7 is not 0 or 1"),
        (
            "cloud.bin",
            struct.pack("<dddB", 1.0, 2.0, 0.0, 1) + struct.pack("<dddB", math.inf, 0.0, 0.0, 0),
            ": record 2: non-finite point",
        ),
    ],
    ids=["xyz-nan", "xyz-flag-7", "bin-inf"],
)
def test_evaluate_bad_cloud_record_exits_one_with_location(
    tmp_path: Path, capsys, name: str, payload: bytes, where: str
) -> None:
    cloud = tmp_path / name
    cloud.write_bytes(payload)
    refl = _write(tmp_path / "refl.json", {"reflectors": [[0.0, 0.0, 0.0]]})
    report = tmp_path / "report.json"
    code = main(["evaluate", "--cloud", str(cloud), "--reflectors", refl, "--report", str(report)])
    assert code == 1
    assert f"error: {cloud}{where}" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "survey, message",
    [
        ({"reflectors": [[0.0, 0.0, 0.0]], "min_hits": 0}, "min_hits must be at least 1"),
        ({"reflectors": [[0.0, 0.0, 0.0]], "cluster_radius_m": -1.0},
         "cluster_radius_m must be positive"),
        ({"reflectors": []}, "no reflectors to evaluate"),
    ],
    ids=["min-hits-0", "negative-radius", "no-reflectors"],
)
def test_evaluate_names_the_reflector_file_before_reading_the_cloud(
    tmp_path: Path, capsys, survey: dict, message: str
) -> None:
    """A reflector file with a value out of range is a fault of that file,
    named with its path and key, found before the cloud is read: here a
    cloud whose first point is not finite."""
    cloud = tmp_path / "cloud.xyz"
    cloud.write_bytes(b"1.0 2.0 nan 1\n")
    refl = _write(tmp_path / "refl.json", survey)
    report = tmp_path / "report.json"
    code = main(["evaluate", "--cloud", str(cloud), "--reflectors", refl, "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {refl}: reflectors: {message}\n"
    assert not report.exists()


def _bad_byte(path: Path, after: bytes = b"") -> None:
    """Put two bytes that are not UTF-8 into line 4 of the file, after the
    first ``after`` in it, or after its fifth byte."""
    lines = path.read_bytes().split(b"\n")
    line = lines[3]
    at = line.index(after) + len(after) if after else 5
    lines[3] = line[:at] + b"\xff\xfe" + line[at:]
    path.write_bytes(b"\n".join(lines))


_NOT_UTF8 = "byte 0xff is not UTF-8 (invalid start byte)"


def _chain_files(tmp_path: Path) -> dict[str, str]:
    """A short flight's epoch, scan, pose and cloud files, and its configs."""
    files = {name: str(tmp_path / name) for name in
             ("epochs.jsonl", "scan.jsonl", "poses.csv", "m.json", "cloud.xyz")}
    files["scen"] = _write(tmp_path / "scen.json", FLIGHT)
    files["pipe"] = _write(tmp_path / "pipe.json", {})
    files["calib"] = _write(tmp_path / "calib.json", {"lever_arm": [0.0, 0.0, 0.0]})
    files["refl"] = _write(tmp_path / "refl.json", {"reflectors": [[0.0, 2.0, 0.0]]})
    assert main(["simulate", "--config", files["scen"], "--out", files["epochs.jsonl"],
                 "--scan", files["scan.jsonl"]]) == 0
    assert main(["estimate", "--epochs", files["epochs.jsonl"], "--config", files["pipe"],
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]]) == 0
    assert main(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                 "--calib", files["calib"], "--cloud", files["cloud.xyz"]]) == 0
    return files


def test_estimate_skips_epoch_with_bytes_not_utf8(tmp_path: Path, capsys) -> None:
    # inside a satellite id, where the line is still valid JSON
    files = _chain_files(tmp_path)
    _bad_byte(Path(files["epochs.jsonl"]), after=b'"sat_id": "')
    capsys.readouterr()
    code = main(["estimate", "--epochs", files["epochs.jsonl"], "--config", files["pipe"],
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == f"{files['epochs.jsonl']}:4: skipped epoch: {_NOT_UTF8}\n"
    assert "processed 29 epochs (1 skipped)" in captured.out


def test_georef_scan_with_bytes_not_utf8_names_the_line(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    _bad_byte(Path(files["scan.jsonl"]))
    capsys.readouterr()
    code = main(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                 "--calib", files["calib"], "--cloud", files["cloud.xyz"]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {files['scan.jsonl']}:4: {_NOT_UTF8}\n"


def test_georef_poses_with_bytes_not_utf8_names_the_line(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    _bad_byte(Path(files["poses.csv"]))
    capsys.readouterr()
    code = main(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                 "--calib", files["calib"], "--cloud", files["cloud.xyz"]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {files['poses.csv']}:4: {_NOT_UTF8}\n"


def test_evaluate_cloud_with_bytes_not_utf8_names_the_line(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    _bad_byte(Path(files["cloud.xyz"]))
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = main(["evaluate", "--cloud", files["cloud.xyz"], "--reflectors", files["refl"],
                 "--report", str(report)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {files['cloud.xyz']}:4: {_NOT_UTF8}\n"
    assert not report.exists()


def test_config_with_bytes_not_utf8_names_the_line(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    pipe = Path(files["pipe"])
    pipe.write_bytes(b'{\n  "multipath_feedback": true,\n\n  "\xff\xfe": 1\n}\n')
    capsys.readouterr()
    code = main(["estimate", "--epochs", files["epochs.jsonl"], "--config", str(pipe),
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {pipe}:4: {_NOT_UTF8}\n"
    # lines that "\r" alone ends count as lines too
    pipe.write_bytes(b'{\r  "multipath_feedback": true,\r\r\r  "\xff\xfe": 1\r}\r')
    code = main(["estimate", "--epochs", files["epochs.jsonl"], "--config", str(pipe),
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {pipe}:5: {_NOT_UTF8}\n"


# JSON nested deeper than the parser's recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_DEEP = "nested too deeply: line 1 column 1 (char 0)"


def _deep_line(path: Path, lineno: int) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[lineno - 1] = _DEEP
    path.write_text("\n".join(lines), encoding="utf-8")


def test_estimate_skips_epoch_line_nested_too_deeply(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    _deep_line(Path(files["epochs.jsonl"]), 4)
    capsys.readouterr()
    code = main(["estimate", "--epochs", files["epochs.jsonl"], "--config", files["pipe"],
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == f"{files['epochs.jsonl']}:4: skipped epoch: {_TOO_DEEP}\n"
    assert "processed 29 epochs (1 skipped)" in captured.out


def test_estimate_epoch_header_nested_too_deeply_names_the_file(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    _deep_line(Path(files["epochs.jsonl"]), 1)
    capsys.readouterr()
    code = main(["estimate", "--epochs", files["epochs.jsonl"], "--config", files["pipe"],
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {files['epochs.jsonl']}:1: missing stream header: {_TOO_DEEP}\n"


def test_georef_scan_line_nested_too_deeply_names_the_line(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    _deep_line(Path(files["scan.jsonl"]), 4)
    capsys.readouterr()
    code = main(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                 "--calib", files["calib"], "--cloud", files["cloud.xyz"]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {files['scan.jsonl']}:4: {_TOO_DEEP}\n"


def test_config_nested_too_deeply_names_the_file(tmp_path: Path, capsys) -> None:
    files = _chain_files(tmp_path)
    Path(files["calib"]).write_text(_DEEP, encoding="utf-8")
    capsys.readouterr()
    code = main(["georef", "--poses", files["poses.csv"], "--scan", files["scan.jsonl"],
                 "--calib", files["calib"], "--cloud", files["cloud.xyz"]])
    assert code == 1
    assert capsys.readouterr().err == f"error: {files['calib']}: invalid JSON: {_TOO_DEEP}\n"


def test_config_integer_too_long_names_the_file(tmp_path: Path, capsys) -> None:
    # more digits than int() converts (sys.get_int_max_str_digits)
    files = _chain_files(tmp_path)
    Path(files["pipe"]).write_text('{"ransac": {"min_inliers": ' + "1" * 5000 + "}}",
                                   encoding="utf-8")
    capsys.readouterr()
    code = main(["estimate", "--epochs", files["epochs.jsonl"], "--config", files["pipe"],
                 "--poses", files["poses.csv"], "--metrics", files["m.json"]])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {files['pipe']}: invalid JSON: integer has too many digits: "
        "line 1 column 1 (char 0)\n"
    )


def test_missing_input_exits_one(tmp_path: Path, capsys) -> None:
    pipe = _write(tmp_path / "pipe.json", {})
    code = main(
        [
            "estimate",
            "--epochs",
            str(tmp_path / "missing.jsonl"),
            "--config",
            pipe,
            "--poses",
            str(tmp_path / "p.csv"),
            "--metrics",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_validation_problem_exits_two(tmp_path: Path, capsys) -> None:
    bad = {**SCENARIO, "constellation": [{"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 95.0}]}
    scen = _write(tmp_path / "scen.json", bad)
    code = main(["simulate", "--config", scen, "--out", str(tmp_path / "e.jsonl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_wahba_prints_quaternions(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = str(tmp_path / "epochs.jsonl")
    main(["simulate", "--config", scen, "--out", epochs])
    capsys.readouterr()
    assert main(["oracle", "wahba-svd", "--epochs", epochs]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,qx,qy,qz,qw"
    assert len(lines) == 31  # header + one row per epoch
    cells = lines[1].split(",")
    assert len(cells) == 5
    float(cells[1])  # parses as a number
    # each epoch's time as repr writes a Python float, not a numpy scalar
    with open(epochs, encoding="utf-8") as f:
        times = [repr(json.loads(line)["t"]) for line in f.readlines()[1:]]
    assert [line.split(",")[0] for line in lines[1:]] == times


def test_oracle_wahba_skips_bad_lines(tmp_path: Path, capsys) -> None:
    """A line the reader skips does not end the oracle: it prints the
    reader's skip messages to stderr, exits 0 and prints the rows of the
    good epochs, those it prints for the stream without the bad lines."""
    scen = _write(tmp_path / "scen.json", SCENARIO)
    clean = tmp_path / "clean.jsonl"
    main(["simulate", "--config", scen, "--out", str(clean)])
    capsys.readouterr()
    assert main(["oracle", "wahba-svd", "--epochs", str(clean)]) == 0
    head, *rows = capsys.readouterr().out.splitlines(keepends=True)
    header, *lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    # a line that is not JSON before epoch 1, and epoch 5's time a string
    lines[5] = json.dumps({**json.loads(lines[5]), "t": "bad"}) + "\n"
    path = tmp_path / "bad.jsonl"
    path.write_text("".join([header, lines[0], "{not json\n", *lines[1:]]), encoding="utf-8")
    assert main(["oracle", "wahba-svd", "--epochs", str(path)]) == 0
    out, err = capsys.readouterr()
    skips = [message for _, found in read_epoch_blocks(str(path)) for _, message in found]
    assert [m.split(": skipped epoch: ")[0] for m in skips] == [f"{path}:3", f"{path}:8"]
    assert err == "".join(f"{m}\n" for m in skips)
    assert out == "".join([head, *rows[:5], *rows[6:]])


def test_oracle_wahba_skips_the_epochs_estimate_skips(tmp_path: Path, capsys) -> None:
    """The oracle and ``estimate`` read through one reader, which decides
    every skip but a late timestamp's: an epoch naming a satellite twice
    gets the reader's skip line from both, at the same ``path:line``, and
    no oracle row at its time."""
    def second_row_twice(record: dict) -> None:
        record["snr_rows"].append(record["snr_rows"][1])

    code, err, epochs, metrics = _estimate_edited(tmp_path, capsys, 6, second_row_twice)
    record = json.loads(epochs.read_text(encoding="utf-8").splitlines()[5])
    skip = (f"{epochs}:6: skipped epoch: duplicate SNR row for satellite "
            f"{record['snr_rows'][1]['sat_id']}\n")
    assert (code, err) == (0, skip)
    assert json.loads(metrics.read_text(encoding="utf-8"))["skipped"] == 1
    assert main(["oracle", "wahba-svd", "--epochs", str(epochs)]) == 0
    out, err = capsys.readouterr()
    assert err == skip
    times = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert len(times) == 29 and repr(record["t"]) not in times


def test_console_script_installed(tmp_path: Path) -> None:
    exe = shutil.which("mgp")
    if exe is None:
        pytest.skip("console script not on PATH")
    scen = _write(tmp_path / "scen.json", SCENARIO)
    out = subprocess.run(
        [exe, "simulate", "--config", scen, "--out", str(tmp_path / "e.jsonl")],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert out.returncode == 0
    assert "wrote 30 epochs" in out.stdout


@pytest.mark.parametrize("flags", [[], ["--no-multipath-feedback"]],
                         ids=["feedback", "no-feedback"])
def test_estimate_skips_every_epoch_naming_an_antenna_twice(tmp_path: Path, capsys, flags):
    """Every epoch of a short multipath stream names antenna 1 as fixed twice
    more. The requery replay gives an epoch fresh fixes, so with feedback on
    it could hide the extra rows from a check made after it while the fix
    rates still counted them (a rate of 217%, exit 2). The reader skips
    each epoch line at its ``path:line`` either way."""
    scenario = json.loads(Path(bundled_scenario_path("multipath")).read_text(encoding="utf-8"))
    scen = _write(tmp_path / "scen.json", {**scenario, "duration_s": 3.0})
    epochs = tmp_path / "epochs.jsonl"
    assert main(["simulate", "--config", scen, "--out", str(epochs)]) == 0
    header, *lines = epochs.read_text(encoding="utf-8").splitlines()
    out = [header]
    for line in lines:
        record = json.loads(line)
        extra = {"antenna_id": 1, "status": "fixed", "p": [0.9, 0.0, 0.0], "sats_used": 9}
        record["fixes"] += [extra, extra]
        out.append(json.dumps(record))
    epochs.write_text("\n".join(out) + "\n", encoding="utf-8")
    capsys.readouterr()

    metrics = tmp_path / "m.json"
    argv = ["estimate", "--epochs", str(epochs), "--config", _write(tmp_path / "p.json", {}),
            "--poses", str(tmp_path / "poses.csv"), "--metrics", str(metrics)]
    assert main(argv + flags) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{epochs}:{n}: skipped epoch: duplicate solution for antenna 1"
                   for n in range(2, 32)]
    m = json.loads(metrics.read_text(encoding="utf-8"))
    assert (m["epochs"], m["skipped"]) == (0, 30)
    rates = [m["hybrid_fix_rate_pct"], m["hybrid_fix_rate_multipath_pct"],
             m["attitude_availability_pct"], *m["per_antenna_fix_rate_pct"].values()]
    assert all(r is None or 0.0 <= r <= 100.0 for r in rates)


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory) -> dict[str, str]:
    return _chain_files(tmp_path_factory.mktemp("inputs"))


# per command: its argv with ``{out}/`` before each output name, and the
# output to put in a directory that does not exist
_OUTPUT_CASES = {
    "simulate-out": (["simulate", "--config", "scen", "--out", "{out}/e.jsonl",
                      "--scan", "{out}/s.jsonl"], "e.jsonl"),
    "simulate-scan": (["simulate", "--config", "scen", "--out", "{out}/e.jsonl",
                       "--scan", "{out}/s.jsonl"], "s.jsonl"),
    "estimate-poses": (["estimate", "--epochs", "epochs.jsonl", "--config", "pipe",
                        "--poses", "{out}/p.csv", "--metrics", "{out}/m.json"], "p.csv"),
    "estimate-metrics": (["estimate", "--epochs", "epochs.jsonl", "--config", "pipe",
                          "--poses", "{out}/p.csv", "--metrics", "{out}/m.json"], "m.json"),
    "georef-cloud": (["georef", "--poses", "poses.csv", "--scan", "scan.jsonl",
                      "--calib", "calib", "--cloud", "{out}/c.xyz"], "c.xyz"),
    "evaluate-report": (["evaluate", "--cloud", "cloud.xyz", "--reflectors", "refl",
                         "--report", "{out}/r.json"], "r.json"),
}


@pytest.mark.parametrize("case", list(_OUTPUT_CASES))
def test_output_in_a_missing_directory_fails_before_any_work(
    chain_inputs, tmp_path: Path, capsys, case: str
) -> None:
    """Each output's directory is checked before any input is read, so a
    command whose output cannot be written exits 1 naming that output,
    without writing any other."""
    template, bad = _OUTPUT_CASES[case]
    out, missing = tmp_path / "out", tmp_path / "nodir"
    out.mkdir()
    argv = []
    for arg in template:
        if arg.startswith("{out}/"):
            name = arg.removeprefix("{out}/")
            arg = str((missing if name == bad else out) / name)
        argv.append(chain_inputs.get(arg, arg))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {missing / bad}: output directory does not exist\n"
    assert list(out.iterdir()) == [] and not missing.exists()


# per command: its argv, with two outputs ``{a}`` and ``{b}``, and inputs
# that do not exist
_TWO_OUTPUTS = {
    "simulate": (["simulate", "--config", "none.json", "--out", "{a}", "--scan", "{b}"],
                 "out", "scan"),
    "estimate": (["estimate", "--epochs", "none.jsonl", "--config", "none.json",
                  "--poses", "{a}", "--metrics", "{b}"], "poses", "metrics"),
}


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hardlink"])
@pytest.mark.parametrize("case", list(_TWO_OUTPUTS))
def test_two_outputs_naming_one_file_fail_before_any_work(
    tmp_path: Path, capsys, case: str, spelling: str
) -> None:
    """Two outputs of a command that name one file, by the same path, by
    another spelling of it, by a symbolic link or by a hard link, exit 1
    naming both options, before any input is read and without writing."""
    template, opt_a, opt_b = _TWO_OUTPUTS[case]
    a = tmp_path / "x.out"
    b = {"same": a, "dotted": tmp_path / "." / "x.out", "symlink": tmp_path / "link",
         "hardlink": tmp_path / "hard"}[spelling]
    if spelling == "symlink":
        b.symlink_to(a)
    elif spelling == "hardlink":
        a.write_text("earlier\n", encoding="utf-8")
        os.link(a, b)
    before = sorted(tmp_path.iterdir())
    argv = [str(tmp_path / arg) if arg.startswith("none") else arg for arg in template]
    argv = [{"{a}": str(a), "{b}": str(b)}.get(arg, arg) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --{opt_a} {a} and --{opt_b} {b} name the same file\n"
    assert sorted(tmp_path.iterdir()) == before
    assert spelling != "hardlink" or a.read_text(encoding="utf-8") == "earlier\n"
