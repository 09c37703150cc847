from __future__ import annotations

import json
import math
import shutil
import struct
import subprocess
from pathlib import Path

import pytest

from mgp import read_poses
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
    path.write_text(json.dumps(payload))
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
    m = json.loads(Path(metrics).read_text())
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
    rep = json.loads(Path(report).read_text())
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


def test_simulate_scan_without_scanner_fails(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    code = main(
        ["simulate", "--config", scen, "--out", str(tmp_path / "e.jsonl"), "--scan", str(tmp_path / "s.jsonl")]
    )
    assert code == 1
    assert "no scanner model" in capsys.readouterr().err


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
    m = json.loads(Path(metrics).read_text())
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
    lines = epochs.read_text().splitlines()
    record = json.loads(lines[5])
    record["truth"] = None
    stray = next(f for f in record["fixes"] if f["status"] == "fixed")
    record["fixes"].append({**stray, "antenna_id": 9})
    lines[5] = json.dumps(record)
    epochs.write_text("\n".join(lines) + "\n")
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
    assert "antenna 9 has no layout entry (layout has 6)" in captured.err
    assert "processed 29 epochs (1 skipped)" in captured.out
    m = json.loads(metrics.read_text())
    assert (m["epochs"], m["skipped"]) == (29, 1)


def test_estimate_skips_epoch_with_short_antenna_bias(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = tmp_path / "epochs.jsonl"
    main(["simulate", "--config", scen, "--out", str(epochs)])
    lines = epochs.read_text().splitlines()
    record = json.loads(lines[5])
    record["truth"]["requery"]["model"]["antenna_bias"].pop()
    lines[5] = json.dumps(record)
    epochs.write_text("\n".join(lines) + "\n")
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
    assert f"{epochs}:6: skipped epoch" in captured.err
    assert "antenna_bias needs one entry per antenna (6)" in captured.err
    m = json.loads(metrics.read_text())
    assert (m["epochs"], m["skipped"]) == (29, 1)


def test_estimate_skips_epoch_with_mistyped_antenna_id(tmp_path: Path, capsys) -> None:
    scen = _write(tmp_path / "scen.json", SCENARIO)
    epochs = tmp_path / "epochs.jsonl"
    main(["simulate", "--config", scen, "--out", str(epochs)])
    lines = epochs.read_text().splitlines()
    record = json.loads(lines[5])
    record["fixes"][0]["antenna_id"] = 1.7
    lines[5] = json.dumps(record)
    epochs.write_text("\n".join(lines) + "\n")
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
    m = json.loads(metrics.read_text())
    assert (m["epochs"], m["skipped"]) == (29, 1)


def test_georef_nan_pose_reports_path_and_line(tmp_path: Path, capsys) -> None:
    poses = tmp_path / "poses.csv"
    poses.write_text(
        "t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n"
        "0.0,1.0,2.0,30.0,0.0,0.0,0.0,1.0,6,1\n"
        "0.1,nan,2.0,30.0,0.0,0.0,0.0,1.0,6,1\n"
    )
    scan = tmp_path / "scan.jsonl"
    scan.write_text('{"format": "mgp-scan", "version": 1}\n')
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
        "0.1,,,,0.0,0.0,0.0,1.0,0,1\n"
    )
    scan = tmp_path / "scan.jsonl"
    scan.write_text('{"format": "mgp-scan", "version": 1}\n')
    calib = _write(tmp_path / "calib.json", {"lever_arm": [0.0, 0.0, 0.0]})
    argv = ["georef", "--poses", str(poses), "--scan", str(scan), "--calib", calib]
    assert main(argv + ["--cloud", str(tmp_path / "cloud.xyz")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {poses}: no pose has both a position and an attitude\n"


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


def test_console_script_installed(tmp_path: Path) -> None:
    exe = shutil.which("mgp")
    if exe is None:
        pytest.skip("console script not on PATH")
    scen = _write(tmp_path / "scen.json", SCENARIO)
    out = subprocess.run(
        [exe, "simulate", "--config", scen, "--out", str(tmp_path / "e.jsonl")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "wrote 30 epochs" in out.stdout
