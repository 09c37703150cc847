"""Differential test: the array scan -> cloud path against the per-pulse path.

The reference below is the object path the arrays replaced, kept here only
as an oracle: a scalar ``trajectory_position`` loop, one frozen pulse object
per return built in a per-pulse loop, per-pulse scan JSONL writing and
reading, per-row pose CSV reading into one pose object per epoch, a scalar
``georeference_stream`` that turns one pulse at a time in Python floats,
the ``struct`` ``.bin`` writer and the ``repr`` ``.xyz`` writer. Every file
the chain writes (scan JSONL, both cloud formats and the evaluate report)
must be byte-identical.
"""
from __future__ import annotations

import bisect
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import mgp
from mgp.cli import main as cli_main
from mgp.simulator import _SCAN_SEED_SALT

from test_acceptance import A9_SCENARIO


@dataclass(frozen=True)
class _Pulse:
    t: float
    p: mgp.Vec3
    reflector: bool


@dataclass(frozen=True)
class _Frame:
    t: float
    pulses: tuple[_Pulse, ...]


@dataclass(frozen=True)
class _Pose:
    t: float
    p: mgp.Vec3
    q: mgp.UnitQuaternion


@dataclass(frozen=True)
class _Point:
    p: mgp.Vec3
    reflector_flag: bool


def _ref_position(config: mgp.ScenarioConfig, t: float) -> mgp.Vec3:
    traj = config.trajectory
    if traj.kind is mgp.TrajectoryKind.STATIC:
        return traj.waypoints[0] if traj.waypoints else mgp.Vec3(0.0, 0.0, 0.0)
    pts = [w.as_array() for w in traj.waypoints]
    dist = traj.speed_mps * max(0.0, t)
    for a, b in zip(pts, pts[1:]):
        seg = float(np.linalg.norm(b - a))
        if dist <= seg or seg == 0.0:
            frac = 0.0 if seg == 0.0 else dist / seg
            return mgp.Vec3.from_array(a + frac * (b - a))
        dist -= seg
    return mgp.Vec3.from_array(pts[-1])


def _ref_scan_stream(config: mgp.ScenarioConfig, scanner: mgp.ScannerModel) -> list[_Frame]:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SCAN_SEED_SALT]))
    ppr = scanner.pulses_per_rev
    gamma = math.radians(scanner.cone_deg)
    theta = 2.0 * math.pi * np.arange(ppr) / ppr
    d_scan = np.column_stack(
        [
            math.sin(gamma) * np.cos(theta),
            math.sin(gamma) * np.sin(theta),
            -math.cos(gamma) * np.ones(ppr),
        ]
    )
    r_bs = mgp.quat_to_matrix(scanner.mount.boresight)
    lever = scanner.mount.lever_arm.as_array()
    d_body = d_scan @ r_bs.T
    refl = [(r.position.x, r.position.y, r.radius_m**2) for r in config.reflectors]
    frames = []
    for k in range(int(round(config.duration_s * scanner.spin_hz))):
        t0 = k / scanner.spin_hz
        ts = t0 + np.arange(ppr) / (scanner.spin_hz * ppr)
        noise_draw = scanner.range_noise_m * rng.standard_normal(ppr)
        pos = np.array([_ref_position(config, float(t)).as_array() for t in ts])
        roll, pitch, yaw = config.attitude_profile.angles_at(t0)
        r_eb = mgp.quat_to_matrix(mgp.euler_to_quat(roll, pitch, yaw))
        origin = pos + lever @ r_eb.T
        d_world = d_body @ r_eb.T
        denom = d_world[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -origin[:, 2] / denom
        valid = (denom < -1e-12) & (s > 0.0) & (s <= scanner.max_range_m)
        ground = origin + s[:, None] * d_world
        pulses = []
        for i in range(ppr):
            if not valid[i]:
                continue
            ge, gn = float(ground[i, 0]), float(ground[i, 1])
            hit = any((ge - rx) ** 2 + (gn - ry) ** 2 <= r2 for rx, ry, r2 in refl)
            r_meas = float(s[i] + noise_draw[i])
            pulses.append(
                _Pulse(t=float(ts[i]), p=mgp.Vec3.from_array(d_scan[i] * r_meas), reflector=hit)
            )
        frames.append(_Frame(t=t0, pulses=tuple(pulses)))
    return frames


def _ref_write_scan(path: Path, frames: list[_Frame]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"format": "mgp-scan", "version": 1}) + "\n")
        for frame in frames:
            pulses = [
                [p.t, p.p.x, p.p.y, p.p.z, 1 if p.reflector else 0] for p in frame.pulses
            ]
            f.write(json.dumps({"t": frame.t, "pulses": pulses}) + "\n")


def _ref_read_scan(path: Path) -> list[_Frame]:
    with open(path, encoding="utf-8") as f:
        f.readline()
        frames = []
        for line in f:
            d = json.loads(line)
            pulses = tuple(
                _Pulse(
                    t=float(p[0]),
                    p=mgp.Vec3(float(p[1]), float(p[2]), float(p[3])),
                    reflector=bool(p[4]),
                )
                for p in d["pulses"]
            )
            frames.append(_Frame(t=float(d["t"]), pulses=pulses))
    return frames


def _ref_read_poses(path: Path) -> list[_Pose]:
    """The rows of a pose CSV with both a position and an attitude, the
    quaternion normalized as ``UnitQuaternion.from_array`` does."""
    poses = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        if cells[1] and cells[4]:
            q = mgp.UnitQuaternion.from_array([float(c) for c in cells[4:8]], canonicalize=False)
            poses.append(_Pose(float(cells[0]), mgp.Vec3(*map(float, cells[1:4])), q))
    return poses


def _ref_turn(r: list[list[float]], v: list[float]) -> list[float]:
    """``r @ v`` in Python floats, each row's three products summed left to
    right."""
    return [row[0] * v[0] + row[1] * v[1] + row[2] * v[2] for row in r]


def _ref_georeference_stream(
    poses: list[_Pose], frames: list[_Frame], calib: mgp.MountCalibration
) -> list[_Point]:
    """One pulse at a time in Python floats: its nearest pose (the later
    one on a tie), then the boresight rows, the lever arm, the pose's
    rotation rows and its position."""
    times = [pose.t for pose in poses]
    r_bs = mgp.quat_to_matrix(calib.boresight).tolist()
    lever = calib.lever_arm.as_array().tolist()
    r_eb = [mgp.quat_to_matrix(pose.q).tolist() for pose in poses]
    cloud = []
    for frame in frames:
        for pulse in frame.pulses:
            hi = min(bisect.bisect_left(times, pulse.t), len(times) - 1)
            lo = max(hi - 1, 0)
            j = hi if abs(times[hi] - pulse.t) <= abs(times[lo] - pulse.t) else lo
            if abs(times[j] - pulse.t) > mgp.mapping.MAX_POSE_GAP_S:
                continue
            body = _ref_turn(r_bs, [pulse.p.x, pulse.p.y, pulse.p.z])
            body = [b + a for b, a in zip(body, lever)]
            world = _ref_turn(r_eb[j], body)
            world = [w + c for w, c in zip(world, poses[j].p.as_array().tolist())]
            cloud.append(_Point(p=mgp.Vec3(*world), reflector_flag=pulse.reflector))
    return cloud


def _ref_write_cloud(path: Path, cloud: list[_Point]) -> None:
    if path.suffix == ".xyz":
        with open(path, "w", encoding="utf-8") as fh:
            for g in cloud:
                fh.write(f"{g.p.x!r} {g.p.y!r} {g.p.z!r} {int(g.reflector_flag)}\n")
    else:
        record = struct.Struct("<dddB")
        with open(path, "wb") as fh:
            for g in cloud:
                fh.write(record.pack(g.p.x, g.p.y, g.p.z, int(g.reflector_flag)))


def _ref_report(cloud: list[_Point], truths: list[mgp.Vec3], radius: float, min_hits: int) -> str:
    flagged = np.array(
        [g.p.as_array() for g in cloud if g.reflector_flag], dtype=np.float64
    ).reshape(-1, 3)
    per, sq_h, sq_v = [], [], []
    for truth in truths:
        n_hits = 0
        if flagged.shape[0]:
            d = flagged - truth.as_array()
            mask = np.einsum("ij,ij->i", d, d) <= radius**2
            n_hits = int(mask.sum())
        err = None
        if n_hits >= min_hits:
            e = mgp.Vec3.from_array(flagged[mask].mean(axis=0) - truth.as_array())
            err = [e.x, e.y, e.z]
            sq_h.append(e.x**2 + e.y**2)
            sq_v.append(e.z**2)
        per.append(
            {
                "truth": [truth.x, truth.y, truth.z],
                "error": err,
                "n_hits": n_hits,
                "resolved": err is not None,
            }
        )
    payload = {
        "per_reflector": per,
        "rms_horizontal_m": math.sqrt(sum(sq_h) / len(sq_h)) if sq_h else None,
        "rms_vertical_m": math.sqrt(sum(sq_v) / len(sq_v)) if sq_v else None,
        "unresolved": sum(1 for r in per if not r["resolved"]),
    }
    return json.dumps(payload, indent=2) + "\n"


def _flight_cut() -> dict:
    with open(mgp.bundled_scenario_path("flight"), encoding="utf-8") as f:
        d = json.load(f)
    d["duration_s"] = 10.0
    return d


def _descent() -> dict:
    # the platform sinks from 40 m to 10 m: while the slant range to the
    # ground exceeds max_range_m, a frame has no valid pulse at all
    d = dict(A9_SCENARIO)
    d["duration_s"] = 6.0
    d["trajectory"] = {
        "kind": "waypoint",
        "waypoints": [[0.0, 0.0, 40.0], [0.0, 0.0, 10.0]],
        "speed_mps": 6.0,
    }
    d["scanner"] = {"spin_hz": 10.0, "pulses_per_rev": 120, "max_range_m": 25.0}
    d["reflectors"] = [{"position": [0.0, 4.0, 0.0], "radius_m": 1.5}]
    return d


SCENARIOS = {"a9": A9_SCENARIO, "flight-10s": _flight_cut(), "descent": _descent()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_array_path_writes_the_object_path_bytes(tmp_path: Path, name: str) -> None:
    cfg = mgp.scenario_from_dict(SCENARIOS[name])
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()

    frames = list(mgp.scan_stream(cfg, cfg.scanner))
    mgp.write_scan(str(new / "scan.jsonl"), frames)
    _ref_write_scan(ref / "scan.jsonl", _ref_scan_stream(cfg, cfg.scanner))
    assert (new / "scan.jsonl").read_bytes() == (ref / "scan.jsonl").read_bytes()
    if name == "descent":
        empty = [f for f in frames if len(f.pulses) == 0]
        assert empty and any(len(f.pulses) for f in frames)
        assert all(f.pulses.shape == (0, 4) and f.reflector.shape == (0,) for f in empty)
        assert '"pulses": []' in (new / "scan.jsonl").read_text(encoding="utf-8")
        back = list(mgp.read_scan(str(new / "scan.jsonl")))
        assert [len(f.pulses) for f in back] == [len(f.pulses) for f in frames]
        assert all(f.pulses.shape == (0, 4) for f in back if not len(f.pulses))

    # estimated-pose stand-in: truth poses with correlated errors, written
    # to and read from the pose CSV the georef step takes
    truth = mgp.truth_poses(cfg, np.arange(cfg.n_epochs) / cfg.rate_hz)
    poses = mgp.corrupt_poses(truth, sigma_pos_m=0.01, sigma_att_deg=0.07, tau_s=8.0, seed=3)
    pose_csv = tmp_path / "poses.csv"
    mgp.write_poses(str(pose_csv), poses)
    # a calibration quaternion must have unit norm: the same small rotation,
    # normalized before it is written
    boresight = mgp.UnitQuaternion.from_array([0.01, -0.02, 0.005, 1.0]).as_array().tolist()
    calib = {"lever_arm": [0.1, -0.05, -0.2], "boresight": boresight}
    calib_json = tmp_path / "calib.json"
    calib_json.write_text(json.dumps(calib), encoding="utf-8")
    truths = [r.position for r in cfg.reflectors]
    reflectors_json = tmp_path / "reflectors.json"
    reflectors_json.write_text(
        json.dumps({"reflectors": [[t.x, t.y, t.z] for t in truths], "cluster_radius_m": 0.8}),
        encoding="utf-8",
    )

    ref_cloud = _ref_georeference_stream(
        _ref_read_poses(pose_csv),
        _ref_read_scan(ref / "scan.jsonl"),
        mgp.load_calibration(str(calib_json)),
    )
    for suffix in (".xyz", ".bin"):
        cloud = new / f"cloud{suffix}"
        argv = ["georef", "--poses", str(pose_csv), "--scan", str(new / "scan.jsonl")]
        assert cli_main(argv + ["--calib", str(calib_json), "--cloud", str(cloud)]) == 0
        _ref_write_cloud(ref / cloud.name, ref_cloud)
        assert cloud.read_bytes() == (ref / cloud.name).read_bytes()
        report = new / f"report{suffix}.json"
        argv = ["evaluate", "--cloud", str(cloud), "--reflectors", str(reflectors_json)]
        assert cli_main(argv + ["--report", str(report)]) == 0
        assert report.read_text(encoding="utf-8") == _ref_report(ref_cloud, truths, 0.8, 10)


def test_trajectory_position_array_matches_scalar_loop() -> None:
    cfg = mgp.scenario_from_dict(
        {
            **A9_SCENARIO,
            "trajectory": {
                "kind": "waypoint",
                "waypoints": [[-3.0, 1.0, 30.0], [4.0, 1.0, 30.0], [4.0, 1.0, 30.0], [7.5, -2.0, 25.0]],
                "speed_mps": 1.7,
            },
        }
    )
    ts = np.concatenate([np.linspace(0.0, 12.0, 997), [4.1176470588235294, 100.0]])
    rows = mgp.trajectory_position(cfg, ts)
    want = np.array([_ref_position(cfg, float(t)).as_array() for t in ts])
    assert np.array_equal(rows.view(np.int64), want.view(np.int64))
