from __future__ import annotations

import math
import re
import struct

import numpy as np
import pytest

from mgp import (
    Cloud,
    InputError,
    MountCalibration,
    Poses,
    ScanFrame,
    UnitQuaternion,
    ValidationError,
    Vec3,
    euler_to_quat,
    evaluate_reflectors,
    georeference,
    georeference_stream,
    quat_multiply,
    quat_to_matrix,
    read_cloud,
    rotate,
    write_cloud,
)


IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def _poses(times: list[float], p: list | None = None, q: list | None = None) -> Poses:
    """Checked poses at ``times``: at (0, 0, 30) and level unless given."""
    n = len(times)
    return Poses.checked(
        np.array(times, dtype=np.float64),
        np.array(p if p is not None else [[0.0, 0.0, 30.0]] * n, dtype=np.float64).reshape(n, 3),
        np.array(q if q is not None else [IDENTITY] * n, dtype=np.float64).reshape(n, 4),
        np.full(n, 6),
    )


def _frame(t: float, pulses: list[tuple[float, Vec3]], flag: bool = False) -> ScanFrame:
    rows = np.array([[pt, pp.x, pp.y, pp.z] for pt, pp in pulses]).reshape(-1, 4)
    return ScanFrame(t=t, pulses=rows, reflector=np.full(len(rows), flag))


def _cloud(points: list[Vec3], flags: list[bool]) -> Cloud:
    return Cloud(
        p=np.array([q.as_array() for q in points]).reshape(-1, 3),
        reflector=np.array(flags, dtype=bool),
    )


# -- single-point georeferencing ------------------------------------------------


def test_georeference_identity_chain() -> None:
    got = georeference(np.array([100.0, 200.0, 30.0]), IDENTITY, MountCalibration(),
                       np.array([0.0, 0.0, -30.0]))
    assert np.allclose(got, [100.0, 200.0, 0.0], atol=1e-12)


def test_georeference_lever_arm_rotates_with_body() -> None:
    # yaw +90 carries the body-frame lever (0, 1.1, 0) onto world (-1.1, 0, 0)
    q = euler_to_quat(0.0, 0.0, 90.0).as_array()
    calib = MountCalibration(lever_arm=Vec3(0.0, 1.1, 0.0))
    got = georeference(np.array([10.0, 5.0, 30.0]), q, calib, np.zeros(3))
    assert np.allclose(got, [10.0 - 1.1, 5.0, 30.0], atol=1e-12)


def test_georeference_boresight_applies_before_body_rotation() -> None:
    # scanner points +x in scanner frame; boresight yaw +90 makes that body
    # +y; body yaw +90 makes it world -x
    q = euler_to_quat(0.0, 0.0, 90.0).as_array()
    calib = MountCalibration(boresight=euler_to_quat(0.0, 0.0, 90.0))
    got = georeference(np.zeros(3), q, calib, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(got, [-2.0, 0.0, 0.0], atol=1e-12)


def test_georeference_full_chain_worked_example() -> None:
    q = euler_to_quat(0.0, 0.0, 180.0).as_array()
    calib = MountCalibration(lever_arm=Vec3(0.3, 0.0, -0.1))
    got = georeference(np.array([50.0, -20.0, 25.0]), q, calib, np.array([0.0, 0.0, -24.9]))
    # 180 yaw flips E and N of (lever + scan) = (0.3, 0.0, -25.0)
    assert np.allclose(got, [50.0 - 0.3, -20.0, 0.0], atol=1e-12)


# -- stream georeferencing -------------------------------------------------------


def test_stream_nearest_pose_selection() -> None:
    poses = _poses([0.0, 0.1, 0.2], p=[[0.0, 0.0, 30.0], [1.0, 0.0, 30.0], [2.0, 0.0, 30.0]])
    down = Vec3(0.0, 0.0, -30.0)
    # pulse at 0.04 -> pose 0.0; 0.06 -> pose 0.1; 0.16 -> pose 0.2
    frames = [_frame(0.0, [(0.04, down), (0.06, down), (0.16, down)])]
    cloud, dropped = georeference_stream(poses, frames, MountCalibration())
    assert dropped == 0
    assert cloud.p[:, 0].tolist() == [0.0, 1.0, 2.0]


def test_stream_drops_pulses_beyond_pose_gap() -> None:
    poses = _poses([0.0, 0.1])
    down = Vec3(0.0, 0.0, -30.0)
    # gaps to the nearest pose: 0.05 -> 0.05, 0.161 -> 0.061, 0.9 -> 0.8
    frames = [_frame(0.0, [(0.05, down), (0.161, down), (0.9, down)])]
    cloud, dropped = georeference_stream(poses, frames, MountCalibration(), max_pose_gap_s=0.06)
    assert len(cloud) == 1
    assert dropped == 2


def test_stream_gap_boundary_inclusive() -> None:
    poses = _poses([0.0])
    down = Vec3(0.0, 0.0, -30.0)
    frames = [_frame(0.0, [(0.06, down)])]
    cloud, dropped = georeference_stream(poses, frames, MountCalibration(), max_pose_gap_s=0.06)
    assert len(cloud) == 1 and dropped == 0


def test_stream_requires_increasing_poses() -> None:
    with pytest.raises(ValidationError, match="strictly increasing"):
        georeference_stream(_poses([0.1, 0.1]), [], MountCalibration())
    with pytest.raises(ValidationError, match="no pose has both"):
        georeference_stream(_poses([]), [], MountCalibration())
    with pytest.raises(ValidationError):
        georeference_stream(_poses([0.0]), [], MountCalibration(), max_pose_gap_s=0.0)


def test_stream_skips_poses_without_position_or_attitude() -> None:
    nan3, nan4 = [math.nan] * 3, [math.nan] * 4
    poses = _poses(
        [0.0, 0.1, 0.2, 0.3],
        p=[nan3, [1.0, 0.0, 30.0], [2.0, 0.0, 30.0], nan3],
        q=[IDENTITY, IDENTITY, nan4, nan4],
    )
    assert poses.complete.tolist() == [False, True, False, False]
    down = Vec3(0.0, 0.0, -30.0)
    # only the pose at 0.1 is usable, and every pulse but the one at 0.12
    # is more than the 0.06 s gap away from it
    frames = [_frame(0.0, [(0.0, down), (0.12, down), (0.2, down), (0.3, down)])]
    cloud, dropped = georeference_stream(poses, frames, MountCalibration())
    assert cloud.p.tolist() == [[1.0, 0.0, 0.0]] and dropped == 3
    with pytest.raises(ValidationError, match="no pose has both"):
        georeference_stream(poses.select(~poses.complete), frames, MountCalibration())


@pytest.mark.parametrize(
    "field, index, value, message",
    [
        ("t", 1, math.nan, "pose times must be finite and strictly increasing"),
        ("t", 1, -1.0, "pose times must be finite and strictly increasing"),
        ("p", (0, 1), math.nan, "each position row must be all finite or all NaN"),
        ("p", 0, math.inf, "each position row must be all finite or all NaN"),
        ("q", (1, 3), math.nan, "each quaternion row must be all finite or all NaN"),
        ("q", (1, 3), 2.0, "pose quaternions must have unit norm"),
        ("n_fix", 0, -1, "n_fix must be a nonnegative integer"),
    ],
    ids=["time-nan", "time-decreasing", "position-partial", "position-inf",
         "quaternion-partial", "quaternion-not-unit", "n-fix-negative"],
)
def test_poses_checked_rejects_bad_records(field: str, index, value, message: str) -> None:
    good = _poses([0.0, 0.1])
    arrays = {name: getattr(good, name).copy() for name in ("t", "p", "q", "n_fix")}
    arrays[field][index] = value
    with pytest.raises(ValidationError, match=message):
        Poses.checked(**arrays)


def test_poses_checked_rejects_float_counts_and_bad_shapes() -> None:
    good = _poses([0.0, 0.1])
    with pytest.raises(ValidationError, match="n_fix must be a nonnegative integer"):
        Poses.checked(good.t, good.p, good.q, good.n_fix.astype(float))
    with pytest.raises(ValidationError, match="poses need"):
        Poses.checked(good.t, good.p[:1], good.q, good.n_fix)


def test_stream_empty_frames_empty_cloud() -> None:
    cloud, dropped = georeference_stream(_poses([0.0]), [], MountCalibration())
    assert len(cloud) == 0 and cloud.p.shape == (0, 3) and dropped == 0
    empty = [_frame(0.0, [])]
    cloud, dropped = georeference_stream(_poses([0.0]), empty, MountCalibration())
    assert len(cloud) == 0 and dropped == 0


def test_stream_matches_single_point_path() -> None:
    rng = np.random.default_rng(103)
    poses = _poses(
        [0.1 * k for k in range(5)],
        p=rng.normal(scale=10.0, size=(5, 3)),
        q=[UnitQuaternion.from_array(rng.normal(size=4)).as_array() for _ in range(5)],
    )
    calib = MountCalibration(
        lever_arm=Vec3(0.2, -0.1, 0.05), boresight=euler_to_quat(1.0, 2.0, 3.0)
    )
    pulses = [(0.1 * k + 0.01, Vec3.from_array(rng.normal(scale=5.0, size=3))) for k in range(5)]
    frames = [_frame(0.0, pulses)]
    cloud, _ = georeference_stream(poses, frames, calib)
    assert len(cloud) == len(pulses)
    for (pt, pp), got, p, q in zip(pulses, cloud.p, poses.p, poses.q):
        want = georeference(p, q, calib, pp.as_array())
        assert np.allclose(got, want, atol=1e-12)


def test_stream_rigid_motion_equivariance() -> None:
    # rotating and translating every pose moves the whole cloud rigidly
    rng = np.random.default_rng(107)
    poses = _poses([0.1 * k for k in range(4)], p=rng.normal(scale=5.0, size=(4, 3)))
    frames = [
        _frame(0.0, [(0.1 * k, Vec3.from_array(rng.normal(scale=3.0, size=3)))])
        for k in range(4)
    ]
    calib = MountCalibration(lever_arm=Vec3(0.1, 0.0, -0.2))
    base, _ = georeference_stream(poses, frames, calib)

    g = euler_to_quat(0.0, 0.0, 35.0)
    shift = Vec3(3.0, -7.0, 2.0)
    moved_poses = _poses(
        poses.t.tolist(),
        p=poses.p @ quat_to_matrix(g).T + shift.as_array(),
        q=[quat_multiply(g, UnitQuaternion(*q)).as_array() for q in poses.q.tolist()],
    )
    moved, _ = georeference_stream(moved_poses, frames, calib)
    for a, b in zip(base.p, moved.p):
        want = rotate(g, Vec3.from_array(a)) + shift
        assert np.allclose(b, want.as_array(), atol=1e-10)


def test_stream_preserves_reflector_flags() -> None:
    poses = _poses([0.0])
    frames = [_frame(0.0, [(0.0, Vec3(0.0, 0.0, -30.0))], flag=True)]
    cloud, _ = georeference_stream(poses, frames, MountCalibration())
    assert cloud.reflector.tolist() == [True]


# -- reflector evaluation ----------------------------------------------------------


def _cluster(center: Vec3, n: int, spread: float, rng: np.random.Generator) -> list[Vec3]:
    return [
        Vec3.from_array(center.as_array() + rng.normal(scale=spread, size=3)) for _ in range(n)
    ]


def _flagged(points: list[Vec3]) -> Cloud:
    return _cloud(points, [True] * len(points))


def test_evaluate_exact_clusters() -> None:
    rng = np.random.default_rng(109)
    truths = [Vec3(0.0, 0.0, 0.0), Vec3(10.0, 0.0, 0.0)]
    cloud = _flagged(_cluster(truths[0], 50, 0.0, rng) + _cluster(truths[1], 50, 0.0, rng))
    rep = evaluate_reflectors(cloud, truths, cluster_radius_m=0.5, min_hits=10)
    assert rep.unresolved == 0
    assert rep.rms_horizontal_m == pytest.approx(0.0, abs=1e-12)
    assert rep.rms_vertical_m == pytest.approx(0.0, abs=1e-12)
    for r in rep.per_reflector:
        assert r.resolved and r.n_hits == 50
        assert np.allclose(r.error.as_array(), 0.0, atol=1e-12)


def test_evaluate_constant_offset_reports_it() -> None:
    rng = np.random.default_rng(113)
    truths = [Vec3(0.0, 0.0, 0.0), Vec3(8.0, 0.0, 0.0)]
    offset = np.array([0.03, -0.04, 0.02])
    cloud = _flagged(
        [
            Vec3.from_array(g.as_array() + offset)
            for g in _cluster(truths[0], 30, 0.0, rng) + _cluster(truths[1], 30, 0.0, rng)
        ]
    )
    rep = evaluate_reflectors(cloud, truths, cluster_radius_m=0.5, min_hits=10)
    # horizontal rms = hypot(0.03, 0.04) = 0.05 exactly; vertical = 0.02
    assert rep.rms_horizontal_m == pytest.approx(0.05, abs=1e-12)
    assert rep.rms_vertical_m == pytest.approx(0.02, abs=1e-12)
    for r in rep.per_reflector:
        assert np.allclose(r.error.as_array(), offset, atol=1e-12)


def test_evaluate_unresolved_reflector_excluded_from_rms() -> None:
    rng = np.random.default_rng(127)
    truths = [Vec3(0.0, 0.0, 0.0), Vec3(20.0, 0.0, 0.0)]
    cloud = _flagged(_cluster(truths[0], 30, 0.01, rng) + _cluster(truths[1], 5, 0.01, rng))
    rep = evaluate_reflectors(cloud, truths, cluster_radius_m=0.5, min_hits=10)
    assert rep.unresolved == 1
    first, second = rep.per_reflector
    assert first.resolved and not second.resolved
    assert second.error is None and second.n_hits == 5
    assert rep.rms_horizontal_m is not None


def test_evaluate_ignores_unflagged_points() -> None:
    truths = [Vec3(0.0, 0.0, 0.0)]
    cloud = _cloud([Vec3(0.0, 0.0, 0.0)] * 100, [False] * 100)
    rep = evaluate_reflectors(cloud, truths, min_hits=10)
    assert rep.unresolved == 1
    assert rep.rms_horizontal_m is None and rep.rms_vertical_m is None


def test_evaluate_cluster_radius_limits_association() -> None:
    rng = np.random.default_rng(131)
    truths = [Vec3(0.0, 0.0, 0.0)]
    near = _cluster(Vec3(0.0, 0.0, 0.0), 20, 0.0, rng)
    far = _cluster(Vec3(0.45, 0.0, 0.0), 20, 0.0, rng)  # inside 0.5, outside 0.3
    rep_wide = evaluate_reflectors(_flagged(near + far), truths, cluster_radius_m=0.5, min_hits=10)
    assert rep_wide.per_reflector[0].n_hits == 40
    rep_tight = evaluate_reflectors(_flagged(near + far), truths, cluster_radius_m=0.3, min_hits=10)
    assert rep_tight.per_reflector[0].n_hits == 20


def test_evaluate_validation() -> None:
    empty = _cloud([], [])
    with pytest.raises(ValidationError):
        evaluate_reflectors(empty, [])
    with pytest.raises(ValidationError):
        evaluate_reflectors(empty, [Vec3(0.0, 0.0, 0.0)], cluster_radius_m=0.0)
    with pytest.raises(ValidationError):
        evaluate_reflectors(empty, [Vec3(0.0, 0.0, 0.0)], min_hits=0)


# -- cloud files ----------------------------------------------------------------


def _sample_cloud() -> Cloud:
    rng = np.random.default_rng(137)
    return Cloud(p=rng.normal(scale=50.0, size=(25, 3)), reflector=np.arange(25) % 3 == 0)


def test_cloud_xyz_round_trip(tmp_path) -> None:
    cloud = _sample_cloud()
    path = tmp_path / "cloud.xyz"
    write_cloud(path, cloud)
    back = read_cloud(path)
    assert len(back) == len(cloud)
    assert np.array_equal(back.p, cloud.p)  # repr round-trips exactly
    assert np.array_equal(back.reflector, cloud.reflector)


def test_cloud_bin_round_trip(tmp_path) -> None:
    cloud = _sample_cloud()
    path = tmp_path / "cloud.bin"
    write_cloud(path, cloud)
    assert path.stat().st_size == 25 * len(cloud)  # "<dddB" records
    back = read_cloud(path)
    assert np.array_equal(back.p, cloud.p)
    assert np.array_equal(back.reflector, cloud.reflector)


def test_cloud_bad_extension(tmp_path) -> None:
    with pytest.raises(InputError):
        write_cloud(tmp_path / "cloud.ply", _cloud([], []))
    with pytest.raises(InputError):
        read_cloud(tmp_path / "cloud.ply")


def test_cloud_malformed_files(tmp_path) -> None:
    bad_xyz = tmp_path / "bad.xyz"
    bad_xyz.write_text("1.0 2.0 3.0\n")  # missing flag column
    with pytest.raises(InputError):
        read_cloud(bad_xyz)
    bad_xyz.write_text("1.0 2.0 nope 1\n")
    with pytest.raises(InputError):
        read_cloud(bad_xyz)
    bad_bin = tmp_path / "bad.bin"
    bad_bin.write_bytes(b"\x00" * 11)  # not a whole record
    with pytest.raises(InputError):
        read_cloud(bad_bin)


@pytest.mark.parametrize(
    "name, payload, where",
    [
        ("c.xyz", b"1.0 2.0 0.0 1\nnan 0.0 0.0 1\n", ":2: non-finite point (nan, 0.0, 0.0)"),
        ("c.xyz", b"1.0 2.0 0.0 1\n1.0 2.0 0.0 0\n1.0 2.0 0.0 7\n", ":3: flag 7 is not 0 or 1"),
        ("c.xyz", b"1.0 2.0 0.0 1\n\n1.0 2.0 0.0 0\n", ":2: expected 'E N U flag'"),
        ("c.xyz", b"1.0 2.0 0.0 1\n1.0 2.0 0.0 0.5\n", ":2: flag 0.5 is not 0 or 1"),
        ("c.xyz", b"  \n", ":1: expected 'E N U flag'"),
        # float() takes both lines, np.loadtxt neither
        ("c.xyz", b"1.0 2.0 0.0 1\n1_0 2.0 0.0 1\n", ":2: expected 'E N U flag'"),
        ("c.xyz", "1.0 2.0 0.0 1\n\uff11 2.0 0.0 1\n".encode(), ":2: expected 'E N U flag'"),
        (
            "c.bin",
            struct.pack("<dddB", 1.0, 2.0, 0.0, 1) * 2 + struct.pack("<dddB", 0.0, math.inf, 0.0, 0),
            ": record 3: non-finite point (0.0, inf, 0.0)",
        ),
        ("c.bin", struct.pack("<dddB", 1.0, 2.0, 0.0, 2), ": record 1: flag 2 is not 0 or 1"),
    ],
    ids=[
        "xyz-nan",
        "xyz-flag-7",
        "xyz-blank-line",
        "xyz-flag-half",
        "xyz-whitespace-only",
        "xyz-underscore-digits",
        "xyz-fullwidth-digit",
        "bin-inf",
        "bin-flag-2",
    ],
)
@pytest.mark.filterwarnings("error")
def test_read_cloud_rejects_bad_records_with_location(
    tmp_path, name: str, payload: bytes, where: str
) -> None:
    path = tmp_path / name
    path.write_bytes(payload)
    with pytest.raises(InputError, match="^" + re.escape(f"{path}{where}") + "$"):
        read_cloud(path)


def test_read_cloud_empty_files(tmp_path) -> None:
    for name in ("c.xyz", "c.bin"):
        (tmp_path / name).write_bytes(b"")
        back = read_cloud(tmp_path / name)
        assert len(back) == 0 and back.p.shape == (0, 3) and back.reflector.shape == (0,)
