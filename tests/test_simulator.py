from __future__ import annotations

import math

import numpy as np
import pytest

from mgp import (
    AttitudeProfile,
    ConfigurationError,
    FixModel,
    Fixes,
    NoiseModel,
    Poses,
    Reflector,
    Satellite,
    ScannerModel,
    ScenarioConfig,
    SkyMaskSector,
    SnrModel,
    Trajectory,
    TrajectoryKind,
    UnitQuaternion,
    ValidationError,
    Vec3,
    corrupt_poses,
    euler_to_quat,
    multipath_satellite_ids,
    quat_angle,
    quat_to_matrix,
    requery_epoch,
    rotate,
    simulate,
    scan_stream,
    trajectory_position,
    truth_attitude,
    truth_poses,
)

from mgp.core import euler_products, unit_quats

from scalar_epochs import edited, epochs_of

OPEN_SKY = tuple(
    Satellite(sat_id=f"G{k:02d}", azimuth_deg=45.0 * k, elevation_deg=30.0 + 7.0 * k)
    for k in range(8)
)
MASKED = (
    Satellite(sat_id="M01", azimuth_deg=60.0, elevation_deg=25.0),
    Satellite(sat_id="M02", azimuth_deg=90.0, elevation_deg=30.0),
)


def _config(**kw) -> ScenarioConfig:
    base = dict(
        seed=5,
        duration_s=2.0,
        rate_hz=10.0,
        constellation=OPEN_SKY,
        fix_model=FixModel(antenna_bias=(20.0,) * 6, baseline_bias=20.0),
    )
    base.update(kw)
    return ScenarioConfig(**base)


# -- scenario building blocks -------------------------------------------------


def test_satellite_and_sector_validation() -> None:
    with pytest.raises(ValidationError):
        Satellite(sat_id="", azimuth_deg=0.0, elevation_deg=45.0)
    with pytest.raises(ValidationError):
        Satellite(sat_id="G01", azimuth_deg=360.0, elevation_deg=45.0)
    with pytest.raises(ValidationError):
        Satellite(sat_id="G01", azimuth_deg=0.0, elevation_deg=0.0)
    with pytest.raises(ValidationError):
        SkyMaskSector(az_start_deg=0.0, az_end_deg=120.0, mask_elevation_deg=0.0)


def test_sky_mask_wraparound_sector() -> None:
    sector = SkyMaskSector(az_start_deg=300.0, az_end_deg=30.0, mask_elevation_deg=40.0)
    assert sector.contains(350.0, 20.0)
    assert sector.contains(10.0, 20.0)
    assert not sector.contains(100.0, 20.0)
    assert not sector.contains(350.0, 45.0)


def test_multipath_satellite_ids_respects_mask() -> None:
    cfg = _config(
        constellation=OPEN_SKY + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=0.0, az_end_deg=120.0, mask_elevation_deg=40.0),),
    )
    mp = multipath_satellite_ids(cfg)
    # G00 (az 0, el 30) and G01 (az 45, el 37) both sit under the mask
    assert mp == frozenset({"M01", "M02", "G00", "G01"})


def test_scenario_validation() -> None:
    with pytest.raises(ValidationError):
        _config(constellation=())
    with pytest.raises(ValidationError):
        _config(constellation=(OPEN_SKY[0], OPEN_SKY[0]))
    with pytest.raises(ValidationError):
        _config(fix_model=FixModel(antenna_bias=(1.0, 2.0)))
    with pytest.raises(ValidationError):
        _config(seed=-1)


def test_n_epochs_rounds_duration() -> None:
    assert _config(duration_s=2.0, rate_hz=10.0).n_epochs == 20
    assert _config(duration_s=0.94, rate_hz=10.0).n_epochs == 9


# -- trajectory and attitude ---------------------------------------------------


def test_static_trajectory_holds_position() -> None:
    cfg = _config(trajectory=Trajectory(TrajectoryKind.STATIC, waypoints=(Vec3(1.0, 2.0, 3.0),)))
    for t in (0.0, 5.0, 100.0):
        assert trajectory_position(cfg, t) == Vec3(1.0, 2.0, 3.0)
    # no waypoints: origin
    assert trajectory_position(_config(), 3.0) == Vec3(0.0, 0.0, 0.0)
    held = trajectory_position(cfg, np.array([0.0, 5.0, 100.0]))
    assert np.array_equal(held, np.tile([1.0, 2.0, 3.0], (3, 1)))


def test_waypoint_trajectory_constant_speed_polyline() -> None:
    traj = Trajectory(
        TrajectoryKind.WAYPOINT,
        waypoints=(Vec3(0.0, 0.0, 30.0), Vec3(10.0, 0.0, 30.0), Vec3(10.0, 5.0, 30.0)),
        speed_mps=2.0,
    )
    cfg = _config(trajectory=traj)
    assert trajectory_position(cfg, 0.0) == Vec3(0.0, 0.0, 30.0)
    assert np.allclose(trajectory_position(cfg, 2.5).as_array(), [5.0, 0.0, 30.0])
    # first segment is 10 m (5 s); 1 s into the second leg
    assert np.allclose(trajectory_position(cfg, 6.0).as_array(), [10.0, 2.0, 30.0])
    # hovers at the final waypoint once the polyline is exhausted
    assert np.allclose(trajectory_position(cfg, 60.0).as_array(), [10.0, 5.0, 30.0])
    # an array of times gives one row per time, equal to the scalar calls
    ts = np.array([0.0, 2.5, 5.0, 6.0, 7.5, 60.0])
    rows = trajectory_position(cfg, ts)
    assert rows.shape == (len(ts), 3)
    for t, row in zip(ts, rows):
        assert np.array_equal(row, trajectory_position(cfg, float(t)).as_array())


def test_waypoint_trajectory_validation() -> None:
    with pytest.raises(ValidationError):
        Trajectory(TrajectoryKind.WAYPOINT, waypoints=(Vec3(0.0, 0.0, 0.0),), speed_mps=1.0)
    with pytest.raises(ValidationError):
        Trajectory(
            TrajectoryKind.WAYPOINT,
            waypoints=(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),
            speed_mps=0.0,
        )


def test_attitude_profile_interpolates_and_holds() -> None:
    prof = AttitudeProfile(yaw_knots=((0.0, 0.0), (10.0, 90.0)))
    assert prof.angles_at(0.0) == (0.0, 0.0, 0.0)
    assert prof.angles_at(5.0) == (0.0, 0.0, 45.0)
    assert prof.angles_at(20.0) == (0.0, 0.0, 90.0)
    with pytest.raises(ValidationError):
        AttitudeProfile(roll_knots=((5.0, 0.0), (1.0, 1.0)))


def test_truth_pose_combines_position_and_attitude() -> None:
    cfg = _config(attitude_profile=AttitudeProfile(yaw_knots=((0.0, 30.0),)))
    poses = truth_poses(cfg, np.array([0.5, 1.0]))
    assert poses.t.tolist() == [0.5, 1.0]
    for k, t in enumerate((0.5, 1.0)):
        assert Vec3.from_array(poses.p[k]) == trajectory_position(cfg, t)
        assert np.array_equal(poses.q[k], truth_attitude(cfg, t).as_array())
    assert poses.n_fix.tolist() == [cfg.layout.antenna_count] * 2
    with pytest.raises(ValidationError, match="strictly increasing"):
        truth_poses(cfg, np.array([1.0, 0.5]))


def test_block_attitudes_have_the_bits_of_euler_to_quat() -> None:
    # truth_attitude on an array of times normalises the stacked libm
    # products once (unit_quats); euler_to_quat normalises each alone
    # (UnitQuaternion.from_array). Random angles over two turns give leads
    # of both signs.
    rng = np.random.default_rng(11)
    angles = rng.uniform(-720.0, 720.0, size=(4000, 3)).tolist()
    angles += [[0.0, 0.0, 360.0], [180.0, 0.0, 0.0], [0.0, 180.0, 360.0], [90.0, 90.0, -90.0]]
    products = np.array([euler_products(*a) for a in angles])
    assert (products[:, 3] < 0.0).any() and (products[:, 3] > 0.0).any()
    want = np.array([euler_to_quat(*a).as_array() for a in angles])
    assert np.array_equal(unit_quats(products).view(np.int64), want.view(np.int64))
    # the sign rule where qw is zero: the first nonzero of qx, qy, qz leads
    raw = np.array([[0.0, -0.6, 0.8, 0.0], [-0.0, 0.0, -2.0, 0.0], [-3.0, 4.0, 0.0, -0.0],
                    [0.0, 0.0, 0.5, 0.0], [0.3, -0.4, 1e-9, 0.0], [-1e-300, 1.0, 1.0, 0.0]])
    want = np.array([UnitQuaternion.from_array(q).as_array() for q in raw])
    assert np.array_equal(unit_quats(raw).view(np.int64), want.view(np.int64))
    # and through the simulator, on a profile of two turns in each axis
    cfg = _config(attitude_profile=AttitudeProfile(
        roll_knots=((0.0, -370.0), (20.0, 370.0)), pitch_knots=((0.0, 400.0), (20.0, -400.0)),
        yaw_knots=((0.0, 10.0), (20.0, 735.0))))
    times = np.linspace(0.0, 20.0, 2001)
    want = np.array([truth_attitude(cfg, t).as_array() for t in times.tolist()])
    assert np.array_equal(truth_attitude(cfg, times).view(np.int64), want.view(np.int64))
    assert truth_attitude(cfg, times[:0]).shape == (0, 4)


# -- epoch stream ---------------------------------------------------------------


def _fixed_ids(fixes: Fixes) -> set[int]:
    return set(fixes.ids[fixes.fixed].tolist())


def _assert_same_fixes(a: Fixes, b: Fixes) -> None:
    """Same antennas, statuses and positions, bitwise."""
    assert np.array_equal(a.ids, b.ids) and np.array_equal(a.grade, b.grade)
    assert np.array_equal(a.p, b.p, equal_nan=True)


def test_stream_is_deterministic() -> None:
    cfg = _config(fix_model=FixModel())
    a = epochs_of(simulate(cfg))
    b = epochs_of(simulate(cfg))
    assert len(a) == len(b) == cfg.n_epochs
    for ea, eb in zip(a, b):
        assert ea.t.tolist() == eb.t.tolist()
        _assert_same_fixes(ea.fixes, eb.fixes)
        assert np.array_equal(ea.baselines.pairs, eb.baselines.pairs)
        assert np.array_equal(ea.baselines.v, eb.baselines.v)
        assert ea.snr.sat_ids == eb.snr.sat_ids
        assert np.array_equal(ea.snr.dbhz, eb.snr.dbhz, equal_nan=True)


def test_different_seeds_differ() -> None:
    cfg_a = _config(fix_model=FixModel(), seed=1)
    cfg_b = _config(fix_model=FixModel(), seed=2)
    a = next(iter(simulate(cfg_a))).epoch(0)
    b = next(iter(simulate(cfg_b))).epoch(0)
    assert not np.array_equal(a.fixes.grade, b.fixes.grade) or not np.array_equal(
        a.fixes.p, b.fixes.p, equal_nan=True
    )


def test_open_sky_high_bias_all_fixed() -> None:
    cfg = _config(noise=NoiseModel(wrong_fix_prob=0.0))
    for epoch in epochs_of(simulate(cfg)):
        assert epoch.fixes.fixed.all()
        assert len(epoch.baselines) == 15
        assert epoch.baselines.fixed.all()
        assert epoch.truth[0].multipath_sats == frozenset()


def test_zero_noise_measurements_match_truth() -> None:
    yaw = AttitudeProfile(yaw_knots=((0.0, 0.0), (2.0, 40.0)))
    cfg = _config(
        noise=NoiseModel(sigma_fixed_m=0.0, wrong_fix_prob=0.0),
        attitude_profile=yaw,
        trajectory=Trajectory(
            TrajectoryKind.WAYPOINT,
            waypoints=(Vec3(0.0, 0.0, 30.0), Vec3(20.0, 0.0, 30.0)),
            speed_mps=3.0,
        ),
    )
    layout = cfg.layout
    for epoch in epochs_of(simulate(cfg)):
        q = truth_attitude(cfg, epoch.t[0].item())
        p = trajectory_position(cfg, epoch.t[0].item())
        for ant, p_ant in zip(epoch.fixes.ids.tolist(), epoch.fixes.p):
            want = p + rotate(q, layout.position_of(ant))
            assert np.allclose(p_ant, want.as_array(), atol=1e-9)
        for o in epoch.baselines:
            want = rotate(q, o.w)
            assert np.allclose(o.v.as_array(), want.as_array(), atol=1e-9)
        assert np.array_equal(epoch.truth[0].position, p.as_array())
        assert quat_angle(UnitQuaternion(*epoch.truth[0].attitude), q) == 0.0


def test_wrong_fix_labels_are_honest() -> None:
    cfg = _config(
        duration_s=60.0,
        noise=NoiseModel(sigma_fixed_m=0.0, wrong_fix_prob=0.3),
    )
    layout = cfg.layout
    saw_wrong = False
    for epoch in epochs_of(simulate(cfg)):
        q = truth_attitude(cfg, epoch.t[0].item())
        p = trajectory_position(cfg, epoch.t[0].item())
        fixes = epoch.fixes
        assert epoch.truth[0].wrong_fix_antennas <= _fixed_ids(fixes)
        fixed_pairs = {o.antenna_pair for o in epoch.baselines if o.fixed}
        assert epoch.truth[0].corrupted_baselines <= fixed_pairs
        for ant, p_ant in zip(fixes.ids[fixes.fixed].tolist(), fixes.p[fixes.fixed]):
            err = np.linalg.norm(p_ant - (p + rotate(q, layout.position_of(ant))).as_array())
            if ant in epoch.truth[0].wrong_fix_antennas:
                saw_wrong = True
                assert err >= 0.19 - 1e-9  # at least one lattice step
            else:
                assert err <= 1e-9
    assert saw_wrong


def test_wrong_fix_offsets_live_on_the_ambiguity_lattice() -> None:
    cfg = _config(duration_s=30.0, noise=NoiseModel(sigma_fixed_m=0.0, wrong_fix_prob=0.5))
    layout = cfg.layout
    offsets = []
    for epoch in epochs_of(simulate(cfg)):
        q = truth_attitude(cfg, epoch.t[0].item())
        p = trajectory_position(cfg, epoch.t[0].item())
        fixes = epoch.fixes
        for ant, p_ant in zip(fixes.ids[fixes.fixed].tolist(), fixes.p[fixes.fixed]):
            if ant in epoch.truth[0].wrong_fix_antennas:
                err = p_ant - (p + rotate(q, layout.position_of(ant))).as_array()
                offsets.append(err / 0.19)
    assert offsets
    arr = np.array(offsets)
    assert np.allclose(arr, np.round(arr), atol=1e-9)  # integer lattice coordinates
    assert np.all(np.abs(arr) <= 2 + 1e-9)  # default max multiple
    assert np.all(np.linalg.norm(arr, axis=1) > 0.5)  # never the zero vector


def test_snr_rows_separate_clean_from_multipath() -> None:
    cfg = _config(
        duration_s=30.0,
        constellation=OPEN_SKY + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=50.0, az_end_deg=100.0, mask_elevation_deg=40.0),),
        noise=NoiseModel(snr=SnrModel(fading_amplitude_db=8.0, thermal_jitter_db=0.2)),
    )
    snr_model = cfg.noise.snr
    by_sat: dict[str, list[float]] = {}
    for epoch in epochs_of(simulate(cfg)):
        snr = epoch.snr
        for sat, sat_id, row in zip(cfg.constellation, snr.sat_ids, snr.dbhz.tolist()):
            assert sat_id == sat.sat_id
            nominal = snr_model.nominal(sat.elevation_deg)
            for v in row:
                by_sat.setdefault(sat.sat_id, []).append(v - nominal)
    mp = multipath_satellite_ids(cfg)
    assert mp == frozenset({"M01", "M02"})
    for sat_id, devs in by_sat.items():
        if sat_id in mp:
            assert max(np.abs(devs)) > 5.0  # fading swings well past jitter
        else:
            assert max(np.abs(devs)) < 1.5  # jitter only


def test_requery_with_no_exclusions_reproduces_epoch() -> None:
    cfg = _config(duration_s=5.0, fix_model=FixModel())
    for epoch in epochs_of(simulate(cfg)):
        fixes, obs = requery_epoch(epoch, frozenset())
        _assert_same_fixes(fixes, epoch.fixes)
        assert np.array_equal(obs.pairs, epoch.baselines.pairs)
        assert np.array_equal(obs.fixed, epoch.baselines.fixed)
        assert np.array_equal(obs.v, epoch.baselines.v)


def test_requery_excluding_multipath_promotes_monotonically() -> None:
    cfg = _config(
        duration_s=30.0,
        constellation=OPEN_SKY + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=50.0, az_end_deg=100.0, mask_elevation_deg=40.0),),
        fix_model=FixModel(),
    )
    mp = multipath_satellite_ids(cfg)
    promoted = 0
    for epoch in epochs_of(simulate(cfg)):
        before_fixed = _fixed_ids(epoch.fixes)
        fixes, obs = requery_epoch(epoch, mp)
        after_fixed = _fixed_ids(fixes)
        assert before_fixed <= after_fixed
        before_pairs = {o.antenna_pair for o in epoch.baselines if o.fixed}
        after_pairs = {o.antenna_pair for o in obs if o.fixed}
        assert before_pairs <= after_pairs
        promoted += len(after_fixed) - len(before_fixed)
        # solution satellite count drops by the exclusions
        assert (fixes.sats_used == len(cfg.constellation) - len(mp)).all()
    assert promoted > 0


def test_requery_excluding_clean_satellites_demotes() -> None:
    cfg = _config(duration_s=20.0, fix_model=FixModel())
    removed = frozenset({"G00", "G01", "G02", "G03"})
    demoted = 0
    for epoch in epochs_of(simulate(cfg)):
        before = _fixed_ids(epoch.fixes)
        fixes, _ = requery_epoch(epoch, removed)
        after = _fixed_ids(fixes)
        assert after <= before
        demoted += len(before) - len(after)
    assert demoted > 0


def test_requery_requires_truth_channel() -> None:
    cfg = _config(duration_s=0.5)
    epoch = next(iter(simulate(cfg))).epoch(0)
    stripped = edited(epoch, truth=None, requery=None)
    with pytest.raises(ValidationError):
        requery_epoch(stripped, frozenset())


def test_target_fix_probs_calibrate_exactly() -> None:
    targets = (0.625, 0.172, 0.555, 0.302, 0.682, 0.493)
    cfg = _config(
        duration_s=0.5,
        fix_model=FixModel(target_fix_probs=targets, baseline_target_fix_prob=0.995),
    )
    epoch = next(iter(simulate(cfg))).epoch(0)
    model = epoch.requery.model
    n = len(cfg.constellation)
    for bias, want in zip(model.antenna_bias, targets):
        assert model.probability(n, 0, bias) == pytest.approx(want, abs=1e-12)
    assert model.probability(n, 0, model.baseline_bias) == pytest.approx(0.995, abs=1e-12)


# -- scanner ---------------------------------------------------------------------


def _flight_config(**kw) -> ScenarioConfig:
    base = dict(
        trajectory=Trajectory(
            TrajectoryKind.WAYPOINT,
            waypoints=(Vec3(-10.0, 0.0, 30.0), Vec3(10.0, 0.0, 30.0)),
            speed_mps=4.0,
        ),
        duration_s=5.0,
    )
    base.update(kw)
    return _config(**base)


def test_scan_requires_waypoint_trajectory() -> None:
    cfg = _config()
    with pytest.raises(ConfigurationError):
        next(iter(scan_stream(cfg, ScannerModel())))


def test_scan_stream_deterministic_and_framed() -> None:
    cfg = _flight_config()
    scanner = ScannerModel(spin_hz=10.0, pulses_per_rev=120)
    a = list(scan_stream(cfg, scanner))
    b = list(scan_stream(cfg, scanner))
    assert len(a) == int(round(cfg.duration_s * scanner.spin_hz))
    for fa, fb in zip(a, b):
        assert fa.t == fb.t
        assert fa.pulses.shape == (len(fa.reflector), 4)
        assert np.array_equal(fa.pulses, fb.pulses)
        assert np.array_equal(fa.reflector, fb.reflector)
        # pulse times lie within the frame's revolution
        assert np.all((fa.pulses[:, 0] >= fa.t) & (fa.pulses[:, 0] < fa.t + 0.1))


def test_near_nadir_beam_measures_altitude() -> None:
    cfg = _flight_config()
    scanner = ScannerModel(
        spin_hz=10.0, pulses_per_rev=8, cone_deg=1e-6, range_noise_m=0.0
    )
    for frame in scan_stream(cfg, scanner):
        # beam points straight down from 30 m altitude
        assert np.allclose(frame.pulses[:, 3], -30.0, atol=1e-6)
        assert np.all(np.hypot(frame.pulses[:, 1], frame.pulses[:, 2]) < 1e-4)


def test_scan_points_reconstruct_ground_plane() -> None:
    # constant attitude, zero range noise: mapping each pulse through the
    # truth pose at its own timestamp must land exactly on U = 0
    cfg = _flight_config(attitude_profile=AttitudeProfile(yaw_knots=((0.0, 25.0),)))
    scanner = ScannerModel(spin_hz=7.0, pulses_per_rev=64, cone_deg=20.0, range_noise_m=0.0)
    q = truth_attitude(cfg, 0.0)
    r_eb = quat_to_matrix(q)
    count = 0
    for frame in scan_stream(cfg, scanner):
        p_plat = trajectory_position(cfg, frame.pulses[:, 0])
        world = p_plat + frame.pulses[:, 1:] @ r_eb.T
        assert np.all(np.abs(world[:, 2]) < 1e-9)
        count += len(frame.pulses)
    assert count > 100


def test_scan_reflector_flags_match_geometry() -> None:
    refl = (Reflector(position=Vec3(0.0, 7.0, 0.0), radius_m=2.0),)
    cfg = _flight_config(reflectors=refl)
    scanner = ScannerModel(spin_hz=5.0, pulses_per_rev=256, cone_deg=20.0, range_noise_m=0.0)
    hits = 0
    for frame in scan_stream(cfg, scanner):
        for (t, x, y, z), flag in zip(frame.pulses.tolist(), frame.reflector.tolist()):
            p_plat = trajectory_position(cfg, t).as_array()
            world = p_plat + np.array([x, y, z])  # identity attitude
            on_disc = math.hypot(world[0] - 0.0, world[1] - 7.0) <= 2.0
            assert flag == on_disc
            hits += int(flag)
    assert hits > 10


def test_scan_max_range_cuts_off_returns() -> None:
    cfg = _flight_config()
    scanner = ScannerModel(spin_hz=5.0, pulses_per_rev=64, max_range_m=20.0)
    frames = list(scan_stream(cfg, scanner))
    # altitude 30 m: even the nadir-most return is beyond 20 m range
    assert frames and all(f.pulses.shape == (0, 4) for f in frames)
    assert all(f.reflector.shape == (0,) for f in frames)


def test_scan_seed_independent_of_epoch_draws() -> None:
    # scanning must not perturb the GNSS stream
    cfg = _flight_config()
    a = epochs_of(simulate(cfg))
    list(scan_stream(cfg, ScannerModel(pulses_per_rev=32)))
    b = epochs_of(simulate(cfg))
    for ea, eb in zip(a, b):
        _assert_same_fixes(ea.fixes, eb.fixes)


# -- pose corruption ----------------------------------------------------------


def _truth_poses(n: int = 2000, dt: float = 0.1) -> Poses:
    return Poses.checked(
        np.arange(n) * dt,
        np.tile([0.0, 0.0, 30.0], (n, 1)),
        np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)),
        np.full(n, 6),
    )


def test_corrupt_poses_zero_sigma_is_identity() -> None:
    poses = _truth_poses(50)
    out = corrupt_poses(poses, 0.0, 0.0, 8.0, seed=3)
    assert np.array_equal(out.t, poses.t)
    assert np.array_equal(out.p, poses.p)
    assert np.array_equal(out.q, poses.q)
    assert np.array_equal(out.n_fix, poses.n_fix)


def test_corrupt_poses_deterministic() -> None:
    poses = _truth_poses(100)
    a = corrupt_poses(poses, 0.01, 0.07, 8.0, seed=9)
    b = corrupt_poses(poses, 0.01, 0.07, 8.0, seed=9)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.q, b.q)


def test_corrupt_poses_stationary_magnitude() -> None:
    # tiny correlation time: errors are nearly white, so the sample SD over
    # a long stream must track the requested sigma closely
    poses = _truth_poses(4000)
    out = corrupt_poses(poses, 0.02, 0.2, 0.01, seed=11)
    sd = (out.p - poses.p).std(axis=0)
    assert np.all(np.abs(sd - 0.02) < 0.002)
    angles = np.array([
        math.degrees(quat_angle(UnitQuaternion(*a), UnitQuaternion(*b)))
        for a, b in zip(out.q.tolist(), poses.q.tolist())
    ])
    # total small-rotation angle for 3 iid axis errors of SD 0.2 deg
    want_rms = 0.2 * math.sqrt(3.0)
    assert abs(math.sqrt(np.mean(angles**2)) - want_rms) < 0.05 * want_rms


def test_corrupt_poses_correlated_over_tau() -> None:
    poses = _truth_poses(2000)
    out = corrupt_poses(poses, 0.01, 0.0, 20.0, seed=13)
    de = out.p[:, 0] - poses.p[:, 0]
    # lag-1 (0.1 s) autocorrelation of a tau=20 s process is ~exp(-0.005)
    r1 = float(np.corrcoef(de[:-1], de[1:])[0, 1])
    assert r1 > 0.98


def test_corrupt_poses_validation() -> None:
    poses = _truth_poses(5)
    with pytest.raises(ValidationError):
        corrupt_poses(poses, -0.01, 0.0, 8.0, seed=0)
    with pytest.raises(ValidationError):
        corrupt_poses(poses, 0.0, -0.1, 8.0, seed=0)
    with pytest.raises(ValidationError):
        corrupt_poses(poses, 0.0, 0.0, 0.0, seed=0)


def test_corrupt_poses_rejects_decreasing_times() -> None:
    # an unchecked record with time running backwards would make the
    # Gauss-Markov step's decay factor exceed 1
    poses = _truth_poses(5)
    backwards = Poses(poses.t[::-1].copy(), poses.p, poses.q, poses.n_fix)
    with pytest.raises(ValidationError, match="pose times must be finite and strictly increasing"):
        corrupt_poses(backwards, 0.01, 0.07, 8.0, seed=0)


def test_corrupt_poses_keeps_missing_rows_missing() -> None:
    poses = _truth_poses(4)
    p, q = poses.p.copy(), poses.q.copy()
    p[1], q[2] = math.nan, math.nan
    out = corrupt_poses(Poses.checked(poses.t, p, q, poses.n_fix), 0.01, 0.07, 8.0, seed=0)
    assert np.isnan(out.p[1]).all() and np.isnan(out.q[2]).all()
    assert np.isfinite(np.delete(out.p, 1, axis=0)).all()
    assert np.isfinite(np.delete(out.q, 2, axis=0)).all()
