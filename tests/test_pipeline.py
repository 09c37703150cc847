from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mgp import (
    AttitudeProfile,
    Baselines,
    ConfigurationError,
    EpochRecord,
    FixModel,
    Fixes,
    FixSolution,
    FixStatus,
    InputError,
    MultipathConfig,
    NoiseModel,
    PipelineConfig,
    RansacParams,
    Satellite,
    ScenarioConfig,
    SkyMaskSector,
    SnrModel,
    SnrRow,
    SnrTable,
    ValidationError,
    Vec3,
    VectorObservation,
    hexagon_layout,
    load_pipeline_config,
    pipeline_config_from_dict,
    process_epoch,
    quat_angle,
    read_epochs,
    rotate,
    run,
    simulate,
    truth_attitude,
    write_epochs,
)

SATS = tuple(
    Satellite(sat_id=f"G{k:02d}", azimuth_deg=40.0 * k, elevation_deg=25.0 + 8.0 * k)
    for k in range(8)
)
MASKED = (
    Satellite(sat_id="M01", azimuth_deg=60.0, elevation_deg=25.0),
    Satellite(sat_id="M02", azimuth_deg=90.0, elevation_deg=30.0),
)


def _scenario(**kw) -> ScenarioConfig:
    base = dict(
        seed=33,
        duration_s=3.0,
        rate_hz=10.0,
        constellation=SATS,
        fix_model=FixModel(antenna_bias=(20.0,) * 6, baseline_bias=20.0),
        noise=NoiseModel(wrong_fix_prob=0.0),
    )
    base.update(kw)
    return ScenarioConfig(**base)


# -- configuration ---------------------------------------------------------------


def test_pipeline_config_validation() -> None:
    with pytest.raises(ValidationError):
        PipelineConfig(antenna_subset=())
    with pytest.raises(ValidationError):
        PipelineConfig(antenna_subset=(1, 1))
    with pytest.raises(ConfigurationError):
        PipelineConfig(antenna_subset=(0,))
    with pytest.raises(ConfigurationError):
        PipelineConfig(antenna_subset=(7,))


def test_antenna_subset_is_sorted_and_active() -> None:
    cfg = PipelineConfig(antenna_subset=(5, 1, 3))
    assert cfg.antenna_subset == (1, 3, 5)
    assert cfg.active_antennas == (1, 3, 5)
    assert PipelineConfig().active_antennas == (1, 2, 3, 4, 5, 6)


def test_pipeline_config_from_dict() -> None:
    cfg = pipeline_config_from_dict(
        {
            "ransac": {"inlier_threshold_m": 0.04, "min_inliers": 3},
            "multipath": {"threshold_dbhz": 3.5, "min_count": 5},
            "multipath_feedback": False,
            "antenna_subset": [2, 4, 6],
        }
    )
    assert cfg.ransac.inlier_threshold_m == 0.04
    assert cfg.ransac.min_inliers == 3
    assert cfg.multipath.threshold_dbhz == 3.5
    assert cfg.multipath.min_count == 5
    assert not cfg.multipath_feedback
    assert cfg.antenna_subset == (2, 4, 6)


def test_pipeline_config_rejects_unknown_keys() -> None:
    with pytest.raises(ConfigurationError):
        pipeline_config_from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError):
        pipeline_config_from_dict({"ransac": {"iterations": 10}})
    # options of the former sampled search are unknown keys, not ignored
    for stale in ("max_iterations", "seed", "min_sample"):
        with pytest.raises(ConfigurationError, match=stale):
            pipeline_config_from_dict({"ransac": {stale: 2}})
    with pytest.raises(ConfigurationError):
        pipeline_config_from_dict({"multipath": {"threshold": 4.0}})


@pytest.mark.parametrize(
    "config, key",
    [
        ({"multipath_feedback": "no"}, "multipath_feedback must be a boolean"),
        ({"antenna_subset": [1.9, 3, 5]}, "antenna_subset must be integers"),
        ({"ransac": {"min_inliers": 4.9}}, "ransac.min_inliers must be an integer"),
        ({"ransac": {"inlier_threshold_m": "0.05"}}, "ransac.inlier_threshold_m must be a number"),
        ({"multipath": {"min_count": "3"}}, "multipath.min_count must be an integer"),
        ({"multipath": {"threshold_dbhz": math.inf}}, "multipath.threshold_dbhz must be finite"),
    ],
    ids=["feedback-string", "subset-float", "min-inliers-float", "threshold-string",
         "min-count-string", "threshold-infinity"],
)
def test_pipeline_config_rejects_mistyped_values(tmp_path, config, key: str) -> None:
    """A value of the wrong JSON type is an error naming the file and the
    key, never a value to coerce."""
    with pytest.raises(ConfigurationError, match=f"^pipeline config: {key}"):
        pipeline_config_from_dict(config)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigurationError, match=f"^{path}: pipeline config: {key}"):
        load_pipeline_config(str(path))


def test_pipeline_config_rejects_booleans_as_counts() -> None:
    for config in ({"ransac": {"min_inliers": True}}, {"antenna_subset": [True, 3]}):
        with pytest.raises(ConfigurationError, match="integer"):
            pipeline_config_from_dict(config)


def test_load_pipeline_config(tmp_path) -> None:
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"ransac": {"min_inliers": 3}}))
    assert load_pipeline_config(str(path)).ransac.min_inliers == 3


def test_attitude_min_baselines_is_an_unknown_key(tmp_path) -> None:
    # consensus's effective min_inliers is the only gate on fixed baselines
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"attitude_min_baselines": 2}))
    with pytest.raises(ConfigurationError, match="unknown key attitude_min_baselines"):
        load_pipeline_config(str(path))


# -- per-epoch processing -----------------------------------------------------------


def test_clean_epoch_full_solution() -> None:
    cfg = _scenario()
    epoch = next(iter(simulate(cfg)))
    result = process_epoch(epoch, PipelineConfig())
    assert result.attitude.available
    assert result.position.available
    assert result.position.n_used == 6
    assert result.multipath.excluded_sats == frozenset()
    assert quat_angle(result.attitude.q, epoch.truth.attitude) < math.radians(0.5)
    err = (result.position.p - epoch.truth.position).norm()
    assert err < 0.01


def test_epoch_without_fixed_baselines_has_no_attitude() -> None:
    layout = hexagon_layout(0.9)
    fixes = tuple(
        FixSolution(antenna_id=a, status=FixStatus.FLOAT, p=Vec3(0.0, 0.0, 0.0), sats_used=8)
        for a in range(1, 7)
    )
    baselines = tuple(
        VectorObservation(
            v=layout.baseline(1, j), w=layout.baseline(1, j), antenna_pair=(1, j), fixed=False
        )
        for j in range(2, 7)
    )
    epoch = EpochRecord(
        t=0.0, fixes=Fixes.of(fixes), baselines=Baselines.of(baselines), snr_rows=SnrTable.of(())
    )
    result = process_epoch(epoch, PipelineConfig())
    assert not result.attitude.available
    assert not result.position.available  # float-only antennas never contribute


def test_fixed_antenna_without_attitude_cannot_remove_lever() -> None:
    # one fixed antenna but no fixed baselines: hexagon levers are nonzero,
    # so the position stays unavailable rather than silently lever-biased
    fixes = (FixSolution(antenna_id=1, status=FixStatus.FIXED, p=Vec3(0.9, 0.0, 30.0), sats_used=8),)
    epoch = EpochRecord(
        t=0.0, fixes=Fixes.of(fixes), baselines=Baselines.of(()), snr_rows=SnrTable.of(())
    )
    result = process_epoch(epoch, PipelineConfig())
    assert not result.attitude.available
    assert not result.position.available


def test_subset_restricts_everything() -> None:
    cfg = _scenario()
    epoch = next(iter(simulate(cfg)))
    pipe = PipelineConfig(antenna_subset=(1, 3, 5))
    result = process_epoch(epoch, pipe)
    assert {f.antenna_id for f in result.fixes_used} <= {1, 3, 5}
    assert result.position.contributing_antennas <= {1, 3, 5}
    for pair in result.attitude.used_observations:
        assert set(pair) <= {1, 3, 5}
    # SNR rows keep only the selected antenna columns
    for assess in result.multipath.per_satellite.values():
        assert assess.n_antennas <= 3


def test_subset_attitude_from_three_antennas_still_solves() -> None:
    cfg = _scenario()
    epoch = next(iter(simulate(cfg)))
    result = process_epoch(epoch, PipelineConfig(antenna_subset=(1, 3, 5)))
    assert result.attitude.available
    assert quat_angle(result.attitude.q, epoch.truth.attitude) < math.radians(1.0)


def test_multipath_feedback_requeries_fixes() -> None:
    cfg = _scenario(
        duration_s=20.0,
        constellation=SATS + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=50.0, az_end_deg=100.0, mask_elevation_deg=40.0),),
        noise=NoiseModel(snr=SnrModel(fading_amplitude_db=8.0)),
        fix_model=FixModel(),
    )
    with_fb = PipelineConfig()
    without_fb = PipelineConfig(multipath_feedback=False)
    gained = 0
    for epoch in simulate(cfg):
        r_on = process_epoch(epoch, with_fb)
        r_off = process_epoch(epoch, without_fb)
        on_fixed = {f.antenna_id for f in r_on.fixes_used if f.status is FixStatus.FIXED}
        off_fixed = {f.antenna_id for f in r_off.fixes_used if f.status is FixStatus.FIXED}
        assert off_fixed <= on_fixed  # requery only promotes
        gained += len(on_fixed) - len(off_fixed)
    assert gained > 0


# -- stream metrics -------------------------------------------------------------------


def test_run_metrics_on_clean_stream() -> None:
    cfg = _scenario(duration_s=5.0)
    result = run(iter(simulate(cfg)), PipelineConfig())
    m = result.metrics
    assert m.epochs == 50
    assert m.skipped == 0
    assert m.hybrid_fix_rate_pct == 100.0
    assert m.attitude_availability_pct == 100.0
    for rate in m.per_antenna_fix_rate_pct.values():
        assert rate == 100.0
    for sd in m.attitude_sd_deg.values():
        assert sd is not None and sd < 0.5
    for sd in m.position_sd_mm.values():
        assert sd is not None and sd < 10.0
    assert len(result.poses) == 50
    assert (result.poses.n_fix == 6).all() and not np.isnan(result.poses.q).any()


def test_hybrid_rate_never_below_best_antenna() -> None:
    cfg = _scenario(duration_s=30.0, fix_model=FixModel(), seed=77)
    m = run(iter(simulate(cfg)), PipelineConfig()).metrics
    best = max(m.per_antenna_fix_rate_pct.values())
    assert m.hybrid_fix_rate_pct >= best


def test_run_empty_stream() -> None:
    result = run(iter([]), PipelineConfig())
    m = result.metrics
    assert m.epochs == 0 and m.skipped == 0
    assert m.hybrid_fix_rate_pct is None
    assert m.attitude_availability_pct is None
    assert all(v is None for v in m.per_antenna_fix_rate_pct.values())
    assert all(v is None for v in m.attitude_sd_deg.values())
    assert m.multipath_precision is None and m.multipath_recall is None
    assert len(result.poses) == 0
    assert result.poses.p.shape == (0, 3) and result.poses.q.shape == (0, 4)


def test_run_skips_non_increasing_timestamps() -> None:
    cfg = _scenario(duration_s=1.0)
    epochs = list(simulate(cfg))
    shuffled = epochs[:5] + [epochs[2]] + epochs[5:]
    result = run(iter(shuffled), PipelineConfig())
    assert result.metrics.epochs == 10
    assert result.metrics.skipped == 1
    assert "non-increasing" in result.diagnostics[0]


def test_run_skips_epoch_level_validation_errors() -> None:
    cfg = _scenario(duration_s=1.0)
    epochs = list(simulate(cfg))
    dup = epochs[3]
    bad = EpochRecord(
        t=epochs[2].t + 0.001,
        fixes=dup.fixes,
        baselines=dup.baselines,
        snr_rows=SnrTable.of([next(iter(dup.snr_rows))] * 2),  # duplicate satellite
        truth=dup.truth,
    )
    stream = epochs[:3] + [bad] + epochs[3:]
    result = run(iter(stream), PipelineConfig())
    assert result.metrics.epochs == 10
    assert result.metrics.skipped == 1
    assert result.metrics.epochs + result.metrics.skipped == len(stream)


def test_run_skips_epoch_naming_an_antenna_outside_the_layout() -> None:
    cfg = _scenario(duration_s=1.0)
    epochs = list(simulate(cfg))
    src = epochs[4]
    stray_fix = FixSolution(
        antenna_id=9, status=FixStatus.FIXED, p=Vec3(0.0, 0.0, 30.0), sats_used=8
    )
    first = next(iter(src.baselines))
    stray_baseline = VectorObservation(v=first.v, w=first.w, antenna_pair=(1, 9))
    bad_fix = EpochRecord(
        t=src.t, fixes=Fixes.of([*src.fixes, stray_fix]), baselines=src.baselines,
        snr_rows=src.snr_rows, truth=src.truth,
    )
    bad_baseline = EpochRecord(
        t=epochs[5].t, fixes=epochs[5].fixes,
        baselines=Baselines.of([*epochs[5].baselines, stray_baseline]),
        snr_rows=epochs[5].snr_rows, truth=epochs[5].truth,
    )
    with pytest.raises(ValidationError, match="antenna 9 has no layout entry"):
        process_epoch(bad_fix, PipelineConfig())
    stream = epochs[:4] + [bad_fix, bad_baseline] + epochs[6:]
    result = run(iter(stream), PipelineConfig())
    assert result.metrics.epochs == len(stream) - 2
    assert result.metrics.skipped == 2
    assert all("antenna 9 has no layout entry" in d for d in result.diagnostics)
    # the subset filter does not hide the stray id either
    result = run(iter(stream), PipelineConfig(antenna_subset=(1, 3, 5)))
    assert result.metrics.skipped == 2


def test_run_feedback_disabled_leaves_requery_rate_none() -> None:
    cfg = _scenario(duration_s=1.0)
    m = run(iter(simulate(cfg)), PipelineConfig(multipath_feedback=False)).metrics
    assert m.hybrid_fix_rate_multipath_pct is None
    assert m.hybrid_fix_rate_pct is not None


def test_run_truthless_stream_uses_spread_about_mean() -> None:
    cfg = _scenario(duration_s=20.0, seed=99)
    epochs = list(simulate(cfg))
    stripped = [
        EpochRecord(t=e.t, fixes=e.fixes, baselines=e.baselines, snr_rows=e.snr_rows)
        for e in epochs
    ]
    with_truth = run(iter(epochs), PipelineConfig()).metrics
    without = run(iter(stripped), PipelineConfig()).metrics
    assert without.multipath_precision is None and without.multipath_recall is None
    # feedback could not run without requery records: no rate, not the raw one
    assert with_truth.hybrid_fix_rate_multipath_pct is not None
    assert without.hybrid_fix_rate_multipath_pct is None
    assert without.hybrid_fix_rate_pct == with_truth.hybrid_fix_rate_pct
    # static truth: spread about the mean approaches spread about truth
    for axis in ("e", "n", "u"):
        a = with_truth.position_sd_mm[axis]
        b = without.position_sd_mm[axis]
        assert b is not None
        assert b <= a + 1e-9  # centering at the mean can only shrink it
        assert b > 0.6 * a
    for axis in ("roll", "pitch", "yaw"):
        assert without.attitude_sd_deg[axis] is not None


def test_run_truthless_yaw_wraps_cleanly() -> None:
    # yaw dithering across the +-180 seam must not blow up the spread
    cfg = _scenario(
        duration_s=5.0,
        attitude_profile=AttitudeProfile(
            yaw_knots=((0.0, 179.5), (2.5, -179.5 + 360.0), (5.0, 179.5))
        ),
    )
    epochs = [
        EpochRecord(t=e.t, fixes=e.fixes, baselines=e.baselines, snr_rows=e.snr_rows)
        for e in simulate(cfg)
    ]
    m = run(iter(epochs), PipelineConfig()).metrics
    assert m.attitude_sd_deg["yaw"] < 2.0


def test_run_detection_precision_recall() -> None:
    cfg = _scenario(
        duration_s=60.0,
        constellation=SATS + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=50.0, az_end_deg=100.0, mask_elevation_deg=40.0),),
        noise=NoiseModel(snr=SnrModel(fading_amplitude_db=8.0)),
        fix_model=FixModel(),
    )
    m = run(iter(simulate(cfg)), PipelineConfig()).metrics
    assert m.multipath_precision is not None and m.multipath_recall is not None
    assert m.multipath_precision > 0.9
    assert m.multipath_recall > 0.5


def test_run_shared_diagnostics_list() -> None:
    diags = ["caller note"]
    cfg = _scenario(duration_s=0.5)
    result = run(iter(simulate(cfg)), PipelineConfig(), diagnostics=diags)
    # an entry already in the list is not a skip of this run
    assert result.metrics.skipped == 0
    assert result.diagnostics is diags
    assert diags == ["caller note"]


def test_run_counts_reader_skips_on_a_shared_list(tmp_path) -> None:
    cfg = _scenario(duration_s=0.5)
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), simulate(cfg))
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    diags = ["caller note"]
    epochs = read_epochs(str(path), skip_malformed=True, diagnostics=diags)
    result = run(epochs, PipelineConfig(), diagnostics=diags)
    assert (result.metrics.epochs, result.metrics.skipped) == (4, 1)
    assert diags[0] == "caller note" and diags[1].startswith(f"{path}:3: skipped epoch")


def test_run_keeps_its_diagnostics_when_the_stream_fails() -> None:
    """``run`` pulls epochs ahead in blocks; a stream that fails after some
    epochs still gets the diagnostics of those epochs, in stream order,
    before the failure propagates."""
    epochs = list(simulate(_scenario(duration_s=0.5)))
    diags = ["caller note"]

    def failing():
        yield from epochs[:3]
        diags.append("reader note")
        yield epochs[1]
        raise InputError("e.jsonl:7: bad line")

    with pytest.raises(InputError, match="bad line"):
        run(failing(), PipelineConfig(), diagnostics=diags)
    assert diags == [
        "caller note",
        "reader note",
        f"epoch 3: non-increasing timestamp {epochs[1].t!r}, skipped",
    ]


def test_metrics_json_rounding() -> None:
    cfg = _scenario(duration_s=2.0)
    m = run(iter(simulate(cfg)), PipelineConfig()).metrics
    d = m.to_json_dict()
    assert set(d["per_antenna_fix_rate_pct"].keys()) == {"1", "2", "3", "4", "5", "6"}
    assert d["hybrid_fix_rate_pct"] == round(m.hybrid_fix_rate_pct, 1)
    for axis in ("roll", "pitch", "yaw"):
        want = round(m.attitude_sd_deg[axis], 4)
        assert d["attitude_sd_deg"][axis] == want
    for axis in ("e", "n", "u"):
        assert d["position_sd_mm"][axis] == round(m.position_sd_mm[axis], 3)
    assert "precision" in d["multipath_detection"]
    json.dumps(d)  # must be serializable as-is


def test_subset_with_short_snr_rows_skips_epoch() -> None:
    # epoch hand-built with 3-antenna SNR rows; selecting antenna 6 cannot work
    fixes = (FixSolution(antenna_id=6, status=FixStatus.FIXED, p=Vec3(0.0, 0.0, 0.0), sats_used=8),)
    rows = (SnrRow(sat_id="G01", snr_dbhz=(45.0, 45.0, 45.0)),)
    epoch = EpochRecord(
        t=0.0, fixes=Fixes.of(fixes), baselines=Baselines.of(()), snr_rows=SnrTable.of(rows)
    )
    result = run(iter([epoch]), PipelineConfig(antenna_subset=(5, 6)))
    assert result.metrics.epochs == 0
    assert result.metrics.skipped == 1


@pytest.mark.parametrize("width", [3, 7])
def test_snr_row_width_must_match_layout(width: int) -> None:
    # without a subset the columns of a 3-wide row on a 6-antenna layout are
    # ambiguous, so the epoch is rejected rather than read as antennas 1-3
    rows = (SnrRow(sat_id="G01", snr_dbhz=(45.0,) * width),)
    epoch = EpochRecord(
        t=0.0, fixes=Fixes.of(()), baselines=Baselines.of(()), snr_rows=SnrTable.of(rows)
    )
    with pytest.raises(ValidationError, match=f"G01 has {width} columns"):
        process_epoch(epoch, PipelineConfig())
    result = run(iter([epoch]), PipelineConfig())
    assert result.metrics.epochs == 0
    assert result.metrics.skipped == 1
    assert "G01" in result.diagnostics[0]
