from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import mgp.pipeline
import mgp.streams
from mgp import (
    AttitudeProfile,
    ConfigurationError,
    FixModel,
    FixStatus,
    InputError,
    MultipathConfig,
    NoiseModel,
    PipelineConfig,
    Satellite,
    ScenarioConfig,
    SkyMaskSector,
    SnrModel,
    SnrTable,
    UnitQuaternion,
    ValidationError,
    Vec3,
    VectorObservation,
    bundled_scenario_path,
    detect_multipath,
    hexagon_layout,
    load_pipeline_config,
    load_scenario,
    pipeline_config_from_dict,
    process_epoch,
    quat_angle,
    read_epoch_blocks,
    run,
    simulate,
    write_epochs,
)

from conftest import baselines_of, fixes_of, snr_of
from scalar_epochs import (
    blocks_of,
    edited,
    epoch_blocks,
    epoch_from_dict,
    epochs_of,
    no_skips,
    one_epoch,
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
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ConfigurationError, match=f"^{path}: pipeline config: {key}"):
        load_pipeline_config(str(path))


def test_pipeline_config_rejects_booleans_as_counts() -> None:
    for config in ({"ransac": {"min_inliers": True}}, {"antenna_subset": [True, 3]}):
        with pytest.raises(ConfigurationError, match="integer"):
            pipeline_config_from_dict(config)


def test_load_pipeline_config(tmp_path) -> None:
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"ransac": {"min_inliers": 3}}), encoding="utf-8")
    assert load_pipeline_config(str(path)).ransac.min_inliers == 3


def test_attitude_min_baselines_is_an_unknown_key(tmp_path) -> None:
    # consensus's effective min_inliers is the only gate on fixed baselines
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"attitude_min_baselines": 2}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown key attitude_min_baselines"):
        load_pipeline_config(str(path))


# -- per-epoch processing -----------------------------------------------------------


def test_clean_epoch_full_solution() -> None:
    cfg = _scenario()
    epoch = next(iter(simulate(cfg))).epoch(0)
    result = process_epoch(epoch, PipelineConfig())
    assert result.attitude.available
    assert result.position.available
    assert result.position.n_used == 6
    assert result.multipath.excluded_sats == frozenset()
    q_true = UnitQuaternion(*epoch.truth[0].attitude)
    assert quat_angle(result.attitude.q, q_true) < math.radians(0.5)
    err = (result.position.p - Vec3(*epoch.truth[0].position)).norm()
    assert err < 0.01


def test_epoch_without_fixed_baselines_has_no_attitude() -> None:
    layout = hexagon_layout(0.9)
    fixes = fixes_of((a, FixStatus.FLOAT, Vec3(0.0, 0.0, 0.0)) for a in range(1, 7))
    baselines = baselines_of(
        VectorObservation(
            v=layout.baseline(1, j), w=layout.baseline(1, j), antenna_pair=(1, j), fixed=False
        )
        for j in range(2, 7)
    )
    epoch = one_epoch(0.0, fixes, baselines, snr_of(()))
    result = process_epoch(epoch, PipelineConfig())
    assert not result.attitude.available
    assert not result.position.available  # float-only antennas never contribute


def test_fixed_antenna_without_attitude_cannot_remove_lever() -> None:
    # one fixed antenna but no fixed baselines: hexagon levers are nonzero,
    # so the position stays unavailable rather than silently lever-biased
    fixes = fixes_of([(1, FixStatus.FIXED, Vec3(0.9, 0.0, 30.0))])
    epoch = one_epoch(0.0, fixes, baselines_of(()), snr_of(()))
    result = process_epoch(epoch, PipelineConfig())
    assert not result.attitude.available
    assert not result.position.available


def test_subset_restricts_everything() -> None:
    cfg = _scenario()
    epoch = next(iter(simulate(cfg))).epoch(0)
    pipe = PipelineConfig(antenna_subset=(1, 3, 5))
    result = process_epoch(epoch, pipe)
    assert set(result.fixes_used.ids.tolist()) <= {1, 3, 5}
    assert result.position.contributing_antennas <= {1, 3, 5}
    for pair in result.attitude.used_observations:
        assert set(pair) <= {1, 3, 5}
    # SNR rows keep only the selected antenna columns
    assert (result.multipath.n_antennas <= 3).all()


def test_subset_attitude_from_three_antennas_still_solves() -> None:
    cfg = _scenario()
    epoch = next(iter(simulate(cfg))).epoch(0)
    result = process_epoch(epoch, PipelineConfig(antenna_subset=(1, 3, 5)))
    assert result.attitude.available
    q_true = UnitQuaternion(*epoch.truth[0].attitude)
    assert quat_angle(result.attitude.q, q_true) < math.radians(1.0)


@pytest.mark.parametrize("n_epochs", [2, 32])
def test_one_epoch_entry_points_refuse_other_blocks(n_epochs: int) -> None:
    """``process_epoch`` and ``requery_epoch`` take a block of one epoch,
    and name the epoch count of any other."""
    block = next(iter(simulate(_scenario(duration_s=n_epochs / 10.0))))
    assert len(block) == n_epochs
    message = f"takes a block of one epoch, not {n_epochs}$"
    with pytest.raises(ValidationError, match=f"^process_epoch {message}"):
        process_epoch(block, PipelineConfig())
    with pytest.raises(ValidationError, match=f"^requery_epoch {message}"):
        mgp.requery_epoch(block, frozenset())


@pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "no-feedback"])
def test_run_refuses_blocks_of_another_layout(feedback: bool) -> None:
    """A run has one body frame, the config's: ``run`` and ``process_epoch``
    refuse a block whose stream layout is another, with feedback on or off,
    also when it has the config's antenna count."""
    blocks = list(simulate(_scenario(layout=hexagon_layout(0.8))))
    config = PipelineConfig(multipath_feedback=feedback)
    assert blocks[0].layout.antenna_count == config.layout.antenna_count
    message = "^the stream's antenna layout is not the pipeline config's$"
    with pytest.raises(ConfigurationError, match=message):
        run(no_skips(blocks), config)
    with pytest.raises(ConfigurationError, match=message):
        process_epoch(blocks[0].epoch(0), config)
    assert run(no_skips(blocks), replace(config, layout=hexagon_layout(0.8))).metrics.epochs == 30


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
    for epoch in epochs_of(simulate(cfg)):
        r_on = process_epoch(epoch, with_fb)
        r_off = process_epoch(epoch, without_fb)
        on_fixed = set(r_on.fixes_used.ids[r_on.fixes_used.fixed].tolist())
        off_fixed = set(r_off.fixes_used.ids[r_off.fixes_used.fixed].tolist())
        assert off_fixed <= on_fixed  # requery only promotes
        gained += len(on_fixed) - len(off_fixed)
    assert gained > 0


# -- stream metrics -------------------------------------------------------------------


def test_run_metrics_on_clean_stream() -> None:
    cfg = _scenario(duration_s=5.0)
    result = run(no_skips(simulate(cfg)), PipelineConfig())
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
    m = run(no_skips(simulate(cfg)), PipelineConfig()).metrics
    best = max(m.per_antenna_fix_rate_pct.values())
    assert m.hybrid_fix_rate_pct >= best


def test_run_empty_stream() -> None:
    result = run(epoch_blocks([]), PipelineConfig())
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
    epochs = epochs_of(simulate(cfg))
    shuffled = epochs[:5] + [epochs[2]] + epochs[5:]
    result = run(epoch_blocks(shuffled), PipelineConfig())
    assert result.metrics.epochs == 10
    assert result.metrics.skipped == 1
    assert "non-increasing" in result.diagnostics[0]


def _written(tmp_path, epochs: list[mgp.EpochBlock], edits: dict) -> tuple[Path, dict[int, dict]]:
    """The file ``write_epochs`` makes of ``epochs``, epoch k at line k + 2,
    with the line of each epoch k in ``edits`` edited as a JSON object by
    ``edits[k]``, and the edited objects by epoch."""
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    records = {}
    for k, edit in edits.items():
        records[k] = json.loads(lines[k])
        edit(records[k])
        lines[k] = json.dumps(records[k])
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    return path, records


def _skip(path: Path, k: int, reason: str) -> str:
    """The reader's message for the line of epoch k of a :func:`_written` file."""
    return f"{path}:{k + 2}: skipped epoch: {reason}"


def test_run_skips_epoch_level_validation_errors(tmp_path) -> None:
    cfg = _scenario(duration_s=1.0)
    epochs = epochs_of(simulate(cfg))
    dup = edited(epochs[3], t=epochs[2].t[0].item() + 0.001)
    stream = epochs[:3] + [dup] + epochs[3:]

    def first_satellite_twice(record: dict) -> None:
        record["snr_rows"][1:1] = record["snr_rows"][:1]

    path, records = _written(tmp_path, stream, {3: first_satellite_twice})
    reason = f"duplicate SNR row for satellite {dup.snr.sat_ids[0]}"
    with pytest.raises(ValidationError, match=f"^{reason}$"):
        epoch_from_dict(records[3])
    result = run(read_epoch_blocks(str(path)), PipelineConfig())
    assert result.metrics.epochs == 10
    assert result.metrics.skipped == 1
    assert result.metrics.epochs + result.metrics.skipped == len(stream)
    assert result.diagnostics == [_skip(path, 3, reason)]


def test_run_skips_epoch_naming_an_antenna_outside_the_layout(tmp_path) -> None:
    cfg = _scenario(duration_s=1.0)
    epochs = epochs_of(simulate(cfg))

    def stray_fix(record: dict) -> None:  # the epoch's fixes and a fixed antenna 9
        record["fixes"].append(
            {"antenna_id": 9, "status": "fixed", "p": [0.0, 0.0, 30.0], "sats_used": 8})

    def stray_baseline(record: dict) -> None:
        record["baselines"].append({**record["baselines"][0], "antenna_pair": [1, 9]})

    path, records = _written(tmp_path, epochs, {4: stray_fix, 5: stray_baseline})
    reason = "antenna 9 has no layout entry (layout has 6)"
    for k in (4, 5):
        with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
            epoch_from_dict(records[k])
    result = run(read_epoch_blocks(str(path)), PipelineConfig())
    assert result.metrics.epochs == len(epochs) - 2
    assert result.metrics.skipped == 2
    assert result.diagnostics == [_skip(path, 4, reason), _skip(path, 5, reason)]
    # the subset filter does not hide the stray id either
    result = run(read_epoch_blocks(str(path)), PipelineConfig(antenna_subset=(1, 3, 5)))
    assert result.metrics.skipped == 2


def _with_fixes(rows) -> Callable[[dict], None]:
    """An edit that gives an epoch line its fixes and then ``rows`` (id,
    status, position)."""
    def edit(record: dict) -> None:
        record["fixes"] += [{"antenna_id": i, "status": status, "p": p, "sats_used": 9}
                            for i, status, p in rows]

    return edit


@pytest.mark.parametrize("feedback", [True, False], ids=["feedback", "no-feedback"])
def test_run_skips_an_antenna_named_twice_before_the_replay(tmp_path, feedback: bool) -> None:
    """The even epochs of a multipath stream name antenna 1 as fixed twice
    more. The reader checks the rows as read, before the requery replay
    gives an epoch fresh fixes, so these epochs are skipped under feedback
    too, and the rest give the metrics and poses of the clean odd epochs
    alone."""
    cfg = replace(load_scenario(bundled_scenario_path("multipath")), duration_s=3.0)
    epochs = epochs_of(simulate(cfg))
    config = PipelineConfig(multipath_feedback=feedback)
    extra = _with_fixes([(1, "fixed", [0.9, 0.0, 0.0])] * 2)
    path, records = _written(tmp_path, epochs, dict.fromkeys(range(0, len(epochs), 2), extra))
    reason = "duplicate solution for antenna 1"
    for record in records.values():
        with pytest.raises(ValidationError, match=f"^{reason}$"):
            epoch_from_dict(record)
    got = run(read_epoch_blocks(str(path)), config)
    want = run(epoch_blocks(epochs[1::2]), config)
    assert got.diagnostics == [_skip(path, k, reason) for k in range(0, len(epochs), 2)]
    got_m, want_m = got.metrics.to_json_dict(), want.metrics.to_json_dict()
    assert (got_m.pop("skipped"), want_m.pop("skipped")) == (15, 0)
    assert got_m == want_m
    assert (want.metrics.hybrid_fix_rate_multipath_pct is not None) == feedback
    for name in ("t", "p", "q", "n_fix"):
        assert np.array_equal(getattr(got.poses, name), getattr(want.poses, name), equal_nan=True)


def test_run_skips_an_inactive_antenna_named_twice(tmp_path) -> None:
    # antenna 2 is outside the subset, which does not hide its second row
    epochs = epochs_of(simulate(_scenario(duration_s=1.0)))
    path, records = _written(tmp_path, epochs, {4: _with_fixes([(2, "float", [0.0, 0.9, 0.0])])})
    config = PipelineConfig(antenna_subset=(1, 3, 5))
    reason = "duplicate solution for antenna 2"
    with pytest.raises(ValidationError, match=f"^{reason}$"):
        epoch_from_dict(records[4])
    result = run(read_epoch_blocks(str(path)), config)
    assert (result.metrics.epochs, result.metrics.skipped) == (9, 1)
    assert result.diagnostics == [_skip(path, 4, reason)]


def test_run_skips_a_satellite_named_twice_that_the_subset_drops(tmp_path) -> None:
    # X01's two rows are tracked by antennas 2, 4 and 6 only, so antennas
    # 1, 3 and 5 leave both untracked; the epoch is still at fault
    epochs = epochs_of(simulate(_scenario(duration_s=1.0)))

    def x01_twice(record: dict) -> None:
        record["snr_rows"] += [{"sat_id": "X01", "snr": [None, 45.0] * 3}] * 2

    path, records = _written(tmp_path, epochs, {4: x01_twice})
    config = PipelineConfig(antenna_subset=(1, 3, 5))
    reason = "duplicate SNR row for satellite X01"
    with pytest.raises(ValidationError, match=f"^{reason}$"):
        epoch_from_dict(records[4])
    result = run(read_epoch_blocks(str(path)), config)
    assert (result.metrics.epochs, result.metrics.skipped) == (9, 1)
    assert result.diagnostics == [_skip(path, 4, reason)]


def test_run_feedback_disabled_leaves_requery_rate_none() -> None:
    cfg = _scenario(duration_s=1.0)
    m = run(no_skips(simulate(cfg)), PipelineConfig(multipath_feedback=False)).metrics
    assert m.hybrid_fix_rate_multipath_pct is None
    assert m.hybrid_fix_rate_pct is not None


def test_run_truthless_stream_uses_spread_about_mean() -> None:
    cfg = _scenario(duration_s=20.0, seed=99)
    epochs = epochs_of(simulate(cfg))
    stripped = [edited(e, truth=None, requery=None) for e in epochs]
    with_truth = run(epoch_blocks(epochs), PipelineConfig()).metrics
    without = run(epoch_blocks(stripped), PipelineConfig()).metrics
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
    epochs = [edited(e, truth=None, requery=None) for e in epochs_of(simulate(cfg))]
    m = run(epoch_blocks(epochs), PipelineConfig()).metrics
    assert m.attitude_sd_deg["yaw"] < 2.0


def test_run_detection_precision_recall() -> None:
    cfg = _scenario(
        duration_s=60.0,
        constellation=SATS + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=50.0, az_end_deg=100.0, mask_elevation_deg=40.0),),
        noise=NoiseModel(snr=SnrModel(fading_amplitude_db=8.0)),
        fix_model=FixModel(),
    )
    m = run(no_skips(simulate(cfg)), PipelineConfig()).metrics
    assert m.multipath_precision is not None and m.multipath_recall is not None
    assert m.multipath_precision > 0.9
    assert m.multipath_recall > 0.5


def _detection_epochs() -> list[mgp.EpochBlock]:
    """The masked scenario's epochs, edited so that a block of 32 holds
    epochs with truth and without (every third from the second); every
    third from the third lists G03 and X99, which no row names, as its
    multipath satellites with M01 but not M02; every fourth has M01
    tracked by antennas 2, 4 and 6 only, so the subset 1, 3, 5 drops it;
    and the last block's epochs have no SNR rows, so none is scored."""
    cfg = _scenario(
        duration_s=12.0,
        constellation=SATS + MASKED,
        sky_mask=(SkyMaskSector(az_start_deg=50.0, az_end_deg=100.0, mask_elevation_deg=40.0),),
        noise=NoiseModel(snr=SnrModel(fading_amplitude_db=8.0)),
        fix_model=FixModel(),
    )
    epochs = []
    for k, epoch in enumerate(epochs_of(simulate(cfg))):
        truth, snr = epoch.truth[0], epoch.snr
        assert truth.multipath_sats == {"M01", "M02"}
        if k % 3 == 1:
            truth = None
        elif k % 3 == 2:
            truth = replace(truth, multipath_sats=frozenset({"M01", "G03", "X99"}))
        if k % 4 == 0:
            dbhz = snr.dbhz.copy()
            dbhz[snr.sat_ids.index("M01"), [0, 2, 4]] = np.nan
            snr = SnrTable(snr.sat_ids, dbhz)
        if k >= 3 * mgp.streams.READ_BLOCK:
            snr = SnrTable((), np.empty((0, 0)))
        epochs.append(edited(epoch, snr=snr, truth=truth))
    return epochs


@pytest.mark.parametrize("subset", [None, (1, 3, 5)], ids=["all", "1-3-5"])
def test_run_detection_score_is_exact(subset) -> None:
    """Precision and recall, unrounded, are the satellite counts of
    ``detect_multipath`` on the active columns of each epoch with truth:
    a true satellite counts only where a scored row names it."""
    epochs = _detection_epochs()
    config = PipelineConfig(antenna_subset=subset, multipath=MultipathConfig(min_count=3))
    cols = [i - 1 for i in config.active_antennas]
    tp = fp = fn = dropped = 0
    for epoch in epochs:
        # an epoch without truth or SNR rows scores nothing
        if epoch.truth[0] is None or not len(epoch.snr):
            continue
        dbhz = epoch.snr.dbhz[:, cols]
        tracked = ~np.isnan(dbhz).all(axis=1)
        dropped += int((~tracked).sum())
        sats = tuple(itertools.compress(epoch.snr.sat_ids, tracked.tolist()))
        report = detect_multipath(SnrTable(sats, dbhz[tracked]), 4.0, 3)
        true_mp = epoch.truth[0].multipath_sats & set(report.sat_ids)
        tp += len(report.excluded_sats & true_mp)
        fp += len(report.excluded_sats - true_mp)
        fn += len(true_mp - report.excluded_sats)
    assert min(tp, fp, fn) > 0
    assert dropped == (0 if subset is None else 16)
    m = run(epoch_blocks(epochs), config).metrics
    assert (m.epochs, m.skipped) == (120, 0)
    assert (m.multipath_precision, m.multipath_recall) == (tp / (tp + fp), tp / (tp + fn))


def test_an_snr_table_without_rows_runs_whatever_its_width(tmp_path) -> None:
    """An epoch whose SNR table has no rows but six columns, which
    ``SnrTable.checked`` accepts, runs as it does read back from the file
    ``write_epochs`` makes of it, where its table has the layout's width."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.3)))
    epochs[1] = edited(epochs[1], snr=SnrTable.checked((), np.empty((0, 6))))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), blocks_of(epochs))
    got = run(epoch_blocks(epochs), PipelineConfig())
    want = run(read_epoch_blocks(str(path)), PipelineConfig())
    assert (want.metrics.epochs, want.metrics.skipped) == (3, 0)
    assert json.dumps(got.metrics.to_json_dict()) == json.dumps(want.metrics.to_json_dict())
    for name in ("t", "p", "q", "n_fix"):
        assert np.array_equal(getattr(got.poses, name), getattr(want.poses, name), equal_nan=True)
    assert process_epoch(epochs[1], PipelineConfig()).t == epochs[1].t[0]


def test_run_shared_diagnostics_list() -> None:
    diags = ["caller note"]
    cfg = _scenario(duration_s=0.5)
    result = run(no_skips(simulate(cfg)), PipelineConfig(), diagnostics=diags)
    # an entry already in the list is not a skip of this run
    assert result.metrics.skipped == 0
    assert result.diagnostics is diags
    assert diags == ["caller note"]


NOT_JSON = (
    "skipped epoch: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
)


def _mistyped_t(record: dict) -> str:
    return json.dumps({**record, "t": True})


def test_run_counts_reader_skips_on_a_shared_list(tmp_path, monkeypatch) -> None:
    """Reader skips (a line that is not JSON, a mistyped field, an antenna
    outside the layout) and early timestamps, inside blocks and at their
    edges, each at its own place in the shared list, at any block size; a
    timestamp message counts the epochs the reader kept."""
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), simulate(_scenario(duration_s=1.2)))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    r = [json.loads(line) for line in lines]
    r[4]["t"] = r[3]["t"]
    r[6]["fixes"][0]["antenna_id"] = 9
    r[11]["t"] = r[10]["t"]
    out = [header, "{not json", *map(json.dumps, r[:5]), _mistyped_t(r[5]),
           *map(json.dumps, r[5:7]), "{not json", *map(json.dumps, r[7:9]),
           _mistyped_t(r[9]), *map(json.dumps, r[9:]), "{not json"]
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    want = [
        "caller note",
        f"{path}:2: {NOT_JSON}",
        "epoch 4: non-increasing timestamp 0.3, skipped",
        f"{path}:8: skipped epoch: epoch time must be a number, got True",
        f"{path}:10: skipped epoch: antenna 9 has no layout entry (layout has 6)",
        f"{path}:11: {NOT_JSON}",
        f"{path}:14: skipped epoch: epoch time must be a number, got True",
        "epoch 10: non-increasing timestamp 1.0, skipped",
        f"{path}:18: {NOT_JSON}",
    ]
    runs = []
    for read_block in (1, 3, 32):
        monkeypatch.setattr(mgp.streams, "READ_BLOCK", read_block)
        diags = ["caller note"]
        result = run(read_epoch_blocks(str(path)), PipelineConfig(), diagnostics=diags)
        assert diags == want, read_block
        assert (result.metrics.epochs, result.metrics.skipped) == (9, 8)
        runs.append((json.dumps(result.metrics.to_json_dict()), result.poses))
    for metrics, poses in runs[1:]:
        assert metrics == runs[0][0]
        for name in ("t", "p", "q", "n_fix"):
            assert np.array_equal(getattr(poses, name), getattr(runs[0][1], name), equal_nan=True)


def test_run_cuts_front_blocks_at_read_block_whatever_the_reader_skips(
    tmp_path, monkeypatch
) -> None:
    """A front block is the good epochs of one reader block of
    ``READ_BLOCK`` lines: with a bad line before every epoch, each block
    but the last holds half as many epochs, and the messages come in line
    order."""
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), simulate(_scenario(duration_s=7.0)))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    bad = [header, *(f"{{not json\n{line}" for line in lines)]
    path.write_text("\n".join(bad) + "\n", encoding="utf-8")
    sizes: list[int] = []
    front = mgp.pipeline._FrontBlock

    def counting(epochs, config):
        sizes.append(len(epochs))
        return front(epochs, config)

    monkeypatch.setattr(mgp.pipeline, "_FrontBlock", counting)
    diags: list[str] = []
    result = run(read_epoch_blocks(str(path)), PipelineConfig(), diagnostics=diags)
    assert (result.metrics.epochs, result.metrics.skipped) == (70, 70)
    assert diags == [f"{path}:{2 * k + 2}: {NOT_JSON}" for k in range(70)]
    b = mgp.streams.READ_BLOCK
    assert sizes == [min(b, 140 - k) // 2 for k in range(0, 140, b)]


def test_run_keeps_its_diagnostics_when_the_stream_fails() -> None:
    """``run`` pulls epochs ahead in blocks; a stream that fails after some
    epochs still gets the diagnostics of those epochs, in stream order,
    before the failure propagates."""
    epochs = epochs_of(simulate(_scenario(duration_s=0.5)))
    diags = ["caller note"]

    def failing():
        yield from epochs[:3]
        diags.append("reader note")
        yield epochs[1]
        raise InputError("e.jsonl:7: bad line")

    with pytest.raises(InputError, match="bad line"):
        run(epoch_blocks(failing()), PipelineConfig(), diagnostics=diags)
    assert diags == [
        "caller note",
        "reader note",
        f"epoch 3: non-increasing timestamp {epochs[1].t[0].item()!r}, skipped",
    ]


def test_metrics_json_rounding() -> None:
    cfg = _scenario(duration_s=2.0)
    m = run(no_skips(simulate(cfg)), PipelineConfig()).metrics
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


def _one_row_epoch(tmp_path, width: int) -> tuple[Path, dict]:
    """A stream of one hand-built epoch, a fixed antenna 6 and one SNR row
    for G01 cut to ``width`` values, and the edited line's object."""
    fixes = fixes_of([(6, FixStatus.FIXED, Vec3(0.0, 0.0, 0.0))])
    epoch = one_epoch(0.0, fixes, baselines_of(()), snr_of([("G01", (45.0,) * 6)]))

    def cut(record: dict) -> None:
        record["snr_rows"][0]["snr"] = [45.0] * width

    path, records = _written(tmp_path, [epoch], {0: cut})
    return path, records[0]


def test_subset_with_short_snr_rows_skips_epoch(tmp_path) -> None:
    # an epoch line with 3-antenna SNR rows; selecting antenna 6 cannot work
    path, _ = _one_row_epoch(tmp_path, 3)
    result = run(read_epoch_blocks(str(path)), PipelineConfig(antenna_subset=(5, 6)))
    assert result.metrics.epochs == 0
    assert result.metrics.skipped == 1
    assert result.diagnostics == [_skip(path, 0, "SNR row G01 has 3 columns (layout has 6)")]


@pytest.mark.parametrize("width", [3, 7])
def test_snr_row_width_must_match_layout(tmp_path, width: int) -> None:
    # without a subset the columns of a 3-wide row on a 6-antenna layout are
    # ambiguous, so the epoch is rejected rather than read as antennas 1-3
    path, record = _one_row_epoch(tmp_path, width)
    reason = f"SNR row G01 has {width} columns (layout has 6)"
    with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
        epoch_from_dict(record)
    result = run(read_epoch_blocks(str(path)), PipelineConfig())
    assert result.metrics.epochs == 0
    assert result.metrics.skipped == 1
    assert result.diagnostics == [_skip(path, 0, reason)]
