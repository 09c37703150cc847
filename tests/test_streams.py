from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mgp
from mgp import (
    ConfigurationError,
    FixModel,
    InputError,
    NoiseModel,
    Poses,
    Satellite,
    ScenarioConfig,
    UnitQuaternion,
    ValidationError,
    Vec3,
    bundled_scenario_path,
    epoch_from_dict,
    epoch_to_dict,
    euler_to_quat,
    load_calibration,
    load_reflectors,
    load_scenario,
    read_epochs,
    read_poses,
    read_scan,
    scenario_from_dict,
    simulate,
    write_epochs,
    write_poses,
    write_scan,
)

SATS = tuple(
    Satellite(sat_id=f"G{k:02d}", azimuth_deg=40.0 * k, elevation_deg=25.0 + 8.0 * k)
    for k in range(8)
)


def _scenario(**kw) -> ScenarioConfig:
    base = dict(seed=21, duration_s=1.0, rate_hz=10.0, constellation=SATS)
    base.update(kw)
    return ScenarioConfig(**base)


# -- epoch streams ---------------------------------------------------------------


def test_epoch_stream_round_trip_byte_identical(tmp_path: Path) -> None:
    epochs = list(simulate(_scenario(noise=NoiseModel(wrong_fix_prob=0.3))))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    assert write_epochs(str(p1), epochs) == len(epochs)
    back = list(read_epochs(str(p1)))
    write_epochs(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()


def test_epoch_round_trip_preserves_truth_and_values(tmp_path: Path) -> None:
    epochs = list(simulate(_scenario()))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), epochs)
    back = list(read_epochs(str(path)))
    assert len(back) == len(epochs)
    for a, b in zip(epochs, back):
        assert a.t == b.t
        assert [f.status for f in a.fixes] == [f.status for f in b.fixes]
        for fa, fb in zip(a.fixes, b.fixes):
            if fa.p is not None:
                assert np.array_equal(fa.p.as_array(), fb.p.as_array())
            assert fa.sats_used == fb.sats_used
        for oa, ob in zip(a.baselines, b.baselines):
            assert oa.antenna_pair == ob.antenna_pair
            assert oa.fixed == ob.fixed
            assert np.array_equal(oa.v.as_array(), ob.v.as_array())
            assert np.array_equal(oa.w.as_array(), ob.w.as_array())
        assert list(a.snr_rows) == list(b.snr_rows)
        assert a.truth.multipath_sats == b.truth.multipath_sats
        assert a.truth.corrupted_baselines == b.truth.corrupted_baselines
        assert a.truth.wrong_fix_antennas == b.truth.wrong_fix_antennas
        assert np.array_equal(a.truth.position.as_array(), b.truth.position.as_array())
        ra, rb = a.truth.requery, b.truth.requery
        assert ra.model == rb.model
        assert ra.solution_sats == rb.solution_sats
        for key in ("antenna_channels", "baseline_channels"):
            ga, gb = getattr(ra, key), getattr(rb, key)
            for name in ("u_fix", "u_float", "wrong", "latent_fixed", "latent_float", "wrong_offset"):
                assert np.array_equal(getattr(ga, name), getattr(gb, name))
                assert getattr(ga, name).dtype == getattr(gb, name).dtype


def test_epoch_header_line_exact(tmp_path: Path) -> None:
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), [])
    first = path.read_text().splitlines()[0]
    assert first == '{"format": "mgp-epoch", "version": 1}'


def test_epoch_dict_round_trip_without_truth() -> None:
    epoch = next(iter(simulate(_scenario())))
    d = epoch_to_dict(epoch)
    d.pop("truth")
    back = epoch_from_dict(json.loads(json.dumps(d)))
    assert back.truth is None
    assert back.t == epoch.t


def test_read_epochs_rejects_wrong_header(tmp_path: Path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "mgp-scan", "version": 1}\n')
    with pytest.raises(InputError):
        list(read_epochs(str(path)))
    path.write_text("")
    with pytest.raises(InputError):
        list(read_epochs(str(path)))
    # wrong header aborts even in skip_malformed mode
    path.write_text('{"format": "other"}\n')
    with pytest.raises(InputError):
        list(read_epochs(str(path), skip_malformed=True))


def test_read_epochs_malformed_line_strict_vs_skip(tmp_path: Path) -> None:
    epochs = list(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), epochs)
    lines = path.read_text().splitlines()
    lines.insert(2, "{not json")
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(InputError):
        list(read_epochs(str(path)))

    diags: list[str] = []
    back = list(read_epochs(str(path), skip_malformed=True, diagnostics=diags))
    assert len(back) == len(epochs)
    assert len(diags) == 1
    assert "skipped epoch" in diags[0]


def test_read_epochs_missing_key_is_input_error(tmp_path: Path) -> None:
    epoch = next(iter(simulate(_scenario(duration_s=0.1))))
    d = epoch_to_dict(epoch)
    d.pop("fixes")
    path = tmp_path / "e.jsonl"
    path.write_text('{"format": "mgp-epoch", "version": 1}\n' + json.dumps(d) + "\n")
    with pytest.raises(InputError):
        list(read_epochs(str(path)))


def _short_bias(rq: dict) -> None:
    rq["model"]["antenna_bias"].pop()


def _nan_uniform(rq: dict) -> None:
    rq["antenna_channels"][2]["u_fix"] = math.nan


def _inf_latent(rq: dict) -> None:
    rq["baseline_channels"][4]["latent_float"][1] = math.inf


def _nan_bias(rq: dict) -> None:
    rq["model"]["baseline_bias"] = math.nan


def _set(group: str, key: str, value):
    def edit(rq: dict) -> None:
        for ch in rq[group]:
            ch[key] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_short_bias, r"antenna_bias needs one entry per antenna \(6\)"),
        (lambda rq: rq.update(baseline_channels=rq["baseline_channels"][:3]),
         "6 antennas need 15 baseline channels, got 3"),
        (lambda rq: rq.update(antenna_channels=rq["antenna_channels"][:5]),
         r"antenna_bias needs one entry per antenna \(5\)"),
        (_nan_uniform, "channel draws must be finite"),
        (_inf_latent, "channel draws must be finite"),
        (_nan_bias, "fix model values must be finite"),
        (_set("baseline_channels", "wrong", "no"), "wrong-fix flags must be booleans"),
        (_set("antenna_channels", "wrong", 0), "wrong-fix flags must be booleans"),
        (_set("antenna_channels", "latent_fixed", [1.0, 2.0]), "channel draws need"),
        (lambda rq: rq["model"].update(steepness=-1.0), "steepness must be positive"),
        (lambda rq: rq["model"].update(float_fraction=2.0), "float_fraction must be in"),
    ],
    ids=[
        "antenna-bias-short",
        "baselines-3-of-15",
        "antennas-5-of-6",
        "nan-uniform",
        "inf-latent",
        "nan-baseline-bias",
        "wrong-string",
        "wrong-number",
        "latent-two-values",
        "negative-steepness",
        "float-fraction-2",
    ],
)
def test_read_epochs_rejects_bad_requery_record(tmp_path: Path, edit, message: str) -> None:
    """A requery record that fails its checks is a malformed line: strict
    reading names ``path:line``, skip mode counts it and keeps the rest."""
    epochs = list(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), epochs)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record["truth"]["requery"])
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: .*{message}"):
        list(read_epochs(str(path)))
    diags: list[str] = []
    back = list(read_epochs(str(path), skip_malformed=True, diagnostics=diags))
    assert [e.t for e in back] == [e.t for i, e in enumerate(epochs) if i != 1]
    assert len(diags) == 1 and diags[0].startswith(f"{path}:3: skipped epoch")


def _set_first(group: str, key: str, value):
    def edit(record: dict) -> None:
        record[group][0][key] = value

    return edit


def _requery_u_fix_true(record: dict) -> None:
    record["truth"]["requery"]["antenna_channels"][0]["u_fix"] = True


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_first("fixes", "antenna_id", 1.7), "antenna ids must be integers"),
        (_set_first("baselines", "fixed", "no"), "baseline fixed flags must be booleans"),
        (_requery_u_fix_true, "u_fix channel draws must be numbers"),
        (_set_first("fixes", "sats_used", 3.9), "sats_used must be integers"),
        (lambda record: record.update(t=True), "epoch time must be a number, got True"),
        (_set_first("snr_rows", "sat_id", 7), "satellite ids must be strings"),
        (_set_first("baselines", "antenna_pair", [1, 2, 9]), "antenna pairs need 2 values each"),
    ],
    ids=[
        "antenna-id-float",
        "fixed-string",
        "u-fix-true",
        "sats-used-float",
        "t-true",
        "sat-id-number",
        "pair-three-ids",
    ],
)
def test_read_epochs_rejects_mistyped_fields(tmp_path: Path, edit, message: str) -> None:
    """A field of the wrong JSON type is a malformed line, not a value to
    coerce: strict reading names ``path:line``, skip mode counts it."""
    epochs = list(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), epochs)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {re.escape(message)}"):
        list(read_epochs(str(path)))
    diags: list[str] = []
    back = list(read_epochs(str(path), skip_malformed=True, diagnostics=diags))
    assert [e.t for e in back] == [e.t for i, e in enumerate(epochs) if i != 1]
    assert len(diags) == 1 and diags[0].startswith(f"{path}:3: skipped epoch")


def test_block_decoder_checks_each_epoch_on_its_own() -> None:
    """Epochs that each name every antenna pair decode as one block, into
    the arrays each gives alone; a pair named twice in one epoch fails it."""
    dicts = [json.loads(json.dumps(epoch_to_dict(e))) for e in simulate(_scenario(duration_s=0.5))]
    block = mgp.streams._decode(dicts)
    for got, d in zip(block, dicts, strict=True):
        alone = epoch_from_dict(d)
        assert got.t == alone.t and got.snr_rows.sat_ids == alone.snr_rows.sat_ids
        for name in ("fixes", "baselines", "snr_rows"):
            for a, b in zip(vars(getattr(got, name)).values(), vars(getattr(alone, name)).values()):
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    pairs = dicts[2]["baselines"]
    pairs[1]["antenna_pair"] = pairs[0]["antenna_pair"][::-1]
    with pytest.raises(ValidationError, match="baseline antenna pairs must be unordered-unique"):
        mgp.streams._decode(dicts)


def _two_faults(first: str, second: str):
    edits = {
        "t-true": lambda r: r.update(t=True),
        "no-w": lambda r: r["baselines"][0].pop("w"),
        "id-float": lambda r: r["fixes"][0].update(antenna_id=1.7),
        "no-sats-used": lambda r: r["fixes"][0].pop("sats_used"),
        "sat-id-number": lambda r: r["snr_rows"][0].update(sat_id=7),
        "snr-row-number": lambda r: r["snr_rows"][1].update(snr=5),
        "no-status": lambda r: r["fixes"][1].pop("status"),
        "status-list": lambda r: r["fixes"][0].update(status=["fixed"]),
        "attitude-2": lambda r: r["truth"].update(attitude=[0.0, 0.0, 0.0, 2.0]),
        "snr-string": lambda r: r["snr_rows"][0]["snr"].__setitem__(0, "40"),
    }

    def edit(record: dict) -> None:
        edits[first](record)
        edits[second](record)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_two_faults("t-true", "no-w"), "epoch time must be a number, got True"),
        (_two_faults("no-w", "id-float"), "antenna ids must be integers"),
        (_two_faults("sat-id-number", "no-sats-used"),
         "malformed epoch object: KeyError('sats_used')"),
        (_two_faults("snr-row-number", "sat-id-number"), "satellite ids must be strings"),
        (_two_faults("no-status", "status-list"),
         "malformed epoch object: TypeError(\"unhashable type: 'list'\")"),
        (_two_faults("attitude-2", "snr-string"), "SNR values must be numbers"),
    ],
    ids=["time-before-key", "type-before-key", "key-before-type", "ids-before-widths",
         "unhashable-before-key", "snr-before-truth"],
)
def test_read_epochs_reports_the_first_of_two_faults(tmp_path: Path, edit, message: str) -> None:
    """A line with two faults reports the one a field-by-field reading of
    the epoch meets first, whichever of them the block decoder's line pass
    (lookups) or its checks find."""
    epochs = list(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), epochs)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        list(read_epochs(str(path)))


@pytest.mark.parametrize(
    "attitude, norm", [([0.0, 0.0, 0.0, 2.0], "2.0"), ([0.0, 0.0, 0.0, 0.0], "0.0")]
)
def test_read_epochs_rejects_non_unit_truth_attitude(tmp_path: Path, attitude, norm) -> None:
    """A truth attitude is read, not normalized: one off unit norm by more
    than QUAT_READ_TOL is a malformed line, within it the unit quaternion."""
    epochs = list(simulate(_scenario(duration_s=0.3)))
    path = tmp_path / "e.jsonl"
    write_epochs(str(path), epochs)
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    records[0]["truth"]["attitude"] = [0.0, 0.0, 0.0, 1.0000005]
    records[1]["truth"]["attitude"] = attitude
    path.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")

    message = f"{path}:3: truth attitude norm {norm} is not 1 within 1e-06"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        list(read_epochs(str(path)))
    diags: list[str] = []
    back = list(read_epochs(str(path), skip_malformed=True, diagnostics=diags))
    assert [e.t for e in back] == [e.t for i, e in enumerate(epochs) if i != 1]
    assert back[0].truth.attitude == UnitQuaternion.identity()
    assert diags == [f"{path}:3: skipped epoch: truth attitude norm {norm} is not 1 within 1e-06"]


# -- scan streams -----------------------------------------------------------------


def test_scan_round_trip_byte_identical(tmp_path: Path) -> None:
    cfg = _scenario(
        trajectory=mgp.Trajectory(
            mgp.TrajectoryKind.WAYPOINT,
            waypoints=(Vec3(-5.0, 0.0, 20.0), Vec3(5.0, 0.0, 20.0)),
            speed_mps=2.0,
        ),
        duration_s=2.0,
        reflectors=(mgp.Reflector(position=Vec3(0.0, 3.0, 0.0), radius_m=1.0),),
    )
    frames = list(mgp.scan_stream(cfg, mgp.ScannerModel(spin_hz=5.0, pulses_per_rev=64)))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    n = write_scan(str(p1), frames)
    assert n == len(frames)
    back = list(read_scan(str(p1)))
    write_scan(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert any(f.reflector.any() for f in back)
    assert all(f.pulses.shape == (len(f.reflector), 4) for f in back)


def test_scan_header_and_pulse_shape(tmp_path: Path) -> None:
    frames = [
        mgp.ScanFrame(
            t=0.0,
            pulses=np.array([[0.01, 1.0, 2.0, -20.0]]),
            reflector=np.array([True]),
        )
    ]
    path = tmp_path / "s.jsonl"
    write_scan(str(path), frames)
    lines = path.read_text().splitlines()
    assert lines[0] == '{"format": "mgp-scan", "version": 1}'
    row = json.loads(lines[1])
    assert row["pulses"] == [[0.01, 1.0, 2.0, -20.0, 1]]


def test_read_scan_rejects_wrong_header_and_bad_rows(tmp_path: Path) -> None:
    path = tmp_path / "s.jsonl"
    path.write_text('{"format": "mgp-epoch", "version": 1}\n')
    with pytest.raises(InputError):
        list(read_scan(str(path)))
    path.write_text('{"format": "mgp-scan", "version": 1}\n{"t": 0.0}\n')
    with pytest.raises(InputError):
        list(read_scan(str(path)))
    path.write_text('{"format": "mgp-scan", "version": 1}\n{"t": 0.0, "pulses": [[0.0, 1.0]]}\n')
    with pytest.raises(InputError):
        list(read_scan(str(path)))


def test_read_scan_non_finite_pulse_names_path_and_line(tmp_path: Path) -> None:
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"format": "mgp-scan", "version": 1}\n'
        '{"t": 0.0, "pulses": [[0.0, 1.0, 2.0, 3.0, 0]]}\n'
        '{"t": 0.1, "pulses": [[0.1, NaN, 2.0, 3.0, 0]]}\n'
    )
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: Vec3 components must be finite"):
        list(read_scan(str(path)))


@pytest.mark.parametrize(
    "row, message",
    [
        ('{"t": NaN, "pulses": [[0.1, 1.0, 2.0, 3.0, 0]]}', "frame time must be finite, got nan"),
        ('{"t": 0.1, "pulses": [[NaN, 1.0, 2.0, 3.0, 0]]}', "pulse time nan is not finite"),
        ('{"t": 0.1, "pulses": [[0.1, 1.0, 2.0, 3.0, 0], [Infinity, 1.0, 2.0, 3.0, 1]]}',
         "pulse time inf is not finite"),
        ('{"t": 0.1, "pulses": [[0.01, 1, 2, -20, "0"]]}', "each pulse must be five numbers"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, 0, 9.0]]}',
         "each pulse must be five numbers"),
        ('{"t": 0.1, "pulses": [[0.01, "1.5", 2.0, -20.0, 0]]}', "each pulse must be five numbers"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, 0], [0.02, 1.0]]}',
         "each pulse must be five numbers"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, 3]]}', "pulse reflector flag must be 0 or 1"),
        ('{"t": 0.1, "pulses": [[0.01, 1.0, 2.0, -20.0, true]]}',
         "scan values must be numbers, not JSON booleans"),
        ('{"t": false, "pulses": [[0.01, 1.0, 2.0, -20.0, 0]]}',
         "scan values must be numbers, not JSON booleans"),
        ('{"t": "0.5", "pulses": [[0.51, 1.0, 2.0, -20.0, 0]]}',
         "frame time must be a number, got '0.5'"),
    ],
    ids=[
        "nan-frame-time",
        "nan-pulse-time",
        "inf-pulse-time",
        "string-flag",
        "six-values",
        "string-coordinate",
        "ragged-pulses",
        "flag-3",
        "bool-flag",
        "bool-frame-time",
        "string-frame-time",
    ],
)
@pytest.mark.filterwarnings("error")
def test_read_scan_rejects_non_finite_times(tmp_path: Path, row: str, message: str) -> None:
    """Non-finite times and malformed pulses name the file and line."""
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"format": "mgp-scan", "version": 1}\n'
        '{"t": 0.0, "pulses": [[0.0, 1.0, 2.0, 3.0, 0]]}\n' + row + "\n"
    )
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {message}"):
        list(read_scan(str(path)))


# -- pose CSV -----------------------------------------------------------------------


NAN3, NAN4 = [math.nan] * 3, [math.nan] * 4


def _poses() -> Poses:
    q = euler_to_quat(1.0, -2.0, 33.0).as_array()
    return Poses.checked(
        np.array([0.0, 0.1, 0.2]),
        np.array([[1.0, 2.0, 3.0], NAN3, [1.1, 2.1, 3.1]]),
        np.array([q, NAN4, NAN4]),
        np.array([6, 0, 2]),
    )


def test_pose_csv_round_trip(tmp_path: Path) -> None:
    poses = _poses()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert write_poses(str(p1), poses) == 3
    back = read_poses(str(p1))
    write_poses(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.t.tolist() == [0.0, 0.1, 0.2]
    assert np.isnan(back.p[1]).all() and np.isnan(back.q[1]).all()
    assert np.isfinite(back.p[2]).all() and np.isnan(back.q[2]).all()
    assert np.array_equal(back.q[0], poses.q[0])
    assert back.n_fix.tolist() == [6, 0, 2]
    assert back.complete.tolist() == [True, False, False]


def test_pose_csv_att_available_follows_quaternion(tmp_path: Path) -> None:
    # the flag is written from the quaternion row, so it cannot say 1 over
    # empty quaternion cells, which the reader would reject
    q = euler_to_quat(0.0, 0.0, 90.0).as_array()
    poses = Poses.checked(np.array([0.0, 0.1]), np.array([NAN3, NAN3]), np.array([NAN4, q]),
                          np.array([0, 3]))
    path = tmp_path / "p.csv"
    write_poses(str(path), poses)
    assert path.read_text().splitlines()[1:] == [
        "0.0,,,,,,,,0,0",
        "0.1,,,," + ",".join(repr(c) for c in q.tolist()) + ",3,1",
    ]
    back = read_poses(str(path))
    assert np.isnan(back.q[0]).all() and np.array_equal(back.q[1], q)


def test_pose_csv_header_exact(tmp_path: Path) -> None:
    path = tmp_path / "p.csv"
    write_poses(str(path), _poses().select(np.zeros(3, dtype=bool)))
    assert path.read_text() == "t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n"
    assert len(read_poses(str(path))) == 0


def test_read_poses_normalizes_near_unit_quaternions(tmp_path: Path) -> None:
    # within QUAT_READ_TOL of 1 a quaternion is read as the unit one
    path = tmp_path / "p.csv"
    path.write_text("t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n0.0,,,,0.0,0.0,0.0,1.0000005,0,1\n")
    assert read_poses(str(path)).q.tolist() == [[0.0, 0.0, 0.0, 1.0]]


def test_pose_csv_rejects_bad_files(tmp_path: Path) -> None:
    path = tmp_path / "p.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(InputError):
        read_poses(str(path))
    path.write_text("t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n1.0,2.0\n")
    with pytest.raises(InputError):
        read_poses(str(path))
    path.write_text("t,E,N,U,qx,qy,qz,qw,n_fix,att_available\nx,,,,,,,,0,0\n")
    with pytest.raises(InputError):
        read_poses(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.0,nan,2.0,3.0,0.0,0.0,0.0,1.0,6,1", "position must be finite"),
        ("0.0,1.0,2.0,3.0,0.0,nan,0.0,1.0,6,1", "quaternion norm nan"),
        ("nan,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1", "pose timestamp must be finite"),
    ],
)
def test_read_poses_non_finite_cell_names_path_and_line(
    tmp_path: Path, row: str, message: str
) -> None:
    path = tmp_path / "p.csv"
    good = "0.1,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1"
    path.write_text(f"t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n{good}\n{row}\n")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {message}"):
        read_poses(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,x", "att_available must be 0 or 1, got 'x'"),
        ("0.2,1.0,2.0,3.0,,,,,6,1", "att_available is 1 but the quaternion cells are empty"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,0",
         "att_available is 0 but the quaternion cells are filled"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,-1,1", "n_fix must be a nonnegative integer, got '-1'"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,1.0,2.5,1", "n_fix must be a nonnegative integer, got '2.5'"),
        ("0.1,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1",
         "pose timestamp 0.1 is not after the previous 0.1"),
        ("0.05,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1",
         "pose timestamp 0.05 is not after the previous 0.1"),
        ("0.2,1.0,,3.0,,,,,2,0", "position cells must be all empty or all filled"),
        ("0.2,,,,0.0,0.0,,1.0,0,1", "quaternion cells must be all empty or all filled"),
        ("0.2,1_0,2.0,3.0,,,,,2,0", "'1_0' is not a number"),
        (" 0.2,1.0,2.0,3.0,,,,,2,0", "' 0.2' is not a number"),
        ("0.2,1.0,2.0,3.0,2.0,0.0,0.0,0.0,6,1", "quaternion norm 2.0 is not 1 within 1e-06"),
        ("0.2,1.0,2.0,3.0,,,,,1234567890123456,0", "n_fix 1234567890123456 is too large"),
    ],
    ids=[
        "att-x", "att-1-no-quaternion", "att-0-with-quaternion", "n-fix-negative",
        "n-fix-fraction", "time-repeated", "time-decreasing", "position-partial",
        "quaternion-partial", "digit-separator", "padded-time", "quaternion-not-unit",
        "n-fix-too-large",
    ],
)
def test_read_poses_rejects_inconsistent_rows(tmp_path: Path, row: str, message: str) -> None:
    path = tmp_path / "p.csv"
    good = "0.1,1.0,2.0,3.0,0.0,0.0,0.0,1.0,6,1"
    path.write_text(f"t,E,N,U,qx,qy,qz,qw,n_fix,att_available\n{good}\n{row}\n")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: {re.escape(message)}$"):
        read_poses(str(path))


# -- config loaders ---------------------------------------------------------------


def test_bundled_scenarios_exist_and_load() -> None:
    for name in ("multipath", "fixrate", "flight"):
        cfg = load_scenario(bundled_scenario_path(name))
        assert cfg.n_epochs > 0
    with pytest.raises(InputError):
        bundled_scenario_path("nope")


def test_scenario_from_dict_minimal() -> None:
    cfg = scenario_from_dict(
        {
            "seed": 3,
            "duration_s": 1.0,
            "rate_hz": 5.0,
            "constellation": [{"sat_id": "G01", "azimuth_deg": 10.0, "elevation_deg": 60.0}],
        }
    )
    assert cfg.seed == 3
    assert cfg.n_epochs == 5
    assert cfg.layout.antenna_count == 6  # hexagon default
    assert cfg.scanner is None


def test_scenario_from_dict_rejects_unknown_keys() -> None:
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"seed": 1, "bogus": 2})
    with pytest.raises(ConfigurationError):
        scenario_from_dict(
            {
                "constellation": [
                    {"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 50.0, "prn": 7}
                ]
            }
        )


def test_scenario_from_dict_layout_forms() -> None:
    base = {"constellation": [{"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 50.0}]}
    cfg = scenario_from_dict({**base, "layout": {"hexagon_circumradius_m": 0.45}})
    assert cfg.layout.position_of(1).norm() == pytest.approx(0.45)
    cfg2 = scenario_from_dict(
        {
            **base,
            "layout": {
                "body_positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
            },
        }
    )
    assert cfg2.layout.antenna_count == 3
    with pytest.raises(ConfigurationError):
        scenario_from_dict(
            {
                **base,
                "layout": {"hexagon_circumradius_m": 0.9, "body_positions": [[0.0, 0.0, 0.0]]},
            }
        )


def test_scenario_validation_error_propagates() -> None:
    # a well-formed dict with semantically invalid content keeps its
    # ValidationError rather than becoming a ConfigurationError
    with pytest.raises(mgp.ValidationError):
        scenario_from_dict(
            {
                "constellation": [
                    {"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 95.0}
                ]
            }
        )


def test_load_scenario_bad_json(tmp_path: Path) -> None:
    path = tmp_path / "s.json"
    path.write_text("{broken")
    with pytest.raises(InputError):
        load_scenario(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(InputError):
        load_scenario(str(path))


def test_load_calibration(tmp_path: Path) -> None:
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {"lever_arm": [0.1, 0.0, -0.2], "boresight": [0.0, 0.0, 0.0, 1.0]}
        )
    )
    calib = load_calibration(str(path))
    assert calib.lever_arm == Vec3(0.1, 0.0, -0.2)
    assert calib.boresight == UnitQuaternion.identity()
    path.write_text(json.dumps({"lever": [0.0, 0.0, 0.0]}))
    with pytest.raises(ConfigurationError):
        load_calibration(str(path))


@pytest.mark.parametrize("boresight", [[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
def test_load_calibration_rejects_non_unit_boresight(tmp_path: Path, boresight) -> None:
    """A boresight off unit norm is an error naming the file and the key,
    not a rotation to normalize."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"lever_arm": [0.0, 0.0, 0.0], "boresight": boresight}))
    norm = math.hypot(*boresight)
    message = f"{path}: calibration: boresight: quaternion norm {norm!r} is not 1 within 1e-06"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_calibration(str(path))


def test_load_reflectors(tmp_path: Path) -> None:
    path = tmp_path / "r.json"
    path.write_text(
        json.dumps(
            {
                "reflectors": [[-75.0, 4.0, 0.0], [45.0, 4.0, 0.0]],
                "cluster_radius_m": 0.8,
                "min_hits": 12,
            }
        )
    )
    positions, radius, min_hits = load_reflectors(str(path))
    assert len(positions) == 2
    assert positions[0] == Vec3(-75.0, 4.0, 0.0)
    assert radius == 0.8
    assert min_hits == 12
    path.write_text(json.dumps({"cluster_radius_m": 0.8}))
    with pytest.raises(ConfigurationError):
        load_reflectors(str(path))
