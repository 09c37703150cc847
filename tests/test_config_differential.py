"""Differential test: the one strict config decoder against the hand-written
loaders it replaced.

The references below are those loaders, kept here only as oracles: one
function per config section that checks keys by name and reads every value
with ``float()`` / ``int()``. On every well-typed config (the bundled
scenarios, the configs the benchmark writes and generated ones) the
decoder must build the same objects, down to the type of every number: a
JSON integer in a float field becomes the same float.
"""
from __future__ import annotations

import functools
import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
from mgp import (
    AntennaLayout,
    AttitudeProfile,
    ConfigurationError,
    FixModel,
    MountCalibration,
    MultipathConfig,
    NoiseModel,
    PipelineConfig,
    RansacParams,
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
    hexagon_layout,
)
from mgp import jsonvals

ROOT = Path(__file__).resolve().parents[1]


# -- the reference loaders -------------------------------------------------------


def _check_keys(d: dict[str, Any], allowed: set[str], ctx: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"{ctx}: unknown keys {sorted(unknown)}")


def _vec_from(obj: Any) -> Vec3:
    x, y, z = (float(c) for c in obj)
    return Vec3(x, y, z)


def _quat_from(obj: Any) -> UnitQuaternion:
    vals = [float(c) for c in obj]
    if len(vals) != 4:
        raise mgp.InputError("quaternion needs 4 components")
    # a quaternion read from a file must have unit norm, not be normalized
    if not abs(math.sqrt(sum(v * v for v in vals)) - 1.0) <= 1e-6:
        raise ValidationError("quaternion norm is not 1")
    return UnitQuaternion.from_array(vals, canonicalize=False)


def _layout_from(obj: Any) -> AntennaLayout:
    if not isinstance(obj, dict):
        raise ConfigurationError("layout: expected an object")
    _check_keys(obj, {"body_positions", "hexagon_circumradius_m"}, "layout")
    if "body_positions" in obj and "hexagon_circumradius_m" in obj:
        raise ConfigurationError("layout: give body_positions or a hexagon radius, not both")
    if "body_positions" in obj:
        return AntennaLayout(tuple(_vec_from(p) for p in obj["body_positions"]))
    if "hexagon_circumradius_m" in obj:
        return hexagon_layout(float(obj["hexagon_circumradius_m"]))
    raise ConfigurationError("layout: empty layout object")


def _knots_from(obj: Any) -> tuple[tuple[float, float], ...]:
    return tuple((float(k[0]), float(k[1])) for k in obj)


def _mount_from(obj: Any) -> MountCalibration:
    if not isinstance(obj, dict):
        raise ConfigurationError("mount: expected an object")
    _check_keys(obj, {"lever_arm", "boresight"}, "mount")
    lever = _vec_from(obj["lever_arm"]) if "lever_arm" in obj else Vec3(0.0, 0.0, 0.0)
    bore = _quat_from(obj["boresight"]) if "boresight" in obj else UnitQuaternion.identity()
    return MountCalibration(lever_arm=lever, boresight=bore)


def _scanner_from(obj: Any) -> ScannerModel:
    _check_keys(
        obj,
        {"spin_hz", "pulses_per_rev", "cone_deg", "range_noise_m", "max_range_m", "mount"},
        "scanner",
    )
    kwargs: dict[str, Any] = {}
    for key in ("spin_hz", "cone_deg", "range_noise_m", "max_range_m"):
        if key in obj:
            kwargs[key] = float(obj[key])
    if "pulses_per_rev" in obj:
        kwargs["pulses_per_rev"] = int(obj["pulses_per_rev"])
    if "mount" in obj:
        kwargs["mount"] = _mount_from(obj["mount"])
    return ScannerModel(**kwargs)


def _ref_scenario(d: dict[str, Any]) -> ScenarioConfig:
    try:
        _check_keys(
            d,
            {"seed", "duration_s", "rate_hz", "layout", "trajectory", "attitude_profile",
             "constellation", "sky_mask", "noise", "fix_model", "scanner", "reflectors"},
            "scenario",
        )
        kwargs: dict[str, Any] = {}
        if "seed" in d:
            kwargs["seed"] = int(d["seed"])
        if "duration_s" in d:
            kwargs["duration_s"] = float(d["duration_s"])
        if "rate_hz" in d:
            kwargs["rate_hz"] = float(d["rate_hz"])
        if "layout" in d:
            kwargs["layout"] = _layout_from(d["layout"])
        if "trajectory" in d:
            tr = d["trajectory"]
            _check_keys(tr, {"kind", "waypoints", "speed_mps"}, "trajectory")
            kwargs["trajectory"] = Trajectory(
                kind=TrajectoryKind(str(tr["kind"])),
                waypoints=tuple(_vec_from(w) for w in tr.get("waypoints", ())),
                speed_mps=float(tr.get("speed_mps", 0.0)),
            )
        if "attitude_profile" in d:
            ap = d["attitude_profile"]
            _check_keys(ap, {"roll_knots", "pitch_knots", "yaw_knots"}, "attitude_profile")
            kwargs["attitude_profile"] = AttitudeProfile(
                roll_knots=_knots_from(ap.get("roll_knots", ((0.0, 0.0),))),
                pitch_knots=_knots_from(ap.get("pitch_knots", ((0.0, 0.0),))),
                yaw_knots=_knots_from(ap.get("yaw_knots", ((0.0, 0.0),))),
            )
        if "constellation" in d:
            sats = []
            for s in d["constellation"]:
                _check_keys(s, {"sat_id", "azimuth_deg", "elevation_deg"}, "satellite")
                sats.append(
                    Satellite(
                        sat_id=str(s["sat_id"]),
                        azimuth_deg=float(s["azimuth_deg"]),
                        elevation_deg=float(s["elevation_deg"]),
                    )
                )
            kwargs["constellation"] = tuple(sats)
        if "sky_mask" in d:
            sectors = []
            for s in d["sky_mask"]:
                _check_keys(s, {"az_start_deg", "az_end_deg", "mask_elevation_deg"}, "sky_mask")
                sectors.append(
                    SkyMaskSector(
                        az_start_deg=float(s["az_start_deg"]),
                        az_end_deg=float(s["az_end_deg"]),
                        mask_elevation_deg=float(s["mask_elevation_deg"]),
                    )
                )
            kwargs["sky_mask"] = tuple(sectors)
        if "noise" in d:
            nz = d["noise"]
            _check_keys(
                nz,
                {"sigma_fixed_m", "sigma_float_m", "wrong_fix_prob", "wrong_fix_unit_m",
                 "wrong_fix_max_multiple", "snr"},
                "noise",
            )
            nz_kwargs: dict[str, Any] = {}
            for key in ("sigma_fixed_m", "sigma_float_m", "wrong_fix_prob", "wrong_fix_unit_m"):
                if key in nz:
                    nz_kwargs[key] = float(nz[key])
            if "wrong_fix_max_multiple" in nz:
                nz_kwargs["wrong_fix_max_multiple"] = int(nz["wrong_fix_max_multiple"])
            if "snr" in nz:
                sn = nz["snr"]
                _check_keys(
                    sn,
                    {"floor_dbhz", "peak_dbhz", "fading_amplitude_db", "fading_period_s",
                     "thermal_jitter_db"},
                    "snr",
                )
                nz_kwargs["snr"] = SnrModel(**{k: float(v) for k, v in sn.items()})
            kwargs["noise"] = NoiseModel(**nz_kwargs)
        if "fix_model" in d:
            fm = d["fix_model"]
            _check_keys(
                fm,
                {"steepness", "midpoint", "multipath_weight", "antenna_bias", "target_fix_probs",
                 "baseline_bias", "baseline_target_fix_prob", "float_fraction"},
                "fix_model",
            )
            fm_kwargs: dict[str, Any] = {}
            for key in ("steepness", "midpoint", "multipath_weight", "baseline_bias",
                        "float_fraction"):
                if key in fm:
                    fm_kwargs[key] = float(fm[key])
            if fm.get("antenna_bias") is not None:
                fm_kwargs["antenna_bias"] = tuple(float(b) for b in fm["antenna_bias"])
            if fm.get("target_fix_probs") is not None:
                fm_kwargs["target_fix_probs"] = tuple(float(p) for p in fm["target_fix_probs"])
            if fm.get("baseline_target_fix_prob") is not None:
                fm_kwargs["baseline_target_fix_prob"] = float(fm["baseline_target_fix_prob"])
            kwargs["fix_model"] = FixModel(**fm_kwargs)
        if d.get("scanner") is not None:
            kwargs["scanner"] = _scanner_from(d["scanner"])
        if "reflectors" in d:
            refl = []
            for r in d["reflectors"]:
                _check_keys(r, {"position", "radius_m"}, "reflector")
                refl.append(
                    Reflector(
                        position=_vec_from(r["position"]),
                        radius_m=float(r.get("radius_m", 0.3)),
                    )
                )
            kwargs["reflectors"] = tuple(refl)
        return ScenarioConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"scenario config: {exc!r}") from exc


def _typed(section: dict[str, Any], key: str, where: str, read: Any) -> Any:
    try:
        return read(section[key], f"{where}{key}")
    except ValidationError as exc:
        raise ConfigurationError(f"pipeline config: {exc}") from exc


def _ref_pipeline(d: dict[str, Any]) -> PipelineConfig:
    try:
        _check_keys(
            d,
            {"layout", "ransac", "multipath", "multipath_feedback", "antenna_subset"},
            "pipeline config",
        )
        kwargs: dict[str, Any] = {}
        if "layout" in d:
            kwargs["layout"] = _layout_from(d["layout"])
        if "ransac" in d:
            r = d["ransac"]
            _check_keys(r, {"inlier_threshold_m", "min_inliers"}, "ransac")
            rk: dict[str, Any] = {}
            if "min_inliers" in r:
                rk["min_inliers"] = _typed(r, "min_inliers", "ransac.", jsonvals.integer)
            if "inlier_threshold_m" in r:
                rk["inlier_threshold_m"] = _typed(
                    r, "inlier_threshold_m", "ransac.", jsonvals.number
                )
            kwargs["ransac"] = RansacParams(**rk)
        if "multipath" in d:
            m = d["multipath"]
            _check_keys(m, {"threshold_dbhz", "min_count"}, "multipath")
            mk: dict[str, Any] = {}
            if "threshold_dbhz" in m:
                mk["threshold_dbhz"] = _typed(m, "threshold_dbhz", "multipath.", jsonvals.number)
            if "min_count" in m:
                mk["min_count"] = _typed(m, "min_count", "multipath.", jsonvals.integer)
            kwargs["multipath"] = MultipathConfig(**mk)
        if "multipath_feedback" in d:
            kwargs["multipath_feedback"] = _typed(d, "multipath_feedback", "", jsonvals.flag)
        if d.get("antenna_subset") is not None:
            ids = _typed(d, "antenna_subset", "", jsonvals.integers)
            kwargs["antenna_subset"] = tuple(ids.tolist())
        return PipelineConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"pipeline config: {exc!r}") from exc


def _ref_calibration(d: dict[str, Any]) -> MountCalibration:
    try:
        return _mount_from(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"calibration config: {exc!r}") from exc


def _ref_reflectors(d: dict[str, Any]) -> tuple[list[Vec3], float, int]:
    try:
        _check_keys(d, {"reflectors", "cluster_radius_m", "min_hits"}, "reflectors")
        positions = [_vec_from(p) for p in d["reflectors"]]
        radius = float(d.get("cluster_radius_m", 0.5))
        min_hits = int(d.get("min_hits", 10))
        return positions, radius, min_hits
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"reflector config: {exc!r}") from exc


# -- comparison ----------------------------------------------------------------------


def _loaders(tmp: Path) -> dict[str, tuple[Any, Any]]:
    """Per config kind: (decoder path on a dict, reference on a dict). The
    calibration and reflector loaders only read files, so their dicts go
    through a file."""

    def through_file(load: Any, name: str) -> Any:
        def run(d: dict[str, Any]) -> Any:
            path = tmp / name
            path.write_text(json.dumps(d), encoding="utf-8")
            return load(str(path))

        return run

    return {
        "scenario": (mgp.scenario_from_dict, _ref_scenario),
        "pipeline": (mgp.pipeline_config_from_dict, _ref_pipeline),
        "calib": (through_file(mgp.load_calibration, "calib.json"), _ref_calibration),
        "reflectors": (through_file(mgp.load_reflectors, "reflectors.json"), _ref_reflectors),
    }


def _outcome(build: Any, d: dict[str, Any]) -> Any:
    try:
        return build(d)
    except (ConfigurationError, ValidationError) as exc:
        return type(exc)


def _assert_same(kind: str, d: dict[str, Any], tmp: Path) -> Any:
    """Both paths give equal objects with the same type at every leaf (the
    ``repr`` tells 3 from 3.0), or both raise the same error type."""
    new, ref = (_outcome(build, d) for build in _loaders(tmp)[kind])
    assert new == ref
    assert repr(new) == repr(ref)
    return new


def _bundled(name: str) -> dict[str, Any]:
    return json.loads(Path(mgp.bundled_scenario_path(name)).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["multipath", "fixrate", "flight"])
def test_bundled_scenarios_decode_as_before(tmp_path: Path, name: str) -> None:
    cfg = _assert_same("scenario", _bundled(name), tmp_path)
    assert isinstance(cfg, ScenarioConfig)
    assert cfg == mgp.load_scenario(mgp.bundled_scenario_path(name))


@functools.cache
def _perfbench_workloads() -> Any:
    """The benchmark's workload table, loaded by path (``perfbench`` is no
    package on the test path)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


_KIND_OF_FILE = {
    "scenario.json": "scenario",
    "pipeline.json": "pipeline",
    "calib.json": "calib",
    "reflectors.json": "reflectors",
}


@pytest.mark.parametrize("workload", sorted(_perfbench_workloads()))
def test_benchmark_configs_decode_as_before(tmp_path: Path, workload: str) -> None:
    files = _perfbench_workloads()[workload].files(ROOT)
    assert set(files) <= set(_KIND_OF_FILE)
    for name, d in files.items():
        result = _assert_same(_KIND_OF_FILE[name], d, tmp_path)
        assert not isinstance(result, type), f"{workload} {name} was rejected"


# -- generated well-typed configs -------------------------------------------------------


def _num(lo: float, hi: float) -> st.SearchStrategy:
    """A JSON number in [lo, hi]: an integer where the range holds one, or a
    float."""
    floats = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    if math.ceil(lo) > math.floor(hi):
        return floats
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), floats)


def _vec(lo: float = -200.0, hi: float = 200.0) -> st.SearchStrategy:
    return st.lists(_num(lo, hi), min_size=3, max_size=3)


def _section(**keys: st.SearchStrategy) -> st.SearchStrategy:
    """An object holding any subset of ``keys``."""
    return st.fixed_dictionaries({}, optional=keys)


# Ranges sit mostly inside what the constructors accept, with a few edges
# outside, so that both outcomes occur (see the last test).
_LAYOUT = st.one_of(
    st.fixed_dictionaries({"hexagon_circumradius_m": _num(0.0, 2.0)}),
    st.fixed_dictionaries(
        {"body_positions": st.lists(_vec(-2.0, 2.0), min_size=2, max_size=7)}
    ),
)
_KNOTS = st.lists(
    st.lists(_num(0.0, 30.0), min_size=2, max_size=2), min_size=1, max_size=3
).map(sorted)
_QUAT = st.lists(_num(-1.0, 1.0), min_size=4, max_size=4)
_MOUNT = _section(
    lever_arm=_vec(-1.0, 1.0),
    # mostly not of unit norm (rejected), sometimes normalized (accepted)
    boresight=st.one_of(
        _QUAT,
        _QUAT.map(lambda q: (q, math.sqrt(sum(x * x for x in q))))
        .filter(lambda qn: qn[1] > 0.1)
        .map(lambda qn: [c / qn[1] for c in qn[0]]),
    ),
)

SCENARIOS = st.fixed_dictionaries(
    {
        "constellation": st.lists(
            st.fixed_dictionaries(
                {
                    "sat_id": st.text(min_size=1, max_size=4),
                    "azimuth_deg": _num(0.0, 359.5),
                    "elevation_deg": _num(0.0, 90.0),
                }
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda s: s["sat_id"],
        ),
    },
    optional=dict(
        seed=st.integers(0, 2**40),
        duration_s=_num(-1.0, 100.0),
        rate_hz=_num(0.5, 20.0),
        layout=_LAYOUT,
        trajectory=st.one_of(
            st.fixed_dictionaries(
                {"kind": st.just("static")}, optional={"waypoints": st.lists(_vec(), max_size=2)}
            ),
            st.fixed_dictionaries(
                {
                    "kind": st.just("waypoint"),
                    "waypoints": st.lists(_vec(), min_size=2, max_size=3),
                    "speed_mps": _num(0.0, 5.0),
                }
            ),
        ),
        attitude_profile=_section(roll_knots=_KNOTS, pitch_knots=_KNOTS, yaw_knots=_KNOTS),
        sky_mask=st.lists(
            st.fixed_dictionaries(
                {
                    "az_start_deg": _num(0.0, 359.5),
                    "az_end_deg": _num(0.0, 359.5),
                    "mask_elevation_deg": _num(0.5, 90.0),
                }
            ),
            max_size=2,
        ),
        noise=_section(
            sigma_fixed_m=_num(0.0, 0.1),
            sigma_float_m=_num(0.0, 1.0),
            wrong_fix_prob=_num(0.0, 1.0),
            wrong_fix_unit_m=_num(0.01, 1.0),
            wrong_fix_max_multiple=st.integers(0, 5),
            snr=_section(
                floor_dbhz=_num(10.0, 40.0),
                peak_dbhz=_num(40.0, 60.0),
                fading_amplitude_db=_num(0.0, 10.0),
                fading_period_s=_num(0.5, 60.0),
                thermal_jitter_db=_num(0.0, 1.0),
            ),
        ),
        fix_model=_section(
            steepness=_num(0.1, 3.0),
            midpoint=_num(-5.0, 10.0),
            multipath_weight=_num(0.0, 2.0),
            antenna_bias=st.one_of(st.none(), st.lists(_num(-5.0, 25.0), min_size=6, max_size=6)),
            target_fix_probs=st.one_of(
                st.none(), st.lists(_num(0.01, 0.99), min_size=6, max_size=6)
            ),
            baseline_bias=_num(-5.0, 25.0),
            baseline_target_fix_prob=st.one_of(st.none(), _num(0.01, 0.99)),
            float_fraction=_num(0.0, 1.0),
        ),
        scanner=st.one_of(
            st.none(),
            _section(
                spin_hz=_num(0.5, 20.0),
                pulses_per_rev=st.integers(0, 1000),
                cone_deg=_num(1.0, 89.0),
                range_noise_m=_num(0.0, 0.1),
                max_range_m=_num(1.0, 200.0),
                mount=_MOUNT,
            ),
        ),
        reflectors=st.lists(
            st.fixed_dictionaries(
                {
                    "position": st.tuples(_num(-100.0, 100.0), _num(-100.0, 100.0), st.just(0))
                    .map(list),
                },
                optional={"radius_m": _num(0.0, 1.0)},
            ),
            max_size=3,
        ),
    ),
)

PIPELINES = _section(
    layout=_LAYOUT,
    ransac=_section(inlier_threshold_m=_num(0.0, 0.2), min_inliers=st.integers(1, 16)),
    multipath=_section(threshold_dbhz=_num(0.0, 8.0), min_count=st.integers(1, 6)),
    multipath_feedback=st.booleans(),
    antenna_subset=st.one_of(st.none(), st.lists(st.integers(0, 7), max_size=6)),
)

CALIBRATIONS = _MOUNT

REFLECTOR_FILES = st.fixed_dictionaries(
    {"reflectors": st.lists(_vec(), max_size=4)},
    optional={"cluster_radius_m": _num(0.0, 2.0), "min_hits": st.integers(0, 50)},
)

_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(d=SCENARIOS)
def test_generated_scenarios_decode_as_before(tmp_path: Path, d: dict[str, Any]) -> None:
    _assert_same("scenario", d, tmp_path)


@_SETTINGS
@given(d=PIPELINES)
def test_generated_pipeline_configs_decode_as_before(tmp_path: Path, d: dict[str, Any]) -> None:
    _assert_same("pipeline", d, tmp_path)


@_SETTINGS
@given(d=CALIBRATIONS)
def test_generated_calibrations_decode_as_before(tmp_path: Path, d: dict[str, Any]) -> None:
    _assert_same("calib", d, tmp_path)


@_SETTINGS
@given(d=REFLECTOR_FILES)
def test_generated_reflector_files_decode_as_before(tmp_path: Path, d: dict[str, Any]) -> None:
    _assert_same("reflectors", d, tmp_path)


def test_generated_scenarios_reach_the_constructors() -> None:
    """The generator is not all rejects: a fixed draw of 200 scenarios holds
    both accepted configs and constructor rejections, and no type errors."""
    outcomes = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(d=SCENARIOS)
    def collect(d: dict[str, Any]) -> None:
        outcome = _outcome(mgp.scenario_from_dict, d)
        outcomes.add(outcome if isinstance(outcome, type) else ScenarioConfig)

    collect()
    assert outcomes == {ScenarioConfig, ValidationError}
