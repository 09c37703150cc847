"""Stream file formats and configuration loaders.

Formats:
  * Epoch stream: JSON Lines, header ``{"format": "mgp-epoch", "version": 1}``
    then one epoch object per line. Field names follow the in-memory types.
  * Scan stream: JSON Lines, header ``{"format": "mgp-scan", "version": 1}``
    then one frame per line; each pulse is a compact array
    ``[t, x, y, z, reflector01]`` in scanner-frame meters; in memory a
    :class:`ScanFrame` of (n, 4) ``[t, x, y, z]`` rows and (n,) bool flags.
  * Pose trajectory: CSV with header ``t,E,N,U,qx,qy,qz,qw,n_fix,att_available``;
    one row per processed epoch, cells left empty when the corresponding
    solution is unavailable.

All floats are serialized with Python repr (shortest round-trip), so a
read/write cycle is byte-stable and exact-inverse tests can run through
files. Loaders raise InputError for unreadable or structurally broken files
and ConfigurationError for config schemas with unknown or mis-typed keys;
value-range problems surface as ValidationError from the constructors.
"""
from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from .attitude import VectorObservation
from .core import AntennaLayout, UnitQuaternion, Vec3, hexagon_layout
from .errors import ConfigurationError, InputError, ValidationError
from .mapping import MountCalibration, Pose, ScanFrame
from .multipath import SnrRow
from .positioning import FixSolution, FixStatus
from .simulator import (
    AttitudeProfile,
    EpochRecord,
    EpochTruth,
    FixModel,
    MeasurementChannel,
    NoiseModel,
    Reflector,
    RequeryData,
    RequeryModel,
    Satellite,
    ScannerModel,
    ScenarioConfig,
    SkyMaskSector,
    SnrModel,
    Trajectory,
    TrajectoryKind,
)

EPOCH_HEADER = {"format": "mgp-epoch", "version": 1}
SCAN_HEADER = {"format": "mgp-scan", "version": 1}
POSE_CSV_HEADER = "t,E,N,U,qx,qy,qz,qw,n_fix,att_available"
_PULSE_SHAPE = "each pulse must be five numbers [t, x, y, z, flag]"


@dataclass(frozen=True)
class PoseRow:
    """One pose-trajectory CSV row; position/attitude may be unavailable."""

    t: float
    p: Vec3 | None
    q: UnitQuaternion | None
    n_fix: int
    att_available: bool

    def pose(self) -> Pose | None:
        if self.p is None or self.q is None:
            return None
        return Pose(t=self.t, p=self.p, q=self.q)


def _vec(v: Vec3) -> list[float]:
    return [v.x, v.y, v.z]


def _quat(q: UnitQuaternion) -> list[float]:
    return [q.qx, q.qy, q.qz, q.qw]


def _vec_from(obj: Any) -> Vec3:
    x, y, z = (float(c) for c in obj)
    return Vec3(x, y, z)


def _quat_from(obj: Any) -> UnitQuaternion:
    vals = [float(c) for c in obj]
    if len(vals) != 4:
        raise InputError("quaternion needs 4 components")
    return UnitQuaternion.from_array(vals, canonicalize=False)


def _channel_to_dict(ch: MeasurementChannel) -> dict[str, Any]:
    return {
        "u_fix": ch.u_fix,
        "u_float": ch.u_float,
        "wrong": ch.wrong,
        "latent_fixed": _vec(ch.latent_fixed),
        "latent_float": _vec(ch.latent_float),
        "wrong_offset": _vec(ch.wrong_offset),
    }


def _channel_from_dict(d: dict[str, Any]) -> MeasurementChannel:
    return MeasurementChannel(
        u_fix=float(d["u_fix"]),
        u_float=float(d["u_float"]),
        wrong=bool(d["wrong"]),
        latent_fixed=_vec_from(d["latent_fixed"]),
        latent_float=_vec_from(d["latent_float"]),
        wrong_offset=_vec_from(d["wrong_offset"]),
    )


def epoch_to_dict(epoch: EpochRecord) -> dict[str, Any]:
    truth = None
    if epoch.truth is not None:
        tr = epoch.truth
        requery = None
        if tr.requery is not None:
            rq = tr.requery
            requery = {
                "model": {
                    "steepness": rq.model.steepness,
                    "midpoint": rq.model.midpoint,
                    "multipath_weight": rq.model.multipath_weight,
                    "antenna_bias": list(rq.model.antenna_bias),
                    "baseline_bias": rq.model.baseline_bias,
                    "float_fraction": rq.model.float_fraction,
                },
                "solution_sats": list(rq.solution_sats),
                "antenna_channels": [_channel_to_dict(c) for c in rq.antenna_channels],
                "baseline_channels": [_channel_to_dict(c) for c in rq.baseline_channels],
            }
        truth = {
            "position": _vec(tr.position),
            "attitude": _quat(tr.attitude),
            "multipath_sats": sorted(tr.multipath_sats),
            "corrupted_baselines": sorted(list(p) for p in tr.corrupted_baselines),
            "wrong_fix_antennas": sorted(tr.wrong_fix_antennas),
            "requery": requery,
        }
    return {
        "t": epoch.t,
        "fixes": [
            {
                "antenna_id": f.antenna_id,
                "status": f.status.value,
                "p": _vec(f.p) if f.p is not None else None,
                "sats_used": f.sats_used,
            }
            for f in epoch.fixes
        ],
        "baselines": [
            {
                "antenna_pair": list(o.antenna_pair),
                "v": _vec(o.v),
                "w": _vec(o.w),
                "fixed": o.fixed,
            }
            for o in epoch.baselines
        ],
        "snr_rows": [
            {"sat_id": r.sat_id, "snr": list(r.snr_dbhz)} for r in epoch.snr_rows
        ],
        "truth": truth,
    }


def epoch_from_dict(d: dict[str, Any]) -> EpochRecord:
    try:
        fixes = tuple(
            FixSolution(
                antenna_id=int(f["antenna_id"]),
                status=FixStatus(f["status"]),
                p=_vec_from(f["p"]) if f["p"] is not None else None,
                sats_used=int(f["sats_used"]),
            )
            for f in d["fixes"]
        )
        baselines = tuple(
            VectorObservation(
                v=_vec_from(o["v"]),
                w=_vec_from(o["w"]),
                antenna_pair=(int(o["antenna_pair"][0]), int(o["antenna_pair"][1])),
                fixed=bool(o["fixed"]),
            )
            for o in d["baselines"]
        )
        snr_rows = tuple(
            SnrRow(
                sat_id=str(r["sat_id"]),
                snr_dbhz=tuple(
                    float(x) if x is not None else None for x in r["snr"]
                ),
            )
            for r in d["snr_rows"]
        )
        truth = None
        if d.get("truth") is not None:
            tr = d["truth"]
            requery = None
            if tr["requery"] is not None:
                rq = tr["requery"]
                md = rq["model"]
                requery = RequeryData(
                    model=RequeryModel(
                        steepness=float(md["steepness"]),
                        midpoint=float(md["midpoint"]),
                        multipath_weight=float(md["multipath_weight"]),
                        antenna_bias=tuple(float(b) for b in md["antenna_bias"]),
                        baseline_bias=float(md["baseline_bias"]),
                        float_fraction=float(md["float_fraction"]),
                    ),
                    solution_sats=tuple(str(s) for s in rq["solution_sats"]),
                    antenna_channels=tuple(
                        _channel_from_dict(c) for c in rq["antenna_channels"]
                    ),
                    baseline_channels=tuple(
                        _channel_from_dict(c) for c in rq["baseline_channels"]
                    ),
                )
            truth = EpochTruth(
                position=_vec_from(tr["position"]),
                attitude=_quat_from(tr["attitude"]),
                multipath_sats=frozenset(str(s) for s in tr["multipath_sats"]),
                corrupted_baselines=frozenset(
                    (int(p[0]), int(p[1])) for p in tr["corrupted_baselines"]
                ),
                wrong_fix_antennas=frozenset(
                    int(a) for a in tr["wrong_fix_antennas"]
                ),
                requery=requery,
            )
        return EpochRecord(
            t=float(d["t"]),
            fixes=fixes,
            baselines=baselines,
            snr_rows=snr_rows,
            truth=truth,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed epoch object: {exc!r}") from exc


def write_epochs(path: str, epochs: Iterable[EpochRecord]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(EPOCH_HEADER) + "\n")
        for epoch in epochs:
            f.write(json.dumps(epoch_to_dict(epoch)) + "\n")
            n += 1
    return n


def _check_header(line: str, expected: dict[str, Any], path: str) -> None:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: missing stream header: {exc}") from exc
    if header != expected:
        raise InputError(f"{path}: unexpected stream header {header!r}")


def read_epochs(
    path: str,
    *,
    skip_malformed: bool = False,
    diagnostics: list[str] | None = None,
) -> Iterator[EpochRecord]:
    """Yield epochs from a JSONL stream.

    With ``skip_malformed``, lines that fail to parse or validate are
    skipped (recorded in ``diagnostics``) instead of aborting. A wrong
    header always aborts: that is the wrong file, not a bad epoch.
    """
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise InputError(f"{path}: empty stream file")
        _check_header(first, EPOCH_HEADER, path)
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                yield epoch_from_dict(json.loads(line))
            except (json.JSONDecodeError, InputError, ValidationError, ValueError) as exc:
                if skip_malformed:
                    if diagnostics is not None:
                        diagnostics.append(f"{path}:{lineno}: skipped epoch: {exc}")
                    continue
                raise InputError(f"{path}:{lineno}: {exc}") from exc


def write_scan(path: str, frames: Iterable[ScanFrame]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(SCAN_HEADER) + "\n")
        for frame in frames:
            flags = frame.reflector.astype(int).tolist()
            pulses = [row + [flag] for row, flag in zip(frame.pulses.tolist(), flags)]
            f.write(json.dumps({"t": frame.t, "pulses": pulses}) + "\n")
            n += 1
    return n


def _scan_frame(d: dict[str, Any]) -> ScanFrame:
    """Frame from one parsed scan line. Each pulse must be exactly five
    numbers ``[t, x, y, z, flag]`` with finite values and a 0/1 flag."""
    t = float(d["t"])
    if not math.isfinite(t):
        raise ValidationError(f"frame time {t} is not finite")
    try:
        rows = np.asarray(d["pulses"])
    except ValueError as exc:  # pulses of different lengths
        raise ValidationError(_PULSE_SHAPE) from exc
    if rows.shape == (0,):
        rows = rows.reshape(0, 5)
    if rows.ndim != 2 or rows.shape[1] != 5 or rows.dtype.kind not in "if":
        raise ValidationError(_PULSE_SHAPE)
    flag = rows[:, 4]
    if not ((flag == 0) | (flag == 1)).all():
        raise ValidationError("pulse reflector flag must be 0 or 1")
    bad = np.flatnonzero(~np.isfinite(rows[:, :4]).all(axis=1))
    if len(bad):
        t_k, *point = rows[bad[0], :4].tolist()
        if not math.isfinite(t_k):
            raise ValidationError(f"pulse time {t_k} is not finite")
        raise ValidationError(f"Vec3 components must be finite, got {tuple(point)}")
    return ScanFrame(t=t, pulses=rows[:, :4].astype(np.float64), reflector=flag == 1)


def read_scan(path: str) -> Iterator[ScanFrame]:
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise InputError(f"{path}: empty stream file")
        _check_header(first, SCAN_HEADER, path)
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                yield _scan_frame(json.loads(line))
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc


def write_poses(path: str, rows: Iterable[PoseRow]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(POSE_CSV_HEADER + "\n")
        for row in rows:
            p_cells = ["", "", ""] if row.p is None else [repr(c) for c in _vec(row.p)]
            q_cells = ["", "", "", ""] if row.q is None else [repr(c) for c in _quat(row.q)]
            cells = (
                [repr(row.t)]
                + p_cells
                + q_cells
                + [str(row.n_fix), "1" if row.att_available else "0"]
            )
            f.write(",".join(cells) + "\n")
            n += 1
    return n


def read_poses(path: str) -> list[PoseRow]:
    rows: list[PoseRow] = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != POSE_CSV_HEADER:
            raise InputError(f"{path}: unexpected CSV header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 10:
                raise InputError(f"{path}:{lineno}: expected 10 cells, got {len(cells)}")
            try:
                t = float(cells[0])
                if not math.isfinite(t):
                    raise ValidationError(f"pose timestamp must be finite, got {t!r}")
                p = None
                if cells[1] != "":
                    p = Vec3(float(cells[1]), float(cells[2]), float(cells[3]))
                q = None
                if cells[4] != "":
                    q = UnitQuaternion.from_array(
                        [float(c) for c in cells[4:8]], canonicalize=False
                    )
                rows.append(
                    PoseRow(
                        t=t,
                        p=p,
                        q=q,
                        n_fix=int(cells[8]),
                        att_available=cells[9] == "1",
                    )
                )
            except (ValueError, ValidationError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    return rows


def poses_for_georef(rows: Iterable[PoseRow]) -> list[Pose]:
    """Keep only rows carrying both a position and an attitude."""
    return [pose for pose in map(PoseRow.pose, rows) if pose is not None]


def write_json(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, indent=2) + "\n")


def _read_json_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return data


def _check_keys(d: dict[str, Any], allowed: set[str], ctx: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"{ctx}: unknown keys {sorted(unknown)}")


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
    bore = (
        _quat_from(obj["boresight"])
        if "boresight" in obj
        else UnitQuaternion.identity()
    )
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


def scenario_from_dict(d: dict[str, Any]) -> ScenarioConfig:
    """Build a scenario from its JSON object form (strict keys)."""
    try:
        _check_keys(
            d,
            {
                "seed",
                "duration_s",
                "rate_hz",
                "layout",
                "trajectory",
                "attitude_profile",
                "constellation",
                "sky_mask",
                "noise",
                "fix_model",
                "scanner",
                "reflectors",
            },
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
                _check_keys(
                    s, {"az_start_deg", "az_end_deg", "mask_elevation_deg"}, "sky_mask"
                )
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
                {
                    "sigma_fixed_m",
                    "sigma_float_m",
                    "wrong_fix_prob",
                    "wrong_fix_unit_m",
                    "wrong_fix_max_multiple",
                    "snr",
                },
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
                    {
                        "floor_dbhz",
                        "peak_dbhz",
                        "fading_amplitude_db",
                        "fading_period_s",
                        "thermal_jitter_db",
                    },
                    "snr",
                )
                nz_kwargs["snr"] = SnrModel(**{k: float(v) for k, v in sn.items()})
            kwargs["noise"] = NoiseModel(**nz_kwargs)
        if "fix_model" in d:
            fm = d["fix_model"]
            _check_keys(
                fm,
                {
                    "steepness",
                    "midpoint",
                    "multipath_weight",
                    "antenna_bias",
                    "target_fix_probs",
                    "baseline_bias",
                    "baseline_target_fix_prob",
                    "float_fraction",
                },
                "fix_model",
            )
            fm_kwargs: dict[str, Any] = {}
            for key in (
                "steepness",
                "midpoint",
                "multipath_weight",
                "baseline_bias",
                "float_fraction",
            ):
                if key in fm:
                    fm_kwargs[key] = float(fm[key])
            if fm.get("antenna_bias") is not None:
                fm_kwargs["antenna_bias"] = tuple(float(b) for b in fm["antenna_bias"])
            if fm.get("target_fix_probs") is not None:
                fm_kwargs["target_fix_probs"] = tuple(
                    float(p) for p in fm["target_fix_probs"]
                )
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


def load_scenario(path: str) -> ScenarioConfig:
    return scenario_from_dict(_read_json_file(path))


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a scenario shipped with the package
    (``multipath``, ``fixrate`` or ``flight``)."""
    resource = importlib.resources.files("mgp").joinpath(f"scenarios/{name}.json")
    if not resource.is_file():
        raise InputError(f"no bundled scenario named {name!r}")
    return str(resource)


def load_calibration(path: str) -> MountCalibration:
    d = _read_json_file(path)
    try:
        return _mount_from(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"calibration config: {exc!r}") from exc


def load_reflectors(path: str) -> tuple[list[Vec3], float, int]:
    """Read truth reflector positions plus clustering parameters.

    Returns (positions, cluster_radius_m, min_hits).
    """
    d = _read_json_file(path)
    try:
        _check_keys(d, {"reflectors", "cluster_radius_m", "min_hits"}, "reflectors")
        positions = [_vec_from(p) for p in d["reflectors"]]
        radius = float(d.get("cluster_radius_m", 0.5))
        min_hits = int(d.get("min_hits", 10))
        return positions, radius, min_hits
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"reflector config: {exc!r}") from exc
