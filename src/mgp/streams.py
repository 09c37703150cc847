"""Every stream file format, plus the calibration and reflector loaders.

Formats:
  * Epoch stream: JSON Lines, header ``{"format": "mgp-epoch", "version": 1}``
    then one epoch object per line, one JSON object per fix, baseline and
    SNR row. In memory an :class:`EpochRecord` holds them as arrays: a
    :class:`Fixes` record (ids, grades, (n, 3) positions with NaN rows for
    no solution, satellite counts), a :class:`Baselines` record ((m, 2)
    pairs, (m, 3) ``v`` and ``w``, (m,) ``fixed``) and an :class:`SnrTable`
    ((s, n) dB-Hz, NaN for a JSON null, plus the satellite ids). The reader
    checks every value's JSON type, so ``1.7`` is no antenna id and ``"no"``
    no ``fixed`` flag. The truth channel's ``requery`` block holds the fix
    model's values, the solution satellites and one object per antenna or
    baseline channel; in memory it is a :class:`RequeryData` of arrays. The
    record types live in :mod:`mgp.epochs`; their whole line format is here.
  * Scan stream: JSON Lines, header ``{"format": "mgp-scan", "version": 1}``
    then one frame per line; each pulse is a compact array
    ``[t, x, y, z, reflector01]`` in scanner-frame meters; in memory a
    :class:`ScanFrame` of (n, 4) ``[t, x, y, z]`` rows and (n,) bool flags.
  * Pose trajectory: CSV with header ``t,E,N,U,qx,qy,qz,qw,n_fix,att_available``;
    one row per processed epoch, cells left empty when the corresponding
    solution is unavailable. The reader wants strictly increasing times, a
    nonnegative ``n_fix``, an ``att_available`` of 0 or 1, and quaternion
    cells filled exactly when it is 1.

All floats are serialized with Python repr (shortest round-trip), so a
read/write cycle is byte-stable and exact-inverse tests can run through
files. Stream readers raise InputError naming ``path:line`` for any
malformed line. The config loaders (calibration and reflectors here, the
scenario in :mod:`mgp.simulator` and the pipeline config in
:mod:`mgp.pipeline`) all decode through :func:`jsonvals.decode`, which
reads each key by its config dataclass field: a value of the wrong JSON
type, a missing required key or an unknown key raises ConfigurationError,
while a value out of range raises the constructors' ValidationError. Every
message starts with the file path and the dotted key path, e.g. ``s.json:
scenario: noise.snr.floor_dbhz must be a number, got '30'``. Invalid JSON is
an InputError.
"""
from __future__ import annotations

import importlib.resources
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from . import jsonvals
from .attitude import Baselines
from .core import UnitQuaternion, Vec3
from .epochs import _DRAW_KEYS, ChannelDraws, EpochRecord, EpochTruth, FixModel, RequeryData
from .errors import InputError, ValidationError
from .mapping import (
    DEFAULT_CLUSTER_RADIUS_M,
    DEFAULT_MIN_HITS,
    MountCalibration,
    Pose,
    ScanFrame,
)
from .multipath import SnrTable
from .positioning import FIX_GRADES, Fixes

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

    @property
    def att_available(self) -> bool:
        return self.q is not None

    def pose(self) -> Pose | None:
        if self.p is None or self.q is None:
            return None
        return Pose(t=self.t, p=self.p, q=self.q)


def _vec(v: Vec3) -> list[float]:
    return [v.x, v.y, v.z]


def _quat(q: UnitQuaternion) -> list[float]:
    return [q.qx, q.qy, q.qz, q.qw]


_GRADE_NAMES = tuple(status.value for status in FIX_GRADES)
_GRADE_OF_NAME = {name: grade for grade, name in enumerate(_GRADE_NAMES)}


def epoch_to_dict(epoch: EpochRecord) -> dict[str, Any]:
    truth = None
    if epoch.truth is not None:
        tr = epoch.truth
        truth = {
            "position": _vec(tr.position),
            "attitude": _quat(tr.attitude),
            "multipath_sats": sorted(tr.multipath_sats),
            "corrupted_baselines": sorted(list(p) for p in tr.corrupted_baselines),
            "wrong_fix_antennas": sorted(tr.wrong_fix_antennas),
            "requery": _requery_to_dict(tr.requery) if tr.requery is not None else None,
        }
    fx, bl, snr = epoch.fixes, epoch.baselines, epoch.snr_rows
    snr_values = snr.dbhz.tolist()
    if np.isnan(snr.dbhz).any():
        snr_values = [[None if x != x else x for x in row] for row in snr_values]
    return {
        "t": epoch.t,
        "fixes": [
            {
                "antenna_id": i,
                "status": _GRADE_NAMES[g],
                "p": p if g else None,
                "sats_used": n,
            }
            for i, g, p, n in zip(
                fx.ids.tolist(), fx.grade.tolist(), fx.p.tolist(), fx.sats_used.tolist()
            )
        ],
        "baselines": [
            {"antenna_pair": pair, "v": v, "w": w, "fixed": fixed}
            for pair, v, w, fixed in zip(
                bl.pairs.tolist(), bl.v.tolist(), bl.w.tolist(), bl.fixed.tolist()
            )
        ],
        "snr_rows": [
            {"sat_id": sat, "snr": row} for sat, row in zip(snr.sat_ids, snr_values)
        ],
        "truth": truth,
    }


def _fixes_from(items: list[dict[str, Any]]) -> Fixes:
    grade = [_GRADE_OF_NAME.get(f["status"]) for f in items]
    if None in grade:
        raise ValidationError(f"fix status must be one of {_GRADE_NAMES}")
    p = np.full((len(items), 3), np.nan)
    solved = [f["p"] is not None for f in items]
    p[solved] = jsonvals.floats([f["p"] for f in items if f["p"] is not None], "fix positions", 3)
    return Fixes.checked(
        jsonvals.integers([f["antenna_id"] for f in items], "antenna ids"),
        np.array(grade, dtype=np.int8),
        p,
        jsonvals.integers([f["sats_used"] for f in items], "sats_used"),
    )


def _baselines_from(items: list[dict[str, Any]]) -> Baselines:
    pairs = jsonvals.integers([o["antenna_pair"] for o in items], "antenna pairs", 2)
    if len({(min(a, b), max(a, b)) for a, b in pairs.tolist()}) != len(pairs):
        raise ValidationError("baseline antenna pairs must be unordered-unique")
    return Baselines.checked(
        pairs,
        jsonvals.floats([o["v"] for o in items], "baseline vectors", 3),
        jsonvals.floats([o["w"] for o in items], "baseline vectors", 3),
        jsonvals.flags([o["fixed"] for o in items], "baseline fixed flags"),
    )


def _snr_from(items: list[dict[str, Any]]) -> SnrTable:
    rows = [r["snr"] for r in items]
    width = len(rows[0]) if rows else 0
    return SnrTable.checked(
        jsonvals.strings([r["sat_id"] for r in items], "satellite ids"),
        jsonvals.floats(rows, "SNR values", width, nulls=True),
    )


_MODEL_KEYS = (
    "steepness", "midpoint", "multipath_weight", "antenna_bias", "baseline_bias", "float_fraction"
)


def _requery_to_dict(req: RequeryData) -> dict[str, Any]:
    """The record's JSON form: the model's values, the satellites and one
    object per channel, floats as Python floats and ``wrong`` a bool."""
    model = {k: getattr(req.model, k) for k in _MODEL_KEYS}
    model["antenna_bias"] = list(model["antenna_bias"])
    out: dict[str, Any] = {"model": model, "solution_sats": list(req.solution_sats)}
    for key in ("antenna_channels", "baseline_channels"):
        cols = [getattr(getattr(req, key), k).tolist() for k in _DRAW_KEYS]
        out[key] = [dict(zip(_DRAW_KEYS, row)) for row in zip(*cols)]
    return out


def _requery_from_dict(d: dict[str, Any]) -> RequeryData:
    """Inverse of :func:`_requery_to_dict`; every value must have its JSON
    type (a number, a boolean ``wrong``, string satellites)."""
    md = d["model"]
    what = "fix model values"
    model = FixModel(
        **{k: jsonvals.number(md[k], what) for k in _MODEL_KEYS if k != "antenna_bias"},
        antenna_bias=tuple(jsonvals.floats(md["antenna_bias"], what).tolist()),
    )
    groups = [_draws_from(d[key]) for key in ("antenna_channels", "baseline_channels")]
    return RequeryData(model, jsonvals.strings(d["solution_sats"], "solution_sats"), *groups)


# The numbers of one channel row in reading order: the two uniforms, then
# the three components of each latent vector.
_ROW_FIELDS = _DRAW_KEYS[:2] + tuple(k for k in _DRAW_KEYS[3:] for _ in range(3))
_FLOAT_MAX = sys.float_info.max


def _draws_from(rows: Any) -> ChannelDraws:
    """One channel group from its JSON rows: the numbers of every row are
    type-checked in one pass and read into one (n, 11) array, whose columns
    the draws view, and checked finite once."""
    # a latent of another type but length 3 fails the number check below
    if not set(map(len, [row[k] for row in rows for k in _DRAW_KEYS[3:]])) <= {3}:
        raise ValidationError("channel draws need 3 values per latent vector")
    flat = [
        x
        for row in rows
        for x in (row["u_fix"], row["u_float"], *row["latent_fixed"], *row["latent_float"],
                  *row["wrong_offset"])
    ]
    try:
        values = jsonvals.floats(flat, "channel draws").reshape(len(rows), len(_ROW_FIELDS))
    except ValidationError as exc:
        # name the field of the first offending number
        k = next(
            k for k, x in enumerate(flat)
            if type(x) not in (int, float) or not -_FLOAT_MAX <= x <= _FLOAT_MAX
        )
        raise ValidationError(f"{_ROW_FIELDS[k % len(_ROW_FIELDS)]} {exc}") from exc
    return ChannelDraws(
        values[:, 0],
        values[:, 1],
        jsonvals.flags([row["wrong"] for row in rows], "wrong-fix flags"),
        values[:, 2:5],
        values[:, 5:8],
        values[:, 8:11],
    )


def _truth_from(tr: dict[str, Any]) -> EpochTruth:
    attitude = jsonvals.floats(tr["attitude"], "truth attitude")
    if attitude.shape != (4,):
        raise ValidationError("quaternion needs 4 components")
    pairs = jsonvals.integers(tr["corrupted_baselines"], "corrupted baselines", 2)
    return EpochTruth(
        position=Vec3(*jsonvals.floats([tr["position"]], "truth position", 3)[0].tolist()),
        attitude=UnitQuaternion.from_array(attitude, canonicalize=False),
        multipath_sats=frozenset(jsonvals.strings(tr["multipath_sats"], "multipath satellites")),
        corrupted_baselines=frozenset(map(tuple, pairs.tolist())),
        wrong_fix_antennas=frozenset(
            jsonvals.integers(tr["wrong_fix_antennas"], "wrong-fix antennas").tolist()
        ),
        requery=_requery_from_dict(tr["requery"]) if tr["requery"] is not None else None,
    )


def epoch_from_dict(d: dict[str, Any]) -> EpochRecord:
    """Epoch from its JSON object form. Raises InputError for a missing or
    structurally wrong field and ValidationError for a value of the wrong
    JSON type, shape or range."""
    try:
        return EpochRecord(
            t=jsonvals.number(d["t"], "epoch time"),
            fixes=_fixes_from(d["fixes"]),
            baselines=_baselines_from(d["baselines"]),
            snr_rows=_snr_from(d["snr_rows"]),
            truth=_truth_from(d["truth"]) if d.get("truth") is not None else None,
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
    t = jsonvals.number(d["t"], "frame time")
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
                # numpy would read a JSON true/false among numbers as 1.0/0.0;
                # a scan line holds only numbers, so either word is a boolean
                if "true" in line or "false" in line:
                    raise ValidationError("scan values must be numbers, not JSON booleans")
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


# A float as ``repr`` writes it; ``float()`` alone would also take "1_0"
# (10.0) and padding.
_FLOAT_CELL = re.compile(r"-?(\d+(\.\d*)?(e[-+]?\d+)?|inf)|nan")


def _float_cell(cell: str) -> float:
    if not _FLOAT_CELL.fullmatch(cell):
        raise ValidationError(f"{cell!r} is not a number")
    return float(cell)


def _pose_cells(cells: list[str], what: str) -> list[float] | None:
    """A position or quaternion cell group: all empty, or all numbers."""
    if not any(cells):
        return None
    if not all(cells):
        raise ValidationError(f"{what} cells must be all empty or all filled")
    return [_float_cell(c) for c in cells]


def _pose_row(cells: list[str]) -> PoseRow:
    t = _float_cell(cells[0])
    if not math.isfinite(t):
        raise ValidationError(f"pose timestamp must be finite, got {t!r}")
    p = _pose_cells(cells[1:4], "position")
    q = _pose_cells(cells[4:8], "quaternion")
    n_fix, att = cells[8], cells[9]
    if not (n_fix.isascii() and n_fix.isdigit()):
        raise ValidationError(f"n_fix must be a nonnegative integer, got {n_fix!r}")
    if att not in ("0", "1"):
        raise ValidationError(f"att_available must be 0 or 1, got {att!r}")
    if (att == "1") != (q is not None):
        raise ValidationError(f"att_available is {att} but the quaternion cells are "
                              f"{'empty' if q is None else 'filled'}")
    return PoseRow(
        t=t,
        p=None if p is None else Vec3(*p),
        q=None if q is None else UnitQuaternion.from_array(q, canonicalize=False),
        n_fix=int(n_fix),
    )


def read_poses(path: str) -> list[PoseRow]:
    """Rows of a pose CSV. Times must increase strictly, ``n_fix`` is a
    nonnegative integer, ``att_available`` is 0 or 1 and the quaternion cells
    are filled exactly when it is 1; any other row raises InputError naming
    ``path:line``."""
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
                row = _pose_row(cells)
                if rows and not row.t > rows[-1].t:
                    raise ValidationError(
                        f"pose timestamp {row.t!r} is not after the previous {rows[-1].t!r}"
                    )
                rows.append(row)
            except (ValueError, ValidationError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    return rows


def poses_for_georef(rows: Iterable[PoseRow]) -> list[Pose]:
    """Keep only rows carrying both a position and an attitude."""
    return [pose for pose in map(PoseRow.pose, rows) if pose is not None]


def write_json(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, indent=2) + "\n")


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a scenario shipped with the package
    (``multipath``, ``fixrate`` or ``flight``)."""
    resource = importlib.resources.files("mgp").joinpath(f"scenarios/{name}.json")
    if not resource.is_file():
        raise InputError(f"no bundled scenario named {name!r}")
    return str(resource)


def load_calibration(path: str) -> MountCalibration:
    return jsonvals.load(MountCalibration, path, "calibration")


@dataclass(frozen=True)
class _ReflectorSurvey:
    """The JSON form of a reflector file."""

    reflectors: tuple[Vec3, ...]
    cluster_radius_m: float = DEFAULT_CLUSTER_RADIUS_M
    min_hits: int = DEFAULT_MIN_HITS


def load_reflectors(path: str) -> tuple[list[Vec3], float, int]:
    """Read truth reflector positions plus clustering parameters.

    Returns (positions, cluster_radius_m, min_hits).
    """
    survey = jsonvals.load(_ReflectorSurvey, path, "reflectors")
    return list(survey.reflectors), survey.cluster_radius_m, survey.min_hits
