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
    truth attitude must have a norm within ``QUAT_READ_TOL`` of 1. The
    record types live in :mod:`mgp.epochs`; their whole line format is here.

    The reader decodes ``READ_BLOCK`` lines at a time. It parses each line
    and moves its leaves into lists that span the block, then type-checks
    and builds each field of the block in one pass; each epoch's arrays are
    slices of the block's. The truth channel is decoded the same way, into
    lists of its own: its attitudes, positions and satellite lists, the fix
    model values and the channel draws of all the block's requery records,
    each checked once; a block without truth leaves them empty. A block in
    which any check fails is decoded again one line at a time, by the same
    decoder on blocks of one, so that each fault is reported (or skipped)
    at its own ``path:line`` with the message it has in a lone epoch. A line
    that is not UTF-8 is such a fault; the scan, pose and cloud readers name
    its ``path:line`` too.
  * Scan stream: JSON Lines, header ``{"format": "mgp-scan", "version": 1}``
    then one frame per line; each pulse is a compact array
    ``[t, x, y, z, reflector01]`` in scanner-frame meters; in memory a
    :class:`ScanFrame` of (n, 4) ``[t, x, y, z]`` rows and (n,) bool flags.
  * Pose trajectory: CSV with header ``t,E,N,U,qx,qy,qz,qw,n_fix,att_available``;
    one row per processed epoch, cells left empty when the corresponding
    solution is unavailable; in memory a :class:`Poses` record of arrays
    with NaN rows for the empty cells. The reader wants finite, strictly
    increasing times, finite positions, quaternions of norm within
    ``QUAT_READ_TOL`` (:mod:`mgp.core`) of 1, a nonnegative ``n_fix``, and an
    ``att_available`` of 0 or 1, with the quaternion cells filled exactly
    when it is 1.

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
import itertools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator

import numpy as np

from . import jsonvals
from .attitude import Baselines
from .core import UnitQuaternion, Vec3, check_read_norm, unit_quats, utf8_fault
from .epochs import _DRAW_KEYS, ChannelDraws, EpochRecord, EpochTruth, FixModel, RequeryData
from .errors import InputError, ValidationError
from .mapping import (
    DEFAULT_CLUSTER_RADIUS_M,
    DEFAULT_MIN_HITS,
    MountCalibration,
    Poses,
    ScanFrame,
)
from .multipath import SnrTable
from .positioning import FIX_GRADES, Fixes

EPOCH_HEADER = {"format": "mgp-epoch", "version": 1}
SCAN_HEADER = {"format": "mgp-scan", "version": 1}
POSE_CSV_HEADER = "t,E,N,U,qx,qy,qz,qw,n_fix,att_available"
_PULSE_SHAPE = "each pulse must be five numbers [t, x, y, z, flag]"


_GRADE_NAMES = tuple(status.value for status in FIX_GRADES)
_GRADE_OF_NAME = {name: grade for grade, name in enumerate(_GRADE_NAMES)}


def epoch_to_dict(epoch: EpochRecord) -> dict[str, Any]:
    truth = None
    if epoch.truth is not None:
        tr = epoch.truth
        truth = {
            "position": tr.position.as_array().tolist(),
            "attitude": tr.attitude.as_array().tolist(),
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


# The numbers of one channel row in reading order: the two uniforms, then
# the three components of each latent vector.
_ROW_FIELDS = _DRAW_KEYS[:2] + tuple(k for k in _DRAW_KEYS[3:] for _ in range(3))
_FLOAT_MAX = sys.float_info.max
_DRAWS = "channel draws"
# The fix model's values in reading order, each one number.
_MODEL_VALUES = tuple(k for k in _MODEL_KEYS if k != "antenna_bias")
_UNIFORMS = operator.itemgetter(*_DRAW_KEYS[:2])
_LATENTS = operator.itemgetter(*_DRAW_KEYS[3:])
_WRONG = operator.itemgetter("wrong")


# Non-blank lines the epoch reader decodes at once. ``pipeline.run`` takes
# its front half over as many epochs, one reader block at a time. A block is
# held whole, so its size trades the fixed numpy calls per block against
# peak memory: on a 2-vCPU host, 64 ran the field-3ant benchmark about 5%
# faster than 32 but raised survey-6ant's peak RSS twice as much over
# per-epoch reading (2.6 MB against 1.4 MB).
READ_BLOCK = 32

# The steps of reading one epoch object, in the order a lone epoch's checks
# take them: each step looks its values up, then checks them. The truth
# channel's steps follow the record's fields; the fix model's values are
# looked up and checked one by one, so a missing one shows at _BIAS, once
# the values before it have been checked.
(_T, _FIXES, _STATUS, _P, _IDS, _SATS, _BASELINES, _PAIRS, _V, _W, _FIXED,
 _SNR_ROWS, _SNR, _SAT_IDS, _ATTITUDE, _CORRUPTED, _POSITION, _MP_SATS,
 _WRONG_ANTS, _MODEL, _BIAS, _ANT_LATENT, _ANT_DRAWS, _ANT_WRONG,
 _BL_LATENT, _BL_DRAWS, _BL_WRONG, _SOLUTION, _DONE) = range(29)

_NO_SNR = SnrTable((), np.empty((0, 0)))


class _Leaves:
    """The leaves of a block of epoch objects, field by field across the
    block, gathered one object at a time so that no parsed object outlives
    its line. The truth channel's leaves are gathered the same way, into
    lists of their own that a block without truth leaves empty.

    A lookup that fails (a missing key, a list where an object belongs)
    ends the gathering; :meth:`records` raises it after the checks of the
    steps before it, so that a block of one reports the fault a lone epoch's
    reader meets first.
    """

    def __init__(self) -> None:
        self.t: list[Any] = []
        self.grade: list[int | None] = []
        self.p: list[Any] = []
        self.ids: list[Any] = []
        self.sats: list[Any] = []
        self.pairs: list[Any] = []
        self.v: list[Any] = []
        self.w: list[Any] = []
        self.fixed: list[Any] = []
        self.snr: list[Any] = []
        self.sat_ids: list[Any] = []
        # per epoch: its fixes, baselines and SNR rows
        self.counts: tuple[list[int], list[int], list[int]] = ([], [], [])
        # per epoch whether it has a truth channel; per truth its leaves and
        # whether it has a requery record
        self.truth: list[bool] = []
        self.attitude: list[Any] = []
        self.corrupted: list[Any] = []
        self.position: list[Any] = []
        self.mp_sats: list[Any] = []
        self.wrong_ants: list[Any] = []
        self.requery: list[bool] = []
        # per requery record: its fix model values, antenna biases and
        # solution satellites; per channel group (antennas, then baselines)
        # its row count, and per row its uniforms, latents and wrong flag
        self.model: list[Any] = []
        self.bias: list[Any] = []
        self.solution: list[Any] = []
        self.rows: tuple[list[int], list[int]] = ([], [])
        self.uniforms: tuple[list[Any], list[Any]] = ([], [])
        self.latents: tuple[list[Any], list[Any]] = ([], [])
        self.wrong: tuple[list[Any], list[Any]] = ([], [])
        self.failed: tuple[int, BaseException | None] = (_DONE, None)

    def add(self, d: Any) -> bool:
        """Gather one epoch object; False once a lookup has failed."""
        n_fixes, n_baselines, n_snr = self.counts
        step = _T
        try:
            self.t.append(d["t"])
            step = _FIXES
            fixes = d["fixes"]
            step = _STATUS
            grade = [_GRADE_OF_NAME.get(f["status"]) for f in fixes]
            self.grade += grade
            n_fixes.append(len(grade))
            step = _P
            self.p += [f["p"] for f in fixes]
            step = _IDS
            self.ids += [f["antenna_id"] for f in fixes]
            step = _SATS
            self.sats += [f["sats_used"] for f in fixes]
            step = _BASELINES
            baselines = d["baselines"]
            step = _PAIRS
            pairs = [o["antenna_pair"] for o in baselines]
            self.pairs += pairs
            n_baselines.append(len(pairs))
            step = _V
            self.v += [o["v"] for o in baselines]
            step = _W
            self.w += [o["w"] for o in baselines]
            step = _FIXED
            self.fixed += [o["fixed"] for o in baselines]
            step = _SNR_ROWS
            rows = d["snr_rows"]
            step = _SNR
            snr = [r["snr"] for r in rows]
            self.snr += snr
            n_snr.append(len(snr))
            step = _SAT_IDS
            self.sat_ids += [r["sat_id"] for r in rows]
            step = _ATTITUDE
            tr = d.get("truth")
            self.truth.append(tr is not None)
            if tr is None:
                return True
            self.attitude.append(tr["attitude"])
            step = _CORRUPTED
            self.corrupted.append(tr["corrupted_baselines"])
            step = _POSITION
            self.position.append(tr["position"])
            step = _MP_SATS
            self.mp_sats.append(tr["multipath_sats"])
            step = _WRONG_ANTS
            self.wrong_ants.append(tr["wrong_fix_antennas"])
            step = _MODEL
            rq = tr["requery"]
            self.requery.append(rq is not None)
            if rq is None:
                return True
            model = rq["model"]
            step = _BIAS
            for key in _MODEL_VALUES:
                self.model.append(model[key])
            self.bias.append(model["antenna_bias"])
            for g, key in enumerate(("antenna_channels", "baseline_channels")):
                step = _ANT_LATENT + 3 * g
                channels = rq[key]
                self.latents[g].extend(map(_LATENTS, channels))
                step += 1
                self.uniforms[g].extend(map(_UNIFORMS, channels))
                step += 1
                self.wrong[g].extend(map(_WRONG, channels))
                self.rows[g].append(len(channels))
            step = _SOLUTION
            self.solution.append(rq["solution_sats"])
        except Exception as exc:
            self.failed = (step, exc)
            return False
        return True

    def _reached(self, step: int) -> None:
        """Raise the failed lookup once the checks before its step have run."""
        if self.failed[0] <= step:
            raise self.failed[1]

    def records(self) -> list[EpochRecord]:
        """Check every field of the block, each in one pass, and split it
        into one record per epoch whose arrays are slices of the block's."""
        self._reached(_T)
        ts = [jsonvals.number(t, "epoch time") for t in self.t]
        self._reached(_STATUS)
        if None in self.grade:
            raise ValidationError(f"fix status must be one of {_GRADE_NAMES}")
        self._reached(_P)
        solved = [p is not None for p in self.p]
        p = np.full((len(solved), 3), np.nan)
        p[solved] = jsonvals.floats([x for x in self.p if x is not None], "fix positions", 3)
        self._reached(_IDS)
        ids = jsonvals.integers(self.ids, "antenna ids")
        self._reached(_SATS)
        fixes = Fixes.checked(
            ids, np.array(self.grade, dtype=np.int8), p, jsonvals.integers(self.sats, "sats_used")
        )
        self._reached(_PAIRS)
        pairs = jsonvals.integers(self.pairs, "antenna pairs", 2)
        _check_unique_pairs(pairs, self.counts[1])
        self._reached(_V)
        v = jsonvals.floats(self.v, "baseline vectors", 3)
        self._reached(_W)
        w = jsonvals.floats(self.w, "baseline vectors", 3)
        self._reached(_FIXED)
        fixed = jsonvals.flags(self.fixed, "baseline fixed flags")
        baselines = Baselines.checked(pairs, v, w, fixed)
        self._reached(_SNR)
        # one width for the block; a block of epochs of several widths fails
        # here and is read again one line at a time
        width = len(self.snr[0]) if self.snr else 0
        self._reached(_SAT_IDS)
        snr = SnrTable.checked(
            jsonvals.strings(self.sat_ids, "satellite ids"),
            jsonvals.floats(self.snr, "SNR values", width, nulls=True),
        )
        truths = self._truths()
        return list(map(EpochRecord, ts, _split(fixes, self.counts[0]),
                        _split(baselines, self.counts[1]), _split_snr(snr, self.counts[2]),
                        truths))

    def _truths(self) -> list[EpochTruth | None]:
        """Each epoch's truth channel, or None; every field checked in one
        pass over the block's truths."""
        self._reached(_ATTITUDE)
        if not self.attitude:
            return [None] * len(self.truth)
        flat, counts = _joined(self.attitude, "truth attitude")
        attitude = jsonvals.floats(flat, "truth attitude")
        if set(counts) != {4}:
            raise ValidationError("quaternion needs 4 components")
        self._reached(_CORRUPTED)
        flat, n_corrupted = _joined(self.corrupted, "corrupted baselines")
        corrupted = jsonvals.integers(flat, "corrupted baselines", 2).tolist()
        self._reached(_POSITION)
        position = jsonvals.floats(self.position, "truth position", 3).tolist()
        attitude = attitude.reshape(-1, 4)
        for q in attitude.tolist():
            check_read_norm(q, "truth attitude")
        self._reached(_MP_SATS)
        flat, n_mp = _joined(self.mp_sats, "multipath satellites")
        mp_sats = jsonvals.strings(flat, "multipath satellites")
        self._reached(_WRONG_ANTS)
        flat, n_wrong = _joined(self.wrong_ants, "wrong-fix antennas")
        wrong_ants = jsonvals.integers(flat, "wrong-fix antennas").tolist()
        self._reached(_MODEL)
        requery = iter(self._requeries() if any(self.requery) else ())
        truths = iter([
            EpochTruth(
                position=Vec3(*pos),
                attitude=UnitQuaternion(*q),
                multipath_sats=frozenset(mp),
                corrupted_baselines=frozenset(map(tuple, pairs)),
                wrong_fix_antennas=frozenset(ants),
                requery=next(requery) if has_requery else None,
            )
            for pos, q, mp, pairs, ants, has_requery in zip(
                position, unit_quats(attitude, canonicalize=False).tolist(),
                _pieces(mp_sats, n_mp), _pieces(corrupted, n_corrupted),
                _pieces(wrong_ants, n_wrong), self.requery,
            )
        ])
        return [next(truths) if has_truth else None for has_truth in self.truth]

    def _requeries(self) -> list[RequeryData]:
        """The block's requery records, every field checked in one pass."""
        values = _numbers(self.model, "fix model values")
        self._reached(_BIAS)
        flat, n_bias = _joined(self.bias, "fix model values")
        models = _fix_models(values, jsonvals.floats(flat, "fix model values"), n_bias)
        groups = [self._draws(g) for g in range(2)]
        self._reached(_SOLUTION)
        flat, n_sats = _joined(self.solution, "solution_sats")
        sats = jsonvals.strings(flat, "solution_sats")
        return list(map(RequeryData, models, _pieces(sats, n_sats), *groups))

    def _draws(self, g: int) -> list[ChannelDraws]:
        """Each record's draws of channel group g (antennas, baselines)."""
        step = _ANT_LATENT + 3 * g
        self._reached(step)
        latents = list(itertools.chain.from_iterable(self.latents[g]))
        if not set(map(len, latents)) <= {3}:
            raise ValidationError("channel draws need 3 values per latent vector")
        self._reached(step + 1)
        try:
            u = jsonvals.floats(list(itertools.chain.from_iterable(self.uniforms[g])), _DRAWS)
            x = jsonvals.floats(list(itertools.chain.from_iterable(latents)), _DRAWS)
        except ValidationError:
            _raise_draw_fault(self.uniforms[g], self.latents[g])
            raise
        self._reached(step + 2)
        wrong = jsonvals.flags(self.wrong[g], "wrong-fix flags")
        u, x = u.reshape(-1, 2), x.reshape(-1, 9)
        return [
            ChannelDraws(u[a:b, 0], u[a:b, 1], wrong[a:b], x[a:b, :3], x[a:b, 3:6], x[a:b, 6:])
            for a, b in itertools.pairwise([0, *itertools.accumulate(self.rows[g])])
        ]


def _joined(values: list[Any], what: str) -> tuple[list[Any], list[int]]:
    """Per-epoch JSON arrays as one list, and the length of each."""
    if not all(type(v) is list for v in values):
        raise ValidationError(f"{what} must be a JSON array")
    return list(itertools.chain.from_iterable(values)), list(map(len, values))


def _pieces(values: Any, counts: list[int]) -> Iterator[Any]:
    """``values`` cut into consecutive runs of ``counts`` items."""
    start = 0
    for stop in itertools.accumulate(counts):
        yield values[start:stop]
        start = stop


def _numbers(values: list[Any], what: str) -> np.ndarray:
    """:func:`jsonvals.number` of each value, checked in one pass when all
    pass and one by one, for the first fault, when any fails."""
    try:
        return jsonvals.floats(values, what)
    except ValidationError:
        return np.array([jsonvals.number(x, what) for x in values])


def _fix_models(values: np.ndarray, bias: np.ndarray, counts: list[int]) -> list[FixModel]:
    """One fix model per record from its values and antenna biases; a record
    whose numbers equal the previous record's bit for bit shares its model."""
    models: list[FixModel] = []
    last = b""
    for row, b in zip(values.reshape(-1, len(_MODEL_VALUES)), _pieces(bias, counts)):
        key = row.tobytes() + b.tobytes()
        if key != last:
            named = dict(zip(_MODEL_VALUES, row.tolist()))
            model = FixModel(**named, antenna_bias=tuple(b.tolist()))
            last = key
        models.append(model)
    return models


def _raise_draw_fault(uniforms: list[Any], latents: list[Any]) -> None:
    """Raise the fault of a channel group's draw numbers as one check of
    them in row order (each row's uniforms, then its latent vectors) finds
    it, naming the field of the first bad number."""
    flat = [x for u, lat in zip(uniforms, latents) for x in (*u, *lat[0], *lat[1], *lat[2])]
    try:
        jsonvals.floats(flat, _DRAWS)
    except ValidationError as exc:
        k = next(
            k for k, x in enumerate(flat)
            if type(x) not in (int, float) or not -_FLOAT_MAX <= x <= _FLOAT_MAX
        )
        raise ValidationError(f"{_ROW_FIELDS[k % len(_ROW_FIELDS)]} {exc}") from exc


def _check_unique_pairs(pairs: np.ndarray, counts: list[int]) -> None:
    """Raise ValidationError when an epoch names one unordered antenna pair
    twice; ``counts`` holds each epoch's number of rows of ``pairs``."""
    lo, hi = np.sort(pairs, axis=1).T
    epoch = np.repeat(np.arange(len(counts)), counts)
    keys = np.stack((epoch, lo, hi))[:, np.lexsort((hi, lo, epoch))]
    if (keys[:, 1:] == keys[:, :-1]).all(axis=0).any():
        raise ValidationError("baseline antenna pairs must be unordered-unique")


def _split(record: Any, counts: list[int]) -> Iterator[Any]:
    """The record of arrays cut into consecutive runs of ``counts`` rows."""
    columns = [getattr(record, f.name) for f in fields(record)]
    start = 0
    for stop in itertools.accumulate(counts):
        yield type(record)(*[c[start:stop] for c in columns])
        start = stop


def _split_snr(snr: SnrTable, counts: list[int]) -> Iterator[SnrTable]:
    """Like :func:`_split`; an epoch without rows gets the (0, 0) table."""
    start = 0
    for stop in itertools.accumulate(counts):
        yield SnrTable(snr.sat_ids[start:stop], snr.dbhz[start:stop]) if stop > start else _NO_SNR
        start = stop


def _decode(objects: Iterable[Any]) -> list[EpochRecord]:
    """The epochs of a block of parsed epoch objects, checked as a block.
    Raises the first fault it finds, as :func:`epoch_from_dict` does."""
    leaves = _Leaves()
    for d in objects:
        if not leaves.add(d):
            break
    return leaves.records()


def epoch_from_dict(d: dict[str, Any]) -> EpochRecord:
    """Epoch from its JSON object form: the block decoder on a block of one.
    Raises InputError for a missing or structurally wrong field and
    ValidationError for a value of the wrong JSON type, shape or range."""
    try:
        return _decode([d])[0]
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


def _utf8(line: str) -> str:
    """A line of a file opened with ``errors="surrogateescape"``, which
    keeps each byte that is not UTF-8 as a lone surrogate; raise
    ValidationError if the line holds one."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(utf8_fault(exc)) from None
    return line


def _check_header(line: str, expected: dict[str, Any], path: str) -> None:
    try:
        header = jsonvals.loads(line)
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

    Lines are decoded in blocks of ``READ_BLOCK``; a block in which any
    check fails is decoded again one line at a time, so each fault is
    reported (or skipped) at its own line. With ``skip_malformed``, lines
    that are not UTF-8 or fail to parse or validate are skipped (recorded in
    ``diagnostics``) instead of aborting. A wrong header always aborts: that
    is the wrong file, not a bad epoch.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        first = f.readline()
        if not first:
            raise InputError(f"{path}: empty stream file")
        _check_header(first, EPOCH_HEADER, path)
        stripped = (line.strip() for line in f)
        lines = ((lineno, line) for lineno, line in enumerate(stripped, start=2) if line)
        while block := list(itertools.islice(lines, READ_BLOCK)):
            try:
                epochs = _decode(json.loads(_utf8(line)) for _, line in block)
            except Exception:
                # any fault: the lines below find and report it exactly
                epochs = None
            if epochs is not None:
                # hand the records out without keeping them or the lines, so
                # that one block's worth is alive at a time
                del block
                epochs.reverse()
                while epochs:
                    yield epochs.pop()
                continue
            for lineno, line in block:
                try:
                    epoch = epoch_from_dict(jsonvals.loads(_utf8(line)))
                except (json.JSONDecodeError, InputError, ValidationError, ValueError) as exc:
                    if skip_malformed:
                        if diagnostics is not None:
                            diagnostics.append(f"{path}:{lineno}: skipped epoch: {exc}")
                        continue
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
                yield epoch


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
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        first = f.readline()
        if not first:
            raise InputError(f"{path}: empty stream file")
        _check_header(first, SCAN_HEADER, path)
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                _utf8(line)
                # numpy would read a JSON true/false among numbers as 1.0/0.0;
                # a scan line holds only numbers, so either word is a boolean
                if "true" in line or "false" in line:
                    raise ValidationError("scan values must be numbers, not JSON booleans")
                yield _scan_frame(jsonvals.loads(line))
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc


def write_poses(path: str, poses: Poses) -> int:
    """Write a pose CSV, empty cells for NaN rows; returns the row count."""
    rows = zip(poses.t.tolist(), poses.p.tolist(), poses.q.tolist(), poses.n_fix.tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(POSE_CSV_HEADER + "\n")
        for t, p, q, n_fix in rows:
            has_q = not math.isnan(q[0])
            cells = [repr(t), *_csv_cells(p), *_csv_cells(q), str(n_fix), "1" if has_q else "0"]
            f.write(",".join(cells) + "\n")
    return len(poses)


def _csv_cells(row: list[float]) -> list[str]:
    return [""] * len(row) if math.isnan(row[0]) else [repr(c) for c in row]


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


def _pose_row(cells: list[str]) -> list[float]:
    """One row's ``[t, E, N, U, qx, qy, qz, qw, n_fix]``, NaN for empty cells."""
    t = _float_cell(cells[0])
    if not math.isfinite(t):
        raise ValidationError(f"pose timestamp must be finite, got {t!r}")
    p = _pose_cells(cells[1:4], "position")
    if p is not None and not all(map(math.isfinite, p)):
        raise ValidationError(f"position must be finite, got {tuple(p)}")
    q = _pose_cells(cells[4:8], "quaternion")
    if q is not None:
        check_read_norm(q, "quaternion")
    n_fix, att = cells[8], cells[9]
    if not (n_fix.isascii() and n_fix.isdigit()):
        raise ValidationError(f"n_fix must be a nonnegative integer, got {n_fix!r}")
    if len(n_fix) > 15:  # a float64 holds it exactly
        raise ValidationError(f"n_fix {n_fix} is too large")
    if att not in ("0", "1"):
        raise ValidationError(f"att_available must be 0 or 1, got {att!r}")
    if (att == "1") != (q is not None):
        raise ValidationError(f"att_available is {att} but the quaternion cells are "
                              f"{'empty' if q is None else 'filled'}")
    return [t, *(p or [math.nan] * 3), *(q or [math.nan] * 4), int(n_fix)]


def read_poses(path: str) -> Poses:
    """The poses of a pose CSV, each quaternion normalized. A row that breaks
    a rule of the module docstring raises InputError naming ``path:line``."""
    values: list[list[float]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        header = f.readline().rstrip("\n")
        if header != POSE_CSV_HEADER:
            raise InputError(f"{path}: unexpected CSV header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                cells = _utf8(line).split(",")
                if len(cells) != 10:
                    raise ValidationError(f"expected 10 cells, got {len(cells)}")
                row = _pose_row(cells)
                if values and not row[0] > values[-1][0]:
                    raise ValidationError(
                        f"pose timestamp {row[0]!r} is not after the previous {values[-1][0]!r}"
                    )
            except (ValueError, ValidationError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            values.append(row)
    data = np.array(values, dtype=np.float64).reshape(-1, 9)
    q = unit_quats(data[:, 4:8], canonicalize=False)
    return Poses.checked(data[:, 0], data[:, 1:4], q, data[:, 8].astype(np.int64))


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
