"""Every stream file format, plus the calibration and reflector loaders.

Formats:
  * Epoch stream: JSON Lines, a header then one epoch object per line, one
    JSON object per fix, baseline and SNR row. In memory they are arrays: a
    :class:`Fixes` record (ids, grades, (n, 3) positions with NaN rows for
    no solution, satellite counts), a :class:`Baselines` record ((m, 2)
    pairs, (m, 3) ``v`` and ``w``, (m,) ``fixed``) and an :class:`SnrTable`
    ((s, n) dB-Hz, NaN for a JSON null, plus the satellite ids), a block
    of epochs' in an :class:`EpochBlock`, a single epoch's in a block of
    one. The reader checks every value's JSON type, so ``1.7`` is no
    antenna id and ``"no"`` no ``fixed`` flag. The truth attitude must
    have a norm within ``QUAT_READ_TOL`` of 1; the true pose is kept as
    written. The record types live in :mod:`mgp.epochs`; their whole line
    format is here.

    The header, ``{"format": "mgp-epoch", "version": 3, "layout":
    {"body_positions": [...]}, "requery": ...}``, holds the stream's antenna
    layout (a baseline row's ``w`` is the layout's baseline of its pair)
    and requery constants (a :class:`RequeryStream` or null) once, decoded
    like a config with every key required. A version 1 or 2 stream is not
    read, nor one whose constants another numpy wrote: a fault of line 1.
    An epoch's ``truth.requery`` is null or ``{"state": s, "uint32": u}``,
    the PCG64 state before its first draw, s in [0, 2**128) and u in [0,
    2**32) or null; a state without the header's constants is a fault of
    its line. A block holds the header's layout and constants; the writer
    writes the first block's into the header and refuses a block of others.

    The reader parses each line once and decodes ``READ_BLOCK`` parsed
    lines at a time into one :class:`EpochBlock`, one field after another
    in one fixed order for the whole line: each field is looked up in every
    line of the block, then type-checked and built in one pass, and stays
    one array for the block. The truth channel and its requery states are
    read the same way, after the SNR rows, and kept per epoch; a block
    without truth pays nothing for them. ``fixes``, ``baselines``,
    ``snr_rows`` and the truth lists must be JSON arrays, and so must each
    row of a fixed width (a position, vector, antenna pair, SNR row of one
    value per layout antenna, or quaternion); the line and each object in
    it must be a JSON object (``fixes must be JSON objects``). Every key but
    the line's ``truth`` is required, and any other key is a fault; either
    is named with the object it is missing from or found in (``missing key
    'v' in baselines``, ``unknown key 'truht'`` on the line itself). Every
    antenna id of a fix or pair must be one of the header layout's, and an
    epoch names each antenna's fix, each pair and each satellite's SNR row
    once. The reader is the one place that decides whether an epoch is
    valid: ``pipeline.run`` skips none but a late one. A line
    that is not UTF-8 or not JSON is set aside as a fault (the scan, pose
    and cloud readers name its ``path:line`` too), as is one longer than
    ``MAX_EPOCH_LINE`` characters, unparsed; if the block of the
    others fails, each is decoded alone, so that each fault is reported (or
    skipped) at its own ``path:line`` with the message of its first failing
    lookup or check. The reader's blocks, and the blocks the writer turns
    into text, go through :func:`ordered.ordered_map`, so they are shared
    with a forked worker (one per process); the blocks, faults and bytes
    are those of one process, in stream order. :func:`epoch_block_calls`
    gives them undecoded, as calls, which ``pipeline.run`` maps with the rest
    of each block's work; :func:`read_epochs`, one epoch at a time.
  * Scan stream: JSON Lines, header ``{"format": "mgp-scan", "version": 1}``
    then one frame per line, a JSON object of the keys ``t`` and ``pulses``
    read by the epoch-line rules; each pulse is a compact array
    ``[t, x, y, z, reflector01]`` in scanner-frame meters; in memory a
    :class:`ScanFrame` of (n, 4) ``[t, x, y, z]`` rows and (n,) bool flags.
    The writer shares its items, frames or calls that make a block of them,
    with a worker like the epoch writer, so a block is made where it is encoded.
  * Pose trajectory: CSV with header ``t,E,N,U,qx,qy,qz,qw,n_fix,att_available``;
    one row per processed epoch, cells left empty when the corresponding
    solution is unavailable; in memory a :class:`Poses` record of arrays
    with NaN rows for the empty cells. The reader wants numbers as ``repr``
    writes them, in ASCII digits, finite, strictly increasing times, finite
    positions, quaternions of norm within ``QUAT_READ_TOL`` (:mod:`mgp.core`)
    of 1, a nonnegative ``n_fix``, and an ``att_available`` of 0 or 1, with
    the quaternion cells filled exactly when it is 1.
  * Point cloud: ``.xyz`` text, one ``E N U flag`` line per point, or
    ``.bin``, one unpadded 25-byte ``<dddB`` record per point; the suffix
    picks the format (:func:`cloud_suffix`). In memory a :class:`Cloud`.

Every text file is opened by :func:`core.open_text`, which reads "\\r\\n" and
"\\r" line ends as "\\n", and each line, a header too, is checked by
:func:`core.utf8_line` before any whitespace is stripped (the configs by
:func:`core.read_utf8`). A stream or pose file header longer than
``MAX_EPOCH_LINE`` characters is a fault of line 1, named ``path:1``, as is a
stream header that is blank, not JSON, not the format's header or of a version
that is not a JSON integer (``true`` and ``1.0`` are none); a longer pose line
is a fault named ``path:line``, and the pose reader reads no further. The scan
and a .xyz cloud are read in chunks of whole lines, each ending at the line that
takes it past :data:`CHUNK` characters, a .bin cloud in blocks of the whole
records of ``CHUNK`` bytes; each chunk carries the number of its first line or
record.

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

import functools
import importlib.resources
import itertools
import json
import math
import os
import re
from contextlib import closing, contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import jsonvals
from .attitude import Baselines
from .core import AntennaLayout, Vec3, check_read_norm, first_repeat, open_text, unit_quats
from .core import utf8_line
from .epochs import EPOCH_BLOCK, EpochBlock, EpochTruth, RequeryStream
from .epochs import epoch_of_rows, offsets
from .errors import ConfigurationError, InputError, ValidationError
from .mapping import (
    DEFAULT_CLUSTER_RADIUS_M,
    DEFAULT_MIN_HITS,
    Cloud,
    MountCalibration,
    Poses,
    ScanFrame,
    check_survey,
)
from .multipath import SnrTable
from .ordered import ordered_map
from .positioning import FIX_GRADES, Fixes

EPOCH_HEADER = {"format": "mgp-epoch", "version": 3}
SCAN_HEADER = {"format": "mgp-scan", "version": 1}
POSE_CSV_HEADER = "t,E,N,U,qx,qy,qz,qw,n_fix,att_available"
# Chunk size of the chunked readers (module docstring): georef and evaluate
# hold a few chunks, whatever the flight length or frame size.
CHUNK = 1 << 18

# One .bin cloud record: E, N, U as little-endian float64, then the flag
# byte; 25 bytes, unpadded (the struct layout "<dddB").
_BIN_RECORD = np.dtype([("p", "<f8", (3,)), ("flag", "u1")])


_GRADE_NAMES = tuple(status.value for status in FIX_GRADES)
_GRADE_OF_NAME = {name: grade for grade, name in enumerate(_GRADE_NAMES)}


# The keys of each object of an epoch line; all are required but the
# line's own ``truth``.
_EPOCH_KEYS = ("t", "fixes", "baselines", "snr_rows", "truth")
_FIX_KEYS = ("antenna_id", "status", "p", "sats_used")
_BASELINE_KEYS = ("antenna_pair", "v", "fixed")
_TRUTH_KEYS = ("position", "attitude", "multipath_sats", "corrupted_baselines",
               "wrong_fix_antennas", "requery")
_REQUERY_KEYS = ("state", "uint32")


@dataclass(frozen=True)
class _EpochHeader:
    """The JSON form of an epoch stream's header line, but its format and version."""

    layout: AntennaLayout
    requery: RequeryStream | None

    def __post_init__(self) -> None:
        n = self.layout.antenna_count
        if self.requery is not None and len(self.requery.model.antenna_bias or ()) != n:
            raise ValidationError(f"requery: antenna_bias needs one entry per antenna ({n})")


# Non-blank lines the epoch reader decodes at once.
READ_BLOCK = EPOCH_BLOCK
# The longest epoch line the reader parses, in characters: 67 times the
# longest bundled line (3.9 kB, six antennas), room for 66 antennas' 2,145 baselines.
MAX_EPOCH_LINE = 1 << 18


def _decode(objects: list[Any], lines: Sequence[int], header: _EpochHeader) -> EpochBlock:
    """The block of parsed epoch objects, object k read from line
    ``lines[k]`` of a stream of the ``header``, one field at a time, always
    in the same order: each field is looked up in every object, then
    checked in one pass. The first lookup or check that fails raises, so a
    block raises exactly when one of its epochs would alone, and a block of
    one its first fault."""
    _objects(objects, "epoch line must be a JSON object")
    ts = [jsonvals.number(t, "epoch time") for t in _column(objects, "t", "")]
    fixes, fix_ends = _joined(_column(objects, "fixes", ""), "fixes")
    _objects(fixes, "fixes must be JSON objects")
    try:
        grade = [_GRADE_OF_NAME[f["status"]] for f in fixes]
    except (KeyError, TypeError):
        # the first fix without a known status names the fault, in fix order
        bad = next(f for f in fixes if type(f.get("status")) is not str
                   or f["status"] not in _GRADE_OF_NAME)
        _column([bad], "status", " in fixes")
        raise ValidationError(f"fix status must be one of {_GRADE_NAMES}") from None
    given = _column(fixes, "p", " in fixes")
    p = np.full((len(given), 3), np.nan)
    p[[x is not None for x in given]] = jsonvals.floats(
        [x for x in given if x is not None], "fix positions", 3
    )
    ids = jsonvals.integers(_column(fixes, "antenna_id", " in fixes"), "antenna ids")
    sats = jsonvals.integers(_column(fixes, "sats_used", " in fixes"), "sats_used")
    _check_keys(fixes, _FIX_KEYS, " in fixes")
    fx = Fixes.checked(ids, np.array(grade, dtype=np.int8), p, sats)
    n = header.layout.antenna_count
    _check_in_layout(ids, n)
    _check_unique(ids, fix_ends, "duplicate solution for antenna {}", ids)

    baselines, baseline_ends = _joined(_column(objects, "baselines", ""), "baselines")
    _objects(baselines, "baselines must be JSON objects")
    pairs = jsonvals.integers(_column(baselines, "antenna_pair", " in baselines"),
                              "antenna pairs", 2)
    _check_unique(np.sort(pairs, axis=1), baseline_ends,
                  "baseline antenna pairs must be unordered-unique")
    _check_in_layout(pairs, n)
    v = jsonvals.floats(_column(baselines, "v", " in baselines"), "baseline vectors", 3)
    fixed = jsonvals.flags(_column(baselines, "fixed", " in baselines"), "baseline fixed flags")
    _check_keys(baselines, _BASELINE_KEYS, " in baselines")
    body = header.layout.positions
    bl = Baselines.checked(pairs, v, body[pairs[:, 1] - 1] - body[pairs[:, 0] - 1], fixed)

    rows, snr_ends = _joined(_column(objects, "snr_rows", ""), "snr_rows")
    _objects(rows, "snr_rows must be JSON objects")
    snr = _column(rows, "snr", " in snr_rows")
    sat_ids = jsonvals.strings(_column(rows, "sat_id", " in snr_rows"), "satellite ids")
    _check_keys(rows, ("sat_id", "snr"), " in snr_rows")
    # one value per layout antenna in each row (a row that is no array fails below)
    if odd := [k for k, r in enumerate(snr) if type(r) is list and len(r) != n]:
        k = odd[0]
        raise ValidationError(f"SNR row {sat_ids[k]} has {len(snr[k])} columns (layout has {n})")
    table = SnrTable.checked(sat_ids, jsonvals.floats(snr, "SNR values", n, nulls=True))
    code: dict[str, int] = {}  # satellite id -> its number in the block
    sat = np.array([code.setdefault(s, len(code)) for s in sat_ids], dtype=np.int64)
    _check_unique(sat, snr_ends, "duplicate SNR row for satellite {}", sat_ids)

    truth = [d.get("truth") for d in objects]
    _check_keys(objects, _EPOCH_KEYS, "", 4 * len(objects) + sum("truth" in d for d in objects))
    truths = iter(_truths([tr for tr in truth if tr is not None], header.requery))
    return EpochBlock(
        np.array(ts, dtype=np.float64), np.array(lines, dtype=np.int64),
        fx, fix_ends, bl, baseline_ends, table, snr_ends,
        tuple(None if tr is None else next(truths) for tr in truth), header.layout, header.requery,
    )


def _truths(objects: list[Any], stream: RequeryStream | None) -> list[EpochTruth]:
    """The truth channels of a block, read field by field like its epochs,
    in a stream whose header holds the requery constants ``stream``."""
    if not objects:
        return []
    _objects(objects, "truth must be a JSON object or null")
    attitude = jsonvals.floats(_column(objects, "attitude", " in truth"), "truth attitude", 4)
    flat, corrupted_ends = _joined(_column(objects, "corrupted_baselines", " in truth"),
                                "corrupted baselines")
    corrupted = jsonvals.integers(flat, "corrupted baselines", 2).tolist()
    position = jsonvals.floats(_column(objects, "position", " in truth"),
                               "truth position", 3).tolist()
    for q in attitude.tolist():
        check_read_norm(q, "truth attitude")
    flat, mp_ends = _joined(_column(objects, "multipath_sats", " in truth"), "multipath satellites")
    mp_sats = jsonvals.strings(flat, "multipath satellites")
    flat, wrong_ends = _joined(_column(objects, "wrong_fix_antennas", " in truth"),
                            "wrong-fix antennas")
    wrong_ants = jsonvals.integers(flat, "wrong-fix antennas").tolist()
    records = _column(objects, "requery", " in truth")
    _check_keys(objects, _TRUTH_KEYS, " in truth")
    given = _objects([rq for rq in records if rq is not None],
                     "requery must be a JSON object or null")
    states = list(zip(*(_column(given, key, " in requery") for key in _REQUERY_KEYS)))
    _check_keys(given, _REQUERY_KEYS, " in requery")
    if given and stream is None:
        raise ValidationError("requery state without requery constants in the stream header")
    for state, uint32 in states:
        if type(state) is not int or not 0 <= state < 2**128:
            raise ValidationError(f"requery state must be an integer in [0, 2**128), got {state!r}")
        if uint32 is not None and (type(uint32) is not int or not 0 <= uint32 < 2**32):
            raise ValidationError(
                f"requery uint32 must be null or an integer in [0, 2**32), got {uint32!r}")
    found = iter(states)
    return [
        EpochTruth(tuple(pos), tuple(q), frozenset(mp), frozenset(map(tuple, pairs)),
                   frozenset(ants), None if rq is None else next(found))
        for pos, q, mp, pairs, ants, rq in zip(
            position, attitude.tolist(), _pieces(mp_sats, mp_ends),
            _pieces(corrupted, corrupted_ends), _pieces(wrong_ants, wrong_ends), records)
    ]


def _column(objects: list[Any], key: str, where: str) -> list[Any]:
    """Each JSON object's value of ``key``, or ValidationError naming the
    key as :func:`_check_keys` names an unknown one."""
    try:
        return [obj[key] for obj in objects]
    except KeyError:
        raise ValidationError(f"missing key {key!r}{where}") from None


def _joined(values: list[Any], what: str) -> tuple[list[Any], list[int]]:
    """Per-epoch JSON arrays as one list, and their row :func:`offsets`."""
    if not all(type(v) is list for v in values):
        raise ValidationError(f"{what} must be a JSON array")
    return list(itertools.chain.from_iterable(values)), offsets(map(len, values))


def _objects(values: list[Any], message: str) -> list[Any]:
    """``values``, each a JSON object, or ValidationError with ``message``."""
    if not set(map(type, values)) <= {dict}:
        raise ValidationError(message)
    return values


def _pieces(values: Any, ends: list[int]) -> Iterator[Any]:
    """``values`` cut at the row :func:`offsets` ``ends``."""
    return (values[a:b] for a, b in zip(ends, ends[1:]))


def _check_keys(objects: list[Any], keys: tuple[str, ...], where: str,
                count: int | None = None) -> None:
    """Raise ValidationError naming the first key of the JSON ``objects``
    that is not one of ``keys``. Called once every key has been looked up,
    so the objects hold no other key exactly when they hold ``count`` keys
    in all, by default each all of ``keys``; only then is one searched for."""
    if sum(map(len, objects)) != (len(keys) * len(objects) if count is None else count):
        key = next(k for obj in objects for k in obj if k not in keys)
        raise ValidationError(f"unknown key {key!r}{where}")


def _check_in_layout(ids: np.ndarray, n: int) -> None:
    """Raise ValidationError naming the first antenna id of ``ids``, in row
    order, that a layout of ``n`` antennas has no entry for."""
    if (stray := ids[(ids < 1) | (ids > n)]).size:
        raise ValidationError(f"antenna {stray[0]} has no layout entry (layout has {n})")


def _check_unique(keys: np.ndarray, ends: list[int], message: str,
                  names: Sequence[Any] = ()) -> None:
    """Raise ValidationError ``message`` when an epoch holds one row of the
    (r,) or (r, m) integer ``keys`` twice; ``ends`` holds the epochs' row
    :func:`offsets`. The ``{}`` of ``message`` is the first repeat, in row
    order, of the first such epoch's row ``names``."""
    rows = np.column_stack((epoch_of_rows(ends), keys))
    rows = rows[np.lexsort(rows.T[::-1])]
    if (repeats := (rows[1:] == rows[:-1]).all(axis=1)).any():
        k = rows[repeats.argmax(), 0]
        raise ValidationError(message.format(first_repeat(names[ends[k]:ends[k + 1]])))


def _epoch_lines(first: EpochBlock, block: EpochBlock) -> list[str]:
    """The lines of ``block``'s epochs, of the stream of the ``first`` block,
    encoded from the block's columns: each array's values are taken once,
    and each epoch's rows are cut from them by its offsets."""
    if (block.layout, block.requery) != (first.layout, first.requery):
        raise ValidationError("a block's layout or constants are not those of its stream header")
    fx, bl, snr = block.fixes, block.baselines, block.snr
    fixes = [
        {"antenna_id": i, "status": _GRADE_NAMES[g], "p": p if g else None, "sats_used": n}
        for i, g, p, n in zip(fx.ids.tolist(), fx.grade.tolist(), fx.p.tolist(),
                              fx.sats_used.tolist())
    ]
    baselines = [
        {"antenna_pair": pair, "v": v, "fixed": fixed}
        for pair, v, fixed in zip(bl.pairs.tolist(), bl.v.tolist(), bl.fixed.tolist())
    ]
    values = snr.dbhz.tolist()
    if np.isnan(snr.dbhz).any():
        values = [[None if x != x else x for x in row] for row in values]
    rows = [{"sat_id": sat, "snr": row} for sat, row in zip(snr.sat_ids, values)]
    return [
        json.dumps({
            "t": t,
            "fixes": fixes[block.fix_ends[k]:block.fix_ends[k + 1]],
            "baselines": baselines[block.baseline_ends[k]:block.baseline_ends[k + 1]],
            "snr_rows": rows[block.snr_ends[k]:block.snr_ends[k + 1]],
            "truth": None if truth is None else _truth_dict(truth),
        }) + "\n"
        for k, (t, truth) in enumerate(zip(block.t.tolist(), block.truth))
    ]


def _truth_dict(truth: EpochTruth) -> dict[str, Any]:
    """The JSON object of an epoch's truth channel."""
    rq = truth.requery
    return {
        "position": list(truth.position),
        "attitude": list(truth.attitude),
        "multipath_sats": sorted(truth.multipath_sats),
        "corrupted_baselines": sorted(list(p) for p in truth.corrupted_baselines),
        "wrong_fix_antennas": sorted(truth.wrong_fix_antennas),
        "requery": None if rq is None else dict(zip(_REQUERY_KEYS, rq)),
    }


def _batches(items: Iterable[Any], n: int) -> Iterator[list[Any]]:
    """``items`` in lists of ``n``, the last maybe shorter. When iterating
    ``items`` raises, the items before the fault are handed out first."""
    it = iter(items)
    while True:
        batch: list[Any] = []
        try:
            batch.extend(itertools.islice(it, n))
        except Exception:
            if batch:
                yield batch
            raise
        if not batch:
            return
        yield batch


def write_epochs(path: str, blocks: Iterable[EpochBlock]) -> int:
    """Write the epoch stream of ``blocks``; returns the epoch count. The
    header holds the first block's layout and requery constants, which
    every block must have (ValidationError otherwise); with no block the
    file stays empty. The blocks become text by :func:`ordered.ordered_map`,
    so a worker may be forked; the bytes are those of one process. When
    ``blocks`` raises, the header and the blocks before it are written."""
    n = 0
    blocks = iter(blocks)
    with open(path, "w", encoding="utf-8") as f:
        if (head := next(blocks, None)) is None:
            return 0
        layout = {"body_positions": head.layout.positions.tolist()}
        f.write(json.dumps({**EPOCH_HEADER, "layout": layout,
                            "requery": head.requery and asdict(head.requery)}) + "\n")
        encode = functools.partial(_epoch_lines, head)
        for lines in ordered_map(encode, itertools.chain([head], blocks)):
            f.writelines(lines)
            n += len(lines)
    return n


def _first_line(f: TextIO, path: str) -> str:
    """The first line of ``f``, the file at ``path`` that :func:`core.open_text`
    opened; InputError naming ``path:1`` if it is longer than
    ``MAX_EPOCH_LINE`` characters or :func:`core.utf8_line` rejects it."""
    try:
        if isinstance(line := _bounded_line(f), ValidationError):
            raise line
        utf8_line(line)
    except ValidationError as exc:
        raise InputError(f"{path}:1: {exc}") from None
    return line


def _check_header(line: str, expected: dict[str, Any], path: str) -> _EpochHeader | None:
    """The decoded epoch header (None for a scan) of ``line``, the header of
    the stream file at ``path``, of ``expected``'s format and version, the
    version a JSON integer; InputError naming ``path:1`` otherwise."""
    if not line:
        raise InputError(f"{path}: empty stream file")
    try:
        header = jsonvals.loads(line.removesuffix("\n"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:1: missing stream header: {exc}") from exc
    try:
        if type(header) is not dict or header.get("format") != expected["format"]:
            raise ValidationError(f"unexpected stream header {header!r}")
        version = jsonvals.integer(header.get("version"), "stream header version")
        if expected is EPOCH_HEADER and version in (1, 2):
            raise ValidationError(
                f"epoch stream version {version} is no longer read; re-run mgp simulate")
        if expected is EPOCH_HEADER and version == expected["version"]:
            constants = {k: v for k, v in header.items() if k not in EPOCH_HEADER}
            return jsonvals.decode(_EpochHeader, constants, "stream header", defaults=False)
        if header != expected:
            raise ValidationError(f"unexpected stream header {header!r}")
        return None
    except (ConfigurationError, ValidationError) as exc:
        raise InputError(f"{path}:1: {exc}") from None


def _parsed(line: str | Exception) -> Any:
    """The JSON value of a line, or the fault that keeps it from one."""
    if isinstance(line, Exception):
        return line
    try:
        return jsonvals.loads(utf8_line(line).strip())
    except (ValueError, ValidationError) as exc:
        return exc


def _epoch_block(path: str, block: list[tuple[int, str | Exception]],
                 header: _EpochHeader) -> tuple[EpochBlock, list[tuple[int, str]]]:
    """The epochs of the ``(lineno, line)`` pairs of ``block``, lines of the
    epoch stream at ``path`` of the ``header``, as one :class:`EpochBlock`,
    and ``(lineno, "path:line: skipped epoch: fault")`` for each other line,
    in line order. The lines that parse are decoded at once; if that fails,
    each alone, then the rest."""
    found = [(lineno, _parsed(line)) for lineno, line in block]
    with suppress(ValidationError, ValueError):
        return _decoded(path, found, header)
    for k, (lineno, obj) in enumerate(found):
        if not isinstance(obj, Exception):
            try:
                _decode([obj], [lineno], header)
            except (ValidationError, ValueError) as exc:
                found[k] = lineno, exc
    return _decoded(path, found, header)


def _decoded(path: str, found: list[tuple[int, Any]], header: _EpochHeader
             ) -> tuple[EpochBlock, list[tuple[int, str]]]:
    """The block of the ``(lineno, value)`` pairs of ``found``, and its skips."""
    good = [(lineno, obj) for lineno, obj in found if not isinstance(obj, Exception)]
    skips = [(lineno, f"{path}:{lineno}: skipped epoch: {obj}")
             for lineno, obj in found if isinstance(obj, Exception)]
    return _decode([obj for _, obj in good], [lineno for lineno, _ in good], header), skips


def _bounded_line(f: TextIO) -> str | ValidationError:
    """The next line of ``f`` ("" at its end), or the fault of one longer than
    ``MAX_EPOCH_LINE`` characters, of which ``MAX_EPOCH_LINE + 1`` are read."""
    line = f.readline(MAX_EPOCH_LINE + 1)
    if len(line) <= MAX_EPOCH_LINE or line.endswith("\n"):
        return line
    return ValidationError(f"line longer than {MAX_EPOCH_LINE} characters")


def _epoch_lines_of(f: TextIO) -> Iterator[tuple[int, str | Exception]]:
    """The ``(lineno, line)`` of each non-blank line of ``f`` after its header,
    or the fault :func:`_bounded_line` gives, that line read past piece by piece."""
    for lineno, line in enumerate(iter(functools.partial(_bounded_line, f), ""), start=2):
        if isinstance(line, Exception) or not line.isspace():
            yield lineno, line
        while isinstance(line, Exception):
            line = _bounded_line(f)


def epoch_block_calls(path: str, layout: AntennaLayout | None = None) -> Iterator[Callable]:
    """The blocks of :func:`read_epoch_blocks` as calls that decode them, one
    per ``READ_BLOCK`` non-blank lines, for ``pipeline.run`` to make where it
    solves each block; the header is checked first (InputError), its layout
    against ``layout`` if given, and the lines read as the calls are taken."""
    with open_text(path) as f:
        header = _check_header(_first_line(f, path), EPOCH_HEADER, path)
        if layout is not None and header.layout != layout:
            raise InputError(f"{path}:1: the stream's antenna layout is not the pipeline config's")
        for batch in _batches(_epoch_lines_of(f), READ_BLOCK):
            yield functools.partial(_epoch_block, path, batch, header)


def read_epoch_blocks(path: str) -> Iterator[tuple[EpochBlock, list[tuple[int, str]]]]:
    """The epoch stream at ``path`` as ``pipeline.run`` takes it: each block
    of ``READ_BLOCK`` non-blank lines as its epochs, one :class:`EpochBlock`,
    and the ``(lineno, message)`` of each line that is not UTF-8, is longer
    than ``MAX_EPOCH_LINE`` characters or fails to parse or validate. A
    wrong header raises InputError."""
    with closing(ordered_map(lambda call: call(), epoch_block_calls(path))) as blocks:
        yield from blocks


def read_epochs(path: str) -> Iterator[EpochBlock]:
    """The epochs of :func:`read_epoch_blocks` one at a time, each a block
    of one (:meth:`EpochBlock.epoch`), up to the first line it skips, which
    raises InputError ``path:line: reason``."""
    with closing(read_epoch_blocks(path)) as blocks:
        for block, skips in blocks:
            end, message = skips[0] if skips else (math.inf, "")
            yield from (block.epoch(k) for k, line in enumerate(block.lines.tolist()) if line < end)
            if skips:
                head = f"{path}:{end}: "
                raise InputError(head + message.removeprefix(head + "skipped epoch: "))


def write_scan(path: str, frames: Iterable[ScanFrame | Callable[[], Iterable[ScanFrame]]]) -> int:
    """Write the scan stream of ``frames``, each item a frame or a call that
    makes a block of them (:func:`mgp.simulator.scan_blocks`); returns the
    frame count. Like :func:`write_epochs`, it turns the items into text by
    :func:`ordered.ordered_map`, so a block's frames are made there."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(SCAN_HEADER) + "\n")
        for lines in ordered_map(_scan_lines, frames):
            f.writelines(lines)
            n += len(lines)
    return n


def _scan_lines(item: ScanFrame | Callable[[], Iterable[ScanFrame]]) -> list[str]:
    """The lines of a frame, or of each frame of a block."""
    return [
        json.dumps({"t": f.t, "pulses": [row + [flag] for row, flag in
                                         zip(f.pulses.tolist(), f.reflector.astype(int).tolist())]})
        + "\n"
        for f in ([item] if isinstance(item, ScanFrame) else item())
    ]


def _scan_frame(d: Any) -> ScanFrame:
    """Frame from one parsed scan line: a JSON object of the keys ``t`` and
    ``pulses``, each pulse five finite numbers ``[t, x, y, z, flag]``."""
    _objects([d], "scan line must be a JSON object")
    t = jsonvals.number(_column([d], "t", "")[0], "frame time")
    rows = jsonvals.floats(_column([d], "pulses", "")[0], "pulses", 5)
    _check_keys([d], ("t", "pulses"), "")
    flag = rows[:, 4]
    if not ((flag == 0) | (flag == 1)).all():
        raise ValidationError("pulse reflector flag must be 0 or 1")
    # a copy, so that the frame does not keep the flag column alive
    return ScanFrame(t=t, pulses=rows[:, :4].copy(), reflector=flag == 1)


def _text_chunks(f: TextIO, first: int) -> Iterator[tuple[int, list[str]]]:
    """The lines of ``f``, a file that :func:`core.open_text` opened, from
    its line ``first`` on, in chunks of whole lines, each ending at the line
    that takes it past :data:`CHUNK` characters, and each with the number
    of its first line."""
    while lines := f.readlines(CHUNK):
        yield first, lines
        first += len(lines)


def scan_chunks(path: str) -> Iterator[tuple[int, list[str]]]:
    """The :func:`_text_chunks` of the scan file at ``path`` after its
    header, which is checked first: the input of :func:`scan_frames`."""
    with open_text(path) as f:
        _check_header(_first_line(f, path), SCAN_HEADER, path)
        yield from _text_chunks(f, 2)


def scan_frames(path: str, first: int, lines: list[str]) -> Iterator[ScanFrame]:
    """The frames of ``lines``, lines ``first`` on of the scan file at
    ``path``, blank lines skipped. A line that is not UTF-8 or not a frame
    raises InputError naming ``path:line``."""
    for lineno, line in enumerate(lines, start=first):
        if not line.isspace():
            try:
                yield _scan_frame(jsonvals.loads(utf8_line(line).strip()))
            except (ValueError, ValidationError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc


def read_scan(path: str) -> Iterator[ScanFrame]:
    for first, lines in scan_chunks(path):
        yield from scan_frames(path, first, lines)


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
_FLOAT_CELL = re.compile(r"-?(\d+(\.\d*)?(e[-+]?\d+)?|inf)|nan", re.ASCII)


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
    a rule of the module docstring, or a line longer than ``MAX_EPOCH_LINE``
    characters, raises InputError naming ``path:line``."""
    values: list[list[float]] = []
    with open_text(path) as f:
        header = _first_line(f, path).rstrip("\n")
        if header != POSE_CSV_HEADER:
            raise InputError(f"{path}: unexpected CSV header {header!r}")
        for lineno, line in enumerate(iter(functools.partial(_bounded_line, f), ""), start=2):
            if isinstance(line, ValidationError):
                raise InputError(f"{path}:{lineno}: {line}")
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                cells = utf8_line(line).split(",")
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


def cloud_suffix(path: str | Path) -> str:
    """The suffix that picks a cloud file's format, ``.xyz`` (ASCII) or
    ``.bin`` (binary); any other raises InputError."""
    suffix = Path(path).suffix
    if suffix not in (".xyz", ".bin"):
        raise InputError(f"unsupported cloud extension {suffix!r} (use .xyz or .bin)")
    return suffix


@contextmanager
def cloud_output(path: str | Path) -> Iterator[BinaryIO]:
    """A new binary file for the cloud at ``path``: made in its directory
    under a hidden name with the same suffix, moved onto ``path`` when the
    ``with`` block ends, and removed if the block raises. A failed write
    leaves no partial cloud, and an earlier file at ``path`` as it was."""
    path = Path(path)
    cloud_suffix(path)
    tmp = path.with_name(f".{path.stem}-{os.urandom(4).hex()}{path.suffix}")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cloud_bytes(cloud: Cloud, suffix: str) -> bytes:
    """``cloud`` in the file format of ``suffix``, ``.xyz`` or ``.bin``
    (:func:`cloud_suffix`); a file's bytes are its parts' bytes joined."""
    if suffix == ".xyz":
        flags = cloud.reflector.astype(np.uint8).tolist()
        return "".join(
            f"{e!r} {n!r} {u!r} {f}\n" for (e, n, u), f in zip(cloud.p.tolist(), flags)
        ).encode()
    rec = np.empty(len(cloud), dtype=_BIN_RECORD)
    rec["p"], rec["flag"] = cloud.p, cloud.reflector
    return rec.tobytes()


def write_cloud(path: str | Path, cloud: Cloud) -> None:
    """Write ``cloud`` as the whole file at ``path``, in the format its
    suffix picks (:func:`cloud_suffix`), through :func:`cloud_output`."""
    with cloud_output(path) as out:
        out.write(cloud_bytes(cloud, cloud_suffix(path)))


def cloud_blocks(path: str | Path) -> Iterator[tuple[int, list[str] | bytes]]:
    """The cloud file at ``path`` in blocks for :func:`read_cloud`, each
    with the number of its first line or record: a .xyz file in the
    :func:`_text_chunks` of its lines, a .bin file in the whole records of
    :data:`CHUNK` bytes, at least one."""
    if cloud_suffix(path) == ".xyz":
        with open_text(path) as f:
            yield from _text_chunks(f, 1)
        return
    n = max(1, CHUNK // _BIN_RECORD.itemsize)
    with open(path, "rb") as f:
        for k, data in enumerate(iter(lambda: f.read(n * _BIN_RECORD.itemsize), b"")):
            yield k * n + 1, data


def _xyz_columns(path: str | Path, first: int, lines: list[str]) -> np.ndarray:
    """The ``E N U flag`` columns of ``lines``, lines ``first`` on of the
    .xyz file at ``path``, one (n, 4) row per line. A line that is not UTF-8
    or not four numbers raises InputError naming it."""
    try:
        # loadtxt warns on input without data; the loop below names its
        # first line
        if any(not line.isspace() for line in lines):
            cols = np.loadtxt(lines, ndmin=2, comments=None)
            if cols.shape == (len(lines), 4):
                return cols
    except ValueError:
        pass
    # the bulk parse failed or skipped a blank line: name the first line that
    # is not UTF-8, not four columns (split at the whitespace loadtxt splits
    # at), or has a first cell loadtxt does not read (float() would also
    # take "1_0" or "１")
    for lineno, line in enumerate(lines, first):
        try:
            cells = utf8_line(line).split()
        except ValidationError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if len(cells) != 4:
            raise InputError(f"{path}:{lineno}: expected 4 columns 'E N U flag', got {len(cells)}")
        for cell in cells:
            try:
                np.loadtxt([cell], comments=None)
            except ValueError:
                raise InputError(f"{path}:{lineno}: {cell!r} is not a number") from None
    raise InputError(f"{path}: unreadable cloud file")


def read_cloud(path: str | Path, block: tuple[int, list[str] | bytes] | None = None) -> Cloud:
    """The cloud of a file written by :func:`write_cloud`, or of one
    ``block`` of it (:func:`cloud_blocks`); the file's cloud is its blocks'
    clouds joined. A line that is not UTF-8 or not four numbers, a
    non-finite coordinate, a flag other than 0/1 or a truncated record
    raises InputError naming ``path:line`` (.xyz) or ``path: record k``
    (.bin, counted from 1): the first in the first block that has one."""
    if block is None:
        # an empty cloud first, so that an empty file reads as one
        empty = Cloud(np.empty((0, 3)), np.empty(0, dtype=bool))
        return Cloud.joined([empty, *(read_cloud(path, block) for block in cloud_blocks(path))])
    first, data = block
    if isinstance(data, bytes):
        if len(data) % _BIN_RECORD.itemsize:
            k = first + len(data) // _BIN_RECORD.itemsize
            raise InputError(f"{path}: record {k}: truncated")
        rec = np.frombuffer(data, dtype=_BIN_RECORD)
        p, flag, where = rec["p"], rec["flag"], f"{path}: record "
    else:
        cols = _xyz_columns(path, first, data)
        p, flag, where = cols[:, :3], cols[:, 3], f"{path}:"
    finite = np.isfinite(p).all(axis=1)
    bad = np.flatnonzero(~finite | ((flag != 0) & (flag != 1)))
    if len(bad):
        k = bad[0]
        what = f"non-finite point {tuple(p[k].tolist())}"
        if finite[k]:
            what = f"flag {flag[k]:g} is not 0 or 1"
        raise InputError(f"{where}{first + k}: {what}")
    return Cloud(p=np.ascontiguousarray(p), reflector=flag == 1)


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

    def __post_init__(self) -> None:
        check_survey(self.reflectors, self.cluster_radius_m, self.min_hits)


def load_reflectors(path: str) -> tuple[list[Vec3], float, int]:
    """Read truth reflector positions plus clustering parameters, checked
    as :func:`mapping.evaluate_reflectors` checks them.

    Returns (positions, cluster_radius_m, min_hits).
    """
    survey = jsonvals.load(_ReflectorSurvey, path, "reflectors")
    return list(survey.reflectors), survey.cluster_radius_m, survey.min_hits
