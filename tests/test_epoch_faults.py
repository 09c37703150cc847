"""Fault injection for the epoch JSON Lines stream.

A clean simulated stream gets faults on chosen lines, one per line: a leaf
of the wrong JSON type, a non-finite number, a missing key, an unknown key,
a container of the wrong JSON type (an array where an object belongs, an
object, string or number where an array does), an array of numbers (a
fixed-width row such as a position) replaced by a number or by a string or
object of as many characters or keys, an object (the line itself
included) replaced by an array, number or string, a fix status replaced by
an array or object, a truncated line, or a blank line put before the line.
The chosen lines sit on the edges of the reader's blocks (``READ_BLOCK``
non-blank lines): the first and last line of a block, and neighbours across
a block boundary. ``mgp estimate`` must exit 0 and skip exactly the bad
lines, each with a diagnostic naming its ``path:line``, without a traceback
or a Python error (``KeyError(...)``) in place of a message, and the poses
of the untouched epochs must equal those of the clean run.

Inside one full block, lines with one to three such faults each must read
as they do alone: the reader's record or diagnostic for each line is the
record or fault of ``scalar_epochs.epoch_from_dict`` (the block decoder on
that line alone). A missing key is named with the object it is missing
from: ``missing key 'w' in baselines``, or ``missing key 't'`` on the line
itself.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
import mgp.streams
from mgp.cli import main

from conftest import requery_constants
from scalar_epochs import epoch_from_dict, epoch_to_dict
from test_epoch_differential import _scenario

FAULTS = ("wrong-type", "non-finite", "missing-key", "unknown-key", "wrong-container",
          "non-array-row", "non-object", "truncated", "blank")
# a value of another JSON type for each type of leaf, every one rejected
WRONG = {bool: [1, "true"], int: ["1", True], float: ["1", True], str: [7, None]}
NON_FINITE = [math.nan, math.inf, -math.inf]
# a container of another JSON type for each type of container
WRONG_CONTAINER = {list: [{}, "", "ab", 7], dict: [[], [1]]}
# the arrays of an epoch object's top level
TOP_ARRAYS = ("fixes", "baselines", "snr_rows")
# keys that no object of an epoch line has
UNKNOWN_KEYS = ["truht", "sats-used", "P"]
# values that are not a JSON object, and not a string for a fix status
NON_OBJECTS = [[], [1, 2], 5, "x"]
NON_STATUSES = [["fixed"], {"fixed": 1}]


def _block_edges(n_lines: int) -> list[int]:
    """Record indices on block edges: each block's first and last line (the
    last of one block and the first of the next are neighbours), and the
    stream's last line."""
    b = mgp.streams.READ_BLOCK
    edges = {k for start in range(0, n_lines, b) for k in (start, start + b - 1)}
    return sorted(edges & set(range(n_lines)) | {n_lines - 1})


def _leaves(value: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Every non-null leaf of a JSON value, with its path."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    elif value is not None:
        yield path, value


def _keys(value: Any, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Every key of every object in a JSON value but the optional ``truth``."""
    if isinstance(value, dict):
        for key, v in value.items():
            if path or key != "truth":
                yield path, key
            yield from _keys(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _keys(v, path + (i,))


def _containers(value: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """Every array and object inside a JSON value, with its parent's path
    and its key or index there."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        if isinstance(v, (dict, list)):
            yield path, key
            yield from _containers(v, path + (key,))


def _number_rows(value: Any) -> Iterator[tuple[tuple, Any]]:
    """Every non-empty array of numbers (and nulls) inside a JSON value, with
    its parent's path and its key or index there."""
    for path, key in _containers(value):
        v = _at(value, path)[key]
        if isinstance(v, list) and v and all(type(x) in (int, float, type(None)) for x in v):
            yield path, key


def _at(record: Any, path: tuple) -> Any:
    for key in path:
        record = record[key]
    return record


def _inject(record: dict, fault: str, data: st.DataObject) -> Any:
    """Put one fault of kind ``fault`` (not "truncated" or "blank") into the
    parsed epoch object; return the faulty line's value, the object itself
    unless the fault replaced it."""
    if fault == "non-object":
        # the line itself, a nested object or a fix status, a third each
        nested = [path + (key,) for path, key in _containers(record)
                  if isinstance(_at(record, path)[key], dict)]
        statuses = [path + (key,) for path, key in _keys(record) if key == "status"]
        places = [st.sampled_from(c) for c in ([()], nested, statuses) if c]
        place = data.draw(st.one_of(*places))
        value = data.draw(st.sampled_from(NON_STATUSES if place in statuses else NON_OBJECTS))
        if not place:
            return value
        _at(record, place[:-1])[place[-1]] = value
    elif fault == "missing-key":
        path, key = data.draw(st.sampled_from(list(_keys(record))))
        del _at(record, path)[key]
    elif fault == "unknown-key":
        objects = [()] + [path + (key,) for path, key in _containers(record)
                          if isinstance(_at(record, path)[key], dict)]
        obj = _at(record, data.draw(st.sampled_from(objects)))
        obj[data.draw(st.sampled_from(UNKNOWN_KEYS))] = data.draw(st.sampled_from([None, 1, "x"]))
    elif fault == "non-array-row":
        path, key = data.draw(st.sampled_from(list(_number_rows(record))))
        parent = _at(record, path)
        n = len(parent[key])
        parent[key] = data.draw(st.sampled_from([5, 1.5, "x" * n, {str(i): 0 for i in range(n)}]))
    elif fault == "wrong-container":
        # the top-level arrays as often as all the others together
        top = [((), key) for key in TOP_ARRAYS if type(record.get(key)) is list]
        places = [st.sampled_from(c) for c in (top, list(_containers(record))) if c]
        path, key = data.draw(st.one_of(*places))
        parent = _at(record, path)
        bad = WRONG_CONTAINER[type(parent[key])]
        parent[key] = data.draw(st.sampled_from(bad))
    else:
        leaves = [
            (path, v) for path, v in _leaves(record)
            if fault == "wrong-type" or type(v) in (int, float)
        ]
        path, value = data.draw(st.sampled_from(leaves))
        bad = WRONG[type(value)] if fault == "wrong-type" else NON_FINITE
        _at(record, path[:-1])[path[-1]] = data.draw(st.sampled_from(bad))
    return record


def _faulty_line(record: dict, fault: str, data: st.DataObject) -> str:
    if fault == "truncated":
        line = json.dumps(record)
        return line[: data.draw(st.integers(1, len(line) - 1))]
    return json.dumps(_inject(record, fault, data))


def _estimate(epochs: Path, tmp: Path, antennas: str | None) -> tuple[int, str, dict, mgp.Poses]:
    poses, metrics = tmp / "poses.csv", tmp / "metrics.json"
    pipe = tmp / "pipe.json"
    pipe.write_text("{}", encoding="utf-8")
    argv = ["estimate", "--epochs", str(epochs), "--config", str(pipe),
            "--poses", str(poses), "--metrics", str(metrics)]
    if antennas:
        argv += ["--antennas", antennas]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report = json.loads(metrics.read_text(encoding="utf-8"))
    return code, err.getvalue(), report, mgp.read_poses(str(poses))


CASES = [("fixrate", "1,3,5"), ("multipath", None)]

# The fixtures below fill these, and the hypothesis tests look their stream
# up here: hypothesis writes the repr of each test argument into its
# falsifying-example note.
CLEAN: dict[str, tuple[list[str], dict, mgp.Poses]] = {}
BLOCK_LINES: list[str] = []


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> None:
    """Per scenario: the header and record lines of a stream two blocks and
    a bit long, and the metrics and poses of its clean run."""
    for name, antennas in CASES:
        tmp = tmp_path_factory.mktemp(name)
        n_epochs = 2 * mgp.streams.READ_BLOCK + 22
        path = tmp / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, n_epochs / 10.0)))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == n_epochs + 1
        code, err, metrics, poses = _estimate(path, tmp, antennas)
        assert (code, err, metrics["skipped"]) == (0, "", 0)
        CLEAN[name] = (lines, metrics, poses)


@pytest.mark.usefixtures("clean")
@pytest.mark.parametrize("name, antennas", CASES, ids=["fixrate-1-3-5", "multipath-all"])
@settings(
    max_examples=12,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_faulty_lines_are_skipped_one_by_one(
    tmp_path: Path, name: str, antennas: str | None, data: st.DataObject
) -> None:
    lines, _, clean_poses = CLEAN[name]
    edges = _block_edges(len(lines) - 1)
    chosen = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True).map(sorted))
    faults = {k: data.draw(st.sampled_from(FAULTS), label=f"fault at record {k}") for k in chosen}

    out = [lines[0]]
    bad_linenos: list[int] = []
    for k, line in enumerate(lines[1:]):
        fault = faults.get(k)
        if fault == "blank":
            out.append(data.draw(st.sampled_from(["", "  ", "\t"])))
        elif fault is not None:
            line = _faulty_line(json.loads(line), fault, data)
            bad_linenos.append(len(out) + 1)
        out.append(line)
    path = tmp_path / "faulty.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")

    code, err, metrics, poses = _estimate(path, tmp_path, antennas)
    assert code == 0, err
    assert "Traceback" not in err
    assert metrics["skipped"] == len(bad_linenos)
    diags = err.splitlines()
    assert [d.split(": skipped epoch: ")[0] for d in diags] == [f"{path}:{n}" for n in bad_linenos]
    assert not [d for d in diags if "Error(" in d]

    bad_t = {json.loads(lines[k + 1])["t"] for k, f in faults.items() if f != "blank"}
    keep = ~np.isin(clean_poses.t, list(bad_t))
    want = clean_poses.select(keep)
    for field in ("t", "p", "q", "n_fix"):
        assert np.array_equal(getattr(poses, field), getattr(want, field), equal_nan=True), field


LINE_FAULTS = ("wrong-type", "missing-key", "unknown-key", "wrong-container", "non-array-row",
               "non-object")


@pytest.fixture(scope="module")
def block_lines(tmp_path_factory) -> list[str]:
    """The header and record lines of a multipath stream one reader block
    long, truth channel and requery states included."""
    path = tmp_path_factory.mktemp("block") / "epochs.jsonl"
    n_epochs = mgp.streams.READ_BLOCK
    mgp.write_epochs(str(path), mgp.simulate(_scenario("multipath", n_epochs / 10.0)))
    BLOCK_LINES[:] = path.read_text(encoding="utf-8").splitlines()
    assert len(BLOCK_LINES) == n_epochs + 1
    return BLOCK_LINES


def _alone(line: str, header: str) -> mgp.EpochRecord | Exception:
    try:
        return epoch_from_dict(json.loads(line), requery_constants(header))
    except (mgp.InputError, mgp.ValidationError) as exc:
        return exc


@pytest.mark.usefixtures("block_lines")
@settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_block_lines_with_several_faults_read_as_alone(tmp_path: Path, data: st.DataObject) -> None:
    header, *lines = BLOCK_LINES
    chosen = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=8, unique=True))
    for k in chosen:
        record = json.loads(lines[k])
        for i in range(data.draw(st.integers(1, 3), label=f"faults on record {k}")):
            fault = data.draw(st.sampled_from(LINE_FAULTS), label=f"fault {i}")
            record = _inject(record, fault, data)
            if type(record) is not dict:
                break
        lines[k] = json.dumps(record)
    path = tmp_path / "block.jsonl"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")

    diags: list[str] = []
    got = [epoch_to_dict(e) for e in mgp.read_epochs(str(path), diagnostics=diags)]
    alone = [(lineno, _alone(line, header)) for lineno, line in enumerate(lines, start=2)]
    assert diags == [
        f"{path}:{lineno}: skipped epoch: {out}" for lineno, out in alone
        if isinstance(out, Exception)
    ]
    assert not [d for d in diags if "Error(" in d]
    want = [epoch_to_dict(out) for _, out in alone if not isinstance(out, Exception)]
    assert json.dumps(got) == json.dumps(want)


def _level(path: tuple) -> str:
    """The name of the object at ``path`` in an epoch line: its own key in
    its parent, or that of the array holding it ("" for the line itself)."""
    return next((key for key in reversed(path) if isinstance(key, str)), "")


@pytest.mark.usefixtures("block_lines")
@settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_missing_key_is_named_with_its_object(tmp_path: Path, data: st.DataObject) -> None:
    header, *lines = BLOCK_LINES
    k = data.draw(st.integers(0, len(lines) - 1), label="record")
    record = json.loads(lines[k])
    # an object level first, each as likely, then one of its keys
    keys = [(path, key, _level(path)) for path, key in _keys(record)]
    level = data.draw(st.sampled_from(sorted({level for *_, level in keys})), label="level")
    path, key, _ = data.draw(st.sampled_from([item for item in keys if item[2] == level]))
    del _at(record, path)[key]
    message = f"missing key {key!r}" + (f" in {level}" if level else "")
    with pytest.raises(mgp.ValidationError, match=f"^{re.escape(message)}$"):
        epoch_from_dict(record, requery_constants(header))

    lines[k] = json.dumps(record)
    epochs = tmp_path / "block.jsonl"
    epochs.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    diags: list[str] = []
    assert len(list(mgp.read_epochs(str(epochs), diagnostics=diags))) == len(lines) - 1
    assert diags == [f"{epochs}:{k + 2}: skipped epoch: {message}"]
    assert "Error(" not in diags[0]


def _state(record: dict) -> dict:
    return record["truth"]["requery"]


# a requery record whose generator state is not one, and the start of its
# fault's message
BAD_STATES = {
    "state-string": (lambda r: _state(r).update(state=str(_state(r)["state"])),
                     "requery state must be an integer in [0, 2**128), got '"),
    "state-float": (lambda r: _state(r).update(state=float(_state(r)["state"])),
                    "requery state must be an integer in [0, 2**128), got "),
    "state-bool": (lambda r: _state(r).update(state=True),
                   "requery state must be an integer in [0, 2**128), got True"),
    "state-negative": (lambda r: _state(r).update(state=-1),
                       "requery state must be an integer in [0, 2**128), got -1"),
    "state-2**128": (lambda r: _state(r).update(state=2**128),
                     f"requery state must be an integer in [0, 2**128), got {2**128}"),
    "state-missing": (lambda r: _state(r).pop("state"), "missing key 'state' in requery"),
    "uint32-2**32": (lambda r: _state(r).update(uint32=2**32),
                     f"requery uint32 must be null or an integer in [0, 2**32), got {2**32}"),
    "uint32-string": (lambda r: _state(r).update(uint32="7"),
                      "requery uint32 must be null or an integer in [0, 2**32), got '7'"),
    "uint32-missing": (lambda r: _state(r).pop("uint32"), "missing key 'uint32' in requery"),
    "unknown-key": (lambda r: _state(r).update(inc=1), "unknown key 'inc' in requery"),
}


@pytest.mark.parametrize("fault", list(BAD_STATES))
def test_a_bad_requery_state_skips_its_epoch(block_lines, tmp_path: Path, fault: str) -> None:
    """An epoch's generator state that is not an integer in [0, 2**128),
    a held-back half that is neither null nor an integer in [0, 2**32), or
    a requery object without either key, is a fault of its line: on the
    first and on the last line of a reader block, ``mgp estimate`` skips
    and counts that epoch at its ``path:line``, and a strict read names it."""
    edit, message = BAD_STATES[fault]
    header, *lines = block_lines
    for k in (0, len(lines) - 1):
        out = list(lines)
        record = json.loads(out[k])
        edit(record)
        out[k] = json.dumps(record)
        path = tmp_path / f"state-{k}.jsonl"
        path.write_text("\n".join([header, *out]) + "\n", encoding="utf-8")
        code, err, metrics, _ = _estimate(path, tmp_path, None)
        where = f"{path}:{k + 2}"
        assert (code, metrics["skipped"], err.count("\n")) == (0, 1, 1), err
        assert err.startswith(f"{where}: skipped epoch: {message}"), err
        with pytest.raises(mgp.InputError, match=f"^{re.escape(f'{where}: {message}')}"):
            list(mgp.read_epochs(str(path)))
