"""Fault injection for the epoch JSON Lines stream.

A clean simulated stream gets faults on chosen lines, one per line: a leaf
of the wrong JSON type, a non-finite number, a missing key, a truncated
line, or a blank line put before the line. The chosen lines sit on the
edges of the reader's blocks (``READ_BLOCK`` non-blank lines): the first
and last line of a block, and neighbours across a block boundary.
``mgp estimate`` must exit 0 and skip exactly the bad lines, each with a
diagnostic naming its ``path:line``, without a traceback, and the poses of
the untouched epochs must equal those of the clean run.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
import mgp.streams
from mgp.cli import main

from test_epoch_differential import _scenario

FAULTS = ("wrong-type", "non-finite", "missing-key", "truncated", "blank")
# a value of another JSON type for each type of leaf, every one rejected
WRONG = {bool: [1, "true"], int: ["1", True], float: ["1", True], str: [7, None]}
NON_FINITE = [math.nan, math.inf, -math.inf]


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


def _at(record: Any, path: tuple) -> Any:
    for key in path:
        record = record[key]
    return record


def _faulty_line(record: dict, fault: str, data: st.DataObject) -> str:
    if fault == "truncated":
        line = json.dumps(record)
        return line[: data.draw(st.integers(1, len(line) - 1))]
    if fault == "missing-key":
        path, key = data.draw(st.sampled_from(list(_keys(record))))
        del _at(record, path)[key]
    else:
        leaves = [
            (path, v) for path, v in _leaves(record)
            if fault == "wrong-type" or type(v) in (int, float)
        ]
        path, value = data.draw(st.sampled_from(leaves))
        bad = WRONG[type(value)] if fault == "wrong-type" else NON_FINITE
        _at(record, path[:-1])[path[-1]] = data.draw(st.sampled_from(bad))
    return json.dumps(record)


def _estimate(epochs: Path, tmp: Path, antennas: str | None) -> tuple[int, str, dict, mgp.Poses]:
    poses, metrics = tmp / "poses.csv", tmp / "metrics.json"
    pipe = tmp / "pipe.json"
    pipe.write_text("{}")
    argv = ["estimate", "--epochs", str(epochs), "--config", str(pipe),
            "--poses", str(poses), "--metrics", str(metrics)]
    if antennas:
        argv += ["--antennas", antennas]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue(), json.loads(metrics.read_text()), mgp.read_poses(str(poses))


CASES = [("fixrate", "1,3,5"), ("multipath", None)]


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> dict[str, tuple[list[str], dict, mgp.Poses]]:
    """Per scenario: the header and record lines of a stream two blocks and
    a bit long, and the metrics and poses of its clean run."""
    out = {}
    for name, antennas in CASES:
        tmp = tmp_path_factory.mktemp(name)
        n_epochs = 2 * mgp.streams.READ_BLOCK + 22
        path = tmp / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, n_epochs / 10.0)))
        lines = path.read_text().splitlines()
        assert len(lines) == n_epochs + 1
        code, err, metrics, poses = _estimate(path, tmp, antennas)
        assert (code, err, metrics["skipped"]) == (0, "", 0)
        out[name] = (lines, metrics, poses)
    return out


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
    clean, tmp_path: Path, name: str, antennas: str | None, data: st.DataObject
) -> None:
    lines, _, clean_poses = clean[name]
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
    path.write_text("\n".join(out) + "\n")

    code, err, metrics, poses = _estimate(path, tmp_path, antennas)
    assert code == 0, err
    assert "Traceback" not in err
    assert metrics["skipped"] == len(bad_linenos)
    diags = err.splitlines()
    assert [d.split(": skipped epoch: ")[0] for d in diags] == [f"{path}:{n}" for n in bad_linenos]

    bad_t = {json.loads(lines[k + 1])["t"] for k, f in faults.items() if f != "blank"}
    keep = ~np.isin(clean_poses.t, list(bad_t))
    want = clean_poses.select(keep)
    for field in ("t", "p", "q", "n_fix"):
        assert np.array_equal(getattr(poses, field), getattr(want, field), equal_nan=True), field
