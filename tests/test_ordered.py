"""The worker path: ``ordered_map`` and the CLI steps that use it.

``ordered_map`` runs the odd items in one forked worker. Its results must
come in item order, each exception at its own place, and no process may be
left behind: after a success, a fault or a generator closed early,
``os.waitpid(-1, os.WNOHANG)`` must find no child. Through the CLI, a fault
in a chunk the worker handles must read as one in a chunk the caller
handles: the same ``path:line`` message and exit code, and no partial
cloud.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import mgp
from mgp.ordered import ordered_map

from test_cli import FLIGHT
from test_pulse_blocks import _cli, _evaluate, _files, _georef, _xyz_lines


@pytest.fixture(autouse=True)
def no_child_left() -> Iterator[None]:
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid(item: int) -> tuple[int, int]:
    return item, os.getpid()


def _fail_at(bad: int):
    def fn(item: int) -> int:
        if item == bad:
            raise ValueError(f"item {item}")
        return item * item
    return fn


def _until_fault(results) -> tuple[list[object], str | None]:
    got: list[object] = []
    try:
        for result in results:
            got.append(result)
    except ValueError as exc:
        return got, str(exc)
    return got, None


def test_results_come_in_item_order_the_odd_items_from_one_worker() -> None:
    got = list(ordered_map(_pid, range(9)))
    assert [item for item, _ in got] == list(range(9))
    pids = [pid for _, pid in got]
    assert set(pids[0::2]) == {os.getpid()}
    assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]


@pytest.mark.parametrize("n", [0, 1])
def test_a_call_with_at_most_one_item_does_not_fork(
    monkeypatch: pytest.MonkeyPatch, n: int
) -> None:
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert list(ordered_map(_pid, range(n))) == [(0, os.getpid())][:n]


def test_without_fork_the_caller_maps_every_item(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delattr(os, "fork")
    assert list(ordered_map(_pid, range(5))) == [(k, os.getpid()) for k in range(5)]


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 6])
def test_an_exception_comes_at_its_own_place(bad: int) -> None:
    got, fault = _until_fault(ordered_map(_fail_at(bad), range(8)))
    assert (got, fault) == ([k * k for k in range(bad)], f"item {bad}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_an_exception_of_the_items_comes_after_the_results_before_it(n: int) -> None:
    def items():
        yield from range(n)
        raise ValueError("items")

    assert _until_fault(ordered_map(_fail_at(-1), items())) == ([k * k for k in range(n)], "items")


def test_a_generator_closed_early_leaves_no_child() -> None:
    results = ordered_map(_pid, range(10))
    assert [item for item, _ in (next(results), next(results), next(results))] == [0, 1, 2]
    results.close()


def test_the_worker_runs_no_exit_hook(tmp_path: Path) -> None:
    # an atexit hook and a finally block of the caller's code run once, in
    # the caller, though the worker ran items inside both
    log = tmp_path / "log"
    script = (
        "import atexit, os, sys\n"
        "from mgp.ordered import ordered_map\n"
        "def note(what):\n"
        "    with open(sys.argv[1], 'a', encoding='utf-8') as f:\n"
        "        f.write(what + '\\n')\n"
        "atexit.register(note, 'atexit')\n"
        "try:\n"
        "    assert list(ordered_map(abs, [-1, -2, -3])) == [1, 2, 3]\n"
        "finally:\n"
        "    note('finally')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mgp.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", script, str(log)], check=True, env=env)
    assert log.read_text(encoding="utf-8") == "finally\natexit\n"


@pytest.fixture(scope="module")
def descent(tmp_path_factory: pytest.TempPathFactory) -> dict[str, Path]:
    return _files(tmp_path_factory.mktemp("descent"), "descent")


def _with_bad_lines(scan: Path, out: Path, linenos: list[int]) -> Path:
    lines = scan.read_text(encoding="utf-8").splitlines(keepends=True)
    for k in linenos:
        assert '"pulses": [[' in lines[k - 1], k
        lines[k - 1] = lines[k - 1].replace("[", "[true, ", 2)
    bad = out / "scan.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    return bad


# With one line a chunk, line k is chunk k - 2: the caller's when k is even,
# the worker's when it is odd. Of two faults the first is named; lines 28
# and 29 are the first with pulses.
@pytest.mark.parametrize(
    "linenos",
    [[42], [41], [41, 42], [42, 43], [28, 29]],
    ids=["caller", "worker", "worker-then-caller", "caller-then-worker", "first-two"],
)
@pytest.mark.parametrize("suffix", [".xyz", ".bin"])
def test_a_bad_scan_line_reads_the_same_in_either_process(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, descent: dict[str, Path],
    linenos: list[int], suffix: str,
) -> None:
    out = tmp_path / "out"
    out.mkdir()
    scan = _with_bad_lines(descent["scan.jsonl"], tmp_path, linenos)
    with pytest.raises(mgp.InputError) as one_process:
        list(mgp.read_scan(str(scan)))
    assert str(one_process.value).startswith(f"{scan}:{linenos[0]}: ")
    monkeypatch.setattr(mgp.streams, "CHUNK", 1)
    cloud = out / f"cloud{suffix}"
    assert _georef(descent, scan, cloud) == (1, "", f"error: {one_process.value}\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "places",
    [[(2, 0)], [(1, 0)], [(1, 0), (2, 0)], [(1, -1), (1, 0)]],
    ids=["caller", "worker", "worker-then-caller", "caller-then-worker"],
)
def test_a_bad_cloud_line_reads_the_same_in_either_process(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, places: list[tuple[int, int]]
) -> None:
    # chunks of 925 characters, three of them: block 1 is the worker's,
    # block 2 the caller's, and a place (k, d) is line d after the first of
    # block k. A flag of 2 in place of 0 or 1 keeps the line length, and so
    # the cuts.
    monkeypatch.setattr(mgp.streams, "CHUNK", 37 * 25)
    lines = _xyz_lines(4 * 37)
    cloud = tmp_path / "cloud.xyz"
    cloud.write_bytes(b"".join(lines))
    starts = [first for first, _ in mgp.streams.cloud_blocks(cloud)]
    assert len(starts) == 3
    linenos = [starts[k] + d for k, d in places]
    for k in linenos:
        lines[k - 1] = lines[k - 1][:-2] + b"2\n"
    cloud.write_bytes(b"".join(lines))
    assert [first for first, _ in mgp.streams.cloud_blocks(cloud)] == starts
    refl = tmp_path / "refl.json"
    refl.write_text('{"reflectors": [[0.0, 2.0, 0.0]]}', encoding="utf-8")
    report = tmp_path / "report.json"
    expected = f"error: {cloud}:{linenos[0]}: flag 2 is not 0 or 1\n"
    assert _evaluate(refl, cloud, report) == (1, "", expected)
    assert not report.exists()


def test_an_os_error_in_the_worker_reads_as_in_one_process(tmp_path: Path) -> None:
    # the scan stream goes to the worker; its path is a directory
    scan = tmp_path / "scan"
    scan.mkdir()
    with pytest.raises(OSError) as one_process:
        open(scan, "w", encoding="utf-8")
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(FLIGHT), encoding="utf-8")
    epochs = tmp_path / "epochs.jsonl"
    assert _cli(["simulate", "--config", scen, "--out", epochs, "--scan", scan]) == (
        1, f"wrote 30 epochs to {epochs}\n", f"error: {one_process.value}\n"
    )


def test_simulate_without_a_scan_does_not_fork(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(FLIGHT), encoding="utf-8")
    epochs = tmp_path / "epochs.jsonl"
    assert _cli(["simulate", "--config", scen, "--out", epochs]) == (
        0, f"wrote 30 epochs to {epochs}\n", ""
    )
