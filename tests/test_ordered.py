"""The worker path: ``ordered_map`` and the readers and CLI steps that use it.

``ordered_map`` shares its items on demand between the caller and one forked
worker. Its results must come in item order, each exception at its own
place, and no process may be left behind: after a success, a fault or a
generator closed early, ``os.waitpid(-1, os.WNOHANG)`` must find no child.
Which process runs an item depends on timing, so every test that places an
item in one process forces the placement: ``_force(monkeypatch, False)``
makes the worker's result never ready when the caller looks, so the caller
runs the even items and the worker the odd ones; ``_force(monkeypatch,
True)`` makes it always ready, so the worker runs every item but item 0.
Through the readers and the CLI, a fault in a block or chunk the worker
handles must read as one in a block or chunk the caller handles, and as one
in one process: the same ``path:line`` message and exit code, and no
partial cloud.
"""
from __future__ import annotations

import errno
import itertools
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator

import pytest

import mgp
import mgp.ordered
import mgp.streams
from mgp.ordered import ordered_map

from scalar_epochs import epoch_to_dict, epochs_of
from test_cli import FLIGHT
from test_epoch_differential import _scenario
from test_pulse_blocks import _cli, _evaluate, _files, _georef, _xyz_lines
from test_requery_differential import _ref_header


@pytest.fixture(autouse=True)
def no_child_left() -> Iterator[None]:
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force(monkeypatch: pytest.MonkeyPatch, ready: bool) -> None:
    """Make the worker's result never (False) or always (True) ready when
    the caller looks; see the module docstring."""
    monkeypatch.setattr(mgp.ordered._Worker, "ready", lambda self: ready)


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


def test_results_come_in_item_order_from_the_caller_and_one_worker() -> None:
    got = list(ordered_map(_pid, range(9)))
    assert [item for item, _ in got] == list(range(9))
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid() and pids[1] != os.getpid()
    assert set(pids) == {os.getpid(), pids[1]}


def test_a_slow_worker_gets_fewer_items_and_a_slow_caller_fewer(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    caller = os.getpid()

    def slow_worker(item: int) -> tuple[int, int]:
        if os.getpid() != caller:
            time.sleep(0.02)
        return _pid(item)

    # a slow worker is not ready when the caller looks, so the caller runs
    # an item while it waits, one at most
    with monkeypatch.context() as m:
        _force(m, False)
        got = list(ordered_map(slow_worker, range(12)))
    assert [item for item, _ in got] == list(range(12))
    assert [item for item, pid in got if pid != caller] == [1, 3, 5, 7, 9, 11]
    # a slow caller, busy with each result, finds the worker's next one
    # ready every time and runs item 0 alone
    got = []
    with monkeypatch.context() as m:
        _force(m, True)
        for result in ordered_map(_pid, range(12)):
            time.sleep(0.02)
            got.append(result)
    assert [item for item, _ in got] == list(range(12))
    assert [item for item, pid in got if pid == caller] == [0]


@pytest.mark.parametrize("n", [0, 1])
def test_a_call_with_at_most_one_item_does_not_fork(
    monkeypatch: pytest.MonkeyPatch, n: int
) -> None:
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert list(ordered_map(_pid, range(n))) == [(0, os.getpid())][:n]


def _fork_fails() -> int:
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def test_without_fork_the_caller_maps_every_item(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Where ``os.fork`` is missing or raises, every item is mapped in the
    caller, no pipe is left open, and a whole ``estimate`` gives the outputs
    of a run in a process that may not fork, as a worker is. Starts no
    process."""
    fds = sorted(os.listdir("/proc/self/fd"))
    path = tmp_path / "epochs.jsonl"
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", EPOCH_BLOCK)
    with monkeypatch.context() as m:
        m.setattr(mgp.ordered, "_busy", True)
        mgp.write_epochs(str(path), mgp.simulate(_scenario("multipath", 2.0)))
        inline = _estimate(path, tmp_path / "inline")
    assert inline[0] == 0 and inline[2] == ""
    for no_fork in ("deleted", "raises"):
        with monkeypatch.context() as m:
            if no_fork == "deleted":
                m.delattr(os, "fork")
            else:
                m.setattr(os, "fork", _fork_fails)
            got = list(ordered_map(_pid, range(5)))
            assert got == [(k, os.getpid()) for k in range(5)], no_fork
            assert sorted(os.listdir("/proc/self/fd")) == fds, no_fork
            assert not mgp.ordered._busy
            assert _estimate(path, tmp_path / no_fork) == inline, no_fork
            assert sorted(os.listdir("/proc/self/fd")) == fds, no_fork


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 6])
def test_an_exception_comes_at_its_own_place(bad: int) -> None:
    got, fault = _until_fault(ordered_map(_fail_at(bad), range(8)))
    assert (got, fault) == ([k * k for k in range(bad)], f"item {bad}")


@pytest.mark.parametrize("ready", [False, True], ids=["never-ready", "always-ready"])
@pytest.mark.parametrize("bad", [0, 1, 2, 3, 6])
def test_a_placed_exception_comes_at_its_own_place(
    monkeypatch: pytest.MonkeyPatch, bad: int, ready: bool
) -> None:
    _force(monkeypatch, ready)
    got, fault = _until_fault(ordered_map(_fail_at(bad), range(8)))
    assert (got, fault) == ([k * k for k in range(bad)], f"item {bad}")


@pytest.mark.parametrize("also_bad", [False, True], ids=["next-good", "next-bad"])
def test_a_worker_exception_comes_before_the_callers_next_item(
    monkeypatch: pytest.MonkeyPatch, also_bad: bool
) -> None:
    # item 3 raises in the worker; the caller has run item 4 before it
    # takes item 3's result, and item 4's result or exception stays unseen
    caller = os.getpid()
    ran: list[int] = []

    def fn(item: int) -> int:
        if os.getpid() == caller:
            ran.append(item)
        if item == 3 or (also_bad and item == 4):
            raise ValueError(f"item {item}")
        return item * item

    _force(monkeypatch, False)
    assert _until_fault(ordered_map(fn, range(8))) == ([0, 1, 4], "item 3")
    assert ran == [0, 2, 4]


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
    assert not mgp.ordered._busy


@pytest.mark.parametrize("ready", [False, True], ids=["never-ready", "always-ready"])
@pytest.mark.parametrize("taken", [1, 2, 3])
def test_a_placed_generator_closed_early_leaves_no_child(
    monkeypatch: pytest.MonkeyPatch, taken: int, ready: bool
) -> None:
    # closed while the caller holds a result ahead, or while the worker
    # holds an item
    _force(monkeypatch, ready)
    results = ordered_map(_pid, range(10))
    assert [item for item, _ in itertools.islice(results, taken)] == list(range(taken))
    results.close()
    assert not mgp.ordered._busy


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("not picklable")


class _Unsent(ValueError):
    """An exception that does not pickle: it holds an _Unpicklable."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.held = _Unpicklable()


def _serve_logged(monkeypatch: pytest.MonkeyPatch, log: Path) -> None:
    """Make the worker write to ``log`` how its loop ended: "clean" at the
    end of its input, or the name of the exception that ended it."""
    serve = mgp.ordered._serve

    def logged(*args: object) -> None:
        try:
            serve(*args)
        except BaseException as exc:
            log.write_text(type(exc).__name__, encoding="utf-8")
            raise
        log.write_text("clean", encoding="utf-8")

    monkeypatch.setattr(mgp.ordered, "_serve", logged)


@pytest.mark.parametrize("ready", [False, True], ids=["never-ready", "always-ready"])
def test_items_and_results_past_a_mebibyte_cross_whole(
    monkeypatch: pytest.MonkeyPatch, ready: bool
) -> None:
    # items of 1.5 MiB and results of 3 MiB, larger than any pipe buffer
    items = [bytes(range(256)) * 6144 + bytes([k]) for k in range(5)]
    _force(monkeypatch, ready)
    got = list(ordered_map(lambda b: (b[::-1] * 2, os.getpid()), items))
    assert [r for r, _ in got] == [b[::-1] * 2 for b in items]
    assert len({pid for _, pid in got}) == 2


@pytest.mark.parametrize("ready", [False, True], ids=["never-ready", "always-ready"])
def test_empty_items_and_results_cross(monkeypatch: pytest.MonkeyPatch, ready: bool) -> None:
    _force(monkeypatch, ready)
    got = list(ordered_map(lambda b: (b, os.getpid()), [b""] * 4))
    assert [r for r, _ in got] == [b""] * 4
    assert len({pid for _, pid in got}) == 2


@pytest.mark.parametrize("bad", [1, 3])
@pytest.mark.parametrize("kind", ["result", "exception"])
def test_what_the_worker_cannot_pickle_comes_at_its_own_place(
    monkeypatch: pytest.MonkeyPatch, kind: str, bad: int
) -> None:
    # the odd items are the worker's: a result that does not pickle is the
    # exception pickling raised, one that does not pickle a RuntimeError
    def fn(item: int) -> object:
        if item != bad:
            return item * item
        if kind == "result":
            return _Unpicklable()
        raise _Unsent(f"item {item}")

    _force(monkeypatch, False)
    got: list[object] = []
    with pytest.raises((TypeError, RuntimeError)) as fault:
        for result in ordered_map(fn, range(6)):
            got.append(result)
    assert got == [k * k for k in range(bad)]
    want = (TypeError, "not picklable") if kind == "result" else (RuntimeError, f"_Unsent: item {bad}")
    assert (type(fault.value), str(fault.value)) == want


class _Item:
    """An item of the map: its value, and a lock that keeps it from
    pickling where it has one."""

    def __init__(self, value: int, locked: bool = False) -> None:
        self.value = value
        self.lock = threading.Lock() if locked else None


def _value_pid(item: _Item) -> tuple[int, int]:
    return item.value, os.getpid()


def _check_unpicklable_item(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, ready: bool, bad: int
) -> None:
    """``ordered_map`` over ``_Item(0)`` to ``_Item(4)``, item ``bad``
    locked, with placement forced by ``ready``: the results of one process,
    item ``bad``'s from the caller; the worker is sent nothing of it and
    reads the end of its input, and no child or descriptor is left."""
    fds = sorted(os.listdir("/proc/self/fd"))
    log = tmp_path / "log"
    _serve_logged(monkeypatch, log)
    _force(monkeypatch, ready)
    got = list(ordered_map(_value_pid, [_Item(k, locked=k == bad) for k in range(5)]))
    assert [value for value, _ in got] == list(range(5))
    assert got[bad][1] == os.getpid()
    assert log.read_text(encoding="utf-8") == "clean"
    assert not mgp.ordered._busy
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_an_item_that_does_not_pickle_sends_nothing(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # item 3 is the worker's; it runs in the caller instead, and its result
    # comes at its place, as in one process
    _check_unpicklable_item(tmp_path, monkeypatch, False, 3)


@pytest.mark.parametrize("ready, bad", [(False, 1), (True, 1), (True, 2)],
                         ids=["item-1", "item-1-always-ready", "item-2-always-ready"])
def test_any_item_that_does_not_pickle_runs_in_the_caller(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, ready: bool, bad: int
) -> None:
    _check_unpicklable_item(tmp_path, monkeypatch, ready, bad)


@pytest.mark.parametrize("holding", [False, True], ids=["idle", "holding-an-item"])
def test_a_dead_worker_is_an_error_and_leaves_nothing_behind(holding: bool) -> None:
    # killed after one result, idle or while it runs its next item: the
    # next send or receive raises, and close waits for it all the same
    fds = sorted(os.listdir("/proc/self/fd"))
    worker = mgp.ordered._Worker(time.sleep)
    try:
        worker.send(0)
        assert worker.receive() == (True, None)
        if holding:
            worker.send(60)
        os.kill(worker.pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not worker.ready():  # the hangup of its results pipe
            assert time.monotonic() < deadline
            time.sleep(0.001)
        with pytest.raises(ChildProcessError, match=f"^worker process {worker.pid} ended "):
            worker.receive() if holding else worker.send(1)
    finally:
        worker.close()
    assert not mgp.ordered._busy
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_worker_on_descriptors_past_fd_setsize_works() -> None:
    # select() takes no descriptor from 1024 on; the readiness check must
    # not depend on it
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 1100:
        pytest.skip(f"open file limit {soft}")
    fds = [os.open(os.devnull, os.O_RDONLY)]
    try:
        while fds[-1] < 1040:
            fds.append(os.open(os.devnull, os.O_RDONLY))
        got = list(ordered_map(_pid, range(8)))
    finally:
        for fd in fds:
            os.close(fd)
    assert [item for item, _ in got] == list(range(8))
    assert len({pid for _, pid in got}) == 2


def _nested(item: int) -> tuple[int, set[int]]:
    """``item`` and the processes an ordered_map inside it ran in."""
    inner = list(ordered_map(_pid, range(4)))
    assert [k for k, _ in inner] == list(range(4))
    return item, {pid for _, pid in inner}


@pytest.mark.parametrize("ready", [False, True], ids=["never-ready", "always-ready"])
def test_a_nested_map_runs_inline(monkeypatch: pytest.MonkeyPatch, ready: bool) -> None:
    # inside the worker, and inside an item the caller runs while the worker
    # lives, a map runs where it is called: two processes in all
    _force(monkeypatch, ready)
    caller = os.getpid()
    got = list(ordered_map(lambda k: (*_nested(k), os.getpid()), range(6)))
    assert [k for k, _, _ in got] == list(range(6))
    assert all(inner == {pid} for _, inner, pid in got)
    assert {pid for _, _, pid in got if pid == caller} == {caller}
    assert len({pid for _, _, pid in got}) == 2
    assert not mgp.ordered._busy


def test_a_map_of_the_results_of_another_runs_inline() -> None:
    # the inner map forks when the outer one asks for its first two items,
    # so the outer one runs where it is called
    caller = os.getpid()
    got = list(ordered_map(lambda r: (*r, os.getpid()), ordered_map(_pid, range(6))))
    assert [k for k, _, _ in got] == list(range(6))
    assert {outer for _, _, outer in got} == {caller}
    assert len({inner for _, inner, _ in got} | {caller}) == 2


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


# With one line a chunk, line k is chunk k - 2, and with the placement
# forced, the caller's when k is even and the worker's when it is odd. Of
# two faults the first is named; lines 28 and 29 are the first with pulses.
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
    _force(monkeypatch, False)
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
    # chunks of 925 characters, three of them: with the placement forced,
    # block 1 is the worker's and block 2 the caller's, and a place (k, d)
    # is line d after the first of block k. A flag of 2 in place of 0 or 1
    # keeps the line length, and so the cuts.
    monkeypatch.setattr(mgp.streams, "CHUNK", 37 * 25)
    _force(monkeypatch, False)
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


@pytest.mark.parametrize("duration, scan", [(7.0, False), (7.0, True), (3.0, False)],
                         ids=["epochs", "epochs-and-scan", "one-block"])
def test_simulate_forks_one_worker(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, duration: float, scan: bool
) -> None:
    # without a scan, the epoch writer's blocks are shared with a worker,
    # unless the stream is one block of the simulator; with a scan, the
    # scan stream is the worker's and the epoch writer, started while it
    # lives, maps its blocks in the caller
    forks: list[int] = []
    fork = os.fork

    def counted() -> int:
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    # 70 epochs are three blocks of the simulator, 30 one
    flight = {**FLIGHT, "duration_s": duration}
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(flight), encoding="utf-8")
    epochs, frames = tmp_path / "epochs.jsonl", tmp_path / "scan.jsonl"
    argv = ["simulate", "--config", scen, "--out", epochs] + ["--scan", frames] * scan
    n, n_frames = round(duration * 10), round(duration * 13)
    out = f"wrote {n} epochs to {epochs}\n" + f"wrote {n_frames} scan frames to {frames}\n" * scan
    assert _cli(argv) == (0, out, "")
    assert forks == [os.getpid()] * (n > mgp.epochs.EPOCH_BLOCK or scan)
    reference = tmp_path / "reference.jsonl"
    cfg = mgp.scenario_from_dict(flight)
    mgp.streams._write_lines(str(reference), _ref_header(cfg),
                             map(epoch_to_dict, epochs_of(mgp.simulate(cfg))))
    assert epochs.read_bytes() == reference.read_bytes()


# The epoch stream through the worker. Blocks of 4 lines: lines 2-5 are
# block 0, the caller's, lines 6-9 block 1, the worker's, and so on, with
# the placement forced by _force(monkeypatch, False); a stream of 6 s has
# 60 epoch lines, so 15 blocks.
EPOCH_BLOCK = 4


@pytest.fixture(scope="module")
def epoch_streams(tmp_path_factory: pytest.TempPathFactory) -> dict[str, Path]:
    out = {}
    for name in ("multipath", "flight"):
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(_scenario(name, 6.0)))
        out[name] = path
    return out


def _with_bad_epochs(path: Path, out: Path, linenos: list[int]) -> Path:
    """The stream at ``path`` with lines ``linenos`` broken: a missing
    key on the odd ones, a line that is not JSON on the even ones."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for k in linenos:
        lines[k - 1] = lines[k - 1].replace('"t"', '"tt"', 1) if k % 2 else "{not json\n"
    bad = out / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    return bad


def _read(path: Path, skip: bool, limit: int | None = None) -> tuple[list[str], list[str], str]:
    """The JSON of each epoch ``read_epochs`` yields (at most ``limit``),
    its diagnostics in skip mode, and the message of the fault it raised."""
    diagnostics: list[str] | None = [] if skip else None
    got: list[str] = []
    try:
        for epoch in itertools.islice(mgp.read_epochs(str(path), diagnostics=diagnostics), limit):
            got.append(json.dumps(epoch_to_dict(epoch)))
    except mgp.InputError as exc:
        return got, diagnostics or [], str(exc)
    return got, diagnostics or [], ""


@pytest.mark.parametrize("skip", [False, True], ids=["raise", "skip"])
@pytest.mark.parametrize(
    "linenos",
    [[], [7], [11], [7, 11], [11, 14], [2, 3, 61]],
    ids=["clean", "worker", "caller", "worker-then-caller", "caller-then-worker", "edges"],
)
@pytest.mark.parametrize("name", ["multipath", "flight"])
def test_the_epoch_reader_reads_the_same_in_either_process(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, epoch_streams: dict[str, Path],
    name: str, linenos: list[int], skip: bool,
) -> None:
    path = _with_bad_epochs(epoch_streams[name], tmp_path, linenos)
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", EPOCH_BLOCK)
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one_process = _read(path, skip)
    epochs, diagnostics, fault = one_process
    assert len(diagnostics) == len(linenos) * skip
    assert bool(fault) == bool(linenos and not skip)
    assert len(epochs) == (60 - len(linenos) if skip or not linenos else min(linenos) - 2)
    for ready in (False, True):
        with monkeypatch.context() as m:
            _force(m, ready)
            assert _read(path, skip) == one_process


@pytest.mark.parametrize("limit", [1, 5, 20])
def test_an_epoch_reader_closed_early_leaves_no_child(
    monkeypatch: pytest.MonkeyPatch, epoch_streams: dict[str, Path], limit: int
) -> None:
    # as perfbench's eigen benchmark reads: the first epochs, through islice
    path = epoch_streams["multipath"]
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", EPOCH_BLOCK)
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one_process = _read(path, False, limit)
    assert len(one_process[0]) == limit
    for ready in (False, True):
        with monkeypatch.context() as m:
            _force(m, ready)
            assert _read(path, False, limit) == one_process
            assert not mgp.ordered._busy


def _estimate(path: Path, out_dir: Path) -> tuple[object, ...]:
    """Exit code, stdout, stderr, poses and metrics of ``estimate`` on the
    stream at ``path``, its outputs written to ``out_dir``."""
    out_dir.mkdir()
    pipe, poses, metrics = (out_dir / name for name in ("pipe.json", "poses.csv", "metrics.json"))
    pipe.write_text("{}", encoding="utf-8")
    code, out, err = _cli(["estimate", "--epochs", path, "--config", pipe,
                           "--poses", poses, "--metrics", metrics])
    return code, out.replace(str(out_dir), ""), err, poses.read_bytes(), metrics.read_bytes()


@pytest.mark.parametrize("linenos", [[], [7, 11]], ids=["clean", "bad-lines"])
def test_estimate_reads_the_same_in_either_process(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, epoch_streams: dict[str, Path],
    linenos: list[int],
) -> None:
    # stdout, stderr and both outputs, diagnostics of the reader and of the
    # pipeline interleaved as in one process
    path = _with_bad_epochs(epoch_streams["multipath"], tmp_path, linenos)
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", EPOCH_BLOCK)
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        one_process = _estimate(path, tmp_path / "one")
    assert one_process[2].count("skipped epoch") == len(linenos)
    for ready in (False, True):
        with monkeypatch.context() as m:
            _force(m, ready)
            assert _estimate(path, tmp_path / f"two{ready}") == one_process


@pytest.mark.parametrize("ready", [False, True], ids=["never-ready", "always-ready"])
@pytest.mark.parametrize("name", ["multipath", "flight"])
def test_the_epoch_writer_writes_the_bytes_of_one_process(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, name: str, ready: bool
) -> None:
    cfg = _scenario(name, 6.0)
    reference, two = tmp_path / "reference.jsonl", tmp_path / "two.jsonl"
    mgp.streams._write_lines(str(reference), _ref_header(cfg),
                             map(epoch_to_dict, epochs_of(mgp.simulate(cfg))))
    _force(monkeypatch, ready)
    assert mgp.write_epochs(str(two), mgp.simulate(cfg)) == 60
    assert two.read_bytes() == reference.read_bytes()


def test_estimate_whose_worker_ends_fails_with_a_message(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, epoch_streams: dict[str, Path]
) -> None:
    # the reader's worker is killed, and has ended, when it is to be sent
    # its second block
    send = mgp.ordered._Worker.send
    sent: list[object] = []

    def send_to_the_dead(self: mgp.ordered._Worker, item: object) -> None:
        if sent:
            os.kill(self.pid, signal.SIGKILL)
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        sent.append(item)
        send(self, item)

    monkeypatch.setattr(mgp.ordered._Worker, "send", send_to_the_dead)
    monkeypatch.setattr(mgp.streams, "READ_BLOCK", EPOCH_BLOCK)
    _force(monkeypatch, False)
    pipe, poses, metrics = (tmp_path / name for name in ("pipe.json", "poses.csv", "metrics.json"))
    pipe.write_text("{}", encoding="utf-8")
    code, out, err = _cli(["estimate", "--epochs", epoch_streams["multipath"], "--config", pipe,
                           "--poses", poses, "--metrics", metrics])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: worker process \d+ ended without a result\n", err), err
    assert list(tmp_path.iterdir()) == [pipe]
    assert not mgp.ordered._busy
