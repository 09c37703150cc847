"""Module layering: estimation code does not depend on the simulator, every
file is opened in the I/O modules, every record of arrays takes its rows
from one base, and the benchmark under perfbench/ finds every name it
uses."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import mgp

SRC = Path(mgp.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the modules that may import mgp.simulator: the package exports and the
# CLI's simulate step
SIMULATOR_IMPORTERS = {"__init__.py", "cli.py"}
# the modules that may open a file by its path: every file format is read
# and written in mgp.streams, and mgp.core reads the config files' text
FILE_OPENERS = {"core.py", "streams.py"}
# the calls that open a file by its path, besides the builtin open
_OPEN_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the mgp modules a module imports, with relative
    imports resolved against the package."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "mgp" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            out.add(module)
            # ``from . import simulator`` or ``from mgp import simulator``
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_only_cli_and_package_import_the_simulator() -> None:
    importers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if "mgp.simulator" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert set(importers) <= SIMULATOR_IMPORTERS, importers


def test_import_scan_sees_every_form() -> None:
    for source in (
        "from .simulator import simulate",
        "from . import simulator",
        "from mgp.simulator import simulate",
        "from mgp import simulator",
        "import mgp.simulator",
        "def f():\n    from .simulator import simulate\n",
    ):
        assert "mgp.simulator" in _imported_modules(ast.parse(source)), source
    assert "mgp.simulator" not in _imported_modules(ast.parse("from .streams import simulator_x"))


def _opens_files(tree: ast.Module) -> bool:
    """Whether a module calls ``open``, ``io.open`` or a ``Path`` method
    that opens a file; ``os.open`` and ``os.fdopen`` take descriptors and
    pipes, not file formats, and do not count."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return True
        if (isinstance(func, ast.Attribute) and func.attr in _OPEN_METHODS
                and not (isinstance(func.value, ast.Name) and func.value.id == "os")):
            return True
    return False


def test_only_streams_and_core_open_files() -> None:
    openers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if _opens_files(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert set(openers) == FILE_OPENERS, openers


def test_open_scan_sees_every_form() -> None:
    for source in (
        "open(p)",
        "with open(p, 'rb') as f:\n    pass\n",
        "io.open(p)",
        "Path(p).read_text()",
        "p.write_bytes(b'')",
        "def f():\n    return open(p)\n",
    ):
        assert _opens_files(ast.parse(source)), source
    for source in ("os.open(os.devnull, os.O_WRONLY)", "os.fdopen(fd, 'rb')", "f.opened()"):
        assert not _opens_files(ast.parse(source)), source


def test_records_of_arrays_count_select_and_join_by_rows() -> None:
    """``mgp.core.Rows`` is the one implementation of the row count, the
    row selection and the join of every record of arrays."""
    from mgp.core import Rows
    from mgp.epochs import ChannelDraws

    for cls in (mgp.Fixes, mgp.Baselines, mgp.Poses, mgp.Cloud, ChannelDraws):
        assert issubclass(cls, Rows), cls
        assert not {"__len__", "select", "joined"} & set(vars(cls)), cls


def _calls(fn) -> list[ast.Call]:
    """Every call in the source of ``fn``, nested functions included."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_front_half_takes_the_reader_block_as_it_is() -> None:
    """The block decoder builds one record of arrays per reader block and
    the front half takes it as it is: ``pipeline._chunks`` is gone, the
    decoder neither joins (``Rows.joined``, ``np.concatenate``) nor cuts
    (``streams._pieces``) the fixes, baselines or SNR rows of its epochs,
    and the front half cuts none and joins none per epoch: its only joins
    merge the replayed rows into the rows as read, two block-wide records
    given as a literal list or tuple."""
    import mgp.pipeline
    import mgp.streams

    assert not hasattr(mgp.pipeline, "_chunks")
    called = {_name(node) for node in _calls(mgp.streams._decode)}
    assert not {"joined", "concatenate", "_pieces"} & called
    for node in _calls(mgp.pipeline._FrontBlock.__init__):
        assert _name(node) != "_pieces"
        if _name(node) in ("joined", "concatenate"):
            (arg,) = node.args
            assert isinstance(arg, (ast.List, ast.Tuple)) and len(arg.elts) == 2, ast.unparse(node)


def test_the_reader_builds_its_blocks_by_decoding_only() -> None:
    """``streams._decode`` is the only builder of a reader block: the
    one-epoch fallback ``_epoch_or_fault`` is gone, and the block reader
    neither takes one-epoch views nor joins records of them."""
    import mgp.streams

    assert not hasattr(mgp.streams, "_epoch_or_fault")
    for fn in (mgp.streams._epoch_block, mgp.streams._decoded):
        assert not {"of", "epoch", "epoch_from_dict"} & {_name(node) for node in _calls(fn)}


def test_the_channel_draws_are_made_in_one_place() -> None:
    """The simulator and the requery replay both draw an epoch's channels
    with ``epochs.draw_channels``: the simulator keeps no draw code of its
    own, and the epoch stream no channel draw codec. ``draw_channels``
    makes only the generator calls, no rotation, and neither the replay nor
    the simulator joins per-epoch channel draws: a block's are built whole."""
    import mgp.epochs
    import mgp.simulator
    import mgp.streams

    for module, names in ((mgp.simulator, ("_build_channels", "_lattice_table")),
                          (mgp.streams, ("_requery_to_dict", "_requeries", "_draws"))):
        assert not [name for name in names if hasattr(module, name)], module.__name__
    for fn in (mgp.simulator.simulate, mgp.epochs.replay):
        assert "draw_channels" in {_name(node) for node in _calls(fn)}, fn.__name__
    draws = {"standard_normal", "random", "integers"}
    assert not draws & {_name(node) for node in _calls(mgp.epochs.replay)}
    assert "standard_normal" in {_name(node) for node in _calls(mgp.simulator.simulate)}  # SNR jitter
    assert not {"random", "integers"} & {_name(node) for node in _calls(mgp.simulator.simulate)}
    assert "quat_to_matrix" not in {_name(node) for node in _calls(mgp.epochs.draw_channels)}
    for fn in (mgp.simulator.simulate, mgp.epochs.replay):
        assert "joined" not in {_name(node) for node in _calls(fn)}, fn.__name__


def test_an_attitude_is_normalized_for_a_replay_in_one_place() -> None:
    """The truth attitude is kept as written and normalized for a replay
    only by ``block_draws``: the reader's truth decoder, the simulator and
    the replay call no ``unit_quats``, and there is no per-epoch requery
    record; ``replay`` takes one requery stream."""
    import mgp.epochs
    import mgp.simulator
    import mgp.streams

    assert not hasattr(mgp.epochs, "RequeryData")
    assert "unit_quats" in {_name(node) for node in _calls(mgp.epochs.block_draws)}
    for fn in (mgp.streams._truths, mgp.simulator.simulate, mgp.epochs.replay):
        assert "unit_quats" not in {_name(node) for node in _calls(fn)}, fn.__name__
    assert list(inspect.signature(mgp.epochs.replay).parameters)[:4] == [
        "stream", "states", "positions", "attitudes"]


def test_the_epoch_stream_is_blocks_from_the_simulator_to_the_file(monkeypatch) -> None:
    """The simulator builds each block of epochs whole, with one ``replay``
    of the block's draws, and the writer encodes blocks: ``mgp.simulator``
    does not name ``EpochRecord``, ``mgp.streams`` has no per-epoch encoder
    or batching of the writer, and a 70-epoch stream takes 3 ``replay``
    calls. The reader's block size is the simulator's."""
    import mgp.epochs
    import mgp.simulator
    import mgp.streams

    assert "EpochRecord" not in Path(mgp.simulator.__file__).read_text(encoding="utf-8")
    for name in ("epoch_to_dict", "WRITE_BLOCK", "epoch_from_dict", "epoch_blocks"):
        assert not hasattr(mgp.streams, name) and not hasattr(mgp, name), name
    assert mgp.streams.READ_BLOCK == mgp.epochs.EPOCH_BLOCK == 32
    calls: list[int] = []
    replay = mgp.simulator.replay

    def counted(stream, states, *args, **kwargs):
        calls.append(len(states))
        return replay(stream, states, *args, **kwargs)

    monkeypatch.setattr(mgp.simulator, "replay", counted)
    cfg = mgp.load_scenario(mgp.bundled_scenario_path("multipath"))
    blocks = list(mgp.simulate(dataclasses.replace(cfg, duration_s=7.0)))
    assert calls == [len(block) for block in blocks] == [32, 32, 6]


def test_an_epoch_is_a_block_of_one(tmp_path) -> None:
    """There is one epoch type: ``EpochRecord`` and ``EpochBlock.of`` are
    gone, under no other name in the sources or the README either, and
    ``read_epochs`` yields each epoch as an ``EpochBlock`` of length 1 at
    its line."""
    import mgp.epochs

    assert not hasattr(mgp, "EpochRecord") and not hasattr(mgp.epochs, "EpochRecord")
    assert not hasattr(mgp.EpochBlock, "of")
    for path in [*SRC.glob("*.py"), SRC.parents[1] / "README.md"]:
        text = path.read_text(encoding="utf-8")
        assert "EpochRecord" not in text and "EpochBlock.of" not in text, path.name
    cfg = mgp.load_scenario(mgp.bundled_scenario_path("multipath"))
    path = tmp_path / "epochs.jsonl"
    mgp.write_epochs(str(path), mgp.simulate(dataclasses.replace(cfg, duration_s=3.5)))
    epochs = list(mgp.read_epochs(str(path)))
    assert {type(epoch) for epoch in epochs} == {mgp.EpochBlock}
    assert [len(epoch) for epoch in epochs] == [1] * 35
    assert [epoch.lines.tolist() for epoch in epochs] == [[k + 2] for k in range(35)]


def test_the_epoch_file_has_one_reader_path() -> None:
    """The block decoder formats its own skips (``_skipped`` and
    ``_block_calls`` are gone), ``read_epochs`` is a view of
    ``read_epoch_blocks`` with no ``diagnostics`` option, the CLI does not
    call ``read_epochs``, and the SVD oracle builds no row objects."""
    import mgp.cli
    import mgp.oracles
    import mgp.streams

    assert not hasattr(mgp.streams, "_skipped") and not hasattr(mgp.streams, "_block_calls")
    assert list(inspect.signature(mgp.read_epochs).parameters) == ["path"]
    assert "read_epoch_blocks" in {_name(node) for node in _calls(mgp.streams.read_epochs)}
    cli = ast.parse(Path(mgp.cli.__file__).read_text(encoding="utf-8"))
    called = {_name(node) for node in ast.walk(cli) if isinstance(node, ast.Call)}
    assert "read_epochs" not in called
    assert "read_epoch_blocks" in {_name(node) for node in _calls(mgp.cli._cmd_oracle_wahba)}
    assert not {"getattr", "as_array", "VectorObservation"} & {
        _name(node) for node in _calls(mgp.oracles.wahba_svd)}


def test_back_half_takes_the_front_blocks_rows() -> None:
    """The front half gives each block's rows as one record, with each
    row's epoch, and the back half takes them as they are: there is no
    per-epoch view of a front block, ``run`` neither cuts nor joins rows,
    and ``consensus`` takes its epochs' rows joined with their offsets."""
    import mgp.pipeline
    import mgp.robust

    assert not hasattr(mgp.pipeline._FrontBlock, "epoch")
    assert not {"select", "joined"} & {_name(node) for node in _calls(mgp.pipeline.run)}
    assert "joined" not in {_name(node) for node in _calls(mgp.robust.consensus)}


def test_run_takes_each_front_block_whole() -> None:
    """``run`` tallies, stamps and skips a front block's epochs with array
    passes over the block: there is no per-epoch detection report of a
    front block, no separate tally of its fixes, and neither ``run`` nor
    the tally builds a ``MultipathReport``. The solve block is the front
    block: there is no cap on its pair hypotheses and no queue of rows."""
    import mgp.pipeline

    assert not hasattr(mgp.pipeline, "BLOCK_PAIRS") and not hasattr(mgp.pipeline, "_Rows")
    assert not hasattr(mgp.pipeline._FrontBlock, "report")
    assert not hasattr(mgp.pipeline._Tally, "fixed")
    for code in (mgp.pipeline.run, mgp.pipeline._Tally):
        assert "MultipathReport" not in {_name(node) for node in _calls(code)}


def test_perfbench_finds_every_name_it_uses() -> None:
    """The tracer wraps each ``(module, attribute)`` of its TARGETS, the
    chain imports names from mgp, and both read these fields of the records
    they get. A name missing here fails the benchmark only when it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, *_ in tracer.TARGETS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"

    chain = ast.parse((PERFBENCH / "chain.py").read_text(encoding="utf-8"))
    imported = 0
    for node in ast.walk(chain):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mgp":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mgp":
                    importlib.import_module(alias.name)
                    imported += 1
    assert imported >= 5

    # chain.py's eigen-solve timing and the tracer's consensus attributes
    # iterate a Baselines record and read these fields of each row
    baselines = mgp.Baselines.checked(
        np.array([[1, 2]]), np.array([[0.0, 0.9, 0.0]]), np.array([[0.9, 0.0, 0.0]]),
        np.array([True]),
    )
    (row,) = baselines
    assert row.fixed is True and row.antenna_pair == (1, 2)
    assert np.array_equal(row.v.as_array(), [0.0, 0.9, 0.0]) and row.w.norm() == 0.9
    fields = {f.name for f in dataclasses.fields(mgp.RobustAttitudeResult)}
    assert {"solution", "inlier_pairs", "iterations_used"} <= fields


def test_cli_imports_no_process_pool() -> None:
    """``ordered_map`` forks its worker itself: importing the CLI must not
    load ``multiprocessing`` or ``concurrent.futures``, which cost set-up
    time and peak RSS in every step."""
    script = (
        "import sys, mgp.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('multiprocessing', 'concurrent')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                         capture_output=True, text=True, encoding="utf-8").stdout
    assert out == "[]\n"
