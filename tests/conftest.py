from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pytest

import mgp
from mgp.positioning import FIX_GRADES


def fixes_of(rows: Iterable[tuple[int, mgp.FixStatus, mgp.Vec3 | None]]) -> mgp.Fixes:
    """A checked :class:`mgp.Fixes` from ``(antenna id, status, position or
    None)`` rows, each solved from 8 satellites."""
    rows = list(rows)
    p = [[np.nan] * 3 if r[2] is None else r[2].as_array() for r in rows]
    return mgp.Fixes.checked(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([FIX_GRADES.index(r[1]) for r in rows], dtype=np.int8),
        np.array(p, dtype=np.float64).reshape(-1, 3),
        np.full(len(rows), 8, dtype=np.int64),
    )


def baselines_of(observations: Iterable[mgp.VectorObservation]) -> mgp.Baselines:
    """A checked :class:`mgp.Baselines` holding ``observations`` as its rows."""
    obs = list(observations)
    return mgp.Baselines.checked(
        np.array([o.antenna_pair for o in obs], dtype=np.int64).reshape(-1, 2),
        np.array([o.v.as_array() for o in obs]).reshape(-1, 3),
        np.array([o.w.as_array() for o in obs]).reshape(-1, 3),
        np.array([o.fixed for o in obs], dtype=bool),
    )


def snr_of(rows: Iterable[tuple[str, tuple[float | None, ...]]]) -> mgp.SnrTable:
    """A checked :class:`mgp.SnrTable` from ``(satellite id, SNR per antenna,
    None where untracked)`` rows."""
    rows = list(rows)
    values = [[np.nan if x is None else x for x in snr] for _, snr in rows]
    width = len(values[0]) if values else 0
    dbhz = np.array(values, dtype=np.float64).reshape(len(values), width)
    return mgp.SnrTable.checked(tuple(sat for sat, _ in rows), dbhz)


def requery_constants(header: str) -> mgp.epochs.RequeryStream | None:
    """The requery constants of an epoch stream's header line, as the
    reader decodes them; the epoch decoders need them to read a line whose
    truth carries a requery state."""
    return mgp.streams._check_header(header, mgp.streams.EPOCH_HEADER, "header")


@dataclass(frozen=True)
class TimedRun:
    """A pipeline run plus the wall time spent producing it, so acceptance
    tests can enforce their runtime budgets while sharing fixtures."""

    result: mgp.RunResult
    seconds: float


@dataclass(frozen=True)
class TimedStream:
    blocks: list[mgp.EpochBlock]
    seconds: float


def _timed_stream(name: str) -> TimedStream:
    cfg = mgp.load_scenario(mgp.bundled_scenario_path(name))
    t0 = time.perf_counter()
    blocks = list(mgp.simulate(cfg))
    return TimedStream(blocks=blocks, seconds=time.perf_counter() - t0)


def _timed_run(stream: TimedStream, config: mgp.PipelineConfig) -> TimedRun:
    t0 = time.perf_counter()
    result = mgp.run(((block, []) for block in stream.blocks), config)
    return TimedRun(result=result, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def multipath_scenario() -> mgp.ScenarioConfig:
    return mgp.load_scenario(mgp.bundled_scenario_path("multipath"))


@pytest.fixture(scope="session")
def multipath_stream() -> TimedStream:
    return _timed_stream("multipath")


@pytest.fixture(scope="session")
def multipath_run6(multipath_stream: TimedStream) -> TimedRun:
    return _timed_run(multipath_stream, mgp.PipelineConfig())


@pytest.fixture(scope="session")
def multipath_run3(multipath_stream: TimedStream) -> TimedRun:
    return _timed_run(multipath_stream, mgp.PipelineConfig(antenna_subset=(1, 3, 5)))


@pytest.fixture(scope="session")
def fixrate_stream() -> TimedStream:
    return _timed_stream("fixrate")


@pytest.fixture(scope="session")
def fixrate_run(fixrate_stream: TimedStream) -> TimedRun:
    return _timed_run(fixrate_stream, mgp.PipelineConfig())


@pytest.fixture(scope="session")
def flight_scenario() -> mgp.ScenarioConfig:
    return mgp.load_scenario(mgp.bundled_scenario_path("flight"))


@dataclass(frozen=True)
class FlightData:
    scenario: mgp.ScenarioConfig
    frames: list[mgp.ScanFrame]
    truth_poses: mgp.Poses
    seconds: float


@pytest.fixture(scope="session")
def flight_data(flight_scenario: mgp.ScenarioConfig) -> FlightData:
    cfg = flight_scenario
    t0 = time.perf_counter()
    frames = list(mgp.scan_stream(cfg, cfg.scanner))
    poses = mgp.truth_poses(cfg, np.arange(cfg.n_epochs) / cfg.rate_hz)
    return FlightData(
        scenario=cfg,
        frames=frames,
        truth_poses=poses,
        seconds=time.perf_counter() - t0,
    )
