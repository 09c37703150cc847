from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

import mgp


@dataclass(frozen=True)
class TimedRun:
    """A pipeline run plus the wall time spent producing it, so acceptance
    tests can enforce their runtime budgets while sharing fixtures."""

    result: mgp.RunResult
    seconds: float


@dataclass(frozen=True)
class TimedStream:
    epochs: list[mgp.EpochRecord]
    seconds: float


def _timed_stream(name: str) -> TimedStream:
    cfg = mgp.load_scenario(mgp.bundled_scenario_path(name))
    t0 = time.perf_counter()
    epochs = list(mgp.simulate(cfg))
    return TimedStream(epochs=epochs, seconds=time.perf_counter() - t0)


def _timed_run(stream: TimedStream, config: mgp.PipelineConfig) -> TimedRun:
    t0 = time.perf_counter()
    result = mgp.run(iter(stream.epochs), config)
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
