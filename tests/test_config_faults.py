"""Fault injection for the JSON config files.

Each mutant changes one leaf or key of a well-formed config: a number
becomes a string or a boolean, an integer count becomes a fraction, an
array becomes an object, a key is dropped or an unknown key is added.
Decoding a mutant must raise ConfigurationError naming the dotted key path,
unless the mutant is a well-typed config (a dropped key with a default) or
a value a constructor rejects (ValidationError). Through the CLI step that
reads the file, a rejected mutant exits 1 (2 for a constructor rejection)
with the file path in the message and no traceback.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
from mgp import ConfigurationError, ValidationError
from mgp.cli import main

# Keys whose fields are integers; every other number leaf is a float field.
INT_KEYS = {
    "seed",
    "pulses_per_rev",
    "wrong_fix_max_multiple",
    "min_inliers",
    "min_count",
    "antenna_subset",
    "min_hits",
}

PIPELINE = {
    "layout": {
        "body_positions": [[0.9, 0.0, 0.0], [0.0, 0.9, 0.0], [-0.9, 0.0, 0.0], [0.0, -0.9, 0.0]]
    },
    "ransac": {"inlier_threshold_m": 0.05, "min_inliers": 3},
    "multipath": {"threshold_dbhz": 4.0, "min_count": 3},
    "multipath_feedback": True,
    "antenna_subset": [1, 2, 4],
}
PIPELINE_HEXAGON = {"layout": {"hexagon_circumradius_m": 0.45}, "antenna_subset": [2, 4, 6]}
CALIBRATION = {"lever_arm": [0.1, -0.2, 0.3], "boresight": [0.0, 0.0, 0.6, 0.8]}
REFLECTORS = {
    "reflectors": [[-45.0, -4.0, 0.0], [15.0, -4.0, 0.0]],
    "cluster_radius_m": 0.8,
    "min_hits": 10,
}


def _bundled(name: str) -> dict[str, Any]:
    return json.loads(Path(mgp.bundled_scenario_path(name)).read_text())


LOADERS: dict[str, Callable[[str], Any]] = {
    "scenario": mgp.load_scenario,
    "pipeline": mgp.load_pipeline_config,
    "calibration": mgp.load_calibration,
    "reflectors": mgp.load_reflectors,
}


BASES = {
    "scenario-multipath": ("scenario", _bundled("multipath")),
    "scenario-fixrate": ("scenario", _bundled("fixrate")),
    "scenario-flight": ("scenario", _bundled("flight")),
    "pipeline": ("pipeline", PIPELINE),
    "pipeline-hexagon": ("pipeline", PIPELINE_HEXAGON),
    "calibration": ("calibration", CALIBRATION),
    "reflectors": ("reflectors", REFLECTORS),
}


# -- mutants ------------------------------------------------------------------------


Path_ = tuple  # a key path: str keys and int indexes


def _named(path: Path_) -> str:
    """The dotted form of ``path`` down to its last key, as messages name
    it: an array element's type problem names the array."""
    last = max(i for i, part in enumerate(path) if isinstance(part, str))
    out = ""
    for part in path[: last + 1]:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def _nodes(value: Any, path: Path_ = ()) -> Iterator[tuple[Path_, Any]]:
    yield path, value
    if type(value) is dict:
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif type(value) is list:
        for i, child in enumerate(value):
            yield from _nodes(child, path + (i,))


_DROP = object()
_ADD = object()


def _mutants(base: dict[str, Any]) -> list[tuple[str, Path_, Any]]:
    """(mutation, path, replacement) for every applicable site. A
    replacement of ``_DROP`` removes the key; ``_ADD`` marks an object that
    gains an unknown key."""
    out = []
    for path, value in _nodes(base):
        if type(value) in (int, float):
            out.append(("number-to-string", path, str(value)))
            out.append(("number-to-boolean", path, True))
            last_key = [part for part in path if isinstance(part, str)][-1]
            if type(value) is int and last_key in INT_KEYS:
                out.append(("int-to-float", path, value + 0.5))
        elif type(value) is list:
            out.append(("array-to-object", path, {str(i): v for i, v in enumerate(value)}))
        elif type(value) is dict:
            out.append(("unknown-key", path + ("zz_unknown",), _ADD))
            for key in value:
                out.append(("drop-key", path + (key,), _DROP))
    return out


def _apply(base: dict[str, Any], path: Path_, replacement: Any) -> dict[str, Any]:
    d = copy.deepcopy(base)
    parent = d
    for part in path[:-1]:
        parent = parent[part]
    if replacement is _DROP:
        del parent[path[-1]]
    elif replacement is _ADD:
        parent[path[-1]] = 1
    else:
        parent[path[-1]] = replacement
    return d


def _write(tmp_path: Path, config: dict[str, Any]) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _check_load(
    tmp_path: Path, kind: str, mutation: str, path: Path_, mutant: dict[str, Any]
) -> Exception | None:
    """Load one mutant from a file and check the outcome its mutation
    allows; returns the error raised, if any."""
    file = _write(tmp_path, mutant)
    try:
        LOADERS[kind](file)
    except ConfigurationError as exc:
        message = str(exc)
        assert message.startswith(f"{file}: "), message
        if mutation == "drop-key":
            # the object the key left, and the key
            expected = [path[-1]] + ([_named(path[:-1])] if path[:-1] else [])
        else:
            expected = [_named(path)]
        assert all(e in message for e in expected), f"{mutation} at {path}: {message}"
        return exc
    except ValidationError as exc:
        # a constructor rejected a well-typed value: only a dropped key
        # (its default) can make one
        assert mutation == "drop-key", f"{mutation} at {path}: {exc}"
        assert str(exc).startswith(f"{file}: "), str(exc)
        return exc
    assert mutation == "drop-key", f"{mutation} at {path} was accepted"
    return None


ALL_MUTANTS = [
    (name, kind, mutation, path, _apply(base, path, replacement))
    for name, (kind, base) in BASES.items()
    for mutation, path, replacement in _mutants(base)
]


def test_every_mutation_kind_occurs() -> None:
    kinds = {(name, mutation) for name, _, mutation, _, _ in ALL_MUTANTS}
    for name in BASES:
        for mutation in ("number-to-string", "number-to-boolean", "array-to-object",
                         "unknown-key", "drop-key"):
            assert (name, mutation) in kinds
    assert {name for name, mutation in kinds if mutation == "int-to-float"} >= {
        "scenario-multipath", "scenario-flight", "pipeline", "reflectors"
    }


def test_every_mutant_loads_to_a_named_error(tmp_path: Path) -> None:
    """The exhaustive sweep: every mutant of every base config."""
    for name, kind, mutation, path, mutant in ALL_MUTANTS:
        _check_load(tmp_path, kind, mutation, path, mutant)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=st.sampled_from(ALL_MUTANTS))
def test_mutants_through_the_cli(tmp_path: Path, cli_inputs: dict[str, str], case: Any) -> None:
    name, kind, mutation, path, mutant = case
    exc = _check_load(tmp_path, kind, mutation, path, mutant)
    if exc is None:
        return  # a well-typed config; running the step proves nothing here
    code, err = _run_cli(kind, mutant, tmp_path, cli_inputs)
    assert code == (1 if isinstance(exc, ConfigurationError) else 2), err
    assert "Traceback" not in err
    assert err == f"error: {exc}\n"


# -- the CLI --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory: pytest.TempPathFactory) -> dict[str, str]:
    """Valid files each step reads before its config: a pose CSV for georef
    and a cloud for evaluate."""
    root = tmp_path_factory.mktemp("inputs")
    poses, cloud = root / "poses.csv", root / "cloud.xyz"
    mgp.write_poses(
        str(poses),
        mgp.Poses(np.zeros(1), np.array([[0.0, 0.0, 30.0]]), np.array([[0.0, 0.0, 0.0, 1.0]]),
                  np.array([6])),
    )
    mgp.write_cloud(cloud, mgp.Cloud(p=np.zeros((1, 3)), reflector=np.ones(1, dtype=bool)))
    return {"poses": str(poses), "cloud": str(cloud)}


def _run_cli(
    kind: str, config: dict[str, Any], tmp_path: Path, inputs: dict[str, str]
) -> tuple[int, str]:
    path = _write(tmp_path, config)
    out = tmp_path / "out"
    argv = {
        "scenario": ["simulate", "--config", path, "--out", str(out)],
        "pipeline": ["estimate", "--epochs", str(tmp_path / "none.jsonl"), "--config", path,
                     "--poses", str(out), "--metrics", str(out)],
        "calibration": ["georef", "--poses", inputs["poses"], "--scan",
                        str(tmp_path / "none.jsonl"), "--calib", path, "--cloud", str(out)],
        "reflectors": ["evaluate", "--cloud", inputs["cloud"], "--reflectors", path,
                       "--report", str(out)],
    }[kind]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert not out.exists()
    return code, err.getvalue()


_BASE_SCENARIO = {"constellation": [{"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 50.0}]}

# Inputs that the hand-written loaders used to accept or report without the
# key: each is a ConfigurationError naming the key path.
EXAMPLES = [
    ("scenario", {**_BASE_SCENARIO, "seed": "3"}, "seed must be an integer, got '3'"),
    ("scenario", {**_BASE_SCENARIO, "seed": 3.7}, "seed must be an integer, got 3.7"),
    ("scenario", {**_BASE_SCENARIO, "duration_s": True}, "duration_s must be a number, got True"),
    ("scenario", {**_BASE_SCENARIO, "duration_s": math.nan}, "duration_s must be finite, got nan"),
    (
        "scenario",
        {"constellation": [{"sat_id": 7, "azimuth_deg": 0.0, "elevation_deg": 50.0}]},
        "constellation[0].sat_id must be a string, got 7",
    ),
    (
        "scenario",
        {"constellation": [{"azimuth_deg": 0.0, "elevation_deg": 50.0}]},
        "constellation[0].sat_id is required",
    ),
    (
        "scenario",
        {**_BASE_SCENARIO, "scanner": {"pulses_per_rev": 250.9}},
        "scanner.pulses_per_rev must be an integer, got 250.9",
    ),
    (
        "scenario",
        {**_BASE_SCENARIO, "layout": {"hexagon_circumradius_m": "0.9"}},
        "layout.hexagon_circumradius_m must be a number, got '0.9'",
    ),
    (
        "scenario",
        {**_BASE_SCENARIO, "noise": {"snr": {"floor_dbhz": "30"}}},
        "noise.snr.floor_dbhz must be a number, got '30'",
    ),
    (
        "pipeline",
        {"layout": {"hexagon_circumradius_m": "0.9"}},
        "layout.hexagon_circumradius_m must be a number, got '0.9'",
    ),
    ("calibration", {"lever_arm": ["0.1", 0, 0]}, "lever_arm must be numbers"),
    ("reflectors", {"reflectors": [[0, 0, 0]], "min_hits": 10.5},
     "min_hits must be an integer, got 10.5"),
    ("reflectors", {"reflectors": [[0, 0, True]]}, "reflectors[0] must be numbers"),
]
_WHERE = {
    "scenario": "scenario",
    "pipeline": "pipeline config",
    "calibration": "calibration",
    "reflectors": "reflectors",
}


@pytest.mark.parametrize(
    "kind, config, message",
    EXAMPLES,
    ids=[
        "seed-string", "seed-fraction", "duration-true", "duration-nan", "sat-id-number", "sat-id-missing",
        "pulses-fraction", "scenario-radius-string", "snr-floor-string",
        "pipeline-radius-string", "lever-arm-string", "min-hits-fraction", "reflector-true",
    ],
)
def test_formerly_accepted_inputs_are_rejected(
    tmp_path: Path, cli_inputs: dict[str, str], kind: str, config: dict[str, Any], message: str
) -> None:
    expected = f"{tmp_path / 'config.json'}: {_WHERE[kind]}: {message}"
    with pytest.raises(ConfigurationError) as info:
        LOADERS[kind](_write(tmp_path, config))
    assert str(info.value) == expected
    code, err = _run_cli(kind, config, tmp_path, cli_inputs)
    assert code == 1
    assert err == f"error: {expected}\n"


def test_constructor_rejection_exits_two_with_path(
    tmp_path: Path, cli_inputs: dict[str, str]
) -> None:
    config = {"constellation": [{"sat_id": "G01", "azimuth_deg": 0.0, "elevation_deg": 95.0}]}
    code, err = _run_cli("scenario", config, tmp_path, cli_inputs)
    assert code == 2
    assert err == (
        f"error: {tmp_path / 'config.json'}: scenario: constellation[0]: "
        "G01: elevation must be in (0, 90]\n"
    )
