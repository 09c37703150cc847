"""The benchmark's workloads: which bundled scenario, at what size, through
which CLI steps, and the output checks each pass must meet.

The README gives the reason for each workload; BENCHMARK.json repeats it in
one line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

CLUSTER_RADIUS_M = 0.8
MIN_HITS = 10
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: dict[str, Any]
    steps: tuple[str, ...]
    # seconds one pass takes on the reference host (README); a run makes
    # --seconds / pass_s passes, a count that does not depend on how fast
    # the program under test runs
    pass_s: float
    antennas: str | None = None
    # the epoch stream is made before the timed passes, with every record's
    # truth nulled, as a recorded field stream would arrive
    field_stream: bool = False
    # multipath scenario with the truth channel: feedback must beat the raw
    # fix rate and detection must meet the floors in run.py
    feedback_gain: bool = False
    # loose accuracy limits a correct estimate meets on any seed
    max_attitude_err_deg: float = 0.5
    max_position_err_mm: float = 100.0
    min_availability_pct: float = 90.0

    def passes(self, seconds: float) -> int:
        """Timed passes of a run of ``seconds``: at least three, so a run has
        a median and a traced run has untraced passes to compare against."""
        return max(MIN_PASSES, round(seconds / self.pass_s))

    @property
    def epochs_file(self) -> str:
        return "field.jsonl" if self.field_stream else "epochs.jsonl"

    def scenario_dict(self, root: Path) -> dict[str, Any]:
        path = root / "src" / "mgp" / "scenarios" / f"{self.scenario}.json"
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
        for key, value in self.overrides.items():
            target = d
            *parents, leaf = key.split(".")
            for p in parents:
                target = target[p]
            target[leaf] = value
        return d

    def files(self, root: Path) -> dict[str, Any]:
        """Config JSONs a pass writes before its first step."""
        out: dict[str, Any] = {"pipeline.json": {}}
        scen = self.scenario_dict(root)
        if "simulate" in self.steps or self.field_stream:
            out["scenario.json"] = scen
        if "georef" in self.steps:
            out["calib.json"] = {"lever_arm": [0.0, 0.0, 0.0]}
            out["reflectors.json"] = {
                "reflectors": [r["position"] for r in scen["reflectors"]],
                "cluster_radius_m": CLUSTER_RADIUS_M,
                "min_hits": MIN_HITS,
            }
        return out

    def argv(self, step: str, seed: int) -> list[str]:
        if step == "simulate":
            argv = ["simulate", "--config", "scenario.json", "--seed", str(seed),
                    "--out", "epochs.jsonl"]
            if "georef" in self.steps:
                argv += ["--scan", "scan.jsonl"]
            return argv
        if step == "estimate":
            argv = ["estimate", "--epochs", self.epochs_file, "--config", "pipeline.json",
                    "--poses", "poses.csv", "--metrics", "metrics.json"]
            if self.antennas:
                argv += ["--antennas", self.antennas]
            return argv
        if step == "georef":
            return ["georef", "--poses", "poses.csv", "--scan", "scan.jsonl",
                    "--calib", "calib.json", "--cloud", "cloud.xyz"]
        if step == "evaluate":
            return ["evaluate", "--cloud", "cloud.xyz", "--reflectors", "reflectors.json",
                    "--report", "report.json"]
        raise ValueError(f"unknown step {step!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="survey-6ant",
            scenario="multipath",
            overrides={"duration_s": 60.0},
            steps=("simulate", "estimate"),
            pass_s=6.0,
            feedback_gain=True,
        ),
        Workload(
            name="field-3ant",
            scenario="fixrate",
            overrides={"duration_s": 120.0},
            steps=("estimate",),
            pass_s=3.3,
            antennas="1,3,5",
            field_stream=True,
            max_attitude_err_deg=1.0,
            max_position_err_mm=150.0,
            min_availability_pct=70.0,
        ),
        Workload(
            name="flight-map",
            scenario="flight",
            # the middle 120 m of the bundled line and its four reflectors
            overrides={
                "duration_s": 40.0,
                "trajectory.waypoints": [[-60.0, 0.0, 30.0], [60.0, 0.0, 30.0]],
                "reflectors": [
                    {"position": [x, y, 0.0], "radius_m": 0.4}
                    for x, y in ((-45.0, -4.0), (-15.0, 4.0), (15.0, -4.0), (45.0, 4.0))
                ],
                "scanner.pulses_per_rev": 250,
            },
            steps=("simulate", "estimate", "georef", "evaluate"),
            pass_s=9.5,
        ),
    )
}
