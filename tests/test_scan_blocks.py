"""The scan writer's blocks against the per-pulse reference.

``mgp simulate --scan`` cuts the scan stream into blocks of whole frames,
``mgp.simulator.SCAN_BLOCK`` pulses' worth: the caller draws each block's
range noise in frame order, and the process that ``ordered_map`` gives the
block makes its frames and encodes them. The CLI's scan file, and
``write_scan(scan_stream(...))``, must be the bytes of
test_scan_differential.py's per-pulse reference wherever the stream ends
against the blocks, with the placement forced either way
(test_ordered.py's ``_force``) and in one process.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import mgp
from mgp.cli import main
from mgp.simulator import SCAN_BLOCK, scan_blocks

from test_cli import FLIGHT
from test_ordered import _force, no_child_left  # noqa: F401 (an autouse fixture)
from test_scan_differential import _ref_scan_stream, _ref_write_scan

PER_BLOCK = SCAN_BLOCK // FLIGHT["scanner"]["pulses_per_rev"]
FRAMES = {"one-frame": 1, "one-block": PER_BLOCK, "block-and-frame": PER_BLOCK + 1,
          "several-blocks": 3 * PER_BLOCK + 5}


@pytest.mark.parametrize("mode", ["never-ready", "always-ready", "one-process"])
@pytest.mark.parametrize("frames", list(FRAMES))
def test_the_scan_writer_writes_the_reference_bytes(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, frames: str, mode: str
) -> None:
    n = FRAMES[frames]
    flight = {**FLIGHT, "duration_s": n / FLIGHT["scanner"]["spin_hz"]}
    cfg = mgp.scenario_from_dict(flight)
    sizes = [len(list(block())) for block in scan_blocks(cfg, cfg.scanner)]
    assert sizes == [PER_BLOCK] * (n // PER_BLOCK) + [n % PER_BLOCK] * (n % PER_BLOCK > 0)
    ref = tmp_path / "ref.jsonl"
    _ref_write_scan(ref, _ref_scan_stream(cfg, cfg.scanner))

    if mode == "one-process":
        monkeypatch.delattr(os, "fork")
    else:
        _force(monkeypatch, mode == "always-ready")
    scen, epochs, scan, lib = (tmp_path / name for name in
                               ("scen.json", "epochs.jsonl", "scan.jsonl", "lib.jsonl"))
    scen.write_text(json.dumps(flight), encoding="utf-8")
    assert main(["simulate", "--config", str(scen), "--out", str(epochs), "--scan", str(scan)]) == 0
    assert mgp.write_scan(str(lib), mgp.scan_stream(cfg, cfg.scanner)) == n
    assert scan.read_bytes() == lib.read_bytes() == ref.read_bytes()
