"""Differential test: the block simulator and the block epoch writer
against the per-epoch path they replaced.

The reference, ``scalar_epochs.simulate_records`` and
``scalar_epochs.epoch_to_dict``, simulates one epoch at a time, replaying
each epoch's draws on a block of one, and encodes each epoch's line from
its own record. ``write_epochs`` of ``simulate``'s blocks must write the
reference's bytes, header and every line, and each block must be bitwise
the ``joined`` reference blocks of one of its epochs, numbered as the
file numbers them: on 10 s cuts of the bundled scenarios, on streams of 1,
31, 32, 33 and 65 epochs around the block size, and on drawn attitude
profiles, antenna counts, noise settings and stream lengths.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
from mgp.epochs import EPOCH_BLOCK

from scalar_epochs import epoch_to_dict, joined, simulate_records
from test_block_reader import _same
from test_requery_differential import _KNOTS, _bundled, _profile_scenario, _ref_header


def _check(cfg: mgp.ScenarioConfig, path: Path) -> None:
    """``simulate`` and ``write_epochs`` of ``cfg`` against the reference."""
    records = list(simulate_records(cfg))
    blocks = list(mgp.simulate(cfg))
    assert [len(block) for block in blocks] == [
        min(EPOCH_BLOCK, cfg.n_epochs - first) for first in range(0, cfg.n_epochs, EPOCH_BLOCK)
    ]
    for b, block in enumerate(blocks):
        first = b * EPOCH_BLOCK
        lines = list(range(first + 2, first + 2 + len(block)))
        _same(block, joined(records[first:first + len(block)], lines), f"block {b}")
    assert mgp.write_epochs(str(path), blocks) == cfg.n_epochs
    want = [json.dumps(_ref_header(cfg)), *(json.dumps(epoch_to_dict(e)) for e in records)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", ["multipath", "fixrate", "flight"])
def test_bundled_cuts_write_the_reference_bytes(tmp_path: Path, name: str) -> None:
    _check(_bundled(name, 10.0), tmp_path / "epochs.jsonl")


@pytest.mark.parametrize("n_epochs", [1, 31, 32, 33, 65])
def test_streams_around_the_block_size_write_the_reference_bytes(tmp_path: Path,
                                                                 n_epochs: int) -> None:
    cfg = _bundled("multipath", n_epochs / 10.0, wrong_fix_prob=0.3)
    assert cfg.n_epochs == n_epochs
    _check(cfg, tmp_path / "epochs.jsonl")


@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32),
    knots=st.lists(_KNOTS, min_size=3, max_size=3),
    n_ant=st.integers(3, 6),
    noise=st.fixed_dictionaries({
        "sigma_fixed_m": st.floats(0.0, 0.05),
        "sigma_float_m": st.floats(0.0, 1.0),
        "wrong_fix_prob": st.floats(0.0, 1.0),
        "wrong_fix_unit_m": st.floats(0.01, 0.5),
        "wrong_fix_max_multiple": st.integers(1, 4),
    }),
    n_epochs=st.integers(1, 70),
)
def test_drawn_profiles_write_the_reference_bytes(tmp_path: Path, seed, knots, n_ant, noise,
                                                  n_epochs) -> None:
    """Drawn attitude profiles (some of whose quaternions normalization
    changes in their bits), antenna counts (an odd count of 32-bit draws per epoch
    leaves the generator holding one back), noise settings and lengths."""
    cfg = dataclasses.replace(_profile_scenario(seed, knots, n_ant, noise),
                              duration_s=n_epochs / 10.0)
    _check(cfg, tmp_path / "epochs.jsonl")
