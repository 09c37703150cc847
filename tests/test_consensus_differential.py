"""Differential test: the consensus kernel against the exhaustive search.

``mgp.robust.consensus`` tries one pair hypothesis per epoch first, the
first of two rows whose lengths leave them an inlier of some rotation, and
rotates and scores the others only where that one misses such a row; an
epoch with fewer such rows than ``min_inliers`` needs none.
``exhaustive_consensus`` is the search it replaced, which rotates and scores
every hypothesis. On every block here both give bitwise the same
outcome, field by field: on the reader blocks of the benchmark's three
streams, and on crafted blocks that take each route of the search, run as
the kernel decides and with every block forced through the first try.
"""
from __future__ import annotations

import importlib.util
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import mgp
import mgp.pipeline
import mgp.robust
from mgp import Baselines, PipelineConfig, RansacParams, UnitQuaternion, quat_to_matrix
from mgp.epochs import offsets
from mgp.robust import consensus
from mgp.streams import epoch_block_calls

from exhaustive_consensus import exhaustive_consensus

ROOT = Path(__file__).resolve().parents[1]
SEED = 101
LAYOUT = mgp.hexagon_layout(0.9)
PAIRS = list(itertools.combinations(range(1, 7), 2))
# the angle screen drops the 12 pairs of parallel hexagon baselines
HEX_HYPOTHESES = 105 - 12
PARAMS = RansacParams(inlier_threshold_m=0.05, min_inliers=3)


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look themselves up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _null_truth(src: Path, dst: Path) -> None:
    """``src`` with every record's truth nulled, as a field stream arrives."""
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        fout.write(fin.readline())
        for line in fin:
            record = json.loads(line)
            record["truth"] = None
            fout.write(json.dumps(record) + "\n")


@pytest.fixture(scope="module")
def bench_blocks(tmp_path_factory) -> dict[str, list[tuple]]:
    """The arguments of every consensus call of one ``run`` of each
    benchmark workload's stream, at seed 101, in one process."""
    out = {}
    for name, workload in _workloads().items():
        d = workload.scenario_dict(ROOT)
        d["seed"] = SEED
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(mgp.scenario_from_dict(d)))
        if workload.field_stream:
            _null_truth(path, path.with_name("field.jsonl"))
            path = path.with_name("field.jsonl")
        subset = workload.antennas and tuple(map(int, workload.antennas.split(",")))
        calls: list[tuple] = []
        kernel = mgp.pipeline.consensus

        def recording(baselines, ends, params):
            calls.append((baselines, list(ends), params))
            return kernel(baselines, ends, params)

        with pytest.MonkeyPatch.context() as m:
            m.delattr(os, "fork")
            m.setattr(mgp.pipeline, "consensus", recording)
            mgp.run(epoch_block_calls(str(path)), PipelineConfig(antenna_subset=subset or None))
        out[name] = calls
    return out


def _assert_bitwise(baselines: Baselines, ends, params: RansacParams) -> mgp.robust.Consensus:
    got = consensus(baselines, ends, params)
    want = exhaustive_consensus(baselines, ends, params)
    for name in want._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name
    return got


class _Columns:
    """Counts the columns ``_pair_quaternions`` solves, and the blocks that
    go through the first-hypothesis try."""

    def __init__(self, monkeypatch) -> None:
        self.solved = self.tried = 0
        solve, settle = mgp.robust._pair_quaternions, mgp.robust._settle_then_search

        def counting_solve(*args):
            self.solved += args[0].shape[1]
            return solve(*args)

        def counting_settle(*args):
            self.tried += 1
            return settle(*args)

        monkeypatch.setattr(mgp.robust, "_pair_quaternions", counting_solve)
        monkeypatch.setattr(mgp.robust, "_settle_then_search", counting_settle)


@pytest.mark.parametrize("name", ["survey-6ant", "flight-map", "field-3ant"])
def test_benchmark_blocks_match_the_exhaustive_search(bench_blocks, monkeypatch, name) -> None:
    """Every reader block of the stream, as the kernel decides and with the
    first try forced; six-antenna blocks take the try, three-antenna ones
    (at most 96 hypotheses in 32 epochs) do not."""
    blocks = bench_blocks[name]
    assert len(blocks) >= 13
    columns = _Columns(monkeypatch)
    for block in blocks:
        _assert_bitwise(*block)
    assert (columns.tried > 0) is (name != "field-3ant")
    monkeypatch.setattr(mgp.robust, "_PROBE_MIN_HYPOTHESES", 0)
    for block in blocks:
        _assert_bitwise(*block)
    assert columns.tried >= len(blocks)


def test_settling_solves_fewer_pairs_than_it_counts(bench_blocks, monkeypatch) -> None:
    """On the 60 s ``multipath`` stream's blocks the kernel solves under a
    tenth as many pair quaternions as it counts hypotheses, each of which
    the exhaustive search solves."""
    columns = _Columns(monkeypatch)
    counted = sum(int(consensus(*block).hypotheses.sum()) for block in bench_blocks["survey-6ant"])
    assert counted > 50_000 and columns.solved < 0.1 * counted


# -- crafted blocks, one for each route ----------------------------------------


def _turn(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return quat_to_matrix(UnitQuaternion.from_array(rng.normal(size=4)))


def _epoch(pairs, v: np.ndarray, w: np.ndarray) -> Baselines:
    return Baselines.checked(np.array(pairs), v, w, np.ones(len(pairs), dtype=bool))


def _measured(seed: int, pairs=PAIRS, noise: float = 0.002) -> tuple[np.ndarray, np.ndarray]:
    """Body baselines of ``pairs`` and their measurements under a random
    rotation with ``noise`` metres of noise."""
    w = np.array([LAYOUT.baseline(i, j).as_array() for i, j in pairs])
    rng = np.random.default_rng(seed + 1000)
    return w @ _turn(seed).T + rng.normal(scale=noise, size=w.shape), w


def _settled(seed: int) -> Baselines:
    """Six antennas, every fix right: the first pair takes every row."""
    v, w = _measured(seed)
    return _epoch(PAIRS, v, w)


def _lengthened(v: np.ndarray, rows, by: float = 0.2) -> None:
    """``rows`` of ``v`` made ``by`` metres longer."""
    for row in rows:
        v[row] *= 1.0 + by / np.linalg.norm(v[row])


def _stray(seed: int) -> Baselines:
    """A row 20 cm longer than its body baseline, an inlier of no rotation:
    the first pair takes every other row."""
    v, w = _measured(seed)
    _lengthened(v, [5])
    return _epoch(PAIRS, v, w)


def _stray_first(seed: int) -> Baselines:
    """The first row 20 cm too long: the first hypothesis of two other rows
    is rows 1 and 2, and it takes every row but the first."""
    v, w = _measured(seed)
    _lengthened(v, [0])
    return _epoch(PAIRS, v, w)


def _stray_at_threshold(seed: int) -> Baselines:
    """Noise-free rows, one longer than its body baseline by the threshold
    itself and one by 0.1 mm more: the first is an inlier of the true
    rotation, the second of none."""
    v, w = _measured(seed, noise=0.0)
    _lengthened(v, [3], PARAMS.inlier_threshold_m)
    _lengthened(v, [11], PARAMS.inlier_threshold_m + 1e-4)
    return _epoch(PAIRS, v, w)


def _mostly_stray(seed: int) -> Baselines:
    """Four antennas, four of their six rows too long: two rows are left,
    fewer than ``min_inliers``, so no winner is refitted."""
    pairs = list(itertools.combinations(range(1, 5), 2))
    v, w = _measured(seed, pairs)
    _lengthened(v, [0, 2, 3, 5])
    return _epoch(pairs, v, w)


def _no_clean_pair(seed: int) -> Baselines:
    """The three parallel hexagon baselines of length and direction right
    and three rows too long: the angle screen drops every pair of the three,
    so no hypothesis has two rows of the right length."""
    pairs = [(1, 2), (1, 3), (3, 6), (2, 4), (4, 5), (1, 5)]
    v, w = _measured(seed, pairs)
    _lengthened(v, [1, 3, 5])
    return _epoch(pairs, v, w)


def _wrong_direction(seed: int) -> Baselines:
    """A row of the right length turned 30 degrees about up: the first
    pair misses it, and so does every winner."""
    v, w = _measured(seed)
    c, s = np.cos(np.radians(30.0)), np.sin(np.radians(30.0))
    v[7] = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ v[7]
    return _epoch(PAIRS, v, w)


def _first_pair_tilted(seed: int) -> Baselines:
    """The second row tilted 3 cm out of the body plane: every row is within
    the threshold of the true rotation, so the pairs without it take every
    row, but the first pair, 30 degrees apart, tilts with it and misses the
    far rows."""
    v, w = _measured(seed, noise=0.0)
    v[1] = v[1] + 0.03 * _turn(seed)[:, 2]
    return _epoch(PAIRS, v, w)


def _borderline(seed: int) -> Baselines:
    """Noise-free rows but two, moved 0.1 mm beyond and within the threshold
    across their direction in the body plane: the pairs of the other rows,
    the first among them, miss the one beyond, and a pair with it, which
    splits its offset, takes every row."""
    v, w = _measured(seed, noise=0.0)
    rot = _turn(seed)
    for row, offset in ((9, 1e-4), (14, -1e-4)):
        across = np.cross(rot[:, 2], v[row])
        v[row] += (PARAMS.inlier_threshold_m + offset) * across / np.linalg.norm(across)
    return _epoch(PAIRS, v, w)


def _first_pair_screened(seed: int) -> Baselines:
    """Opposite sides of the hexagon first: the angle screen drops the first
    pair, so the first hypothesis counted is rows 0 and 2."""
    pairs = [(1, 2), (5, 4), (1, 3), (2, 5), (3, 6), (1, 4)]
    v, w = _measured(seed, pairs)
    return _epoch(pairs, v, w)


def _first_pair_gapless(seed: int) -> Baselines:
    """The second row measured along the first: the pair of them has a
    degenerate eigen gap and is not counted, and the first pair counted
    misses the second row."""
    v, w = _measured(seed)
    v[1] = v[0] * (np.linalg.norm(w[1]) / np.linalg.norm(w[0]))
    return _epoch(PAIRS, v, w)


def _no_hypothesis(seed: int) -> Baselines:
    """Every body baseline along x: no pair passes the angle screen."""
    v, _ = _measured(seed)
    w = np.zeros_like(v)
    w[:, 0] = np.linalg.norm(v, axis=1)
    return _epoch(PAIRS, v, w)


def _tied(seed: int) -> Baselines:
    """Two disjoint sets of three rows, each fitted exactly by its own
    rotation (identity, and a half turn about up): the counts and the
    residual sums (zero) tie, and the first pair's set wins."""
    pairs = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 6)]
    w = np.array([LAYOUT.baseline(*p).as_array() for p in pairs[:3]] * 2)
    v = w * np.array([1.0, 1.0, 1.0] * 3 + [-1.0, -1.0, 1.0] * 3).reshape(6, 3)
    order = [0, 1, 2, 3, 4, 5] if seed % 2 else [3, 4, 5, 0, 1, 2]
    return _epoch([pairs[k] for k in order], v[order], w[order])


def _three_antennas(seed: int) -> Baselines:
    """Antennas 1, 3 and 5, one row off by a wrong fix every other epoch."""
    v, w = _measured(seed, [(1, 3), (1, 5), (3, 5)])
    if seed % 2:
        v[2] += np.array([0.0, 0.19, 0.0])
    return _epoch([(1, 3), (1, 5), (3, 5)], v, w)


ROUTES = {
    "settled": _settled,
    "stray": _stray,
    "stray-first": _stray_first,
    "stray-at-threshold": _stray_at_threshold,
    "mostly-stray": _mostly_stray,
    "no-clean-pair": _no_clean_pair,
    "wrong-direction": _wrong_direction,
    "first-pair-tilted": _first_pair_tilted,
    "borderline": _borderline,
    "first-pair-screened": _first_pair_screened,
    "first-pair-gapless": _first_pair_gapless,
    "no-hypothesis": _no_hypothesis,
    "tied": _tied,
    "three-antennas": _three_antennas,
}


def _block(epochs: list[Baselines]) -> tuple[Baselines, list[int]]:
    return Baselines.joined(epochs), offsets(map(len, epochs))


@pytest.mark.parametrize("forced", [False, True], ids=["as-decided", "first-try"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_each_route_matches_the_exhaustive_search(monkeypatch, route, forced) -> None:
    """A block of eight epochs of the route, and each epoch as a block of
    one; forced, every block goes through the first try."""
    if forced:
        monkeypatch.setattr(mgp.robust, "_PROBE_MIN_HYPOTHESES", 0)
    epochs = [ROUTES[route](seed) for seed in range(8)]
    block = _assert_bitwise(*_block(epochs), PARAMS)
    for epoch in epochs:
        _assert_bitwise(epoch, [0, len(epoch)], PARAMS)
    assert bool((block.hypotheses == 0).all()) is (route == "no-hypothesis")


def _route_columns(monkeypatch, epoch: Baselines) -> tuple[int, int, mgp.robust.Consensus]:
    """Columns solved for one epoch forced through the first try, its
    hypotheses and its outcome."""
    monkeypatch.setattr(mgp.robust, "_PROBE_MIN_HYPOTHESES", 0)
    columns = _Columns(monkeypatch)
    found = _assert_bitwise(epoch, [0, len(epoch)], PARAMS)
    return columns.solved, int(found.hypotheses[0]), found


@pytest.mark.parametrize("seed", range(4))
def test_each_route_solves_what_it_says(monkeypatch, seed) -> None:
    """Settled epochs solve one pair, also past a row too long to be an
    inlier; an epoch with fewer other rows than ``min_inliers`` solves none,
    and one whose other rows pair into no hypothesis skips the first try;
    a first pair that misses a row sends the epoch to the full search, which
    solves the first pair again with the others."""
    solved, hypotheses, found = _route_columns(monkeypatch, _settled(seed))
    assert (solved, hypotheses) == (1, HEX_HYPOTHESES) and found.inliers.all()

    solved, hypotheses, found = _route_columns(monkeypatch, _first_pair_screened(seed))
    assert solved == 1 and hypotheses < 15 and found.inliers.all()

    solved, hypotheses, found = _route_columns(monkeypatch, _stray(seed))
    assert solved == 1 and found.inliers.sum() == 14 and not found.inliers[0, 5]

    solved, hypotheses, found = _route_columns(monkeypatch, _stray_first(seed))
    assert solved == 1 and found.inliers.sum() == 14 and not found.inliers[0, 0]

    solved, hypotheses, found = _route_columns(monkeypatch, _mostly_stray(seed))
    assert solved == 0 and hypotheses > 0 and not found.refitted[0]

    solved, hypotheses, found = _route_columns(monkeypatch, _no_clean_pair(seed))
    assert solved == hypotheses > 0
    assert found.inliers[0].tolist() == [True, False] * 3

    solved, hypotheses, found = _route_columns(monkeypatch, _wrong_direction(seed))
    assert solved == 1 + hypotheses
    assert found.inliers.sum() == 14 and not found.inliers[0, 7]

    solved, hypotheses, found = _route_columns(monkeypatch, _first_pair_tilted(seed))
    assert solved == 1 + hypotheses and found.inliers.all()

    solved, hypotheses, found = _route_columns(monkeypatch, _borderline(seed))
    assert solved == 1 + hypotheses and found.inliers.all()

    solved, hypotheses, found = _route_columns(monkeypatch, _first_pair_gapless(seed))
    assert hypotheses == HEX_HYPOTHESES - 1 and solved == 1 + hypotheses and not found.inliers[0, 1]

    solved, hypotheses, found = _route_columns(monkeypatch, _tied(seed))
    assert solved == 1 + hypotheses and found.inliers[0].tolist() == [True] * 3 + [False] * 3


def test_mixed_block_is_its_blocks_of_one(monkeypatch) -> None:
    """Every route in one block, six- and three-antenna epochs together,
    with enough hypotheses to take the first try as the kernel decides."""
    epochs = [ROUTES[route](seed) for seed in range(4) for route in ROUTES]
    baselines, ends = _block(epochs)
    columns = _Columns(monkeypatch)
    block = _assert_bitwise(baselines, ends, PARAMS)
    assert columns.tried == 1 and block.hypotheses.sum() >= mgp.robust._PROBE_MIN_HYPOTHESES
    for k, epoch in enumerate(epochs):
        one = consensus(epoch, [0, len(epoch)], PARAMS)
        assert np.array_equal(one.inliers[0], block.inliers[k, :len(epoch)])
        for name in ("hypotheses", "refitted", "lam", "q_be", "gap", "weights_sum"):
            assert np.array_equal(getattr(one, name)[0], getattr(block, name)[k], equal_nan=True)
