"""Differential test: the array requery record against the per-channel path.

The reference below is the object path the arrays replaced, kept here only
as an oracle: one frozen channel object per antenna and baseline built in a
per-row loop, one record object per fix and SNR row (``_Fix`` and
``_SnrRow``, with the checks of the per-row classes the records replaced), a
separate post-calibration model type, the per-channel ``_assign`` replay, a
lattice table of wrong-fix multiples, and its own codec of the version 3
header and of each epoch's generator state. From a stored state it draws
an epoch's channels again itself, in the order the simulator's docstring
gives. The epoch stream written by ``simulate`` must be byte-identical to
the reference's, and ``requery_epoch`` on the read-back stream must return
bitwise the statuses, positions and baseline vectors the reference replay
returns, and so must the block replay (``mgp.epochs.replay``) for every
epoch of every block, whatever the blocks, exclusion sets and antenna
subsets. Replaying every epoch with nothing excluded must give the
simulator's own fixes and baselines bit for bit, also for attitudes whose
normalization changes their bits, and also after the stream is read back
and written again.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mgp
import mgp.epochs
from mgp import FixStatus, ValidationError, Vec3
from mgp.core import unit_quats
from mgp.multipath import SNR_MAX_DBHZ, SNR_MIN_DBHZ
from mgp.positioning import FIX_GRADES
from mgp.simulator import _effective_biases

from scalar_epochs import epochs_of, replay_truths
from test_acceptance import A9_SCENARIO


@dataclass(frozen=True)
class _Fix:
    """One antenna's epoch solution. ``p`` is ENU metres from the reference."""

    antenna_id: int
    status: FixStatus
    p: Vec3 | None = None
    sats_used: int = 0

    def __post_init__(self) -> None:
        if self.antenna_id < 1:
            raise ValidationError("antenna ids are 1-based")
        if self.status is FixStatus.NONE and self.p is not None:
            raise ValidationError("a no-solution antenna cannot carry a position")
        if self.status is not FixStatus.NONE and self.p is None:
            raise ValidationError(f"{self.status.value} solution requires a position")
        if self.sats_used < 0:
            raise ValidationError("sats_used must be nonnegative")


@dataclass(frozen=True)
class _SnrRow:
    """SNR of one satellite across the array; ``None`` where untracked."""

    sat_id: str
    snr_dbhz: tuple[float | None, ...]

    def __post_init__(self) -> None:
        if not self.sat_id:
            raise ValidationError("satellite id must be non-empty")
        present = [s for s in self.snr_dbhz if s is not None]
        if not present:
            raise ValidationError(f"{self.sat_id}: no antenna tracks this satellite")
        for s in present:
            if not (SNR_MIN_DBHZ <= s <= SNR_MAX_DBHZ):
                raise ValidationError(
                    f"{self.sat_id}: SNR {s} outside [{SNR_MIN_DBHZ}, {SNR_MAX_DBHZ}] dB-Hz"
                )


@dataclass(frozen=True)
class _Channel:
    u_fix: float
    u_float: float
    wrong: bool
    latent_fixed: Vec3
    latent_float: Vec3
    wrong_offset: Vec3


@dataclass(frozen=True)
class _Model:
    steepness: float
    midpoint: float
    multipath_weight: float
    antenna_bias: tuple[float, ...]
    baseline_bias: float
    float_fraction: float

    def probability(self, n_clean: int, n_multipath: int, bias: float) -> float:
        arg = self.steepness * (
            n_clean - self.multipath_weight * n_multipath - self.midpoint + bias
        )
        return 1.0 / (1.0 + math.exp(-arg))


@dataclass(frozen=True)
class _Requery:
    model: _Model
    solution_sats: tuple[str, ...]
    antenna_channels: tuple[_Channel, ...]
    baseline_channels: tuple[_Channel, ...]


def _ref_lattice(max_multiple: int) -> np.ndarray:
    rng_vals = range(-max_multiple, max_multiple + 1)
    vecs = [(a, b, c) for a in rng_vals for b in rng_vals for c in rng_vals if (a, b, c) != (0, 0, 0)]
    return np.array(vecs, dtype=np.float64)


def _ref_build_channels(truth_vecs, norm, unif, lat_idx, lattice, noise) -> tuple[_Channel, ...]:
    latent_fixed = truth_vecs + noise.sigma_fixed_m * norm[:, :3]
    latent_float = truth_vecs + noise.sigma_float_m * norm[:, 3:]
    offsets = noise.wrong_fix_unit_m * lattice[lat_idx]
    return tuple(
        _Channel(
            u_fix=float(unif[i, 0]),
            u_float=float(unif[i, 1]),
            wrong=bool(unif[i, 2] < noise.wrong_fix_prob),
            latent_fixed=Vec3.from_array(latent_fixed[i]),
            latent_float=Vec3.from_array(latent_float[i]),
            wrong_offset=Vec3.from_array(offsets[i]),
        )
        for i in range(truth_vecs.shape[0])
    )


def _ref_assign(ch: _Channel, p_fix: float, float_fraction: float) -> tuple[FixStatus, Vec3 | None]:
    if ch.u_fix < p_fix:
        if ch.wrong:
            return FixStatus.FIXED, ch.latent_fixed + ch.wrong_offset
        return FixStatus.FIXED, ch.latent_fixed
    if ch.u_float < float_fraction:
        return FixStatus.FLOAT, ch.latent_float
    return FixStatus.NONE, None


def _ref_status_sets(req: _Requery, multipath_sats, excluded, layout, pairs):
    remaining = [s for s in req.solution_sats if s not in excluded]
    n_mp = sum(1 for s in remaining if s in multipath_sats)
    n_clean = len(remaining) - n_mp
    model = req.model
    fixes = []
    for idx, ch in enumerate(req.antenna_channels):
        p_fix = model.probability(n_clean, n_mp, model.antenna_bias[idx])
        status, pos = _ref_assign(ch, p_fix, model.float_fraction)
        fixes.append(_Fix(antenna_id=idx + 1, status=status, p=pos, sats_used=len(remaining)))
    observations = []
    p_bl = model.probability(n_clean, n_mp, model.baseline_bias)
    for (i, j), ch in zip(pairs, req.baseline_channels):
        status, vec = _ref_assign(ch, p_bl, model.float_fraction)
        if status is FixStatus.NONE:
            continue
        observations.append(
            mgp.VectorObservation(
                v=vec, w=layout.baseline(i, j), antenna_pair=(i, j), fixed=status is FixStatus.FIXED
            )
        )
    return fixes, observations


def _ref_model(md: dict[str, Any]) -> _Model:
    return _Model(
        steepness=float(md["steepness"]),
        midpoint=float(md["midpoint"]),
        multipath_weight=float(md["multipath_weight"]),
        antenna_bias=tuple(float(b) for b in md["antenna_bias"]),
        baseline_bias=float(md["baseline_bias"]),
        float_fraction=float(md["float_fraction"]),
    )


def _ref_header(config: mgp.ScenarioConfig) -> dict[str, Any]:
    """The version 3 header of the stream of ``config``."""
    n_sat = len(config.constellation)
    n_mp = len(mgp.multipath_satellite_ids(config))
    ant_bias, bl_bias = _effective_biases(config, n_sat - n_mp, n_mp)
    fm, noise = config.fix_model, config.noise
    return {
        "format": "mgp-epoch",
        "version": 3,
        "layout": {"body_positions": [[p.x, p.y, p.z] for p in config.layout.body_positions]},
        "requery": {
            "model": {
                "steepness": fm.steepness,
                "midpoint": fm.midpoint,
                "multipath_weight": fm.multipath_weight,
                "antenna_bias": list(ant_bias),
                "target_fix_probs": None,
                "baseline_bias": bl_bias,
                "baseline_target_fix_prob": None,
                "float_fraction": fm.float_fraction,
            },
            "solution_sats": [s.sat_id for s in config.constellation],
            "noise": {
                "sigma_fixed_m": noise.sigma_fixed_m,
                "sigma_float_m": noise.sigma_float_m,
                "wrong_fix_prob": noise.wrong_fix_prob,
                "wrong_fix_unit_m": noise.wrong_fix_unit_m,
                "wrong_fix_max_multiple": noise.wrong_fix_max_multiple,
            },
            "increment": np.random.default_rng(config.seed).bit_generator.state["state"]["inc"],
            "numpy": np.__version__,
        },
    }


class _Noise:
    """The channel noise of a header's requery object."""

    def __init__(self, rq: dict[str, Any]) -> None:
        for key in ("sigma_fixed_m", "sigma_float_m", "wrong_fix_prob", "wrong_fix_unit_m"):
            setattr(self, key, float(rq["noise"][key]))


def _ref_draws(rng, truth: tuple[np.ndarray, np.ndarray], rq: dict[str, Any]):
    """The antenna and baseline channels of one epoch, drawn from ``rng`` in
    the documented order, around the true antenna positions and baselines."""
    lattice = _ref_lattice(int(rq["noise"]["wrong_fix_max_multiple"]))
    channels = []
    for vecs in truth:
        norm = rng.standard_normal((len(vecs), 6))
        unif = rng.random((len(vecs), 3))
        lat = rng.integers(0, len(lattice), len(vecs))
        channels.append(_ref_build_channels(vecs, norm, unif, lat, lattice, _Noise(rq)))
    return tuple(channels)


def _ref_truth_vectors(header: dict[str, Any], position, attitude
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The true antenna positions and body baselines at a pose, from the
    header's layout; ``attitude`` normalized, as the block draws take it."""
    body = np.array([[float(c) for c in p] for p in header["layout"]["body_positions"]])
    n = len(body)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    body_bl = np.array([body[j] - body[i] for i, j in pairs])
    r_eb = mgp.quat_to_matrix(attitude)
    return np.array(position, dtype=np.float64) + body @ r_eb.T, body_bl @ r_eb.T


def _ref_attitude(q) -> mgp.UnitQuaternion:
    """A truth attitude as the block draws take it: normalized, sign kept."""
    return mgp.UnitQuaternion.from_array([float(c) for c in q], canonicalize=False)


def _ref_requery_from_dict(header: dict[str, Any], state: dict[str, Any],
                           truth: dict[str, Any]) -> _Requery:
    """The requery record of an epoch line's truth ``truth`` with the
    ``state`` object, of a stream of the header object ``header``: its
    channels drawn again from a generator set to that state (each number
    coerced to an int, as the object path coerced its fields)."""
    rq = header["requery"]
    bits = np.random.PCG64()
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": int(state["state"]), "inc": int(rq["increment"])},
        "has_uint32": 0 if state["uint32"] is None else 1,
        "uinteger": 0 if state["uint32"] is None else int(state["uint32"]),
    }
    vecs = _ref_truth_vectors(header, truth["position"], _ref_attitude(truth["attitude"]))
    ant, bl = _ref_draws(np.random.Generator(bits), vecs, rq)
    return _Requery(_ref_model(rq["model"]), tuple(rq["solution_sats"]), ant, bl)


def _ref_lines(config: mgp.ScenarioConfig) -> Iterator[str]:
    """The reference epoch stream, one JSON line per epoch, drawn in the
    simulator's documented order."""
    rng = np.random.default_rng(config.seed)
    layout = config.layout
    n_ant = layout.antenna_count
    n_sat = len(config.constellation)
    pairs = [(i, j) for i in range(1, n_ant + 1) for j in range(i + 1, n_ant + 1)]
    mp_sats = mgp.multipath_satellite_ids(config)
    mp_mask = np.array([s.sat_id in mp_sats for s in config.constellation])
    n_mp = int(mp_mask.sum())
    header = _ref_header(config)
    rq = header["requery"]
    model = _ref_model(rq["model"])
    sats = tuple(s.sat_id for s in config.constellation)
    snr_model = config.noise.snr
    nominal = np.array([snr_model.nominal(s.elevation_deg) for s in config.constellation])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_sat, n_ant))
    for k in range(config.n_epochs):
        t = k / config.rate_hz
        p_plat = mgp.trajectory_position(config, t)
        q_truth = mgp.truth_attitude(config, t)
        bits = rng.bit_generator.state
        state = {"state": bits["state"]["state"],
                 "uint32": bits["uinteger"] if bits["has_uint32"] else None}
        vecs = _ref_truth_vectors(header, p_plat.as_array(), _ref_attitude(q_truth.as_array()))
        ant, bl = _ref_draws(rng, vecs, rq)
        snr_jit = rng.standard_normal((n_sat, n_ant))
        req = _Requery(model, sats, ant, bl)
        fixes, observations = _ref_status_sets(req, mp_sats, frozenset(), layout, pairs)

        offsets = np.zeros((n_sat, n_ant))
        if n_mp and snr_model.fading_amplitude_db > 0.0:
            swing = 3.0 * np.sin(2.0 * math.pi * t / snr_model.fading_period_s + phases)
            offsets[mp_mask] = snr_model.fading_amplitude_db * np.clip(swing[mp_mask], -1.0, 1.0)
        snr = nominal[:, None] + offsets + snr_model.thermal_jitter_db * snr_jit
        snr = np.round(np.clip(snr, SNR_MIN_DBHZ, SNR_MAX_DBHZ), 2)
        snr_rows = tuple(
            _SnrRow(sat_id=sat.sat_id, snr_dbhz=tuple(float(x) for x in snr[s]))
            for s, sat in enumerate(config.constellation)
        )
        wrong_ants = frozenset(
            f.antenna_id for f, ch in zip(fixes, ant) if f.status is FixStatus.FIXED and ch.wrong
        )
        fixed_pairs = {o.antenna_pair for o in observations if o.fixed}
        corrupted = frozenset(p for p, ch in zip(pairs, bl) if ch.wrong and p in fixed_pairs)
        truth = mgp.EpochTruth(tuple(p_plat.as_array().tolist()),
                               tuple(q_truth.as_array().tolist()), mp_sats, corrupted, wrong_ants)
        d = _ref_epoch_to_dict(t, fixes, observations, snr_rows, truth)
        d["truth"]["requery"] = state
        yield json.dumps(d)


def _ref_epoch_to_dict(t, fixes, observations, snr_rows, truth) -> dict[str, Any]:
    """The epoch's JSON object written from one object per fix, baseline
    and SNR row (the requery block is left for the caller)."""

    def vec(v: Vec3) -> list[float]:
        return [v.x, v.y, v.z]

    return {
        "t": t,
        "fixes": [
            {
                "antenna_id": f.antenna_id,
                "status": f.status.value,
                "p": vec(f.p) if f.p is not None else None,
                "sats_used": f.sats_used,
            }
            for f in fixes
        ],
        "baselines": [
            {"antenna_pair": list(o.antenna_pair), "v": vec(o.v), "fixed": o.fixed}
            for o in observations
        ],
        "snr_rows": [{"sat_id": r.sat_id, "snr": list(r.snr_dbhz)} for r in snr_rows],
        "truth": {
            "position": list(truth.position),
            "attitude": list(truth.attitude),
            "multipath_sats": sorted(truth.multipath_sats),
            "corrupted_baselines": sorted(list(p) for p in truth.corrupted_baselines),
            "wrong_fix_antennas": sorted(truth.wrong_fix_antennas),
            "requery": None,
        },
    }


def _vec_bits(v: Vec3 | None):
    return None if v is None else (v.x.hex(), v.y.hex(), v.z.hex())


def _bits(fixes: list[_Fix], observations: list[mgp.VectorObservation]) -> tuple:
    """The reference's fixes and baselines, every float as its hex digits."""
    return (
        [(f.antenna_id, f.status, _vec_bits(f.p), f.sats_used) for f in fixes],
        [(o.antenna_pair, o.fixed, _vec_bits(o.v), _vec_bits(o.w)) for o in observations],
    )


def _record_bits(fixes: mgp.Fixes, baselines: mgp.Baselines) -> tuple:
    """:func:`_bits` of the library's records, read from their arrays."""
    rows = zip(fixes.ids.tolist(), fixes.grade.tolist(), fixes.p.tolist(), fixes.sats_used.tolist())
    return (
        [(i, FIX_GRADES[g], _vec_bits(Vec3(*p) if g else None), n) for i, g, p, n in rows],
        [(o.antenna_pair, o.fixed, _vec_bits(o.v), _vec_bits(o.w)) for o in baselines],
    )


def _bundled(name: str, duration_s: float, **noise: float) -> mgp.ScenarioConfig:
    d = json.loads(Path(mgp.bundled_scenario_path(name)).read_text(encoding="utf-8"))
    d["duration_s"] = duration_s
    if noise:
        d["noise"] = {**d.get("noise", {}), **noise}
    return mgp.scenario_from_dict(d)


CASES = {
    "a9": lambda: mgp.scenario_from_dict(A9_SCENARIO),
    "multipath": lambda: _bundled("multipath", 8.0),
    "multipath-wrong-0.3": lambda: _bundled("multipath", 8.0, wrong_fix_prob=0.3),
    "fixrate": lambda: _bundled("fixrate", 8.0),
    "flight": lambda: _bundled("flight", 8.0),
}


@pytest.fixture(scope="module")
def streams(tmp_path_factory) -> dict[str, tuple[mgp.ScenarioConfig, Path, list[str]]]:
    out = {}
    for name, make in CASES.items():
        cfg = make()
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(cfg))
        ref = [json.dumps(_ref_header(cfg)), *_ref_lines(cfg)]
        out[name] = (cfg, path, ref)
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_epoch_stream_byte_identical_to_object_path(streams, name: str) -> None:
    _, path, ref = streams[name]
    assert path.read_bytes() == ("\n".join(ref) + "\n").encode("utf-8")


def test_wrong_fix_case_exercises_wrong_offsets(streams) -> None:
    _, path, _ = streams["multipath-wrong-0.3"]
    epochs = list(mgp.read_epochs(str(path)))
    assert sum(len(e.truth[0].wrong_fix_antennas) for e in epochs) > 0
    assert sum(len(e.truth[0].corrupted_baselines) for e in epochs) > 0


def test_requery_matches_object_path(streams) -> None:
    rng = np.random.default_rng(7)
    checked = 0
    for cfg, path, _ in streams.values():
        layout = cfg.layout
        n = layout.antenna_count
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        sats = [s.sat_id for s in cfg.constellation]
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        for epoch, line in zip(mgp.read_epochs(str(path)), lines):
            truth = json.loads(line)["truth"]
            ref_req = _ref_requery_from_dict(json.loads(header), truth["requery"], truth)
            mp = epoch.truth[0].multipath_sats
            random = [rng.choice(sats, rng.integers(1, len(sats)), replace=False) for _ in range(3)]
            subsets = [frozenset(), mp, frozenset(sats), *(frozenset(r.tolist()) for r in random)]
            for excluded in subsets:
                got = mgp.requery_epoch(epoch, excluded)
                want = _ref_status_sets(ref_req, mp, excluded, layout, pairs)
                assert _record_bits(*got) == _bits(*want), (path, epoch.t[0], sorted(excluded))
            checked += 1
    assert checked >= 200


def test_calibrated_model_is_a_fix_model_without_targets() -> None:
    cfg = _bundled("fixrate", 0.1)
    model = next(iter(mgp.simulate(cfg))).requery.model
    assert isinstance(model, mgp.FixModel)
    assert model.target_fix_probs is None and model.baseline_target_fix_prob is None
    assert model == replace(
        cfg.fix_model,
        antenna_bias=model.antenna_bias,
        target_fix_probs=None,
        baseline_bias=model.baseline_bias,
        baseline_target_fix_prob=None,
    )


# Per case: the layout, the read-back epochs, the reference requery record
# of each and the constellation's satellite ids. The fixture fills it and
# the hypothesis test looks its case up here: hypothesis writes the repr of
# each test argument into its falsifying-example note, and a stream-sized
# one exhausts memory there.
REPLAY_CASES: dict[str, tuple] = {}


@pytest.fixture(scope="module")
def replay_cases(streams) -> None:
    for name, (cfg, path, _) in streams.items():
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        truths = [json.loads(line)["truth"] for line in lines]
        refs = [_ref_requery_from_dict(json.loads(header), truth["requery"], truth)
                for truth in truths]
        sats = [s.sat_id for s in cfg.constellation]
        REPLAY_CASES[name] = (cfg.layout, list(mgp.read_epochs(str(path))), refs, sats)


@pytest.mark.usefixtures("replay_cases")
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_block_replay_matches_object_path(data) -> None:
    """Epochs replayed in blocks of any split, each with its own exclusion
    set, and cut to an antenna subset as ``run`` cuts them: each epoch's
    fixes and solved baselines are bitwise the reference's."""
    name = data.draw(st.sampled_from(sorted(REPLAY_CASES)), label="case")
    layout, epochs, refs, sats = REPLAY_CASES[name]
    n = layout.antenna_count
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    start = data.draw(st.integers(0, len(epochs) - 1), label="start")
    stop = data.draw(st.integers(start + 1, min(len(epochs), start + 40)), label="stop")
    cuts = data.draw(st.sets(st.integers(start + 1, max(start + 1, stop - 1))), label="cuts")
    cuts.discard(stop)
    subset = data.draw(st.sets(st.integers(1, n), min_size=1), label="subset")
    active = np.zeros(n + 1, dtype=bool)
    active[list(subset)] = True
    excluded = [
        frozenset(data.draw(st.sets(st.sampled_from(sats)), label=f"excluded {k}"))
        for k in range(start, stop)
    ]
    bounds = [start, *sorted(cuts), stop]
    for a, b in zip(bounds, bounds[1:]):
        block = epochs[a:b]
        found = replay_truths(block[0].requery, [e.truth[0] for e in block],
                              excluded[a - start:b - start], layout)
        for k, epoch in enumerate(block):
            fixes = found.fixes.select(np.arange(len(found.fixes)) // n == k)
            baselines = found.baselines.select(found.baseline_epoch == k)
            fixes = fixes.select(active[fixes.ids])
            baselines = baselines.select(active[baselines.pairs].all(axis=1))
            ref_fixes, ref_observations = _ref_status_sets(
                refs[a + k], epoch.truth[0].multipath_sats, excluded[a + k - start], layout, pairs
            )
            ref_fixes = [f for f in ref_fixes if f.antenna_id in subset]
            ref_observations = [o for o in ref_observations if set(o.antenna_pair) <= subset]
            want = _bits(ref_fixes, ref_observations)
            assert _record_bits(fixes, baselines) == want, (name, a + k)


def _replay_is_the_simulator(cfg: mgp.ScenarioConfig, path: Path, rewrites: int = 0) -> int:
    """Write the stream of ``cfg`` to ``path``, read it back and write it
    again ``rewrites`` times, each time byte-identical, and read it back in
    reader blocks: each attitude is the simulator's as written, and
    replaying each block's stored generator states with nothing excluded
    gives bitwise the fixes and baselines the simulator made. Returns the
    count of epochs whose attitude normalization changes in its bits."""
    blocks = list(mgp.simulate(cfg))
    mgp.write_epochs(str(path), blocks)
    written = path.read_bytes()
    for _ in range(rewrites):
        mgp.write_epochs(str(path), [block for block, _ in mgp.read_epoch_blocks(str(path))])
        assert path.read_bytes() == written
    epochs = epochs_of(blocks)
    n, k, changed = cfg.layout.antenna_count, 0, 0
    for block, skips in mgp.read_epoch_blocks(str(path)):
        assert skips == []
        truths = block.truth
        found = replay_truths(block.requery, truths, [frozenset()] * len(block), cfg.layout)
        for j, (truth, simulated) in enumerate(zip(truths, epochs[k:], strict=False)):
            fixes = found.fixes.select(np.arange(len(found.fixes)) // n == j)
            baselines = found.baselines.select(found.baseline_epoch == j)
            want = _record_bits(simulated.fixes, simulated.baselines)
            assert _record_bits(fixes, baselines) == want, (k + j)
            assert truth.attitude == simulated.truth[0].attitude, (k + j)
            unit = unit_quats(np.array([truth.attitude]), canonicalize=False)[0]
            changed += tuple(unit.tolist()) != truth.attitude
        k += len(block)
    assert k == len(epochs) > 0
    return changed


@pytest.mark.parametrize("name", ["multipath", "fixrate", "flight"])
def test_replay_of_every_state_is_the_simulator(tmp_path: Path, name: str) -> None:
    assert _replay_is_the_simulator(_bundled(name, 10.0), tmp_path / "epochs.jsonl") == 0


# An attitude whose quaternion normalization changes in its bits.
RENORMALIZED = (37.0, -1.3, 58.6)


def _profile_scenario(seed: int, knots: list[list[tuple[float, float]]], n_ant: int,
                      noise: dict[str, Any]) -> mgp.ScenarioConfig:
    d = {**A9_SCENARIO, "seed": seed, "duration_s": 2.0}
    d["attitude_profile"] = {axis: [list(knot) for knot in axis_knots] for axis, axis_knots
                             in zip(("roll_knots", "pitch_knots", "yaw_knots"), knots)}
    hexagon = mgp.hexagon_layout().body_positions
    d["layout"] = {"body_positions": [[p.x, p.y, p.z] for p in hexagon[:n_ant]]}
    d["noise"] = noise
    return mgp.scenario_from_dict(d)


def test_replay_is_the_simulator_where_the_reader_renormalizes(tmp_path: Path) -> None:
    """The channels are built at the attitude as ``block_draws`` normalizes
    it, from the simulator's bits and from those the reader keeps, so a
    replay is bitwise the simulator also where normalizing changes the
    attitude's bits."""
    knots = [[(0.0, angle)] for angle in RENORMALIZED]
    cfg = _profile_scenario(5, knots, 6, {"wrong_fix_prob": 0.3})
    assert _replay_is_the_simulator(cfg, tmp_path / "epochs.jsonl") == cfg.n_epochs


def test_a_rewritten_stream_is_its_bytes_and_replays_as_the_simulator(tmp_path: Path) -> None:
    """The stream of attitudes that normalizing changes, read back and
    written again twice, is byte-identical, and replaying it gives bitwise
    the simulator's fixes and baselines."""
    knots = [[(0.0, angle)] for angle in RENORMALIZED]
    cfg = _profile_scenario(5, knots, 6, {"wrong_fix_prob": 0.3})
    assert _replay_is_the_simulator(cfg, tmp_path / "epochs.jsonl", rewrites=2) == cfg.n_epochs


_ANGLE = st.floats(-70.0, 70.0, allow_nan=False).map(lambda x: round(x, 1))
_KNOTS = st.lists(st.tuples(st.floats(0.0, 2.0, allow_nan=False), _ANGLE), min_size=1,
                  max_size=3).map(sorted)


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
)
def test_replay_is_the_simulator_on_drawn_profiles(tmp_path: Path, seed, knots, n_ant,
                                                   noise) -> None:
    """Drawn attitude profiles, antenna counts (an odd count of 32-bit
    draws per epoch leaves the generator holding one back) and noise
    settings: every replayed epoch is bitwise the simulator's."""
    cfg = _profile_scenario(seed, knots, n_ant, noise)
    _replay_is_the_simulator(cfg, tmp_path / "epochs.jsonl")
