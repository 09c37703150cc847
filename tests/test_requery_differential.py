"""Differential test: the array requery record against the per-channel path.

The reference below is the object path the arrays replaced, kept here only
as an oracle: one frozen channel object per antenna and baseline built in a
per-row loop, a separate post-calibration model type, the per-channel
``_assign`` replay and the per-channel dict codec. The epoch stream written
by ``simulate`` must be byte-identical to the reference's, and
``requery_epoch`` on the read-back stream must return bitwise the statuses,
positions and baseline vectors the reference replay returns.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest

import mgp
from mgp import FixStatus, Vec3
from mgp.multipath import SNR_MAX_DBHZ, SNR_MIN_DBHZ
from mgp.simulator import _effective_biases, _lattice_table

from test_acceptance import A9_SCENARIO


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
        fixes.append(
            mgp.FixSolution(antenna_id=idx + 1, status=status, p=pos, sats_used=len(remaining))
        )
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


def _ref_channel_to_dict(ch: _Channel) -> dict[str, Any]:
    return {
        "u_fix": ch.u_fix,
        "u_float": ch.u_float,
        "wrong": ch.wrong,
        "latent_fixed": [ch.latent_fixed.x, ch.latent_fixed.y, ch.latent_fixed.z],
        "latent_float": [ch.latent_float.x, ch.latent_float.y, ch.latent_float.z],
        "wrong_offset": [ch.wrong_offset.x, ch.wrong_offset.y, ch.wrong_offset.z],
    }


def _ref_channel_from_dict(d: dict[str, Any]) -> _Channel:
    return _Channel(
        u_fix=float(d["u_fix"]),
        u_float=float(d["u_float"]),
        wrong=bool(d["wrong"]),
        latent_fixed=Vec3(*(float(c) for c in d["latent_fixed"])),
        latent_float=Vec3(*(float(c) for c in d["latent_float"])),
        wrong_offset=Vec3(*(float(c) for c in d["wrong_offset"])),
    )


def _ref_requery_to_dict(rq: _Requery) -> dict[str, Any]:
    return {
        "model": {
            "steepness": rq.model.steepness,
            "midpoint": rq.model.midpoint,
            "multipath_weight": rq.model.multipath_weight,
            "antenna_bias": list(rq.model.antenna_bias),
            "baseline_bias": rq.model.baseline_bias,
            "float_fraction": rq.model.float_fraction,
        },
        "solution_sats": list(rq.solution_sats),
        "antenna_channels": [_ref_channel_to_dict(c) for c in rq.antenna_channels],
        "baseline_channels": [_ref_channel_to_dict(c) for c in rq.baseline_channels],
    }


def _ref_requery_from_dict(rq: dict[str, Any]) -> _Requery:
    md = rq["model"]
    return _Requery(
        model=_Model(
            steepness=float(md["steepness"]),
            midpoint=float(md["midpoint"]),
            multipath_weight=float(md["multipath_weight"]),
            antenna_bias=tuple(float(b) for b in md["antenna_bias"]),
            baseline_bias=float(md["baseline_bias"]),
            float_fraction=float(md["float_fraction"]),
        ),
        solution_sats=tuple(str(s) for s in rq["solution_sats"]),
        antenna_channels=tuple(_ref_channel_from_dict(c) for c in rq["antenna_channels"]),
        baseline_channels=tuple(_ref_channel_from_dict(c) for c in rq["baseline_channels"]),
    )


def _ref_lines(config: mgp.ScenarioConfig) -> Iterator[str]:
    """The reference epoch stream, one JSON line per epoch, drawn in the
    simulator's documented order."""
    rng = np.random.default_rng(config.seed)
    layout = config.layout
    n_ant = layout.antenna_count
    n_sat = len(config.constellation)
    pairs = [(i, j) for i in range(1, n_ant + 1) for j in range(i + 1, n_ant + 1)]
    body = np.array([p.as_array() for p in layout.body_positions])
    body_bl = np.array([layout.baseline(i, j).as_array() for i, j in pairs])
    mp_sats = mgp.multipath_satellite_ids(config)
    mp_mask = np.array([s.sat_id in mp_sats for s in config.constellation])
    n_mp = int(mp_mask.sum())
    ant_bias, bl_bias = _effective_biases(config, n_sat - n_mp, n_mp)
    fm = config.fix_model
    model = _Model(
        fm.steepness, fm.midpoint, fm.multipath_weight, tuple(ant_bias), bl_bias, fm.float_fraction
    )
    sats = tuple(s.sat_id for s in config.constellation)
    noise = config.noise
    snr_model = noise.snr
    nominal = np.array([snr_model.nominal(s.elevation_deg) for s in config.constellation])
    lattice = _lattice_table(noise.wrong_fix_max_multiple)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_sat, n_ant))
    for k in range(config.n_epochs):
        t = k / config.rate_hz
        p_plat = mgp.trajectory_position(config, t)
        q_truth = mgp.truth_attitude(config, t)
        r_eb = mgp.quat_to_matrix(q_truth)
        ant_norm = rng.standard_normal((n_ant, 6))
        ant_unif = rng.random((n_ant, 3))
        ant_lat = rng.integers(0, len(lattice), n_ant)
        bl_norm = rng.standard_normal((len(pairs), 6))
        bl_unif = rng.random((len(pairs), 3))
        bl_lat = rng.integers(0, len(lattice), len(pairs))
        snr_jit = rng.standard_normal((n_sat, n_ant))
        ant = _ref_build_channels(
            p_plat.as_array() + body @ r_eb.T, ant_norm, ant_unif, ant_lat, lattice, noise
        )
        bl = _ref_build_channels(body_bl @ r_eb.T, bl_norm, bl_unif, bl_lat, lattice, noise)
        req = _Requery(model, sats, ant, bl)
        fixes, observations = _ref_status_sets(req, mp_sats, frozenset(), layout, pairs)

        offsets = np.zeros((n_sat, n_ant))
        if n_mp and snr_model.fading_amplitude_db > 0.0:
            swing = 3.0 * np.sin(2.0 * math.pi * t / snr_model.fading_period_s + phases)
            offsets[mp_mask] = snr_model.fading_amplitude_db * np.clip(swing[mp_mask], -1.0, 1.0)
        snr = nominal[:, None] + offsets + snr_model.thermal_jitter_db * snr_jit
        snr = np.round(np.clip(snr, SNR_MIN_DBHZ, SNR_MAX_DBHZ), 2)
        snr_rows = tuple(
            mgp.SnrRow(sat_id=sat.sat_id, snr_dbhz=tuple(float(x) for x in snr[s]))
            for s, sat in enumerate(config.constellation)
        )
        wrong_ants = frozenset(
            f.antenna_id for f, ch in zip(fixes, ant) if f.status is FixStatus.FIXED and ch.wrong
        )
        fixed_pairs = {o.antenna_pair for o in observations if o.fixed}
        corrupted = frozenset(p for p, ch in zip(pairs, bl) if ch.wrong and p in fixed_pairs)
        truth = mgp.EpochTruth(p_plat, q_truth, mp_sats, corrupted, wrong_ants)
        d = _ref_epoch_to_dict(t, fixes, observations, snr_rows, truth)
        d["truth"]["requery"] = _ref_requery_to_dict(req)
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
            {"antenna_pair": list(o.antenna_pair), "v": vec(o.v), "w": vec(o.w), "fixed": o.fixed}
            for o in observations
        ],
        "snr_rows": [{"sat_id": r.sat_id, "snr": list(r.snr_dbhz)} for r in snr_rows],
        "truth": {
            "position": vec(truth.position),
            "attitude": truth.attitude.as_array().tolist(),
            "multipath_sats": sorted(truth.multipath_sats),
            "corrupted_baselines": sorted(list(p) for p in truth.corrupted_baselines),
            "wrong_fix_antennas": sorted(truth.wrong_fix_antennas),
            "requery": None,
        },
    }


def _bits(fixes, observations) -> tuple:
    def vec(v: Vec3 | None):
        return None if v is None else (v.x.hex(), v.y.hex(), v.z.hex())

    return (
        [(f.antenna_id, f.status, vec(f.p), f.sats_used) for f in fixes],
        [(o.antenna_pair, o.fixed, vec(o.v), vec(o.w)) for o in observations],
    )


def _bundled(name: str, duration_s: float, **noise: float) -> mgp.ScenarioConfig:
    d = json.loads(Path(mgp.bundled_scenario_path(name)).read_text())
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
        ref = [json.dumps(mgp.streams.EPOCH_HEADER), *_ref_lines(cfg)]
        out[name] = (cfg, path, ref)
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_epoch_stream_byte_identical_to_object_path(streams, name: str) -> None:
    _, path, ref = streams[name]
    assert path.read_bytes() == ("\n".join(ref) + "\n").encode("utf-8")


def test_wrong_fix_case_exercises_wrong_offsets(streams) -> None:
    _, path, _ = streams["multipath-wrong-0.3"]
    epochs = list(mgp.read_epochs(str(path)))
    assert sum(len(e.truth.wrong_fix_antennas) for e in epochs) > 0
    assert sum(len(e.truth.corrupted_baselines) for e in epochs) > 0


def test_requery_matches_object_path(streams) -> None:
    rng = np.random.default_rng(7)
    checked = 0
    for cfg, path, _ in streams.values():
        layout = cfg.layout
        n = layout.antenna_count
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        sats = [s.sat_id for s in cfg.constellation]
        lines = path.read_text().splitlines()[1:]
        for epoch, line in zip(mgp.read_epochs(str(path)), lines):
            ref_req = _ref_requery_from_dict(json.loads(line)["truth"]["requery"])
            mp = epoch.truth.multipath_sats
            random = [rng.choice(sats, rng.integers(1, len(sats)), replace=False) for _ in range(3)]
            subsets = [frozenset(), mp, frozenset(sats), *(frozenset(r.tolist()) for r in random)]
            for excluded in subsets:
                got = mgp.requery_epoch(epoch, excluded, layout)
                want = _ref_status_sets(ref_req, mp, excluded, layout, pairs)
                assert _bits(*got) == _bits(*want), (path, epoch.t, sorted(excluded))
            checked += 1
    assert checked >= 200


def test_calibrated_model_is_a_fix_model_without_targets() -> None:
    cfg = _bundled("fixrate", 0.1)
    model = next(iter(mgp.simulate(cfg))).truth.requery.model
    assert isinstance(model, mgp.FixModel)
    assert model.target_fix_probs is None and model.baseline_target_fix_prob is None
    assert model == replace(
        cfg.fix_model,
        antenna_bias=model.antenna_bias,
        target_fix_probs=None,
        baseline_bias=model.baseline_bias,
        baseline_target_fix_prob=None,
    )
