"""Differential test: the array epoch record against the per-object path.

The reference below is the path the arrays replaced, kept here only as an
oracle: the reader builds one fix, VectorObservation and SNR row object per
JSON object (coercing field types as it did), the antenna subset filters
objects and SNR rows one by one, multipath detection loops over the rows,
the hybrid position sums one antenna at a time with a RotationMatrix-checked
rotation, consensus is the scalar pair loop of test_ransac_differential, and
the stream loop counts fixes object by object. ``estimate`` on the arrays
must give the same skips, availability and multipath verdicts, poses within
1e-12 rad and 1e-12 m and byte-identical metrics; ``simulate`` must write
the stream the object path wrote.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
import pytest

import mgp
import mgp.pipeline
from mgp import (
    EpochTruth,
    FixStatus,
    PipelineConfig,
    PositionSolution,
    RotationMatrix,
    Vec3,
    VectorObservation,
)
from mgp.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InputError,
    InsufficientDataError,
    ValidationError,
)
from mgp.attitude import _max_eigenpair
from mgp.pipeline import _angle_sd, _population_sd, _wrap_deg

from test_acceptance import A9_SCENARIO
from test_ransac_differential import _scalar_ransac
from test_requery_differential import (
    _Fix,
    _ref_header,
    _ref_lines,
    _ref_requery_from_dict,
    _ref_status_sets,
    _SnrRow,
)

# Verdict codes of mgp.MultipathReport.verdict
CLEAN, MULTIPATH, UNKNOWN = 0, 1, 2

# -- the object path ------------------------------------------------------------


@dataclass(frozen=True)
class _Epoch:
    t: float
    fixes: tuple[_Fix, ...]
    baselines: tuple[VectorObservation, ...]
    snr_rows: tuple[_SnrRow, ...]
    truth: EpochTruth | None


def _vec(obj: Any) -> Vec3:
    x, y, z = (float(c) for c in obj)
    return Vec3(x, y, z)


def _body_vector(body: list[Vec3], pair: Any) -> Vec3:
    """The header layout's body baseline of an antenna pair."""
    i, j = int(pair[0]), int(pair[1])
    if not (1 <= i <= len(body) and 1 <= j <= len(body)):
        raise ValidationError(f"antenna pair {pair} outside the layout")
    return body[j - 1] - body[i - 1]


def _epoch_from_dict(d: dict[str, Any], header: dict[str, Any]) -> _Epoch:
    """The epoch of a line of a stream of the header object ``header``, each
    baseline's body vector from the header's layout."""
    body = [_vec(p) for p in header["layout"]["body_positions"]]
    try:
        fixes = tuple(
            _Fix(
                antenna_id=int(f["antenna_id"]),
                status=FixStatus(f["status"]),
                p=_vec(f["p"]) if f["p"] is not None else None,
                sats_used=int(f["sats_used"]),
            )
            for f in d["fixes"]
        )
        baselines = tuple(
            VectorObservation(
                v=_vec(o["v"]),
                w=_body_vector(body, o["antenna_pair"]),
                antenna_pair=(int(o["antenna_pair"][0]), int(o["antenna_pair"][1])),
                fixed=bool(o["fixed"]),
            )
            for o in d["baselines"]
        )
        snr_rows = tuple(
            _SnrRow(
                sat_id=str(r["sat_id"]),
                snr_dbhz=tuple(float(x) if x is not None else None for x in r["snr"]),
            )
            for r in d["snr_rows"]
        )
        truth = None
        if d.get("truth") is not None:
            tr = d["truth"]
            p = _vec(tr["position"])
            q = tuple(float(c) for c in tr["attitude"])
            mgp.UnitQuaternion.from_array(q)  # refuses a zero quaternion
            truth = EpochTruth(
                position=(p.x, p.y, p.z),
                attitude=q,
                multipath_sats=frozenset(str(s) for s in tr["multipath_sats"]),
                corrupted_baselines=frozenset(
                    (int(p[0]), int(p[1])) for p in tr["corrupted_baselines"]
                ),
                wrong_fix_antennas=frozenset(int(a) for a in tr["wrong_fix_antennas"]),
                requery=(
                    _ref_requery_from_dict(header, tr["requery"], tr)
                    if tr["requery"] is not None else None
                ),
            )
        pairs = [tuple(sorted(o.antenna_pair)) for o in baselines]
        if len(set(pairs)) != len(pairs):
            raise ValidationError("baseline antenna pairs must be unordered-unique")
        return _Epoch(float(d["t"]), fixes, baselines, snr_rows, truth)
    except KeyError as exc:
        raise ValidationError(f"missing key {exc.args[0]!r}") from None
    except (TypeError, IndexError) as exc:
        raise InputError(f"malformed epoch object: {exc!r}") from exc


def _read_epochs(path: str, diagnostics: list[str]) -> Iterator[_Epoch]:
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                yield _epoch_from_dict(json.loads(line), header)
            except (json.JSONDecodeError, InputError, ValidationError, ValueError) as exc:
                diagnostics.append(f"{path}:{lineno}: skipped epoch: {exc}")


def _filter_subset(fixes, baselines, subset):
    fixes = [f for f in fixes if f.antenna_id in subset]
    baselines = [
        o for o in baselines if o.antenna_pair[0] in subset and o.antenna_pair[1] in subset
    ]
    return fixes, baselines


def _subset_snr(rows, idxs):
    out = []
    for row in rows:
        vals = tuple(row.snr_dbhz[i] for i in idxs)
        if all(v is None for v in vals):
            continue
        out.append(_SnrRow(sat_id=row.sat_id, snr_dbhz=vals))
    return out


def _snr_sd(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def _detect(rows, threshold: float, min_count: int):
    """Per-satellite (sigma, count, verdict) and the excluded satellites."""
    seen: set[str] = set()
    per_sat: dict[str, tuple[float | None, int, int]] = {}
    excluded = set()
    for row in rows:
        if row.sat_id in seen:
            raise ValidationError(f"duplicate SNR row for satellite {row.sat_id}")
        seen.add(row.sat_id)
        present = [s for s in row.snr_dbhz if s is not None]
        sigma = _snr_sd(present) if len(present) >= 2 else None
        if len(present) < min_count:
            verdict = UNKNOWN
        elif sigma > threshold:
            verdict = MULTIPATH
            excluded.add(row.sat_id)
        else:
            verdict = CLEAN
        per_sat[row.sat_id] = (sigma, len(present), verdict)
    return per_sat, frozenset(excluded)


def _rotation(q: mgp.UnitQuaternion) -> np.ndarray:
    return RotationMatrix(mgp.quat_to_matrix(q)).as_array()


def _hybrid_position(fixes, attitude, layout) -> PositionSolution:
    seen: set[int] = set()
    for f in fixes:
        if f.antenna_id in seen:
            raise ValidationError(f"duplicate solution for antenna {f.antenna_id}")
        seen.add(f.antenna_id)
    fixed = [f for f in fixes if f.status is FixStatus.FIXED]
    for f in fixed:
        if f.antenna_id > layout.antenna_count:
            raise ConfigurationError(f"antenna {f.antenna_id} has no layout entry")
    if not fixed:
        return PositionSolution.unavailable()
    if attitude is None:
        for f in fixed:
            if layout.position_of(f.antenna_id).norm() == 0.0:
                return PositionSolution(True, f.p, 1, frozenset({f.antenna_id}))
        return PositionSolution.unavailable()
    r_eb = _rotation(attitude)
    acc = np.zeros(3)
    for f in fixed:
        acc += f.p.as_array() - r_eb @ layout.position_of(f.antenna_id).as_array()
    return PositionSolution(
        True, Vec3.from_array(acc / len(fixed)), len(fixed), frozenset(f.antenna_id for f in fixed)
    )


def _euler(q: mgp.UnitQuaternion) -> tuple[float, float, float]:
    m = _rotation(q)
    sp = max(-1.0, min(1.0, -m[2, 0]))
    pitch = math.asin(sp)
    if abs(sp) >= 1.0 - 1e-12:
        roll, yaw = 0.0, math.atan2(-m[0, 1], m[1, 1])
    else:
        roll, yaw = math.atan2(m[2, 1], m[2, 2]), math.atan2(m[1, 0], m[0, 0])
    return math.degrees(roll), math.degrees(pitch), math.degrees(yaw)


def _check_antenna_ids(epoch: _Epoch, layout) -> None:
    n = layout.antenna_count
    ids = [f.antenna_id for f in epoch.fixes] + [a for o in epoch.baselines for a in o.antenna_pair]
    for i in ids:
        if not 1 <= i <= n:
            raise ValidationError(f"antenna {i} has no layout entry (layout has {n})")
    for row in epoch.snr_rows:
        if len(row.snr_dbhz) != n:
            raise ValidationError(
                f"SNR row {row.sat_id} has {len(row.snr_dbhz)} columns (layout has {n})"
            )


def _attitude(baselines, config: PipelineConfig) -> mgp.AttitudeSolution:
    fixed = [o for o in baselines if o.fixed]
    # the object path skips consensus below two fixed baselines
    if len(fixed) < 2:
        return mgp.AttitudeSolution.unavailable()
    k = len(config.active_antennas)
    params = config.ransac
    params = replace(params, min_inliers=max(2, min(params.min_inliers, k * (k - 1) // 2)))
    try:
        return _scalar_ransac(fixed, params)[0]
    except (InsufficientDataError, DegenerateGeometryError):
        return mgp.AttitudeSolution.unavailable()


def _process(epoch: _Epoch, config: PipelineConfig, verdicts: list) -> tuple:
    layout = config.layout
    _check_antenna_ids(epoch, layout)
    subset = set(config.antenna_subset) if config.antenna_subset is not None else None
    fixes, baselines, rows = list(epoch.fixes), list(epoch.baselines), list(epoch.snr_rows)
    if subset is not None:
        fixes, baselines = _filter_subset(fixes, baselines, subset)
        rows = _subset_snr(rows, [i - 1 for i in config.active_antennas])
    per_sat, excluded = _detect(rows, config.multipath.threshold_dbhz, config.multipath.min_count)
    verdicts.append(per_sat)
    truth = epoch.truth
    if config.multipath_feedback and excluded and truth is not None and truth.requery is not None:
        n = layout.antenna_count
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        fixes, baselines = _ref_status_sets(
            truth.requery, truth.multipath_sats, excluded, layout, pairs
        )
        if subset is not None:
            fixes, baselines = _filter_subset(fixes, baselines, subset)
    attitude = _attitude(baselines, config)
    position = _hybrid_position(fixes, attitude.q if attitude.available else None, layout)
    return attitude, position, per_sat, fixes


def _run(epochs, config: PipelineConfig, diags: list[str], verdicts: list):
    """The object path's stream loop; returns the metrics and the poses."""
    ant_ids = config.active_antennas
    fixed_counts = {i: 0 for i in ant_ids}
    n_proc = raw_any = fb_any = att_avail = 0
    att_err: dict[str, list[float]] = {"roll": [], "pitch": [], "yaw": []}
    att_val: dict[str, list[float]] = {"roll": [], "pitch": [], "yaw": []}
    pos_err: dict[str, list[float]] = {"e": [], "n": [], "u": []}
    pos_val: dict[str, list[float]] = {"e": [], "n": [], "u": []}
    tp = fp = fn = 0
    truth_seen = requery_seen = False
    rows: list[list[float]] = []
    n_fix: list[int] = []
    last_t = None
    for idx, epoch in enumerate(epochs):
        if last_t is not None and epoch.t <= last_t:
            diags.append(f"epoch {idx}: non-increasing timestamp {epoch.t!r}, skipped")
            continue
        try:
            attitude, position, per_sat, fixes_used = _process(epoch, config, verdicts)
        except (ValidationError, InputError, InsufficientDataError) as exc:
            diags.append(f"epoch {idx} (t={epoch.t!r}): {exc}")
            continue
        last_t = epoch.t
        n_proc += 1
        raw_fixed = 0
        for f in epoch.fixes:
            if f.antenna_id in fixed_counts and f.status is FixStatus.FIXED:
                fixed_counts[f.antenna_id] += 1
                raw_fixed += 1
        raw_any += bool(raw_fixed)
        n_fix_used = sum(1 for f in fixes_used if f.status is FixStatus.FIXED)
        fb_any += bool(n_fix_used)
        if attitude.available:
            att_avail += 1
            angles = _euler(attitude.q)
            if epoch.truth is not None:
                true_q = mgp.UnitQuaternion.from_array(epoch.truth.attitude, canonicalize=False)
                for axis, a, b in zip(att_err, angles, _euler(true_q)):
                    att_err[axis].append(_wrap_deg(a - b))
            else:
                for axis, a in zip(att_val, angles):
                    att_val[axis].append(a)
        if position.available:
            if epoch.truth is not None:
                d = position.p - Vec3(*epoch.truth.position)
                for axis, c in zip(pos_err, (d.x, d.y, d.z)):
                    pos_err[axis].append(c)
            else:
                for axis, c in zip(pos_val, (position.p.x, position.p.y, position.p.z)):
                    pos_val[axis].append(c)
        if epoch.truth is not None:
            truth_seen = True
            requery_seen |= epoch.truth.requery is not None
            true_mp = epoch.truth.multipath_sats & set(per_sat)
            detected = {s for s, (_, _, verdict) in per_sat.items() if verdict == MULTIPATH}
            tp += len(detected & true_mp)
            fp += len(detected - true_mp)
            fn += len(true_mp - detected)
        p = position.p.as_array().tolist() if position.available else [math.nan] * 3
        q = attitude.q.as_array().tolist() if attitude.available else [math.nan] * 4
        rows.append([epoch.t, *p, *q])
        n_fix.append(n_fix_used)

    def pct(count: int) -> float | None:
        return 100.0 * count / n_proc if n_proc else None

    if truth_seen:
        att_sd = {axis: _population_sd(v) for axis, v in att_err.items()}
        pos_sd = {axis: _population_sd(v) for axis, v in pos_err.items()}
    else:
        att_sd = {axis: _angle_sd(v) for axis, v in att_val.items()}
        pos_sd = {axis: _population_sd(v) for axis, v in pos_val.items()}
    metrics = mgp.MetricsReport(
        epochs=n_proc,
        skipped=len(diags),
        per_antenna_fix_rate_pct={i: pct(fixed_counts[i]) for i in ant_ids},
        hybrid_fix_rate_pct=pct(raw_any),
        hybrid_fix_rate_multipath_pct=(
            pct(fb_any) if config.multipath_feedback and requery_seen else None
        ),
        attitude_availability_pct=pct(att_avail),
        attitude_sd_deg=att_sd,
        position_sd_mm={a: None if sd is None else 1000.0 * sd for a, sd in pos_sd.items()},
        multipath_precision=tp / (tp + fp) if (tp + fp) > 0 else None,
        multipath_recall=tp / (tp + fn) if (tp + fn) > 0 else None,
    )
    a = np.array(rows).reshape(-1, 8)
    return metrics, mgp.Poses.checked(a[:, 0], a[:, 1:4], a[:, 4:], np.array(n_fix))


# -- comparison -------------------------------------------------------------------


@dataclass
class _Estimate:
    metrics_json: str
    poses: mgp.Poses
    diagnostics: list[str]
    verdicts: list[dict]


def _reference(path: str, config: PipelineConfig) -> _Estimate:
    diags: list[str] = []
    verdicts: list[dict] = []
    metrics, poses = _run(_read_epochs(path, diags), config, diags, verdicts)
    return _Estimate(json.dumps(metrics.to_json_dict(), indent=2), poses, diags, verdicts)


def _arrays(path: str, config: PipelineConfig, monkeypatch) -> _Estimate:
    """``estimate`` on the arrays, in one process, with the verdicts of
    every epoch that passed the front half, in stream order: each block's
    front half (``_FrontBlock``) scores its SNR rows, ``run`` tallies the
    block's passed epochs at once (``_Tally.add``), and each such epoch's
    verdicts are its slices of the block's scored SNR rows."""
    verdicts: list[dict] = []
    fronts: list[mgp.pipeline._FrontBlock] = []
    front_block, tally_add = mgp.pipeline._FrontBlock, mgp.pipeline._Tally.add

    def kept(block, config):
        fronts.append(front_block(block, config))
        return fronts[-1]

    def record(tally, block, passed):
        front = fronts.pop(0)
        ends = front.snr_ends
        for k in np.flatnonzero(passed).tolist():
            a, b = ends[k], ends[k + 1]
            rows = zip(
                front.sigma[a:b].tolist(), front.count[a:b].tolist(), front.verdict[a:b].tolist()
            )
            verdicts.append(
                {s: (None if sd != sd else sd, n, v) for s, (sd, n, v) in zip(front.sats[a:b], rows)}
            )
        return tally_add(tally, block, passed)

    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        m.setattr(mgp.pipeline, "_FrontBlock", kept)
        m.setattr(mgp.pipeline._Tally, "add", record)
        result = mgp.run(mgp.read_epoch_blocks(path), config)
        diags = result.diagnostics
    return _Estimate(
        json.dumps(result.metrics.to_json_dict(), indent=2), result.poses, diags, verdicts
    )


def _assert_same_poses(got: mgp.Poses, want: mgp.Poses) -> None:
    """Equal times, fixed counts and missing rows; positions within 1e-12 m
    and attitudes within 1e-12 rad (the reference sums the Davenport matrix
    and the lever arms in another order, so the last bits differ)."""
    assert np.array_equal(got.t, want.t) and np.array_equal(got.n_fix, want.n_fix)
    for name in ("p", "q"):
        assert np.array_equal(np.isnan(getattr(got, name)), np.isnan(getattr(want, name)))
    has_q = ~np.isnan(want.q[:, 0])
    for a, b in zip(got.q[has_q].tolist(), want.q[has_q].tolist()):
        assert mgp.quat_angle(mgp.UnitQuaternion(*a), mgp.UnitQuaternion(*b)) < 1e-12
    has_p = ~np.isnan(want.p[:, 0])
    assert (np.linalg.norm(got.p[has_p] - want.p[has_p], axis=1) < 1e-12).all()


def _scenario(name: str, duration_s: float) -> mgp.ScenarioConfig:
    d = json.loads(Path(mgp.bundled_scenario_path(name)).read_text(encoding="utf-8"))
    d["duration_s"] = duration_s
    return mgp.scenario_from_dict(d)


SCENARIOS: dict[str, Callable[[], mgp.ScenarioConfig]] = {
    "a9": lambda: mgp.scenario_from_dict(A9_SCENARIO),
    "multipath": lambda: _scenario("multipath", 8.0),
    "fixrate": lambda: _scenario("fixrate", 8.0),
    "flight": lambda: _scenario("flight", 8.0),
}
CASES = [
    ("a9", None),
    ("multipath", None),
    ("fixrate", None),
    ("fixrate", (1, 3, 5)),
    ("flight", None),
]


@pytest.fixture(scope="module")
def streams(tmp_path_factory) -> dict[str, tuple[mgp.ScenarioConfig, Path]]:
    out = {}
    for name, make in SCENARIOS.items():
        cfg = make()
        path = tmp_path_factory.mktemp(name) / "epochs.jsonl"
        mgp.write_epochs(str(path), mgp.simulate(cfg))
        out[name] = (cfg, path)
    return out


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_simulate_writes_the_object_path_stream(streams, name: str) -> None:
    cfg, path = streams[name]
    ref = [json.dumps(_ref_header(cfg)), *_ref_lines(cfg)]
    assert path.read_bytes() == ("\n".join(ref) + "\n").encode("utf-8")


@pytest.mark.parametrize("name, subset", CASES, ids=[f"{n}-{s or 'all'}" for n, s in CASES])
def test_estimate_matches_object_path(streams, monkeypatch, name: str, subset) -> None:
    cfg, path = streams[name]
    config = PipelineConfig(layout=cfg.layout, antenna_subset=subset)
    got = _arrays(str(path), config, monkeypatch)
    want = _reference(str(path), config)
    assert got.diagnostics == want.diagnostics
    assert got.metrics_json == want.metrics_json
    _assert_same_poses(got.poses, want.poses)
    assert got.verdicts == want.verdicts
    assert len(got.verdicts) == len(want.poses)


@pytest.mark.parametrize("subset", [None, (1, 3, 5)], ids=["all", "1-3-5"])
def test_snr_gaps_match_object_path(streams, monkeypatch, tmp_path, subset) -> None:
    """SNR values written as JSON null (untracked), in a pattern that leaves
    some satellites with one or two tracking antennas and some with none
    among antennas 1, 3 and 5."""
    _, clean = streams["multipath"]
    lines = clean.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for e, line in enumerate(lines[1:]):
        record = json.loads(line)
        for k, row in enumerate(record["snr_rows"]):
            gaps = ((0, 2, 4), (1, 2, 3, 4, 5), (0, 1, 2, 3), (), (3,))[(e + k) % 5]
            row["snr"] = [None if j in gaps else x for j, x in enumerate(row["snr"])]
        out.append(json.dumps(record))
    path = tmp_path / "gaps.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    config = PipelineConfig(antenna_subset=subset)
    got = _arrays(str(path), config, monkeypatch)
    want = _reference(str(path), config)
    assert got.diagnostics == want.diagnostics == []
    assert got.metrics_json == want.metrics_json
    _assert_same_poses(got.poses, want.poses)
    assert got.verdicts == want.verdicts
    assert any(sigma is None for v in got.verdicts for sigma, _, _ in v.values())


def _estimate_attitude(fixed: list[VectorObservation]) -> tuple:
    """The object Q-method refit: weights from Vec3 norms, K from objects."""
    lengths = [o.w.norm() for o in fixed]
    total = sum(lengths)
    lam, q_be = _max_eigenpair(mgp.davenport_matrix(fixed, [ln / total for ln in lengths]))
    return lam, mgp.UnitQuaternion.from_array(q_be * np.array((-1.0, -1.0, -1.0, 1.0)))


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_refit_is_bitwise_the_object_path(streams, name: str) -> None:
    _, path = streams[name]
    checked = 0
    for epoch in mgp.read_epochs(str(path)):
        fixed = [o for o in epoch.baselines if o.fixed]
        if len(fixed) < 3:
            continue
        got = mgp.estimate_attitude(epoch.baselines)
        lam, q = _estimate_attitude(fixed)
        assert (got.lambda_max, got.q) == (lam, q)
        checked += 1
    assert checked > 0


def _edit_fix(key: str, value) -> Callable[[dict], None]:
    def edit(record: dict) -> None:
        record["fixes"][0][key] = value

    return edit


def _edit_baseline(key: str, value) -> Callable[[dict], None]:
    def edit(record: dict) -> None:
        record["baselines"][0][key] = value

    return edit


def _edit_snr_id(record: dict) -> None:
    record["snr_rows"][0]["sat_id"] = 7


def _edit_state(record: dict) -> None:
    state = record["truth"]["requery"]
    state["state"] = str(state["state"])


def _edit_t(record: dict) -> None:
    record["t"] = True


# One edit per mistyped field the object path coerced.
BAD_EDITS = {
    "antenna-id-float": _edit_fix("antenna_id", 1.7),
    "fixed-string": _edit_baseline("fixed", "no"),
    "state-string": _edit_state,
    "sats-used-float": _edit_fix("sats_used", 3.9),
    "t-true": _edit_t,
    "sat-id-number": _edit_snr_id,
    "pair-three-ids": _edit_baseline("antenna_pair", [1, 2, 9]),
}


def test_mistyped_lines_are_the_only_difference(streams, monkeypatch, tmp_path) -> None:
    """A corrupted copy of an epoch after its original, for each mistyped
    field: the object path reads every copy (coerced), the array path skips
    exactly those lines and otherwise matches the object path on the clean
    stream."""
    _, clean = streams["multipath"]
    lines = clean.read_text(encoding="utf-8").splitlines()
    out, bad_linenos = [lines[0]], []
    header = json.loads(lines[0])
    for k, line in enumerate(lines[1:], start=1):
        out.append(line)
        if k % 10 == 0 and len(bad_linenos) < len(BAD_EDITS):
            record = json.loads(line)
            list(BAD_EDITS.values())[len(bad_linenos)](record)
            assert _epoch_from_dict(json.loads(json.dumps(record)), header) is not None
            out.append(json.dumps(record))
            bad_linenos.append(len(out))
    assert len(bad_linenos) == len(BAD_EDITS)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")

    config = PipelineConfig()
    got = _arrays(str(path), config, monkeypatch)
    want = _reference(str(clean), config)
    assert [d.split(": skipped epoch: ")[0] for d in got.diagnostics] == [
        f"{path}:{n}" for n in bad_linenos
    ]
    got_metrics, want_metrics = json.loads(got.metrics_json), json.loads(want.metrics_json)
    assert (got_metrics.pop("skipped"), want_metrics.pop("skipped")) == (len(BAD_EDITS), 0)
    assert got_metrics == want_metrics
    _assert_same_poses(got.poses, want.poses)
    assert got.verdicts == want.verdicts
