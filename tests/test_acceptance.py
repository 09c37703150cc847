"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The printed lines bypass pytest capture so the verdicts always appear in the
run log. Each criterion re-checks its own runtime budget, counting the wall
time of the shared session fixtures it consumed.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import mgp
from mgp.cli import main as cli_main

from conftest import FlightData, TimedRun, TimedStream

LAYOUT = mgp.hexagon_layout(0.9)
PAIRS = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
BODY = np.array([LAYOUT.baseline(*pair).as_array() for pair in PAIRS])


def _verdict(capfd, name: str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _random_quat(rng: np.random.Generator) -> mgp.UnitQuaternion:
    return mgp.UnitQuaternion.from_array(rng.standard_normal(4))


def _observations(
    q_true: mgp.UnitQuaternion,
    rng: np.random.Generator,
    sigma_m: float,
    corrupt: frozenset[tuple[int, int]] = frozenset(),
) -> mgp.Baselines:
    """All 15 hexagon baselines, fixed, measured under ``q_true``. The draws
    run pair by pair (noise, then a slip where ``corrupt`` names the pair)."""
    r = mgp.quat_to_matrix(q_true)
    v = np.array([r @ w for w in BODY])
    for k, pair in enumerate(PAIRS):
        if sigma_m > 0.0:
            v[k] += rng.normal(0.0, sigma_m, 3)
        if pair in corrupt:
            slip = rng.standard_normal(3)
            v[k] += 0.19 * slip / np.linalg.norm(slip)
    return mgp.Baselines.checked(np.array(PAIRS), v, BODY, np.ones(len(PAIRS), dtype=bool))


# -- A1: attitude solver correctness ------------------------------------------


def test_a1_qmethod_correctness(capfd) -> None:
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_zero = 0.0
    worst_svd = 0.0
    lambda_ok = True
    for k in range(1000):
        sigma = (0.0, 0.001, 0.005)[k % 3]
        q_true = _random_quat(rng)
        obs = _observations(q_true, rng, sigma)
        sol = mgp.estimate_attitude(obs)
        if sigma == 0.0:
            worst_zero = max(worst_zero, mgp.quat_angle(sol.q, q_true))
        q_svd = mgp.wahba_svd(obs, mgp.baseline_weights(obs))
        worst_svd = max(worst_svd, mgp.quat_angle(sol.q, q_svd))
        if not (sol.lambda_max <= 1.0 + 1e-9):
            lambda_ok = False
    dt = time.perf_counter() - t0
    ok = worst_zero < 1e-9 and worst_svd < 1e-6 and lambda_ok and dt < 10.0
    _verdict(
        capfd,
        "A1",
        ok,
        f"1000 problems: zero-noise max {worst_zero:.2e} rad, "
        f"svd gap max {worst_svd:.2e} rad, lambda bound {lambda_ok}, {dt:.1f} s",
    )


# -- A2: consensus search under baseline slips ---------------------------------


def test_a2_ransac_robustness(capfd) -> None:
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    n_trials = 200
    successes = 0
    for k in range(n_trials):
        q_true = _random_quat(rng)
        picked = rng.choice(len(PAIRS), size=3, replace=False)
        corrupt = frozenset(PAIRS[int(i)] for i in picked)
        obs = _observations(q_true, rng, 0.002, corrupt=corrupt)
        res = mgp.ransac_attitude(obs, mgp.RansacParams())
        if not res.solution.available:
            continue
        err_deg = math.degrees(mgp.quat_angle(res.solution.q, q_true))
        if obs.pair_set() - res.inlier_pairs == corrupt and err_deg < 0.2:
            successes += 1
    worst_clean = 0.0
    for k in range(50):
        q_true = _random_quat(rng)
        obs = _observations(q_true, rng, 0.002)
        res = mgp.ransac_attitude(obs, mgp.RansacParams())
        plain = mgp.estimate_attitude(obs)
        worst_clean = max(
            worst_clean, math.degrees(mgp.quat_angle(res.solution.q, plain.q))
        )
    dt = time.perf_counter() - t0
    ok = successes >= 190 and worst_clean < 0.01 and dt < 30.0
    _verdict(
        capfd,
        "A2",
        ok,
        f"{successes}/{n_trials} trials with exact outlier set and <0.2 deg error, "
        f"clean-data deviation max {worst_clean:.2e} deg, {dt:.1f} s",
    )


# -- A3: availability, 6 antennas vs 3 -----------------------------------------


def test_a3_availability_six_vs_three(
    multipath_stream: TimedStream,
    multipath_run6: TimedRun,
    multipath_run3: TimedRun,
    capfd,
) -> None:
    m6 = multipath_run6.result.metrics
    m3 = multipath_run3.result.metrics
    avail6 = m6.attitude_availability_pct
    avail3 = m3.attitude_availability_pct
    gap = avail6 - avail3
    dt = multipath_stream.seconds + multipath_run6.seconds + multipath_run3.seconds
    ok = m6.epochs == 6000 and m3.epochs == 6000 and gap >= 10.0 and dt < 60.0
    _verdict(
        capfd,
        "A3",
        ok,
        f"attitude availability {avail6:.2f}% (6 ant) vs {avail3:.2f}% (3 ant), "
        f"gap {gap:.2f} pp over 6000 epochs, {dt:.1f} s",
    )


# -- A4: per-antenna and hybrid fix rates --------------------------------------

TARGET_RATES_PCT = (62.5, 17.2, 55.5, 30.2, 68.2, 49.3)


def test_a4_hybrid_fix_rate_trend(
    fixrate_stream: TimedStream, fixrate_run: TimedRun, capfd
) -> None:
    m = fixrate_run.result.metrics
    n = m.epochs
    within = []
    parts = []
    for ant, target in zip(range(1, 7), TARGET_RATES_PCT):
        p = target / 100.0
        band = 300.0 * math.sqrt(p * (1.0 - p) / n)
        measured = m.per_antenna_fix_rate_pct[ant]
        within.append(abs(measured - target) <= band)
        parts.append(f"{measured:.1f}")
    p_hybrid = 1.0 - math.prod(1.0 - t / 100.0 for t in TARGET_RATES_PCT)
    hybrid_target = 100.0 * p_hybrid
    hybrid_band = 300.0 * math.sqrt(p_hybrid * (1.0 - p_hybrid) / n)
    hybrid = m.hybrid_fix_rate_pct
    best = max(m.per_antenna_fix_rate_pct.values())
    dt = fixrate_stream.seconds + fixrate_run.seconds
    ok = (
        n == 6000
        and all(within)
        and abs(hybrid - hybrid_target) <= hybrid_band
        and hybrid > best
        and dt < 60.0
    )
    _verdict(
        capfd,
        "A4",
        ok,
        f"per-antenna {'/'.join(parts)}% vs targets "
        f"{'/'.join(str(t) for t in TARGET_RATES_PCT)}%, "
        f"hybrid {hybrid:.2f}% (independence model {hybrid_target:.2f}%), "
        f"best single {best:.1f}%, {dt:.1f} s",
    )


# -- A5: multipath feedback gain and detection quality -------------------------


def test_a5_multipath_feedback_gain(
    multipath_stream: TimedStream, multipath_run6: TimedRun, capfd
) -> None:
    assert mgp.PipelineConfig().multipath.threshold_dbhz == 4.0
    m = multipath_run6.result.metrics
    raw = m.hybrid_fix_rate_pct
    fb = m.hybrid_fix_rate_multipath_pct
    prec = m.multipath_precision
    rec = m.multipath_recall
    dt = multipath_stream.seconds + multipath_run6.seconds
    ok = (
        raw is not None
        and fb is not None
        and fb > raw
        and prec is not None
        and prec >= 0.9
        and rec is not None
        and rec >= 0.9
        and dt < 60.0
    )
    _verdict(
        capfd,
        "A5",
        ok,
        f"hybrid fix rate {raw:.2f}% -> {fb:.2f}% with feedback at 4.0 dB-Hz, "
        f"precision {prec:.4f}, recall {rec:.4f}, {dt:.1f} s",
    )


# -- A6: positioning consistency ------------------------------------------------

IDS = np.arange(1, 7)


def _fixed(ids: np.ndarray, p: np.ndarray) -> mgp.Fixes:
    """Fixed solutions of antennas ``ids`` at the rows of ``p``."""
    n = len(ids)
    return mgp.Fixes.checked(ids, np.full(n, 2, dtype=np.int8), p, np.full(n, 8))


def test_a6_positioning_consistency(capfd) -> None:
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst_exact = 0.0
    for _ in range(20):
        q = _random_quat(rng)
        p_true = mgp.Vec3.from_array(rng.uniform(-50.0, 50.0, 3))
        p = np.array([(p_true + mgp.rotate(q, LAYOUT.position_of(a))).as_array() for a in IDS])
        for mask in range(1, 64):
            subset = np.array([mask >> (a - 1) & 1 for a in IDS], dtype=bool)
            sol = mgp.hybrid_position(_fixed(IDS[subset], p[subset]), q, LAYOUT)
            worst_exact = max(worst_exact, (sol.p - p_true).norm())

    sigma = 0.005
    n_epochs = 10_000
    q_id = mgp.UnitQuaternion.identity()
    scaling = {}
    for n_ant in (1, 2, 3, 6):
        errs = np.empty((n_epochs, 3))
        ids, levers = IDS[:n_ant], LAYOUT.positions[:n_ant]
        for k in range(n_epochs):
            # one draw per antenna, in id order
            p = levers + np.array([rng.normal(0.0, sigma, 3) for _ in ids])
            errs[k] = mgp.hybrid_position(_fixed(ids, p), q_id, LAYOUT).p.as_array()
        measured = float(np.sqrt(np.mean(errs**2)))
        expected = sigma / math.sqrt(n_ant)
        scaling[n_ant] = abs(measured - expected) / expected
    dt = time.perf_counter() - t0
    ok = (
        worst_exact < 1e-12
        and all(rel < 0.10 for rel in scaling.values())
        and dt < 30.0
    )
    _verdict(
        capfd,
        "A6",
        ok,
        f"noise-free worst {worst_exact:.2e} m over 63 subsets x 20 poses, "
        f"sigma/sqrt(N) relative error "
        f"{', '.join(f'N={n}: {r:.3f}' for n, r in scaling.items())}, {dt:.1f} s",
    )


# -- A7: SNR spread formula exactness -------------------------------------------


def test_a7_snr_sd_exactness(capfd) -> None:
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        vals = [float(x) for x in rng.uniform(20.0, 58.0, n)]
        mu = sum(vals) / n
        direct = math.sqrt(sum((x - mu) ** 2 for x in vals) / n)
        worst = max(worst, abs(mgp.snr_sd(vals) - direct))
    worked = mgp.snr_sd([45.0, 45.0, 45.0, 45.0, 45.0, 33.0])
    worked_err = abs(worked - math.sqrt(120.0 / 6.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and worked_err <= 1e-12
    _verdict(
        capfd,
        "A7",
        ok,
        f"max |snr_sd - direct| {worst:.2e} over 1000 rows, "
        f"worked value {worked!r} vs sqrt(120/6), {dt:.2f} s",
    )


# -- A8: mapping accuracy against the error budget ------------------------------


def test_a8_mapping_accuracy(flight_data: FlightData, capfd) -> None:
    t0 = time.perf_counter()
    cfg = flight_data.scenario
    corrupted = mgp.corrupt_poses(
        flight_data.truth_poses, sigma_pos_m=0.01, sigma_att_deg=0.07, tau_s=8.0, seed=1
    )
    cloud, _dropped = mgp.georeference_stream(
        corrupted, flight_data.frames, mgp.MountCalibration()
    )
    report = mgp.evaluate_reflectors(
        cloud,
        [r.position for r in cfg.reflectors],
        cluster_radius_m=0.8,
        min_hits=10,
    )
    budget = mgp.mapping_error_budget(0.01, math.radians(0.07), 30.0)
    dt = flight_data.seconds + (time.perf_counter() - t0)
    rms_h = report.rms_horizontal_m
    rms_v = report.rms_vertical_m
    ok = (
        report.unresolved == 0
        and len(report.per_reflector) == 6
        and rms_h is not None
        and budget / 2.0 <= rms_h <= 2.0 * budget
        and 0.02 <= rms_h <= 0.08
        and rms_v is not None
        and rms_v <= 2.0 * budget
        and dt < 60.0
    )
    _verdict(
        capfd,
        "A8",
        ok,
        f"6/6 reflectors resolved: {report.unresolved == 0}, "
        f"rms horizontal {100 * rms_h:.2f} cm vs budget {100 * budget:.2f} cm, "
        f"rms vertical {100 * rms_v:.2f} cm, {dt:.1f} s",
    )


# -- A9: end-to-end determinism --------------------------------------------------

A9_SCENARIO = {
    "seed": 424242,
    "duration_s": 12.0,
    "rate_hz": 10.0,
    "trajectory": {
        "kind": "waypoint",
        "waypoints": [[-18.0, 0.0, 30.0], [18.0, 0.0, 30.0]],
        "speed_mps": 3.0,
    },
    "constellation": [
        {"sat_id": f"G{k:02d}", "azimuth_deg": 36.0 * k, "elevation_deg": 20.0 + 6.0 * k}
        for k in range(10)
    ],
    "sky_mask": [
        {"az_start_deg": 40.0, "az_end_deg": 150.0, "mask_elevation_deg": 35.0}
    ],
    "scanner": {"spin_hz": 13.0, "pulses_per_rev": 180},
    "reflectors": [{"position": [0.0, 3.0, 0.0], "radius_m": 0.4}],
}


def test_a9_determinism(tmp_path: Path, capfd) -> None:
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(A9_SCENARIO), encoding="utf-8")
    pipe = tmp_path / "pipeline.json"
    pipe.write_text("{}", encoding="utf-8")
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"lever_arm": [0.1, 0.0, -0.05]}), encoding="utf-8")
    names = ("epochs.jsonl", "scan.jsonl", "poses.csv", "metrics.json", "cloud.xyz")
    payloads: list[tuple[bytes, ...]] = []
    for rep in ("first", "second"):
        d = tmp_path / rep
        d.mkdir()
        e, s, p, m, c = (str(d / n) for n in names)
        assert cli_main(["simulate", "--config", str(scen), "--out", e, "--scan", s]) == 0
        assert (
            cli_main(
                ["estimate", "--epochs", e, "--config", str(pipe), "--poses", p, "--metrics", m]
            )
            == 0
        )
        assert (
            cli_main(["georef", "--poses", p, "--scan", s, "--calib", str(calib), "--cloud", c])
            == 0
        )
        payloads.append(tuple(Path(f).read_bytes() for f in (e, s, p, m, c)))
    differing = [n for n, a, b in zip(names, payloads[0], payloads[1]) if a != b]
    ok = not differing
    detail = (
        "byte-identical epoch, scan, pose, metrics and cloud files across reruns"
        if ok
        else f"files differ between reruns: {', '.join(differing)}"
    )
    _verdict(capfd, "A9", ok, detail)
