"""Differential test: batched ``ransac_attitude`` against a scalar pair loop.

``_scalar_ransac`` below is a test-only reference that visits every fixed
baseline pair in ``(i, j)`` order and solves and scores one hypothesis at a
time, with a cyclic Jacobi eigensolver and a Jacobi-based inlier refit. The
batched implementation must reproduce its hypothesis count, inlier set
and availability exactly, and its attitude to 1e-12 rad.
``_eigh_pair_hypotheses`` keeps the stacked per-pair ``eigh`` solve that the
closed-form pair hypotheses replaced, as the reference for their rotations
and eigen gaps.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mgp import (
    AttitudeSolution,
    Baselines,
    DegenerateGeometryError,
    InsufficientDataError,
    PipelineConfig,
    RansacParams,
    RobustAttitudeResult,
    UnitQuaternion,
    Vec3,
    VectorObservation,
    baseline_weights,
    bundled_scenario_path,
    davenport_matrix,
    hexagon_layout,
    load_scenario,
    process_epoch,
    quat_angle,
    quat_to_matrix,
    ransac_attitude,
    rotate,
    run,
    simulate,
)
import mgp.pipeline
from mgp.attitude import EIGEN_GAP_TOL, _davenport_k
from mgp.epochs import offsets
from mgp.robust import MIN_PAIR_ANGLE_DEG, _pair_gap, _pair_quaternions, consensus
from scalar_epochs import epoch_blocks, epochs_of

from conftest import baselines_of

LAYOUT = hexagon_layout(0.9)
_JACOBI_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _jacobi_eigh4(rows: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    a = [list(map(float, row)) for row in rows]
    v = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    scale = max(1.0, max(abs(a[i][j]) for i in range(4) for j in range(4)))
    stop = (1e-15 * scale) ** 2
    for _ in range(50):
        off = 0.0
        for p, q in _JACOBI_PAIRS:
            off += a[p][q] * a[p][q]
        if off <= stop:
            break
        for p, q in _JACOBI_PAIRS:
            apq = a[p][q]
            if apq == 0.0:
                continue
            theta = 0.5 * (a[q][q] - a[p][p]) / apq
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            app = a[p][p]
            aqq = a[q][q]
            a[p][p] = app - t * apq
            a[q][q] = aqq + t * apq
            a[p][q] = 0.0
            a[q][p] = 0.0
            for r in range(4):
                if r == p or r == q:
                    continue
                arp = a[r][p]
                arq = a[r][q]
                a[r][p] = arp - s * (arq + tau * arp)
                a[p][r] = a[r][p]
                a[r][q] = arq + s * (arp - tau * arq)
                a[q][r] = a[r][q]
            for r in range(4):
                vrp = v[r][p]
                vrq = v[r][q]
                v[r][p] = vrp - s * (vrq + tau * vrp)
                v[r][q] = vrq + s * (vrp - tau * vrq)
    return [a[0][0], a[1][1], a[2][2], a[3][3]], v


def _max_eigenpair_raw(rows: list[list[float]]) -> tuple[float, tuple[float, ...]]:
    vals, vecs = _jacobi_eigh4(rows)
    order = sorted(range(4), key=lambda i: vals[i], reverse=True)
    top = order[0]
    gap = vals[top] - vals[order[1]]
    if gap < EIGEN_GAP_TOL:
        raise DegenerateGeometryError(f"degenerate gap {gap:.3e}")
    return vals[top], (vecs[0][top], vecs[1][top], vecs[2][top], vecs[3][top])


def _davenport_k2(v0, w0, a0, v1, w1, a1) -> list[list[float]]:
    b = [[a0 * w0[r] * v0[c] + a1 * w1[r] * v1[c] for c in range(3)] for r in range(3)]
    tr = b[0][0] + b[1][1] + b[2][2]
    z0 = b[2][1] - b[1][2]
    z1 = b[0][2] - b[2][0]
    z2 = b[1][0] - b[0][1]
    return [
        [2.0 * b[0][0] - tr, b[0][1] + b[1][0], b[0][2] + b[2][0], z0],
        [b[0][1] + b[1][0], 2.0 * b[1][1] - tr, b[1][2] + b[2][1], z1],
        [b[0][2] + b[2][0], b[1][2] + b[2][1], 2.0 * b[2][2] - tr, z2],
        [z0, z1, z2, tr],
    ]


def _rot_be_from_raw(q: tuple[float, ...]) -> np.ndarray:
    x, y, z, w = q
    n = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / n, y / n, z / n, w / n
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)],
            [2.0 * (x * y - w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z + w * x)],
            [2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def _jacobi_refit(inlier_obs: list[VectorObservation]) -> AttitudeSolution:
    weights = baseline_weights(inlier_obs)
    k = davenport_matrix(inlier_obs, weights)
    lam, q_be = _max_eigenpair_raw(k.tolist())
    return AttitudeSolution(
        available=True,
        q=UnitQuaternion.from_array(np.array((-q_be[0], -q_be[1], -q_be[2], q_be[3]))),
        lambda_max=lam,
        weights_sum=sum(weights),
        used_observations=tuple(o.antenna_pair for o in inlier_obs),
    )


def _scalar_ransac(observations: list[VectorObservation], params: RansacParams):
    """The scalar consensus loop: one pair, one 4x4 solve, one scoring at a time."""
    candidates = [o for o in observations if o.fixed]
    m = len(candidates)
    if m < 2:
        raise InsufficientDataError("RANSAC needs at least 2 fixed baseline observations")
    vs = np.array([o.v.as_array() for o in candidates])
    ws = np.array([o.w.as_array() for o in candidates])
    vs_hat = vs / np.linalg.norm(vs, axis=1)[:, None]
    w_len = np.linalg.norm(ws, axis=1)
    ws_hat = ws / w_len[:, None]
    vs_t = [tuple(map(float, row)) for row in vs_hat]
    ws_t = [tuple(map(float, row)) for row in ws_hat]
    wl_t = [float(x) for x in w_len]
    min_cross = math.sin(math.radians(MIN_PAIR_ANGLE_DEG))

    best = None
    hypotheses = 0
    for i, j in itertools.combinations(range(m), 2):
        wi, wj = ws_t[i], ws_t[j]
        cx = wi[1] * wj[2] - wi[2] * wj[1]
        cy = wi[2] * wj[0] - wi[0] * wj[2]
        cz = wi[0] * wj[1] - wi[1] * wj[0]
        if math.sqrt(cx * cx + cy * cy + cz * cz) < min_cross:
            continue
        a0 = wl_t[i] / (wl_t[i] + wl_t[j])
        k4 = _davenport_k2(vs_t[i], ws_t[i], a0, vs_t[j], ws_t[j], 1.0 - a0)
        try:
            _, q_raw = _max_eigenpair_raw(k4)
        except DegenerateGeometryError:
            continue
        hypotheses += 1
        res = np.linalg.norm(vs - ws @ _rot_be_from_raw(q_raw).T, axis=1)
        mask = res <= params.inlier_threshold_m
        count, sres = int(mask.sum()), float(res[mask].sum())
        if best is None or count > best[0] or (count == best[0] and sres < best[1]):
            best = (count, sres, mask)

    if best is None:
        raise DegenerateGeometryError("no baseline pair with an observable rotation")
    count, _, mask = best
    if count >= params.min_inliers:
        inlier_obs = [candidates[i] for i in range(m) if mask[i]]
        solution = _jacobi_refit(inlier_obs)
        inliers = frozenset(o.antenna_pair for o in inlier_obs)
    else:
        solution = AttitudeSolution.unavailable()
        inliers = frozenset()
    return solution, inliers, hypotheses


def _outcome(fn, obs, params):
    try:
        return fn(obs, params)
    except (DegenerateGeometryError, InsufficientDataError) as exc:
        return type(exc)


def _assert_same(obs: list[VectorObservation], params: RansacParams) -> None:
    want = _outcome(_scalar_ransac, obs, params)
    got = _outcome(ransac_attitude, baselines_of(obs), params)
    if isinstance(want, type):
        assert got is want
        return
    solution, inliers, hypotheses = want
    assert not isinstance(got, type), got
    assert got.iterations_used == hypotheses
    assert got.inlier_pairs == inliers
    assert got.solution.available == solution.available
    if solution.available:
        assert quat_angle(got.solution.q, solution.q) < 1e-12
        assert got.solution.lambda_max == pytest.approx(solution.lambda_max, abs=1e-12)
        assert got.solution.used_observations == solution.used_observations


def _random_epoch(rng: np.random.Generator) -> list[VectorObservation]:
    """m in 2..15 baselines of a jittered hexagon under a random attitude.

    The jitter turns the hexagon's parallel baselines into near-collinear
    pairs on either side of the MIN_PAIR_ANGLE_DEG screen.
    """
    jitter = rng.uniform(0.0, 0.08)
    pos = LAYOUT.body_positions
    ants = [p.as_array() + rng.normal(scale=jitter, size=3) for p in pos]
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    m = int(rng.integers(2, 16))
    chosen = [pairs[int(k)] for k in rng.choice(len(pairs), size=m, replace=False)]
    q = UnitQuaternion.from_array(rng.normal(size=4))
    noise = rng.choice([0.0, 0.002, 0.005, 0.01])
    p_wrong = rng.uniform(0.0, 0.4)
    p_float = rng.uniform(0.0, 0.2)
    out = []
    for i, j in chosen:
        w = Vec3.from_array(ants[j - 1] - ants[i - 1])
        v = rotate(q, w).as_array() + rng.normal(scale=noise, size=3)
        if rng.random() < p_wrong:
            d = rng.normal(size=3)
            v = v + rng.uniform(0.1, 0.6) * d / np.linalg.norm(d)
        fixed = bool(rng.random() >= p_float)
        out.append(VectorObservation(v=Vec3.from_array(v), w=w, antenna_pair=(i, j), fixed=fixed))
    return out


def _ragged_block(rng: np.random.Generator, n: int = 80) -> list[list[VectorObservation]]:
    """Epochs of 2 to 15 fixed baselines, widths mixed at random. About a
    quarter have all body baselines along one axis, so that no pair passes
    the angle screen, and a quarter all measured baselines along one axis,
    so that no pair has an observable rotation."""
    epochs = []
    for _ in range(n):
        obs = [dataclasses.replace(o, fixed=True) for o in _random_epoch(rng)]
        kind = rng.integers(4)
        if kind == 0:
            obs = [dataclasses.replace(o, w=Vec3(o.w.norm(), 0.0, 0.0)) for o in obs]
        elif kind == 1:
            obs = [
                dataclasses.replace(o, v=Vec3(1.0 + 0.1 * j, 0.0, 0.0)) for j, o in enumerate(obs)
            ]
        epochs.append(obs)
    return epochs


def test_ragged_block_matches_scalar_path() -> None:
    """A block of epochs of mixed widths, some with no pair to score, is
    solved as each epoch alone (bitwise), and each epoch alone as the
    scalar loop solves it."""
    rng = np.random.default_rng(2024)
    epochs = _ragged_block(rng)
    params = RansacParams(inlier_threshold_m=0.05, min_inliers=3)
    block = consensus(
        Baselines.joined([baselines_of(obs) for obs in epochs]), offsets(map(len, epochs)), params
    )
    assert (block.hypotheses == 0).sum() >= 20 and block.refitted.sum() >= 20
    for k, obs in enumerate(epochs):
        _assert_same(obs, params)
        one = consensus(baselines_of(obs), [0, len(obs)], params)
        assert one.hypotheses[0] == block.hypotheses[k]
        assert np.array_equal(one.inliers[0], block.inliers[k, : len(obs)])
        assert not block.inliers[k, len(obs):].any()
        for name in ("refitted", "lam", "q_be", "gap", "weights_sum"):
            assert np.array_equal(getattr(one, name)[0], getattr(block, name)[k], equal_nan=True)


@pytest.mark.parametrize("block", range(6))
def test_batched_matches_scalar_on_random_epochs(block: int) -> None:
    rng = np.random.default_rng(1000 + block)
    for _ in range(50):
        obs = _random_epoch(rng)
        params = RansacParams(
            inlier_threshold_m=float(rng.choice([0.02, 0.05, 0.1])),
            min_inliers=int(rng.integers(2, 6)),
        )
        _assert_same(obs, params)


def test_exact_tie_goes_to_the_first_seen_pair() -> None:
    # Two disjoint consensus sets of equal size, each fitted exactly (zero
    # residual sum) by its own rotation: identity and a half turn about up.
    # Listed either way round, the set holding the lowest (i, j) pair wins.
    ws = [LAYOUT.baseline(1, 2), LAYOUT.baseline(1, 3), LAYOUT.baseline(1, 5)]
    ident = [VectorObservation(v=w, w=w, antenna_pair=(1, k + 2)) for k, w in enumerate(ws)]
    flipped = [
        VectorObservation(v=Vec3(-w.x, -w.y, w.z), w=w, antenna_pair=(2, k + 3))
        for k, w in enumerate(ws)
    ]
    params = RansacParams(min_inliers=3)
    for first, second in ((ident, flipped), (flipped, ident)):
        obs = first + second
        _assert_same(obs, params)
        for _ in range(5):
            res = ransac_attitude(baselines_of(obs), params)
            assert res.inlier_pairs == frozenset(o.antenna_pair for o in first)


def _collinear_v_obs(extra: tuple[VectorObservation, ...] = ()) -> list[VectorObservation]:
    # Two well-separated body baselines measured along one ENU direction: the
    # pair passes the angle screen but its rotation about that direction is
    # unobservable, so the eigen gap is degenerate.
    obs = [
        VectorObservation(v=Vec3(1.0, 0.0, 0.0), w=Vec3(1.0, 0.0, 0.0), antenna_pair=(1, 2)),
        VectorObservation(v=Vec3(2.0, 0.0, 0.0), w=Vec3(0.0, 1.0, 0.0), antenna_pair=(1, 3)),
    ]
    return obs + list(extra)


def test_degenerate_gap_pair_is_never_scored() -> None:
    # Only the degenerate pair: nothing is scored, so every call raises.
    obs = _collinear_v_obs()
    for params in (RansacParams(), RansacParams(min_inliers=2)):
        for _ in range(5):
            with pytest.raises(DegenerateGeometryError):
                ransac_attitude(baselines_of(obs), params)
        _assert_same(obs, params)


def test_degenerate_gap_pair_loses_to_any_solved_pair() -> None:
    # With good pairs present: every call returns the good rotation, and the
    # degenerate pair is not counted as a hypothesis.
    q = UnitQuaternion.from_array([0.1, -0.2, 0.3, 0.9])
    ws = [Vec3(0.0, 0.0, 1.0), Vec3(1.0, 1.0, 0.0), Vec3(-1.0, 0.5, 0.2)]
    good = [
        VectorObservation(v=rotate(q, w), w=w, antenna_pair=(2, k + 4))
        for k, w in enumerate(ws)
    ]
    obs = _collinear_v_obs(tuple(good))
    params = RansacParams(min_inliers=3)
    for _ in range(5):
        res = ransac_attitude(baselines_of(obs), params)
        assert res.iterations_used == 9
        assert res.solution.available
        assert quat_angle(res.solution.q, q) < 1e-9
        assert res.inlier_pairs == frozenset(o.antenna_pair for o in good)
    _assert_same(obs, params)


@pytest.mark.parametrize(
    "scenario, subset", [("multipath", None), ("fixrate", None), ("fixrate", (1, 3, 5))]
)
def test_bundled_scenario_poses_match_scalar_path(monkeypatch, scenario, subset) -> None:
    """``run`` (block consensus) against a per-epoch ``process_epoch`` loop
    whose consensus is the scalar pair loop, called once per epoch that
    reaches consensus."""
    cfg = load_scenario(bundled_scenario_path(scenario))
    epochs = epochs_of(simulate(dataclasses.replace(cfg, duration_s=15.0)))
    config = PipelineConfig(antenna_subset=subset)
    batched = run(epoch_blocks(epochs), config)

    calls = []

    def scalar(observations, params):
        calls.append(len(observations))
        solution, inliers, hypotheses = _scalar_ransac(list(observations), params)
        return RobustAttitudeResult(solution, inliers, hypotheses)

    monkeypatch.setattr(mgp.pipeline, "ransac_attitude", scalar)
    reference = [process_epoch(epoch, config) for epoch in epochs]
    min_inliers = mgp.pipeline._consensus_params(config).min_inliers
    fronts = (mgp.pipeline._FrontBlock(e, config) for e in epochs)
    reaching = [len(front.candidates) for front in fronts if len(front.candidates) >= min_inliers]
    assert calls == reaching and len(calls) > 100

    assert batched.metrics.epochs == len(reference) == 150
    available = sum(r.attitude.available for r in reference)
    assert batched.metrics.attitude_availability_pct == 100.0 * available / 150
    poses = batched.poses
    for k, want in enumerate(reference):
        n_fix = int(np.count_nonzero(want.fixes_used.fixed))
        assert (poses.t[k], poses.n_fix[k]) == (want.t, n_fix)
        assert (not np.isnan(poses.q[k, 0])) == want.attitude.available
        assert (not np.isnan(poses.p[k, 0])) == want.position.available
        if want.attitude.available:
            assert quat_angle(UnitQuaternion(*poses.q[k].tolist()), want.attitude.q) < 1e-12
        if want.position.available:
            assert np.linalg.norm(poses.p[k] - want.position.p.as_array()) < 1e-12


def _eigh_pair_hypotheses(b1, b2, r1, r2, a1) -> tuple[np.ndarray, np.ndarray]:
    """The stacked eigen solve the closed form replaced: one Davenport matrix
    per pair of unit measurements b of unit references r, weights a1 and
    1 - a1, through ``eigh``. Returns the raw ENU->body eigenvectors and gaps."""
    a = a1[:, None, None]
    b = a * r1[:, :, None] * b1[:, None, :] + (1.0 - a) * r2[:, :, None] * b2[:, None, :]
    vals, vecs = np.linalg.eigh(_davenport_k(b))
    return vecs[..., 3], vals[..., 3] - vals[..., 2]


def _closed_form(b1, b2, r1, r2, a1) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form pair solve on (P, 3) rows: raw ENU->body quaternions
    (P, 4), NaN where the gap is degenerate, and the gaps."""
    b1, b2, r1, r2 = b1.T, b2.T, r1.T, r2.T
    bx, rx = np.cross(b1, b2, axis=0), np.cross(r1, r2, axis=0)
    b_sin, r_sin = np.linalg.norm(bx, axis=0), np.linalg.norm(rx, axis=0)
    gap = _pair_gap(b1, b2, b_sin, (r1 * r2).sum(axis=0), r_sin, a1, 1.0 - a1)
    ok = gap >= EIGEN_GAP_TOL
    q = np.full((len(a1), 4), np.nan)
    q[ok] = _pair_quaternions(
        b1[:, ok], b2[:, ok], bx[:, ok] / b_sin[ok], r1[:, ok], r2[:, ok], rx[:, ok] / r_sin[ok],
        a1[ok], 1.0 - a1[ok],
    ).T
    return q, gap


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Rotation angle between raw quaternions, sign and scale free."""
    qa, qb = _unit(qa), _unit(qb)
    chord = np.minimum(np.linalg.norm(qa - qb, axis=1), np.linalg.norm(qa + qb, axis=1))
    return 4.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))


def _random_pairs(rng: np.random.Generator, n: int, body_deg: tuple[float, float]):
    """Body pairs at an angle drawn from ``body_deg``, measured under a
    random rotation with 5 mm noise on baselines of 0.5-2 m."""
    r1 = _unit(rng.normal(size=(n, 3)))
    side = _unit(np.cross(r1, rng.normal(size=(n, 3))))
    ang = np.radians(rng.uniform(*body_deg, size=n))[:, None]
    r2 = np.cos(ang) * r1 + np.sin(ang) * side
    l1, l2 = rng.uniform(0.5, 2.0, size=(2, n))
    rot = np.array([quat_to_matrix(UnitQuaternion.from_array(q)) for q in rng.normal(size=(n, 4))])
    b1 = _unit(np.einsum("nij,nj->ni", rot, r1 * l1[:, None]) + rng.normal(scale=0.005, size=(n, 3)))
    b2 = _unit(np.einsum("nij,nj->ni", rot, r2 * l2[:, None]) + rng.normal(scale=0.005, size=(n, 3)))
    return b1, b2, r1, r2, l1 / (l1 + l2)


@pytest.mark.parametrize(
    "body_deg", [(20.0, 160.0), (MIN_PAIR_ANGLE_DEG, 6.0), (174.0, 180.0 - MIN_PAIR_ANGLE_DEG)],
    ids=["wide", "near-collinear", "near-antiparallel"],
)
def test_closed_form_pairs_match_eigh(body_deg) -> None:
    rng = np.random.default_rng(int(body_deg[0]))
    b1, b2, r1, r2, a1 = _random_pairs(rng, 4000, body_deg)
    q, gap = _closed_form(b1, b2, r1, r2, a1)
    q_ref, gap_ref = _eigh_pair_hypotheses(b1, b2, r1, r2, a1)
    assert np.abs(gap - gap_ref).max() < 1e-13
    assert ((gap >= EIGEN_GAP_TOL) == (gap_ref >= EIGEN_GAP_TOL)).all()
    assert _angles(q, q_ref).max() < 1e-12
    # both of Markley's branches and the half-turn of the references ran
    normals = (_unit(np.cross(b1, b2)) * _unit(np.cross(r1, r2))).sum(axis=1)
    assert (normals < 0.0).sum() > 1000 and (normals > 0.0).sum() > 1000


def test_closed_form_exact_half_turns(monkeypatch) -> None:
    # Half turns about the ENU x, y and z axes of noise-free hexagon
    # baselines: the normals point exactly apart (b3 = -r3) for the first
    # two, where the unturned closed form divides zero by zero.
    ws = np.array([LAYOUT.baseline(1, 2).as_array(), LAYOUT.baseline(1, 3).as_array()])
    r1, r2 = _unit(ws)
    # consensus builds each hypothesis rotation as the transpose of
    # quat_to_matrix of the pair's normalized quaternion: record those
    built: list[np.ndarray] = []

    def record(q: np.ndarray) -> np.ndarray:
        built.append(quat_to_matrix(q))
        return built[-1]

    monkeypatch.setattr("mgp.robust.quat_to_matrix", record)
    for axis in np.eye(3):
        rot = quat_to_matrix(UnitQuaternion.from_array(np.append(axis, 0.0)))
        b1, b2 = _unit(ws @ rot.T)
        args = (b1[None], b2[None], r1[None], r2[None], np.array([0.5]))
        q, _ = _closed_form(*args)
        q_ref, _ = _eigh_pair_hypotheses(*args)
        assert _angles(q, q_ref)[0] < 1e-12
        pair = Baselines.checked(np.array([[1, 2], [1, 3]]), ws @ rot.T, ws, np.ones(2, bool))
        found = consensus(pair, [0, 2], RansacParams(min_inliers=2))
        assert found.hypotheses.tolist() == [1] and found.inliers.all()
        assert np.allclose(built.pop()[0].T, rot, atol=1e-15)


def test_closed_form_gap_verdicts_on_degenerate_pairs() -> None:
    # The degenerate-gap cases above: measured baselines along one ENU
    # direction behind well-separated body baselines, and the same with a
    # tiny tilt that eigh already resolves.
    for tilt, degenerate in ((0.0, True), (1e-6, False)):
        obs = _collinear_v_obs()
        v = np.array([o.v.as_array() for o in obs]) + np.array([[0.0, 0.0, 0.0], [0.0, tilt, 0.0]])
        w = np.array([o.w.as_array() for o in obs])
        b1, b2 = _unit(v)
        r1, r2 = _unit(w)
        a1 = np.linalg.norm(w[:1], axis=1) / np.linalg.norm(w, axis=1).sum()
        _, gap = _closed_form(b1[None], b2[None], r1[None], r2[None], a1)
        _, gap_ref = _eigh_pair_hypotheses(b1[None], b2[None], r1[None], r2[None], a1)
        assert bool(gap[0] < EIGEN_GAP_TOL) is bool(gap_ref[0] < EIGEN_GAP_TOL) is degenerate
