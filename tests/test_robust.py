from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mgp import (
    Baselines,
    DegenerateGeometryError,
    InsufficientDataError,
    RansacParams,
    UnitQuaternion,
    ValidationError,
    Vec3,
    VectorObservation,
    estimate_attitude,
    hexagon_layout,
    quat_angle,
    ransac_attitude,
    rotate,
)
from mgp.robust import consensus

from conftest import baselines_of

LAYOUT = hexagon_layout(0.9)
ALL_PAIRS = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]


def _obs(
    q: UnitQuaternion,
    pairs: list[tuple[int, int]],
    noise_sd: float,
    rng: np.random.Generator,
    corrupt: set[tuple[int, int]] = frozenset(),
    offset_m: float = 0.25,
) -> list[VectorObservation]:
    out = []
    for i, j in pairs:
        w = LAYOUT.baseline(i, j)
        v = rotate(q, w).as_array() + rng.normal(scale=noise_sd, size=3)
        if (i, j) in corrupt:
            d = rng.normal(size=3)
            v = v + offset_m * d / np.linalg.norm(d)
        out.append(VectorObservation(v=Vec3.from_array(v), w=w, antenna_pair=(i, j)))
    return out


def test_params_validation() -> None:
    with pytest.raises(ValidationError):
        RansacParams(inlier_threshold_m=0.0)
    with pytest.raises(ValidationError):
        RansacParams(min_inliers=1)


def test_baseline_residual_zero_and_known_offset() -> None:
    """Consensus scores a baseline by its full-length residual ``|v - R w|``:
    zero for the 14 exact baselines under the identity fit they force, and
    exactly the 0.19 m offset of the shifted one, which the threshold keeps
    at 0.19 and drops one ulp below."""
    obs = [
        VectorObservation(v=LAYOUT.baseline(*p), w=LAYOUT.baseline(*p), antenna_pair=p)
        for p in ALL_PAIRS[1:]
    ]
    w = LAYOUT.baseline(1, 2)
    obs.append(VectorObservation(v=w + Vec3(0.0, 0.0, 0.19), w=w, antenna_pair=(1, 2)))

    def inliers(threshold: float) -> frozenset[tuple[int, int]]:
        params = RansacParams(inlier_threshold_m=threshold)
        return ransac_attitude(baselines_of(obs), params).inlier_pairs

    assert inliers(1e-300) == frozenset(ALL_PAIRS[1:])
    assert inliers(0.19) == frozenset(ALL_PAIRS)
    assert inliers(math.nextafter(0.19, 0.0)) == frozenset(ALL_PAIRS[1:])


def test_clean_data_keeps_all_inliers_and_matches_plain_estimator() -> None:
    rng = np.random.default_rng(61)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _obs(q_true, ALL_PAIRS, noise_sd=0.004, rng=rng)
    res = ransac_attitude(baselines_of(obs), RansacParams())
    assert res.solution.available
    assert res.inlier_pairs == frozenset(ALL_PAIRS)
    # refit over the full consensus set is exactly the plain weighted solve
    plain = estimate_attitude(baselines_of(obs))
    assert np.array_equal(res.solution.q.as_array(), plain.q.as_array())
    assert res.solution.lambda_max == plain.lambda_max


def test_identifies_exact_corrupted_subset() -> None:
    rng = np.random.default_rng(67)
    hits = 0
    for trial in range(30):
        q_true = UnitQuaternion.from_array(rng.normal(size=4))
        idx = rng.choice(len(ALL_PAIRS), size=3, replace=False)
        corrupt = {ALL_PAIRS[int(k)] for k in idx}
        obs = _obs(q_true, ALL_PAIRS, noise_sd=0.004, rng=rng, corrupt=corrupt, offset_m=0.25)
        res = ransac_attitude(baselines_of(obs), RansacParams())
        assert frozenset(ALL_PAIRS) - res.inlier_pairs == frozenset(corrupt)
        assert quat_angle(res.solution.q, q_true) < math.radians(0.5)
        hits += 1
    assert hits == 30


def test_corrupted_baselines_would_bias_plain_estimator() -> None:
    # sanity check that the robust layer is actually load-bearing
    rng = np.random.default_rng(71)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    corrupt = {(1, 2), (3, 4), (5, 6)}
    obs = _obs(q_true, ALL_PAIRS, noise_sd=0.004, rng=rng, corrupt=corrupt, offset_m=0.4)
    plain_err = quat_angle(estimate_attitude(baselines_of(obs)).q, q_true)
    robust_err = quat_angle(ransac_attitude(baselines_of(obs), RansacParams()).solution.q, q_true)
    assert plain_err > 5.0 * robust_err


def test_deterministic_replay() -> None:
    rng = np.random.default_rng(73)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _obs(q_true, ALL_PAIRS, noise_sd=0.01, rng=rng, corrupt={(2, 5)})
    a = ransac_attitude(baselines_of(obs), RansacParams())
    b = ransac_attitude(baselines_of(obs), RansacParams())
    assert a.inlier_pairs == b.inlier_pairs
    assert a.iterations_used == b.iterations_used
    assert np.array_equal(a.solution.q.as_array(), b.solution.q.as_array())


def test_below_min_inliers_is_unavailable_not_wrong() -> None:
    # every baseline displaced differently: no 4-strong consensus exists
    rng = np.random.default_rng(79)
    q_true = UnitQuaternion.identity()
    pairs = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (2, 4)]
    obs = _obs(q_true, pairs, noise_sd=0.0, rng=rng, corrupt=set(pairs), offset_m=0.5)
    res = ransac_attitude(baselines_of(obs), RansacParams())
    assert not res.solution.available
    assert res.solution.q is None
    assert res.inlier_pairs == frozenset()


def test_threshold_boundary_is_inclusive() -> None:
    # 14 clean pairs force an exactly-identity winning fit; the 15th pair is
    # offset by exactly the threshold, so its residual computes to exactly
    # 0.05 and the inclusive comparison keeps it.
    obs = []
    for i, j in ALL_PAIRS:
        if (i, j) == (1, 2):
            continue
        w = LAYOUT.baseline(i, j)
        obs.append(VectorObservation(v=w, w=w, antenna_pair=(i, j)))
    w = LAYOUT.baseline(1, 2)
    v = Vec3.from_array(w.as_array() + np.array([0.0, 0.0, 0.05]))
    obs.append(VectorObservation(v=v, w=w, antenna_pair=(1, 2)))

    res = ransac_attitude(baselines_of(obs), RansacParams(inlier_threshold_m=0.05))
    assert (1, 2) in res.inlier_pairs
    assert len(res.inlier_pairs) == 15
    # one ulp below the residual flips it to an outlier
    below = RansacParams(inlier_threshold_m=math.nextafter(0.05, 0.0))
    res2 = ransac_attitude(baselines_of(obs), below)
    assert (1, 2) not in res2.inlier_pairs
    assert len(res2.inlier_pairs) == 14


def test_non_fixed_observations_never_enter_consensus() -> None:
    rng = np.random.default_rng(83)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _obs(q_true, ALL_PAIRS[:8], noise_sd=0.003, rng=rng)
    # a perfect measurement marked non-fixed still must not be used
    w = LAYOUT.baseline(4, 6)
    floaty = VectorObservation(v=rotate(q_true, w), w=w, antenna_pair=(4, 6), fixed=False)
    res = ransac_attitude(baselines_of(obs + [floaty]), RansacParams())
    assert (4, 6) not in res.inlier_pairs
    assert (4, 6) not in res.solution.used_observations


def test_insufficient_fixed_observations() -> None:
    q = UnitQuaternion.identity()
    w = LAYOUT.baseline(1, 2)
    one = VectorObservation(v=w, w=w, antenna_pair=(1, 2))
    with pytest.raises(InsufficientDataError):
        ransac_attitude(baselines_of([one]), RansacParams())
    w2 = LAYOUT.baseline(2, 3)
    soft = VectorObservation(v=rotate(q, w2), w=w2, antenna_pair=(2, 3), fixed=False)
    with pytest.raises(InsufficientDataError):
        ransac_attitude(baselines_of([one, soft]), RansacParams())


def test_block_of_no_epochs_is_an_empty_outcome() -> None:
    """A block of no epochs (``ends`` of one offset) gives an outcome of no
    epochs, with the field shapes of any other block."""
    none = Baselines.checked(
        np.zeros((0, 2), dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, bool)
    )
    found = consensus(none, [0], RansacParams())
    assert found.hypotheses.dtype == np.int64 and found.inliers.dtype == bool
    assert found.inliers.shape == (0, 0) and found.q_be.shape == (0, 4)
    for name in ("hypotheses", "refitted", "lam", "gap", "weights_sum"):
        assert getattr(found, name).shape == (0,)
    assert found.available.shape == (0,)


def test_all_collinear_pairs_exhaust_budget() -> None:
    # only antennas 1 and 4 fixed: the single body direction is degenerate
    w = LAYOUT.baseline(1, 4)
    obs = [
        VectorObservation(v=w, w=w, antenna_pair=(1, 4)),
        VectorObservation(
            v=Vec3.from_array(0.5 * w.as_array()),
            w=Vec3.from_array(0.5 * w.as_array()),
            antenna_pair=(1, 4),
        ),
    ]
    with pytest.raises(DegenerateGeometryError):
        ransac_attitude(baselines_of(obs), RansacParams())


def test_every_non_collinear_pair_is_scored() -> None:
    rng = np.random.default_rng(89)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _obs(q_true, ALL_PAIRS, noise_sd=0.005, rng=rng)
    res = ransac_attitude(baselines_of(obs), RansacParams())
    # The hexagon's 15 baselines fall into 3 parallel groups of 3 and 3 of 2,
    # so 3 * 3 + 3 * 1 = 12 of the 105 pairs are collinear.
    ws = {pair: LAYOUT.baseline(*pair).as_array() for pair in ALL_PAIRS}
    non_collinear = [
        (a, b)
        for a, b in itertools.combinations(ALL_PAIRS, 2)
        if np.linalg.norm(np.cross(ws[a], ws[b])) > 1e-9
    ]
    assert len(non_collinear) == 105 - 12
    assert res.iterations_used == len(non_collinear)
