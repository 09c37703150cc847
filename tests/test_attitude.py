from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgp import (
    AttitudeSolution,
    Baselines,
    DegenerateGeometryError,
    InsufficientDataError,
    UnitQuaternion,
    ValidationError,
    Vec3,
    VectorObservation,
    baseline_weights,
    davenport_matrix,
    estimate_attitude,
    euler_to_quat,
    hexagon_layout,
    quat_angle,
    quat_multiply,
    quat_to_matrix,
    rotate,
    solve_max_eigenpair,
    wahba_svd,
)

from conftest import baselines_of

LAYOUT = hexagon_layout(0.9)
ADJACENT_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]


def _truth_obs(
    q: UnitQuaternion,
    pairs: list[tuple[int, int]],
    noise_sd: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[VectorObservation]:
    out = []
    for i, j in pairs:
        w = LAYOUT.baseline(i, j)
        v = rotate(q, w).as_array()
        if noise_sd > 0.0 and rng is not None:
            v = v + rng.normal(scale=noise_sd, size=3)
        out.append(VectorObservation(v=Vec3.from_array(v), w=w, antenna_pair=(i, j)))
    return out


# -- observations and weights ----------------------------------------------


def test_observation_validation() -> None:
    with pytest.raises(ValidationError):
        VectorObservation(v=Vec3(0.0, 0.0, 0.0), w=Vec3(1.0, 0.0, 0.0), antenna_pair=(1, 2))
    with pytest.raises(ValidationError):
        VectorObservation(v=Vec3(1.0, 0.0, 0.0), w=Vec3(1.0, 0.0, 0.0), antenna_pair=(2, 2))


def test_baseline_weights_proportional_to_length() -> None:
    obs = [
        VectorObservation(v=Vec3(1.0, 0.0, 0.0), w=Vec3(1.0, 0.0, 0.0), antenna_pair=(1, 2)),
        VectorObservation(v=Vec3(0.0, 2.0, 0.0), w=Vec3(0.0, 2.0, 0.0), antenna_pair=(1, 3)),
        VectorObservation(v=Vec3(0.0, 0.0, 1.0), w=Vec3(0.0, 0.0, 1.0), antenna_pair=(1, 4)),
    ]
    assert baseline_weights(obs) == pytest.approx([0.25, 0.5, 0.25], abs=0.0)
    assert sum(baseline_weights(obs)) == pytest.approx(1.0, abs=1e-15)


def test_baseline_weights_empty() -> None:
    with pytest.raises(InsufficientDataError):
        baseline_weights([])


# -- Davenport gain matrix ---------------------------------------------------


def test_davenport_matrix_identity_case() -> None:
    # all directions along +x in both frames: B = diag(1,0,0), so
    # K = diag(1,-1,-1,1) and any yawless quaternion about x is optimal.
    obs = [
        VectorObservation(v=Vec3(1.0, 0.0, 0.0), w=Vec3(1.0, 0.0, 0.0), antenna_pair=(1, 2)),
        VectorObservation(v=Vec3(2.0, 0.0, 0.0), w=Vec3(2.0, 0.0, 0.0), antenna_pair=(2, 3)),
    ]
    k = davenport_matrix(obs, [0.5, 0.5])
    assert np.allclose(k, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)


def test_davenport_matrix_validation() -> None:
    obs = _truth_obs(UnitQuaternion.identity(), [(1, 2)])
    with pytest.raises(InsufficientDataError):
        davenport_matrix(obs, [1.0])
    obs2 = _truth_obs(UnitQuaternion.identity(), [(1, 2), (2, 3)])
    with pytest.raises(ValidationError):
        davenport_matrix(obs2, [1.0])


def test_gain_identity_for_arbitrary_quaternions() -> None:
    # q^T K q equals the weighted alignment gain for every unit quaternion,
    # not just the optimum.
    rng = np.random.default_rng(31)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _truth_obs(q_true, [(1, 2), (1, 3), (2, 5), (3, 6)], noise_sd=0.01, rng=rng)
    weights = baseline_weights(obs)
    k = davenport_matrix(obs, weights)
    for _ in range(25):
        q = UnitQuaternion.from_array(rng.normal(size=4), canonicalize=False)
        lhs = float(q.as_array() @ k @ q.as_array())
        r = quat_to_matrix(q)
        rhs = 0.0
        for o, a in zip(obs, weights):
            v_hat = o.v.as_array() / o.v.norm()
            w_hat = o.w.as_array() / o.w.norm()
            rhs += a * float(w_hat @ (r @ v_hat))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- eigensolver --------------------------------------------------------------


def test_solve_max_eigenpair_returns_dominant_eigenpair() -> None:
    rng = np.random.default_rng(37)
    for _ in range(200):
        a = rng.normal(size=(4, 4))
        k = (a + a.T) / 2.0
        want = float(np.linalg.eigh(k)[0][-1])
        lam, q = solve_max_eigenpair(k)
        assert lam == pytest.approx(want, abs=1e-10)
        # eigenvector check: K q = lam q
        assert np.allclose(k @ q.as_array(), lam * q.as_array(), atol=1e-9)


def test_solve_max_eigenpair_validation() -> None:
    with pytest.raises(ValidationError):
        solve_max_eigenpair(np.eye(3))
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError):
        solve_max_eigenpair(bad)


def test_solve_max_eigenpair_degenerate_tie() -> None:
    with pytest.raises(DegenerateGeometryError):
        solve_max_eigenpair(np.diag([2.0, 2.0, 1.0, 0.0]))


# -- attitude estimation -------------------------------------------------------


def test_exact_recovery_from_noise_free_baselines() -> None:
    rng = np.random.default_rng(41)
    for _ in range(100):
        q_true = UnitQuaternion.from_array(rng.normal(size=4))
        sol = estimate_attitude(baselines_of(_truth_obs(q_true, ADJACENT_PAIRS)))
        assert sol.available
        assert quat_angle(sol.q, q_true) < 1e-9
        assert sol.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert sol.weights_sum == pytest.approx(1.0, abs=1e-12)
        assert sol.used_observations == tuple(ADJACENT_PAIRS)


def test_estimated_quaternion_maps_body_to_enu() -> None:
    q_true = euler_to_quat(2.0, -3.0, 47.0)
    sol = estimate_attitude(baselines_of(_truth_obs(q_true, ADJACENT_PAIRS)))
    w = LAYOUT.baseline(1, 4)
    assert np.allclose(rotate(sol.q, w).as_array(), rotate(q_true, w).as_array(), atol=1e-12)


def test_gain_never_exceeds_weight_sum() -> None:
    rng = np.random.default_rng(43)
    for _ in range(50):
        q_true = UnitQuaternion.from_array(rng.normal(size=4))
        obs = _truth_obs(q_true, ADJACENT_PAIRS, noise_sd=0.05, rng=rng)
        sol = estimate_attitude(baselines_of(obs))
        assert sol.lambda_max <= sol.weights_sum + 1e-12
        assert sol.lambda_max < sol.weights_sum  # noise strictly reduces the gain


def test_agrees_with_svd_oracle_under_noise() -> None:
    # Both routes solve the same weighted Wahba problem, so they must agree
    # to numerical precision even on noisy data.
    rng = np.random.default_rng(47)
    for _ in range(50):
        q_true = UnitQuaternion.from_array(rng.normal(size=4))
        obs = _truth_obs(q_true, ADJACENT_PAIRS, noise_sd=0.03, rng=rng)
        rows = baselines_of(obs)
        sol = estimate_attitude(rows)
        q_ref = wahba_svd(rows, baseline_weights(rows))
        assert quat_angle(sol.q, q_ref) < 1e-6


def test_rotation_equivariance() -> None:
    rng = np.random.default_rng(53)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _truth_obs(q_true, ADJACENT_PAIRS, noise_sd=0.02, rng=rng)
    base = estimate_attitude(baselines_of(obs)).q

    extra = euler_to_quat(0.0, 0.0, 30.0)
    rotated = [
        VectorObservation(v=rotate(extra, o.v), w=o.w, antenna_pair=o.antenna_pair) for o in obs
    ]
    got = estimate_attitude(baselines_of(rotated)).q
    assert quat_angle(got, quat_multiply(extra, base)) < 1e-9


def test_baseline_scale_does_not_change_solution() -> None:
    # doubling every baseline leaves directions and relative weights alone
    rng = np.random.default_rng(59)
    q_true = UnitQuaternion.from_array(rng.normal(size=4))
    obs = _truth_obs(q_true, ADJACENT_PAIRS, noise_sd=0.02, rng=rng)
    scaled = [
        VectorObservation(
            v=Vec3.from_array(2.0 * o.v.as_array()),
            w=Vec3.from_array(2.0 * o.w.as_array()),
            antenna_pair=o.antenna_pair,
        )
        for o in obs
    ]
    got = estimate_attitude(baselines_of(scaled)).q
    assert quat_angle(estimate_attitude(baselines_of(obs)).q, got) < 1e-12


def test_non_fixed_observations_are_excluded() -> None:
    q_true = euler_to_quat(1.0, 2.0, 3.0)
    obs = _truth_obs(q_true, ADJACENT_PAIRS)
    junk = VectorObservation(v=Vec3(5.0, -5.0, 5.0), w=LAYOUT.baseline(1, 4), antenna_pair=(1, 4), fixed=False)
    sol = estimate_attitude(baselines_of(obs + [junk]))
    assert quat_angle(sol.q, q_true) < 1e-9
    assert (1, 4) not in sol.used_observations


def test_checked_refuses_a_fixed_mask_that_is_not_bool() -> None:
    """An integer ``fixed`` array would select rows by index, one row twice
    and a non-fixed one among them: ``Baselines.checked`` refuses it, so
    ``estimate_attitude`` never solves on it."""
    obs = baselines_of(_truth_obs(euler_to_quat(1.0, 2.0, 3.0), [(1, 2), (2, 3), (1, 3)]))
    with pytest.raises(ValidationError, match="^baseline fixed flags must be bool, not int64$"):
        Baselines.checked(obs.pairs, obs.v, obs.w, np.array([1, 0, 1]))


def test_insufficient_fixed_observations() -> None:
    q_true = UnitQuaternion.identity()
    one = _truth_obs(q_true, [(1, 2)])
    with pytest.raises(InsufficientDataError):
        estimate_attitude(baselines_of(one))
    two = _truth_obs(q_true, [(1, 2), (2, 3)])
    demoted = [VectorObservation(v=o.v, w=o.w, antenna_pair=o.antenna_pair, fixed=False) for o in two]
    with pytest.raises(InsufficientDataError):
        estimate_attitude(baselines_of(demoted + one))


def test_collinear_baselines_are_degenerate() -> None:
    # parallel baselines 1-2 and 2-1 leave roll about that axis free
    q_true = euler_to_quat(0.0, 0.0, 10.0)
    obs = _truth_obs(q_true, [(1, 2), (2, 1)])
    with pytest.raises(DegenerateGeometryError):
        estimate_attitude(baselines_of(obs))


def test_attitude_solution_validation() -> None:
    with pytest.raises(ValidationError):
        AttitudeSolution(available=True, q=None)
    with pytest.raises(ValidationError):
        AttitudeSolution(available=False, q=UnitQuaternion.identity())
    with pytest.raises(ValidationError):
        AttitudeSolution(
            available=True, q=UnitQuaternion.identity(), lambda_max=1.5, weights_sum=1.0
        )


@settings(max_examples=50, deadline=None)
@given(
    roll=st.floats(-180.0, 180.0),
    pitch=st.floats(-89.0, 89.0),
    yaw=st.floats(-180.0, 180.0),
)
def test_recovery_property_over_rotations(roll: float, pitch: float, yaw: float) -> None:
    q_true = euler_to_quat(roll, pitch, yaw)
    sol = estimate_attitude(baselines_of(_truth_obs(q_true, ADJACENT_PAIRS)))
    assert quat_angle(sol.q, q_true) < 1e-9
