from __future__ import annotations

import math

import numpy as np
import pytest

from mgp import (
    Baselines,
    DegenerateGeometryError,
    InsufficientDataError,
    UnitQuaternion,
    ValidationError,
    Vec3,
    VectorObservation,
    gain_scan,
    hexagon_layout,
    mapping_error_budget,
    quat_angle,
    rotate,
    solve_max_eigenpair,
    wahba_svd,
)

from conftest import baselines_of


def _obs_from_truth(q: UnitQuaternion, layout, pairs) -> Baselines:
    out = []
    for i, j in pairs:
        w = layout.baseline(i, j)
        out.append(VectorObservation(antenna_pair=(i, j), v=rotate(q, w), w=w, fixed=True))
    return baselines_of(out)


def test_wahba_recovers_exact_rotation() -> None:
    layout = hexagon_layout(0.9)
    rng = np.random.default_rng(5)
    pairs = [(1, 2), (1, 3), (2, 5), (4, 6)]
    for _ in range(50):
        q = UnitQuaternion.from_array(rng.normal(size=4))
        obs = _obs_from_truth(q, layout, pairs)
        q_hat = wahba_svd(obs, [1.0] * len(obs))
        assert quat_angle(q, q_hat) < 1e-9


def test_wahba_skips_non_fixed_observations() -> None:
    layout = hexagon_layout(0.9)
    q = UnitQuaternion.from_array([0.1, 0.2, -0.3, 0.9])
    obs = _obs_from_truth(q, layout, [(1, 2), (2, 3), (3, 4)])
    # corrupt one observation but mark it non-fixed: result must be unaffected
    bad = VectorObservation(antenna_pair=(1, 5), v=Vec3(9.0, 9.0, 9.0), w=layout.baseline(1, 5), fixed=False)
    q_hat = wahba_svd(Baselines.joined([obs, baselines_of([bad])]), [1.0, 1.0, 1.0, 100.0])
    assert quat_angle(q, q_hat) < 1e-9


def test_wahba_requires_matching_weights() -> None:
    layout = hexagon_layout(0.9)
    obs = _obs_from_truth(UnitQuaternion.identity(), layout, [(1, 2), (2, 3)])
    with pytest.raises(ValidationError):
        wahba_svd(obs, [1.0])


def test_wahba_insufficient_observations() -> None:
    layout = hexagon_layout(0.9)
    obs = _obs_from_truth(UnitQuaternion.identity(), layout, [(1, 2)])
    with pytest.raises(InsufficientDataError):
        wahba_svd(obs, [1.0])


def test_wahba_degenerate_parallel_baselines() -> None:
    # two parallel baselines leave the rotation about their axis free
    w = Vec3(1.0, 0.0, 0.0)
    obs = baselines_of([
        VectorObservation(antenna_pair=(1, 2), v=w, w=w, fixed=True),
        VectorObservation(antenna_pair=(2, 3), v=Vec3(2.0, 0.0, 0.0), w=Vec3(2.0, 0.0, 0.0), fixed=True),
    ])
    with pytest.raises(DegenerateGeometryError):
        wahba_svd(obs, [1.0, 1.0])


def test_wahba_rejects_zero_length_vector() -> None:
    # built without Baselines.checked, which refuses a zero-length row
    obs = Baselines(
        np.array([[1, 2], [2, 3]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([True, True]),
    )
    with pytest.raises(ValidationError):
        wahba_svd(obs, [1.0, 1.0])


def test_wahba_rejects_a_fixed_mask_that_is_not_bool() -> None:
    # an integer mask would index rows, repeating some and using unfixed ones
    obs = _obs_from_truth(UnitQuaternion.identity(), hexagon_layout(0.9), [(1, 2), (2, 3), (3, 4)])
    obs = Baselines(obs.pairs, obs.v, obs.w, np.array([1, 1, 0]))
    with pytest.raises(ValidationError):
        wahba_svd(obs, [1.0, 1.0, 1.0])


def test_gain_scan_never_beats_eigensolver() -> None:
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        k = (a + a.T) / 2.0
        lam, _ = solve_max_eigenpair(k)
        _, best = gain_scan(k, 20_000, seed=int(rng.integers(1 << 30)))
        assert best <= lam + 1e-9
        # with 20k samples the scan should land reasonably close
        assert best > lam - 0.5 * (abs(lam) + 1.0)


def test_gain_scan_validates_sample_count() -> None:
    with pytest.raises(ValidationError):
        gain_scan(np.eye(4), 9_999)


def test_gain_scan_deterministic_per_seed() -> None:
    k = np.diag([0.3, -0.1, 0.7, 0.2])
    q1, g1 = gain_scan(k, 10_000, seed=42)
    q2, g2 = gain_scan(k, 10_000, seed=42)
    assert g1 == g2
    assert np.array_equal(q1.as_array(), q2.as_array())


def test_mapping_error_budget_values() -> None:
    assert mapping_error_budget(0.0, 0.0, 30.0) == 0.0
    assert mapping_error_budget(0.01, 0.0, 30.0) == pytest.approx(0.01, abs=0.0)
    # pure attitude term: 1 mrad at 100 m is 0.1 m
    assert mapping_error_budget(0.0, 1e-3, 100.0) == pytest.approx(0.1, abs=1e-15)
    want = math.sqrt(0.01**2 + (30.0 * math.radians(0.07)) ** 2)
    assert mapping_error_budget(0.01, math.radians(0.07), 30.0) == pytest.approx(want, abs=0.0)


def test_mapping_error_budget_rejects_negative() -> None:
    with pytest.raises(ValidationError):
        mapping_error_budget(-0.01, 0.0, 30.0)
    with pytest.raises(ValidationError):
        mapping_error_budget(0.0, -1.0, 30.0)
    with pytest.raises(ValidationError):
        mapping_error_budget(0.0, 0.0, -5.0)
