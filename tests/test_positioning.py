from __future__ import annotations

import numpy as np
import pytest

from mgp import (
    AntennaLayout,
    ConfigurationError,
    Fixes,
    FixStatus,
    PositionSolution,
    UnitQuaternion,
    ValidationError,
    Vec3,
    euler_to_quat,
    hexagon_layout,
    hybrid_position,
    quat_to_matrix,
    rotate,
)
from mgp.positioning import fuse_positions

from conftest import fixes_of

LAYOUT = hexagon_layout(0.9)

Row = tuple[int, FixStatus, Vec3 | None]


def _fix(ant: int, p: Vec3, status: FixStatus = FixStatus.FIXED) -> Row:
    return (ant, status, p)


def _position(rows: list[Row], q: UnitQuaternion | None, layout: AntennaLayout = LAYOUT):
    return hybrid_position(fixes_of(rows), q, layout)


def _antenna_world(p: Vec3, q: UnitQuaternion, ant: int) -> Vec3:
    return p + rotate(q, LAYOUT.position_of(ant))


def test_fix_solution_validation() -> None:
    """``Fixes.checked`` applies the rules of one antenna's solution to
    every row."""

    def checked(ids, grade, p, sats_used=(8,)) -> Fixes:
        return Fixes.checked(
            np.array(ids), np.array(grade, dtype=np.int8), np.array(p, dtype=np.float64),
            np.array(sats_used),
        )

    origin, nan = [[0.0, 0.0, 0.0]], [[np.nan] * 3]
    with pytest.raises(ValidationError, match="^antenna ids are 1-based$"):
        checked([0], [2], origin)
    with pytest.raises(ValidationError, match="^a no-solution antenna cannot carry a position$"):
        checked([1], [0], origin)
    with pytest.raises(ValidationError, match="^fixed solution requires a position$"):
        checked([1], [2], nan)
    with pytest.raises(ValidationError, match="^float solution requires a position$"):
        checked([1], [1], nan)
    with pytest.raises(ValidationError, match="^sats_used must be nonnegative$"):
        checked([1], [2], origin, [-1])
    with pytest.raises(ValidationError, match="^fix grade must be 0, 1 or 2$"):
        checked([1], [3], origin)
    with pytest.raises(ValidationError, match="^fix positions must be finite$"):
        checked([1], [2], [[0.0, np.inf, 0.0]])
    with pytest.raises(ValidationError, match=r"^fixes need \(n,\) ids"):
        checked([1, 2], [2], origin)
    # the rules hold on every row, not only the first
    assert len(checked([1, 2], [2, 0], [[0.0, 0.0, 0.0], [np.nan] * 3], [8, 0])) == 2
    with pytest.raises(ValidationError, match="^float solution requires a position$"):
        checked([1, 2], [2, 1], [[0.0, 0.0, 0.0], [np.nan] * 3], [8, 8])


def test_position_solution_validation() -> None:
    with pytest.raises(ValidationError):
        PositionSolution(available=True, p=None)
    with pytest.raises(ValidationError):
        PositionSolution(available=False, p=Vec3(0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        PositionSolution(available=True, p=Vec3(0.0, 0.0, 0.0), n_used=0)
    with pytest.raises(ValidationError):
        PositionSolution(
            available=True, p=Vec3(0.0, 0.0, 0.0), n_used=2, contributing_antennas=frozenset({1})
        )


def test_exact_recovery_noise_free() -> None:
    rng = np.random.default_rng(91)
    for _ in range(50):
        p_true = Vec3.from_array(rng.normal(scale=20.0, size=3))
        q_true = UnitQuaternion.from_array(rng.normal(size=4))
        fixes = [_fix(a, _antenna_world(p_true, q_true, a)) for a in range(1, 7)]
        sol = _position(fixes, q_true)
        assert sol.available
        assert sol.n_used == 6
        assert sol.contributing_antennas == frozenset(range(1, 7))
        assert np.allclose(sol.p.as_array(), p_true.as_array(), atol=1e-12)


def test_exact_recovery_every_single_antenna() -> None:
    p_true = Vec3(3.0, -4.0, 12.0)
    q_true = euler_to_quat(5.0, -10.0, 120.0)
    for a in range(1, 7):
        sol = _position([_fix(a, _antenna_world(p_true, q_true, a))], q_true)
        assert sol.n_used == 1
        assert np.allclose(sol.p.as_array(), p_true.as_array(), atol=1e-12)


def test_hand_worked_yaw_ninety() -> None:
    # yaw +90: antenna 1 body (0.9, 0, 0) lands at world (0, 0.9, 0)
    q = euler_to_quat(0.0, 0.0, 90.0)
    fixes = [_fix(1, Vec3(10.0, 10.9, 5.0))]
    sol = _position(fixes, q)
    assert np.allclose(sol.p.as_array(), [10.0, 10.0, 5.0], atol=1e-12)


def test_average_splits_disagreement_evenly() -> None:
    # two antennas whose implied origins disagree by 2d: the mean sits between
    q = UnitQuaternion.identity()
    d = Vec3(0.0, 0.0, 0.1)
    f1 = _fix(1, LAYOUT.position_of(1) + d)
    f4 = _fix(4, LAYOUT.position_of(4) - d)
    sol = _position([f1, f4], q)
    assert np.allclose(sol.p.as_array(), [0.0, 0.0, 0.0], atol=1e-15)


def test_float_and_none_never_contribute() -> None:
    p_true = Vec3(1.0, 2.0, 3.0)
    q = UnitQuaternion.identity()
    fixes = [
        _fix(1, _antenna_world(p_true, q, 1)),
        _fix(2, Vec3(99.0, 99.0, 99.0), status=FixStatus.FLOAT),
        (3, FixStatus.NONE, None),
    ]
    sol = _position(fixes, q)
    assert sol.n_used == 1
    assert sol.contributing_antennas == frozenset({1})
    assert np.allclose(sol.p.as_array(), p_true.as_array(), atol=1e-12)


def test_no_fixed_antennas_unavailable() -> None:
    fixes = [
        _fix(1, Vec3(0.0, 0.0, 0.0), status=FixStatus.FLOAT),
        (2, FixStatus.NONE, None),
    ]
    sol = _position(fixes, UnitQuaternion.identity())
    assert not sol.available
    assert sol.p is None
    assert sol.n_used == 0


def test_missing_attitude_blocks_lever_arm_removal() -> None:
    p_true = Vec3(5.0, 6.0, 7.0)
    fixes = [_fix(a, _antenna_world(p_true, UnitQuaternion.identity(), a)) for a in range(1, 7)]
    sol = _position(fixes, None)
    assert not sol.available


def test_missing_attitude_origin_antenna_still_contributes() -> None:
    # an antenna mounted exactly at the body origin needs no attitude
    layout = AntennaLayout((Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)))
    p_true = Vec3(-2.0, 8.0, 1.5)
    fixes = [
        _fix(1, p_true),
        _fix(2, Vec3(99.0, 0.0, 0.0)),  # lever arm unknown without attitude
    ]
    sol = _position(fixes, None, layout)
    assert sol.available
    assert sol.contributing_antennas == frozenset({1})
    assert np.array_equal(sol.p.as_array(), p_true.as_array())


def test_duplicate_antenna_rejected() -> None:
    fixes = [_fix(1, Vec3(0.0, 0.0, 0.0)), _fix(1, Vec3(1.0, 0.0, 0.0))]
    with pytest.raises(ValidationError):
        _position(fixes, UnitQuaternion.identity())


def test_unknown_antenna_id_rejected() -> None:
    fixes = [_fix(7, Vec3(0.0, 0.0, 0.0))]
    with pytest.raises(ConfigurationError):
        _position(fixes, UnitQuaternion.identity())


def test_unknown_id_tolerated_when_not_fixed() -> None:
    # only fixed antennas need a layout entry
    fixes = [
        _fix(1, Vec3(0.9, 0.0, 0.0)),
        (9, FixStatus.NONE, None),
    ]
    sol = _position(fixes, UnitQuaternion.identity())
    assert sol.available
    assert sol.contributing_antennas == frozenset({1})


def test_empty_input_unavailable() -> None:
    sol = _position([], UnitQuaternion.identity())
    assert not sol.available


def test_translation_equivariance() -> None:
    rng = np.random.default_rng(97)
    q = UnitQuaternion.from_array(rng.normal(size=4))
    p0 = Vec3(1.0, 2.0, 3.0)
    noise = [Vec3.from_array(rng.normal(scale=0.01, size=3)) for _ in range(6)]
    fixes = [_fix(a, _antenna_world(p0, q, a) + noise[a - 1]) for a in range(1, 7)]
    base = _position(fixes, q).p.as_array()

    shift = Vec3(-10.0, 4.0, 2.0)
    shifted = [_fix(a, _antenna_world(p0 + shift, q, a) + noise[a - 1]) for a in range(1, 7)]
    moved = _position(shifted, q).p.as_array()
    assert np.allclose(moved - base, shift.as_array(), atol=1e-12)


def test_fused_block_matches_each_epoch_alone() -> None:
    """One ``fuse_positions`` call over epochs with and without attitude,
    the origin antenna in any row and rows padded to the widest epoch gives
    each epoch bitwise what ``hybrid_position`` gives it alone."""
    layout = AntennaLayout(
        (Vec3(0.9, 0.0, 0.0), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 1.1, 0.2), Vec3(-0.7, -0.4, 0.1))
    )
    rng = np.random.default_rng(5)
    epochs = []
    for k in range(60):
        q = UnitQuaternion.from_array(rng.normal(size=4)) if k % 3 else None
        ids = rng.permutation(4)[: int(rng.integers(1, 5))] + 1
        grades = rng.choice([FixStatus.FIXED, FixStatus.FIXED, FixStatus.FLOAT, FixStatus.NONE], len(ids))
        fixes = [
            (int(i), g, None if g is FixStatus.NONE else Vec3(*rng.normal(scale=10.0, size=3)))
            for i, g in zip(ids, grades)
        ]
        epochs.append((fixes_of(fixes), q))

    width = max(len(f) for f, _ in epochs)
    p = np.zeros((len(epochs), width, 3))
    levers = np.zeros((len(epochs), width, 3))
    fixed = np.zeros((len(epochs), width), dtype=bool)
    r_eb = np.full((len(epochs), 3, 3), np.nan)
    for e, (f, q) in enumerate(epochs):
        p[e, : len(f)] = np.nan_to_num(f.p)
        levers[e, : len(f)] = layout.positions[f.ids - 1]
        fixed[e, : len(f)] = f.fixed
        if q is not None:
            r_eb[e] = quat_to_matrix(q)
    positions, used = fuse_positions(p, levers, fixed, r_eb)

    lone = 0
    for e, (f, q) in enumerate(epochs):
        want = hybrid_position(f, q, layout)
        assert used[e].any() == want.available
        if want.available:
            assert Vec3.from_array(positions[e]) == want.p
            assert frozenset(f.ids[used[e, : len(f)]].tolist()) == want.contributing_antennas
            lone += q is None
    assert lone > 5
