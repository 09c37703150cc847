from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgp import (
    AntennaLayout,
    RotationMatrix,
    UnitQuaternion,
    ValidationError,
    Vec3,
    euler_from_quat,
    euler_to_quat,
    hexagon_layout,
    matrix_to_quat,
    quat_angle,
    quat_multiply,
    quat_to_matrix,
    rotate,
)
from mgp.core import unit_quats


def _random_quat(rng: np.random.Generator) -> UnitQuaternion:
    return UnitQuaternion.from_array(rng.normal(size=4))


# -- Vec3 -----------------------------------------------------------------


def test_vec3_arithmetic_and_norm() -> None:
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(-1.0, 0.5, 2.0)
    assert (a + b) == Vec3(0.0, 2.5, 5.0)
    assert (a - b) == Vec3(2.0, 1.5, 1.0)
    assert a.norm() == pytest.approx(math.sqrt(14.0), abs=0.0)


def test_vec3_rejects_non_finite() -> None:
    with pytest.raises(ValidationError):
        Vec3(float("nan"), 0.0, 0.0)
    with pytest.raises(ValidationError):
        Vec3(0.0, float("inf"), 0.0)


def test_vec3_array_round_trip() -> None:
    v = Vec3(0.25, -1.5, 9.0)
    w = Vec3.from_array(v.as_array())
    assert v == w


# -- UnitQuaternion -------------------------------------------------------


def test_quaternion_rejects_unnormalized_constructor() -> None:
    with pytest.raises(ValidationError):
        UnitQuaternion(1.0, 1.0, 0.0, 0.0)


def test_from_array_normalizes_and_canonicalizes() -> None:
    q = UnitQuaternion.from_array([0.0, 0.0, 2.0, -2.0])
    assert q.qw == pytest.approx(math.sqrt(0.5))
    assert q.qz == pytest.approx(-math.sqrt(0.5))


def test_canonical_sign_zero_qw_falls_back_to_first_nonzero() -> None:
    q = UnitQuaternion.from_array([0.0, -1.0, 0.0, 0.0])
    assert q.qy == 1.0


def _scalar_unit(q: list[float], canonicalize: bool) -> list[float]:
    """One quaternion normalized by its own 1-D norm and sign-fixed one
    component at a time: the per-row arithmetic ``unit_quats`` replaces."""
    r = np.array(q) / float(np.linalg.norm(q))
    if canonicalize:
        lead = next((c for c in (r[3], r[0], r[1], r[2]) if c != 0.0), 0.0)
        r = -r if lead < 0.0 else r
    return r.tolist()


@pytest.mark.parametrize("canonicalize", [True, False])
def test_unit_quats_is_bitwise_its_rows_one_by_one(canonicalize: bool) -> None:
    rng = np.random.default_rng(17)
    q = rng.normal(size=(20000, 4))
    # near-unit rows, as read from a file, and rows with zero components
    q[:5000] /= np.linalg.norm(q[:5000], axis=1, keepdims=True)
    q[5000:5100, 3] = 0.0
    q[5100:5200, 3:] = 0.0
    q[5200:5300, 0] = 0.0
    q[5200:5300, 3] = -0.0
    got = unit_quats(q, canonicalize=canonicalize)
    want = np.array([_scalar_unit(r, canonicalize) for r in q.tolist()])
    one = np.array([UnitQuaternion.from_array(r, canonicalize=canonicalize).as_array() for r in q])
    for ref in (want, one):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    nan = unit_quats(np.full((1, 4), np.nan), canonicalize=canonicalize)
    assert np.isnan(nan).all()


def test_quat_to_matrix_stack_is_bitwise_each_quaternion() -> None:
    rng = np.random.default_rng(19)
    qs = [_random_quat(rng) for _ in range(200)]
    stack = quat_to_matrix(np.array([q.as_array() for q in qs]).reshape(20, 10, 4))
    assert stack.shape == (20, 10, 3, 3)
    for k, q in enumerate(qs):
        assert np.array_equal(stack.reshape(-1, 3, 3)[k], quat_to_matrix(q))
    assert np.isnan(quat_to_matrix(np.full(4, np.nan))).all()


def test_from_array_rejects_zero_and_bad_shape() -> None:
    with pytest.raises(ValidationError):
        UnitQuaternion.from_array([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        UnitQuaternion.from_array([1.0, 0.0, 0.0])


def test_conjugate_inverts_rotation() -> None:
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = _random_quat(rng)
        v = Vec3.from_array(rng.normal(size=3))
        back = rotate(q.conjugate(), rotate(q, v))
        assert np.allclose(back.as_array(), v.as_array(), atol=1e-12)


# -- rotation conversions -------------------------------------------------


def test_quat_matrix_round_trip() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = _random_quat(rng)
        r = quat_to_matrix(q)
        q2 = matrix_to_quat(r)
        assert quat_angle(q, q2) < 1e-12


def test_matrix_to_quat_covers_all_trace_branches() -> None:
    # 180 degree rotations about each axis exercise the small-trace branches.
    for axis in range(3):
        v = [0.0, 0.0, 0.0, 0.0]
        v[axis] = 1.0
        q = UnitQuaternion.from_array(v)
        r = quat_to_matrix(q)
        assert quat_angle(q, matrix_to_quat(r)) < 1e-12


def test_rotate_matches_matrix_product() -> None:
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = _random_quat(rng)
        v = rng.normal(size=3)
        got = rotate(q, Vec3.from_array(v)).as_array()
        want = quat_to_matrix(q) @ v
        assert np.allclose(got, want, atol=1e-12)


def test_quat_multiply_composes_rotations() -> None:
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = _random_quat(rng)
        b = _random_quat(rng)
        v = Vec3.from_array(rng.normal(size=3))
        via_quat = rotate(quat_multiply(a, b), v)
        via_steps = rotate(a, rotate(b, v))
        assert np.allclose(via_quat.as_array(), via_steps.as_array(), atol=1e-12)


def test_quat_angle_basic_values() -> None:
    qi = UnitQuaternion.identity()
    assert quat_angle(qi, qi) == pytest.approx(0.0, abs=1e-12)
    q90 = euler_to_quat(0.0, 0.0, 90.0)
    assert quat_angle(qi, q90) == pytest.approx(math.pi / 2, abs=1e-12)
    # sign flip represents the same rotation
    qneg = UnitQuaternion.from_array(-q90.as_array(), canonicalize=False)
    assert quat_angle(q90, qneg) == pytest.approx(0.0, abs=1e-7)


def test_rotation_matrix_rejects_improper() -> None:
    with pytest.raises(ValidationError):
        RotationMatrix(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValidationError):
        RotationMatrix(np.eye(3) * 2.0)


# -- Euler angles ---------------------------------------------------------


def test_euler_yaw_convention() -> None:
    # yaw +90: body x axis maps to world y (ENU, z-up right-handed).
    q = euler_to_quat(0.0, 0.0, 90.0)
    assert np.allclose(rotate(q, Vec3(1.0, 0.0, 0.0)).as_array(), [0.0, 1.0, 0.0], atol=1e-12)


def test_euler_pitch_convention() -> None:
    # pitch +90 about body y: x maps to -z.
    q = euler_to_quat(0.0, 90.0, 0.0)
    assert np.allclose(rotate(q, Vec3(1.0, 0.0, 0.0)).as_array(), [0.0, 0.0, -1.0], atol=1e-12)


def test_euler_roll_convention() -> None:
    # roll +90 about body x: y maps to z.
    q = euler_to_quat(90.0, 0.0, 0.0)
    assert np.allclose(rotate(q, Vec3(0.0, 1.0, 0.0)).as_array(), [0.0, 0.0, 1.0], atol=1e-12)


def test_euler_round_trip_away_from_gimbal_lock() -> None:
    rng = np.random.default_rng(17)
    for _ in range(100):
        roll = float(rng.uniform(-179.0, 179.0))
        pitch = float(rng.uniform(-85.0, 85.0))
        yaw = float(rng.uniform(-179.0, 179.0))
        r2, p2, y2 = euler_from_quat(euler_to_quat(roll, pitch, yaw))
        q1 = euler_to_quat(roll, pitch, yaw)
        q2 = euler_to_quat(r2, p2, y2)
        assert quat_angle(q1, q2) < 1e-9


def test_euler_gimbal_lock_sets_roll_zero() -> None:
    q = euler_to_quat(25.0, 90.0, 40.0)
    roll, pitch, yaw = euler_from_quat(q)
    assert roll == 0.0
    assert pitch == pytest.approx(90.0, abs=1e-6)
    # the recovered yaw must still reproduce the same rotation
    assert quat_angle(q, euler_to_quat(roll, pitch, yaw)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    roll=st.floats(-179.0, 179.0),
    pitch=st.floats(-85.0, 85.0),
    yaw=st.floats(-179.0, 179.0),
)
def test_euler_round_trip_property(roll: float, pitch: float, yaw: float) -> None:
    q1 = euler_to_quat(roll, pitch, yaw)
    q2 = euler_to_quat(*euler_from_quat(q1))
    assert quat_angle(q1, q2) < 1e-9


# -- antenna layouts ------------------------------------------------------


def test_hexagon_layout_geometry() -> None:
    layout = hexagon_layout(0.9)
    assert layout.antenna_count == 6
    assert layout.antenna_ids == (1, 2, 3, 4, 5, 6)
    pts = [p.as_array() for p in layout.body_positions]
    for p in pts:
        assert np.linalg.norm(p) == pytest.approx(0.9, abs=1e-12)
        assert p[2] == 0.0
    # opposite corners are one diameter apart
    dists = [np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
    assert max(dists) == pytest.approx(1.8, abs=1e-12)
    # neighbours sit one circumradius apart on a regular hexagon
    assert min(dists) == pytest.approx(0.9, abs=1e-12)


def test_layout_baseline_and_lookup() -> None:
    layout = hexagon_layout(0.9)
    b = layout.baseline(1, 4)
    assert np.allclose(b.as_array(), [-1.8, 0.0, 0.0], atol=1e-12)
    with pytest.raises(ValidationError):
        layout.position_of(0)
    with pytest.raises(ValidationError):
        layout.position_of(7)


def test_layout_rejects_degenerate_sets() -> None:
    with pytest.raises(ValidationError):
        AntennaLayout((Vec3(0.0, 0.0, 0.0),))
    with pytest.raises(ValidationError):
        AntennaLayout((Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)))
    # collinear three antennas cannot observe attitude
    with pytest.raises(ValidationError):
        AntennaLayout((Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(2.0, 0.0, 0.0)))
