import dataclasses
import hashlib

import numpy as np
import pytest

from manibench import geometry as geo
from manibench import robot as rb


def rot4(axis, angle):
    m = np.eye(4)
    m[:3, :3] = geo.rotvec_to_matrix(np.asarray(axis, dtype=float) * angle)
    return m


def trans4(x, y, z):
    m = np.eye(4)
    m[:3, 3] = [x, y, z]
    return m


def oracle_wrist_matrix(spec, q, anchor):
    """Independent FK oracle: plain 4x4 homogeneous chain multiplication."""
    m = anchor.matrix()
    m = m @ rot4([0, 0, 1], q[0])
    m = m @ trans4(0.0, q[1], 0.0)
    m = m @ spec.base_mount.matrix()
    for i in range(7):
        m = m @ spec.arm_offsets[i].matrix()
        m = m @ rot4(spec.arm_axes[i], q[2 + i])
    return m @ spec.wrist_offset.matrix()


def random_q(spec, rng):
    lo, hi = spec.joint_limits[:, 0], spec.joint_limits[:, 1]
    return rng.uniform(np.maximum(lo, -2.0), np.minimum(hi, 2.0))


def random_anchor(rng):
    return geo.transform(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0,
                         rz=rng.uniform(-np.pi, np.pi))


@pytest.fixture(params=["gripper-bot", "hand-bot"])
def spec(request):
    return rb.make_robot(request.param)


# ---------------------------------------------------------------------------
# forward_kinematics
# ---------------------------------------------------------------------------

def test_zero_q_home_pose():
    spec = rb.gripper_bot()
    frames = rb.forward_kinematics(spec, np.zeros(spec.n_joints), geo.Transform.identity())
    np.testing.assert_allclose(frames.wrist.translation, [0.0, 0.78, 0.65], atol=1e-12)
    np.testing.assert_allclose(frames.wrist.rotation, np.zeros(3), atol=1e-12)


def test_base_yaw_rotates_home_pose():
    spec = rb.gripper_bot()
    q = np.zeros(spec.n_joints)
    q[0] = np.pi / 2
    frames = rb.forward_kinematics(spec, q, geo.Transform.identity())
    np.testing.assert_allclose(frames.wrist.translation, [-0.78, 0.0, 0.65], atol=1e-12)


def test_fk_matches_matrix_chain_oracle(spec):
    rng = np.random.default_rng(20)
    for _ in range(200):
        q = random_q(spec, rng)
        anchor = random_anchor(rng)
        frames = rb.forward_kinematics(spec, q, anchor)
        oracle = oracle_wrist_matrix(spec, q, anchor)
        np.testing.assert_allclose(frames.wrist.translation, oracle[:3, 3], atol=1e-9)
        np.testing.assert_allclose(
            geo.rotvec_to_matrix(frames.wrist.rotation), oracle[:3, :3], atol=1e-9)


def test_fk_dimension_mismatch(spec):
    with pytest.raises(ValueError, match="joint vector"):
        rb.forward_kinematics(spec, np.zeros(spec.n_joints + 1), geo.Transform.identity())


def test_fk_counts(spec):
    frames = rb.forward_kinematics(spec, np.zeros(spec.n_joints), geo.Transform.identity())
    assert frames.hand_positions.shape == (spec.n_hand_points, 3)
    if isinstance(spec.effector, rb.HandSpec):
        assert frames.hand_rotations.shape == (spec.n_hand_points, 3, 3)
    else:
        assert frames.hand_rotations is None    # gripper tips turn with the palm
    assert frames.distance_points.shape == (spec.n_distance_points, 3)


def test_gripper_hand_points_track_opening():
    spec = rb.gripper_bot()
    q = np.zeros(spec.n_joints)
    frames_closed = rb.forward_kinematics(spec, q, geo.Transform.identity())
    q[9] = 0.04
    frames_open = rb.forward_kinematics(spec, q, geo.Transform.identity())
    gap_closed = geo.point_distance(frames_closed.hand_positions[0],
                                    frames_closed.hand_positions[1])
    gap_open = geo.point_distance(frames_open.hand_positions[0],
                                  frames_open.hand_positions[1])
    assert gap_closed == pytest.approx(0.024, abs=1e-12)
    assert gap_open == pytest.approx(0.104, abs=1e-12)


def test_palm_is_ahead_of_wrist():
    spec = rb.gripper_bot()
    frames = rb.forward_kinematics(spec, np.zeros(spec.n_joints), geo.Transform.identity())
    delta = frames.palm.translation - frames.wrist.translation
    np.testing.assert_allclose(delta, [0.0, 0.10, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# wrist_jacobian
# ---------------------------------------------------------------------------

def test_prismatic_column_is_rotated_axis():
    spec = rb.gripper_bot()
    q = np.zeros(spec.n_joints)
    q[0] = 0.7
    j = rb.wrist_jacobian(spec, q, geo.Transform.identity())
    expected = np.array([-np.sin(0.7), np.cos(0.7), 0.0])
    np.testing.assert_allclose(j[0:3, 1], expected, atol=1e-12)
    np.testing.assert_allclose(j[3:6, 1], np.zeros(3), atol=1e-12)


def test_revolute_column_geometric_definition():
    spec = rb.gripper_bot()
    q = np.zeros(spec.n_joints)
    anchor = geo.Transform.identity()
    frames = rb.forward_kinematics(spec, q, anchor)
    j = rb.wrist_jacobian(spec, q, anchor)
    # shoulder yaw joint (column 2) sits well below/behind the wrist
    axis = np.array(rb._wrist_chain(spec, q, anchor)[3][2])
    origin = frames.distance_points[2]   # the first 9 are the joint origins
    np.testing.assert_allclose(j[3:6, 2], axis, atol=1e-12)
    np.testing.assert_allclose(
        j[0:3, 2], np.cross(axis, frames.wrist.translation - origin), atol=1e-12)


def test_jacobian_equals_column_by_column_cross_products():
    rng = np.random.default_rng(21)
    for spec in (rb.gripper_bot(), rb.hand_bot()):
        for _ in range(20):
            q = rng.uniform(spec.joint_limits[:, 0], spec.joint_limits[:, 1])
            anchor = geo.transform(*rng.uniform(-1, 1, 2), 0.0, rz=rng.uniform(-3, 3))
            frames = rb.forward_kinematics(spec, q, anchor)
            pw, origins = frames.wrist.translation, frames.distance_points[0:9]
            axes = np.array(rb._wrist_chain(spec, q, anchor)[3])
            expected = np.zeros((6, 9))
            for i in range(9):
                a, d = axes[i], pw - origins[i]
                expected[0:3, i] = [a[1] * d[2] - a[2] * d[1],
                                    a[2] * d[0] - a[0] * d[2],
                                    a[0] * d[1] - a[1] * d[0]]
                expected[3:6, i] = axes[i]
            expected[0:3, 1] = axes[1]          # prismatic drive
            expected[3:6, 1] = 0.0
            np.testing.assert_array_equal(rb.wrist_jacobian(spec, q, anchor), expected)


def fd_jacobian(spec, q, anchor, h=1e-6):
    j = np.zeros((6, 9))
    for i in range(9):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fp = rb.forward_kinematics(spec, qp, anchor)
        fm = rb.forward_kinematics(spec, qm, anchor)
        j[0:3, i] = (fp.wrist.translation - fm.wrist.translation) / (2 * h)
        rel = geo.rotvec_to_matrix(fp.wrist.rotation) @ geo.rotvec_to_matrix(fm.wrist.rotation).T
        j[3:6, i] = geo.matrix_to_rotvec(rel) / (2 * h)
    return j


def test_jacobian_matches_finite_differences(spec):
    rng = np.random.default_rng(21)
    for _ in range(50):
        q = random_q(spec, rng)
        anchor = random_anchor(rng)
        j = rb.wrist_jacobian(spec, q, anchor)
        j_fd = fd_jacobian(spec, q, anchor)
        err = np.linalg.norm(j - j_fd) / max(np.linalg.norm(j_fd), 1e-9)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# ik_solve
# ---------------------------------------------------------------------------

def test_ik_fixed_point(spec):
    anchor = geo.Transform.identity()
    q0 = np.zeros(spec.n_joints)
    q0[2:9] = spec.home_arm_q
    wrist = rb.forward_kinematics(spec, q0, anchor).wrist
    q, _ = rb.ik_solve(spec, q0, anchor, wrist)
    np.testing.assert_array_equal(q, q0)


def test_ik_small_translation_converges(spec):
    rng = np.random.default_rng(22)
    anchor = geo.Transform.identity()
    q0 = np.zeros(spec.n_joints)
    q0[2:9] = spec.home_arm_q
    for _ in range(50):
        wrist = rb.forward_kinematics(spec, q0, anchor).wrist
        delta = rng.normal(size=3)
        delta = delta / np.linalg.norm(delta) * rng.uniform(0.001, 0.02)
        target = geo.Transform(wrist.translation + delta, wrist.rotation)
        q, _ = rb.ik_solve(spec, q0, anchor, target)
        achieved = rb.forward_kinematics(spec, q, anchor).wrist
        assert geo.point_distance(achieved.translation, target.translation) < 1e-4
        assert np.array_equal(q[9:], q0[9:])


def test_ik_unreachable_target_errors(spec):
    anchor = geo.Transform.identity()
    q0 = np.zeros(spec.n_joints)
    q0[2:9] = spec.home_arm_q
    target = geo.transform(10.0, 10.0, 10.0)
    with pytest.raises(rb.IkNotConverged, match="ik_not_converged"):
        rb.ik_solve(spec, q0, anchor, target, fixed_base=True)


def test_ik_fixed_base_leaves_base_joints(spec):
    anchor = geo.Transform.identity()
    q0 = np.zeros(spec.n_joints)
    q0[2:9] = spec.home_arm_q
    wrist = rb.forward_kinematics(spec, q0, anchor).wrist
    target = geo.Transform(wrist.translation + geo.vec3(0.0, 0.01, 0.0), wrist.rotation)
    q, _ = rb.ik_solve(spec, q0, anchor, target, fixed_base=True)
    np.testing.assert_array_equal(q[0:2], q0[0:2])


# ---------------------------------------------------------------------------
# apply_action
# ---------------------------------------------------------------------------

def make_state(spec, anchor=None):
    return rb.make_initial_state(spec, anchor or geo.Transform.identity())


def test_zero_action_is_idempotent(spec):
    state = make_state(spec)
    nxt = rb.apply_action(spec, state, np.zeros(spec.action_dim))
    # zero action targets the current pose but effector target 0 may differ
    # from the open pose; only base/arm joints must hold still
    np.testing.assert_allclose(nxt.q[0:9], state.q[0:9], atol=1e-12)
    np.testing.assert_allclose(nxt.qdot[0:9], np.zeros(9), atol=1e-9)


def test_forward_translation_uses_prismatic_base():
    spec = rb.gripper_bot()
    state = make_state(spec)
    action = np.concatenate([geo.vec3(0.0, 0.02, 0.0), np.zeros(3), spec.effector.open_pose])
    nxt = rb.apply_action(spec, state, action)
    moved = nxt.wrist_pose.translation - state.wrist_pose.translation
    np.testing.assert_allclose(moved, [0.0, 0.02, 0.0], atol=2e-4)
    assert nxt.q[1] > 0.004  # drive joint takes a large share
    assert abs(nxt.q[1]) >= np.max(np.abs(nxt.q[2:9] - state.q[2:9])) - 1e-9


def test_effector_target_clamped(spec):
    state = make_state(spec)
    action = np.zeros(spec.action_dim)
    action[6:] += 10.0
    nxt = rb.apply_action(spec, state, action)
    hi = spec.effector_limits()[:, 1]
    assert np.all(nxt.prev_action[6:] == hi)


def test_step_limits_clamp_displacement(spec):
    state = make_state(spec)
    action = np.concatenate([geo.vec3(1.0, 0.0, 0.0), geo.vec3(0.0, 0.0, 1.0),
                             spec.effector.open_pose])
    nxt = rb.apply_action(spec, state, action)
    assert np.linalg.norm(nxt.prev_action[0:3]) <= spec.pos_step_limit + 1e-12
    assert np.linalg.norm(nxt.prev_action[3:6]) <= spec.rot_step_limit + 1e-12
    achieved = nxt.wrist_pose.translation - state.wrist_pose.translation
    assert np.linalg.norm(achieved) <= spec.pos_step_limit + 1e-3


def test_apply_action_updates_derivatives(spec):
    state = make_state(spec)
    action = np.concatenate([geo.vec3(0.0, 0.01, 0.0), np.zeros(3), spec.effector.open_pose])
    dt = rb.DT
    nxt = rb.apply_action(spec, state, action)
    np.testing.assert_allclose(nxt.qdot, (nxt.q - state.q) / dt, atol=1e-12)
    np.testing.assert_allclose(nxt.qddot, (nxt.qdot - state.qdot) / dt, atol=1e-9)


def test_rate_limit_respected(spec):
    state = make_state(spec)
    action = np.concatenate([geo.vec3(0.02, 0.0, 0.0), np.zeros(3), spec.effector.open_pose])
    dt = rb.DT
    nxt = rb.apply_action(spec, state, action)
    assert np.all(np.abs(nxt.q - state.q) <= spec.max_velocity * dt + 1e-12)


# ---------------------------------------------------------------------------
# the model, pinned
# ---------------------------------------------------------------------------

def _field_bytes(value) -> bytes:
    """Every field of a spec, recursively: arrays as dtype, shape and bytes,
    Transforms as translation and rotation vector."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__.encode() + b"".join(
            f.name.encode() + _field_bytes(getattr(value, f.name))
            for f in dataclasses.fields(value))
    if isinstance(value, geo.Transform):
        return _field_bytes(value.translation) + _field_bytes(value.rotation)
    if isinstance(value, tuple):
        return b"(" + b"".join(map(_field_bytes, value)) + b")"
    return repr(value).encode()


# every recorded dataset, checkpoint and benchmark figure rests on these bytes
@pytest.mark.parametrize("make,digest", [
    (rb.gripper_bot, "0d2a3d532b9e4fc4603fac800451ff3f982b67eac04d5269179c2bed30d2b9fa"),
    (rb.hand_bot, "aa70b3d29673d14aa4638318d26ea7e816d059fae51ae5d663c4c8c11feaa46c"),
])
def test_robot_specs_are_pinned(make, digest):
    assert hashlib.sha256(_field_bytes(make())).hexdigest() == digest


@pytest.mark.parametrize("make", [rb.gripper_bot, rb.hand_bot])
def test_effector_supplies_its_limits_and_rate(make):
    spec = make()
    eff = spec.effector
    np.testing.assert_array_equal(spec.joint_limits[9:], np.array(eff.joint_limits))
    np.testing.assert_array_equal(spec.max_velocity[9:], np.full(eff.dof, eff.max_velocity))
    assert spec.n_distance_points == eff.n_distance_points
