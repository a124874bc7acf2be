"""Parametric kinematic robot: 2-DOF mobile base + 7-DOF arm + end effector.

Joint vector layout (2 + 7 + D entries):
  [0]      base yaw about world z, at the base anchor (rad)
  [1]      base translation along the base's local y, i.e. its heading (m)
  [2:9]    arm revolute joints, root to wrist (rad)
  [9:9+D]  effector joints: D=1 gripper opening (m) or D=12 hand joints (rad)

The base anchor (world placement of the platform) is chosen at episode reset
and carried on RobotState; RobotSpec itself is placement-free and immutable.

Frames follow the chain  anchor o yaw o drive o mount o arm... o wrist, with
palm = wrist o palm_offset. "Hand points" are the N effector keypoints used
by the distance rewards (2 fingertips + finger root for the gripper, 5
fingertips for the hand); "distance points" are the 15/22 body keypoints fed
to the observation distance block: 9 actuated base/arm joint origins, the
palm, the N hand points, and arm-link midpoints padding to the fixed count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Transform,
    matrix_to_rotvec,
    rotvec_to_matrix,
    transform,
    vec3,
)

class IkNotConverged(RuntimeError):
    """Raised when DLS leaves a position residual above 1e-3 m.

    Carries the best-effort joint vector; callers treat the wrist as
    best-effort and keep the episode running.
    """

    def __init__(self, best_q: np.ndarray, residual: float):
        super().__init__(f"ik_not_converged (residual {residual:.2e} m)")
        self.best_q = best_q
        self.residual = residual


# ---------------------------------------------------------------------------
# Effectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GripperSpec:
    """1-DOF parallel gripper; the joint is the symmetric half-opening (m)."""

    joint_limits: tuple = ((0.0, 0.04),)
    max_velocity: float = 0.1
    tip_lateral_base: float = 0.012   # half-gap between closed fingertips
    knuckle_back: float = 0.08        # finger-root point behind the grasp centre

    @property
    def dof(self) -> int:
        return 1

    @property
    def n_hand_points(self) -> int:
        return 3

    @property
    def open_pose(self) -> np.ndarray:
        return np.array([self.joint_limits[0][1]])

    def hand_point_offsets(self, q: np.ndarray):
        """Palm-local (translation, rotation matrix) per hand point: L tip,
        R tip, root. The fingertips do not rotate: the matrix is None."""
        half = self.tip_lateral_base + float(q[0])
        return [
            (vec3(half, 0.0, 0.0), None),
            (vec3(-half, 0.0, 0.0), None),
            (vec3(0.0, -self.knuckle_back, 0.0), None),
        ]


@dataclass(frozen=True)
class FingerDef:
    knuckle: np.ndarray        # palm-local knuckle position
    axis: np.ndarray           # unit curl axis, knuckle-local
    tip_offset: np.ndarray     # knuckle-local tip position at zero curl
    joint_index: int           # driving joint within the effector block


@dataclass(frozen=True)
class HandSpec:
    """12-DOF hand; joints 0-4 curl the five fingertips, the rest are
    auxiliary articulation with no keypoint of their own."""

    fingers: tuple
    joint_limits: tuple
    max_velocity: float = 4.0

    @property
    def dof(self) -> int:
        return 12

    @property
    def n_hand_points(self) -> int:
        return len(self.fingers)

    @property
    def open_pose(self) -> np.ndarray:
        return np.zeros(self.dof)

    def hand_point_offsets(self, q: np.ndarray):
        """Palm-local (translation, rotation matrix) per fingertip."""
        out = []
        for f in self.fingers:
            rot = rotvec_to_matrix(f.axis * float(q[f.joint_index]))
            out.append((f.knuckle + rot @ f.tip_offset, rot))
        return out


def _default_hand_fingers() -> tuple:
    curl = vec3(-1.0, 0.0, 0.0)
    return (
        FingerDef(vec3(0.055, -0.040, -0.015), curl, vec3(0.0, 0.040, 0.0), 0),  # thumb
        FingerDef(vec3(0.045, -0.045, 0.010), curl, vec3(0.0, 0.045, 0.0), 1),   # index
        FingerDef(vec3(0.015, -0.045, 0.010), curl, vec3(0.0, 0.045, 0.0), 2),   # middle
        FingerDef(vec3(-0.015, -0.045, 0.010), curl, vec3(0.0, 0.045, 0.0), 3),  # ring
        FingerDef(vec3(-0.045, -0.045, 0.010), curl, vec3(0.0, 0.045, 0.0), 4),  # pinky
    )


# ---------------------------------------------------------------------------
# Robot specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobotSpec:
    name: str
    base_mount: Transform                 # base origin -> arm root
    arm_offsets: tuple                    # 7 parent-frame Transforms
    arm_axes: np.ndarray                  # (7, 3) unit axes, joint-local
    wrist_offset: Transform               # after joint 7 -> wrist frame
    palm_offset: Transform                # wrist -> palm keypoint frame
    effector: GripperSpec | HandSpec
    joint_limits: np.ndarray              # (2+7+D, 2)
    max_velocity: np.ndarray              # (2+7+D,)
    home_arm_q: np.ndarray                # (7,) reset posture, elbow bent
    pos_step_limit: float = 0.02          # per-step wrist translation cap (m)
    rot_step_limit: float = 0.05          # per-step wrist rotation cap (rad)

    def __post_init__(self):
        d = self.effector.dof
        assert self.joint_limits.shape == (9 + d, 2)
        assert self.max_velocity.shape == (9 + d,)
        assert np.all(self.joint_limits[:, 0] < self.joint_limits[:, 1])
        assert np.allclose(np.linalg.norm(self.arm_axes, axis=1), 1.0)

    @property
    def dof_effector(self) -> int:
        return self.effector.dof

    @property
    def n_joints(self) -> int:
        return 9 + self.effector.dof

    @property
    def action_dim(self) -> int:
        return 6 + self.effector.dof

    @property
    def n_hand_points(self) -> int:
        return self.effector.n_hand_points

    @property
    def n_distance_points(self) -> int:
        # 9 joint origins + palm + N hand points + link-midpoint padding
        return 15 if isinstance(self.effector, GripperSpec) else 22

    @property
    def n_midpoint_pads(self) -> int:
        return self.n_distance_points - 10 - self.n_hand_points

    def effector_limits(self) -> np.ndarray:
        return self.joint_limits[9:]

    def clamp_q(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.joint_limits[:, 0], self.joint_limits[:, 1])


def gripper_bot() -> RobotSpec:
    """Parallel-gripper robot: D=1, 3 hand points, 15 distance points."""
    arm_offsets = (
        transform(0.0, 0.0, 0.10),
        transform(0.0, 0.0, 0.05),
        transform(0.0, 0.15, 0.0),
        transform(0.0, 0.15, 0.0),
        transform(0.0, 0.15, 0.0),
        transform(0.0, 0.12, 0.0),
        transform(0.0, 0.06, 0.0),
    )
    arm_axes = np.array([
        [0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0],
    ], dtype=np.float64)
    limits = np.array(
        [[-np.pi, np.pi], [-3.0, 3.0]] + [[-2.9, 2.9]] * 7 + [[0.0, 0.04]])
    vmax = np.array([1.0, 1.0] + [2.0] * 7 + [0.1])
    return RobotSpec(
        name="gripper-bot",
        base_mount=transform(0.0, 0.10, 0.50),
        arm_offsets=arm_offsets,
        arm_axes=arm_axes,
        wrist_offset=transform(0.0, 0.05, 0.0),
        palm_offset=transform(0.0, 0.10, 0.0),
        effector=GripperSpec(),
        joint_limits=limits,
        max_velocity=vmax,
        home_arm_q=np.array([0.0, 0.45, 0.0, -0.9, 0.0, 0.45, 0.0]),
    )


def hand_bot() -> RobotSpec:
    """Dexterous-hand robot: D=12, 5 hand points, 22 distance points."""
    arm_offsets = (
        transform(0.0, 0.0, 0.10),
        transform(0.0, 0.0, 0.05),
        transform(0.0, 0.16, 0.0),
        transform(0.0, 0.16, 0.0),
        transform(0.0, 0.16, 0.0),
        transform(0.0, 0.12, 0.0),
        transform(0.0, 0.06, 0.0),
    )
    arm_axes = np.array([
        [0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0],
    ], dtype=np.float64)
    hand = HandSpec(
        fingers=_default_hand_fingers(),
        joint_limits=tuple([(0.0, 1.6)] * 5 + [(-0.5, 0.5)] * 7),
    )
    limits = np.array(
        [[-np.pi, np.pi], [-3.0, 3.0]] + [[-2.9, 2.9]] * 7 + list(hand.joint_limits))
    vmax = np.array([1.0, 1.0] + [2.0] * 7 + [4.0] * 12)
    return RobotSpec(
        name="hand-bot",
        base_mount=transform(0.0, 0.10, 0.50),
        arm_offsets=arm_offsets,
        arm_axes=arm_axes,
        wrist_offset=transform(0.0, 0.05, 0.0),
        palm_offset=transform(0.0, 0.11, 0.0),
        effector=hand,
        joint_limits=limits,
        max_velocity=vmax,
        home_arm_q=np.array([0.0, 0.45, 0.0, -0.9, 0.0, 0.45, 0.0]),
    )


ROBOTS = {"gripper-bot": gripper_bot, "hand-bot": hand_bot}


def make_robot(name: str) -> RobotSpec:
    try:
        return ROBOTS[name]()
    except KeyError:
        raise ValueError(f"unknown robot {name!r}; expected one of {sorted(ROBOTS)}") from None


# ---------------------------------------------------------------------------
# Control rate and state
# ---------------------------------------------------------------------------

FRAME_RATE = 30.0       # Hz: control steps, and recorded frames, per second
DT = 1.0 / FRAME_RATE   # s per control step; fixed, not a setting


@dataclass
class RobotState:
    q: np.ndarray
    qdot: np.ndarray
    qddot: np.ndarray
    prev_action: np.ndarray
    wrist_pose: Transform
    base_anchor: Transform
    chain: tuple                  # _wrist_chain(spec, q, base_anchor)
    ik_warning: bool = False


def make_initial_state(spec: RobotSpec, base_anchor: Transform,
                       arm_q: np.ndarray | None = None,
                       effector_q: np.ndarray | None = None) -> RobotState:
    q = np.zeros(spec.n_joints)
    q[2:9] = spec.home_arm_q if arm_q is None else arm_q
    q[9:] = spec.effector.open_pose if effector_q is None else effector_q
    q = spec.clamp_q(q)
    chain = _wrist_chain(spec, q, base_anchor)
    return RobotState(
        q=q,
        qdot=np.zeros(spec.n_joints),
        qddot=np.zeros(spec.n_joints),
        prev_action=np.zeros(spec.action_dim),
        wrist_pose=Transform.from_matrix(chain[1], chain[0]),
        base_anchor=base_anchor,
        chain=chain,
    )


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------

@dataclass
class KinematicFrames:
    wrist: Transform
    palm: Transform
    hand_points: list            # N palm-chained Transforms
    distance_points: np.ndarray  # (15|22, 3) world positions
    joint_origins: np.ndarray    # (9, 3) base+arm joint origins
    joint_axes: np.ndarray       # (9, 3) world joint axes

    @property
    def hand_positions(self) -> np.ndarray:
        return np.array([t.translation for t in self.hand_points])


class _CompiledSpec:
    """Per-spec constants hoisted out of the FK inner loop.

    The chain itself runs on plain Python floats (tuple-of-tuples rotation
    matrices): at 3x3 scale the interpreter beats numpy's per-call overhead
    by a wide margin, and FK dominates every rollout.
    """

    def __init__(self, spec: RobotSpec):
        def rot_or_none(t: Transform):
            # None marks an identity offset rotation: the chain skips it
            r = t.rotation_matrix
            return None if np.array_equal(r, np.eye(3)) else r

        def tuples(a: np.ndarray):
            # nested tuples of Python floats unpack fastest in the chain
            return tuple(map(tuples, a)) if a.ndim > 1 else tuple(a.tolist())

        def rows_or_none(t: Transform):
            r = rot_or_none(t)
            return None if r is None else tuples(r)

        self.mount_t = tuples(spec.base_mount.translation)
        self.mount_r = rows_or_none(spec.base_mount)
        self.arm_t = [tuples(off.translation) for off in spec.arm_offsets]
        self.arm_r = [rows_or_none(off) for off in spec.arm_offsets]
        self.arm_axes = tuples(spec.arm_axes)
        self.wrist_t = tuples(spec.wrist_offset.translation)
        self.wrist_r = rows_or_none(spec.wrist_offset)
        self.palm_t = spec.palm_offset.translation
        self.palm_r = rot_or_none(spec.palm_offset)


def _compiled(spec: RobotSpec) -> _CompiledSpec:
    cached = getattr(spec, "_compiled_cache", None)
    if cached is None:
        cached = _CompiledSpec(spec)
        object.__setattr__(spec, "_compiled_cache", cached)  # frozen dataclass
    return cached


def _mm(a, b):
    """3x3 @ 3x3 on tuple matrices."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (a00 * b00 + a01 * b10 + a02 * b20,
         a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20,
         a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20,
         a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22),
    )


def _mv(a, v):
    """3x3 @ 3 on tuples."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    x, y, z = v
    return (a00 * x + a01 * y + a02 * z,
            a10 * x + a11 * y + a12 * z,
            a20 * x + a21 * y + a22 * z)


def _axis_angle_tuples(axis, angle: float):
    ux, uy, uz = axis
    c = math.cos(angle)
    s = math.sin(angle)
    ic = 1.0 - c
    return (
        (c + ux * ux * ic, ux * uy * ic - uz * s, ux * uz * ic + uy * s),
        (uy * ux * ic + uz * s, c + uy * uy * ic, uy * uz * ic - ux * s),
        (uz * ux * ic - uy * s, uz * uy * ic + ux * s, c + uz * uz * ic),
    )


def _wrist_chain(spec: RobotSpec, q: np.ndarray, anchor: Transform):
    """Shared FK core: returns wrist (R, p) plus joint origins/axes arrays."""
    cs = _compiled(spec)
    origins = np.empty((9, 3))
    axes = np.empty((9, 3))
    r = anchor.rotation_matrix.tolist()
    p = anchor.translation.tolist()

    q = q.tolist()  # the chain runs on Python floats
    q0 = q[0]
    origins[0] = p
    axes[0] = _mv(r, (0.0, 0.0, 1.0))      # yaw about world z (anchor upright)
    c, s = math.cos(q0), math.sin(q0)
    r = _mm(r, ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)))

    drive = _mv(r, (0.0, 1.0, 0.0))        # local y after yaw
    axes[1] = drive
    origins[1] = p
    q1 = q[1]
    p = (p[0] + drive[0] * q1, p[1] + drive[1] * q1, p[2] + drive[2] * q1)

    t = _mv(r, cs.mount_t)
    p = (p[0] + t[0], p[1] + t[1], p[2] + t[2])
    if cs.mount_r is not None:
        r = _mm(r, cs.mount_r)

    for i in range(7):
        t = _mv(r, cs.arm_t[i])
        p = (p[0] + t[0], p[1] + t[1], p[2] + t[2])
        if cs.arm_r[i] is not None:
            r = _mm(r, cs.arm_r[i])
        origins[2 + i] = p
        axes[2 + i] = _mv(r, cs.arm_axes[i])
        r = _mm(r, _axis_angle_tuples(cs.arm_axes[i], q[2 + i]))

    t = _mv(r, cs.wrist_t)
    pw = np.array((p[0] + t[0], p[1] + t[1], p[2] + t[2]))
    if cs.wrist_r is not None:
        r = _mm(r, cs.wrist_r)
    rw = np.array(r)
    return rw, pw, origins, axes


def forward_kinematics(spec: RobotSpec, q: np.ndarray,
                       base_anchor: Transform,
                       _chain=None) -> KinematicFrames:
    """World frames for wrist, palm, hand points, and distance points.

    _chain lets apply_action hand over its already-computed wrist chain.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (spec.n_joints,):
        raise ValueError(f"joint vector must have {spec.n_joints} entries, got {q.shape}")

    cs = _compiled(spec)
    rw, pw, origins, axes = _chain if _chain is not None \
        else _wrist_chain(spec, q, base_anchor)
    rp = rw if cs.palm_r is None else rw @ cs.palm_r
    pp = pw + rw @ cs.palm_t
    palm = Transform.from_matrix(pp, rp)
    wrist = Transform.from_matrix(pw, rw)

    hand_points = [
        Transform.from_matrix(pp + rp @ local_t,
                              rp if local_r is None else rp @ local_r)
        for local_t, local_r in spec.effector.hand_point_offsets(q[9:])]

    pads = spec.n_midpoint_pads
    chain_pts = np.vstack([origins[2:], pw[None, :]])   # 7 arm origins + wrist
    mids = 0.5 * (chain_pts[:-1] + chain_pts[1:])       # 7 consecutive midpoints
    distance_points = np.vstack(
        [origins, pp[None, :],
         np.array([t.translation for t in hand_points]),
         mids[-pads:]])

    return KinematicFrames(wrist=wrist, palm=palm, hand_points=hand_points,
                           distance_points=distance_points,
                           joint_origins=origins, joint_axes=axes)


def wrist_jacobian(spec: RobotSpec, q: np.ndarray, base_anchor: Transform) -> np.ndarray:
    """6x9 geometric Jacobian of the wrist: rows (linear 3, angular 3),
    columns base yaw, base drive, arm joints 1-7."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (spec.n_joints,):
        raise ValueError(f"joint vector must have {spec.n_joints} entries, got {q.shape}")
    _, pw, origins, axes = _wrist_chain(spec, q, base_anchor)
    return _jacobian_from_chain(pw, origins, axes)


def _jacobian_from_chain(pw, origins, axes) -> np.ndarray:
    # revolute columns: (axis x (pw - origin), axis), all 9 at once
    ax, ay, az = axes.T
    dx, dy, dz = (pw - origins).T
    j = np.empty((6, 9))
    j[0] = ay * dz - az * dy
    j[1] = az * dx - ax * dz
    j[2] = ax * dy - ay * dx
    j[3:6] = axes.T
    j[0:3, 1] = axes[1]                                  # prismatic: no angular part
    j[3:6, 1] = 0.0
    return j


# ---------------------------------------------------------------------------
# Inverse kinematics (damped least squares)
# ---------------------------------------------------------------------------

_DLS_LAMBDA = 0.05
_IK_MAX_ITERS = 50
_IK_POS_TOL = 1e-4
_IK_ROT_TOL = 1e-3
_IK_FAIL_POS = 1e-3


def ik_solve(spec: RobotSpec, q0: np.ndarray, base_anchor: Transform,
             target: Transform, fixed_base: bool = False,
             max_iters: int = _IK_MAX_ITERS, _chain=None) -> np.ndarray:
    """Damped-least-squares IK for the wrist pose.

    Returns a copy of q0 with the first 9 (base+arm) entries updated;
    effector joints are untouched. fixed_base freezes the 2 base columns.
    Raises IkNotConverged when the position residual stays above 1e-3 m.
    _chain lets the caller hand over the wrist chain it already holds for q0.
    """
    q = np.array(q0, dtype=np.float64)
    r_target = target.rotation_matrix
    cols = slice(2, 9) if fixed_base else slice(0, 9)
    damping = _DLS_LAMBDA ** 2 * np.eye(6)

    best_err = np.inf
    stalled = 0
    for _ in range(max_iters):
        if _chain is None:
            rw, pw, origins, axes = _wrist_chain(spec, q, base_anchor)
        else:
            rw, pw, origins, axes = _chain
            _chain = None
        e = np.empty(6)
        e[0:3] = target.translation - pw
        e[3:6] = matrix_to_rotvec(r_target @ rw.T)
        pos_err = float(np.linalg.norm(e[0:3]))
        rot_err = float(np.linalg.norm(e[3:6]))
        if pos_err < _IK_POS_TOL and rot_err < _IK_ROT_TOL:
            return q
        # residual stall (joint limits / unreachable target): bail out early
        # rather than limit-cycling through the full iteration budget
        if pos_err > best_err - 1e-7:
            stalled += 1
            if stalled >= 3:
                break  # pos_err already measures this q
        else:
            stalled = 0
        best_err = min(best_err, pos_err)
        j = _jacobian_from_chain(pw, origins, axes)[:, cols]
        dq = j.T @ np.linalg.solve(j @ j.T + damping, e)
        q[cols] += dq
        q[0:9] = np.clip(q[0:9], spec.joint_limits[0:9, 0], spec.joint_limits[0:9, 1])
    else:
        # Re-measure after the final update.
        _, pw, _, _ = _wrist_chain(spec, q, base_anchor)
        pos_err = float(np.linalg.norm(target.translation - pw))
    if pos_err > _IK_FAIL_POS:
        raise IkNotConverged(q, pos_err)
    return q


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def clamp_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n <= limit or n == 0.0:
        return np.asarray(v, dtype=np.float64).copy()
    return np.asarray(v, dtype=np.float64) * (limit / n)


def apply_action_with_chain(spec: RobotSpec, state: RobotState, action: np.ndarray,
                            fixed_base: bool = False):
    """apply_action core; also returns the new wrist chain so callers can
    feed it straight into forward_kinematics without recomputing."""
    d_pos = clamp_norm(action[0:3], spec.pos_step_limit)
    d_rot = clamp_norm(action[3:6], spec.rot_step_limit)
    eff_lim = spec.effector_limits()
    eff_target = np.clip(action[6:], eff_lim[:, 0], eff_lim[:, 1])

    wrist = state.wrist_pose
    target = Transform.from_matrix(wrist.translation + d_pos,
                                   rotvec_to_matrix(d_rot) @ wrist.rotation_matrix)

    ik_warning = False
    try:
        q_target = ik_solve(spec, state.q, state.base_anchor, target,
                            fixed_base=fixed_base, _chain=state.chain)
    except IkNotConverged as exc:
        q_target = exc.best_q
        ik_warning = True
    targets = q_target.copy()
    targets[9:] = eff_target
    if fixed_base:
        targets[0:2] = state.q[0:2]

    step_cap = spec.max_velocity * DT
    q_new = state.q + np.clip(targets - state.q, -step_cap, step_cap)
    q_new = spec.clamp_q(q_new)

    qdot_new = (q_new - state.q) / DT
    qddot_new = (qdot_new - state.qdot) / DT
    chain = _wrist_chain(spec, q_new, state.base_anchor)
    new_state = RobotState(
        q=q_new,
        qdot=qdot_new,
        qddot=qddot_new,
        prev_action=np.concatenate([d_pos, d_rot, eff_target]),
        wrist_pose=Transform.from_matrix(chain[1], chain[0]),
        base_anchor=state.base_anchor,
        chain=chain,
        ik_warning=ik_warning,
    )
    return new_state, chain


def apply_action(spec: RobotSpec, state: RobotState, action: np.ndarray,
                 fixed_base: bool = False) -> RobotState:
    """Advance the robot one control step of DT.

    The action is the float64 (6+D) vector [d_pos(3), d_rot(3), effector(D)].
    The wrist target is the current pose translated by the norm-clamped
    d_pos (world frame) and left-composed with the norm-clamped d_rot; IK
    yields the 9 base/arm targets and all joints move toward their targets
    rate-limited by per-joint max velocity over DT. IK failure is non-fatal
    and surfaces as ik_warning on the returned state.
    """
    new_state, _ = apply_action_with_chain(spec, state, action,
                                           fixed_base=fixed_base)
    return new_state
