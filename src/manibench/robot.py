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
from functools import cached_property

import numpy as np

from .geometry import (
    Transform,
    matrix_to_rotvec,
    rotvec_rows,
    rotvec_to_matrix,
    transform,
    vec3,
    vector_norm,
)

class IkNotConverged(RuntimeError):
    """Raised when DLS leaves a position residual above 1e-3 m.

    Carries the best-effort joint vector and the wrist chain at it; callers
    treat the wrist as best-effort and keep the episode running.
    """

    def __init__(self, best_q: np.ndarray, residual: float, chain):
        super().__init__(f"ik_not_converged (residual {residual:.2e} m)")
        self.best_q = best_q
        self.residual = residual
        self.chain = chain


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
    # class constants, not fields
    dof = 1
    n_hand_points = 3
    n_distance_points = 15

    @property
    def open_pose(self) -> np.ndarray:
        return np.array([self.joint_limits[0][1]])

    def hand_point_offsets(self, q: np.ndarray):
        """Palm-local hand points L tip, R tip, root: their (3, 3)
        translations, and None for their rotations, since the fingertips
        do not rotate."""
        half = self.tip_lateral_base + float(q[0])
        return np.array([[half, 0.0, 0.0], [-half, 0.0, 0.0],
                         [0.0, -self.knuckle_back, 0.0]]), None


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
    # class constants, not fields
    dof = 12
    n_distance_points = 22

    @property
    def n_hand_points(self) -> int:
        return len(self.fingers)

    @property
    def open_pose(self) -> np.ndarray:
        return np.zeros(self.dof)

    def hand_point_offsets(self, q: np.ndarray):
        """Palm-local fingertips: their (N, 3) translations and (N, 3, 3)
        rotation matrices. Each curl matrix is `rotvec_to_matrix(axis *
        angle)`'s floats, and one stacked product turns the tip offsets,
        with each finger's own `rot @ tip_offset` bits."""
        axes, joints, knuckles, tips = self._stacked_fingers
        q = q.tolist()
        rots = np.array([rotvec_rows(ax * q[j], ay * q[j], az * q[j])
                         for (ax, ay, az), j in zip(axes, joints)])
        return knuckles + np.matmul(rots, tips)[:, :, 0], rots

    @cached_property
    def _stacked_fingers(self):
        """The fingers' constants: curl axes as float triples, driving
        joints, knuckles (N, 3) and tip offsets as (N, 3, 1) columns."""
        return ([tuple(f.axis.tolist()) for f in self.fingers],
                [f.joint_index for f in self.fingers],
                np.array([f.knuckle for f in self.fingers]),
                np.array([f.tip_offset for f in self.fingers])[:, :, None])


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

# the arm axes the wrist chain handles, as exact float64 bytes (+0.0 only)
_COORDINATE_AXES = {row.tobytes() for row in np.eye(3)}


@dataclass(frozen=True)
class RobotSpec:
    name: str
    base_mount: Transform                 # base origin -> arm root, translation only
    arm_offsets: tuple                    # 7 parent-frame translations (Transforms)
    arm_axes: np.ndarray                  # (7, 3) joint-local +x, +y or +z
    wrist_offset: Transform               # after joint 7 -> wrist frame, translation
    palm_offset: Transform                # wrist -> palm keypoint frame, translation
    effector: GripperSpec | HandSpec
    joint_limits: np.ndarray              # (2+7+D, 2)
    max_velocity: np.ndarray              # (2+7+D,)
    home_arm_q: np.ndarray                # (7,) reset posture, elbow bent
    pos_step_limit: float = 0.02          # per-step wrist translation cap (m)
    rot_step_limit: float = 0.05          # per-step wrist rotation cap (rad)

    def __post_init__(self):
        """ValueError naming the field unless the spec is one the wrist
        chain handles: coordinate arm axes and pure-translation offsets."""
        n = 9 + self.effector.dof
        if np.shape(self.joint_limits) != (n, 2):
            raise ValueError(f"joint_limits must have shape {(n, 2)}, "
                             f"got {np.shape(self.joint_limits)}")
        if np.shape(self.max_velocity) != (n,):
            raise ValueError(f"max_velocity must have shape {(n,)}, "
                             f"got {np.shape(self.max_velocity)}")
        for i, (lo, hi) in enumerate(self.joint_limits.tolist()):
            if not lo < hi:
                raise ValueError(f"joint_limits[{i}]: lower bound {lo} is not below upper {hi}")
        if np.shape(self.arm_axes) != (7, 3) or len(self.arm_offsets) != 7:
            raise ValueError("arm_axes and arm_offsets must describe 7 arm joints")
        for i, axis in enumerate(np.asarray(self.arm_axes, dtype=np.float64)):
            if axis.tobytes() not in _COORDINATE_AXES:
                raise ValueError(f"arm_axes[{i}] must be exactly (1, 0, 0), (0, 1, 0) "
                                 f"or (0, 0, 1), got {tuple(axis.tolist())}")
        offsets = [("base_mount", self.base_mount),
                   *((f"arm_offsets[{i}]", t) for i, t in enumerate(self.arm_offsets)),
                   ("wrist_offset", self.wrist_offset), ("palm_offset", self.palm_offset)]
        for name, t in offsets:
            if not np.array_equal(t.rotation_matrix, np.eye(3)):
                raise ValueError(f"{name} must be a pure translation, "
                                 f"got rotation {tuple(t.rotation.tolist())}")

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
        return self.effector.n_distance_points

    @property
    def n_midpoint_pads(self) -> int:
        return self.n_distance_points - 10 - self.n_hand_points

    def effector_limits(self) -> np.ndarray:
        return self.joint_limits[9:]

    def clamp_q(self, q: np.ndarray) -> np.ndarray:
        cs = self._compiled
        return np.asarray(q, dtype=np.float64).clip(cs.q_lo, cs.q_hi)

    @cached_property
    def _compiled(self) -> "_CompiledSpec":
        return _CompiledSpec(self)


def _mobile_manipulator(name: str, mid_link: float, palm_y: float,
                        effector: GripperSpec | HandSpec) -> RobotSpec:
    """The shared 2-DOF base and 7-DOF arm carrying `effector`, which supplies
    the tails of the joint limits and rates. The robots differ only there, in
    the three mid-arm links' length `mid_link` and the palm offset `palm_y` (m)."""
    arm_offsets = (transform(0.0, 0.0, 0.10), transform(0.0, 0.0, 0.05),
                   *(transform(0.0, mid_link, 0.0) for _ in range(3)),
                   transform(0.0, 0.12, 0.0), transform(0.0, 0.06, 0.0))
    arm_axes = np.array([
        [0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0],
    ], dtype=np.float64)
    limits = np.array([[-np.pi, np.pi], [-3.0, 3.0]] + [[-2.9, 2.9]] * 7
                      + list(effector.joint_limits))
    vmax = np.array([1.0, 1.0] + [2.0] * 7 + [effector.max_velocity] * effector.dof)
    return RobotSpec(
        name=name,
        base_mount=transform(0.0, 0.10, 0.50),
        arm_offsets=arm_offsets,
        arm_axes=arm_axes,
        wrist_offset=transform(0.0, 0.05, 0.0),
        palm_offset=transform(0.0, palm_y, 0.0),
        effector=effector,
        joint_limits=limits,
        max_velocity=vmax,
        home_arm_q=np.array([0.0, 0.45, 0.0, -0.9, 0.0, 0.45, 0.0]),
    )


def gripper_bot() -> RobotSpec:
    """Parallel-gripper robot: D=1, 3 hand points, 15 distance points."""
    return _mobile_manipulator("gripper-bot", 0.15, 0.10, GripperSpec())


def hand_bot() -> RobotSpec:
    """Dexterous-hand robot: D=12, 5 hand points, 22 distance points."""
    hand = HandSpec(fingers=_default_hand_fingers(),
                    joint_limits=tuple([(0.0, 1.6)] * 5 + [(-0.5, 0.5)] * 7))
    return _mobile_manipulator("hand-bot", 0.16, 0.11, hand)


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
    chain: tuple                  # _wrist_chain(spec, q, base_anchor), floats
    ik_warning: bool = False


def make_initial_state(spec: RobotSpec, base_anchor: Transform,
                       arm_q: np.ndarray | None = None) -> RobotState:
    q = np.zeros(spec.n_joints)
    q[2:9] = spec.home_arm_q if arm_q is None else arm_q
    q[9:] = spec.effector.open_pose
    q = spec.clamp_q(q)
    chain = _wrist_chain(spec, q, base_anchor)
    return RobotState(
        q=q,
        qdot=np.zeros(spec.n_joints),
        qddot=np.zeros(spec.n_joints),
        prev_action=np.zeros(spec.action_dim),
        wrist_pose=_wrist_pose(chain),
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
    hand_positions: np.ndarray   # (N, 3) world positions of the hand points
    hand_rotations: np.ndarray | None   # (N, 3, 3) their world rotation
                                        # matrices; None: each is the palm's
    distance_points: np.ndarray  # (15|22, 3) world positions
    joint_origins: np.ndarray    # (9, 3) base+arm joint origins


class _CompiledSpec:
    """Per-spec constants hoisted out of the kinematics inner loops, and the
    memo of the last hand-point offsets; the spec builds one on first use
    and keeps it as `RobotSpec._compiled`."""

    def __init__(self, spec: RobotSpec):
        self.mount_t = tuple(spec.base_mount.translation.tolist())
        # per arm joint: its offset, then the index a of its axis and the
        # other two column indices b, d in cyclic order (a, b, d)
        self.arm = []
        for offset, axis in zip(spec.arm_offsets, np.asarray(spec.arm_axes).tolist()):
            a = axis.index(1.0)
            self.arm.append((tuple(offset.translation.tolist()), a, (a + 1) % 3, (a + 2) % 3))
        self.wrist_t = tuple(spec.wrist_offset.translation.tolist())
        self.palm_t = spec.palm_offset.translation
        # contiguous limit and rate arrays for ndarray.clip: the same clip as
        # np.clip on the spec's limit columns, without its wrapper's cost
        self.q_lo = spec.joint_limits[:, 0].copy()
        self.q_hi = spec.joint_limits[:, 1].copy()
        self.limits_lo, self.limits_hi = self.q_lo[0:9], self.q_hi[0:9]
        self.eff_lo, self.eff_hi = self.q_lo[9:], self.q_hi[9:]
        self.step_cap = spec.max_velocity * DT
        self.neg_step_cap = -self.step_cap
        self.effector = spec.effector
        # (effector joint bytes, hand_point_offsets at them): the last call's
        # offsets, one tuple so that threads stepping envs of one spec never
        # pair a key with another call's offsets
        self.hand_offsets = (None, None)

    def hand_point_offsets(self, q_eff: np.ndarray):
        """`effector.hand_point_offsets(q_eff)`, reused while the effector
        joints stay byte-equal to the previous call's (a pure function of
        them; callers only read the offsets)."""
        key = q_eff.tobytes()
        cached_key, offsets = self.hand_offsets
        if key != cached_key:
            offsets = self.effector.hand_point_offsets(q_eff)
            self.hand_offsets = (key, offsets)
        return offsets


def _wrist_chain(spec: RobotSpec, q: np.ndarray, anchor: Transform):
    """Shared FK core, on Python floats: at 3x3 scale the interpreter beats
    numpy's per-call overhead, and the chain runs several times per step.

    Returns (rw, pw, origins, axes): the wrist rotation as three row tuples,
    the wrist position, and lists of the 9 base/arm joint origins and world
    axes, each an (x, y, z) tuple. Callers convert to arrays once, where
    numpy consumes them (`_wrist_pose`, `forward_kinematics`).

    RobotSpec guarantees what the loop relies on: each arm joint turns about
    +x, +y or +z, and every offset is a pure translation. The rotation is
    held as three column tuples. A joint about axis a multiplies it by the
    Rodrigues matrix of e_a, whose entries are k = c + (1.0 - c) on the axis,
    c on the other diagonal, 0.0 - s and 0.0 + s on the turning plane and
    0.0 elsewhere. Each product keeps its 0.0 terms: they fix the sign of an
    entry that comes out exactly zero, so every output is bit-identical to
    the generic 3x3 product.
    """
    cs = spec._compiled
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = anchor.rotation_matrix.tolist()
    px, py, pz = anchor.translation.tolist()
    q0, q1, *arm_q = q.tolist()

    # base yaw about the anchor's z axis: R @ ((c, -s, 0), (s, c, 0), (0, 0, 1))
    c, s = math.cos(q0), math.sin(q0)
    ns = -s
    z = (r00 * 0.0 + r01 * 0.0 + r02, r10 * 0.0 + r11 * 0.0 + r12, r20 * 0.0 + r21 * 0.0 + r22)
    cols = [(r00 * c + r01 * s + r02 * 0.0, r10 * c + r11 * s + r12 * 0.0,
             r20 * c + r21 * s + r22 * 0.0),
            (r00 * ns + r01 * c + r02 * 0.0, r10 * ns + r11 * c + r12 * 0.0,
             r20 * ns + r21 * c + r22 * 0.0),
            z]
    origins = [(px, py, pz)]
    axes = [z]                              # the yaw axis, the anchor's z

    # base drive along the local y after yaw, then the arm mount
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = cols
    drive = (x0 * 0.0 + y0 + z0 * 0.0, x1 * 0.0 + y1 + z1 * 0.0, x2 * 0.0 + y2 + z2 * 0.0)
    origins.append((px, py, pz))
    axes.append(drive)
    px, py, pz = px + drive[0] * q1, py + drive[1] * q1, pz + drive[2] * q1
    tx, ty, tz = cs.mount_t
    px, py, pz = (px + (x0 * tx + y0 * ty + z0 * tz), py + (x1 * tx + y1 * ty + z1 * tz),
                  pz + (x2 * tx + y2 * ty + z2 * tz))

    for ((tx, ty, tz), a, b, d), angle in zip(cs.arm, arm_q):
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = cols
        px, py, pz = (px + (x0 * tx + y0 * ty + z0 * tz), py + (x1 * tx + y1 * ty + z1 * tz),
                      pz + (x2 * tx + y2 * ty + z2 * tz))
        origins.append((px, py, pz))
        (a0, a1, a2), (b0, b1, b2), (d0, d1, d2) = cols[a], cols[b], cols[d]
        # zero terms shared between entries: with at most two nonzero
        # terms, a sum's bits do not depend on the order of its terms
        e0, e1, e2 = b0 * 0.0 + d0 * 0.0, b1 * 0.0 + d1 * 0.0, b2 * 0.0 + d2 * 0.0
        f0, f1, f2 = a0 * 0.0, a1 * 0.0, a2 * 0.0
        axes.append((a0 + e0, a1 + e1, a2 + e2))
        c, s = math.cos(angle), math.sin(angle)
        k, sp, sn = c + (1.0 - c), 0.0 + s, 0.0 - s
        cols[a] = (a0 * k + e0, a1 * k + e1, a2 * k + e2)
        cols[b] = (f0 + b0 * c + d0 * sp, f1 + b1 * c + d1 * sp, f2 + b2 * c + d2 * sp)
        cols[d] = (f0 + b0 * sn + d0 * c, f1 + b1 * sn + d1 * c, f2 + b2 * sn + d2 * c)

    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = cols
    tx, ty, tz = cs.wrist_t
    pw = (px + (x0 * tx + y0 * ty + z0 * tz), py + (x1 * tx + y1 * ty + z1 * tz),
          pz + (x2 * tx + y2 * ty + z2 * tz))
    return ((x0, y0, z0), (x1, y1, z1), (x2, y2, z2)), pw, origins, axes


def _wrist_pose(chain) -> Transform:
    """The chain's wrist as arrays: each robot state converts once."""
    return Transform.from_matrix(np.array(chain[1]), np.array(chain[0]))


def forward_kinematics(spec: RobotSpec, q: np.ndarray,
                       base_anchor: Transform,
                       _state: RobotState | None = None) -> KinematicFrames:
    """World frames for wrist, palm, hand points, and distance points.

    _state lets the env hand over the RobotState at q, whose wrist chain and
    wrist pose are reused rather than recomputed. The hand points go
    through stacked products (`np.matmul` over the points), which give each
    point's own `rw @ t` and `rw @ R` bits.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (spec.n_joints,):
        raise ValueError(f"joint vector must have {spec.n_joints} entries, got {q.shape}")

    if _state is None:
        chain = _wrist_chain(spec, q, base_anchor)
        wrist = _wrist_pose(chain)
    else:
        chain, wrist = _state.chain, _state.wrist_pose
    _, pw_floats, origins, _ = chain
    rw, pw = wrist.rotation_matrix, wrist.translation
    cs = spec._compiled
    # the palm offset is a pure translation: the palm has the wrist's
    # rotation, matrix and rotation vector alike
    pp = pw + rw @ cs.palm_t
    palm = Transform.from_matrix(pp, rw, wrist.rotation)

    local_t, local_r = cs.hand_point_offsets(q[9:])
    hand_positions = pp + np.matmul(rw, local_t[:, :, None])[:, :, 0]
    hand_rotations = None if local_r is None else np.matmul(rw, local_r)

    # distance points: the 9 joint origins, the palm, the hand points, then
    # the last pads midpoints of consecutive arm joint origins and the wrist
    arm_pts = origins[2:] + [pw_floats]
    pads = spec.n_midpoint_pads
    mids = [(0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2]))
            for a, b in zip(arm_pts[-pads - 1:-1], arm_pts[-pads:])]
    distance_points = np.array([*origins, pp.tolist(), *hand_positions.tolist(), *mids])

    return KinematicFrames(wrist=wrist, palm=palm, hand_positions=hand_positions,
                           hand_rotations=hand_rotations,
                           distance_points=distance_points,
                           joint_origins=distance_points[0:9])


def wrist_jacobian(spec: RobotSpec, q: np.ndarray, base_anchor: Transform) -> np.ndarray:
    """6x9 geometric Jacobian of the wrist: rows (linear 3, angular 3),
    columns base yaw, base drive, arm joints 1-7."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (spec.n_joints,):
        raise ValueError(f"joint vector must have {spec.n_joints} entries, got {q.shape}")
    _, pw, origins, axes = _wrist_chain(spec, q, base_anchor)
    return _jacobian_from_chain(pw, origins, axes)


def _jacobian_from_chain(pw, origins, axes) -> np.ndarray:
    """The Jacobian from the chain's floats as one C-contiguous (6, 9) array:
    revolute columns (axis x (pw - origin), axis); column 1, the base drive,
    is prismatic (axis, 0). The layout matters: for a Fortran-ordered j,
    BLAS rounds `j.T @ x` differently."""
    wx, wy, wz = pw
    columns = []
    for (ox, oy, oz), (ax, ay, az) in zip(origins, axes):
        dx, dy, dz = wx - ox, wy - oy, wz - oz
        columns += (ay * dz - az * dy, az * dx - ax * dz, ax * dy - ay * dx, ax, ay, az)
    columns[6:12] = (*axes[1], 0.0, 0.0, 0.0)
    return np.array(columns).reshape(9, 6).T.copy()    # copy() is C order


# ---------------------------------------------------------------------------
# Inverse kinematics (damped least squares)
# ---------------------------------------------------------------------------

_DLS_LAMBDA = 0.05
_DLS_DAMPING = _DLS_LAMBDA ** 2 * np.eye(6)
_IK_MAX_ITERS = 50
_IK_POS_TOL = 1e-4
_IK_ROT_TOL = 1e-3
_IK_FAIL_POS = 1e-3


def ik_solve(spec: RobotSpec, q0: np.ndarray, base_anchor: Transform,
             target: Transform, fixed_base: bool = False, chain=None):
    """Damped-least-squares IK for the wrist pose; returns (q, chain).

    q is a copy of q0 with the 9 base/arm entries solved and the effector
    joints untouched; fixed_base freezes the 2 base columns. chain is
    `_wrist_chain(spec, q, base_anchor)` on every exit (convergence, a
    stall, the re-measure after the last iteration); the `chain` argument
    hands in the caller's chain at q0. IkNotConverged, raised when the
    position residual stays above 1e-3 m, carries the pair as `best_q` and
    `chain`.

    The residual and Jacobian are built from the chain's floats. numpy does
    the 3x3 rotation product, j @ j.T, the solve and j.T @ (...): its
    rounding there differs from Python float arithmetic, and q's last bits
    are part of the replay contract.
    """
    cs = spec._compiled
    q = np.array(q0, dtype=np.float64)
    q_body = q[0:9]
    r_target = target.rotation_matrix
    tx, ty, tz = target.translation.tolist()
    cols = slice(2, 9) if fixed_base else slice(0, 9)

    best_err = math.inf
    stalled = 0
    for _ in range(_IK_MAX_ITERS):
        if chain is None:
            chain = _wrist_chain(spec, q, base_anchor)
        rw, pw, origins, axes = chain
        rot = matrix_to_rotvec(r_target @ np.array(rw).T)
        e = np.array((tx - pw[0], ty - pw[1], tz - pw[2], *rot.tolist()))
        pos_err = vector_norm(e[0:3])
        if pos_err < _IK_POS_TOL and vector_norm(e[3:6]) < _IK_ROT_TOL:
            return q, chain
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
        dq = j.T @ np.linalg.solve(j @ j.T + _DLS_DAMPING, e)
        q[cols] += dq
        q_body.clip(cs.limits_lo, cs.limits_hi, out=q_body)
        chain = None
    else:
        # Re-measure after the final update.
        chain = _wrist_chain(spec, q, base_anchor)
        pw = chain[1]
        pos_err = vector_norm(np.array((tx - pw[0], ty - pw[1], tz - pw[2])))
    if pos_err > _IK_FAIL_POS:
        raise IkNotConverged(q, pos_err, chain)
    return q, chain


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def clamp_norm(v: np.ndarray, limit: float) -> np.ndarray:
    """v scaled down to norm `limit` if longer; always a new array."""
    v = np.asarray(v, dtype=np.float64)
    n = vector_norm(v)
    if n <= limit or n == 0.0:
        return v.copy()
    return v * (limit / n)


def apply_action_with_chain(spec: RobotSpec, state: RobotState, action: np.ndarray,
                            fixed_base: bool = False):
    """apply_action core; returns (new state, its wrist chain), the chain
    being the floats the state holds as `chain`."""
    cs = spec._compiled
    d_pos = clamp_norm(action[0:3], spec.pos_step_limit)
    d_rot = clamp_norm(action[3:6], spec.rot_step_limit)
    eff_target = action[6:].clip(cs.eff_lo, cs.eff_hi)

    wrist = state.wrist_pose
    target = Transform.from_matrix(wrist.translation + d_pos,
                                   rotvec_to_matrix(d_rot) @ wrist.rotation_matrix)

    ik_warning = False
    try:
        q_target, chain = ik_solve(spec, state.q, state.base_anchor, target,
                                   fixed_base=fixed_base, chain=state.chain)
    except IkNotConverged as exc:
        q_target, chain = exc.best_q, exc.chain
        ik_warning = True
    # the chain at IK's q serves the new state while the rate limit and the
    # joint clip leave the 9 base/arm entries, all the chain reads, as IK
    # set them (bit for bit)
    ik_body = q_target[0:9].tobytes()
    # q_target is ik_solve's own copy: it becomes the step, in place
    q_target[9:] = eff_target
    if fixed_base:
        q_target[0:2] = state.q[0:2]
    q_target -= state.q
    q_target.clip(cs.neg_step_cap, cs.step_cap, out=q_target)
    q_new = state.q + q_target
    q_new.clip(cs.q_lo, cs.q_hi, out=q_new)

    qdot_new = (q_new - state.q) / DT
    qddot_new = (qdot_new - state.qdot) / DT
    if q_new[0:9].tobytes() != ik_body:
        chain = _wrist_chain(spec, q_new, state.base_anchor)
    new_state = RobotState(
        q=q_new,
        qdot=qdot_new,
        qddot=qddot_new,
        prev_action=np.concatenate([d_pos, d_rot, eff_target]),
        wrist_pose=_wrist_pose(chain),
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
