"""Flat observation vector: five blocks, 146-d (gripper) / 223-d (hand).

Block layout, in order:
  time                30   sine-cosine episode-time embedding, 15 frequencies
  object_state         9   grasp point (3) + movable-part rotation vector (3)
                           + goal point (3)
  proprioception  78|135   palm pos/rot/linvel/angvel (12); fingertip
                           positions, rotations, linear and angular
                           velocities grouped by quantity (N*12);
                           joint angles/velocities/accelerations (3*(2+7+D))
  distance        22|31    palm-to-grasp distance (1), fingertip-to-grasp
                           distances (N), distance-point-to-grasp distances
                           (15|22), palm-to-grasp displacement (3)
  previous_action   6+D

Positions are world-frame; velocities are finite differences of consecutive
frames over the fixed control step `robot.DT` (zero on the first frame after
reset). No normalization or whitening is applied, so offline recomputation
from recorded states is bit-exact.

The observation is this float64 vector end to end: `Env.reset`/`Env.step`
return it, the policy, PPO's rollout batch and the `.mmt` writer read it.
Its block layout belongs to the env (`Env.layout`); `assemble` is the one
place that checks the vector's length against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .geometry import matrix_to_rotvec, points_to_point_distances
from .robot import DT, KinematicFrames, RobotSpec

if TYPE_CHECKING:
    from .env import Env

_N_FREQUENCIES = 15


@dataclass(frozen=True)
class ObservationLayout:
    robot_name: str
    blocks: tuple  # ((name, size), ...) in vector order

    @property
    def total(self) -> int:
        return sum(size for _, size in self.blocks)

    def slices(self) -> dict:
        out, offset = {}, 0
        for name, size in self.blocks:
            out[name] = slice(offset, offset + size)
            offset += size
        return out

    def block(self, values: np.ndarray, name: str) -> np.ndarray:
        return values[self.slices()[name]]

    def to_dict(self) -> dict:
        return {"robot": self.robot_name, "total": self.total,
                "blocks": [[name, size] for name, size in self.blocks]}

    @staticmethod
    def for_robot(spec: RobotSpec) -> "ObservationLayout":
        n, d, j = spec.n_hand_points, spec.dof_effector, spec.n_joints
        return ObservationLayout(
            robot_name=spec.name,
            blocks=(
                ("time", 2 * _N_FREQUENCIES),
                ("object_state", 9),
                ("proprioception", 12 + 12 * n + 3 * j),
                ("distance", 1 + n + spec.n_distance_points + 3),
                ("previous_action", 6 + d),
            ),
        )


def check_policy_obs_dim(policy, spec: RobotSpec) -> None:
    """ValueError unless a policy with an `obs_dim` reads this robot's width."""
    obs_dim = ObservationLayout.for_robot(spec).total
    if getattr(policy, "obs_dim", obs_dim) != obs_dim:
        raise ValueError(
            f"policy expects obs dim {policy.obs_dim}, robot {spec.name} produces {obs_dim}")


def time_embedding(t: int, max_steps: int) -> np.ndarray:
    """15 interleaved (sin, cos) pairs of 2*pi*k*t/T for k = 1..15; a new
    array on every call."""
    if not 0 <= t <= max_steps:
        raise ValueError(f"t={t} outside [0, {max_steps}]")
    tau = t / max_steps
    k = np.arange(1, _N_FREQUENCIES + 1)
    phase = 2.0 * np.pi * k * tau
    out = np.empty(2 * _N_FREQUENCIES)
    out[0::2] = np.sin(phase)
    out[1::2] = np.cos(phase)
    return out


@lru_cache(maxsize=1024)
def _time_block(t: int, max_steps: int) -> np.ndarray:
    """`time_embedding(t, max_steps)`, memoized and read-only: a pure
    function of (t, max_steps) that every step of every episode repeats.
    Bounded, since an episode length is a setting."""
    block = time_embedding(t, max_steps)
    block.flags.writeable = False
    return block


def _frame_velocities(frames: KinematicFrames, prev: KinematicFrames | None):
    """Finite-difference palm/fingertip velocities over one control step
    `DT`; zeros with no history. Angular velocities are
    rotvec(R_t @ R_{t-1}^T) / DT, the world-frame rotation over one step;
    hand points without rotations of their own (gripper fingertips) take
    the palm's."""
    n = len(frames.hand_positions)
    if prev is None:
        return np.zeros(3), np.zeros(3), np.zeros((n, 3)), np.zeros((n, 3))
    palm_v = (frames.palm.translation - prev.palm.translation) / DT
    palm_w = matrix_to_rotvec(
        frames.palm.rotation_matrix @ prev.palm.rotation_matrix.T) / DT
    tips_v = (frames.hand_positions - prev.hand_positions) / DT
    if frames.hand_rotations is None:
        tips_w = np.empty((n, 3))
        tips_w[:] = palm_w
    else:
        # one stacked product, with each fingertip's own R_t @ R_{t-1}^T bits
        turns = np.matmul(frames.hand_rotations, prev.hand_rotations.transpose(0, 2, 1))
        tips_w = np.array([matrix_to_rotvec(turn) for turn in turns]) / DT
    return palm_v, palm_w, tips_v, tips_w


def _hand_point_rotations(frames: KinematicFrames) -> list:
    """Rotation vectors of the hand points; the palm's for points without
    rotations of their own."""
    if frames.hand_rotations is None:
        return [frames.palm.rotation] * len(frames.hand_positions)
    return [matrix_to_rotvec(r) for r in frames.hand_rotations]


def assemble(layout: ObservationLayout, *, t: int, max_steps: int,
             grasp: np.ndarray, movable_rotation: np.ndarray, goal: np.ndarray,
             frames: KinematicFrames, prev_frames: KinematicFrames | None,
             q: np.ndarray, qdot: np.ndarray, qddot: np.ndarray,
             prev_action: np.ndarray) -> np.ndarray:
    """Build the observation vector from explicit state pieces
    (offline-replayable); ValueError unless it has `layout.total` entries."""
    palm_v, palm_w, tips_v, tips_w = _frame_velocities(frames, prev_frames)
    palm = frames.palm
    # distance points 9 and 10..10+N are the palm and the hand points: their
    # rows are the palm and fingertip distances, by point_distance's arithmetic
    point_distances = points_to_point_distances(frames.distance_points, grasp)

    parts = [
        _time_block(t, max_steps),
        grasp, movable_rotation, goal,
        palm.translation, palm.rotation, palm_v, palm_w,
        frames.hand_positions.ravel(),
        *_hand_point_rotations(frames),
        tips_v.ravel(), tips_w.ravel(),
        q, qdot, qddot,
        point_distances[9:10 + len(frames.hand_positions)],
        point_distances,
        grasp - palm.translation,
        prev_action,
    ]
    values = np.concatenate(parts, dtype=np.float64)   # a new array
    if values.shape != (layout.total,):
        raise ValueError(
            f"observation assembled {values.shape[0]} entries, layout wants {layout.total}")
    return values


def build_observation(env: "Env") -> np.ndarray:
    """Observation vector for the environment's current state."""
    return assemble(
        env.layout,
        t=env.t,
        max_steps=env.config.max_steps,
        grasp=env.grasp,
        movable_rotation=env.movable_rotation(),
        goal=env.task.goal_point,
        frames=env.frames,
        prev_frames=env.prev_frames,
        q=env.robot.q,
        qdot=env.robot.qdot,
        qddot=env.robot.qddot,
        prev_action=env.robot.prev_action,
    )
