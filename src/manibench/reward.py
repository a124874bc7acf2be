"""Keypoint-distance reward shaping with a grasp-flag gate.

The per-step reward is

    total = r_d + (1 - f_g) * r_a + f_g * (r_g + r_m + r_s)

where r_d penalizes mean hand-point-to-grasp and grasp-to-goal Chamfer
distances, f_g indicates the hand is on the grasp point (mean distance below
GRASP_THRESHOLD), r_a supervises a reference approach action before the
grasp, and r_g / r_m / r_s pay a grasp bonus, supervise the move toward the
goal, and pay a success bonus (grasp point within SUCCESS_THRESHOLD of the
goal) after it. The thresholds are fixed constants, not settings; the env
attaches and succeeds by the same ones and takes its flag from `f_g`.

All terms are computed unconditionally; only `total` applies the gate, so the
algebraic identity above holds exactly for every snapshot.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import (
    point_distance,
    points_to_point_distances,
    rotvec_difference,
    vector_norm,
)

GRASP_THRESHOLD = 0.1     # m, mean hand-point distance for the grasp flag
SUCCESS_THRESHOLD = 0.05  # m, grasp-to-goal distance for success


@dataclass(frozen=True)
class RewardWeights:
    distance: float = 1.0      # omega_d
    approach: float = 0.2      # omega_a
    grasp: float = 1.0         # omega_g
    move: float = 0.2          # omega_m
    success: float = 2.0       # omega_s
    # read-only views of the module constants, not fields
    grasp_threshold: ClassVar[float] = GRASP_THRESHOLD
    success_threshold: ClassVar[float] = SUCCESS_THRESHOLD

    def __post_init__(self):
        for name in ("distance", "approach", "grasp", "move", "success"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"reward weight {name} must be >= 0, got {getattr(self, name)}")


@dataclass
class RewardTerms:
    r_d: float
    r_a: float
    r_g: float
    r_m: float
    r_s: float
    f_g: bool
    total: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r_d, self.r_a, self.r_g, self.r_m, self.r_s, self.total])


@dataclass
class RewardSnapshot:
    """State slice the reward depends on, all in the world frame."""

    hand_points: np.ndarray        # (N, 3) effector keypoints
    palm_position: np.ndarray      # (3,)
    palm_rotation: np.ndarray      # (3,) rotation vector
    palm_rotation_init: np.ndarray # (3,) palm rotation at reset
    effector_init: np.ndarray      # (D,) effector joints at reset
    grasp_point: np.ndarray        # (3,)
    goal_point: np.ndarray         # (3,)


def mean_hand_distance(hand_points: np.ndarray, grasp: np.ndarray) -> float:
    """(1/N) sum_i CD({hand_i}, {grasp}); singleton chamfer = point distance.
    The mean is `ndarray.mean`'s own arithmetic (one sum, then one division
    by the count) without its wrapper's per-call cost."""
    hand_points = np.atleast_2d(hand_points)
    if hand_points.shape[0] == 0:
        raise ValueError("empty point set")
    return float(points_to_point_distances(hand_points, grasp).sum() / hand_points.shape[0])


def reference_approach_action(palm_position: np.ndarray, palm_rotation: np.ndarray,
                              palm_rotation_init: np.ndarray, grasp: np.ndarray,
                              effector_init: np.ndarray, *,
                              init_matrix: np.ndarray | None = None) -> np.ndarray:
    """Reference pre-grasp action: reach the grasp point, hold the initial
    palm rotation, keep the effector at its initial (open) joints.

    The rotation slot is the group-consistent difference rotvec(R_init R^-1),
    not a componentwise subtraction of rotation vectors. `init_matrix`,
    when given, is `rotvec_to_matrix(palm_rotation_init)`.
    """
    out = np.empty(6 + len(effector_init))
    out[0:3] = grasp - palm_position
    out[3:6] = rotvec_difference(palm_rotation_init, palm_rotation,
                                 target_matrix=init_matrix)
    out[6:] = effector_init
    return out


def reward_approach(action: np.ndarray, reference: np.ndarray, weight: float) -> float:
    """-w * ||a - a_ref|| over all 6+D components."""
    action = np.asarray(action, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if action.shape != reference.shape:
        raise ValueError(f"action/reference shape mismatch: {action.shape} vs {reference.shape}")
    return -weight * vector_norm(action - reference)


def reward_move(action: np.ndarray, palm_position: np.ndarray, goal: np.ndarray,
                weight: float) -> float:
    """-w * ||a[0:3] - (goal - palm)||; rotation/effector slots do not enter."""
    action = np.asarray(action, dtype=np.float64)
    return -weight * vector_norm(action[0:3] - (goal - palm_position))


def reward_success(grasp: np.ndarray, goal: np.ndarray, weight: float, *,
                   goal_distance: float | None = None) -> float:
    """w * 1[|goal - grasp| < SUCCESS_THRESHOLD], strict inequality.
    `goal_distance`, when given, is `point_distance(goal, grasp)`."""
    if goal_distance is None:
        goal_distance = point_distance(goal, grasp)
    return weight if goal_distance < SUCCESS_THRESHOLD else 0.0


def total_reward(snapshot: RewardSnapshot, action: np.ndarray,
                 weights: RewardWeights, *, hand_distance: float | None = None,
                 goal_distance: float | None = None,
                 reference_action: np.ndarray | None = None) -> RewardTerms:
    """Compose every term and apply the grasp-flag gate.

    A caller that already holds the snapshot's mean hand distance
    (`mean_hand_distance(hand_points, grasp_point)`), grasp-to-goal
    distance (`point_distance(grasp_point, goal_point)`, the same bits in
    either argument order) or reference approach action
    (`reference_approach_action` of the snapshot's palm, grasp and initial
    values) passes it instead of having it computed again; the terms are
    the same bits either way.
    """
    action = np.asarray(action, dtype=np.float64)
    # the grasp flag and r_d share one mean hand distance, r_d and r_s one
    # grasp-to-goal distance
    if hand_distance is None:
        hand_distance = mean_hand_distance(snapshot.hand_points, snapshot.grasp_point)
    if goal_distance is None:
        goal_distance = point_distance(snapshot.goal_point, snapshot.grasp_point)
    f_g = hand_distance < GRASP_THRESHOLD
    r_d = -weights.distance * (hand_distance + goal_distance)
    if reference_action is None:
        reference_action = reference_approach_action(
            snapshot.palm_position, snapshot.palm_rotation,
            snapshot.palm_rotation_init, snapshot.grasp_point, snapshot.effector_init)
    r_a = reward_approach(action, reference_action, weights.approach)
    r_g = weights.grasp
    r_m = reward_move(action, snapshot.palm_position, snapshot.goal_point,
                      weights.move)
    r_s = reward_success(snapshot.grasp_point, snapshot.goal_point, weights.success,
                         goal_distance=goal_distance)
    gate = 1.0 if f_g else 0.0
    total = r_d + (1.0 - gate) * r_a + gate * (r_g + r_m + r_s)
    return RewardTerms(r_d=r_d, r_a=r_a, r_g=r_g, r_m=r_m, r_s=r_s,
                       f_g=f_g, total=total)
