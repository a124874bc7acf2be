"""Episode lifecycle: randomized reset, stepping, attachment, success.

Reset places the object so its grasp point starts at x = y = 0 facing -y
(tabletop families get a height drawn from `OBJECT_HEIGHT_RANGE`), sets its
joint (`OPEN_INIT_ANGLE` above the lower limit to open, a fraction drawn from
`CLOSE_INIT_RANGE` of the range to close), then places the robot base in
front of it, facing the grasp point, with sampled positional offsets and a
yaw perturbation drawn from +-`YAW_RANGE`. These four constants fix the
reset distribution; only the base offsets are settable. Stepping advances
the robot, attaches/follows/detaches the object kinematically, and pays the
shaped reward from the post-step state. The env owns the current grasp point
(`Env.grasp`, moved only while the object is held) and takes the grasp flag
from the reward's terms; attach and success use the reward module's fixed
thresholds.

The action is the float64 (6+D) vector [d_pos(3), d_rot(3), effector(D)]
from the policy through the robot and the reward to the recorded file. One
control step lasts `robot.DT` = 1 / `robot.FRAME_RATE`, fixed, not a setting.
The observation is the float64 vector that `observation.build_observation`
builds, fresh on every reset and step; its layout is `Env.layout`.
`run_episode` is the one episode loop: evaluation, recording, replay and the
scripted runner all step an `Env` through it (PPO's lockstep auto-resetting
slots step `Env.step` directly).

All randomness flows through counter-based Philox streams keyed by
(seed, episode, stream), so episodes are bit-reproducible regardless of
execution order or worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import observation as obs_mod
from .geometry import Transform, point_distance, rotvec_to_matrix, vec3
from .reward import (
    GRASP_THRESHOLD,
    SUCCESS_THRESHOLD,
    RewardSnapshot,
    RewardWeights,
    mean_hand_distance,
    reference_approach_action,
    total_reward,
)
from .robot import (
    RobotSpec,
    apply_action_with_chain,
    forward_kinematics,
    make_initial_state,
)
from .world import (
    FREE,
    TaskSpec,
    attach,
    detach,
    goal_point,
    grasp_point,
    initial_state,
    movable_frame,
    object_follow,
    validate_skill,
)

# Philox stream ids within an episode
STREAM_OBJECT = 0
STREAM_JOINT = 1
STREAM_BASE = 2
STREAM_ACTION = 3

_MASK64 = (1 << 64) - 1

_DEFAULT_OFFSETS = (1.0, 1.5)
_FIXED_BASE_OFFSETS = (0.5, 1.0)
# the fixed reset distribution
YAW_RANGE = math.radians(15.0)        # base yaw perturbation, +- radians
OBJECT_HEIGHT_RANGE = (0.2, 0.7)      # tabletop object height, metres
OPEN_INIT_ANGLE = math.radians(10.0)  # revolute "open" start above the lower limit
CLOSE_INIT_RANGE = (0.4, 0.8)         # "close" start, fraction of the joint range


class EpisodeFinished(RuntimeError):
    pass


def episode_rng(seed: int, episode: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, episode, stream)."""
    key = np.array([seed & _MASK64, ((episode << 8) | stream) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EpisodeConfig:
    seed: int = 0
    max_steps: int = 300
    base_offset_range: tuple | None = None   # None: (1.0,1.5), fixed-base (0.5,1.0)
    fixed_base: bool = False
    # read-only views of the reward module's constants, not fields
    grasp_threshold: ClassVar[float] = GRASP_THRESHOLD
    success_threshold: ClassVar[float] = SUCCESS_THRESHOLD

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        rng = self.base_offset_range
        if rng is not None and not (len(rng) == 2 and rng[0] <= rng[1]):
            raise ValueError(f"base_offset_range must be (low, high) with low <= high, got {rng}")

    @property
    def effective_offsets(self) -> tuple:
        if self.base_offset_range is not None:
            return self.base_offset_range
        return _FIXED_BASE_OFFSETS if self.fixed_base else _DEFAULT_OFFSETS


def _initial_joint_value(obj, skill: str, rng: np.random.Generator) -> float:
    if not obj.articulated:
        return 0.0
    lo, hi = obj.joint_range
    if skill == "open":
        if obj.kind == "revolute":
            return min(lo + OPEN_INIT_ANGLE, hi)
        # prismatic "10 degree equivalent": 10/90 of the range
        return lo + (10.0 / 90.0) * (hi - lo)
    if skill == "close":
        frac = rng.uniform(CLOSE_INIT_RANGE[0], CLOSE_INIT_RANGE[1])
        return lo + frac * (hi - lo)
    return lo


class Env:
    """Single episode owner; construct once per task, reset per episode."""

    def __init__(self, config: EpisodeConfig, task: TaskSpec, robot_spec: RobotSpec):
        validate_skill(task.object, task.skill)
        self.config = config
        self.robot_spec = robot_spec
        self.layout = obs_mod.ObservationLayout.for_robot(robot_spec)
        self._template = task
        self.episode = -1
        self.t = 0
        self.done = True  # must reset before stepping
        self._movable = (None, None)   # (object state, its movable-part rotation)

    # ------------------------------------------------------------------
    # reset
    # ------------------------------------------------------------------

    def reset(self, episode: int = 0) -> np.ndarray:
        config = self.config
        skill = self._template.skill
        template = self._template.object
        rng_obj = episode_rng(config.seed, episode, STREAM_OBJECT)
        rng_joint = episode_rng(config.seed, episode, STREAM_JOINT)
        rng_base = episode_rng(config.seed, episode, STREAM_BASE)

        # Object: sample height (tabletop), set the initial joint, then place
        # so the grasp point starts at the world origin in x-y.
        height = float(rng_obj.uniform(*OBJECT_HEIGHT_RANGE)) if template.tabletop else 0.0
        q_init = _initial_joint_value(template, skill, rng_joint)
        probe = initial_state(template, q_init)
        g_local = grasp_point(template, probe)
        placed = template.placed_at(
            Transform(vec3(-g_local[0], -g_local[1], height), np.zeros(3)))
        self.object_state = initial_state(placed, q_init)

        # Robot base: in front of the object (-y side), facing the grasp
        # point, with per-axis offsets and a yaw perturbation.
        lo, hi = config.effective_offsets
        dx = float(rng_base.uniform(lo, hi)) * (1.0 if rng_base.uniform() < 0.5 else -1.0)
        dy = -float(rng_base.uniform(lo, hi))
        yaw_perturb = float(rng_base.uniform(-YAW_RANGE, YAW_RANGE))
        self.grasp = grasp_point(placed, self.object_state)
        heading = np.array([self.grasp[0] - dx, self.grasp[1] - dy])
        heading = heading / np.linalg.norm(heading)
        yaw = float(np.arctan2(-heading[0], heading[1])) + yaw_perturb
        anchor = Transform(vec3(dx, dy, 0.0), vec3(0.0, 0.0, yaw))
        self.robot = make_initial_state(self.robot_spec, anchor)

        self.frames = forward_kinematics(self.robot_spec, self.robot.q, anchor,
                                         _state=self.robot)
        self.prev_frames = None
        self.palm_rotation_init = self.frames.palm.rotation.copy()
        self._palm_matrix_init = rotvec_to_matrix(self.palm_rotation_init)
        self.effector_init = self.robot.q[9:].copy()
        self._reference = None   # computed on first read

        goal = goal_point(TaskSpec(object=placed, skill=skill), self.object_state,
                          robot_base_xy=np.array([dx, dy]))
        self.task = TaskSpec(object=placed, skill=skill, goal_point=goal)

        self.episode = episode
        self.t = 0
        self.success = False
        self.done = False
        self.ik_warning = False
        return obs_mod.build_observation(self)

    # ------------------------------------------------------------------
    # step
    # ------------------------------------------------------------------

    def step(self, action, weights: RewardWeights | None = None):
        """Advance one control step; returns (obs vector, reward, done, info)."""
        if self.done:
            raise EpisodeFinished("episode finished")
        weights = weights or RewardWeights()
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.robot_spec.action_dim,):
            raise ValueError(f"action must have shape ({self.robot_spec.action_dim},), "
                             f"got {action.shape}")
        values = action.tolist()
        if not all(map(math.isfinite, values)):
            i = [math.isfinite(v) for v in values].index(False)
            raise ValueError(f"action[{i}] is {values[i]}, must be finite")

        self.robot, _ = apply_action_with_chain(
            self.robot_spec, self.robot, action, fixed_base=self.config.fixed_base)
        self.prev_frames = self.frames
        self.frames = forward_kinematics(self.robot_spec, self.robot.q,
                                         self.robot.base_anchor, _state=self.robot)
        palm = self.frames.palm
        tips = self.frames.hand_positions
        obj = self.task.object

        # Attach when the hand reaches the grasp point, follow while held,
        # detach when the post-step grasp flag drops (no latch). Only a held
        # object moves, so only then does the grasp point change; while it
        # stays, the reward reuses the attach test's mean hand distance.
        state = self.object_state
        hand_distance = None
        if not state.attached:
            hand_distance = mean_hand_distance(tips, self.grasp)
            if hand_distance < GRASP_THRESHOLD:
                state = attach(obj, state, palm)
        if state.attached:
            state = object_follow(obj, state, palm)
            self.grasp = grasp_point(obj, state)
            hand_distance = None
        # the grasp point is final for this step: detach does not move it
        goal_distance = point_distance(self.grasp, self.task.goal_point)
        self._reference = None   # the palm and the grasp point are final too

        terms = total_reward(
            RewardSnapshot(
                hand_points=tips,
                palm_position=palm.translation,
                palm_rotation=palm.rotation,
                palm_rotation_init=self.palm_rotation_init,
                effector_init=self.effector_init,
                grasp_point=self.grasp,
                goal_point=self.task.goal_point,
            ),
            action, weights, hand_distance=hand_distance, goal_distance=goal_distance,
            reference_action=self.reference_action())
        f_g = terms.f_g
        if state.attached and not f_g:
            state = detach(state)  # moves neither the hand nor the grasp point
        self.object_state = state

        success_now = goal_distance < SUCCESS_THRESHOLD
        if obj.kind == FREE:
            success_now = success_now and f_g  # unattached free objects can't count
        self.t += 1
        self.success = self.success or success_now
        self.done = success_now or self.t >= self.config.max_steps
        self.ik_warning = self.ik_warning or self.robot.ik_warning

        info = {
            "terms": terms,
            "f_g": f_g,
            "grasp_point": self.grasp,
            "goal_distance": goal_distance,
            "success": success_now,
            "ik_warning": self.robot.ik_warning,
            "attached": state.attached,
        }
        return obs_mod.build_observation(self), terms.total, self.done, info

    def reference_action(self) -> np.ndarray:
        """The reward's reference approach action at the current state: the
        palm, the grasp point and the episode's initial values. A step
        computes it once for its reward; after a reset it is computed on
        first read. The env keeps the array: callers must not write into it."""
        if self._reference is None:
            palm = self.frames.palm
            self._reference = reference_approach_action(
                palm.translation, palm.rotation, self.palm_rotation_init, self.grasp,
                self.effector_init, init_matrix=self._palm_matrix_init)
        return self._reference

    def movable_rotation(self) -> np.ndarray:
        """Rotation vector of the object's movable part. Object states are
        replaced, never changed in place, so it is recomputed only when
        `object_state` is a new one (a step that leaves the object alone
        keeps it)."""
        state, rotation = self._movable
        if state is not self.object_state:
            rotation = movable_frame(self.task.object, self.object_state).rotation
            self._movable = (self.object_state, rotation)
        return rotation


def run_episode(env: Env, act, episode: int, weights: RewardWeights | None = None):
    """The one episode loop: reset `env` to `episode`, then step it with
    `act(obs, env)` until the episode is done, yielding
    (action, obs, info) after every step."""
    obs = env.reset(episode)
    while not env.done:
        action = np.asarray(act(obs, env), dtype=np.float64)
        obs, _, _, info = env.step(action, weights)
        yield action, obs, info
