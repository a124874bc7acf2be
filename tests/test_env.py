import dataclasses
import re

import numpy as np
import pytest

from manibench import geometry as geo
from manibench import world as w
from manibench.control import ScriptedController, run_scripted_episode
from manibench.dataset import record_rollout, replay_trajectory
from manibench.env import (
    CLOSE_INIT_RANGE,
    OBJECT_HEIGHT_RANGE,
    OPEN_INIT_ANGLE,
    YAW_RANGE,
    Env,
    EpisodeConfig,
    EpisodeFinished,
    episode_rng,
    run_episode,
)
from manibench.reward import (
    GRASP_THRESHOLD,
    SUCCESS_THRESHOLD,
    RewardSnapshot,
    RewardWeights,
    mean_hand_distance,
    reference_approach_action,
    total_reward,
)
from manibench.rl import evaluate
from manibench.robot import DT, FRAME_RATE, _wrist_chain, gripper_bot, hand_bot, make_robot


def make_env(object_name="laptop", skill="open", robot=None, **cfg):
    config = EpisodeConfig(**cfg)
    return Env(config, w.make_task(object_name, skill), robot or gripper_bot())


# ---------------------------------------------------------------------------
# reset
# ---------------------------------------------------------------------------

def test_reset_same_seed_bit_identical():
    e1, e2 = make_env(seed=7), make_env(seed=7)
    o1, o2 = e1.reset(3), e2.reset(3)
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(e1.robot.q, e2.robot.q)
    np.testing.assert_array_equal(e1.task.goal_point, e2.task.goal_point)
    assert e1.object_state.joint_value == e2.object_state.joint_value


@pytest.mark.parametrize("robot", ["gripper-bot", "hand-bot"])
def test_reset_and_step_return_a_fresh_float64_vector(robot):
    env = Env(EpisodeConfig(seed=0, max_steps=4), w.make_task("laptop", "open"),
              make_robot(robot))
    seen = [env.reset(0)]
    while not env.done:
        seen.append(env.step(np.zeros(env.robot_spec.action_dim))[0])
    for obs in seen:
        assert type(obs) is np.ndarray and obs.dtype == np.float64
        assert obs.shape == (env.layout.total,)
    assert len({id(obs) for obs in seen}) == len(seen) == 5


def test_reset_distribution_is_fixed_not_config_fields():
    for name in ("yaw_range", "object_height_range", "open_init_angle", "close_init_range"):
        with pytest.raises(TypeError, match=name):
            EpisodeConfig(**{name: 0.1})
        assert not hasattr(EpisodeConfig(), name)
    assert [f.name for f in dataclasses.fields(EpisodeConfig)] == [
        "seed", "max_steps", "base_offset_range", "fixed_base"]
    assert (YAW_RANGE, OPEN_INIT_ANGLE) == (np.deg2rad(15.0), np.deg2rad(10.0))
    assert (OBJECT_HEIGHT_RANGE, CLOSE_INIT_RANGE) == ((0.2, 0.7), (0.4, 0.8))


def test_reset_different_episodes_differ():
    env = make_env(seed=7)
    o1 = env.reset(0)
    o2 = env.reset(1)
    assert not np.array_equal(o1, o2)


def test_grasp_point_starts_at_origin_xy():
    for name, skill in [("laptop", "open"), ("table", "close"), ("cart", "push"),
                        ("holistic", "pick"), ("faucet", "open")]:
        env = make_env(name, skill, seed=11)
        env.reset(0)
        g = w.grasp_point(env.task.object, env.object_state)
        np.testing.assert_allclose(g[0:2], [0.0, 0.0], atol=1e-12)


def test_tabletop_height_sampled_in_range():
    env = make_env("holistic", "pick", seed=5)
    heights = []
    for ep in range(20):
        env.reset(ep)
        heights.append(env.task.object.base_pose.translation[2])
    heights = np.array(heights)
    assert np.all((heights >= 0.2) & (heights <= 0.7))
    assert heights.std() > 0.05


def test_base_offsets_in_mobile_range():
    env = make_env(seed=3)
    for ep in range(20):
        env.reset(ep)
        bx, by, _ = env.robot.base_anchor.translation
        assert 1.0 <= abs(bx) <= 1.5
        assert 1.0 <= -by <= 1.5


def test_fixed_base_offsets_closer():
    env = make_env(seed=3, fixed_base=True)
    for ep in range(20):
        env.reset(ep)
        bx, by, _ = env.robot.base_anchor.translation
        assert 0.5 <= abs(bx) <= 1.0
        assert 0.5 <= -by <= 1.0


def test_close_task_initial_fraction_open():
    env = make_env("laptop", "close", seed=9)
    lo, hi = env._template.object.joint_range
    for ep in range(20):
        env.reset(ep)
        frac = (env.object_state.joint_value - lo) / (hi - lo)
        assert 0.4 <= frac <= 0.8


def test_open_task_starts_ten_degrees():
    env = make_env("laptop", "open", seed=9)
    env.reset(0)
    assert env.object_state.joint_value == pytest.approx(np.deg2rad(10.0))


def test_goal_frozen_at_reset():
    env = make_env("laptop", "open", seed=1)
    env.reset(0)
    goal0 = env.task.goal_point.copy()
    for _ in range(5):
        env.step(np.zeros(7))
    np.testing.assert_array_equal(env.task.goal_point, goal0)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_zero_actions_time_out_without_success():
    env = make_env(seed=2, max_steps=50)
    env.reset(0)
    done = False
    steps = 0
    while not done:
        _, _, done, info = env.step(np.zeros(7))
        steps += 1
        assert not info["f_g"]  # robot starts >= 1 m away
    assert steps == 50
    assert not env.success


def test_step_after_done_raises():
    env = make_env(seed=2, max_steps=2)
    env.reset(0)
    env.step(np.zeros(7))
    env.step(np.zeros(7))
    with pytest.raises(EpisodeFinished, match="episode finished"):
        env.step(np.zeros(7))


def test_step_reward_matches_terms():
    env = make_env(seed=4)
    env.reset(0)
    weights = RewardWeights()
    _, reward, _, info = env.step(np.zeros(7), weights)
    assert reward == info["terms"].total
    gate = 1.0 if info["terms"].f_g else 0.0
    t = info["terms"]
    assert t.total == t.r_d + (1 - gate) * t.r_a + gate * (t.r_g + t.r_m + t.r_s)


def test_flag_transitions_when_hand_reaches_grasp():
    env = make_env("laptop", "open", seed=6)
    env.reset(0)
    controller = ScriptedController()
    prev_flag = False
    transition_checked = False
    for _ in range(300):
        if env.done:
            break
        _, _, _, info = env.step(controller.action_for(env))
        # recompute the indicator from the post-step state
        recomputed = mean_hand_distance(
            env.frames.hand_positions,
            w.grasp_point(env.task.object, env.object_state)) < env.config.grasp_threshold
        assert info["f_g"] == recomputed
        if info["f_g"] and not prev_flag:
            transition_checked = True
        prev_flag = info["f_g"]
    assert transition_checked


def test_scripted_episode_succeeds_on_lid_open():
    env = make_env("laptop", "open", seed=0)
    result = run_scripted_episode(env, episode=0)
    assert result["success"]
    assert result["steps"] < 300


@pytest.mark.parametrize("name,skill", [("table", "open"), ("holistic", "pick"),
                                        ("cart", "push"), ("cart", "pull"),
                                        ("laptop", "close"), ("cabinet", "open"),
                                        ("faucet", "open")])
def test_scripted_episode_succeeds_across_tasks(name, skill):
    env = make_env(name, skill, seed=1)
    result = run_scripted_episode(env, episode=0)
    assert result["success"], f"{skill} {name} failed"


def test_success_implies_goal_distance_below_threshold():
    env = make_env("laptop", "open", seed=8)
    env.reset(0)
    controller = ScriptedController()
    final_info = None
    while not env.done:
        _, _, _, final_info = env.step(controller.action_for(env))
    assert env.success
    assert final_info["goal_distance"] < env.config.success_threshold


def test_attachment_respects_joint_range():
    env = make_env("laptop", "open", seed=10)
    env.reset(0)
    controller = ScriptedController()
    lo, hi = env.task.object.joint_range
    while not env.done:
        env.step(controller.action_for(env))
        assert lo <= env.object_state.joint_value <= hi


def test_free_object_offset_preserved_while_attached():
    from manibench import geometry as geo

    env = make_env("holistic", "pick", seed=12)
    env.reset(0)
    controller = ScriptedController()
    offset = None
    while not env.done:
        _, _, _, info = env.step(controller.action_for(env))
        if info["attached"]:
            # palm-frame grasp offset: bit-exact while the capture holds
            captured = geo.apply(env.object_state.attach_offset,
                                 env.task.object.grasp_offset)
            if offset is None:
                offset = captured
            else:
                np.testing.assert_array_equal(captured, offset)
            # world-frame check through the kinematic chain, to tolerance
            palm_local = geo.apply(
                geo.invert(env.frames.palm),
                w.grasp_point(env.task.object, env.object_state))
            np.testing.assert_allclose(palm_local, captured, atol=1e-9)
    assert offset is not None
    assert env.success


def test_episode_stream_bit_reproducible():
    def rollout():
        env = make_env("laptop", "open", seed=21)
        env.reset(4)
        controller = ScriptedController()
        qs, rewards = [], []
        while not env.done:
            _, r, _, _ = env.step(controller.action_for(env))
            qs.append(env.robot.q.copy())
            rewards.append(r)
        return np.array(qs), np.array(rewards)

    q1, r1 = rollout()
    q2, r2 = rollout()
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(r1, r2)


def test_episode_rng_streams_independent():
    a = episode_rng(1, 2, 0).uniform(size=4)
    b = episode_rng(1, 2, 1).uniform(size=4)
    c = episode_rng(1, 3, 0).uniform(size=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, episode_rng(1, 2, 0).uniform(size=4))


# ---------------------------------------------------------------------------
# matrix-native frames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("robot", [gripper_bot, hand_bot])
def test_stored_chain_and_rotations_match_fresh_computation(robot):
    spec = robot()
    env = make_env("laptop", "open", robot=spec, seed=3)
    env.reset(0)
    controller = ScriptedController()
    steps = 0
    while not env.done:
        env.step(controller.action_for(env))
        steps += 1
        state = env.robot
        fresh = _wrist_chain(spec, state.q, state.base_anchor)
        for held, recomputed in zip(state.chain, fresh):
            np.testing.assert_array_equal(held, recomputed)
        # the chain is floats; the state converts its wrist once and the
        # frames share that conversion
        np.testing.assert_array_equal(state.wrist_pose.rotation_matrix, state.chain[0])
        assert env.frames.wrist is state.wrist_pose
        assert env.frames.palm.rotation_matrix is state.wrist_pose.rotation_matrix
        # the palm turns with the wrist: one rotation vector serves both
        assert env.frames.palm.rotation is state.wrist_pose.rotation
        for frame in (state.wrist_pose, env.frames.palm):
            np.testing.assert_array_equal(
                frame.rotation, geo.matrix_to_rotvec(frame.rotation_matrix))
    assert env.success and steps > 10


# ---------------------------------------------------------------------------
# one owner per step fact
# ---------------------------------------------------------------------------

def test_thresholds_are_fixed_not_config_fields():
    for name in ("grasp_threshold", "success_threshold"):
        with pytest.raises(TypeError, match=name):
            EpisodeConfig(**{name: 0.05})
    config = EpisodeConfig()
    assert (config.grasp_threshold, config.success_threshold) == (
        GRASP_THRESHOLD, SUCCESS_THRESHOLD) == (0.1, 0.05)


_CELLS = [(robot, name, skill) for robot in ("gripper-bot", "hand-bot")
          for name, skills in w.OBJECT_SKILLS.items() for skill in skills]


@pytest.mark.parametrize("robot,name,skill", _CELLS)
def test_step_facts_agree_in_every_cell(robot, name, skill):
    """What a step computes once and reuses equals a fresh computation from
    the post-step state, byte for byte (-0.0 included): the reward terms,
    the goal distance, the movable part's rotation, and the scripted action
    built from the env's reference approach action."""
    env = Env(EpisodeConfig(seed=0), w.make_task(name, skill), make_robot(robot))
    obs = env.reset(0)
    start = env.layout.slices()["object_state"].start
    grasp_slot, rotation_slot = slice(start, start + 3), slice(start + 3, start + 6)
    np.testing.assert_array_equal(obs[grasp_slot], env.grasp)
    controller = ScriptedController()
    weights = RewardWeights()
    phases = set()
    while not env.done:
        action = controller.action_for(env)
        palm = env.frames.palm
        expected = reference_approach_action(palm.translation, palm.rotation,
                                             env.palm_rotation_init, env.grasp,
                                             env.effector_init)
        np.testing.assert_array_equal(
            expected[3:6], geo.rotvec_difference(env.palm_rotation_init, palm.rotation))
        if env.object_state.attached:    # move phase: the wrist follows goal - grasp
            expected[0:3] = env.task.goal_point - env.grasp
        assert action.tobytes() == expected.tobytes()
        assert action is not env.reference_action()
        phases.add(env.object_state.attached)
        obs, _, _, info = env.step(action, weights)
        assert info["f_g"] == info["terms"].f_g
        np.testing.assert_array_equal(obs[grasp_slot], info["grasp_point"])
        # the kept grasp point is the one the post-step state yields
        np.testing.assert_array_equal(
            info["grasp_point"], w.grasp_point(env.task.object, env.object_state))
        palm = env.frames.palm
        fresh = total_reward(RewardSnapshot(
            hand_points=env.frames.hand_positions, palm_position=palm.translation,
            palm_rotation=palm.rotation, palm_rotation_init=env.palm_rotation_init,
            effector_init=env.effector_init, grasp_point=env.grasp,
            goal_point=env.task.goal_point), action, weights)
        assert info["terms"].as_array().tobytes() == fresh.as_array().tobytes()
        assert info["terms"].f_g == fresh.f_g
        assert info["goal_distance"] == geo.point_distance(env.task.goal_point, env.grasp)
        movable = w.movable_frame(env.task.object, env.object_state).rotation
        assert obs[rotation_slot].tobytes() == movable.tobytes()
    assert env.success and phases == {False, True}


def test_detach_keeps_grasp_point():
    env = make_env("laptop", "open", seed=0)
    env.reset(0)
    controller = ScriptedController()
    while not env.object_state.attached:
        env.step(controller.action_for(env))
    lift = np.zeros(7)
    lift[2] = 0.3  # the lid stops at its joint limit and the hand leaves it
    held = True
    while held:
        _, _, _, info = env.step(lift)
        held = info["attached"]
    assert not info["f_g"] and not info["terms"].f_g
    grasp = info["grasp_point"]
    np.testing.assert_array_equal(grasp, w.grasp_point(env.task.object, env.object_state))
    _, _, _, info = env.step(lift)
    np.testing.assert_array_equal(info["grasp_point"], grasp)
    assert not info["attached"]


# ---------------------------------------------------------------------------
# the step interface and the one episode loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(6,), (8,), (1, 7)])
def test_step_rejects_action_of_wrong_shape(shape):
    env = make_env(seed=0)
    env.reset(0)
    with pytest.raises(ValueError, match=rf"shape \(7,\), got {re.escape(str(shape))}"):
        env.step(np.zeros(shape))
    assert env.t == 0


@pytest.mark.parametrize("index,value", [(1, np.nan), (2, -np.inf), (6, np.inf)])
def test_step_rejects_a_non_finite_action(index, value):
    """A NaN in d_pos would make q, the observation and the reward NaN, and
    an infinite effector target the reward -inf, all without an IK warning:
    the step names the first non-finite entry instead and changes nothing."""
    env = make_env(seed=0)
    env.reset(0)
    robot, frames = env.robot, env.frames
    action = np.zeros(7)
    action[index] = value
    action[index + 1:] = np.nan
    with pytest.raises(ValueError, match=rf"^action\[{index}\] is {value}, must be finite$"):
        env.step(action)
    assert env.t == 0 and env.robot is robot and env.frames is frames


def test_a_returned_observation_is_the_callers_own():
    """Writing into an observation changes neither the env's next one nor
    another env's, although every step reads the same memoized time block."""
    env, other = make_env(seed=0), make_env(seed=0)
    mine, theirs = env.reset(0), other.reset(0)
    before = theirs.copy()
    mine[:] = 7.0
    assert theirs.tobytes() == before.tobytes()
    action = np.full(7, 0.01)
    for _ in range(3):
        mine, theirs = env.step(action)[0], other.step(action)[0]
        assert mine.tobytes() == theirs.tobytes()
        mine[:] = -7.0


def test_control_rate_is_fixed_not_a_config_field():
    with pytest.raises(TypeError, match="dt"):
        EpisodeConfig(dt=0.02)
    assert not hasattr(EpisodeConfig(), "dt")
    assert DT == 1.0 / FRAME_RATE == 1.0 / 30.0


@pytest.mark.parametrize("max_steps", [300, 20])
@pytest.mark.parametrize("robot", ["gripper-bot", "hand-bot"])
def test_episode_loops_agree(robot, max_steps):
    """evaluate, record_rollout, replay_trajectory and run_scripted_episode
    run the same episode: same step count, same success."""
    spec, task, seed = make_robot(robot), w.make_task("laptop", "open"), 3
    config = EpisodeConfig(seed=seed, max_steps=max_steps)
    record = evaluate(ScriptedController(), task, spec, config, 1).records[0]
    scripted = run_scripted_episode(Env(config, task, spec), 0)
    traj = record_rollout(ScriptedController(), task, spec, config, seed=seed, retries=0)
    assert (scripted["steps"], scripted["success"]) == (record.steps, record.success)
    assert record.success == (max_steps == 300)  # 20 steps cannot reach the goal
    if record.success:
        assert traj.length == record.steps
        replay_trajectory(traj)
    else:
        assert traj is None and record.steps == max_steps


def test_run_episode_yields_each_step():
    env = make_env(seed=0, max_steps=5)
    seen = []
    for action, obs, info in run_episode(env, lambda obs, env: np.zeros(7), 2):
        seen.append(env.t)
        assert action.dtype == np.float64 and action.shape == (7,)
        assert "terms" in info and obs.shape == (146,)
    assert seen == [1, 2, 3, 4, 5] and env.episode == 2 and env.done
