import numpy as np
import pytest

from manibench import geometry as geo
from manibench import world as w
from manibench.control import ScriptedController
from manibench.env import Env, EpisodeConfig
from manibench.observation import (
    ObservationLayout,
    assemble,
    build_observation,
    time_embedding,
)
from manibench.robot import DT, forward_kinematics, gripper_bot, hand_bot


def make_env(robot, name="laptop", skill="open", **cfg):
    return Env(EpisodeConfig(**cfg), w.make_task(name, skill), robot)


# ---------------------------------------------------------------------------
# time_embedding
# ---------------------------------------------------------------------------

def test_embedding_at_zero():
    e = time_embedding(0, 300)
    np.testing.assert_array_equal(e[0::2], np.zeros(15))
    np.testing.assert_array_equal(e[1::2], np.ones(15))


def test_embedding_at_full_period():
    e = time_embedding(300, 300)
    np.testing.assert_allclose(e[0::2], np.zeros(15), atol=1e-12)
    np.testing.assert_allclose(e[1::2], np.ones(15), atol=1e-12)


def test_embedding_half_period_first_frequency():
    e = time_embedding(150, 300)
    assert e[0] == pytest.approx(0.0, abs=1e-12)   # sin(pi)
    assert e[1] == pytest.approx(-1.0, abs=1e-12)  # cos(pi)


def test_embedding_rejects_out_of_range():
    with pytest.raises(ValueError):
        time_embedding(301, 300)
    with pytest.raises(ValueError):
        time_embedding(-1, 300)


def test_embedding_is_a_fresh_writable_array():
    """The observation memoizes its time block read-only; the public
    function still hands every caller an array of its own."""
    first = time_embedding(7, 300)
    assert first.flags.writeable and first.flags.owndata
    first[:] = 0.0
    second = time_embedding(7, 300)
    assert second is not first and second.flags.writeable
    assert second.tobytes() != first.tobytes()
    env = make_env(gripper_bot(), seed=0)
    env.reset(0)
    for _ in range(7):
        obs, _, _, _ = env.step(np.zeros(7))
    assert obs[env.layout.slices()["time"]].tobytes() == second.tobytes()


# ---------------------------------------------------------------------------
# layout / lengths
# ---------------------------------------------------------------------------

def test_gripper_length_146():
    layout = ObservationLayout.for_robot(gripper_bot())
    assert layout.total == 146
    assert dict(layout.blocks) == {
        "time": 30, "object_state": 9, "proprioception": 78,
        "distance": 22, "previous_action": 7,
    }


def test_hand_length_223():
    layout = ObservationLayout.for_robot(hand_bot())
    assert layout.total == 223
    assert dict(layout.blocks) == {
        "time": 30, "object_state": 9, "proprioception": 135,
        "distance": 31, "previous_action": 18,
    }


@pytest.mark.parametrize("robot,expected", [(gripper_bot, 146), (hand_bot, 223)])
def test_built_observation_length(robot, expected):
    env = make_env(robot(), seed=1)
    obs = env.reset(0)
    assert obs.shape == (expected,)
    assert np.all(np.isfinite(obs))


# ---------------------------------------------------------------------------
# content checks
# ---------------------------------------------------------------------------

def test_first_frame_velocities_and_prev_action_zero():
    env = make_env(gripper_bot(), seed=2)
    obs = env.reset(0)
    sl = env.layout.slices()
    prop = obs[sl["proprioception"]]
    # palm linvel/angvel
    np.testing.assert_array_equal(prop[6:12], np.zeros(6))
    # fingertip linvels/angvels (after 12 palm + 9 pos + 9 rot)
    np.testing.assert_array_equal(prop[30:48], np.zeros(18))
    # joint velocities/accelerations
    np.testing.assert_array_equal(prop[58:78], np.zeros(20))
    np.testing.assert_array_equal(obs[sl["previous_action"]], np.zeros(7))


def test_distance_entry_zero_is_singleton_chamfer():
    env = make_env(gripper_bot(), seed=3)
    obs = env.reset(0)
    sl = env.layout.slices()
    palm = env.frames.palm.translation
    grasp = w.grasp_point(env.task.object, env.object_state)
    assert obs[sl["distance"]][0] == geo.chamfer(palm[None], grasp[None])


def test_displacement_subblock_exact():
    env = make_env(gripper_bot(), seed=4)
    obs = env.reset(0)
    for _ in range(3):
        obs, _, _, _ = env.step(np.zeros(7))
    sl = env.layout.slices()
    dist = obs[sl["distance"]]
    palm = env.frames.palm.translation
    grasp = w.grasp_point(env.task.object, env.object_state)
    np.testing.assert_array_equal(dist[-3:], grasp - palm)


def test_object_block_holds_grasp_goal():
    env = make_env(gripper_bot(), seed=5)
    obs = env.reset(0)
    block = obs[env.layout.slices()["object_state"]]
    np.testing.assert_array_equal(block[0:3],
                                  w.grasp_point(env.task.object, env.object_state))
    np.testing.assert_array_equal(block[6:9], env.task.goal_point)


def test_velocities_are_finite_differences():
    env = make_env(gripper_bot(), seed=6)
    env.reset(0)
    prev_palm = env.frames.palm.translation.copy()
    action = np.zeros(7)
    action[1] = 0.02
    obs, _, _, _ = env.step(action)
    prop = obs[env.layout.slices()["proprioception"]]
    expected = (env.frames.palm.translation - prev_palm) / DT
    np.testing.assert_array_equal(prop[6:9], expected)


def test_time_block_advances_with_steps():
    env = make_env(gripper_bot(), seed=7)
    obs0 = env.reset(0)
    obs1, _, _, _ = env.step(np.zeros(7))
    sl = env.layout.slices()["time"]
    np.testing.assert_array_equal(obs0[sl], time_embedding(0, 300))
    np.testing.assert_array_equal(obs1[sl], time_embedding(1, 300))


def test_offline_rebuild_bit_exact():
    # rebuild each step's observation from recorded q-streams through
    # assemble() and fresh FK, without touching the env instance
    robot = gripper_bot()
    env = make_env(robot, seed=8)
    env.reset(0)
    controller = ScriptedController()
    recorded = []
    q_stream = [env.robot.q.copy()]
    anchor = env.robot.base_anchor
    layout = env.layout
    while not env.done and env.t < 40:
        obs, _, _, info = env.step(controller.action_for(env))
        recorded.append({
            "obs": obs,
            "q": env.robot.q.copy(),
            "qdot": env.robot.qdot.copy(),
            "qddot": env.robot.qddot.copy(),
            "prev_action": env.robot.prev_action.copy(),
            "grasp": np.asarray(info["grasp_point"]),
            "movable_rot": w.movable_frame(env.task.object, env.object_state).rotation,
            "t": env.t,
        })
        q_stream.append(env.robot.q.copy())
    goal = env.task.goal_point
    prev_frames = forward_kinematics(robot, q_stream[0], anchor)
    for i, rec in enumerate(recorded):
        frames = forward_kinematics(robot, rec["q"], anchor)
        rebuilt = assemble(
            layout, t=rec["t"], max_steps=300,
            grasp=rec["grasp"], movable_rotation=rec["movable_rot"], goal=goal,
            frames=frames, prev_frames=prev_frames, q=rec["q"],
            qdot=rec["qdot"], qddot=rec["qddot"], prev_action=rec["prev_action"])
        np.testing.assert_array_equal(rebuilt, rec["obs"])
        prev_frames = frames


def test_assemble_rejects_a_layout_of_another_width():
    env = make_env(gripper_bot(), seed=9)
    env.reset(0)
    pieces = dict(
        t=0, max_steps=300, grasp=env.grasp,
        movable_rotation=w.movable_frame(env.task.object, env.object_state).rotation,
        goal=env.task.goal_point, frames=env.frames, prev_frames=None, q=env.robot.q,
        qdot=env.robot.qdot, qddot=env.robot.qddot, prev_action=env.robot.prev_action)
    np.testing.assert_array_equal(assemble(env.layout, **pieces), build_observation(env))
    with pytest.raises(ValueError, match="assembled 146 entries, layout wants 223"):
        assemble(ObservationLayout.for_robot(hand_bot()), **pieces)


@pytest.mark.parametrize("robot,rotvec_calls", [(gripper_bot, 1), (hand_bot, 11)])
def test_fingertips_turning_with_the_palm_reuse_its_rotation(robot, rotvec_calls, monkeypatch):
    """A gripper fingertip has no rotation of its own: its rotation and
    angular velocity entries are the palm's, and only the palm's angular
    velocity (plus two per hand-bot fingertip, its rotation and its angular
    velocity) calls matrix_to_rotvec."""
    import manibench.observation as obs_mod
    env = make_env(robot(), seed=2)
    env.reset(0)
    controller = ScriptedController()
    env.step(controller.action_for(env))
    calls = []
    monkeypatch.setattr(obs_mod, "matrix_to_rotvec",
                        lambda m: calls.append(1) or geo.matrix_to_rotvec(m))
    obs = obs_mod.build_observation(env)
    assert len(calls) == rotvec_calls
    n = env.robot_spec.n_hand_points
    prop = obs[env.layout.slices()["proprioception"]]
    tip_rot = prop[12 + 3 * n:12 + 6 * n].reshape(n, 3)
    tip_w = prop[12 + 9 * n:12 + 12 * n].reshape(n, 3)
    now, prev = env.frames.hand_rotations, env.prev_frames.hand_rotations
    if robot is gripper_bot:
        assert now is None and prev is None
        now = [env.frames.palm.rotation_matrix] * n
        prev = [env.prev_frames.palm.rotation_matrix] * n
    for i in range(n):
        np.testing.assert_array_equal(tip_rot[i], geo.matrix_to_rotvec(now[i]))
        expected_w = geo.matrix_to_rotvec(now[i] @ prev[i].T) / DT
        np.testing.assert_array_equal(tip_w[i], expected_w)
    if robot is gripper_bot:
        np.testing.assert_array_equal(tip_rot, np.tile(prop[3:6], (n, 1)))
        np.testing.assert_array_equal(tip_w, np.tile(prop[9:12], (n, 1)))
