"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The PPO criterion trains a full-size policy and dominates runtime.
"""
import numpy as np
import pytest

from manibench import dataset as ds
from manibench import eval_harness as eh
from manibench import geometry as geo
from manibench import reward as rw
from manibench import rl
from manibench import robot as rb
from manibench import world as w
from manibench.control import ScriptedController, run_scripted_episode
from manibench.env import Env, EpisodeConfig
from manibench.observation import ObservationLayout
from manibench.reward import RewardWeights

# Criterion 6 budget: pinned iteration count within the <=500 allowance.
PPO_ITERATIONS = 220
PPO_EVAL_EPISODES = 200
PPO_TARGET = 0.60

_ACCEPT = "ACCEPTANCE {n} PASS: {msg}"


def _report(n, msg):
    print(_ACCEPT.format(n=n, msg=msg))


# ---------------------------------------------------------------------------
# 1. Observation dimensions
# ---------------------------------------------------------------------------

def test_criterion_1_observation_dimensions():
    for name, expected in (("gripper-bot", 146), ("hand-bot", 223)):
        spec = rb.make_robot(name)
        layout = ObservationLayout.for_robot(spec)
        assert layout.total == expected
        env = Env(EpisodeConfig(seed=0), w.make_task("laptop", "open"), spec)
        obs = env.reset(0)
        assert obs.shape == (expected,)
    _report(1, "observation lengths exactly 146 (gripper) / 223 (hand)")


# ---------------------------------------------------------------------------
# 2. Reward algebra over 1e5 randomized snapshots
# ---------------------------------------------------------------------------

def test_criterion_2_reward_algebra():
    weights = RewardWeights()
    assert (weights.distance, weights.approach, weights.grasp,
            weights.move, weights.success) == (1.0, 0.2, 1.0, 0.2, 2.0)
    assert (weights.grasp_threshold, weights.success_threshold) == (0.1, 0.05)
    rng = np.random.default_rng(2024)
    n = 100_000
    for _ in range(n):
        snapshot = rw.RewardSnapshot(
            hand_points=rng.uniform(-0.5, 0.5, (3, 3)),
            palm_position=rng.uniform(-0.5, 0.5, 3),
            palm_rotation=rng.uniform(-1.0, 1.0, 3),
            palm_rotation_init=rng.uniform(-1.0, 1.0, 3),
            effector_init=rng.uniform(0.0, 0.04, 1),
            grasp_point=rng.uniform(-0.5, 0.5, 3),
            goal_point=rng.uniform(-0.5, 0.5, 3),
        )
        action = rng.normal(scale=0.3, size=7)
        t = rw.total_reward(snapshot, action, weights)
        gate = 1.0 if t.f_g else 0.0
        assert t.total == t.r_d + (1.0 - gate) * t.r_a + gate * (t.r_g + t.r_m + t.r_s)
    _report(2, f"Eq-1 gating identity exact over {n} random snapshots")


# ---------------------------------------------------------------------------
# 3. Kinematics oracles
# ---------------------------------------------------------------------------

def _oracle_wrist(spec, q, anchor):
    def rot4(axis, angle):
        m = np.eye(4)
        m[:3, :3] = geo.rotvec_to_matrix(np.asarray(axis, dtype=float) * angle)
        return m

    def trans4(v):
        m = np.eye(4)
        m[:3, 3] = v
        return m

    m = anchor.matrix()
    m = m @ rot4([0, 0, 1], q[0]) @ trans4([0.0, q[1], 0.0]) @ spec.base_mount.matrix()
    for i in range(7):
        m = m @ spec.arm_offsets[i].matrix() @ rot4(spec.arm_axes[i], q[2 + i])
    return m @ spec.wrist_offset.matrix()


def test_criterion_3_kinematics_oracles():
    for name in ("gripper-bot", "hand-bot"):
        spec = rb.make_robot(name)
        rng = np.random.default_rng(33)
        max_fk_err = 0.0
        max_jac_err = 0.0
        for _ in range(1000):
            lo = np.maximum(spec.joint_limits[:, 0], -2.0)
            hi = np.minimum(spec.joint_limits[:, 1], 2.0)
            q = rng.uniform(lo, hi)
            anchor = geo.transform(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0,
                                   rz=rng.uniform(-np.pi, np.pi))
            frames = rb.forward_kinematics(spec, q, anchor)
            oracle = _oracle_wrist(spec, q, anchor)
            max_fk_err = max(max_fk_err, float(np.max(np.abs(
                frames.wrist.translation - oracle[:3, 3]))))

            j = rb.wrist_jacobian(spec, q, anchor)
            h = 1e-6
            j_fd = np.zeros((6, 9))
            for i in range(9):
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                fp = rb.forward_kinematics(spec, qp, anchor)
                fm = rb.forward_kinematics(spec, qm, anchor)
                j_fd[0:3, i] = (fp.wrist.translation - fm.wrist.translation) / (2 * h)
                rel = (geo.rotvec_to_matrix(fp.wrist.rotation)
                       @ geo.rotvec_to_matrix(fm.wrist.rotation).T)
                j_fd[3:6, i] = geo.matrix_to_rotvec(rel) / (2 * h)
            max_jac_err = max(max_jac_err, float(
                np.linalg.norm(j - j_fd) / max(np.linalg.norm(j_fd), 1e-9)))
        assert max_fk_err < 1e-9, f"{name}: FK error {max_fk_err}"
        assert max_jac_err < 1e-4, f"{name}: Jacobian rel err {max_jac_err}"
        _report(3, f"{name}: FK max err {max_fk_err:.2e} m, "
                   f"Jacobian rel err {max_jac_err:.2e} over 1000 configs")


# ---------------------------------------------------------------------------
# 4. IK contract
# ---------------------------------------------------------------------------

def test_criterion_4_ik_contract():
    spec = rb.gripper_bot()
    rng = np.random.default_rng(44)
    anchor = geo.Transform.identity()
    n, converged = 1000, 0
    q0 = np.zeros(spec.n_joints)
    q0[2:9] = spec.home_arm_q
    for _ in range(n):
        q = q0.copy()
        q[2:9] += rng.uniform(-0.3, 0.3, 7)
        wrist = rb.forward_kinematics(spec, q, anchor).wrist
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        d_pos = direction * rng.uniform(0.0, 0.02)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        d_rot = axis * rng.uniform(0.0, 0.05)
        target = geo.Transform(
            wrist.translation + d_pos,
            geo.matrix_to_rotvec(geo.rotvec_to_matrix(d_rot)
                                 @ geo.rotvec_to_matrix(wrist.rotation)))
        try:
            q_sol, _ = rb.ik_solve(spec, q, anchor, target)
        except rb.IkNotConverged:
            continue
        achieved = rb.forward_kinematics(spec, q_sol, anchor).wrist
        if geo.point_distance(achieved.translation, target.translation) < 1e-4:
            converged += 1
    rate = converged / n
    assert rate >= 0.99, f"IK convergence rate {rate}"
    _report(4, f"IK converged to <1e-4 m on {100 * rate:.1f}% of 1000 in-envelope targets")


# ---------------------------------------------------------------------------
# 5. Scripted-controller success
# ---------------------------------------------------------------------------

ACCEPT_TASKS = (("laptop", "open"), ("table", "open"),
                ("holistic", "pick"), ("cart", "push"))


def test_criterion_5_scripted_success():
    episodes = 200
    for object_name, skill in ACCEPT_TASKS:
        env = Env(EpisodeConfig(seed=0), w.make_task(object_name, skill),
                  rb.gripper_bot())
        wins = sum(run_scripted_episode(env, ep)["success"] for ep in range(episodes))
        rate = wins / episodes
        assert rate >= 0.90, f"{skill} {object_name}: scripted rate {rate}"
        _report(5, f"scripted {skill} {object_name}: {100 * rate:.1f}% of {episodes}")


# ---------------------------------------------------------------------------
# 6. PPO desk-scale learning (shared fixture also serves criterion 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_lid_policy():
    task = w.make_task("laptop", "open")
    spec = rb.gripper_bot()
    cfg = rl.PPOConfig(num_envs=64, iterations=PPO_ITERATIONS,
                       learning_rate=1e-3, seed=0)
    result = rl.train(task, spec, cfg, EpisodeConfig(seed=0))
    return result


@pytest.mark.slow
def test_criterion_6_ppo_learning(trained_lid_policy):
    task = w.make_task("laptop", "open")
    spec = rb.gripper_bot()
    out = rl.evaluate(trained_lid_policy.policy, task, spec,
                      EpisodeConfig(seed=9000), PPO_EVAL_EPISODES)
    assert out.success_rate >= PPO_TARGET, f"PPO eval rate {out.success_rate}"
    _report(6, f"PPO lid-open: {100 * out.success_rate:.1f}% over "
               f"{PPO_EVAL_EPISODES} episodes after {PPO_ITERATIONS} iterations")


# ---------------------------------------------------------------------------
# 7. Fixed-base ablation direction
# ---------------------------------------------------------------------------

def test_criterion_7_fixed_base_ablation():
    off = 1.2 / np.sqrt(2.0)  # 1.2 m planar distance from the grasp point
    out = eh.ablate_fixed_base("gripper-bot", "laptop", "open",
                               eh.SCRIPTED, eh.SCRIPTED, episodes=100, seed=0,
                               base_offset_range=(off, off))
    assert out.fixed_rate == 0.0, f"fixed-base rate {out.fixed_rate}"
    assert out.mobile_rate >= 0.90, f"mobile rate {out.mobile_rate}"
    _report(7, f"ablation at 1.2 m: fixed {100 * out.fixed_rate:.0f}%, "
               f"mobile {100 * out.mobile_rate:.0f}% over 100 episodes each")


# ---------------------------------------------------------------------------
# 8. Dataset integrity on 100 generated trajectories
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def generated_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_data")
    tasks = [("gripper-bot", obj, skill) for obj, skill in ACCEPT_TASKS]
    manifest = ds.generate_dataset(root, ScriptedController(), tasks,
                                   trajectories_per_task=25,
                                   episode_config=EpisodeConfig(seed=0),
                                   seed=77, retries=5)
    return root, manifest


def test_criterion_8_dataset_integrity(generated_dataset):
    root, manifest = generated_dataset
    total = sum(entry["count"] for entry in manifest["tasks"])
    assert total == 100, f"generated {total} trajectories"
    spec = rb.gripper_bot()
    layout = ObservationLayout.for_robot(spec)
    prop = layout.slices()["proprioception"]
    for entry in manifest["tasks"]:
        for rel in entry["files"]:
            path = root / rel
            traj = ds.read(path)
            # bit-exact round trip through a rewrite
            copy_path = path.with_suffix(".copy")
            ds.write(traj, copy_path)
            assert ds.read(copy_path) == traj
            assert copy_path.read_bytes() == path.read_bytes()
            copy_path.unlink()
            # replay reproduces the recorded state stream exactly
            ds.replay_trajectory(traj)
            # stored rewards match offline recomputation exactly
            env = Env(traj.config, w.make_task(traj.object_name, traj.skill), spec)
            env.reset(traj.episode)
            for i in range(traj.length):
                p = traj.observations[i][prop]
                terms = rw.total_reward(
                    rw.RewardSnapshot(
                        hand_points=p[12:21].reshape(3, 3),
                        palm_position=p[0:3], palm_rotation=p[3:6],
                        palm_rotation_init=env.palm_rotation_init,
                        effector_init=env.effector_init,
                        grasp_point=traj.grasp[i], goal_point=traj.goal[i]),
                    traj.actions[i], traj.weights)
                assert np.array_equal(terms.as_array(), traj.reward_terms[i])
            # success predicate re-checkable from the stored stream
            assert geo.point_distance(traj.grasp[-1], traj.goal[-1]) < 0.05
    _report(8, "100 trajectories: round-trip, replay, and reward recompute bit-exact")


# ---------------------------------------------------------------------------
# 9. Depth utility
# ---------------------------------------------------------------------------

def test_criterion_9_depth_utility():
    assert ds.depth_normalize(0.0) == 0
    assert ds.depth_normalize(5.0) == 255
    assert ds.depth_normalize(9.9) == 255
    assert ds.depth_normalize(2.5) == 128
    vals = [ds.depth_normalize(x) for x in np.linspace(0.0, 5.0, 4001)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    _report(9, "depth map: 0->0, 5->255, 2.5->128, monotone on [0,5]")


# ---------------------------------------------------------------------------
# 10. Determinism (reduced-budget reruns of 6 and 8)
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    task = w.make_task("laptop", "open")
    spec = rb.gripper_bot()

    def tiny_train(workers):
        cfg = rl.PPOConfig(num_envs=8, iterations=3, rollout_horizon=8,
                           seed=0, workers=workers)
        result = rl.train(task, spec, cfg, EpisodeConfig(seed=0, max_steps=40))
        path = tmp_path / f"ck_{workers}_{tiny_train.calls}.mmrl"
        tiny_train.calls += 1
        rl.save_checkpoint(path, result.policy, result.value_net, spec.name,
                           spec.dof_effector)
        return path.read_bytes()

    tiny_train.calls = 0
    ck_a = tiny_train(workers=1)
    ck_b = tiny_train(workers=1)
    ck_c = tiny_train(workers=4)
    assert ck_a == ck_b, "single-worker training not bit-reproducible"
    assert ck_a == ck_c, "multi-worker training differs from single-worker"

    def tiny_dataset(name):
        root = tmp_path / name
        ds.generate_dataset(root, ScriptedController(),
                            [("gripper-bot", "laptop", "open")],
                            trajectories_per_task=2,
                            episode_config=EpisodeConfig(seed=0), seed=5, retries=2)
        manifest = ds.read_manifest(root)
        blobs = [(root / rel).read_bytes()
                 for entry in manifest["tasks"] for rel in entry["files"]]
        blobs.append((root / ds.MANIFEST_NAME).read_bytes())
        return blobs

    assert tiny_dataset("d1") == tiny_dataset("d2"), "dataset generation not deterministic"
    _report(10, "bit-identical checkpoints (1 vs 4 workers) and datasets on rerun")
