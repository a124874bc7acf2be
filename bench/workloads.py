"""The three workloads: set-up, one timed round, and the checks on its outputs.

A workload's `setup` builds everything the timed rounds need and may be
repeated; `run_round` performs one whole round of operations, times the
calls into the program, then checks their outputs against `oracles` outside
the timed region. Inputs derive from the run's seed alone.
"""
from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from manibench import dataset as ds
from manibench import rl
from manibench.control import ScriptedController
from manibench.env import EpisodeConfig
from manibench.reward import RewardWeights
from manibench.robot import gripper_bot, hand_bot
from manibench.world import OBJECT_SKILLS, make_task

clock = time.perf_counter

# datagen-scripted: every (robot, object, skill) cell the catalog allows
DATAGEN_TASKS = tuple((robot, obj, skill) for robot in ("gripper-bot", "hand-bot")
                      for obj, skills in OBJECT_SKILLS.items() for skill in skills)
DATAGEN_RETRIES = 10

# ppo-train: criterion 6's shape, with episodes short enough that every slot
# truncates twice per 32-step rollout (at t = 15 and t = 31)
PPO_NUM_ENVS = 64
PPO_HORIZON = 32
PPO_LR = 1e-3
PPO_MAX_STEPS = 16
PPO_LOGPROB_STRIDE = 8       # check every 8th stored log-prob

# eval-mlp: one fixed checkpoint, as a user evaluates one trained policy; the
# run's seed picks the episodes. An untrained head (gain 0.01) commands almost
# no wrist motion; x100 gives head gain 1, so the tanh-bounded mean saturates
# toward the per-step caps as a trained policy's does.
EVAL_NET_SEED = 0
EVAL_HEAD_SCALE = 100.0
EVAL_CHECK_STRIDE = 10       # bit-compare every 10th action at batch 1


def round_seed(seed: int, k: int) -> int:
    """Episode-config seed of round k: distinct across rounds and run seeds."""
    return seed * 1000 + k


class CheckFailed(AssertionError):
    pass


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Round:
    attempted: int
    failed: int
    steps: int              # env control steps in the stepping phase
    step_s: float           # seconds of the stepping phase
    op_s: float             # seconds per operation, all timed phases
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# datagen-scripted
# ---------------------------------------------------------------------------

class Workload:
    """Inputs derive from `seed`; files go under `out`."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out


class Datagen(Workload):
    name = "datagen-scripted"

    def setup(self):
        self.controller = ScriptedController()
        self.out.mkdir(parents=True, exist_ok=True)

    def run_round(self, k: int) -> Round:
        root = self.out / f"round-{k}"
        seed = round_seed(self.seed, k)
        t0 = clock()
        manifest = ds.generate_dataset(root, self.controller, DATAGEN_TASKS, 1,
                                       EpisodeConfig(seed=seed), seed=seed,
                                       retries=DATAGEN_RETRIES)
        t1 = clock()
        paths = [root / rel for entry in manifest["tasks"] for rel in entry["files"]]
        trajs, errors = [], []
        t2 = clock()
        for path in paths:
            traj = ds.read(path)
            try:
                ds.replay_trajectory(traj)
            except ds.ReplayMismatch as exc:
                errors.append(f"replay {path.name}: {exc}")
            trajs.append(traj)
        t3 = clock()

        # a trajectory that was never recorded also misses its replay
        gen_failures = sum(entry["failures"] for entry in manifest["tasks"])
        check_manifest(root, manifest)
        for traj in trajs:
            check_trajectory(traj)
        shutil.rmtree(root)
        frames = sum(traj.length for traj in trajs)
        return Round(attempted=2 * len(DATAGEN_TASKS),
                     failed=2 * gen_failures + len(errors),
                     steps=frames, step_s=t1 - t0,
                     op_s=(t1 - t0 + t3 - t2) / len(DATAGEN_TASKS), errors=errors)


def check_manifest(root: Path, manifest: dict) -> None:
    listed = 0
    for entry in manifest["tasks"]:
        task_dir = root / ds.task_dir_name(entry["robot"], entry["object"], entry["skill"])
        on_disk = sorted(p.relative_to(root).as_posix() for p in task_dir.glob("*.mmt"))
        check(entry["count"] == len(entry["files"]) == len(on_disk)
              and sorted(entry["files"]) == on_disk,
              f"manifest of {task_dir.name} lists {entry['files']}, disk holds {on_disk}")
        listed += entry["count"]
    check(listed == len(list(root.glob("*/*.mmt"))), "files outside the manifest")


def _blocks(layout: dict) -> dict:
    """Observation block slices from the layout recorded in the file itself."""
    out, offset = {}, 0
    for name, size in layout["blocks"]:
        out[name] = slice(offset, offset + size)
        offset += size
    return out


def check_trajectory(traj) -> None:
    """Reward terms, time embedding and success of every recorded frame."""
    blocks = _blocks(traj.layout)
    joints = traj.q.shape[1]
    prop_size = blocks["proprioception"].stop - blocks["proprioception"].start
    n_points = (prop_size - 12 - 3 * joints) // 12
    w = {name: getattr(traj.weights, name) for name in
         ("distance", "grasp", "move", "success", "grasp_threshold", "success_threshold")}
    for i in range(traj.length):
        obs = traj.observations[i]
        prop = obs[blocks["proprioception"]]
        palm = prop[0:3]
        hand = prop[12:12 + 3 * n_points].reshape(n_points, 3)
        recorded = traj.reward_terms[i]   # r_d r_a r_g r_m r_s total
        f_g = traj.f_g[i] == 1.0
        r_d, r_m, r_s, total, hand_distance = oracles.reward_terms(
            hand, palm, traj.grasp[i], traj.goal[i], traj.actions[i], f_g,
            recorded[1], w)
        check((hand_distance < w["grasp_threshold"]) == f_g,
              f"{traj.instruction}: f_g disagrees with hand distance at frame {i}")
        check(recorded[2] == w["grasp"], f"{traj.instruction}: r_g at frame {i}")
        check(np.allclose([r_d, r_m, r_s, total], recorded[[0, 3, 4, 5]],
                          rtol=1e-12, atol=1e-12),
              f"{traj.instruction}: reward terms at frame {i}")
        check(np.allclose(obs[blocks["time"]],
                          oracles.time_block(traj.t[i], traj.config.max_steps),
                          rtol=0.0, atol=1e-12),
              f"{traj.instruction}: time embedding at frame {i}")
    check(math.dist(traj.grasp[-1], traj.goal[-1]) < 0.05,
          f"{traj.instruction}: last frame is not a success")


# ---------------------------------------------------------------------------
# ppo-train
# ---------------------------------------------------------------------------

class PpoTrain(Workload):
    name = "ppo-train"

    def setup(self):
        self.spec = gripper_bot()
        self.cfg = rl.PPOConfig(num_envs=PPO_NUM_ENVS, rollout_horizon=PPO_HORIZON,
                                learning_rate=PPO_LR, seed=self.seed, workers=1)
        self.policy, self.value_net = rl.build_nets(self.spec, self.cfg)
        self.policy_opt = rl.Adam(self.policy.parameters(), PPO_LR)
        self.value_opt = rl.Adam(self.value_net.parameters(), PPO_LR)
        self.update_rng = np.random.default_rng([self.seed, 18])
        self.weights = RewardWeights()
        self.slots = rl.make_slots(make_task("laptop", "open"), self.spec,
                                   EpisodeConfig(seed=self.seed, max_steps=PPO_MAX_STEPS),
                                   PPO_NUM_ENVS)
        self.acc_return = [0.0] * PPO_NUM_ENVS
        self.acc_length = [0] * PPO_NUM_ENVS

    def run_round(self, k: int) -> Round:
        cfg, policy = self.cfg, self.policy
        t0 = clock()
        batch = rl.collect_rollouts(self.slots, policy, self.value_net, PPO_HORIZON,
                                    self.weights, workers=1)
        t1 = clock()
        self.check_log_probs(batch)
        t2 = clock()
        batch.advantages, batch.returns = rl.compute_gae(
            batch.rewards, batch.values, batch.dones, batch.bootstrap,
            cfg.gamma, cfg.gae_lambda, timeout_values=batch.timeout_values)
        t3 = clock()
        adv, ret = oracles.gae(batch.rewards, batch.values, batch.dones, batch.bootstrap,
                               batch.timeout_values, cfg.gamma, cfg.gae_lambda)
        check(np.allclose(adv, batch.advantages, rtol=1e-10, atol=1e-9)
              and np.allclose(ret, batch.returns, rtol=1e-10, atol=1e-9),
              "compute_gae disagrees with the GAE recursion")
        errors = []
        t4 = clock()
        try:
            rl.ppo_update(policy, self.value_net, self.policy_opt, self.value_opt,
                          batch, cfg, self.update_rng)
        except rl.TrainingDiverged as exc:
            errors.append(str(exc))
        t5 = clock()
        check(all(np.isfinite(p).all() for p in policy.parameters()
                  + self.value_net.parameters()), "non-finite parameter after update")
        self.check_episodes(batch)
        steps = PPO_NUM_ENVS * PPO_HORIZON
        return Round(attempted=1, failed=len(errors), steps=steps, step_s=t1 - t0,
                     op_s=(t1 - t0) + (t3 - t2) + (t5 - t4), errors=errors)

    def check_log_probs(self, batch) -> None:
        """Own forward pass over the rollout-time weights reproduces log-probs."""
        p = self.policy
        obs = batch.observations.reshape(-1, p.obs_dim)[::PPO_LOGPROB_STRIDE]
        acts = batch.actions.reshape(-1, p.act_dim)[::PPO_LOGPROB_STRIDE]
        stored = batch.log_probs.reshape(-1)[::PPO_LOGPROB_STRIDE]
        check(np.all((p.log_std > -20.0) & (p.log_std < 2.0)), "log_std at its clamp")
        mean = oracles.policy_mean(p.net.weights, p.net.biases, p.obs_inv_scale,
                                   0.5 * (p.high - p.low), obs)
        check(np.allclose(oracles.gaussian_log_prob(mean, acts, p.log_std), stored,
                          rtol=1e-10, atol=1e-8),
              "stored log-probs differ from the policy's density")

    def check_episodes(self, batch) -> None:
        """Finished episodes: return = sum of step rewards; end at the limit or in success."""
        expected = []
        for t in range(PPO_HORIZON):
            for i in range(PPO_NUM_ENVS):
                self.acc_return[i] += batch.rewards[i, t]
                self.acc_length[i] += 1
                if batch.dones[i, t]:
                    expected.append((self.acc_return[i], self.acc_length[i]))
                    self.acc_return[i], self.acc_length[i] = 0.0, 0
        got = list(zip(batch.episode_returns, batch.episode_lengths, batch.episode_successes))
        check(len(got) == len(expected), "finished-episode count differs from dones")
        for (ret, length, success), (want_ret, want_len) in zip(got, expected):
            check(math.isclose(ret, want_ret, rel_tol=1e-12, abs_tol=1e-9)
                  and length == want_len,
                  f"episode return {ret} over {length} steps, rewards sum to "
                  f"{want_ret} over {want_len}")
            check(length == PPO_MAX_STEPS or (success and length < PPO_MAX_STEPS),
                  f"episode ended after {length} steps without success")


# ---------------------------------------------------------------------------
# eval-mlp
# ---------------------------------------------------------------------------

class _Recorder:
    """Passes the policy's actions through and keeps (obs, action) pairs."""

    def __init__(self, policy):
        self.policy = policy
        self.obs_dim = policy.obs_dim
        self.pairs = []

    def deterministic_action(self, obs, env=None):
        action = self.policy.deterministic_action(obs, env)
        self.pairs.append((obs, action))
        return action


class EvalMlp(Workload):
    name = "eval-mlp"

    def setup(self):
        self.spec = hand_bot()
        self.task = make_task("laptop", "open")
        self.policy, value_net = rl.build_nets(self.spec, rl.PPOConfig(seed=EVAL_NET_SEED))
        self.policy.net.weights[-1] *= EVAL_HEAD_SCALE
        path = self.out / "policy.mmrl"
        path.parent.mkdir(parents=True, exist_ok=True)
        rl.save_checkpoint(path, self.policy, value_net, self.spec.name,
                           self.spec.dof_effector)
        self.loaded, _, _ = rl.load_checkpoint(path)
        self.low, self.high = rl.action_bounds(self.spec)

    def run_round(self, k: int) -> Round:
        recorder = _Recorder(self.loaded)
        config = EpisodeConfig(seed=round_seed(self.seed, k))
        t0 = clock()
        result = rl.evaluate(recorder, self.task, self.spec, config, 1)
        t1 = clock()
        record = result.records[0]
        check(record.steps == len(recorder.pairs), "one action per step")
        self.check_actions(recorder.pairs)
        check(record.success == (record.final_goal_distance < config.success_threshold),
              f"success {record.success} at final goal distance {record.final_goal_distance}")
        return Round(attempted=1, failed=0, steps=record.steps, step_s=t1 - t0,
                     op_s=t1 - t0)

    def check_actions(self, pairs) -> None:
        obs = np.stack([o for o, _ in pairs])
        acts = np.stack([a for _, a in pairs])
        check(np.all((acts >= self.low) & (acts <= self.high)), "action outside action_bounds")
        picked = sorted(set(range(0, len(pairs), EVAL_CHECK_STRIDE)) | {len(pairs) - 1})
        for i in picked:
            check(np.array_equal(self.policy.deterministic_action(obs[i]), acts[i]),
                  f"reloaded checkpoint acts differently at step {i + 1}")
        p = self.policy
        mean = oracles.policy_mean(p.net.weights, p.net.biases, p.obs_inv_scale,
                                   0.5 * (p.high - p.low), obs[picked])
        check(np.allclose(np.clip(mean, p.low, p.high), acts[picked], rtol=1e-10, atol=1e-12),
              "own forward pass disagrees with the deterministic actions")


WORKLOADS = {cls.name: cls for cls in (Datagen, PpoTrain, EvalMlp)}
