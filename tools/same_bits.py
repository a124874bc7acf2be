"""Print one SHA-256 per standard output of the program, to show that a
change keeps every output bit-identical.

    PYTHONPATH=src python tools/same_bits.py

Run it on two trees (each with its own `PYTHONPATH=<tree>/src`) and compare
the lines. The outputs are:

- `dataset.seed<S>`: the scripted recording of every (robot, object, skill)
  cell, one trajectory each, at episode and generate seed S (3 and 11): the
  manifest and then every `.mmt` file, in manifest order;
- `eval.seed<S>`: a hand-bot MLP evaluation at config seed S (0-2) through a
  saved and reloaded checkpoint (build_nets at seed 0, head weights x100):
  every observation and action, then the episode record;
- `ppo.rollouts`, `ppo.params`, `ppo.adam`: two PPO rounds (collect, GAE,
  update) at 64 envs x 32 steps, 16-step episodes, seed 0 on gripper-bot
  lid-open: both rounds' rollout batches, then the policy and value
  parameters, then both optimizers' moments;
- `checkpoint.<robot>`: the `build_nets` checkpoint at seed 0;
- `cli.<command>`: the exit code and stdout of `manibench <command>`, with
  the temporary directory's name masked: `eval` of 3 scripted episodes at
  seed 0, `gen-data` of one gripper-bot lid-open trajectory at seed 3,
  `stats` of that dataset and `replay` of its file.

Only `manibench` is imported. It takes about fifteen seconds on two cores.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from manibench import cli
from manibench import dataset as ds
from manibench import rl
from manibench.control import ScriptedController
from manibench.env import EpisodeConfig
from manibench.reward import RewardWeights
from manibench.robot import make_robot
from manibench.world import OBJECT_SKILLS, make_task

DATASET_SEEDS = (3, 11)
EVAL_SEEDS = (0, 1, 2)
CELLS = tuple((robot, obj, skill) for robot in ("gripper-bot", "hand-bot")
              for obj, skills in OBJECT_SKILLS.items() for skill in skills)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def dataset_hash(tmp: Path, seed: int) -> str:
    root = tmp / f"dataset-{seed}"
    manifest = ds.generate_dataset(root, ScriptedController(), CELLS, 1,
                                   EpisodeConfig(seed=seed), seed=seed, retries=10)
    files = [root / rel for entry in manifest["tasks"] for rel in entry["files"]]
    return _digest([(root / ds.MANIFEST_NAME).read_bytes()]
                   + [path.read_bytes() for path in files])


class _Recorder:
    """Passes the policy's actions through and keeps every (obs, action)."""

    def __init__(self, policy):
        self.policy = policy
        self.obs_dim = policy.obs_dim
        self.parts = []

    def deterministic_action(self, obs, env=None):
        action = self.policy.deterministic_action(obs, env)
        self.parts += [obs, action]
        return action


def eval_hashes(tmp: Path) -> dict:
    spec = make_robot("hand-bot")
    task = make_task("laptop", "open")
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    policy.net.weights[-1] *= 100.0
    path = tmp / "eval.mmrl"
    rl.save_checkpoint(path, policy, value_net, spec.name, spec.dof_effector)
    loaded, _, _ = rl.load_checkpoint(path)
    out = {}
    for seed in EVAL_SEEDS:
        recorder = _Recorder(loaded)
        record = rl.evaluate(recorder, task, spec, EpisodeConfig(seed=seed), 1).records[0]
        out[f"eval.seed{seed}"] = _digest(recorder.parts + [repr(record).encode()])
    return out


def ppo_hashes() -> dict:
    spec = make_robot("gripper-bot")
    cfg = rl.PPOConfig(num_envs=64, rollout_horizon=32, learning_rate=1e-3, seed=0)
    policy, value_net = rl.build_nets(spec, cfg)
    policy_opt = rl.Adam(policy.parameters(), cfg.learning_rate)
    value_opt = rl.Adam(value_net.parameters(), cfg.learning_rate)
    update_rng = np.random.default_rng([cfg.seed, 18])
    slots = rl.make_slots(make_task("laptop", "open"), spec,
                          EpisodeConfig(seed=cfg.seed, max_steps=16), cfg.num_envs)
    weights = RewardWeights()
    rollouts = []
    for _ in range(2):
        batch = rl.collect_rollouts(slots, policy, value_net, cfg.rollout_horizon, weights)
        batch.advantages, batch.returns = rl.compute_gae(
            batch.rewards, batch.values, batch.dones, batch.bootstrap,
            cfg.gamma, cfg.gae_lambda, timeout_values=batch.timeout_values)
        rollouts += [batch.observations, batch.actions, batch.log_probs, batch.values,
                     batch.rewards, batch.dones, batch.bootstrap, batch.timeout_values,
                     batch.advantages, batch.returns,
                     repr((batch.episode_returns, batch.episode_successes,
                           batch.episode_lengths)).encode()]
        rl.ppo_update(policy, value_net, policy_opt, value_opt, batch, cfg, update_rng)
    return {
        "ppo.rollouts": _digest(rollouts),
        "ppo.params": _digest(policy.parameters() + value_net.parameters()),
        "ppo.adam": _digest(policy_opt.m + policy_opt.v + value_opt.m + value_opt.v),
    }


def checkpoint_hash(tmp: Path, robot: str) -> str:
    spec = make_robot(robot)
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    path = tmp / f"{robot}.mmrl"
    rl.save_checkpoint(path, policy, value_net, spec.name, spec.dof_effector)
    return _digest([path.read_bytes()])


def _cli_digest(tmp: Path, argv: list) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return _digest([f"{code}\n{stdout.getvalue()}".replace(str(tmp), "<tmp>").encode()])


def cli_hashes(tmp: Path) -> dict:
    data, config = tmp / "cli-data", tmp / "cli.json"
    config.write_text(json.dumps({"trajectories": 1}))
    out = {
        "cli.eval": _cli_digest(tmp, ["eval", "--episodes", "3", "--seed", "0"]),
        "cli.gen-data": _cli_digest(tmp, ["gen-data", "--config", str(config),
                                          "--out", str(data), "--seed", "3"]),
        "cli.stats": _cli_digest(tmp, ["stats", "--out", str(data)]),
    }
    manifest = json.loads((data / ds.MANIFEST_NAME).read_text())
    out["cli.replay"] = _cli_digest(tmp, ["replay", str(data / manifest["tasks"][0]["files"][0])])
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        tmp = Path(tmp)
        hashes = {f"dataset.seed{s}": dataset_hash(tmp, s) for s in DATASET_SEEDS}
        hashes.update(eval_hashes(tmp))
        hashes.update(ppo_hashes())
        for robot in ("gripper-bot", "hand-bot"):
            hashes[f"checkpoint.{robot}"] = checkpoint_hash(tmp, robot)
        hashes.update(cli_hashes(tmp))
    for name, digest in hashes.items():
        print(f"{name}\t{digest}")


if __name__ == "__main__":
    main()
