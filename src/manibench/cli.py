"""Command-line entry point: train / eval / gen-data / stats / replay.

Exit codes: 0 success, 1 runtime error, 2 usage or config error. Reports go
to stdout, diagnostics to stderr. Each command takes only the flags it reads
(`COMMANDS`); any other flag is a usage error. The flags override the
`--config` document; --workers sets `ppo.workers`, the threads that each
rollout of train steps its envs on. replay reads only its trajectory file.
gen-data records the scripted oracle on one process per CPU in its affinity
mask.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import dataset as ds
from . import rl
from .config import ConfigError, RunConfig, apply_overrides, parse_config
from .eval_harness import resolve_policy
from .robot import make_robot
from .world import make_task

_FLAGS = {
    "--config": {"type": str, "help": "JSON run config"},
    "--seed": {"type": int},
    "--out": {"type": str, "help": "output directory"},
    "--robot": {"type": str},
    "--task": {"type": str, "help": "object family id"},
    "--skill": {"type": str},
    "--episodes": {"type": int},
    "--fixed-base": {"action": "store_true"},
    "--workers": {"type": int, "help": "PPO rollout threads"},
}
# each command's flags: the run-config values it reads
COMMANDS = {
    "train": ("--config", "--seed", "--out", "--robot", "--task", "--skill",
              "--fixed-base", "--workers"),
    "eval": ("--config", "--seed", "--robot", "--task", "--skill", "--episodes",
             "--fixed-base"),
    "gen-data": ("--config", "--seed", "--out", "--robot", "--task", "--skill",
                 "--fixed-base"),
    "stats": ("--config", "--out"),
    "replay": (),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manibench",
        description="Desk-scale mobile-manipulation training, evaluation, and data generation.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, default=None, **_FLAGS[flag])
        if name == "replay":
            p.add_argument("trajectory", type=str, help="recorded .mmt file")
    return parser


def _load_config(args) -> RunConfig:
    """The `--config` document under the command's other flags."""
    flags = vars(args).copy()
    del flags["command"]
    path = flags.pop("config")
    text = "" if path is None else Path(path).read_text(encoding="utf-8")
    return apply_overrides(parse_config(text), **flags)


def _cmd_train(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    task = make_task(cfg.task, cfg.skill)
    spec = make_robot(cfg.robot)
    t0 = time.time()

    def progress(point, stats, rollout_s, update_s):
        print(f"iteration {point.iteration} return {point.mean_return:.2f} "
              f"success_rate {point.success_rate:.3f} "
              f"kl {stats.approx_kl:.4f} rollout_s {rollout_s:.2f} "
              f"update_s {update_s:.2f} ({time.time() - t0:.0f}s)",
              file=sys.stderr, flush=True)

    result = rl.train(task, spec, cfg.ppo, cfg.episode, progress=progress)
    ck_path = out / "checkpoint.mmrl"
    rl.save_checkpoint(ck_path, result.policy, result.value_net, spec.name,
                       spec.dof_effector)
    rl.write_curve(out / "learning_curve.tsv", result.curve)
    final = result.curve[-1].success_rate if result.curve else 0.0
    print(f"checkpoint={ck_path}")
    print(f"train_success_rate={final:.4f}")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    policy = resolve_policy(cfg.policy)
    if policy is None:
        print(f"checkpoint not found: {cfg.policy}", file=sys.stderr)
        return 1
    result = rl.evaluate(policy, make_task(cfg.task, cfg.skill),
                         make_robot(cfg.robot), cfg.episode, cfg.episodes)
    print(f"success_rate={result.success_rate:.4f}")
    return 0


def _cmd_gen_data(cfg: RunConfig) -> int:
    policy = resolve_policy(cfg.policy)
    if policy is None:
        print(f"checkpoint not found: {cfg.policy}", file=sys.stderr)
        return 1
    manifest = ds.generate_dataset(
        cfg.out, policy, [(cfg.robot, cfg.task, cfg.skill)],
        trajectories_per_task=cfg.trajectories, episode_config=cfg.episode,
        seed=cfg.seed, retries=cfg.retries,
        log=lambda msg: print(msg, file=sys.stderr))
    for entry in manifest["tasks"]:
        print(f"recorded={entry['count']} failures={entry['failures']} "
              f"task={entry['robot']}/{entry['skill']}_{entry['object']}")
    return 0


def _cmd_stats(cfg: RunConfig) -> int:
    report = ds.render_stats(ds.stats(cfg.out))
    sys.stdout.write(report)
    return 0


def _cmd_replay(trajectory_path: str) -> int:
    traj = ds.read(trajectory_path)
    ds.replay_trajectory(traj)
    print(f"replay_ok={trajectory_path} frames={traj.length}")
    return 0


_RUNS = {"train": _cmd_train, "eval": _cmd_eval, "gen-data": _cmd_gen_data,
         "stats": _cmd_stats}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command != "replay":
        try:
            cfg = _load_config(args)
        except (ConfigError, OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "replay":
            return _cmd_replay(args.trajectory)
        return _RUNS[args.command](cfg)
    except Exception as exc:  # runtime failure -> exit 1 with diagnostics
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
