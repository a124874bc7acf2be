"""Command-line entry point: train / eval / gen-data / stats / replay.

Exit codes: 0 success, 1 runtime error, 2 usage or config error. Reports go
to stdout, diagnostics to stderr. --workers sets `ppo.workers`, the threads
that each rollout of train steps its envs on, so it matters to train only.
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

COMMANDS = ("train", "eval", "gen-data", "stats", "replay")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manibench",
        description="Desk-scale mobile-manipulation training, evaluation, and data generation.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON run config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--robot", type=str, default=None)
        p.add_argument("--task", type=str, default=None, help="object family id")
        p.add_argument("--skill", type=str, default=None)
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--fixed-base", action="store_true", default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="PPO rollout threads; train only")
        if name == "replay":
            p.add_argument("trajectory", type=str, help="recorded .mmt file")
    return parser


def _load_config(args) -> RunConfig:
    text = ""
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
    return apply_overrides(
        parse_config(text), seed=args.seed, out=args.out, robot=args.robot,
        task=args.task, skill=args.skill, episodes=args.episodes,
        fixed_base=args.fixed_base, workers=args.workers)


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


def _cmd_replay(cfg: RunConfig, trajectory_path: str) -> int:
    traj = ds.read(trajectory_path)
    ds.replay_trajectory(traj)
    print(f"replay_ok={trajectory_path} frames={traj.length}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "train":
            return _cmd_train(cfg)
        if args.command == "eval":
            return _cmd_eval(cfg)
        if args.command == "gen-data":
            return _cmd_gen_data(cfg)
        if args.command == "stats":
            return _cmd_stats(cfg)
        if args.command == "replay":
            return _cmd_replay(cfg, args.trajectory)
    except Exception as exc:  # runtime failure -> exit 1 with diagnostics
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
