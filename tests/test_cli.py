import json
import re

import numpy as np
import pytest

from manibench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_eval_prints_success_rate_line(capsys):
    code, out, _ = run_cli(capsys, "eval", "--task", "laptop", "--skill", "open",
                           "--episodes", "3", "--seed", "5")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("success_rate=")]
    assert len(line) == 1
    assert float(line[0].split("=")[1]) == 1.0  # scripted oracle


def test_eval_same_invocation_identical(capsys):
    _, out1, _ = run_cli(capsys, "eval", "--task", "holistic", "--skill", "pick",
                         "--episodes", "2", "--seed", "3")
    _, out2, _ = run_cli(capsys, "eval", "--task", "holistic", "--skill", "pick",
                         "--episodes", "2", "--seed", "3")
    assert out1 == out2


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"lerning_rate": 1}')
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 2
    assert "lerning_rate" in err


def test_config_that_is_a_directory_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--config", str(tmp_path))
    assert code == 2
    assert err.startswith("config error:") and str(tmp_path) in err


def test_gen_data_stats_replay_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "data"
    code, out, _ = run_cli(capsys, "gen-data", "--task", "laptop", "--skill", "open",
                           "--out", str(out_dir), "--seed", "11",
                           "--config", str(_cfg(tmp_path, {"trajectories": 2})))
    assert code == 0
    assert "recorded=2" in out

    code, out, _ = run_cli(capsys, "stats", "--out", str(out_dir))
    assert code == 0
    assert "laptop" in out and "open" in out

    manifest = json.loads((out_dir / "manifest.json").read_text())
    rel = manifest["tasks"][0]["files"][0]
    code, out, _ = run_cli(capsys, "replay", str(out_dir / rel))
    assert code == 0
    assert "replay_ok" in out


def test_stats_truncated_file_exits_one(tmp_path, capsys):
    out_dir = tmp_path / "data"
    code, _, _ = run_cli(capsys, "gen-data", "--task", "laptop", "--skill", "open",
                         "--out", str(out_dir), "--seed", "11",
                         "--config", str(_cfg(tmp_path, {"trajectories": 1})))
    assert code == 0
    code, _, _ = run_cli(capsys, "stats", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    path = out_dir / manifest["tasks"][0]["files"][0]
    path.write_bytes(path.read_bytes()[:-8])
    code, out, err = run_cli(capsys, "stats", "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert f"error: malformed trajectory {path}: binary payload" in err


def _cfg(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return path


def test_gen_data_deterministic_bytes(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "gen-data", "--task", "holistic",
                             "--skill", "pick", "--out", str(out_dir),
                             "--seed", "2",
                             "--config", str(_cfg(tmp_path, {"trajectories": 1})))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        rel = manifest["tasks"][0]["files"][0]
        outs.append((out_dir / rel).read_bytes())
    assert outs[0] == outs[1]


def test_replay_missing_file_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "replay", str(tmp_path / "nope.mmt"))
    assert code == 1
    assert "error" in err


def test_train_smoke_writes_checkpoint_and_curve(tmp_path, capsys):
    cfg = _cfg(tmp_path, {
        "ppo": {"iterations": 2, "num_envs": 2, "rollout_horizon": 4},
        "episode": {"max_steps": 10},
    })
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "train", "--config", str(cfg),
                             "--out", str(out_dir), "--seed", "1")
    assert code == 0
    progress = [l for l in err.splitlines() if l.startswith("iteration ")]
    assert len(progress) == 2
    for line in progress:
        assert re.search(r" kl \S+ rollout_s \d+\.\d\d update_s \d+\.\d\d ", line)
    assert (out_dir / "checkpoint.mmrl").is_file()
    curve = (out_dir / "learning_curve.tsv").read_text().splitlines()
    assert curve[0] == "iteration\tmean_return\tsuccess_rate"
    assert len(curve) == 3

    from manibench.rl import load_checkpoint
    policy, _, meta = load_checkpoint(out_dir / "checkpoint.mmrl")
    assert meta["robot"] == "gripper-bot"


@pytest.mark.parametrize("argv,message", [
    (("train", "--workers", "0"), "workers must be >= 1, got 0"),
    (("train", "--workers", "-3"), "workers must be >= 1, got -3"),
    (("eval", "--episodes", "0"), "episodes must be >= 1, got 0"),
    (("gen-data", "--config", {"trajectories": -3}), "trajectories must be >= 1, got -3"),
    (("gen-data", "--config", {"retries": -1, "trajectories": 2}),
     "retries must be >= 0, got -1"),
])
def test_count_out_of_range_exits_two(tmp_path, capsys, argv, message):
    argv = [str(_cfg(tmp_path, a)) if isinstance(a, dict) else a for a in argv]
    if argv[0] != "eval":   # eval writes nothing and takes no --out
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"config error: {message}" in err
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("replay", "--seed", "1", "traj.mmt"),
    ("eval", "--workers", "2"),
    ("eval", "--out", "d"),
    ("gen-data", "--episodes", "3"),
    ("stats", "--robot", "hand-bot"),
])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)   # a command that runs anyway writes its default out here
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"unrecognized arguments: {argv[1]}" in err


@pytest.mark.parametrize("command,flags", [
    ("train", "--config --seed --out --robot --task --skill --fixed-base --workers"),
    ("eval", "--config --seed --robot --task --skill --episodes --fixed-base"),
    ("gen-data", "--config --seed --out --robot --task --skill --fixed-base"),
    ("stats", "--config --out"),
    ("replay", ""),
])
def test_help_lists_only_the_command_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == flags.split()


def test_ppo_section_workers_below_one_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ppo": {"workers": 0}}))
    code, _, err = run_cli(capsys, "train", "--config", str(cfg))
    assert code == 2
    assert "ppo: workers must be >= 1, got 0" in err


def test_top_level_workers_key_exits_two(tmp_path, capsys):
    """The rollout threads are `ppo.workers` (or --workers) only."""
    code, out, err = run_cli(capsys, "train", "--config", str(_cfg(tmp_path, {"workers": 2})),
                             "--out", str(tmp_path / "out"))
    assert code == 2
    assert "config error: unknown key 'workers'" in err
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("ppo,message", [
    ({"learning_rate": -1.0}, "ppo: learning_rate must be finite and > 0, got -1.0"),
    ({"minibatches": 100},
     "ppo: minibatches must be <= num_envs * rollout_horizon (8), got 100"),
])
def test_ppo_value_out_of_range_exits_two(tmp_path, capsys, ppo, message):
    # a small run, so that a missed check trains briefly instead of for hours
    small = {"iterations": 1, "num_envs": 2, "rollout_horizon": 4}
    cfg = _cfg(tmp_path, {"ppo": {**small, **ppo}, "episode": {"max_steps": 10}})
    code, out, err = run_cli(capsys, "train", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"config error: {message}" in err
    assert out == "" and not (tmp_path / "out").exists()


def test_eval_checkpoint_of_unknown_robot_exits_one(tmp_path, capsys):
    from manibench import rl
    from manibench.robot import gripper_bot

    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    ck = tmp_path / "ck.mmrl"
    rl.save_checkpoint(ck, policy, value_net, "no-such-bot", spec.dof_effector)
    code, out, err = run_cli(capsys, "eval", "--episodes", "1",
                             "--config", str(_cfg(tmp_path, {"policy": str(ck)})))
    assert code == 1
    assert "no-such-bot" in err
    assert "success_rate" not in out


# ---------------------------------------------------------------------------
# boundary failures: loud, with exit codes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lid_file(tmp_path_factory):
    from manibench import dataset as ds
    from manibench.control import ScriptedController
    from manibench.env import EpisodeConfig
    from manibench.robot import gripper_bot
    from manibench.world import make_task

    traj = ds.record_rollout(ScriptedController(), make_task("laptop", "open"),
                             gripper_bot(), EpisodeConfig(seed=40), seed=40)
    path = tmp_path_factory.mktemp("traj") / "lid.mmt"
    ds.write(traj, path)
    return path


def test_config_threshold_key_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"episode": {"grasp_threshold": 0.05}})
    code, out, err = run_cli(capsys, "eval", "--episodes", "1", "--config", str(cfg))
    assert code == 2
    assert "grasp_threshold" in err
    assert "success_rate" not in out


@pytest.mark.parametrize("offsets", [[0, 0], [-1.0, -0.5]])
def test_config_base_offsets_off_the_front_exit_two(tmp_path, capsys, offsets):
    # (0, 0) would leave reset no heading to face (a NaN observation);
    # negative offsets would put the base behind the object
    cfg = _cfg(tmp_path, {"episode": {"base_offset_range": offsets}})
    code, out, err = run_cli(capsys, "eval", "--episodes", "1", "--config", str(cfg))
    assert code == 2
    assert "base_offset_range" in err
    assert "success_rate" not in out


@pytest.mark.parametrize("key", ["yaw_range", "object_height_range",
                                 "open_init_angle", "close_init_range"])
def test_config_reset_distribution_key_exits_two(tmp_path, capsys, key):
    cfg = _cfg(tmp_path, {"episode": {key: 0.1}})
    code, out, err = run_cli(capsys, "eval", "--episodes", "1", "--config", str(cfg))
    assert code == 2
    assert f"unknown key episode.'{key}'" in err
    assert "success_rate" not in out


def test_config_dt_key_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"episode": {"dt": 0.02}})
    code, out, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "data"),
                             "--config", str(cfg))
    assert code == 2
    assert "'dt'" in err
    assert not (tmp_path / "data").exists()


def test_config_value_out_of_range_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"episode": {"max_steps": 0}})
    code, out, err = run_cli(capsys, "eval", "--episodes", "1", "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error:") and "max_steps" in err
    assert "success_rate" not in out


def test_config_checks_hold_under_optimized_python():
    """The dataclass checks raise ValueError, which `python -O` keeps."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    program = ("from manibench.env import EpisodeConfig\n"
               "try:\n    EpisodeConfig(max_steps=0)\n"
               "except ValueError as exc:\n    print(exc)\n"
               "else:\n    raise SystemExit('max_steps=0 accepted')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-O", "-c", program], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "max_steps" in result.stdout


def test_eval_truncated_checkpoint_exits_one(tmp_path, capsys):
    from manibench import rl
    from manibench.robot import gripper_bot

    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    ck = tmp_path / "ck.mmrl"
    rl.save_checkpoint(ck, policy, value_net, spec.name, spec.dof_effector)
    ck.write_bytes(ck.read_bytes()[:1000])
    code, out, err = run_cli(capsys, "eval", "--episodes", "1",
                             "--config", str(_cfg(tmp_path, {"policy": str(ck)})))
    assert code == 1
    assert str(ck) in err and "byte offset" in err
    assert "success_rate" not in out


def test_eval_checkpoint_whose_nets_do_not_fit_its_robot_exits_one(tmp_path, capsys):
    from manibench import rl
    from manibench.robot import gripper_bot

    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    ck = tmp_path / "ck.mmrl"
    rl.save_checkpoint(ck, policy, value_net, "hand-bot", spec.dof_effector)
    code, out, err = run_cli(capsys, "eval", "--robot", "gripper-bot", "--episodes", "1",
                             "--config", str(_cfg(tmp_path, {"policy": str(ck)})))
    assert code == 1
    assert str(ck) in err and "policy widths first entry is 146" in err
    assert "broadcast" not in err
    assert "success_rate" not in out


def test_gen_data_checkpoint_of_other_robot_exits_one(tmp_path, capsys):
    from manibench import rl
    from manibench.robot import hand_bot

    spec = hand_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    ck = tmp_path / "hand.mmrl"
    rl.save_checkpoint(ck, policy, value_net, spec.name, spec.dof_effector)
    code, out, err = run_cli(capsys, "gen-data", "--robot", "gripper-bot",
                             "--out", str(tmp_path / "data"),
                             "--config", str(_cfg(tmp_path, {"policy": str(ck),
                                                              "trajectories": 1})))
    assert code == 1
    assert "policy expects obs dim 223" in err and "produces 146" in err
    assert "recorded=" not in out


def _threshold_hex(value):
    return f'"grasp_threshold": {{"hex": "{value.hex()}"}}'.encode()


_MMT_EDITS = {
    "truncated": (lambda data: data[:-100], "byte offset"),
    "frames_not_integer": (lambda data: data.replace(b"\nframes: ", b"\nframes: x", 1),
                           "invalid literal for int()"),
    "seed_not_integer": (lambda data: data.replace(b"\nseed: ", b"\nseed: x", 1),
                         "invalid literal for int()"),
    "success_not_boolean": (lambda data: data.replace(b"\nsuccess: true", b"\nsuccess: yes", 1),
                            "'yes'"),
    "robot_missing": (lambda data: re.sub(rb"\nrobot: [^\n]*", b"", data, count=1),
                      "'robot'"),
    "grasp_threshold_edited": (
        lambda data: data.replace(_threshold_hex(0.1), _threshold_hex(0.05), 1),
        "'grasp_threshold'"),
    "robot_relabelled": (
        lambda data: data.replace(b"\nrobot: gripper-bot\n", b"\nrobot: hand-bot\n", 1),
        "joint_dim is 10, robot hand-bot needs"),
    "robot_unknown": (
        lambda data: data.replace(b"\nrobot: gripper-bot\n", b"\nrobot: no-such-bot\n", 1),
        "unknown robot 'no-such-bot'"),
    "object_unknown": (
        lambda data: data.replace(b"\nobject: laptop\n", b"\nobject: toaster\n", 1),
        "unknown object 'toaster'"),
    "skill_invalid_for_object": (
        lambda data: data.replace(b"\nskill: open\n", b"\nskill: pick\n", 1),
        "skill 'pick' not valid for 'laptop'"),
    "dimensions_shifted": (  # same frame width: 3 * 9 + 149 == 3 * 10 + 146
        lambda data: data.replace(b"\njoint_dim: 10\n", b"\njoint_dim: 9\n", 1)
        .replace(b"\nobs_dim: 146\n", b"\nobs_dim: 149\n", 1),
        "joint_dim is 9, robot gripper-bot needs 10"),
    "frames_negative": (lambda data: re.sub(rb"\nframes: \d+\n", b"\nframes: -1\n", data,
                                            count=1),
                        "frames is -1, must be >= 1"),
    # only successful episodes are stored, and success takes a step
    "frames_zero": (lambda data: re.sub(rb"\nframes: \d+\n", b"\nframes: 0\n", data, count=1),
                    "frames is 0, must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(_MMT_EDITS))
def test_replay_malformed_trajectory_exits_one(tmp_path, capsys, lid_file, case):
    edit, detail = _MMT_EDITS[case]
    data = lid_file.read_bytes()
    path = tmp_path / "broken.mmt"
    path.write_bytes(edit(data))
    assert path.read_bytes() != data
    code, out, err = run_cli(capsys, "replay", str(path))
    assert code == 1
    assert "malformed trajectory" in err and detail in err
    assert "replay_ok" not in out


def test_replay_of_a_non_finite_action_names_it(tmp_path, capsys, lid_file):
    """A NaN in a recorded action fails the replay at that action, not as a
    mismatch of the joints it would have driven."""
    from manibench import dataset as ds

    traj = ds.read(lid_file)
    traj.actions[4, 1] = np.nan
    path = tmp_path / "nan_action.mmt"
    ds.write(traj, path)
    code, out, err = run_cli(capsys, "replay", str(path))
    assert code == 1
    assert err == "error: action[1] is nan, must be finite\n"
    assert "replay_ok" not in out and "mismatch" not in err
