import pytest

from manibench.config import ConfigError, RunConfig, apply_overrides, parse_config
from manibench.env import EpisodeConfig
from manibench.reward import RewardWeights
from manibench.rl import PPOConfig


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.episode.seed == 0
    assert cfg.ppo.num_envs == 64
    assert cfg.ppo.learning_rate == 1e-3


def test_seed_override_propagates():
    cfg = parse_config('{"seed": 7}')
    assert cfg.seed == 7
    assert cfg.episode.seed == 7
    assert cfg.ppo.seed == 7


def test_nested_section_overrides():
    cfg = parse_config('{"ppo": {"iterations": 12, "num_envs": 8}, '
                       '"episode": {"max_steps": 50}}')
    assert cfg.ppo.iterations == 12
    assert cfg.ppo.num_envs == 8
    assert cfg.episode.max_steps == 50


def test_misspelled_key_named_in_error():
    with pytest.raises(ConfigError, match="lerning_rate"):
        parse_config('{"ppo": {"lerning_rate": 0.01}}')


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key 'robo'"):
        parse_config('{"robo": "gripper-bot"}')


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config('{"seed": 7,\n "bad\n}')


def test_type_errors():
    with pytest.raises(ConfigError, match="integer"):
        parse_config('{"seed": "seven"}')
    with pytest.raises(ConfigError, match="boolean"):
        parse_config('{"fixed_base": 1}')
    with pytest.raises(ConfigError, match="number"):
        parse_config('{"ppo": {"learning_rate": "fast"}}')


def test_range_fields_parse_to_tuples():
    cfg = parse_config('{"episode": {"base_offset_range": [0.8, 0.9]}}')
    assert cfg.episode.base_offset_range == (0.8, 0.9)


def test_invalid_robot_task_skill():
    with pytest.raises(ConfigError, match="unknown robot"):
        parse_config('{"robot": "arm-bot"}')
    with pytest.raises(ConfigError, match="unknown task"):
        parse_config('{"task": "sofa"}')
    with pytest.raises(ConfigError, match="not valid"):
        parse_config('{"task": "laptop", "skill": "pick"}')


def test_fixed_base_propagates_to_episode():
    cfg = parse_config('{"fixed_base": true}')
    assert cfg.episode.fixed_base is True


def test_apply_overrides():
    cfg = parse_config('{"seed": 1}')
    cfg = apply_overrides(cfg, seed=9, robot="hand-bot", workers=4)
    assert cfg.seed == 9
    assert cfg.episode.seed == 9
    assert cfg.ppo.seed == 9
    assert cfg.robot == "hand-bot"
    assert cfg.ppo.workers == 4


def test_apply_overrides_none_is_noop():
    cfg = parse_config('{"seed": 3}')
    assert apply_overrides(cfg, seed=None, out=None) == cfg


@pytest.mark.parametrize("key", ["grasp_threshold", "success_threshold",
                                 "yaw_range", "object_height_range",
                                 "open_init_angle", "close_init_range"])
def test_fixed_thresholds_are_not_config_keys(key):
    with pytest.raises(ConfigError, match=f"unknown key episode.'{key}'"):
        parse_config(f'{{"episode": {{"{key}": 0.05}}}}')


def test_control_step_is_not_a_config_key():
    with pytest.raises(ConfigError, match="unknown key episode.'dt'"):
        parse_config('{"episode": {"dt": 0.02}}')


@pytest.mark.parametrize("make,field", [
    (lambda: EpisodeConfig(max_steps=0), "max_steps"),
    (lambda: EpisodeConfig(base_offset_range=(1.5, 1.0)), "base_offset_range"),
    (lambda: EpisodeConfig(base_offset_range=(1.0,)), "base_offset_range"),
    (lambda: EpisodeConfig(base_offset_range=(1.0, 1.2, 5.0)), "base_offset_range"),
    (lambda: EpisodeConfig(base_offset_range=(0.0, 0.0)), "base_offset_range"),
    (lambda: EpisodeConfig(base_offset_range=(-1.0, -0.5)), "base_offset_range"),
    (lambda: EpisodeConfig(base_offset_range=(0.5, float("inf"))), "base_offset_range"),
    (lambda: EpisodeConfig(base_offset_range=(float("nan"), 1.0)), "base_offset_range"),
    (lambda: PPOConfig(num_envs=0), "num_envs"),
    (lambda: PPOConfig(rollout_horizon=0), "rollout_horizon"),
    (lambda: PPOConfig(minibatches=0), "minibatches"),
    (lambda: PPOConfig(workers=0), "workers"),
    (lambda: PPOConfig(clip_ratio=1.0), "clip_ratio"),
    (lambda: PPOConfig(iterations=-5), "iterations"),
    (lambda: PPOConfig(learning_rate=-1.0), "learning_rate"),
    (lambda: PPOConfig(learning_rate=float("nan")), "learning_rate"),
    (lambda: PPOConfig(learning_rate=float("inf")), "learning_rate"),
    (lambda: PPOConfig(grad_clip=0.0), "grad_clip"),
    (lambda: PPOConfig(log_std_init_scale=0.0), "log_std_init_scale"),
    (lambda: PPOConfig(target_kl=-1.0), "target_kl"),
    (lambda: PPOConfig(gamma=2.0), "gamma"),
    (lambda: PPOConfig(gae_lambda=-0.1), "gae_lambda"),
    (lambda: PPOConfig(entropy_coef=-0.01), "entropy_coef"),
    (lambda: PPOConfig(value_coef=float("nan")), "value_coef"),
    (lambda: PPOConfig(num_envs=2, rollout_horizon=4, minibatches=100), "minibatches"),
    (lambda: RewardWeights(move=-0.1), "move"),
    (lambda: RunConfig(episodes=0).validate(), "episodes must be >= 1, got 0"),
    (lambda: RunConfig(trajectories=-3).validate(), "trajectories must be >= 1, got -3"),
    (lambda: RunConfig(retries=-1, trajectories=2).validate(), "retries must be >= 0, got -1"),
])
def test_dataclass_checks_raise_value_error_naming_the_field(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_section_value_out_of_range_is_config_error():
    with pytest.raises(ConfigError, match="episode: max_steps must be >= 1, got 0"):
        parse_config('{"episode": {"max_steps": 0}}')
    with pytest.raises(ConfigError, match="ppo: clip_ratio"):
        parse_config('{"ppo": {"clip_ratio": 0.0}}')
    with pytest.raises(ConfigError, match="episode: base_offset_range must be"):
        parse_config('{"episode": {"base_offset_range": [1.0]}}')


def test_workers_below_one_is_config_error():
    with pytest.raises(ConfigError, match="workers must be >= 1, got -3"):
        apply_overrides(parse_config(""), workers=-3)
    with pytest.raises(ConfigError, match="^workers must be >= 1, got 0"):
        parse_config('{"workers": 0}')
    with pytest.raises(ConfigError, match="ppo: workers must be >= 1, got 0"):
        parse_config('{"ppo": {"workers": 0}}')
