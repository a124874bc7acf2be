"""Run configuration: strict JSON documents with typed defaults.

Unknown keys are rejected by name; JSON syntax errors surface with
line/column. Nested "episode" and "ppo" sections override EpisodeConfig and
PPOConfig fields; the PPO rollout threads are `ppo.workers` only.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields, replace

from .env import EpisodeConfig
from .rl import PPOConfig
from .robot import ROBOTS
from .world import OBJECTS, validate_skill


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    robot: str = "gripper-bot"
    task: str = "laptop"            # object family id
    skill: str = "open"
    seed: int = 0
    out: str = "runs/out"
    fixed_base: bool = False
    episodes: int = 200             # eval episode count
    trajectories: int = 10          # gen-data trajectories per task
    retries: int = 10               # gen-data seed retries per trajectory
    policy: str = "scripted"        # "scripted" or a checkpoint path
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)

    def validate(self) -> "RunConfig":
        for key, low in (("episodes", 1), ("trajectories", 1), ("retries", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.robot not in ROBOTS:
            raise ConfigError(f"unknown robot {self.robot!r}; expected one of {sorted(ROBOTS)}")
        if self.task not in OBJECTS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {sorted(OBJECTS)}")
        try:
            validate_skill(self.task, self.skill)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


def _coerce(key: str, value, default):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r} expects a boolean, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} expects an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r} expects a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} expects a string, got {value!r}")
        return value
    if default is None or isinstance(default, tuple):
        if value is None:
            return None
        if not isinstance(value, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"key {key!r} expects a list of numbers, got {value!r}")
        return tuple(float(v) for v in value)
    raise ConfigError(f"key {key!r} has unsupported type")


def _apply_section(section_name: str, raw: dict, default_obj):
    if not isinstance(raw, dict):
        raise ConfigError(f"key {section_name!r} expects an object")
    known = {f.name: getattr(default_obj, f.name) for f in fields(default_obj)}
    updates = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown key {section_name}.{key!r}")
        updates[key] = _coerce(f"{section_name}.{key}", value, known[key])
    try:
        return replace(default_obj, **updates)
    except ValueError as exc:   # the section's own range checks
        raise ConfigError(f"{section_name}: {exc}") from None


# top-level keys that flow into the nested sections of the same name
_PUSHED = {"episode": ("seed", "fixed_base"), "ppo": ("seed",)}


def _push_down(cfg: RunConfig, keys, raw: dict | None = None) -> RunConfig:
    """Copy the top-level values of `keys` into the sections that share
    them, except where the section in the raw document set its own."""
    for section, names in _PUSHED.items():
        own = (raw or {}).get(section) or {}
        pushed = {k: getattr(cfg, k) for k in names if k in keys and k not in own}
        if pushed:
            setattr(cfg, section, replace(getattr(cfg, section), **pushed))
    return cfg


def parse_config(text: str) -> RunConfig:
    """Strict single-document parse; defaults fill absent keys."""
    if not text.strip():
        return RunConfig().validate()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    cfg = RunConfig()
    scalar_defaults = {
        f.name: getattr(cfg, f.name) for f in fields(cfg)
        if f.name not in ("episode", "ppo")
    }
    updates: dict = {}
    for key, value in raw.items():
        if key == "episode":
            updates["episode"] = _apply_section("episode", value, cfg.episode)
        elif key == "ppo":
            updates["ppo"] = _apply_section("ppo", value, cfg.ppo)
        elif key in scalar_defaults:
            updates[key] = _coerce(key, value, scalar_defaults[key])
        else:
            raise ConfigError(f"unknown key {key!r}")
    cfg = dataclasses.replace(cfg, **updates).validate()
    return _push_down(cfg, scalar_defaults.keys(), raw)


def apply_overrides(cfg: RunConfig, workers: int | None = None, **overrides) -> RunConfig:
    """CLI-flag overrides on top of a parsed document (None = not given);
    `workers` sets `ppo.workers`."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if workers is not None:
        try:
            updates["ppo"] = replace(cfg.ppo, workers=workers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if not updates:
        return cfg
    return _push_down(replace(cfg, **updates).validate(), updates.keys())
