"""Trajectory recording, bit-exact serialization, replay, and statistics.

One file per successful trajectory: a human-readable text header (instruction,
ids, episode config with hex-encoded floats, observation layout) terminated by
an END_HEADER line, followed by little-endian float64 step blocks in a fixed
field order:

  t | q | qdot | qddot | wrist t(3) r(3) | object joint(1) attached(1)
  free t(3) r(3) | grasp(3) | goal(3) | f_g | action | r_d r_a r_g r_m r_s
  total | observation

Stored states are post-action snapshots indexed from 1; the reward in a block
is recomputable from that same block's state and action. The header records
values that are fixed in the code: the grasp/success thresholds, the control
step `dt` and the reset distribution (`yaw_range`, `object_height_range`,
`open_init_angle`, `close_init_range`); a file with other values is
malformed, and `read` names the field. So is a header with an unknown or
repeated line, an unknown key or a value of the wrong type in its `config`
or `weights` line (the `EpisodeConfig` and `RewardWeights` checks), or zero
frames. Recording and replay both step the env through `env.run_episode`,
the one episode loop.
Only successful episodes, of at least one step, are stored. Images are not
recorded; the header marks "sensors: none" for forward compatibility.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from .env import (CLOSE_INIT_RANGE, OBJECT_HEIGHT_RANGE, OPEN_INIT_ANGLE, YAW_RANGE, Env,
                  EpisodeConfig, run_episode)
from .observation import ObservationLayout, check_policy_obs_dim
from .reward import GRASP_THRESHOLD, SUCCESS_THRESHOLD, RewardWeights
from .robot import DT, FRAME_RATE, RobotSpec, make_robot
from .world import TaskSpec, make_task, validate_skill

MAGIC_LINE = "MMTRAJ 1"
TRAJ_SUFFIX = ".mmt"
MANIFEST_NAME = "manifest.json"


class MalformedTrajectory(ValueError):
    pass


class ReplayMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ("t", "q", "qdot", "qddot", "wrist", "object_state", "grasp",
                 "goal", "f_g", "actions", "reward_terms", "observations")


@dataclass
class Trajectory:
    robot: str
    object_name: str
    skill: str
    instruction: str
    seed: int                      # episode-config seed that succeeded
    episode: int
    success: bool
    config: EpisodeConfig
    weights: RewardWeights
    layout: dict                   # observation layout as a plain dict
    t: np.ndarray                  # (F,)
    q: np.ndarray                  # (F, J)
    qdot: np.ndarray
    qddot: np.ndarray
    wrist: np.ndarray              # (F, 6) translation + rotation vector
    object_state: np.ndarray       # (F, 8) joint, attached, free pose t+r
    grasp: np.ndarray              # (F, 3)
    goal: np.ndarray               # (F, 3)
    f_g: np.ndarray                # (F,)
    actions: np.ndarray            # (F, 6+D)
    reward_terms: np.ndarray       # (F, 6) r_d r_a r_g r_m r_s total
    observations: np.ndarray       # (F, obs)

    @property
    def length(self) -> int:
        return int(self.t.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        meta_same = (
            self.robot == other.robot and self.object_name == other.object_name
            and self.skill == other.skill and self.instruction == other.instruction
            and self.seed == other.seed and self.episode == other.episode
            and self.success == other.success and self.config == other.config
            and self.weights == other.weights and self.layout == other.layout)
        if not meta_same:
            return False
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _ARRAY_FIELDS)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

def _object_state_row(state) -> np.ndarray:
    row = np.zeros(8)
    row[0] = state.joint_value
    row[1] = 1.0 if state.attached else 0.0
    if state.free_pose is not None:
        row[2:5] = state.free_pose.translation
        row[5:8] = state.free_pose.rotation
    return row


def _frame_row(env: Env, action: np.ndarray, obs: np.ndarray, info: dict) -> dict:
    """Every recorded field of the frame a step just produced: recording
    stacks these rows into columns, replay writes them into its columns.
    The row holds the step's own arrays, which no later step changes (the
    env replaces its state arrays, it does not write into them), so only
    that stacking or writing copies them."""
    robot = env.robot
    return {
        "t": float(env.t),
        "q": robot.q,
        "qdot": robot.qdot,
        "qddot": robot.qddot,
        "wrist": np.concatenate([robot.wrist_pose.translation, robot.wrist_pose.rotation]),
        "object_state": _object_state_row(env.object_state),
        "grasp": info["grasp_point"],
        "goal": env.task.goal_point,
        "f_g": 1.0 if info["f_g"] else 0.0,
        "actions": action,
        "reward_terms": info["terms"].as_array(),
        "observations": obs,
    }


def _check_retries(retries: int) -> None:
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


def record_rollout(policy, task: TaskSpec, robot_spec: RobotSpec,
                   episode_config: EpisodeConfig, seed: int, retries: int = 10,
                   weights: RewardWeights | None = None) -> Trajectory | None:
    """Roll deterministic episodes with incremented seeds until one succeeds.

    Returns the successful trajectory, or None when retries are exhausted
    (the caller logs a generation failure).
    """
    _check_retries(retries)
    check_policy_obs_dim(policy, robot_spec)
    weights = weights or RewardWeights()
    for attempt in range(retries + 1):
        config = replace(episode_config, seed=seed + attempt)
        env = Env(config, task, robot_spec)
        rows = {name: [] for name in _ARRAY_FIELDS}
        for action, obs, info in run_episode(env, policy.deterministic_action, 0, weights):
            for name, value in _frame_row(env, action, obs, info).items():
                rows[name].append(value)
        if not env.success:
            continue
        arrays = {name: np.array(vals) for name, vals in rows.items()}
        return Trajectory(
            robot=robot_spec.name,
            object_name=task.object.category_label,
            skill=task.skill,
            instruction=task.instruction,
            seed=config.seed,
            episode=0,
            success=True,
            config=config,
            weights=weights,
            layout=ObservationLayout.for_robot(robot_spec).to_dict(),
            **arrays,
        )
    return None


# ---------------------------------------------------------------------------
# Header (de)serialization: floats as hex for exact round trips
# ---------------------------------------------------------------------------

def _enc(value):
    if isinstance(value, float):
        return {"hex": value.hex()}
    if isinstance(value, tuple):
        return [_enc(v) for v in value]
    return value


def _dec(value):
    if isinstance(value, dict) and "hex" in value:
        return float.fromhex(value["hex"])
    if isinstance(value, list):
        return tuple(_dec(v) for v in value)
    return value


_CONFIG_FIELDS = ("seed", "max_steps", "dt", "base_offset_range", "yaw_range",
                  "object_height_range", "open_init_angle", "close_init_range",
                  "grasp_threshold", "success_threshold", "fixed_base")
_WEIGHT_FIELDS = ("distance", "approach", "grasp", "move", "success",
                  "grasp_threshold", "success_threshold")
# the header lines between the magic line and END_HEADER, as `write` emits them
_HEADER_KEYS = ("robot", "object", "skill", "instruction", "seed", "episode", "frames",
                "success", "sensors", "config", "weights", "layout", "joint_dim",
                "action_dim", "obs_dim")
# recorded in the header lines, fixed in the code
_FIXED = {"dt": DT, "grasp_threshold": GRASP_THRESHOLD,
          "success_threshold": SUCCESS_THRESHOLD, "yaw_range": YAW_RANGE,
          "object_height_range": OBJECT_HEIGHT_RANGE, "open_init_angle": OPEN_INIT_ANGLE,
          "close_init_range": CLOSE_INIT_RANGE}


def _header_json(obj, names) -> str:
    return json.dumps({k: _enc(_FIXED[k] if k in _FIXED else getattr(obj, k))
                       for k in names})


def _from_header_json(cls, line: str, text: str, names):
    """Rebuild a config dataclass from its header line; the fixed values it
    records must be the code's."""
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise MalformedTrajectory(f"{line} is not a JSON object")
    unknown = sorted(raw.keys() - set(names))
    if unknown:
        raise MalformedTrajectory(f"{line} has unknown field {unknown[0]!r}")
    values = {k: _dec(raw[k]) for k in names}
    for name in _FIXED.keys() & values.keys():
        value = values.pop(name)
        if value != _FIXED[name]:
            raise MalformedTrajectory(
                f"{line} field {name!r} is {value!r}, but it is fixed at {_FIXED[name]!r}")
    return cls(**values)


# ---------------------------------------------------------------------------
# write / read
# ---------------------------------------------------------------------------

def write(traj: Trajectory, path) -> None:
    path = Path(path)
    header = [
        MAGIC_LINE,
        f"robot: {traj.robot}",
        f"object: {traj.object_name}",
        f"skill: {traj.skill}",
        f"instruction: {traj.instruction}",
        f"seed: {traj.seed}",
        f"episode: {traj.episode}",
        f"frames: {traj.length}",
        f"success: {str(traj.success).lower()}",
        "sensors: none",
        f"config: {_header_json(traj.config, _CONFIG_FIELDS)}",
        f"weights: {_header_json(traj.weights, _WEIGHT_FIELDS)}",
        f"layout: {json.dumps(traj.layout)}",
        f"joint_dim: {traj.q.shape[1]}",
        f"action_dim: {traj.actions.shape[1]}",
        f"obs_dim: {traj.observations.shape[1]}",
        "END_HEADER",
        "",
    ]
    # one (F, frame width) table: the fields' columns side by side, in order
    table = np.column_stack([getattr(traj, name) for name in _ARRAY_FIELDS])
    payload = table.astype("<f8", copy=False).tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("\n".join(header).encode("utf-8") + payload)


@cache
def _robot(robot_name: str):
    """(spec, dims) of a robot: the `RobotSpec` replay steps, and the
    (n_joints, action_dim, observation width, layout dict) that `read` checks
    a header against; ValueError for an unknown robot. Cached per name:
    building a `RobotSpec` costs more than a read. Callers must not change
    either."""
    spec = make_robot(robot_name)
    layout = ObservationLayout.for_robot(spec)
    return spec, (spec.n_joints, spec.action_dim, layout.total, layout.to_dict())


@cache
def _task(object_name: str, skill: str) -> TaskSpec:
    """The task replay steps, once per (object, skill); ValueError for an
    unknown one. Envs only read their task."""
    return make_task(object_name, skill)


_END_HEADER = b"\nEND_HEADER\n"


def _header(path: Path, head: bytes, size: int):
    """(Trajectory keywords but the arrays, frames, column widths, payload
    offset) of the `size`-byte `.mmt` file at `path` whose first bytes, up to
    END_HEADER at least, are `head`. A failed header check or a payload that
    is not the declared frames' size raises MalformedTrajectory naming it."""
    end = head.find(_END_HEADER)
    if not head.startswith(MAGIC_LINE.encode("utf-8")):
        raise MalformedTrajectory(f"malformed trajectory {path}: bad magic line")
    if end < 0:
        raise MalformedTrajectory(f"malformed trajectory {path}: END_HEADER missing")
    fields = {}
    for line in head[:end].decode("utf-8").splitlines()[1:]:
        key, _, value = line.partition(": ")
        if key not in _HEADER_KEYS or key in fields:
            problem = "repeated" if key in fields else "unknown"
            raise MalformedTrajectory(
                f"malformed trajectory {path}: {problem} header line {key!r}")
        fields[key] = value
    try:
        frames = int(fields["frames"])
        joint_dim = int(fields["joint_dim"])
        action_dim = int(fields["action_dim"])
        obs_dim = int(fields["obs_dim"])
        meta = {"robot": fields["robot"], "object_name": fields["object"],
                "skill": fields["skill"], "instruction": fields["instruction"],
                "seed": int(fields["seed"]), "episode": int(fields["episode"]),
                "success": {"true": True, "false": False}[fields["success"]],
                "config": _from_header_json(EpisodeConfig, "config", fields["config"],
                                            _CONFIG_FIELDS),
                "weights": _from_header_json(RewardWeights, "weights", fields["weights"],
                                             _WEIGHT_FIELDS),
                "layout": json.loads(fields["layout"])}
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedTrajectory(f"malformed trajectory {path}: {exc}") from exc
    # the header must name a robot and a task that exist, in that robot's shape
    try:
        _, robot_dims = _robot(meta["robot"])
        validate_skill(meta["object_name"], meta["skill"])
    except ValueError as exc:
        raise MalformedTrajectory(f"malformed trajectory {path}: {exc}") from None
    # only successful episodes are stored, and each took at least one step
    if frames < 1:
        raise MalformedTrajectory(f"malformed trajectory {path}: frames is {frames}, "
                                  f"must be >= 1")
    for name, got, want in zip(("joint_dim", "action_dim", "obs_dim", "layout"),
                               (joint_dim, action_dim, obs_dim, meta["layout"]), robot_dims):
        if got != want:
            raise MalformedTrajectory(f"malformed trajectory {path}: {name} is {got}, "
                                      f"robot {meta['robot']} needs {want}")

    widths = {
        "t": 1, "q": joint_dim, "qdot": joint_dim, "qddot": joint_dim,
        "wrist": 6, "object_state": 8, "grasp": 3, "goal": 3, "f_g": 1,
        "actions": action_dim, "reward_terms": 6, "observations": obs_dim,
    }
    start = end + len(_END_HEADER)
    expected = frames * sum(widths.values()) * 8
    actual = size - start
    if actual != expected:
        raise MalformedTrajectory(
            f"malformed trajectory {path}: binary payload is {actual} bytes, "
            f"expected {expected}, at byte offset {start + min(actual, expected)}")
    return meta, frames, widths, start


def _read_header(path: Path):
    """`_header` of a `.mmt` file from its header bytes alone."""
    with open(path, "rb") as f:
        head = b""
        while _END_HEADER not in head and (chunk := f.read(4096)):
            head += chunk
        return _header(path, head, os.fstat(f.fileno()).st_size)


def read(path) -> Trajectory:
    path = Path(path)
    data = path.read_bytes()
    meta, frames, widths, start = _header(path, data, len(data))
    # a view of the file's bytes; each field is copied out of it once
    flat = np.frombuffer(data, dtype="<f8", offset=start)
    table = flat.reshape(frames, sum(widths.values()))
    arrays = {}
    offset = 0
    for name in _ARRAY_FIELDS:
        width = widths[name]
        chunk = table[:, offset:offset + width]
        arrays[name] = (chunk[:, 0] if width == 1 and name in ("t", "f_g")
                        else chunk).astype(np.float64)
        offset += width
    return Trajectory(**meta, **arrays)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay_trajectory(traj: Trajectory) -> None:
    """Re-run the recorded actions in a fresh env and demand bit-equality.

    The replayed frames are written into columns shaped like the recorded
    ones, then each recorded column is compared once, as a whole array.
    Raises ReplayMismatch naming the first diverging step and, within it,
    the first field in `_ARRAY_FIELDS` order; a mismatch before an early
    episode end is reported as the mismatch.
    """
    env = Env(traj.config, _task(traj.object_name, traj.skill), _robot(traj.robot)[0])
    steps = run_episode(env, lambda obs, env: traj.actions[env.t], traj.episode,
                        traj.weights)
    actual = {name: np.empty_like(getattr(traj, name)) for name in _ARRAY_FIELDS}
    replayed = 0
    for i, (action, obs, info) in zip(range(traj.length), steps):
        for name, value in _frame_row(env, action, obs, info).items():
            actual[name][i] = value
        replayed += 1
    diverged = None   # (step index, field name) of the earliest mismatch
    for name in _ARRAY_FIELDS:
        step = _first_difference(getattr(traj, name)[:replayed], actual[name][:replayed])
        if step is not None and (diverged is None or step < diverged[0]):
            diverged = (step, name)
    if diverged is not None:
        raise ReplayMismatch(
            f"replay mismatch at step {diverged[0] + 1}, field {diverged[1]!r}")
    if replayed < traj.length:
        raise ReplayMismatch(f"episode ended early at step {replayed + 1}")
    if not env.success:
        raise ReplayMismatch("replayed episode did not succeed")


def _first_difference(recorded: np.ndarray, actual: np.ndarray) -> int | None:
    """Index of the first frame whose row differs, by `np.array_equal`'s
    rule (NaN differs from everything, -0.0 equals 0.0); None when all agree."""
    differs = (recorded != actual).any(axis=tuple(range(1, recorded.ndim)))
    return int(differs.argmax()) if differs.any() else None


# ---------------------------------------------------------------------------
# Dataset generation & manifest
# ---------------------------------------------------------------------------

def task_dir_name(robot: str, object_name: str, skill: str) -> str:
    return f"{robot}__{skill}_{object_name}"


def _record_unit(root: Path, policy, cells, episode_config: EpisodeConfig,
                 retries: int, weights, unit) -> str | None:
    """Record and write one trajectory unit `(cell index, relative path,
    seed)`; returns the relative path, or None when every retry failed."""
    cell, rel, traj_seed = unit
    spec, task = cells[cell]
    traj = record_rollout(policy, task, spec, episode_config, seed=traj_seed,
                          retries=retries, weights=weights)
    if traj is None:
        return None
    write(traj, root / rel)
    return rel


_worker_record = None   # a forked worker's recording function


def _adopt_record(record) -> None:
    global _worker_record
    _worker_record = record


def _worker_record_unit(unit):
    return _worker_record(unit)


def _pool_size(n_units: int) -> int:
    """One recording process per CPU this process may run on."""
    return min(len(os.sched_getaffinity(0)), n_units)


def _map_units(record, units: list, processes: int) -> list:
    """`record(unit)` for every unit, in unit order: in this process, or on
    `processes` forked workers when that is more than one. Each unit is a
    pure function of its seed, so the results do not depend on scheduling."""
    if processes <= 1:
        return [record(unit) for unit in units]
    import multiprocessing   # only the parallel path pays for the import
    # fork shares `record` without pickling and re-imports nothing; on an
    # exception, leaving the block terminates the workers and joins them
    with multiprocessing.get_context("fork").Pool(
            processes, _adopt_record, (record,)) as pool:
        results = list(pool.imap(_worker_record_unit, units, chunksize=1))
        pool.close()
        pool.join()
    return results


def generate_dataset(root, policy, tasks, trajectories_per_task: int,
                     episode_config: EpisodeConfig, seed: int = 0,
                     retries: int = 10, weights: RewardWeights | None = None,
                     log=None) -> dict:
    """Record trajectories for (robot, object, skill) triples; returns the
    manifest dict (also written to root/manifest.json).

    Trajectories are recorded on one process per available CPU. A network
    policy (one with an `obs_dim`) records in this process: its BLAS threads
    would contend across processes.
    """
    _check_retries(retries)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    seed_stride = 1000 * (retries + 1)
    entries, cells, units = [], [], []
    for task_index, (robot_name, object_name, skill) in enumerate(tasks):
        spec, task = make_robot(robot_name), make_task(object_name, skill)
        entries.append({
            "robot": robot_name, "object": object_name, "skill": skill,
            "instruction": task.instruction,
            "layout": ObservationLayout.for_robot(spec).to_dict(),
            "count": 0, "files": [], "failures": 0,
        })
        cells.append((spec, task))
        task_dir = task_dir_name(robot_name, object_name, skill)
        for k in range(trajectories_per_task):
            units.append((task_index, f"{task_dir}/traj_{k:05d}{TRAJ_SUFFIX}",
                          seed + seed_stride * (task_index * trajectories_per_task + k)))
    record = partial(_record_unit, root, policy, cells, episode_config, retries, weights)
    processes = 1 if hasattr(policy, "obs_dim") else _pool_size(len(units))
    for (task_index, _, traj_seed), written in zip(
            units, _map_units(record, units, processes)):
        entry = entries[task_index]
        if written is None:
            entry["failures"] += 1
            if log:
                log(f"generation failure: {entry['robot']} {entry['skill']} "
                    f"{entry['object']} seed {traj_seed}")
            continue
        entry["files"].append(written)
        entry["count"] += 1
    manifest = {"version": 1, "frame_rate": FRAME_RATE, "tasks": entries}
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                      encoding="utf-8")
    return manifest


def read_manifest(root) -> dict:
    path = Path(root) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"missing manifest: {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

_HIST_BIN = 30  # frames per histogram bin (one second at 30 FPS)


@dataclass
class DatasetStats:
    counts: dict          # (object, skill) -> trajectory count
    lengths: dict         # (object, skill) -> list of frame counts
    mean_length: float
    histogram: dict       # bin lower edge -> count

    def cell_mean(self, key) -> float:
        vals = self.lengths.get(key, [])
        return float(np.mean(vals)) if vals else math.nan


def stats(root) -> DatasetStats:
    manifest = read_manifest(root)
    root = Path(root)
    counts: dict = {}
    lengths: dict = {}
    for entry in manifest["tasks"]:
        key = (entry["object"], entry["skill"])
        counts[key] = counts.get(key, 0) + entry["count"]
        for rel in entry["files"]:
            lengths.setdefault(key, []).append(_read_header(root / rel)[1])
    all_lengths = [n for cell in lengths.values() for n in cell]
    histogram: dict = {}
    for n in all_lengths:
        b = (n // _HIST_BIN) * _HIST_BIN
        histogram[b] = histogram.get(b, 0) + 1
    mean_length = float(np.mean(all_lengths)) if all_lengths else 0.0
    return DatasetStats(counts=counts, lengths=lengths, mean_length=mean_length,
                        histogram=histogram)


def render_stats(st: DatasetStats) -> str:
    """Delimited-text report: skill rows x object-category columns."""
    objects = sorted({obj for obj, _ in st.counts})
    skills = sorted({sk for _, sk in st.counts})
    lines = ["count\t" + "\t".join(objects)]
    for sk in skills:
        row = [sk] + [str(st.counts.get((obj, sk), 0)) for obj in objects]
        lines.append("\t".join(row))
    lines.append("mean_frames\t" + "\t".join(objects))
    for sk in skills:
        row = [sk]
        for obj in objects:
            mean = st.cell_mean((obj, sk))
            row.append("-" if math.isnan(mean) else f"{mean:.1f}")
        lines.append("\t".join(row))
    lines.append(f"overall_mean_frames\t{st.mean_length:.1f}")
    lines.append("length_histogram_bin\tcount")
    for edge in sorted(st.histogram):
        lines.append(f"{edge}-{edge + _HIST_BIN - 1}\t{st.histogram[edge]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Depth pixel normalization
# ---------------------------------------------------------------------------

_DEPTH_CLIP_M = 5.0
_DEPTH_MAX_PIXEL = 255


def depth_normalize(raw_depth: float) -> int:
    """Map metres to a 0..255 pixel: clip to [0, 5] m, scale by 255/5,
    round half away from zero. Non-finite readings saturate to 255."""
    if not math.isfinite(raw_depth):
        return _DEPTH_MAX_PIXEL
    clipped = min(max(float(raw_depth), 0.0), _DEPTH_CLIP_M)
    return int(math.floor(clipped * (_DEPTH_MAX_PIXEL / _DEPTH_CLIP_M) + 0.5))
