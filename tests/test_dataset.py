import dataclasses
import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from manibench import dataset as ds
from manibench import reward as rw
from manibench import world as w
from manibench.control import ScriptedController
from manibench.env import EpisodeConfig
from manibench.observation import ObservationLayout
from manibench.robot import gripper_bot
from manibench.reward import RewardSnapshot, total_reward


@pytest.fixture(scope="module")
def lid_trajectory():
    traj = ds.record_rollout(ScriptedController(), w.make_task("laptop", "open"),
                             gripper_bot(), EpisodeConfig(seed=40), seed=40,
                             retries=2)
    assert traj is not None
    return traj


# ---------------------------------------------------------------------------
# record_rollout
# ---------------------------------------------------------------------------

def test_record_scripted_succeeds_first_try(lid_trajectory):
    traj = lid_trajectory
    assert traj.success
    assert traj.length <= 300
    assert traj.instruction == "open laptop"
    np.testing.assert_array_equal(traj.t, np.arange(1, traj.length + 1))


def test_record_zero_retries_null_policy_returns_none():
    class NullPolicy:
        def deterministic_action(self, obs, env):
            return np.zeros(7)

    out = ds.record_rollout(NullPolicy(), w.make_task("laptop", "open"),
                            gripper_bot(), EpisodeConfig(seed=1, max_steps=20),
                            seed=1, retries=0)
    assert out is None


def test_negative_retries_is_value_error(tmp_path):
    """At retries = -1 the seed stride 1000*(retries+1) is 0: every
    trajectory would share one seed and make no attempt."""
    with pytest.raises(ValueError, match="retries must be >= 0, got -1"):
        ds.record_rollout(ScriptedController(), w.make_task("laptop", "open"),
                          gripper_bot(), EpisodeConfig(), seed=0, retries=-1)
    with pytest.raises(ValueError, match="retries must be >= 0, got -1"):
        ds.generate_dataset(tmp_path / "data", ScriptedController(),
                            [("gripper-bot", "laptop", "open")], 2, EpisodeConfig(),
                            retries=-1)
    assert not (tmp_path / "data").exists()


def test_recorded_flag_recomputable_from_states(lid_trajectory):
    traj = lid_trajectory
    layout = ObservationLayout.for_robot(gripper_bot())
    # hand-point positions live inside the observation's proprioception block;
    # recompute the flag from the stored grasp point instead via reward module
    for i in range(traj.length):
        obs = traj.observations[i]
        sl = layout.slices()["proprioception"]
        tips = obs[sl][12:12 + 9].reshape(3, 3)
        flag = rw.mean_hand_distance(tips, traj.grasp[i]) < rw.GRASP_THRESHOLD
        assert flag == bool(traj.f_g[i])


def test_recorded_rewards_recompute_exactly(lid_trajectory):
    # offline recompute: reset-time constants come from a fresh reset with the
    # recorded seed; everything else comes from the stored step blocks
    from manibench.env import Env

    traj = lid_trajectory
    spec = gripper_bot()
    env = Env(traj.config, w.make_task(traj.object_name, traj.skill), spec)
    env.reset(traj.episode)
    layout = ObservationLayout.for_robot(spec)
    sl = layout.slices()["proprioception"]
    for i in range(traj.length):
        prop = traj.observations[i][sl]
        snapshot = RewardSnapshot(
            hand_points=prop[12:21].reshape(3, 3),
            palm_position=prop[0:3],
            palm_rotation=prop[3:6],
            palm_rotation_init=env.palm_rotation_init,
            effector_init=env.effector_init,
            grasp_point=traj.grasp[i],
            goal_point=traj.goal[i],
        )
        terms = total_reward(snapshot, traj.actions[i], traj.weights)
        np.testing.assert_array_equal(terms.as_array(), traj.reward_terms[i])


def test_replay_reproduces_recorded_stream(lid_trajectory):
    ds.replay_trajectory(lid_trajectory)


def test_final_goal_distance_below_threshold(lid_trajectory):
    traj = lid_trajectory
    d = np.linalg.norm(traj.grasp[-1] - traj.goal[-1])
    assert d < traj.config.success_threshold


# ---------------------------------------------------------------------------
# write / read round trip
# ---------------------------------------------------------------------------

def test_round_trip_bit_exact(tmp_path, lid_trajectory):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    back = ds.read(path)
    assert back == lid_trajectory


def test_round_trip_twice_idempotent(tmp_path, lid_trajectory):
    p1, p2 = tmp_path / "a.mmt", tmp_path / "b.mmt"
    ds.write(lid_trajectory, p1)
    ds.write(ds.read(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_layout_is_the_files_own(tmp_path, lid_trajectory):
    # read checks every header against one cached layout per robot; a
    # caller's edit of a returned layout must not reach the next read
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    ds.read(path).layout.clear()
    assert ds.read(path) == lid_trajectory


def test_truncated_file_errors_with_offset(tmp_path, lid_trajectory):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    data = path.read_bytes()
    path.write_bytes(data[:-17])
    with pytest.raises(ds.MalformedTrajectory, match="byte offset"):
        ds.read(path)


def test_flipped_magic_errors(tmp_path, lid_trajectory):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    data = bytearray(path.read_bytes())
    data[0:2] = b"XX"
    path.write_bytes(bytes(data))
    with pytest.raises(ds.MalformedTrajectory, match="malformed trajectory"):
        ds.read(path)


def test_replay_detects_tampered_action(lid_trajectory):
    import copy
    # a tampered action first shows in the joints it drives; a tampered
    # state column is caught in that column
    for column, first_field in (("actions", "q"), ("object_state", "object_state"),
                                ("goal", "goal")):
        tampered = copy.deepcopy(lid_trajectory)
        getattr(tampered, column)[3, 0] += 0.01
        with pytest.raises(ds.ReplayMismatch, match=f"step 4, field '{first_field}'"):
            ds.replay_trajectory(tampered)


@pytest.mark.parametrize("edits,message", [
    # two columns at different steps: the earlier step, whatever its field
    ((("observations", 6), ("q", 2)), "step 3, field 'q'"),
    ((("qdot", 5), ("reward_terms", 1)), "step 2, field 'reward_terms'"),
    # two columns at one step: the first field in _ARRAY_FIELDS order
    ((("reward_terms", 4), ("qdot", 4), ("observations", 4)), "step 5, field 'qdot'"),
    ((("observations", 3), ("wrist", 3)), "step 4, field 'wrist'"),
])
def test_replay_names_the_earliest_step_then_the_first_field(lid_trajectory, edits,
                                                             message):
    """Replay checks each column once, as a whole array, yet names what a
    frame-by-frame check would. Only the actions drive the replay, so these
    edits change the recorded columns and not the replayed ones."""
    import copy
    tampered = copy.deepcopy(lid_trajectory)
    for column, row in edits:
        getattr(tampered, column)[row, -1] += 1e-9
    with pytest.raises(ds.ReplayMismatch, match=f"{message}$"):
        ds.replay_trajectory(tampered)


def edit_header_line(path, line, key, value):
    """Rewrite one key of a JSON header line ('config' or 'weights')."""
    head, marker, payload = path.read_bytes().partition(b"\nEND_HEADER\n")
    lines = head.decode("utf-8").split("\n")
    for k, text in enumerate(lines):
        name, _, body = text.partition(": ")
        if name == line:
            raw = json.loads(body)
            raw[key] = value
            lines[k] = f"{name}: {json.dumps(raw)}"
    path.write_bytes("\n".join(lines).encode("utf-8") + marker + payload)


@pytest.mark.parametrize("line,key", [("config", "grasp_threshold"),
                                      ("config", "success_threshold"),
                                      ("weights", "grasp_threshold"),
                                      ("weights", "success_threshold"),
                                      ("config", "yaw_range"),
                                      ("config", "object_height_range"),
                                      ("config", "open_init_angle"),
                                      ("config", "close_init_range")])
def test_header_threshold_other_than_fixed_is_malformed(tmp_path, lid_trajectory,
                                                        line, key):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    if key in ("object_height_range", "close_init_range"):
        other = [{"hex": (0.3).hex()}, {"hex": (0.6).hex()}]
    else:
        other = {"hex": (0.075).hex()}
    edit_header_line(path, line, key, other)
    with pytest.raises(ds.MalformedTrajectory, match=f"{line} field '{key}'"):
        ds.read(path)


def test_header_dt_other_than_fixed_is_malformed(tmp_path, lid_trajectory):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    header = path.read_bytes().split(b"\nEND_HEADER\n")[0].decode()
    config_line = next(line for line in header.splitlines() if line.startswith("config: "))
    assert json.loads(config_line[len("config: "):])["dt"] == {"hex": (1.0 / 30.0).hex()}
    edit_header_line(path, "config", "dt", {"hex": (0.02).hex()})
    with pytest.raises(ds.MalformedTrajectory, match="config field 'dt'"):
        ds.read(path)


@pytest.mark.parametrize("line,key", [("config", "max_stepz"), ("weights", "bogus")])
def test_header_unknown_json_field_is_malformed(tmp_path, lid_trajectory, line, key):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    edit_header_line(path, line, key, 1)
    with pytest.raises(ds.MalformedTrajectory) as exc:
        ds.read(path)
    assert str(exc.value) == f"malformed trajectory {path}: {line} has unknown field '{key}'"


@pytest.mark.parametrize("extra,message", [
    ("bogus: 1", "unknown header line 'bogus'"),
    ("sensors:none", "unknown header line 'sensors:none'"),
    ("frames: 0", "repeated header line 'frames'"),
    ("config: {}", "repeated header line 'config'"),
])
def test_header_unknown_or_repeated_line_is_malformed(tmp_path, lid_trajectory, extra,
                                                      message):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    head, marker, payload = path.read_bytes().partition(b"\nEND_HEADER\n")
    path.write_bytes(head + f"\n{extra}".encode("utf-8") + marker + payload)
    with pytest.raises(ds.MalformedTrajectory) as exc:
        ds.read(path)
    assert str(exc.value) == f"malformed trajectory {path}: {message}"


def test_header_json_line_that_is_not_an_object_is_malformed(tmp_path, lid_trajectory):
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    head, marker, payload = path.read_bytes().partition(b"\nEND_HEADER\n")
    lines = [("weights: [1, 2]" if text.startswith("weights: ") else text)
             for text in head.decode("utf-8").split("\n")]
    path.write_bytes("\n".join(lines).encode("utf-8") + marker + payload)
    with pytest.raises(ds.MalformedTrajectory) as exc:
        ds.read(path)
    assert str(exc.value) == f"malformed trajectory {path}: weights is not a JSON object"


@pytest.mark.parametrize("line,key,value,message", [
    ("config", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("config", "seed", True, "seed must be an integer, got True"),
    ("config", "max_steps", {"hex": (300.0).hex()}, "max_steps must be an integer, got 300.0"),
    ("config", "fixed_base", "no", "fixed_base must be a boolean, got 'no'"),
    ("config", "fixed_base", 0, "fixed_base must be a boolean, got 0"),
    ("config", "base_offset_range", ["a", "b"], "base_offset_range must be (low, high), "
     "finite, with 0 < low <= high, got ('a', 'b')"),
    ("config", "base_offset_range", [True, {"hex": (1.2).hex()}], "base_offset_range must be "
     "(low, high), finite, with 0 < low <= high, got (True, 1.2)"),
    ("config", "base_offset_range", {"hex": (1.2).hex()}, "base_offset_range must be "
     "(low, high), finite, with 0 < low <= high, got 1.2"),
    ("weights", "distance", True, "reward weight distance must be a number, got True"),
    ("weights", "move", "0.2", "reward weight move must be a number, got '0.2'"),
])
def test_header_setting_of_the_wrong_type_is_malformed(tmp_path, lid_trajectory, line, key,
                                                       value, message):
    """The header's settings pass the same checks as a run config's."""
    path = tmp_path / "a.mmt"
    ds.write(lid_trajectory, path)
    edit_header_line(path, line, key, value)
    with pytest.raises(ds.MalformedTrajectory) as exc:
        ds.read(path)
    assert str(exc.value) == f"malformed trajectory {path}: {message}"


def _frames(traj, rows):
    return dataclasses.replace(
        traj, **{name: getattr(traj, name)[rows] for name in ds._ARRAY_FIELDS})


def test_replay_without_last_frame_did_not_succeed(lid_trajectory):
    shorter = _frames(lid_trajectory, slice(0, -1))
    with pytest.raises(ds.ReplayMismatch, match="did not succeed"):
        ds.replay_trajectory(shorter)


def test_replay_of_zero_frames_did_not_succeed(lid_trajectory):
    with pytest.raises(ds.ReplayMismatch, match="did not succeed"):
        ds.replay_trajectory(_frames(lid_trajectory, slice(0, 0)))


def test_replay_past_episode_end_ended_early(lid_trajectory):
    n = lid_trajectory.length
    longer = _frames(lid_trajectory, [*range(n), n - 1])
    with pytest.raises(ds.ReplayMismatch, match=f"episode ended early at step {n + 1}"):
        ds.replay_trajectory(longer)
    # a step limit below the file's length also ends the episode early, but
    # max_steps enters the time embedding, so the first step already differs
    cut = dataclasses.replace(lid_trajectory, config=dataclasses.replace(
        lid_trajectory.config, max_steps=n - 1))
    with pytest.raises(ds.ReplayMismatch, match="step 1, field 'observations'"):
        ds.replay_trajectory(cut)


def test_replay_reports_a_mismatch_before_an_early_end(lid_trajectory):
    n = lid_trajectory.length
    longer = _frames(lid_trajectory, [*range(n), n - 1])
    longer.qddot[n - 2, 0] = np.nan    # NaN differs from everything, itself included
    with pytest.raises(ds.ReplayMismatch, match=f"step {n - 1}, field 'qddot'$"):
        ds.replay_trajectory(longer)


# ---------------------------------------------------------------------------
# generate_dataset / stats
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    tasks = [("gripper-bot", "laptop", "open"), ("gripper-bot", "holistic", "pick")]
    manifest = ds.generate_dataset(root, ScriptedController(), tasks,
                                   trajectories_per_task=3,
                                   episode_config=EpisodeConfig(seed=0), seed=0,
                                   retries=3)
    return root, manifest


def test_generate_counts_match_files(small_dataset):
    root, manifest = small_dataset
    for entry in manifest["tasks"]:
        assert entry["count"] == 3
        assert len(entry["files"]) == 3
        for rel in entry["files"]:
            assert (root / rel).is_file()


def test_stats_aggregates(small_dataset):
    root, manifest = small_dataset
    st = ds.stats(root)
    assert st.counts[("laptop", "open")] == 3
    assert st.counts[("holistic", "pick")] == 3
    assert st.mean_length > 0
    assert sum(st.histogram.values()) == 6
    report = ds.render_stats(st)
    assert "laptop" in report and "pick" in report
    assert report == ds.render_stats(ds.stats(root))  # regeneration identical


def test_stats_reads_headers_only(small_dataset, monkeypatch):
    """Each length comes from the file's `frames:` header line, and is the
    length that a full read gives; no payload is decoded."""
    root, manifest = small_dataset
    lengths = {(entry["object"], entry["skill"]): [ds.read(root / rel).length
                                                   for rel in entry["files"]]
               for entry in manifest["tasks"]}
    monkeypatch.setattr(ds, "read", None)
    assert ds.stats(root).lengths == lengths


def test_stats_names_a_truncated_file(tmp_path):
    """The payload size is checked against the file size, so a file cut
    short fails stats as it fails read."""
    manifest = ds.generate_dataset(tmp_path, ScriptedController(),
                                   [("gripper-bot", "laptop", "open")], 1,
                                   EpisodeConfig(seed=0), seed=0, retries=3)
    path = tmp_path / manifest["tasks"][0]["files"][0]
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(ds.MalformedTrajectory,
                       match=f"malformed trajectory {re.escape(str(path))}: binary payload"):
        ds.stats(tmp_path)


def test_stats_empty_dataset(tmp_path):
    manifest = ds.generate_dataset(tmp_path, ScriptedController(), [],
                                   trajectories_per_task=0,
                                   episode_config=EpisodeConfig(seed=0))
    st = ds.stats(tmp_path)
    assert st.counts == {}
    assert st.mean_length == 0.0
    assert st.histogram == {}


# ---------------------------------------------------------------------------
# generate_dataset on one process and on a pool: the same bytes
# ---------------------------------------------------------------------------

POOL_CELLS = [("gripper-bot", "laptop", "open"), ("gripper-bot", "table", "close"),
              ("gripper-bot", "cart", "push"), ("hand-bot", "cabinet", "open"),
              ("hand-bot", "faucet", "close"), ("hand-bot", "holistic", "pick")]


def on_cpus(monkeypatch, cpus: int) -> None:
    """Make generate_dataset size its pool as on a host with `cpus` CPUs."""
    monkeypatch.setattr(ds, "_pool_size", lambda n_units: min(cpus, n_units))


def dataset_bytes(root) -> dict:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_pool_writes_the_serial_bytes(tmp_path, monkeypatch):
    written = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus{cpus}"
        ds.generate_dataset(root, ScriptedController(), POOL_CELLS,
                            trajectories_per_task=3,
                            episode_config=EpisodeConfig(seed=5), seed=5)
        written[cpus] = dataset_bytes(root)
    assert len(written[1]) == len(POOL_CELLS) * 3 + 1   # every file and the manifest
    assert written[2] == written[1]


def test_pool_failures_and_log_in_unit_order(tmp_path, monkeypatch):
    runs = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        lines = []
        manifest = ds.generate_dataset(
            tmp_path / f"cpus{cpus}", ScriptedController(), POOL_CELLS[:3],
            trajectories_per_task=2, episode_config=EpisodeConfig(seed=0, max_steps=3),
            seed=0, retries=0, log=lines.append)
        runs[cpus] = ([entry["failures"] for entry in manifest["tasks"]], lines)
    assert runs[1][0] == [2, 2, 2]
    assert runs[2] == runs[1]
    # unit order: cell by cell, k within a cell; the seeds rise with the unit index
    assert [int(line.rsplit(" ", 1)[1]) for line in runs[1][1]] == \
        [1000 * unit for unit in range(6)]


class FailsOutsideParent(ScriptedController):
    """A network-free policy whose every action fails in any other process."""

    def __init__(self):
        self.parent = os.getpid()

    def deterministic_action(self, obs, env):
        if os.getpid() != self.parent:
            raise RuntimeError("no action outside the parent")
        return super().deterministic_action(obs, env)


def test_worker_exception_reraises_and_leaves_no_process(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^no action outside the parent$"):
        ds.generate_dataset(tmp_path, FailsOutsideParent(), POOL_CELLS[:2],
                            trajectories_per_task=2,
                            episode_config=EpisodeConfig(seed=0), seed=0)
    assert multiprocessing.active_children() == []


class NetworkLikePolicy(ScriptedController):
    """Carries an `obs_dim`, the mark of a network policy."""

    obs_dim = ObservationLayout.for_robot(gripper_bot()).total

    def __init__(self):
        self.pids = set()

    def deterministic_action(self, obs, env):
        self.pids.add(os.getpid())
        return super().deterministic_action(obs, env)


def test_network_policy_records_in_the_callers_process(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    policy = NetworkLikePolicy()
    manifest = ds.generate_dataset(tmp_path, policy, POOL_CELLS[:2],
                                   trajectories_per_task=2,
                                   episode_config=EpisodeConfig(seed=0), seed=0)
    assert [entry["count"] for entry in manifest["tasks"]] == [2, 2]
    assert policy.pids == {os.getpid()}


def test_no_tasks_writes_an_empty_manifest(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    manifest = ds.generate_dataset(tmp_path, ScriptedController(), [],
                                   trajectories_per_task=3,
                                   episode_config=EpisodeConfig(seed=0))
    assert manifest["tasks"] == []
    assert ds.read_manifest(tmp_path) == manifest


def test_stats_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        ds.stats(tmp_path / "nowhere")


def test_stats_hand_mean():
    st = ds.DatasetStats(counts={("a", "open"): 3},
                         lengths={("a", "open"): [100, 200, 300]},
                         mean_length=200.0, histogram={})
    assert st.cell_mean(("a", "open")) == 200.0


# ---------------------------------------------------------------------------
# depth_normalize
# ---------------------------------------------------------------------------

def test_depth_endpoints():
    assert ds.depth_normalize(0.0) == 0
    assert ds.depth_normalize(5.0) == 255
    assert ds.depth_normalize(7.3) == 255
    assert ds.depth_normalize(2.5) == 128  # 127.5 rounds away from zero


def test_depth_non_finite():
    assert ds.depth_normalize(float("nan")) == 255
    assert ds.depth_normalize(float("inf")) == 255


def test_depth_monotone_on_clip_range():
    xs = np.linspace(0.0, 5.0, 2001)
    vals = [ds.depth_normalize(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert min(vals) == 0 and max(vals) == 255
