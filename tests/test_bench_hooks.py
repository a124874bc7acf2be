"""The benchmark's tracer wraps `manibench` names by attribute lookup; a name
it wraps that is renamed or deleted must fail here, not in a benchmark run."""
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def test_tracer_installs_and_uninstalls(spans):
    from manibench import env, robot
    from manibench.control import run_scripted_episode
    from manibench.world import make_task

    step, apply = env.Env.step, robot.apply_action_with_chain
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert env.Env.step is not step and robot.apply_action_with_chain is not apply
        run_scripted_episode(env.Env(env.EpisodeConfig(seed=0, max_steps=3),
                                     make_task("laptop", "open"), robot.gripper_bot()), 0)
        metrics = spans.per_layer_metrics(tracer, 0.0)
    finally:
        tracer.uninstall()
    assert env.Env.step is step and robot.apply_action_with_chain is apply
    assert tracer.summary()["env.step"][0] == 3
    assert "robot.ik_warning" in tracer.counts
    assert metrics["robot.wrist_chain.calls_per_step"] > 0


def test_tracer_sees_every_wrist_chain_call(spans):
    """Every chain call goes through the `robot._wrist_chain` attribute, so
    the per-layer chain counts are non-zero under the tracer; a call made
    through a local alias would read 0 here."""
    import numpy as np

    from manibench import env, robot
    from manibench.control import run_scripted_episode
    from manibench.geometry import Transform
    from manibench.world import make_task

    spec = robot.hand_bot()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        run_scripted_episode(env.Env(env.EpisodeConfig(seed=0, max_steps=5),
                                     make_task("laptop", "open"), spec), 0)
        metrics = spans.per_layer_metrics(tracer, 0.0)
        state = robot.make_initial_state(spec, Transform.identity())
        new_state, chain = robot.apply_action_with_chain(spec, state, np.zeros(spec.action_dim))
    finally:
        tracer.uninstall()
    assert metrics["robot.ik_solve.chain_calls_per_call"] >= 1
    assert metrics["robot.wrist_chain.calls_per_step"] >= 2
    assert chain is new_state.chain and new_state.ik_warning is False


def test_tracer_sees_the_reward_and_observation_of_every_step(spans):
    """`Env.step` calls `reward.total_reward`, `reward.mean_hand_distance` and
    `observation.build_observation` through the names the tracer wraps: a
    reuse routed through a private alias would make their per-layer metrics
    read 0. The step computes its mean hand distance once, except on a step
    that attaches the object, whose grasp point moves after the attach test."""
    from manibench import env, robot
    from manibench.control import ScriptedController
    from manibench.world import make_task

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        episode = env.Env(env.EpisodeConfig(seed=0), make_task("laptop", "open"),
                          robot.gripper_bot())
        steps = attaches = 0
        attached = False
        for _, _, info in env.run_episode(episode, ScriptedController().deterministic_action, 0):
            attaches += info["attached"] and not attached
            attached = info["attached"]
            steps += 1
        metrics = spans.per_layer_metrics(tracer, 0.0)
    finally:
        tracer.uninstall()
    calls = {name: n for name, (n, _, _) in tracer.summary().items()}
    assert episode.success and steps > 1 and attaches >= 1
    assert calls["env.step"] == calls["reward.total_reward"] == steps
    assert calls["observation.build_observation"] == steps + 1   # and the reset's
    assert tracer.counts["reward.mean_hand_distance"] == steps + attaches
    assert 1.0 < metrics["reward.mean_hand_distance.calls_per_step"] < 1.1
    assert metrics["reward.total_reward.us"] > 0
    assert metrics["observation.build_observation.us"] > 0


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    return workloads


def test_every_workload_runs_one_correct_round(workloads, tmp_path):
    """One untimed round of each benchmark workload, with its own output
    checks: a change to the API the benchmark calls (`PPOConfig`,
    `collect_rollouts`, `make_slots`, `generate_dataset`, `evaluate`,
    checkpoints) fails here rather than in a benchmark run."""
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=0, out=tmp_path / name)
        workload.setup()
        result = workload.run_round(0)   # raises CheckFailed on a wrong output
        assert result.failed == 0 and result.errors == [], (name, result.errors)
        assert result.attempted > 0 and result.steps > 0, name
