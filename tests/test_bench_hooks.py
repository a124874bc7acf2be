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
