import numpy as np
import pytest

from manibench import eval_harness as eh
from manibench import rl
from manibench.env import EpisodeConfig
from manibench.robot import gripper_bot
from manibench.rl.ppo import EpisodeRecord


def scripted_matrix(episodes=3, cells=None):
    cells = cells or (
        eh.MatrixCell("gripper-bot", "laptop", "open"),
        eh.MatrixCell("gripper-bot", "holistic", "pick"),
    )
    return eh.TaskMatrix(cells=tuple(cells), episodes_per_cell=episodes, seed_base=0)


def test_zero_episode_cell_errors():
    with pytest.raises(ValueError, match="no episodes"):
        eh.run_matrix(scripted_matrix(episodes=0))


def test_skill_mean_arithmetic():
    cells = [
        eh.CellResult(eh.MatrixCell("gripper-bot", "laptop", "open"), 0.8),
        eh.CellResult(eh.MatrixCell("gripper-bot", "table", "open"), 0.6),
    ]
    result = eh.MatrixResult(cells=cells)
    assert result.skill_means()["open"] == pytest.approx(0.7)


def test_run_matrix_deterministic():
    m = scripted_matrix(episodes=2)
    r1 = eh.run_matrix(m, EpisodeConfig(max_steps=120))
    r2 = eh.run_matrix(m, EpisodeConfig(max_steps=120))
    assert eh.render_matrix(r1) == eh.render_matrix(r2)


def test_missing_checkpoint_marks_cell_and_continues(tmp_path):
    cells = (
        eh.MatrixCell("gripper-bot", "laptop", "open", str(tmp_path / "nope.mmrl")),
        eh.MatrixCell("gripper-bot", "holistic", "pick"),
    )
    result = eh.run_matrix(eh.TaskMatrix(cells=cells, episodes_per_cell=2),
                           EpisodeConfig(max_steps=120))
    report = eh.render_matrix(result)
    assert "missing" in report
    pick_cell = [c for c in result.cells if c.cell.skill == "pick"][0]
    assert pick_cell.success_rate is not None


def test_grand_mean_is_episode_weighted():
    records_a = [EpisodeRecord(i, s, 10, 0.0) for i, s in enumerate([True, True, False])]
    records_b = [EpisodeRecord(i, s, 10, 0.0) for i, s in enumerate([False, False, False])]
    cells = [
        eh.CellResult(eh.MatrixCell("gripper-bot", "laptop", "open"), 2 / 3, records_a),
        eh.CellResult(eh.MatrixCell("gripper-bot", "holistic", "pick"), 0.0, records_b),
    ]
    result = eh.MatrixResult(cells=cells)
    assert result.grand_mean() == pytest.approx(2 / 6)


def test_report_regeneration_identical():
    m = scripted_matrix(episodes=2)
    result = eh.run_matrix(m, EpisodeConfig(max_steps=120))
    assert eh.render_matrix(result) == eh.render_matrix(result)


def test_matrix_rejects_duplicate_cells():
    c = eh.MatrixCell("gripper-bot", "laptop", "open")
    with pytest.raises(ValueError, match="duplicate"):
        eh.TaskMatrix(cells=(c, c), episodes_per_cell=1)


def test_checkpoint_cell_round_trip(tmp_path):
    spec = gripper_bot()
    policy, value_net = rl.build_nets(spec, rl.PPOConfig(seed=0))
    ck = tmp_path / "p.mmrl"
    rl.save_checkpoint(ck, policy, value_net, spec.name, spec.dof_effector)
    cells = (eh.MatrixCell("gripper-bot", "laptop", "open", str(ck)),)
    result = eh.run_matrix(eh.TaskMatrix(cells=cells, episodes_per_cell=2),
                           EpisodeConfig(max_steps=40))
    assert result.cells[0].success_rate is not None


def test_ablation_scripted_direction():
    # targets ~1.2 m out: beyond fixed-base reach, trivial for the mobile base
    off = 1.2 / np.sqrt(2)
    out = eh.ablate_fixed_base(
        "gripper-bot", "laptop", "open", eh.SCRIPTED, eh.SCRIPTED,
        episodes=5, seed=0, base_offset_range=(off, off))
    assert out.fixed_rate == 0.0
    assert out.mobile_rate == 1.0


def test_ablation_missing_checkpoint(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing checkpoint"):
        eh.ablate_fixed_base("gripper-bot", "laptop", "open",
                             str(tmp_path / "a.mmrl"), eh.SCRIPTED, episodes=1)


def test_ablation_zero_episodes():
    with pytest.raises(ValueError, match="no episodes"):
        eh.ablate_fixed_base("gripper-bot", "laptop", "open",
                             eh.SCRIPTED, eh.SCRIPTED, episodes=0)
