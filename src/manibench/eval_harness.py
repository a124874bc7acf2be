"""Batch evaluation over a (robot, object, skill, checkpoint) matrix.

Produces per-cell success rates, unweighted per-skill means, and an
episode-weighted grand mean, rendered as a delimited-text table with object
families as rows and skills as columns. Cells whose checkpoint file is
missing are marked "missing" and skipped. The fixed-base ablation evaluates
one policy per base mode under its matching mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .control import ScriptedController
from .env import EpisodeConfig
from .rl import evaluate, load_checkpoint
from .robot import make_robot
from .world import make_task

SCRIPTED = "scripted"


@dataclass(frozen=True)
class MatrixCell:
    robot: str
    object_name: str
    skill: str
    checkpoint: str = SCRIPTED   # path to a checkpoint, or "scripted"


@dataclass(frozen=True)
class TaskMatrix:
    cells: tuple
    episodes_per_cell: int
    seed_base: int = 0

    def __post_init__(self):
        names = {(c.robot, c.object_name, c.skill) for c in self.cells}
        if len(names) != len(self.cells):
            raise ValueError("duplicate matrix cells")


@dataclass
class CellResult:
    cell: MatrixCell
    success_rate: float | None   # None when the checkpoint is missing
    records: list = field(default_factory=list)


@dataclass
class MatrixResult:
    cells: list

    def skill_means(self) -> dict:
        means: dict = {}
        for sk in sorted({c.cell.skill for c in self.cells}):
            rates = [c.success_rate for c in self.cells
                     if c.cell.skill == sk and c.success_rate is not None]
            means[sk] = float(np.mean(rates)) if rates else None
        return means

    def grand_mean(self) -> float | None:
        outcomes = [r.success for c in self.cells for r in c.records]
        return float(np.mean(outcomes)) if outcomes else None


def resolve_policy(checkpoint: str):
    """Checkpoint path -> loaded policy; the literal "scripted" -> oracle.
    Returns None when a checkpoint file does not exist."""
    if checkpoint == SCRIPTED:
        return ScriptedController()
    path = Path(checkpoint)
    if not path.is_file():
        return None
    policy, _, _ = load_checkpoint(path)
    return policy


def run_matrix(matrix: TaskMatrix,
               episode_config: EpisodeConfig | None = None) -> MatrixResult:
    if matrix.episodes_per_cell <= 0:
        raise ValueError("no episodes")
    base = episode_config or EpisodeConfig()
    results = []
    for index, cell in enumerate(matrix.cells):
        policy = resolve_policy(cell.checkpoint)
        if policy is None:
            results.append(CellResult(cell=cell, success_rate=None))
            continue
        config = replace(base, seed=matrix.seed_base + index)
        out = evaluate(policy, make_task(cell.object_name, cell.skill),
                       make_robot(cell.robot), config, matrix.episodes_per_cell)
        results.append(CellResult(cell=cell, success_rate=out.success_rate,
                                  records=out.records))
    return MatrixResult(cells=results)


def render_matrix(result: MatrixResult) -> str:
    """TSV: object-family rows x skill columns, plus per-skill and grand means."""
    objects = sorted({c.cell.object_name for c in result.cells})
    skills = sorted({c.cell.skill for c in result.cells})
    by_key = {(c.cell.object_name, c.cell.skill): c for c in result.cells}
    lines = ["object\t" + "\t".join(skills)]
    for obj in objects:
        row = [obj]
        for sk in skills:
            cell = by_key.get((obj, sk))
            if cell is None:
                row.append("-")
            elif cell.success_rate is None:
                row.append("missing")
            else:
                row.append(f"{cell.success_rate:.4f}")
        lines.append("\t".join(row))
    means = result.skill_means()
    lines.append("skill_mean\t" + "\t".join(
        "missing" if means[sk] is None else f"{means[sk]:.4f}" for sk in skills))
    grand = result.grand_mean()
    lines.append("grand_mean\t" + ("missing" if grand is None else f"{grand:.4f}"))
    return "\n".join(lines) + "\n"


@dataclass
class AblationResult:
    mobile_rate: float
    fixed_rate: float


def ablate_fixed_base(robot: str, object_name: str, skill: str,
                      checkpoint_mobile: str, checkpoint_fixed: str,
                      episodes: int, seed: int = 0,
                      base_offset_range: tuple | None = None) -> AblationResult:
    """Paired success rates: each policy evaluated under its own base mode.

    base_offset_range overrides the sampling band in both modes, e.g. to park
    targets beyond the arm's reach of a fixed base.
    """
    if episodes <= 0:
        raise ValueError("no episodes")
    task = make_task(object_name, skill)
    spec = make_robot(robot)
    rates = {}
    for label, checkpoint, fixed in (("mobile", checkpoint_mobile, False),
                                     ("fixed", checkpoint_fixed, True)):
        policy = resolve_policy(checkpoint)
        if policy is None:
            raise FileNotFoundError(f"missing checkpoint for {label}: {checkpoint}")
        config = EpisodeConfig(seed=seed, fixed_base=fixed,
                               base_offset_range=base_offset_range)
        rates[label] = evaluate(policy, task, spec, config, episodes).success_rate
    return AblationResult(mobile_rate=rates["mobile"], fixed_rate=rates["fixed"])
