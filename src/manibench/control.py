"""Scripted oracle controller built from the reference shaping actions.

Approach phase (object not held): the reference approach action verbatim —
reach for the grasp point, hold the initial palm rotation, keep the effector
open. Move phase (object held): displace the wrist by (goal - grasp point).
For articulated objects this coincides with r_m's reference move
(goal - palm) once the palm rides the grasp manifold; for free objects it compensates the
palm-to-grasp offset frozen at attach time, which the success threshold
(0.05 m) is tighter than. Rotation is held and the effector stays at its
initial joints throughout.
"""
from __future__ import annotations

import numpy as np

from .env import run_episode


class ScriptedController:
    """Deterministic env-state policy; interchangeable with MLP policies
    through the deterministic_action(obs, env) protocol, which is the `act`
    that `env.run_episode`, the one episode loop, calls."""

    name = "scripted"

    def deterministic_action(self, obs, env) -> np.ndarray:
        return self.action_for(env)

    def action_for(self, env) -> np.ndarray:
        """A new action array; the rotation slot, and before the grasp the
        whole action, is the env's reference approach action."""
        reference = env.reference_action()
        if not env.object_state.attached:
            return reference.copy()
        action = np.empty(env.robot_spec.action_dim)
        action[0:3] = env.task.goal_point - env.grasp
        action[3:6] = reference[3:6]
        action[6:] = env.effector_init
        return action


def run_scripted_episode(env, episode: int, weights=None) -> dict:
    """Roll one scripted episode through `run_episode`; returns summary stats
    (used by tests/harness)."""
    steps, flagged_at = 0, None
    for _, _, info in run_episode(env, ScriptedController().deterministic_action,
                                  episode, weights):
        steps += 1
        if flagged_at is None and info["f_g"]:
            flagged_at = steps
    return {"success": env.success, "steps": steps, "flagged_at": flagged_at}
