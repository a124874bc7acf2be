"""Out-of-tree tracing: spans and counters around the calls into each layer.

Wrappers replace a function wherever callers look its name up: every
attribute of a loaded `manibench` module that is the original function, or
the method on its class. Nothing under `src/` changes. Spans are kept in
flat typed arrays (name id, parent span, start, end) for the whole run and
written out at the end; a layer's self time is its span minus the spans of
its direct children.
"""
from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _batch(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span_wrapper(self, fn, label, on_return=None):
        """Wrap fn in a span; label is a name or a function of the call's
        arguments; on_return(tracer, args, result) may add counts."""
        clock = time.perf_counter
        fixed = None if callable(label) else self._id(label)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(fixed if fixed is not None else self._id(label(*args)))
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result
        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def patch_function(self, module, attr, make_wrapper):
        """Replace module.attr in every loaded manibench module that holds it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("manibench"):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def patch_method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self) -> dict:
        """name -> (calls, total seconds, total self seconds)."""
        nid, parent, start, end = self.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans directly under a parent_name span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        nid, parent, _, _ = self.arrays()
        under = parent >= 0
        hits = (nid == self._ids[child_name]) & under
        hits[under] &= nid[parent[under]] == self._ids[parent_name]
        return int(hits.sum())

    def write(self, path: Path) -> None:
        nid, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 start=start, end=end,
                 count_names=np.array(list(self.counts)),
                 count_values=np.array(list(self.counts.values()), dtype=np.float64))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from manibench import dataset, env, geometry, observation, reward, robot, world
    from manibench.control import ScriptedController
    from manibench.rl import checkpoint, net, ppo

    span = tracer.span_wrapper

    def fn(module, attr, label, on_return=None):
        tracer.patch_function(module, attr, lambda f: span(f, label, on_return))

    def method(cls, attr, label, on_return=None):
        tracer.patch_method(cls, attr, lambda f: span(f, label, on_return))

    def counted(module, attr, name):
        tracer.patch_function(module, attr, lambda f: tracer.count_wrapper(f, name))

    def ik_warning(t, args, result):
        t.count("robot.ik_warning", 1 if result[0].ik_warning else 0)

    def written(t, args, result):
        t.count("dataset.bytes_written", Path(args[1]).stat().st_size)
        t.count("dataset.frames_written", args[0].length)

    def replayed(t, args, result):
        t.count("dataset.frames_replayed", args[0].length)

    def updated(t, args, result):
        t.count("ppo.policy_steps", result.minibatch_steps)

    # count-only probes: called tens of times per step, where a span would
    # cost more than the call itself
    for attr in ("rotvec_to_matrix", "matrix_to_rotvec", "rotvec_difference"):
        counted(geometry, attr, f"geometry.{attr}")
    counted(world, "grasp_point", "world.grasp_point")
    counted(reward, "mean_hand_distance", "reward.mean_hand_distance")

    method(env.Env, "step", "env.step")
    method(env.Env, "reset", "env.reset")
    fn(robot, "apply_action_with_chain", "robot.apply_action", ik_warning)
    fn(robot, "ik_solve", "robot.ik_solve")
    fn(robot, "_wrist_chain", "robot.wrist_chain")
    fn(robot, "forward_kinematics", "robot.forward_kinematics")
    fn(world, "object_follow", "world.object_follow")
    fn(reward, "total_reward", "reward.total_reward")
    fn(observation, "build_observation", "observation.build_observation")
    method(ScriptedController, "action_for", "control.action_for")

    method(net.Mlp, "forward", lambda self, x: f"net.forward.b{_batch(x)}")
    method(net.Mlp, "forward_cached",
           lambda self, x, *a, **k: f"net.forward_cached.b{_batch(x)}")
    method(net.Mlp, "backward", lambda self, acts, dy: f"net.backward.b{_batch(dy)}")
    method(net.Adam, "step", "net.adam_step")
    fn(net, "clip_gradients", "net.clip_gradients")

    fn(ppo, "build_nets", "ppo.build_nets")
    fn(ppo, "collect_rollouts", "ppo.collect_rollouts")
    method(ppo.EnvSlot, "step", "ppo.env_slot_step")
    fn(ppo, "compute_gae", "ppo.compute_gae")
    fn(ppo, "ppo_update", "ppo.ppo_update", updated)
    method(ppo.GaussianPolicy, "deterministic_action", "eval.policy_action")
    fn(checkpoint, "save_checkpoint", "checkpoint.save")
    fn(checkpoint, "load_checkpoint", "checkpoint.load")

    fn(dataset, "record_rollout", "dataset.record_rollout")
    fn(dataset, "write", "dataset.write", written)
    fn(dataset, "read", "dataset.read")
    fn(dataset, "replay_trajectory", "dataset.replay", replayed)


_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def per_layer_metrics(tracer: Tracer, overhead: float) -> dict:
    """Every per-layer metric by name; a layer the workload never calls reads 0."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(name, unit, self_time=False):
        n, total, own = s.get(name, (0, 0.0, 0.0))
        return ratio(own if self_time else total, n) * _SCALE[unit]

    steps = calls("env.step")
    updates = calls("ppo.ppo_update")
    update_s = s.get("ppo.ppo_update", (0, 0.0, 0.0))[1]
    adam_in_update = tracer.child_calls("ppo.ppo_update", "net.adam_step")
    policy_steps = c.get("ppo.policy_steps", 0)
    update_samples = sum(int(name.rsplit(".b", 1)[1]) * tracer.child_calls("ppo.ppo_update", name)
                         for name in s if name.startswith("net.backward.b"))
    replay_s = (s.get("dataset.replay", (0, 0.0, 0.0))[1]
                + s.get("dataset.read", (0, 0.0, 0.0))[1])
    rollout_s = s.get("ppo.collect_rollouts", (0, 0.0, 0.0))[1]

    values = {
        "env.step.us": mean("env.step", "us"),
        "env.step.self_us": mean("env.step", "us", True),
        "env.reset.us": mean("env.reset", "us"),
        "robot.apply_action.self_us": mean("robot.apply_action", "us", True),
        "robot.ik_solve.us": mean("robot.ik_solve", "us"),
        "robot.ik_solve.chain_calls_per_call": ratio(
            tracer.child_calls("robot.ik_solve", "robot.wrist_chain"), calls("robot.ik_solve")),
        "robot.ik_warning_per_step": ratio(c.get("robot.ik_warning", 0), steps),
        "robot.wrist_chain.us": mean("robot.wrist_chain", "us"),
        "robot.wrist_chain.calls_per_step": ratio(calls("robot.wrist_chain"), steps),
        "robot.forward_kinematics.self_us": mean("robot.forward_kinematics", "us", True),
        "world.object_follow.us": mean("world.object_follow", "us"),
        "reward.total_reward.us": mean("reward.total_reward", "us"),
        "observation.build_observation.us": mean("observation.build_observation", "us"),
        "control.action_for.us": mean("control.action_for", "us"),
        "net.forward.b1.us": mean("net.forward.b1", "us"),
        "net.forward.b64.ms": mean("net.forward.b64", "ms"),
        "net.forward_cached.b512.ms": mean("net.forward_cached.b512", "ms"),
        "net.backward.b512.ms": mean("net.backward.b512", "ms"),
        "net.adam_step.ms": mean("net.adam_step", "ms"),
        "net.clip_gradients.ms": mean("net.clip_gradients", "ms"),
        "ppo.collect_rollouts.s": mean("ppo.collect_rollouts", "s"),
        "ppo.rollout.env_share": ratio(s.get("ppo.env_slot_step", (0, 0.0, 0.0))[1], rollout_s),
        "ppo.compute_gae.us": mean("ppo.compute_gae", "us"),
        "ppo.ppo_update.s": mean("ppo.ppo_update", "s"),
        "ppo.update_samples_per_s": ratio(update_samples, update_s),
        "ppo.policy_steps_per_update": ratio(policy_steps, updates),
        "ppo.value_steps_per_update": ratio(adam_in_update - policy_steps, updates),
        "ppo.build_nets.s": mean("ppo.build_nets", "s"),
        "checkpoint.save.ms": mean("checkpoint.save", "ms"),
        "checkpoint.load.ms": mean("checkpoint.load", "ms"),
        "dataset.attempts_per_traj": ratio(
            tracer.child_calls("dataset.record_rollout", "env.reset"),
            calls("dataset.record_rollout")),
        "dataset.write.ms": mean("dataset.write", "ms"),
        "dataset.read.ms": mean("dataset.read", "ms"),
        "dataset.bytes_per_frame": ratio(c.get("dataset.bytes_written", 0),
                                         c.get("dataset.frames_written", 0)),
        "dataset.replay.self_ms": mean("dataset.replay", "ms", True),
        "dataset.replay_frames_per_s": ratio(c.get("dataset.frames_replayed", 0), replay_s),
        "eval.policy_action.us": mean("eval.policy_action", "us"),
        "trace.span_count": float(len(tracer.start)),
        "trace.overhead": overhead,
    }
    for name in ("geometry.rotvec_to_matrix", "geometry.matrix_to_rotvec",
                 "geometry.rotvec_difference", "world.grasp_point",
                 "reward.mean_hand_distance"):
        values[f"{name}.calls_per_step"] = ratio(c.get(name, 0), steps)
    return {name: float(value) for name, value in values.items()}
