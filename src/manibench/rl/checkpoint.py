"""Versioned binary policy checkpoints.

Layout (little-endian):
  magic "MMRL" | version u32 | robot-name u32+utf8 | effector dof u32 |
  policy widths u32 count + values | value widths u32 count + values |
  float64 payload in declared order: per policy layer W (row-major) then b,
  then log_std, action low, action high, then per value layer W then b.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .net import Mlp
from .ppo import GaussianPolicy

MAGIC = b"MMRL"
VERSION = 1


def save_checkpoint(path, policy: GaussianPolicy, value_net: Mlp,
                    robot_name: str, dof_effector: int) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    name = robot_name.encode("utf-8")
    parts.append(struct.pack("<I", len(name)))
    parts.append(name)
    parts.append(struct.pack("<I", dof_effector))
    for widths in (policy.net.widths, value_net.widths):
        parts.append(struct.pack("<I", len(widths)))
        parts.append(struct.pack(f"<{len(widths)}I", *widths))
    floats = []
    for w, b in zip(policy.net.weights, policy.net.biases):
        floats.extend([w.ravel(), b])
    floats.extend([policy.log_std, policy.low, policy.high])
    for w, b in zip(value_net.weights, value_net.biases):
        floats.extend([w.ravel(), b])
    parts.append(np.concatenate(floats).astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise ValueError(
                f"truncated checkpoint {self.path} at byte offset {self.offset}")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def load_checkpoint(path):
    """Returns (policy, value_net, meta dict)."""
    r = _Reader(Path(path).read_bytes(), path)
    if r.take(4) != MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}")
    version = r.u32()
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    robot_name = r.take(r.u32()).decode("utf-8")
    dof_effector = r.u32()
    policy_widths = [r.u32() for _ in range(r.u32())]
    value_widths = [r.u32() for _ in range(r.u32())]

    act_dim = policy_widths[-1]
    policy = GaussianPolicy.__new__(GaussianPolicy)
    policy.net = _read_mlp(r, policy_widths)
    policy.log_std = r.f64(act_dim)
    policy.low = r.f64(act_dim)
    policy.high = r.f64(act_dim)
    policy.mean_scale = 0.5 * (policy.high - policy.low)
    value_net = _read_mlp(r, value_widths)
    # the network-input scaling is a pure function of the robot
    from ..robot import make_robot
    from .ppo import observation_inv_scale
    try:
        policy.obs_inv_scale = observation_inv_scale(make_robot(robot_name))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    if r.offset != len(r.data):
        raise ValueError(
            f"trailing bytes in checkpoint {path} at byte offset {r.offset}")
    meta = {"robot": robot_name, "dof_effector": dof_effector, "version": version}
    return policy, value_net, meta


def _read_mlp(r: _Reader, widths) -> Mlp:
    net = Mlp.__new__(Mlp)
    net.widths = tuple(widths)
    net.weights = []
    net.biases = []
    for i in range(len(widths) - 1):
        net.weights.append(r.f64(widths[i] * widths[i + 1]).reshape(widths[i], widths[i + 1]))
        net.biases.append(r.f64(widths[i + 1]))
    return net
