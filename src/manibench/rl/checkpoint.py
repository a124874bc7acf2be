"""Versioned binary policy checkpoints.

Layout (little-endian):
  magic "MMRL" | version u32 | robot-name u32+utf8 | effector dof u32 |
  policy widths u32 count + values | value widths u32 count + values |
  float64 payload in declared order: per policy layer W (row-major) then b,
  then log_std, action low, action high, then per value layer W then b.

Saving and loading stream each array straight between its own buffer and the
file, so neither holds a second copy of the parameters. `load_checkpoint`
checks the header before it reads any payload: the named robot must exist,
both width lists need at least 2 entries, the nets must read the robot's
observation width and emit its action dim (policy) or 1 (value), the
effector dof must be the robot's, and the file must hold exactly the payload
the widths declare. After the payload, the stored action low and high must be
bitwise the robot's `action_bounds`. Each failure is a ValueError naming the
file.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from ..observation import ObservationLayout
from ..robot import make_robot
from .net import Mlp
from .ppo import GaussianPolicy, action_bounds, observation_inv_scale

MAGIC = b"MMRL"
VERSION = 1


def save_checkpoint(path, policy: GaussianPolicy, value_net: Mlp,
                    robot_name: str, dof_effector: int) -> None:
    name = robot_name.encode("utf-8")
    header = [MAGIC, struct.pack("<II", VERSION, len(name)), name,
              struct.pack("<I", dof_effector)]
    for widths in (policy.net.widths, value_net.widths):
        header.append(struct.pack(f"<I{len(widths)}I", len(widths), *widths))
    arrays = [a for wb in zip(policy.net.weights, policy.net.biases) for a in wb]
    arrays += [policy.log_std, policy.low, policy.high]
    arrays += [a for wb in zip(value_net.weights, value_net.biases) for a in wb]
    with open(path, "wb") as f:
        f.write(b"".join(header))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8"))


class _Reader:
    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size
        self.offset = 0

    def truncated(self, offset: int) -> ValueError:
        return ValueError(f"truncated checkpoint {self.path} at byte offset {offset}")

    def take(self, n: int) -> bytes:
        if self.offset + n > self.size:
            raise self.truncated(self.offset)
        self.offset += n
        return self.f.read(n)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def widths(self) -> list[int]:
        count = self.u32()
        return list(struct.unpack(f"<{count}I", self.take(4 * count)))

    def check_payload(self, counts) -> None:
        """Truncated or trailing-bytes error unless exactly `counts` float64s remain."""
        end = self.offset
        for count in counts:
            if end + 8 * count > self.size:
                raise self.truncated(end)
            end += 8 * count
        if end != self.size:
            raise ValueError(f"trailing bytes in checkpoint {self.path} at byte offset {end}")

    def f64(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype="<f8")
        if self.f.readinto(out) != out.nbytes:
            raise self.truncated(self.offset)
        self.offset += out.nbytes
        return out.astype(np.float64, copy=False)


def load_checkpoint(path):
    """Returns (policy, value_net, meta dict)."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(4) != MAGIC:
            raise ValueError(f"bad checkpoint magic in {path}")
        version = r.u32()
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version} in {path}")
        name = r.take(r.u32())
        try:
            robot_name = name.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"checkpoint {path}: robot name is not utf-8") from None
        dof_effector = r.u32()
        policy_widths = r.widths()
        value_widths = r.widths()
        try:
            spec = make_robot(robot_name)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
        _check_header(path, spec, dof_effector, policy_widths, value_widths)
        act_dim = policy_widths[-1]
        r.check_payload([*_layer_counts(policy_widths), act_dim, act_dim, act_dim,
                         *_layer_counts(value_widths)])

        policy_net = _read_mlp(r, policy_widths)
        log_std, low, high = r.f64(act_dim), r.f64(act_dim), r.f64(act_dim)
        value_net = _read_mlp(r, value_widths)
    for field, got, want in zip(("low", "high"), (low, high), action_bounds(spec)):
        if got.tobytes() != want.tobytes():
            raise ValueError(f"checkpoint {path}: action {field} {got.tolist()} is not "
                             f"robot {spec.name}'s {want.tolist()}")
    # the network-input scaling is a pure function of the robot
    policy = GaussianPolicy(policy_net, log_std, low, high, observation_inv_scale(spec))
    meta = {"robot": robot_name, "dof_effector": dof_effector, "version": version}
    return policy, value_net, meta


def _check_header(path, spec, dof_effector, policy_widths, value_widths) -> None:
    obs_dim = ObservationLayout.for_robot(spec).total
    for field, widths, out_dim in (("policy widths", policy_widths, spec.action_dim),
                                   ("value widths", value_widths, 1)):
        if len(widths) < 2:
            raise ValueError(
                f"checkpoint {path}: {field} {widths} need at least 2 entries")
        for end, got, want in (("first", widths[0], obs_dim), ("last", widths[-1], out_dim)):
            if got != want:
                raise ValueError(f"checkpoint {path}: {field} {end} entry is {got}, "
                                 f"robot {spec.name} needs {want}")
    if dof_effector != spec.dof_effector:
        raise ValueError(f"checkpoint {path}: dof_effector is {dof_effector}, "
                         f"robot {spec.name} has {spec.dof_effector}")


def _layer_counts(widths):
    """Float64 counts of each layer's W then b, in file order."""
    for n_in, n_out in zip(widths, widths[1:]):
        yield n_in * n_out
        yield n_out


def _read_mlp(r: _Reader, widths) -> Mlp:
    weights, biases = [], []
    for n_in, n_out in zip(widths, widths[1:]):
        weights.append(r.f64(n_in * n_out).reshape(n_in, n_out))
        biases.append(r.f64(n_out))
    return Mlp(weights, biases)
