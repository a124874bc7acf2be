"""Bit-identity of the float wrist-chain kernel and the DLS loop against
the generic references they replaced.

`reference_wrist_chain` is the generic Rodrigues chain: tuple 3x3 products
of R with the axis-angle matrix of every joint. `reference_ik_solve` is the
DLS loop over array chains, with `np.linalg.norm` and a Jacobian assembled
row by row in numpy. Every output of the kernel must equal theirs bit for
bit, the sign of a zero included.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from manibench import geometry as geo
from manibench import robot as rb

SPECS = [rb.gripper_bot(), rb.hand_bot()]


def _mm(a, b):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (a00 * b00 + a01 * b10 + a02 * b20,
         a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20,
         a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20,
         a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22),
    )


def _mv(a, v):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    x, y, z = v
    return (a00 * x + a01 * y + a02 * z,
            a10 * x + a11 * y + a12 * z,
            a20 * x + a21 * y + a22 * z)


def _axis_angle_tuples(axis, angle):
    ux, uy, uz = axis
    c = math.cos(angle)
    s = math.sin(angle)
    ic = 1.0 - c
    return (
        (c + ux * ux * ic, ux * uy * ic - uz * s, ux * uz * ic + uy * s),
        (uy * ux * ic + uz * s, c + uy * uy * ic, uy * uz * ic - ux * s),
        (uz * ux * ic - uy * s, uz * uy * ic + ux * s, c + uz * uz * ic),
    )


def reference_wrist_chain(spec, q, anchor):
    """The generic chain: (rw, pw, origins, axes) as arrays. Offsets are
    pure translations (RobotSpec rejects any other)."""
    origins = np.empty((9, 3))
    axes = np.empty((9, 3))
    r = anchor.rotation_matrix.tolist()
    p = anchor.translation.tolist()
    q = q.tolist()
    origins[0] = p
    axes[0] = _mv(r, (0.0, 0.0, 1.0))
    c, s = math.cos(q[0]), math.sin(q[0])
    r = _mm(r, ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)))
    drive = _mv(r, (0.0, 1.0, 0.0))
    axes[1] = drive
    origins[1] = p
    p = (p[0] + drive[0] * q[1], p[1] + drive[1] * q[1], p[2] + drive[2] * q[1])
    t = _mv(r, spec.base_mount.translation.tolist())
    p = (p[0] + t[0], p[1] + t[1], p[2] + t[2])
    arm_axes = spec.arm_axes.tolist()
    for i in range(7):
        t = _mv(r, spec.arm_offsets[i].translation.tolist())
        p = (p[0] + t[0], p[1] + t[1], p[2] + t[2])
        origins[2 + i] = p
        axes[2 + i] = _mv(r, arm_axes[i])
        r = _mm(r, _axis_angle_tuples(arm_axes[i], q[2 + i]))
    t = _mv(r, spec.wrist_offset.translation.tolist())
    pw = np.array((p[0] + t[0], p[1] + t[1], p[2] + t[2]))
    return np.array(r), pw, origins, axes


def reference_jacobian(pw, origins, axes):
    ax, ay, az = axes.T
    dx, dy, dz = (pw - origins).T
    j = np.empty((6, 9))
    j[0] = ay * dz - az * dy
    j[1] = az * dx - ax * dz
    j[2] = ax * dy - ay * dx
    j[3:6] = axes.T
    j[0:3, 1] = axes[1]
    j[3:6, 1] = 0.0
    return j


def reference_ik_solve(spec, q0, anchor, target, fixed_base=False, max_iters=50):
    """The DLS loop over array chains; returns (q, residual or None)."""
    q = np.array(q0, dtype=np.float64)
    r_target = target.rotation_matrix
    cols = slice(2, 9) if fixed_base else slice(0, 9)
    damping = 0.05 ** 2 * np.eye(6)
    best_err = np.inf
    stalled = 0
    for _ in range(max_iters):
        rw, pw, origins, axes = reference_wrist_chain(spec, q, anchor)
        e = np.empty(6)
        e[0:3] = target.translation - pw
        e[3:6] = geo.matrix_to_rotvec(r_target @ rw.T)
        pos_err = float(np.linalg.norm(e[0:3]))
        rot_err = float(np.linalg.norm(e[3:6]))
        if pos_err < 1e-4 and rot_err < 1e-3:
            return q, None
        if pos_err > best_err - 1e-7:
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0
        best_err = min(best_err, pos_err)
        j = reference_jacobian(pw, origins, axes)[:, cols]
        dq = j.T @ np.linalg.solve(j @ j.T + damping, e)
        q[cols] += dq
        q[0:9] = np.clip(q[0:9], spec.joint_limits[0:9, 0], spec.joint_limits[0:9, 1])
    else:
        _, pw, _, _ = reference_wrist_chain(spec, q, anchor)
        pos_err = float(np.linalg.norm(target.translation - pw))
    return q, (pos_err if pos_err > 1e-3 else None)


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    assert np.array_equal(actual, expected)
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))  # signed zeros


def random_anchor(rng, kind):
    if kind == 0:
        return geo.Transform.identity()
    if kind == 1:   # upright, as the env places the base
        return geo.transform(*rng.uniform(-1, 1, 2), 0.0, rz=rng.uniform(-np.pi, np.pi))
    return geo.Transform(rng.uniform(-1, 1, 3), geo.canonicalize_rotvec(rng.uniform(-4, 4, 3)))


def random_q(spec, rng, kind):
    lo, hi = spec.joint_limits[:, 0], spec.joint_limits[:, 1]
    q = rng.uniform(lo, hi)
    if kind == 0:
        q[:] = 0.0
    elif kind == 1:   # every joint at one of its limits
        q = np.where(rng.random(q.shape) < 0.5, lo, hi)
    elif kind == 2:   # base yaw near +-pi
        q[0] = rng.choice([-1.0, 1.0]) * (np.pi - rng.uniform(0.0, 1e-6))
    elif kind == 3:   # reset posture
        q[0:2] = 0.0
        q[2:9] = spec.home_arm_q
    elif kind == 4:   # some joints exactly zero, some signed zeros
        q[rng.random(q.shape) < 0.5] = 0.0
        q[rng.random(q.shape) < 0.2] = -0.0
    return q


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_wrist_chain_matches_generic_rodrigues_chain(spec):
    rng = np.random.default_rng(70)
    for n in range(1200):
        q = random_q(spec, rng, n % 6)
        anchor = random_anchor(rng, (n // 6) % 3)
        chain = rb._wrist_chain(spec, q, anchor)
        for actual, expected in zip(chain, reference_wrist_chain(spec, q, anchor)):
            assert_bits_equal(actual, expected)
        assert_bits_equal(rb.wrist_jacobian(spec, q, anchor),
                          reference_jacobian(*reference_wrist_chain(spec, q, anchor)[1:]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_wrist_chain_keeps_the_sign_of_zero_entries(spec):
    """Axis-aligned anchors and quarter-turn joints make entries that come out
    exactly zero; their sign depends on the 0.0 terms of each product."""
    quarter_turns = (np.pi / 4, -np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4, np.pi)
    anchors = [geo.Transform(geo.vec3(0.5, -1.0, 0.0), np.eye(3)[k] * angle)
               for k in range(3) for angle in quarter_turns]
    arm_poses = [np.zeros(7)]
    for i in range(7):
        for angle in (np.pi / 2, -np.pi / 2, np.pi):
            arm_poses.append(np.zeros(7))
            arm_poses[-1][i] = angle
    signed_zeros = 0
    for anchor in anchors:
        for yaw in (0.0, np.pi / 2, -np.pi / 2, 3 * np.pi / 4, -3 * np.pi / 4, np.pi):
            for arm in arm_poses:
                q = np.zeros(spec.n_joints)
                q[0], q[2:9] = yaw, arm
                expected = reference_wrist_chain(spec, q, anchor)
                for actual, want in zip(rb._wrist_chain(spec, q, anchor), expected):
                    assert_bits_equal(actual, want)
                signed_zeros += sum(int(np.sum((a == 0.0) & np.signbit(a))) for a in expected)
    assert signed_zeros > 0   # the grid does reach negative zeros


def _ik_cases(spec, rng, n):
    """(q0, anchor, target, fixed_base) tuples: reachable steps, large
    jumps, unreachable targets and targets that stall against limits."""
    for i in range(n):
        kind = i % 5
        anchor = random_anchor(rng, 1 + (i % 2))
        q0 = random_q(spec, rng, 3 if kind == 0 else 5)
        wrist = rb.forward_kinematics(spec, q0, anchor).wrist
        if kind in (0, 1):   # one control step's worth of motion
            delta = rng.normal(size=3) * rng.uniform(0.001, 0.02)
            turn = geo.rotvec_to_matrix(rng.normal(size=3) * rng.uniform(0.0, 0.05))
            target = geo.Transform.from_matrix(wrist.translation + delta,
                                               turn @ wrist.rotation_matrix)
        elif kind == 2:      # a large jump
            target = geo.Transform(wrist.translation + rng.normal(size=3) * 0.3,
                                   geo.canonicalize_rotvec(rng.uniform(-4, 4, 3)))
        elif kind == 3:      # out of reach
            target = geo.Transform(rng.normal(size=3) * 5.0, rng.normal(size=3))
        else:                # arm at its limits, target beyond them
            q0[2:9] = np.where(rng.random(7) < 0.5, spec.joint_limits[2:9, 0],
                               spec.joint_limits[2:9, 1])
            target = geo.Transform(wrist.translation + rng.normal(size=3) * 0.5, wrist.rotation)
        yield q0, anchor, target, bool(rng.random() < 0.3)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_ik_solve_matches_reference_loop(spec):
    rng = np.random.default_rng(71)
    outcomes = {"converged": 0, "not_converged": 0}
    for q0, anchor, target, fixed_base in _ik_cases(spec, rng, 520):
        expected_q, expected_residual = reference_ik_solve(spec, q0, anchor, target, fixed_base)
        try:
            q, _ = rb.ik_solve(spec, q0, anchor, target, fixed_base=fixed_base)
            residual = None
        except rb.IkNotConverged as exc:
            q, residual = exc.best_q, exc.residual
        assert_bits_equal(q, expected_q)
        assert residual == expected_residual
        outcomes["converged" if residual is None else "not_converged"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def assert_chain_bits_equal(actual, expected):
    for part, want in zip(actual, expected):
        assert_bits_equal(part, np.asarray(want, dtype=np.float64))


def _ik_exit(chain, target, chain_calls):
    """Which of ik_solve's three exits left `chain`: the re-measure after the
    last iteration (one chain call more than the iterations), convergence
    (the chain meets both tolerances) or a stall."""
    if chain_calls == rb._IK_MAX_ITERS + 1:
        return "re-measure"
    rw, pw = np.array(chain[0]), np.array(chain[1])
    rot = geo.matrix_to_rotvec(target.rotation_matrix @ rw.T)
    if (np.linalg.norm(target.translation - pw) < rb._IK_POS_TOL
            and np.linalg.norm(rot) < rb._IK_ROT_TOL):
        return "converged"
    return "stall"


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_ik_solve_reuses_handed_chain(spec, monkeypatch):
    """On each of ik_solve's three exits the chain it hands back (returned,
    or carried by IkNotConverged) is the one at the returned q. A chain
    handed in for q0 saves one chain call and changes no bit."""
    chain_fn = rb._wrist_chain
    calls = [0]

    def counting_chain(*args):
        calls[0] += 1
        return chain_fn(*args)

    def solve(*args, **kwargs):
        calls[0] = 0
        try:
            q, chain = rb.ik_solve(*args, **kwargs)
        except rb.IkNotConverged as exc:
            q, chain = exc.best_q, exc.chain
        return q, chain, calls[0]

    monkeypatch.setattr(rb, "_wrist_chain", counting_chain)
    exits = {"converged": 0, "stall": 0, "re-measure": 0}
    for q0, anchor, target, fixed_base in _ik_cases(spec, np.random.default_rng(71), 60):
        q, chain, chain_calls = solve(spec, q0, anchor, target, fixed_base)
        expected, _ = reference_ik_solve(spec, q0, anchor, target, fixed_base)
        assert_bits_equal(q, expected)
        assert_chain_bits_equal(chain, chain_fn(spec, q, anchor))
        exits[_ik_exit(chain, target, chain_calls)] += 1
        handed = solve(spec, q0, anchor, target, fixed_base, chain=chain_fn(spec, q0, anchor))
        assert_bits_equal(handed[0], q)
        assert_chain_bits_equal(handed[1], chain)
        assert handed[2] == chain_calls - 1
    assert min(exits.values()) >= 1, exits


def _step_cases(spec, rng, n):
    """(state, action, fixed_base): steps from the reset posture, from arms
    at their limits and from random arms, with small and large actions."""
    lo, hi = spec.joint_limits[2:9, 0], spec.joint_limits[2:9, 1]
    for i in range(n):
        arm = (spec.home_arm_q, np.where(rng.random(7) < 0.5, lo, hi),
               rng.uniform(lo, hi))[i % 3]
        anchor = random_anchor(rng, 1)
        state = rb.make_initial_state(spec, anchor, arm_q=arm)
        scale = 0.001 if rng.random() < 0.5 else 1.0
        action = np.concatenate([rng.normal(size=6) * scale,
                                 rng.uniform(-1.0, 1.0, spec.dof_effector)])
        yield state, action, bool(rng.random() < 0.4)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_apply_action_hands_over_the_chain_at_the_new_q(spec, monkeypatch):
    """The new state's chain equals a fresh chain at its q, bit for bit, on
    converged, rate-limited, fixed-base and IK-warning steps. IK's last chain
    serves it exactly when the step leaves the 9 base/arm entries as IK set
    them; otherwise the step runs the chain once more."""
    calls = [0]
    chain_fn, ik_fn = rb._wrist_chain, rb.ik_solve
    at_ik_exit = {}

    def counting_chain(*args):
        calls[0] += 1
        return chain_fn(*args)

    def recording_ik(*args, **kwargs):
        try:
            q, chain = ik_fn(*args, **kwargs)
        except rb.IkNotConverged as exc:
            q = exc.best_q
            raise
        finally:
            at_ik_exit.update(calls=calls[0], q_body=q[0:9].tobytes())
        return q, chain

    monkeypatch.setattr(rb, "_wrist_chain", counting_chain)
    monkeypatch.setattr(rb, "ik_solve", recording_ik)
    cap = spec._compiled.step_cap[0:9]
    seen = {"converged": 0, "rate_limited": 0, "fixed_base": 0, "ik_warning": 0,
            "handed_over": 0, "recomputed": 0}
    for state, action, fixed_base in _step_cases(spec, np.random.default_rng(73), 90):
        new_state, chain = rb.apply_action_with_chain(spec, state, action, fixed_base)
        recomputed = calls[0] - at_ik_exit["calls"]
        fresh = chain_fn(spec, new_state.q, state.base_anchor)
        assert chain is new_state.chain
        assert_chain_bits_equal(new_state.chain, fresh)
        assert recomputed == (new_state.q[0:9].tobytes() != at_ik_exit["q_body"])
        rate_limited = bool(np.any(np.abs(new_state.q[0:9] - state.q[0:9]) >= cap))
        seen["rate_limited"] += rate_limited
        seen["fixed_base"] += fixed_base
        seen["ik_warning"] += new_state.ik_warning
        seen["converged"] += not (rate_limited or fixed_base or new_state.ik_warning)
        seen["recomputed" if recomputed else "handed_over"] += 1
    assert min(seen.values()) >= 1, seen


@pytest.mark.parametrize("kind", range(4))
def test_stacked_fingertips_match_per_finger_products(kind):
    """Hand-bot fingertip frames and their observation entries (rotation
    vectors and angular velocities) equal the per-finger products: each
    finger's Rodrigues matrix, `rot @ tip_offset`, `rw @ t`, `rw @ rot`
    and `R_t @ R_{t-1}.T`, bit for bit."""
    from manibench import observation as obs_mod

    spec = rb.hand_bot()
    fingers = spec.effector.fingers
    lo, hi = spec.joint_limits[9:, 0], spec.joint_limits[9:, 1]
    rng = np.random.default_rng(74 + kind)
    special = np.array([0.0, -0.0, lo[0], hi[0], -0.3, 1e-12, -1e-12])

    def random_effector():
        q = rng.uniform(lo - 0.5, hi)       # negative curls included
        pick = rng.random(q.shape) < 0.5
        q[pick] = rng.choice(special, size=int(pick.sum()))
        return q

    def reference(q, anchor):
        frames = rb.forward_kinematics(spec, q, anchor)
        rw, pp = frames.wrist.rotation_matrix, frames.palm.translation
        positions, rotations = [], []
        for f in fingers:
            rot = geo.rotvec_to_matrix(f.axis * float(q[9 + f.joint_index]))
            positions.append(pp + rw @ (f.knuckle + rot @ f.tip_offset))
            rotations.append(rw @ rot)
        return frames, positions, rotations

    n = len(fingers)
    for _ in range(25):
        anchor = random_anchor(rng, kind % 3)
        q_prev = random_q(spec, rng, kind)
        q_prev[9:] = random_effector()
        q_now = q_prev.copy()
        q_now[2:9] += rng.normal(size=7) * 0.05
        q_now[9:] = random_effector()
        prev, _, rot_prev = reference(q_prev, anchor)
        now, pos_now, rot_now = reference(q_now, anchor)
        for i in range(n):
            assert_bits_equal(now.hand_positions[i], pos_now[i])
            assert_bits_equal(now.hand_rotations[i], rot_now[i])
            assert_bits_equal(prev.hand_rotations[i], rot_prev[i])
        layout = obs_mod.ObservationLayout.for_robot(spec)
        obs = obs_mod.assemble(
            layout, t=1, max_steps=10, grasp=np.zeros(3), movable_rotation=np.zeros(3),
            goal=np.zeros(3), frames=now, prev_frames=prev, q=q_now,
            qdot=np.zeros(spec.n_joints), qddot=np.zeros(spec.n_joints),
            prev_action=np.zeros(spec.action_dim))
        prop = obs[layout.slices()["proprioception"]]
        tip_rot = prop[12 + 3 * n:12 + 6 * n].reshape(n, 3)
        tip_w = prop[12 + 9 * n:12 + 12 * n].reshape(n, 3)
        for i in range(n):
            assert_bits_equal(tip_rot[i], geo.matrix_to_rotvec(rot_now[i]))
            assert_bits_equal(tip_w[i],
                              geo.matrix_to_rotvec(rot_now[i] @ rot_prev[i].T) / rb.DT)


def _spec_with(**changes):
    return dataclasses.replace(rb.gripper_bot(), **changes)


def test_spec_rejects_a_non_coordinate_arm_axis():
    axes = rb.gripper_bot().arm_axes.copy()
    axes[3] = [0.0, 0.6, 0.8]
    with pytest.raises(ValueError, match=r"arm_axes\[3\]"):
        _spec_with(arm_axes=axes)
    axes[3] = [-1.0, 0.0, 0.0]   # a negative axis is not one the chain handles
    with pytest.raises(ValueError, match=r"arm_axes\[3\]"):
        _spec_with(arm_axes=axes)


@pytest.mark.parametrize("field,index", [("base_mount", None), ("arm_offsets", 4),
                                         ("wrist_offset", None), ("palm_offset", None)])
def test_spec_rejects_an_offset_with_a_rotation(field, index):
    turned = geo.transform(0.0, 0.1, 0.0, rz=0.3)
    if index is None:
        changes, name = {field: turned}, field
    else:
        offsets = list(rb.gripper_bot().arm_offsets)
        offsets[index] = turned
        changes, name = {field: tuple(offsets)}, f"{field}[{index}]"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a pure translation")):
        _spec_with(**changes)
