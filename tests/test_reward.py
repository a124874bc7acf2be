import numpy as np
import pytest

from manibench import geometry as geo
from manibench import reward as rw


W = rw.RewardWeights()


def snapshot(hand_points, palm, grasp, goal, palm_rot=None, palm_rot_init=None,
             effector_init=None):
    return rw.RewardSnapshot(
        hand_points=np.atleast_2d(np.asarray(hand_points, dtype=float)),
        palm_position=np.asarray(palm, dtype=float),
        palm_rotation=np.zeros(3) if palm_rot is None else np.asarray(palm_rot),
        palm_rotation_init=np.zeros(3) if palm_rot_init is None else np.asarray(palm_rot_init),
        effector_init=np.array([0.04]) if effector_init is None else np.asarray(effector_init),
        grasp_point=np.asarray(grasp, dtype=float),
        goal_point=np.asarray(goal, dtype=float),
    )


def random_snapshot(rng, n_points=3, d_eff=1):
    return rw.RewardSnapshot(
        hand_points=rng.uniform(-1, 1, (n_points, 3)),
        palm_position=rng.uniform(-1, 1, 3),
        palm_rotation=geo.canonicalize_rotvec(rng.uniform(-np.pi, np.pi, 3)),
        palm_rotation_init=geo.canonicalize_rotvec(rng.uniform(-np.pi, np.pi, 3)),
        effector_init=rng.uniform(0, 0.05, d_eff),
        grasp_point=rng.uniform(-1, 1, 3),
        goal_point=rng.uniform(-1, 1, 3),
    )


def terms_at(hand_points, grasp, goal, weights=W):
    """total_reward's terms for a palm at the origin and a zero action."""
    return rw.total_reward(snapshot(hand_points, np.zeros(3), grasp, goal),
                           np.zeros(7), weights)


# ---------------------------------------------------------------------------
# grasp flag (total_reward's f_g)
# ---------------------------------------------------------------------------

def test_flag_true_when_coincident():
    pts = np.zeros((3, 3))
    assert terms_at(pts, np.zeros(3), np.zeros(3)).f_g


def test_flag_strict_at_boundary():
    pts = np.array([[rw.GRASP_THRESHOLD, 0.0, 0.0]])
    assert not terms_at(pts, np.zeros(3), np.zeros(3)).f_g


def test_flag_hand_arithmetic():
    pts = np.array([[0.05, 0, 0], [0.10, 0, 0], [0.12, 0, 0]])
    assert rw.mean_hand_distance(pts, np.zeros(3)) == pytest.approx(0.09, abs=1e-15)
    assert terms_at(pts, np.zeros(3), np.zeros(3)).f_g


def test_flag_empty_errors():
    with pytest.raises(ValueError, match="empty point set"):
        terms_at(np.zeros((0, 3)), np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# r_d (total_reward's distance term)
# ---------------------------------------------------------------------------

def test_distance_zero_when_everything_coincides():
    assert terms_at(np.zeros((3, 3)), np.zeros(3), np.zeros(3)).r_d == 0.0


def test_distance_hand_arithmetic():
    pts = np.array([[0.5, 0, 0]])
    out = terms_at(pts, np.zeros(3), np.array([0.3, 0, 0])).r_d
    assert out == pytest.approx(-0.8, abs=1e-12)


def test_distance_linear_in_weight():
    rng = np.random.default_rng(0)
    pts, grasp, goal = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    doubled = rw.RewardWeights(distance=2.0)
    assert terms_at(pts, grasp, goal, doubled).r_d == pytest.approx(
        2 * terms_at(pts, grasp, goal).r_d, rel=1e-12)


# ---------------------------------------------------------------------------
# reference actions
# ---------------------------------------------------------------------------

def test_reference_approach_trivial_zero():
    ref = rw.reference_approach_action(np.zeros(3), np.zeros(3), np.zeros(3),
                                       np.zeros(3), np.array([0.04]))
    np.testing.assert_allclose(ref[0:6], np.zeros(6), atol=1e-15)
    assert ref[6] == 0.04


def test_reference_approach_displacement():
    ref = rw.reference_approach_action(np.array([0.0, -1.0, 0.0]), np.zeros(3),
                                       np.zeros(3), np.zeros(3), np.array([0.0]))
    np.testing.assert_allclose(ref[0:3], [0.0, 1.0, 0.0], atol=1e-15)


def test_reference_approach_matches_independent_recompute():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = random_snapshot(rng)
        ref = rw.reference_approach_action(
            s.palm_position, s.palm_rotation, s.palm_rotation_init,
            s.grasp_point, s.effector_init)
        np.testing.assert_array_equal(ref[0:3], s.grasp_point - s.palm_position)
        np.testing.assert_array_equal(
            ref[3:6], geo.rotvec_difference(s.palm_rotation_init, s.palm_rotation))
        np.testing.assert_array_equal(ref[6:], s.effector_init)


def test_reference_rotation_is_group_difference():
    r_init = geo.vec3(0, 0, 0.5)
    r_cur = geo.vec3(0, 0, 0.2)
    ref = rw.reference_approach_action(np.zeros(3), r_cur, r_init, np.zeros(3),
                                       np.zeros(1))
    np.testing.assert_allclose(ref[3:6], [0, 0, 0.3], atol=1e-12)


# ---------------------------------------------------------------------------
# reward_approach / reward_move / reward_success
# ---------------------------------------------------------------------------

def test_approach_zero_at_reference():
    a = np.arange(7.0)
    assert rw.reward_approach(a, a, 0.2) == 0.0


def test_approach_hand_arithmetic():
    a = np.zeros(7)
    ref = np.zeros(7)
    ref[0] = 2.0
    assert rw.reward_approach(a, ref, 0.2) == pytest.approx(-0.4, abs=1e-15)


def test_approach_norm_homogeneity():
    rng = np.random.default_rng(2)
    a, ref = rng.normal(size=7), rng.normal(size=7)
    base = rw.reward_approach(ref + (a - ref), ref, 0.2)
    scaled = rw.reward_approach(ref + 3.0 * (a - ref), ref, 0.2)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_approach_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        rw.reward_approach(np.zeros(7), np.zeros(18), 0.2)


def test_move_zero_at_reference():
    palm, goal = np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.2, 0.3])
    a = np.zeros(7)
    a[0:3] = goal - palm
    assert rw.reward_move(a, palm, goal, 0.2) == 0.0


def test_move_hand_arithmetic():
    palm = np.zeros(3)
    goal = np.zeros(3)
    a = np.zeros(7)
    a[0] = 0.5
    assert rw.reward_move(a, palm, goal, 0.2) == pytest.approx(-0.1, abs=1e-15)


def test_move_ignores_rotation_and_effector():
    palm, goal = np.zeros(3), np.array([1.0, 0, 0])
    a = np.zeros(7)
    a[0:3] = goal - palm
    a[3:] = 123.0
    assert rw.reward_move(a, palm, goal, 0.2) == 0.0


def test_norms_are_np_linalg_norm_bit_for_bit():
    """clamp_norm, reward_approach and reward_move take their norms as
    sqrt(v.dot(v)), the arithmetic of np.linalg.norm without its wrapper.
    Over 10,000 vectors of mixed scales, zeros, -0.0 and strided views
    included, every result has np.linalg.norm's bits (sign of zero too)."""
    from manibench.robot import clamp_norm

    def bits(x):
        return np.float64(x).tobytes()

    rng = np.random.default_rng(31)
    n = 10_000
    actions = rng.normal(size=(n, 18)) * 10.0 ** rng.integers(-9, 3, size=(n, 1))
    refs = rng.normal(size=(n, 18)) * 10.0 ** rng.integers(-9, 3, size=(n, 1))
    actions[::97] = 0.0
    actions[1::97] = -0.0
    refs[::89] = actions[::89]           # a - ref exactly zero
    wide = np.repeat(actions, 2, axis=1)   # wide[i, ::2] is a strided view of row i
    for i in range(n):
        width = 7 if i % 2 else 18
        a, ref = actions[i, :width], refs[i, :width]
        palm, goal = refs[i, 10:13], refs[i, 13:16]
        assert bits(rw.reward_approach(a, ref, 0.2)) == bits(
            -0.2 * float(np.linalg.norm(a - ref)))
        assert bits(rw.reward_move(a, palm, goal, 0.2)) == bits(
            -0.2 * float(np.linalg.norm(a[0:3] - (goal - palm))))
        for v in (a[0:3], a[3:6], wide[i, 0:6:2], a[2::-1]):
            limit = 0.02 if i % 3 else 0.05
            norm = float(np.linalg.norm(v))
            expected = v.copy() if norm <= limit or norm == 0.0 else v * (limit / norm)
            assert clamp_norm(v, limit).tobytes() == expected.tobytes()


def test_success_bonus_values():
    assert rw.reward_success(0.0, 2.0) == 2.0
    assert rw.reward_success(0.05, 2.0) == 0.0
    assert rw.reward_success(0.049, 2.0) == 2.0


# ---------------------------------------------------------------------------
# total_reward
# ---------------------------------------------------------------------------

def test_total_gating_unflagged():
    s = snapshot(hand_points=[[1.0, 0, 0]], palm=[1, 0, 0], grasp=[0, 0, 0],
                 goal=[0, 0, 0.3])
    a = np.zeros(7)
    terms = rw.total_reward(s, a, W)
    assert not terms.f_g
    assert terms.total == terms.r_d + terms.r_a
    assert terms.r_g == 1.0  # computed but gated out


def test_total_gating_flagged():
    s = snapshot(hand_points=[[0.01, 0, 0]], palm=[0, 0, 0], grasp=[0, 0, 0],
                 goal=[0, 0, 0.3])
    a = np.zeros(7)
    terms = rw.total_reward(s, a, W)
    assert terms.f_g
    assert terms.total == terms.r_d + terms.r_g + terms.r_m + terms.r_s


def test_total_hand_composed_success_case():
    # hand on grasp on goal, zero action consistent with the move reference
    s = snapshot(hand_points=[[0, 0, 0]], palm=[0, 0, 0], grasp=[0, 0, 0],
                 goal=[0, 0, 0], effector_init=np.array([0.0]))
    terms = rw.total_reward(s, np.zeros(7), W)
    assert terms.total == pytest.approx(3.0, abs=1e-12)  # 0 + 1.0 + 0 + 2.0


def test_total_identity_randomized():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        s = random_snapshot(rng)
        a = rng.normal(scale=0.5, size=7)
        t = rw.total_reward(s, a, W)
        gate = 1.0 if t.f_g else 0.0
        assert t.total == t.r_d + (1.0 - gate) * t.r_a + gate * (t.r_g + t.r_m + t.r_s)
        assert t.r_d <= 0 and t.r_a <= 0 and t.r_m <= 0
        assert t.r_g >= 0 and t.r_s >= 0


def test_total_translation_equivariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        s = random_snapshot(rng)
        a = rng.normal(scale=0.5, size=7)
        shift = rng.uniform(-5, 5, 3)
        shifted = rw.RewardSnapshot(
            hand_points=s.hand_points + shift,
            palm_position=s.palm_position + shift,
            palm_rotation=s.palm_rotation,
            palm_rotation_init=s.palm_rotation_init,
            effector_init=s.effector_init,
            grasp_point=s.grasp_point + shift,
            goal_point=s.goal_point + shift,
        )
        t0 = rw.total_reward(s, a, W)
        t1 = rw.total_reward(shifted, a, W)
        assert t1.total == pytest.approx(t0.total, abs=1e-9)
        assert t1.f_g == t0.f_g


def test_thresholds_are_fixed_not_weight_fields():
    for name in ("grasp_threshold", "success_threshold"):
        with pytest.raises(TypeError, match=name):
            rw.RewardWeights(**{name: 0.2})
    weights = rw.RewardWeights()
    assert weights.grasp_threshold == rw.GRASP_THRESHOLD == 0.1
    assert weights.success_threshold == rw.SUCCESS_THRESHOLD == 0.05
