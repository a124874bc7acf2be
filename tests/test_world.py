import numpy as np
import pytest

from manibench import geometry as geo
from manibench import world as w


def lid_at(pose=None):
    obj = w.make_object("laptop")
    return obj.placed_at(pose or geo.Transform.identity())


# ---------------------------------------------------------------------------
# grasp_point
# ---------------------------------------------------------------------------

def test_prismatic_grasp_at_closed():
    obj = w.make_object("table")
    gp = w.grasp_point(obj, w.ObjectState(joint_value=0.0))
    expected = geo.apply(geo.compose(obj.base_pose, obj.joint_anchor), obj.grasp_offset)
    np.testing.assert_allclose(gp, expected, atol=1e-15)


def test_prismatic_grasp_slides_along_axis():
    obj = w.make_object("table")
    g0 = w.grasp_point(obj, w.ObjectState(joint_value=0.0))
    g1 = w.grasp_point(obj, w.ObjectState(joint_value=0.3))
    np.testing.assert_allclose(g1 - g0, 0.3 * obj.joint_axis, atol=1e-12)


def test_revolute_grasp_hand_transform():
    # Hinge about -x: at q=pi/2 the front-edge offset swings from -y to +z.
    obj = lid_at()
    g = w.grasp_point(obj, w.ObjectState(joint_value=np.pi / 2))
    anchor_world = geo.apply(obj.base_pose, obj.joint_anchor.translation)
    local = g - anchor_world
    np.testing.assert_allclose(local, [0.0, 0.0, 0.25], atol=1e-12)


def test_free_grasp_offset_through_pose():
    obj = w.make_object("holistic").placed_at(geo.transform(0.3, -0.2, 0.5))
    st = w.initial_state(obj)
    np.testing.assert_allclose(w.grasp_point(obj, st), [0.3, -0.2, 0.55], atol=1e-15)


# ---------------------------------------------------------------------------
# goal_point
# ---------------------------------------------------------------------------

def test_close_goal_is_closed_pose():
    obj = lid_at()
    task = w.TaskSpec(object=obj, skill="close")
    init = w.ObjectState(joint_value=0.5 * np.pi / 2)
    goal = w.goal_point(task, init)
    np.testing.assert_allclose(goal, w.grasp_point(obj, w.ObjectState(joint_value=0.0)),
                               atol=1e-15)


def test_open_goal_at_60_percent():
    obj = lid_at()
    task = w.TaskSpec(object=obj, skill="open")
    goal = w.goal_point(task, w.ObjectState(joint_value=0.1))
    np.testing.assert_allclose(
        goal, w.grasp_point(obj, w.ObjectState(joint_value=0.3 * np.pi)), atol=1e-15)


def test_pick_goal_is_twenty_cm_up():
    obj = w.make_object("holistic").placed_at(geo.transform(0.1, 0.0, 0.45))
    task = w.TaskSpec(object=obj, skill="pick")
    goal = w.goal_point(task, w.initial_state(obj))
    np.testing.assert_allclose(goal, [0.1, 0.0, 0.7], atol=1e-12)


def test_pull_and_push_goals_horizontal():
    obj = w.make_object("cart")
    st = w.initial_state(obj)
    start = w.grasp_point(obj, st)
    base_xy = np.array([0.6, -1.2])
    pull = w.goal_point(w.TaskSpec(object=obj, skill="pull"), st, base_xy)
    push = w.goal_point(w.TaskSpec(object=obj, skill="push"), st, base_xy)
    d = pull - start
    assert d[2] == 0.0
    assert np.linalg.norm(d) == pytest.approx(0.2, abs=1e-12)
    # pull moves toward the base, push mirrors it
    toward = np.array([0.6, -1.2, start[2]]) - start
    assert np.dot(d, toward) > 0
    np.testing.assert_allclose(push - start, -(pull - start), atol=1e-12)


def test_goal_requires_base_position_for_pull():
    obj = w.make_object("cart")
    with pytest.raises(ValueError, match="base position"):
        w.goal_point(w.TaskSpec(object=obj, skill="pull"), w.initial_state(obj))


def test_skill_kind_compatibility():
    with pytest.raises(ValueError):
        w.make_task("laptop", "pick")
    with pytest.raises(ValueError):
        w.make_task("holistic", "open")
    with pytest.raises(ValueError):
        w.make_task("holistic", "push")
    with pytest.raises(ValueError):
        w.make_task("cart", "pick")


def test_skill_table_is_pinned():
    # generate_dataset's per-cell seeds and the benchmark's cell order follow it
    assert list(w.OBJECT_SKILLS.items()) == [
        ("laptop", ("open", "close")), ("table", ("open", "close")),
        ("cabinet", ("open", "close")), ("faucet", ("open", "close")),
        ("cart", ("pull", "push")), ("holistic", ("pick",))]
    assert list(w.OBJECT_SKILLS) == list(w.OBJECTS)
    for name in w.OBJECTS:
        assert w.make_object(name).category_label == name


def test_validate_skill_names_the_table():
    w.validate_skill("cart", "push")
    with pytest.raises(ValueError, match=r"^skill 'pick' not valid for 'laptop'; "
                                         r"expected one of \('open', 'close'\)$"):
        w.validate_skill("laptop", "pick")
    with pytest.raises(ValueError, match=r"^unknown object 'toaster'; expected one of "):
        w.validate_skill("toaster", "open")
    with pytest.raises(ValueError, match="not valid for 'holistic'"):
        w.TaskSpec(object=w.make_object("holistic"), skill="open")


# ---------------------------------------------------------------------------
# attachment / object_follow
# ---------------------------------------------------------------------------

def palm_at(p):
    return geo.Transform(np.asarray(p, dtype=float), np.zeros(3))


def test_free_follow_is_rigid():
    obj = w.make_object("holistic").placed_at(geo.transform(0.0, 0.0, 0.4))
    st = w.initial_state(obj)
    palm = palm_at(w.grasp_point(obj, st) + [0.0, -0.03, 0.0])
    st = w.attach(obj, st, palm)
    g0 = w.grasp_point(obj, st)
    moved = palm_at(palm.translation + [0.0, 0.0, 0.1])
    st2 = w.object_follow(obj, st, moved)
    np.testing.assert_allclose(w.grasp_point(obj, st2) - g0, [0.0, 0.0, 0.1], atol=1e-12)


def test_free_follow_preserves_palm_offset_bit_exactly():
    obj = w.make_object("cart")
    st = w.initial_state(obj)
    palm = palm_at(w.grasp_point(obj, st) + [0.01, -0.05, 0.02])
    st = w.attach(obj, st, palm)
    offset0 = w.grasp_point(obj, st) - palm.translation
    rng = np.random.default_rng(0)
    for _ in range(50):
        palm = palm_at(palm.translation + rng.uniform(-0.02, 0.02, 3))
        st = w.object_follow(obj, st, palm)
        offset = w.grasp_point(obj, st) - palm.translation
        np.testing.assert_allclose(offset, offset0, atol=1e-12)


def test_prismatic_follow_line_projection():
    obj = w.make_object("table")
    st = w.attach(obj, w.initial_state(obj), palm_at([0, 0, 0]))
    g0 = w.grasp_point(obj, w.ObjectState(joint_value=0.0))
    palm = palm_at(g0 + 0.3 * obj.joint_axis + np.array([0.05, 0.0, 0.02]))
    st2 = w.object_follow(obj, st, palm)
    assert st2.joint_value == pytest.approx(0.3, abs=1e-12)


def test_prismatic_follow_clamped_to_range():
    obj = w.make_object("table")
    st = w.attach(obj, w.initial_state(obj), palm_at([0, 0, 0]))
    g0 = w.grasp_point(obj, w.ObjectState(joint_value=0.0))
    palm = palm_at(g0 + 5.0 * obj.joint_axis)
    st2 = w.object_follow(obj, st, palm)
    assert st2.joint_value == obj.joint_range[1]


def test_revolute_follow_recovers_angle():
    obj = lid_at()
    st = w.attach(obj, w.initial_state(obj, 0.2), palm_at([0, 0, 0]))
    target = w.grasp_point(obj, w.ObjectState(joint_value=np.pi / 4))
    st2 = w.object_follow(obj, st, palm_at(target))
    assert st2.joint_value == pytest.approx(np.pi / 4, abs=1e-9)


def test_revolute_degenerate_projection_unchanged():
    obj = lid_at()
    st = w.attach(obj, w.initial_state(obj, 0.3), palm_at([0, 0, 0]))
    # palm exactly on the hinge axis
    axis_point = geo.apply(geo.compose(obj.base_pose, obj.joint_anchor),
                           obj.joint_axis * 0.1)
    st2 = w.object_follow(obj, st, palm_at(axis_point))
    assert st2.joint_value == st.joint_value


def test_follow_requires_attachment():
    obj = w.make_object("table")
    with pytest.raises(ValueError, match="attached"):
        w.object_follow(obj, w.initial_state(obj), palm_at([0, 0, 0]))


@pytest.mark.parametrize("name,q_init,seed", [("laptop", 0.15, 101), ("cabinet", 0.4, 102),
                                              ("faucet", 0.2, 103), ("table", 0.1, 104)])
def test_follow_is_closest_point_grid_search(name, q_init, seed):
    # 1-D grid-search oracle over the joint manifold, 1e4 samples.
    obj = w.make_object(name)
    rng = np.random.default_rng(seed)
    lo, hi = obj.joint_range
    grid = np.linspace(lo, hi, 10_000)
    grid_pts = np.array([w.grasp_point(obj, w.ObjectState(joint_value=g)) for g in grid])
    for _ in range(10):
        palm = palm_at(w.grasp_point(obj, w.ObjectState(joint_value=q_init))
                       + rng.uniform(-0.3, 0.3, 3))
        st = w.attach(obj, w.initial_state(obj, q_init), palm)
        st2 = w.object_follow(obj, st, palm)
        d_follow = geo.point_distance(w.grasp_point(obj, st2), palm.translation)
        d_grid = np.min(np.linalg.norm(grid_pts - palm.translation, axis=1))
        assert d_follow <= d_grid + 1e-6


def test_follow_never_violates_joint_range():
    rng = np.random.default_rng(3)
    for name in ("laptop", "cabinet", "faucet", "table"):
        obj = w.make_object(name)
        st = w.attach(obj, w.initial_state(obj, 0.1), palm_at([0, 0, 0]))
        for _ in range(200):
            st = w.object_follow(obj, st, palm_at(rng.uniform(-1, 1, 3)))
            lo, hi = obj.joint_range
            assert lo <= st.joint_value <= hi
