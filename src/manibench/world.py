"""Object models, skill semantics, and the kinematic attachment rule.

Objects are one-joint articulated bodies (revolute/prismatic) or free bodies.
Each carries a single grasp point; contact physics is replaced by kinematic
attachment: once the grasp flag rises, the grasp point follows the palm,
projected onto the object's joint manifold (articulated) or rigidly (free).

Every family in the catalog is authored "facing -y": its grasp opening or
handle points toward negative y, where the robot is placed at reset.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import (
    Transform,
    apply,
    compose,
    cross,
    invert,
    rotvec_to_matrix,
    transform,
    unit,
    vec3,
    vector_norm,
)

REVOLUTE = "revolute"
PRISMATIC = "prismatic"
FREE = "free"

_PROJECTION_EPS = 1e-12


@dataclass(frozen=True)
class ObjectModel:
    kind: str
    category_label: str                 # family id: the OBJECT_SKILLS key
    grasp_offset: np.ndarray            # movable-part-local grasp point
    base_pose: Transform                # world placement (set at reset)
    joint_anchor: Transform | None = None
    joint_axis: np.ndarray | None = None
    joint_range: tuple | None = None    # (q_min, q_max)
    tabletop: bool = False              # True: height sampled per episode

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC, FREE):
            raise ValueError(f"unknown object kind {self.kind!r}")
        if self.kind != FREE:
            if self.joint_anchor is None or self.joint_axis is None or self.joint_range is None:
                raise ValueError("articulated object needs joint_anchor/axis/range")
            if not self.joint_range[0] < self.joint_range[1]:
                raise ValueError("joint_range must be ordered")
            object.__setattr__(self, "joint_axis", unit(self.joint_axis))

    @property
    def articulated(self) -> bool:
        return self.kind != FREE

    def placed_at(self, base_pose: Transform) -> "ObjectModel":
        return replace(self, base_pose=base_pose)

    @cached_property
    def _frame0(self) -> Transform:
        """base_pose o joint_anchor."""
        return compose(self.base_pose, self.joint_anchor)

    @cached_property
    def _follow_constants(self):
        """An articulated model's per-object terms of `object_follow`:
        frame0, its inverse rotation (the transposed view), the grasp
        offset's part perpendicular to the joint axis, and whether that part
        is degenerate (the grasp point on the hinge axis)."""
        frame0 = self._frame0
        r_perp = self.grasp_offset - np.dot(self.grasp_offset, self.joint_axis) * self.joint_axis
        return (frame0, frame0.rotation_matrix.T, r_perp,
                np.linalg.norm(r_perp) < _PROJECTION_EPS)


@dataclass
class ObjectState:
    joint_value: float = 0.0
    free_pose: Transform | None = None
    attached: bool = False
    attach_offset: Transform | None = None

    def copy(self) -> "ObjectState":
        return replace(self)  # the poses are Transforms: values, shared freely


@dataclass
class TaskSpec:
    object: ObjectModel
    skill: str
    goal_point: np.ndarray | None = None   # frozen at reset

    def __post_init__(self):
        validate_skill(self.object.category_label, self.skill)

    @property
    def instruction(self) -> str:
        return f"{self.skill} {self.object.category_label}"


def validate_skill(object_name: str, skill: str) -> None:
    """ValueError unless `OBJECT_SKILLS`, the skill taxonomy, lists `skill`
    for the object family `object_name`."""
    if object_name not in OBJECT_SKILLS:
        raise ValueError(f"unknown object {object_name!r}; "
                         f"expected one of {sorted(OBJECT_SKILLS)}")
    if skill not in OBJECT_SKILLS[object_name]:
        raise ValueError(f"skill {skill!r} not valid for {object_name!r}; "
                         f"expected one of {OBJECT_SKILLS[object_name]}")


# ---------------------------------------------------------------------------
# Kinematics of the movable part
# ---------------------------------------------------------------------------

def _joint_motion(obj: ObjectModel, q: float) -> Transform:
    if obj.kind == REVOLUTE:
        return Transform.from_matrix(np.zeros(3), rotvec_to_matrix(obj.joint_axis * q))
    return Transform.from_matrix(obj.joint_axis * q, np.eye(3))


def movable_frame(obj: ObjectModel, state: ObjectState) -> Transform:
    """World frame of the movable part carrying the grasp point."""
    if obj.kind == FREE:
        if state.free_pose is None:
            raise ValueError("free object state needs free_pose")
        return state.free_pose
    return compose(obj._frame0, _joint_motion(obj, state.joint_value))


def grasp_point(obj: ObjectModel, state: ObjectState) -> np.ndarray:
    """World position of the grasp point."""
    if obj.kind == FREE:
        return apply(movable_frame(obj, state), obj.grasp_offset)
    if obj.kind == REVOLUTE:
        local = rotvec_to_matrix(obj.joint_axis * state.joint_value) @ obj.grasp_offset
    else:
        local = obj.grasp_offset + obj.joint_axis * state.joint_value
    return apply(obj._frame0, local)


def initial_state(obj: ObjectModel, joint_value: float = 0.0) -> ObjectState:
    if obj.kind == FREE:
        return ObjectState(free_pose=obj.base_pose)
    lo, hi = obj.joint_range
    return ObjectState(joint_value=float(np.clip(joint_value, lo, hi)))


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------

_GOAL_DISPLACEMENT = 0.2  # pull/push/pick displacement and lift height (m)
_OPEN_GOAL_FRACTION = 0.6


def goal_point(task: TaskSpec, init_state: ObjectState,
               robot_base_xy: np.ndarray | None = None) -> np.ndarray:
    """Target world position for the grasp point, frozen at reset.

    open  -> grasp point at 60% open; close -> at fully closed;
    pull/push -> initial grasp point displaced 0.2 m horizontally toward/away
    from the robot's initial base position; pick -> 0.2 m straight up.
    """
    obj = task.object
    skill = task.skill
    if skill in ("open", "close"):
        lo, hi = obj.joint_range
        q_goal = lo + _OPEN_GOAL_FRACTION * (hi - lo) if skill == "open" else lo
        return grasp_point(obj, ObjectState(joint_value=q_goal))
    start = grasp_point(obj, init_state)
    if skill == "pick":
        return start + vec3(0.0, 0.0, _GOAL_DISPLACEMENT)
    if robot_base_xy is None:
        raise ValueError(f"{skill} goal needs the robot base position")
    toward = np.array([robot_base_xy[0] - start[0], robot_base_xy[1] - start[1], 0.0])
    toward = unit(toward)
    sign = 1.0 if skill == "pull" else -1.0
    return start + sign * _GOAL_DISPLACEMENT * toward


# ---------------------------------------------------------------------------
# Attachment
# ---------------------------------------------------------------------------

def attach(obj: ObjectModel, state: ObjectState, palm: Transform) -> ObjectState:
    """Mark the object grasped; free objects capture the palm-relative pose."""
    out = state.copy()
    out.attached = True
    if obj.kind == FREE:
        out.attach_offset = compose(invert(palm), state.free_pose)
    return out


def detach(state: ObjectState) -> ObjectState:
    out = state.copy()
    out.attached = False
    out.attach_offset = None
    return out


def object_follow(obj: ObjectModel, state: ObjectState, palm: Transform) -> ObjectState:
    """Advance a grasped object so its grasp point tracks the palm.

    Revolute: the joint value is the angle of the palm position projected
    onto the grasp-point circle in the hinge plane (closed form), clamped to
    joint_range (valid for ranges within (-pi, pi]). Prismatic: projection
    onto the grasp-point line, clamped. Free: rigid follow of the palm frame
    through the captured attach_offset. Degenerate projections (palm on the
    hinge axis, or a grasp point on it) leave the joint untouched.
    """
    if not state.attached:
        raise ValueError("object_follow requires an attached object")
    out = state.copy()
    if obj.kind == FREE:
        out.free_pose = compose(palm, state.attach_offset)
        return out

    frame0, frame0_inv, r_perp, r_perp_degenerate = obj._follow_constants
    p_local = frame0_inv @ (palm.translation - frame0.translation)
    axis = obj.joint_axis
    lo, hi = obj.joint_range

    if obj.kind == PRISMATIC:
        t = float(np.dot(p_local - obj.grasp_offset, axis))
        out.joint_value = float(np.clip(t, lo, hi))
        return out

    p_perp = p_local - np.dot(p_local, axis) * axis
    if r_perp_degenerate or vector_norm(p_perp) < _PROJECTION_EPS:
        return out
    theta = float(np.arctan2(np.dot(axis, cross(r_perp, p_perp)),
                             np.dot(r_perp, p_perp)))
    if lo <= theta <= hi:
        out.joint_value = theta
        return out
    # Out-of-range angle: the chord distance is monotone in the wrapped
    # angular gap, so pick the endpoint with the smaller wrapped gap (raw
    # clamping would choose the wrong end across the +-pi seam).
    def wrapped_gap(end):
        d = abs(theta - end) % (2.0 * np.pi)
        return min(d, 2.0 * np.pi - d)

    out.joint_value = lo if wrapped_gap(lo) <= wrapped_gap(hi) else hi
    return out


# ---------------------------------------------------------------------------
# Desk-scale object catalog
# ---------------------------------------------------------------------------

def _lid() -> ObjectModel:
    # Laptop-class lid: horizontal hinge, front edge toward -y, opening lifts it.
    return ObjectModel(
        kind=REVOLUTE, category_label="laptop",
        grasp_offset=vec3(0.0, -0.25, 0.0),
        base_pose=Transform.identity(),
        joint_anchor=transform(0.0, 0.1, 0.02),
        joint_axis=vec3(-1.0, 0.0, 0.0),
        joint_range=(0.0, np.pi / 2),
        tabletop=True,
    )


def _drawer() -> ObjectModel:
    # Table-class drawer: slides out toward -y; handle on the drawer front.
    return ObjectModel(
        kind=PRISMATIC, category_label="table",
        grasp_offset=vec3(0.0, -0.22, 0.0),
        base_pose=Transform.identity(),
        joint_anchor=transform(0.0, 0.0, 0.45),
        joint_axis=vec3(0.0, -1.0, 0.0),
        joint_range=(0.0, 0.35),
    )


def _swing_door() -> ObjectModel:
    # Cabinet-class door: vertical hinge on the left edge, handle on the free
    # edge; positive q swings the door out toward -y.
    return ObjectModel(
        kind=REVOLUTE, category_label="cabinet",
        grasp_offset=vec3(0.34, -0.04, 0.0),
        base_pose=Transform.identity(),
        joint_anchor=transform(-0.18, 0.05, 0.55),
        joint_axis=vec3(0.0, 0.0, -1.0),
        joint_range=(0.0, 1.9),
    )


def _valve() -> ObjectModel:
    # Faucet-class handle: spins about a horizontal axis pointing away from
    # the robot; the grasp point rides a vertical circle.
    return ObjectModel(
        kind=REVOLUTE, category_label="faucet",
        grasp_offset=vec3(0.12, 0.0, 0.0),
        base_pose=Transform.identity(),
        joint_anchor=transform(0.0, -0.04, 0.06),
        joint_axis=vec3(0.0, 1.0, 0.0),
        joint_range=(0.0, np.pi / 2),
        tabletop=True,
    )


def _cart() -> ObjectModel:
    # Free-body cart; handle bar toward the robot at typical push height.
    return ObjectModel(
        kind=FREE, category_label="cart",
        grasp_offset=vec3(0.0, -0.30, 0.90),
        base_pose=Transform.identity(),
    )


def _holistic() -> ObjectModel:
    # Free holistic object (bottle/toy class); grasp at the centre of mass.
    return ObjectModel(
        kind=FREE, category_label="holistic",
        grasp_offset=vec3(0.0, 0.0, 0.05),
        base_pose=Transform.identity(),
        tabletop=True,
    )


OBJECTS = {
    "laptop": _lid,
    "table": _drawer,
    "cabinet": _swing_door,
    "faucet": _valve,
    "cart": _cart,
    "holistic": _holistic,
}

# The skill taxonomy: the skills each family supports, in the order the
# dataset's cells (and their per-cell seeds) follow.
OBJECT_SKILLS = {
    "laptop": ("open", "close"),
    "table": ("open", "close"),
    "cabinet": ("open", "close"),
    "faucet": ("open", "close"),
    "cart": ("pull", "push"),
    "holistic": ("pick",),
}


def make_object(name: str) -> ObjectModel:
    try:
        return OBJECTS[name]()
    except KeyError:
        raise ValueError(f"unknown object {name!r}; expected one of {sorted(OBJECTS)}") from None


def make_task(object_name: str, skill: str) -> TaskSpec:
    return TaskSpec(object=make_object(object_name), skill=skill)
