import numpy as np
import pytest

from manibench import geometry as geo


def random_transform(rng):
    r = rng.uniform(-np.pi, np.pi, 3)
    r = geo.canonicalize_rotvec(r)
    return geo.Transform(rng.uniform(-2, 2, 3), r)


# ---------------------------------------------------------------------------
# rotvec_to_matrix
# ---------------------------------------------------------------------------

def test_zero_rotvec_is_identity():
    np.testing.assert_allclose(geo.rotvec_to_matrix(geo.vec3(0, 0, 0)), np.eye(3))


def test_half_turn_about_z():
    m = geo.rotvec_to_matrix(geo.vec3(0, 0, np.pi))
    np.testing.assert_allclose(m, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_rotation_matrices_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = rng.uniform(-np.pi, np.pi, 3)
        m = geo.rotvec_to_matrix(r)
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-10)
        assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_rotvec_inverse_product_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = rng.uniform(-np.pi, np.pi, 3)
        prod = geo.rotvec_to_matrix(r) @ geo.rotvec_to_matrix(-r)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-10)


def test_tiny_angle_series():
    r = geo.vec3(1e-12, -2e-12, 5e-13)
    m = geo.rotvec_to_matrix(r)
    np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-15)


def test_matrix_to_rotvec_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(500):
        r = geo.canonicalize_rotvec(rng.uniform(-np.pi, np.pi, 3))
        back = geo.matrix_to_rotvec(geo.rotvec_to_matrix(r))
        np.testing.assert_allclose(back, r, atol=1e-9)


def test_matrix_to_rotvec_near_pi():
    # angles in [pi - 1e-3, pi], where sin(angle) -> 0: the rotation must
    # still round-trip to machine precision
    rng = np.random.default_rng(3)
    for k in range(500):
        axis = geo.unit(rng.normal(size=3))
        angle = np.pi if k == 0 else np.pi - rng.uniform(0.0, 1e-3)
        m = geo.rotvec_to_matrix(axis * angle)
        r = geo.matrix_to_rotvec(m)
        assert np.linalg.norm(r) <= np.pi
        assert np.max(np.abs(geo.rotvec_to_matrix(r) - m)) <= 1e-12


def test_canonicalize_wraps_large_angles():
    axis = geo.unit(geo.vec3(1, 2, 3))
    r = geo.canonicalize_rotvec(axis * 5.0)
    assert np.linalg.norm(r) <= np.pi + 1e-12
    np.testing.assert_allclose(
        geo.rotvec_to_matrix(r), geo.rotvec_to_matrix(axis * 5.0), atol=1e-12)


# ---------------------------------------------------------------------------
# compose / apply / invert
# ---------------------------------------------------------------------------

def test_transform_from_matrix_derives_canonical_rotation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = geo.rotvec_to_matrix(rng.uniform(-np.pi, np.pi, 3))
        p = rng.uniform(-2, 2, 3)
        t = geo.Transform.from_matrix(p, m)
        assert t.rotation_matrix is m
        np.testing.assert_array_equal(t.rotation, geo.matrix_to_rotvec(m))
        assert t.rotation is t.rotation  # derived once, then cached
        np.testing.assert_allclose(
            geo.Transform(p, t.rotation).matrix(), t.matrix(), atol=1e-12)


def test_compose_identity():
    rng = np.random.default_rng(4)
    t = random_transform(rng)
    out = geo.compose(geo.Transform.identity(), t)
    np.testing.assert_allclose(out.translation, t.translation, atol=1e-12)
    np.testing.assert_allclose(out.matrix(), t.matrix(), atol=1e-12)


def test_compose_quarter_turns():
    rz = geo.transform(rz=np.pi / 2)
    out = geo.compose(rz, rz)
    np.testing.assert_allclose(out.matrix(), geo.transform(rz=np.pi).matrix(), atol=1e-12)


def test_compose_matches_homogeneous_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b = random_transform(rng), random_transform(rng)
        np.testing.assert_allclose(
            geo.compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-12)


def test_compose_associative():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = geo.compose(geo.compose(a, b), c)
        right = geo.compose(a, geo.compose(b, c))
        np.testing.assert_allclose(left.matrix(), right.matrix(), atol=1e-12)


def test_compose_invert_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = random_transform(rng)
        ident = geo.compose(t, geo.invert(t))
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(ident.matrix(), np.eye(4), atol=1e-12)


def test_apply_identity():
    p = geo.vec3(1, 2, 3)
    np.testing.assert_array_equal(geo.apply(geo.Transform.identity(), p), p)


def test_apply_quarter_turn():
    t = geo.transform(rz=np.pi / 2)
    np.testing.assert_allclose(geo.apply(t, geo.vec3(1, 0, 0)), geo.vec3(0, 1, 0), atol=1e-12)


def test_apply_matches_matrix_expansion():
    rng = np.random.default_rng(8)
    for _ in range(300):
        t = random_transform(rng)
        p = rng.uniform(-3, 3, 3)
        expected = (t.matrix() @ np.append(p, 1.0))[:3]
        np.testing.assert_allclose(geo.apply(t, p), expected, atol=1e-12)


def test_rotvec_difference_recovers_relative_rotation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = geo.canonicalize_rotvec(rng.uniform(-np.pi, np.pi, 3))
        b = geo.canonicalize_rotvec(rng.uniform(-np.pi, np.pi, 3))
        d = geo.rotvec_difference(a, b)
        np.testing.assert_allclose(
            geo.rotvec_to_matrix(d) @ geo.rotvec_to_matrix(b),
            geo.rotvec_to_matrix(a), atol=1e-9)


# ---------------------------------------------------------------------------
# chamfer
# ---------------------------------------------------------------------------

def test_chamfer_singletons_equal_euclidean():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert geo.chamfer(a, b) == 5.0


def test_chamfer_identical_sets_zero():
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1, 1, (7, 3))
    assert geo.chamfer(pts, pts) == 0.0


def test_chamfer_hand_evaluated():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    assert geo.chamfer(a, b) == pytest.approx(0.25, abs=1e-15)


def test_chamfer_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(-1, 1, (rng.integers(1, 6), 3))
        b = rng.uniform(-1, 1, (rng.integers(1, 6), 3))
        assert geo.chamfer(a, b) == pytest.approx(geo.chamfer(b, a), abs=1e-15)


def test_chamfer_singleton_exactness_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        assert geo.chamfer(a[None], b[None]) == geo.point_distance(a, b)
        assert geo.point_distance(a, b) == pytest.approx(np.linalg.norm(a - b), rel=1e-15)


def test_chamfer_empty_set_errors():
    with pytest.raises(ValueError, match="empty point set"):
        geo.chamfer(np.zeros((0, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="empty point set"):
        geo.chamfer(np.zeros((1, 3)), np.zeros((0, 3)))
