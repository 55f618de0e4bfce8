"""Metric catalog: distances, point validation, serialization."""

import json
import math

import mpmath
import numpy as np
import pytest

import geokernel as gk
from geokernel import spaces
from geokernel.gram import gram
from geokernel.precision import numeric
from geokernel.spaces import (
    VARIANTS,
    check_points,
    circle_arc,
    circle_equispaced,
    equispaced_order,
    pair_distances,
    point_from_json,
    point_to_json,
    pointset_from_json,
    pointset_to_json,
    require_valid,
    sample_points,
    space_from_json,
    space_to_json,
)

CATALOG = [
    gk.Circle(),
    gk.Circle(scale=2.5),
    gk.Sphere(2),
    gk.Sphere(5),
    gk.ProjectiveSpace(2),
    gk.Grassmannian(2, 4),
    gk.Grassmannian(2, 4, metric="projection"),
    gk.SpdMatrices(3),
    gk.SpdMatrices(3, metric="log_euclidean"),
    gk.SpdMatrices(3, metric="stein"),
    gk.Euclidean(4),
    gk.FlatTorus(),
]


def test_parse_space_round_trip():
    texts = {
        "circle": gk.Circle(), "circle:2.5": gk.Circle(2.5), "sphere:3": gk.Sphere(3),
        "projective:2": gk.ProjectiveSpace(2), "grassmann:2,4": gk.Grassmannian(2, 4),
        "grassmann:2,4:projection": gk.Grassmannian(2, 4, "projection"),
        "spd:3": gk.SpdMatrices(3), "spd:3:log_euclidean": gk.SpdMatrices(3, "log_euclidean"),
        "spd:3:stein": gk.SpdMatrices(3, "stein"), "euclidean:4": gk.Euclidean(4),
        "torus": gk.FlatTorus(),
        # lenient forms the grammar has always taken
        "circle:1:extra": gk.Circle(1.0), "torus:1": gk.FlatTorus(), " sphere:2 ": gk.Sphere(2),
        "CIRCLE:2": gk.Circle(2.0), "grassmannian:2,4": gk.Grassmannian(2, 4),
    }
    for text, expected in texts.items():
        space = gk.parse_space(text)
        assert repr(space) == repr(expected), text
        obj = space_to_json(space)
        assert list(obj)[0] == "variant", text
        assert space_from_json(json.loads(json.dumps(obj))) == space, text
    assert {space.variant for space in texts.values()} == set(VARIANTS)
    for space in CATALOG:
        assert space_from_json(space_to_json(space)) == space


def test_parse_space_rejects_garbage():
    for text in ["", "nope", "circle:0", "circle:-1", "sphere:0",
                 "grassmann:4,2", "grassmann:0,3", "spd:2:weird",
                 "euclidean:nope", "grassmann:2", "grassmann:2,4,5",
                 "grassmann:2:4", "sphere", "sphere:2,3", "sphere:2.0",
                 "spd", "euclidean"]:
        with pytest.raises((gk.InvalidSpaceError, ValueError)):
            gk.parse_space(text)


def test_circle_distance_wraparound_and_scale():
    assert gk.distance(gk.Circle(), 0.1, 2 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-15)
    assert gk.distance(gk.Circle(), 0.0, math.pi) == pytest.approx(math.pi, abs=0)
    # scaling the circle scales every arc by the same factor
    d1 = gk.distance(gk.Circle(), 0.3, 1.9)
    d25 = gk.distance(gk.Circle(scale=2.5), 0.3, 1.9)
    assert d25 == 2.5 * d1


def test_circle_arc_helper_matches_distance():
    for a, b in [(0.0, 1.0), (6.0, 0.5), (2.0, 2.0)]:
        assert circle_arc(a, b) == gk.distance(gk.Circle(), a, b)


def test_sphere_distance_landmarks():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert gk.distance(gk.Sphere(2), e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert gk.distance(gk.Sphere(2), e1, -e1) == pytest.approx(math.pi, abs=1e-15)
    assert gk.distance(gk.Sphere(2), e1, e1) == 0.0


def test_projective_identifies_antipodes():
    space = gk.ProjectiveSpace(2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        assert gk.distance(space, x, -x) == 0.0
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        d = gk.distance(space, x, y)
        assert 0.0 <= d <= math.pi / 2 + 1e-12


def test_grassmann_representative_independence():
    space = gk.Grassmannian(2, 4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        b = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        d1 = gk.distance(space, a, b)
        d2 = gk.distance(space, a @ q, b)
        assert abs(d1 - d2) <= 1e-10


def test_grassmann_projection_cross_check():
    # squared chordal distance equals twice the sum of squared sines
    # of the principal angles
    pa = gk.Grassmannian(2, 4)
    proj = gk.Grassmannian(2, 4, metric="projection")
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        b = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        thetas = gk.principal_angles(a, b)
        assert list(thetas) == sorted(thetas)
        d = gk.distance(proj, a, b)
        assert abs(d * d - 2.0 * sum(math.sin(t) ** 2 for t in thetas)) <= 1e-9
        assert gk.distance(pa, a, b) == pytest.approx(
            math.sqrt(sum(t * t for t in thetas)), abs=1e-12
        )


@pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8])
def test_grassmann_small_angles_keep_relative_accuracy(t):
    # spans of [e1, e2] and [cos t e1 + sin t e3, cos 2t e2 + sin 2t e4]:
    # principal angles t and 2t, stored exactly up to the rounding of
    # sin and cos themselves
    space = gk.Grassmannian(2, 4)
    a = np.eye(4)[:, :2]
    b = np.zeros((4, 2))
    b[0, 0], b[2, 0] = math.cos(t), math.sin(t)
    b[1, 1], b[3, 1] = math.cos(2 * t), math.sin(2 * t)
    thetas = gk.principal_angles(a, b)
    assert thetas[0] == pytest.approx(t, rel=1e-10)
    assert thetas[1] == pytest.approx(2 * t, rel=1e-10)
    d = gk.distance(space, a, b)
    assert d > 0.0
    assert d == pytest.approx(math.sqrt(5.0) * t, rel=1e-10)
    assert gk.distance(space, b, a) == pytest.approx(d, rel=1e-10)


def test_principal_angles_refusal_prints_the_plain_cosine():
    # frames of norm 2 give a cosine of 8; the text shows the float, not
    # numpy's np.float64(...) repr
    f = 2 * np.eye(4)[:, :2]
    with pytest.raises(gk.InvalidPointError) as caught:
        gk.principal_angles(f, f)
    assert str(caught.value) == "cosine 8.0 of a principal angle exceeds 1 beyond rounding"


def test_distance_is_one_pair_of_the_pairwise_routine():
    # bitwise: a pair's value does not depend on the batch it is in
    pairs = [(4, 0), (1, 1), (2, 3), (2, 3)]
    for space in CATALOG:
        pts = sample_points(space, 17, 5)
        d = gk.distance_matrix(space, pts)
        assert d.shape == (5, 5)
        for i in range(5):
            assert d[i, i] == 0.0
            for j in range(i + 1, 5):
                assert d[i, j] == d[j, i] == gk.distance(space, pts[i], pts[j])
        assert gk.pair_distances(space, pts, *np.transpose(pairs)).tolist() == [
            gk.distance(space, pts[i], pts[j]) for i, j in pairs
        ]


@pytest.mark.parametrize("space", [*CATALOG, gk.Circle(scale=0.5)], ids=repr)
def test_point_check_returns_what_the_distances_read(space):
    # one check per space: the distance formula reads its output as it
    # stands, with no second per-space reduction
    pts = sample_points(space, 23, 6)
    i, j = np.triu_indices(6, 1)
    forms = check_points(space, pts)
    assert isinstance(forms, np.ndarray) and len(forms) == 6
    direct = np.asarray(space._distances(forms, i, j), dtype=float)
    assert direct.tobytes() == pair_distances(space, pts, i, j).tobytes()


def test_spd_frobenius_is_plain_norm():
    space = gk.SpdMatrices(2)
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert gk.distance(space, a, b) == np.linalg.norm(a - b)


def test_spd_log_euclidean_on_scalar_multiples():
    space = gk.SpdMatrices(2, metric="log_euclidean")
    eye = np.eye(2)
    assert gk.distance(space, eye, eye) == 0.0
    # log(4I) - log(I) = (log 4) I, Frobenius norm log(4) * sqrt(2)
    assert gk.distance(space, 4.0 * eye, eye) == pytest.approx(
        math.log(4.0) * math.sqrt(2.0), abs=1e-12
    )


def test_spd_stein_distance_is_sqrt_of_divergence():
    space = gk.SpdMatrices(2, metric="stein")
    a = np.array([[3.0, 0.5], [0.5, 2.0]])
    b = np.eye(2)
    assert gk.distance(space, a, b) == math.sqrt(gk.stein_divergence(a, b))


def test_torus_distance_quadrature():
    space = gk.FlatTorus()
    p = (0.0, 0.0)
    q = (1.2, 6.0)
    expect = math.hypot(circle_arc(0.0, 1.2), circle_arc(0.0, 6.0))
    assert gk.distance(space, p, q) == pytest.approx(expect, abs=1e-15)
    assert gk.distance(space, p, (0.7, 0.0)) == circle_arc(0.0, 0.7)


def test_symmetry_and_self_distance():
    for space in CATALOG:
        pts = sample_points(space, 21, 5)
        for i, a in enumerate(pts):
            assert gk.distance(space, a, a) <= 1e-12
            for b in pts[i + 1:]:
                assert abs(gk.distance(space, a, b) - gk.distance(space, b, a)) <= 1e-12


def test_triangle_inequality_catalog():
    rng = np.random.default_rng(77)
    for space in CATALOG:
        pts = sample_points(space, 31, 12)
        for _ in range(100):
            i, j, k = rng.integers(0, len(pts), 3)
            a, b, c = pts[i], pts[j], pts[k]
            assert gk.distance(space, a, c) <= (
                gk.distance(space, a, b) + gk.distance(space, b, c) + 1e-9
            )


def test_sampled_points_are_valid():
    for space in CATALOG:
        for p in sample_points(space, 3, 8):
            require_valid(space, p)


def test_catalog_covers_every_variant():
    assert {type(space) for space in CATALOG} == set(VARIANTS.values())


@pytest.mark.parametrize("space", CATALOG, ids=repr)
def test_empty_and_one_point_sets(space):
    assert len(check_points(space, [])) == 0
    assert pair_distances(space, [], [], []).tolist() == []
    assert gk.distance_matrix(space, []).shape == (0, 0)
    point = sample_points(space, 9, 1)[0]
    assert len(check_points(space, [point])) == 1
    assert pair_distances(space, [point], [], []).tolist() == []
    assert pair_distances(space, [point], [0], [0]).tolist() == [pytest.approx(0.0, abs=1e-7)]
    assert gk.distance_matrix(space, [point]).tolist() == [[0.0]]


def test_require_valid_messages():
    with pytest.raises(gk.InvalidPointError, match="norm != 1"):
        require_valid(gk.Sphere(2), np.array([1.0, 0.5, 0.0]))
    bad_spd = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(gk.InvalidPointError, match="not positive definite"):
        require_valid(gk.SpdMatrices(3), bad_spd)
    skew = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0].copy()
    skew[0, 0] += 1e-3
    with pytest.raises(gk.InvalidPointError, match="columns not orthonormal"):
        require_valid(gk.Grassmannian(2, 4), skew)
    with pytest.raises(gk.InvalidPointError):
        require_valid(gk.Sphere(2), np.array([1.0, 0.5, 0.0]))


_SPD_GOOD = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 3.0]])
_SPD_BAD = {
    "matrix has non-finite entries": np.where(np.eye(3) > 0, np.nan, _SPD_GOOD),
    "expected 3x3 matrix, got shape (2, 2)": np.eye(2),
    "not symmetric": _SPD_GOOD + np.triu(np.ones((3, 3)), 1) * 1e-9,
    "not positive definite": -_SPD_GOOD,
}


@pytest.mark.parametrize("metric", gk.SpdMatrices.metrics)
@pytest.mark.parametrize("message", list(_SPD_BAD))
def test_spd_point_set_names_the_first_invalid_point(metric, message):
    # the stacked check falls back to the point-by-point one, whose
    # message names the first invalid point wherever it sits
    space = gk.SpdMatrices(3, metric)
    for index in (0, 3, 6):
        points = [_SPD_GOOD * (k + 1) for k in range(7)]
        points[index] = _SPD_BAD[message]
        if index < 6:
            points[6] = -_SPD_GOOD  # a second invalid point, never named
        expect = f"point {index} of {space!r}: spd: {message}"
        with pytest.raises(gk.InvalidPointError) as info:
            gram(space, points, 0.5)
        assert str(info.value) == expect
        with pytest.raises(gk.InvalidPointError) as info:
            gk.pair_distances(space, points, (), ())
        assert str(info.value) == expect


def test_log_euclidean_names_the_point_whose_log_fails(monkeypatch):
    # a matrix log that fails is the point check's verdict on that point
    space = gk.SpdMatrices(3, "log_euclidean")
    points = [_SPD_GOOD * (k + 1) for k in range(4)]
    eigensystem = spaces.jacobi_eigensystem

    def zero_on_point_2(m):
        values, vectors = eigensystem(m)
        if np.array_equal(m, points[2]):
            values = np.concatenate(([0.0], values[1:]))
        return values, vectors

    monkeypatch.setattr(spaces, "jacobi_eigensystem", zero_on_point_2)
    with pytest.raises(gk.InvalidPointError) as info:
        gram(space, points, 0.5)
    assert str(info.value) == (
        f"point 2 of {space!r}: spd: matrix log needs strictly positive eigenvalues"
    )


def test_spd_symmetry_bar_scales_with_each_matrix():
    # 5e-7 of asymmetry is rounding on a matrix of norm 1e6, not on one of
    # norm 3, whatever the other points of the set
    big = 1e6 * _SPD_GOOD + np.triu(np.ones((3, 3)), 1) * 5e-7
    space = gk.SpdMatrices(3, "stein")
    assert gk.distance(space, big, 2e6 * _SPD_GOOD) > 0
    with pytest.raises(gk.InvalidPointError, match="^point 1 of .*: spd: not symmetric$"):
        gk.distance(space, big, _SPD_GOOD + np.triu(np.ones((3, 3)), 1) * 5e-7)


def test_space_constructor_validation():
    with pytest.raises(gk.InvalidSpaceError):
        gk.Circle(scale=0.0)
    with pytest.raises(gk.InvalidSpaceError):
        gk.Sphere(0)
    with pytest.raises(gk.InvalidSpaceError):
        gk.Grassmannian(3, 3)
    with pytest.raises(gk.InvalidSpaceError):
        gk.SpdMatrices(2, metric="weird")


def test_circle_equispaced_and_order_detection():
    angles = circle_equispaced(6)
    assert angles == [2 * math.pi * k / 6 for k in range(6)]
    assert equispaced_order(angles) == 6
    bumped = list(angles)
    bumped[3] += 1e-6
    assert equispaced_order(bumped) is None
    assert equispaced_order([0.0, 1.0, 2.0]) is None
    assert equispaced_order([0.0]) is None  # one angle is no family
    # a nan or negative first angle is no member of the family, even one
    # that float() rounds to -0.0
    for first in (math.nan, -1e-13, mpmath.mpf("-1e-400")):
        assert equispaced_order([first, *angles[1:]]) is None
    with pytest.raises(gk.InvalidSpaceError):
        circle_equispaced(1)


def test_point_json_round_trip_double():
    for space in CATALOG:
        for p in sample_points(space, 8, 3):
            obj = point_to_json(p, 17)
            back = point_from_json(space, obj, 17)
            assert np.allclose(np.asarray(back, dtype=float),
                               np.asarray(p, dtype=float), rtol=0, atol=0)
        if space.angles:  # angle payloads also go wide
            with numeric(30) as x:
                p = x.num(1) / 3 if space.variant == "circle" else (x.pi / 7, x.num(2) / 3)
            obj = json.loads(json.dumps(point_to_json(p, 30)))
            back = point_from_json(space, obj, 30)
            assert back == p and type(back) is type(p)


def test_point_json_wide_circle_keeps_digits():
    from mpmath import mp, mpf
    with mp.workdps(40):
        theta = 2 * mp.pi / 3
        obj = point_to_json(theta, 30)
        assert isinstance(obj, str)
        back = point_from_json(gk.Circle(), obj, 30)
        assert abs(back - theta) < mpf("1e-25")


def test_pointset_json_round_trip():
    space = gk.Sphere(2)
    pts = sample_points(space, 4, 5)
    payload = pointset_to_json(space, pts)
    space2, pts2 = pointset_from_json(payload)
    assert space2 == space
    assert all(np.allclose(a, b) for a, b in zip(pts, pts2))


@pytest.mark.parametrize("obj, message", [
    ([], "point set is a JSON object, got list"),
    (None, "point set is a JSON object, got NoneType"),
    ({"points": [0.0]}, "no 'space' entry"),
    ({"space": {"variant": "circle"}}, "no 'points' entry"),
    ({"space": {"variant": "circle"}, "points": 0.5}, "'points' must be a list, got float"),
])
def test_pointset_from_json_names_the_malformed_entry(obj, message):
    with pytest.raises(gk.InvalidSpaceError, match=message):
        pointset_from_json(obj)
