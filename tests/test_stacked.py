"""The stacked pass over a point set: every value bitwise the scalar
formulas', a point's verdict the same alone and inside a set, and errors
still naming the first bad point or pair."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import geokernel as gk
from geokernel import spaces as sp
from geokernel.cli import main
from geokernel.gram import gram
from geokernel.spaces import CLAMP_EXCESS, ORTHONORMAL_TOL, UNIT_NORM_TOL

# SHA-256 prefixes of distance_matrix(...).tobytes() and of
# gram(..., 0.7).entries.tobytes(), frozen from the
# point-by-point formulas on the sets of ``_points``
FROZEN_SETS = {
    "sphere:2": ("1f3df00ceb54469d5028c3a54752e692", "6bdcccaafbbddc81ecabef1d33b72c3b"),
    "projective:2": ("e41b799127de9375ef372c95825653f0", "641300c3a5707b161f870fadfd81d9a1"),
    "euclidean:5": ("874245ab051deb6335079537f6adc6cf", "5e1dd9c4dddd06fbdfd092b7a629f811"),
    "spd:3": ("ca126489bcca39d11fd1a893b4878b86", "aa52bd0ed701566cc37adc341f12dd49"),
    "spd:3:log_euclidean": ("d8e275045a6e5ef505c4be3aa1f3b766",
                            "e7084ea505326407cd6a35064f099aa1"),
    "spd:3:stein": ("3260ba29b87dcc39cfbb44a7096ce497", "d781410f3027c3dd468cb75458f5574e"),
    "grassmann:2,4": ("4f197b2dd4d9ade3db9c48c37511ebad", "bcf032febafd129b54a4461b659c61aa"),
    "grassmann:2,4:projection": ("8376dc828fc73e408069326a5890f292",
                                 "357ccaf5bf9c88a1b933e76bf8503215"),
    "circle": ("8f99cb453360cf3005962eb0fdbc60e4", "4ed0121c19247a1d4bfb1629f088c66b"),
    "torus": ("e6c252bbe60b4d28d06a1bedecaffcb9", "e205f072e239a434ab1a369cc2b57cd6"),
}

# circle images of ``_thetas``: SHA-256 prefix of their bytes, count of set
# sign bits, and verify_isometry(space, 1000, seed=3), frozen from the
# angle-by-angle map
FROZEN_IMAGES = {
    "sphere:2": ("56feccad5eaf51fc14729317599410d5", 111, 6.661338147750939e-16),
    "sphere:5": ("786ecd9264a35f612d3bbe46d583e2f4", 111, 6.661338147750939e-16),
    "projective:2": ("744c42557c80d6d34c30bbd11c47e7df", 55, 4.440892098500626e-16),
    "grassmann:2,4": ("41c2f71e28f0bb305f4eb7a0200c0775", 55, 4.440892098500626e-16),
    "grassmann:1,3": ("744c42557c80d6d34c30bbd11c47e7df", 55, 4.440892098500626e-16),
    "torus": ("1d600f6f15c52718f1a28416b951d199", 0, 0.0),
}


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:32]


def _points(space):
    pts = gk.sample_points(space, 18, 100)
    if isinstance(space, (gk.Sphere, gk.ProjectiveSpace)):
        pts[1], pts[2] = pts[0].copy(), -pts[0]  # exact 0 and pi (0 once flipped)
    return pts


def _thetas():
    rng = np.random.default_rng(18)
    return [0.0, math.pi / 2, math.pi, 1.5 * math.pi, math.nextafter(2 * math.pi, 0.0),
            *rng.uniform(0.0, 2 * math.pi, 95).tolist()]


@pytest.mark.parametrize("text", sorted(FROZEN_SETS))
def test_distances_and_grams_are_bitwise_frozen(text):
    space = gk.parse_space(text)
    pts = _points(space)
    d = gk.distance_matrix(space, pts)
    k = gram(space, pts, 0.7).entries
    assert (_digest(d), _digest(k)) == FROZEN_SETS[text]
    # a pair's value does not depend on the batch it is in
    for i, j in ((0, 1), (0, 2), (3, 99), (12, 57)):
        assert gk.distance(space, pts[i], pts[j]) == d[i, j]


@pytest.mark.parametrize("text", sorted(FROZEN_IMAGES))
def test_circle_images_are_bitwise_frozen(text):
    space = gk.parse_space(text)
    images = np.asarray(space._circle_points(_thetas()), dtype=float)
    digest, signs, deviation = FROZEN_IMAGES[text]
    assert _digest(images) == digest
    assert int(np.signbit(images).sum()) == signs
    assert gk.verify_isometry(space, 1000, seed=3) == deviation


def _accepts(space, point) -> bool:
    try:
        sp.require_valid(space, point)
    except gk.InvalidPointError:
        return False
    return True


def _rejection(space, points) -> str | None:
    try:
        sp.check_points(space, points)
    except gk.InvalidPointError as exc:
        return str(exc)
    return None


def _ulps(x: float, count: int) -> list[float]:
    """x and the ``count`` doubles on either side of it."""
    below, above, out = x, x, [x]
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return sorted(out)


def _assert_same_verdicts(space, candidates):
    verdicts = [_accepts(space, p) for p in candidates]
    assert True in verdicts and False in verdicts  # the boundary is crossed
    good = [p for p, v in zip(candidates, verdicts) if v]
    # a point alone and first or last among valid points: the same verdict,
    # and a rejected one is named
    for point, verdict in zip(candidates, verdicts):
        for index, points in ((0, [point, *good]), (len(good), [*good, point])):
            rejection = _rejection(space, points)
            assert (rejection is None) == verdict
            assert verdict or rejection.startswith(f"point {index} of {space!r}: ")
    # a set of the accepted ones is checked as one stack
    assert isinstance(sp.check_points(space, good), np.ndarray)


def test_unit_norm_check_is_the_same_at_the_tolerance():
    space = gk.Sphere(2)
    direction = np.array([0.6, 0.8, 0.0]) / np.linalg.norm([0.6, 0.8, 0.0])
    candidates = []
    for edge in (1.0 + UNIT_NORM_TOL, 1.0 - UNIT_NORM_TOL):
        for scale in _ulps(edge, 4):
            candidates.append(np.array([scale, 0.0, 0.0]))
            candidates.append(scale * direction)
    _assert_same_verdicts(space, candidates)
    _assert_same_verdicts(gk.ProjectiveSpace(2), candidates)


def test_orthonormal_check_is_the_same_at_the_tolerance():
    space = gk.Grassmannian(2, 4)
    rotated = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 2)))[0]
    candidates = []
    for edge in (math.sqrt(1.0 + ORTHONORMAL_TOL), math.sqrt(1.0 - ORTHONORMAL_TOL)):
        for scale in _ulps(edge, 4):
            for frame in (np.eye(4)[:, :2], rotated):
                stretched = frame.copy()
                stretched[:, 0] *= scale
                candidates.append(stretched)
    _assert_same_verdicts(space, candidates)


@pytest.mark.parametrize("text, bad, message", [
    ("sphere:2", [1.0, 0.5, 0.0], "sphere: norm != 1"),
    ("grassmann:2,4", [[1.0, 0.0], [0.0, 1.0], [0.0, 0.001], [0.0, 0.0]],
     "grassmannian: columns not orthonormal"),
    ("circle", 7.0, "circle: angle outside [0, 2*pi)"),
], ids=["sphere", "grassmann", "circle"])
def test_pd_check_names_point_57(tmp_path, capsys, text, bad, message):
    space = gk.parse_space(text)
    points = [sp.point_to_json(p) for p in gk.sample_points(space, 5, 100)]
    points[57] = points[80] = bad  # the second is never named
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"space": sp.space_to_json(space), "points": points}))
    code = main(["pd-check", "--points", str(path), "--lambda", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: point 57 of {space!r}: {message}\n"


@st.composite
def _unit_vector_sets(draw):
    """A sphere or projective space of dimension at most 6 and a point set
    on it whose norms reach to the edge of UNIT_NORM_TOL; some points
    repeat or negate an earlier one at another norm, so that inner
    products come as close to +-1 as valid points allow."""
    space = draw(st.sampled_from([gk.Sphere, gk.ProjectiveSpace]))(draw(st.integers(1, 6)))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=space.n + 1, max_size=space.n + 1)
    units = []
    for _ in range(draw(st.integers(2, 6))):
        if units and draw(st.booleans()):
            u = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from(units))
        else:
            v = np.array(draw(coords))
            assume(np.linalg.norm(v) > 0.1)
            u = v / np.linalg.norm(v)
        units.append(u)
    pushes = st.floats(-0.99 * UNIT_NORM_TOL, 0.99 * UNIT_NORM_TOL)
    return space, [u * (1.0 + draw(pushes)) for u in units]


@given(_unit_vector_sets())
def test_checked_unit_vectors_need_no_clamp(case):
    # the point check alone keeps every inner product within rounding of
    # [-1, 1], so the half-angle distance formula checks nothing more
    space, points = case
    forms = sp.check_points(space, points)
    i, j = np.triu_indices(len(points))
    assert np.abs(sp._dots(forms[i], forms[j])).max() <= 1.0 + CLAMP_EXCESS
    d = sp.pair_distances(space, points, i, j)
    top = math.pi / 2 if isinstance(space, gk.ProjectiveSpace) else math.pi
    assert ((0.0 <= d) & (d <= top)).all()
