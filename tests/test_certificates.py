"""Witness certificates: construction, serialization, and the
independent verifier with tamper detection."""

import dataclasses
import functools
import itertools
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import mpf_mul, mpf_pos, mpf_sum, round_nearest

import geokernel as gk
from geokernel import certificates, precision
from geokernel.certificates import CertificateError
from geokernel.cli import main
from geokernel.gram import gram
from geokernel.precision import DOUBLE_DIGITS, PrecisionError, number_to_json, numeric
from geokernel.spaces import check_points, circle_equispaced, require_valid, sample_points


GOLDEN = Path(__file__).parent / "golden"


def _golden_cert70(name="circle_cert70.json"):
    """A committed 70-digit circle certificate: lambda 10, N = 128.  The
    ``_rounded`` file keeps the angles 2*pi*k/N rounded one by one, as
    witnesses were built before they moved to exact progressions k*h."""
    return gk.cert_from_json(json.loads((GOLDEN / name).read_text()))


def _unit_witness(lam=0.1, digits=None):
    cert = gk.circle_witness(lam, n_max=64, precision_digits=digits)
    assert cert is not None
    return cert


def test_quadratic_form_matches_manual():
    space = gk.Sphere(2)
    pts = sample_points(space, 5, 4)
    lam = 0.7
    coeffs = (0.25, -1.0, 0.5, 0.75)
    k = gram(space, pts, lam).entries
    manual = math.fsum(
        coeffs[i] * coeffs[j] * k[i][j] for i in range(4) for j in range(4)
    )
    mine = gk.quadratic_form(space, lam, pts, coeffs, 17)
    assert mine == pytest.approx(manual, rel=1e-13, abs=1e-15)


def test_quadratic_form_wide_needs_angle_payloads():
    pts = sample_points(gk.Sphere(2), 5, 4)
    with pytest.raises(PrecisionError):
        gk.quadratic_form(gk.Sphere(2), 0.1, pts, (1.0, -1.0, 1.0, -1.0), 30)
    # circle angles carry through arbitrary precision
    with mp.workdps(40):
        angles = [2 * mp.pi * k / 4 for k in range(4)]
        value = gk.quadratic_form(gk.Circle(), mpf("0.1"), angles, (0.5, -0.5, 0.5, -0.5), 30)
        assert isinstance(value, mpf)
        assert abs(value - mpf("-0.18997962224145058659")) < mpf("1e-19")


def _exact(*factors):
    """The product of mpf factors as a raw mpf, with no rounding."""
    raw = factors[0]._mpf_
    for f in factors[1:]:
        raw = mpf_mul(raw, f._mpf_, 0)
    return raw


def _rounded_once(raws):
    """The exact sum of raw mpf terms, rounded once at the working
    precision."""
    return mp.make_mpf(mpf_pos(mpf_sum(raws, 0), mp.prec, round_nearest))


def _exact_kernel(lam, scale, arcs):
    """exp(-lam sum (scale arc)^2) over the exact ``arcs``, formed 200 bits
    past the working precision and rounded once at it."""
    prec = mp.prec
    with mp.workprec(prec + 200):
        value = mp.exp(-lam * mp.fsum((scale * a) ** 2 for a in arcs))
    return mp.make_mpf(mpf_pos(value._mpf_, prec, round_nearest))


def _exact_arc(a, b, pi):
    """min(d, 2 pi - d) for the exact difference d = |a - b|, exactly."""
    d = abs(mp.fsub(a, b, exact=True))
    return d if d <= pi else mp.fsub(2 * pi, d, exact=True)


def _plain_quadratic_form(space, lam, points, coefficients, digits, exact=False):
    """c^T K c as the plain loop: one kernel evaluation per pair, arcs from
    raw angles at wide precision.  Double precision streams the terms into
    the compensated sum; wide precision forms every product and the sum
    without rounding and rounds once.  With ``exact``, each arc is the
    exact one, min(d, 2 pi_p - d) of the exact angle difference d and the
    working pi_p, and each kernel value the exact one rounded once
    (:func:`_exact_kernel`, once per distinct arc)."""
    n = len(points)
    with numeric(digits) as x:
        lam = x.num(lam)
        if digits <= DOUBLE_DIGITS:
            matrix = gk.distance_matrix(space, list(points)).tolist()
            kernel = lambda i, j: x.exp(-lam * matrix[i][j] * matrix[i][j])
        else:
            pi = +x.pi
            two_pi = 2 * pi
            circle = isinstance(space, gk.Circle)
            scale = x.num(space.scale if circle else 1)
            angles = [(x.num(p),) if circle else tuple(map(x.num, p)) for p in points]

            def arcs(i, j):
                for a, b in zip(angles[i], angles[j]):
                    if exact:
                        yield _exact_arc(a, b, pi)
                    else:
                        d = abs(a - b)
                        yield min(d, two_pi - d)

            exact_kernel = functools.cache(lambda key: _exact_kernel(lam, scale, key))

            def kernel(i, j):
                if exact:
                    return exact_kernel(tuple(arcs(i, j)))
                d = scale * next(arcs(i, j)) if circle else x.sqrt(sum(a ** 2 for a in arcs(i, j)))
                return x.exp(-lam * d * d)

        c = [x.num(v) for v in coefficients]
        pairs = [(2 * c[i], c[j], kernel(i, j)) for i in range(n) for j in range(i + 1, n)]
        if digits <= DOUBLE_DIGITS:
            return x.fsum([ci * ci for ci in c] + [a * b * k for a, b, k in pairs])
        return _rounded_once([_exact(ci, ci) for ci in c] + [_exact(*t) for t in pairs])


def _exact_quadratic_form(space, lam, points, coefficients, digits):
    """The gap route's reference: :func:`_plain_quadratic_form` on exact
    arcs and exact kernel values rounded once."""
    return _plain_quadratic_form(space, lam, points, coefficients, digits, exact=True)


def _bits(value):
    return value._mpf_ if isinstance(value, mpf) else float(value).hex()


def _bit_identity_cases():
    """(what, route, space, lam, points, coefficients, digits): the route is
    "gaps" for exact progressions, "pairs" for other wide sets and
    "double" at 17 digits."""
    for name, route in (("circle_cert70.json", "gaps"), ("circle_cert70_rounded.json", "pairs")):
        cert70 = _golden_cert70(name)
        yield f"{name}, 70 digits", route, cert70.space, cert70.lam, cert70.points, \
            cert70.coefficients, 70
    scaled = gk.circle_witness(5, precision_digits=50, scale=0.7)
    yield "circle scale 0.7, 50 digits", "gaps", scaled.space, scaled.lam, scaled.points, \
        scaled.coefficients, 50
    rng = np.random.default_rng(3)
    with mp.workdps(40):
        angles = [2 * mp.pi * mpf(u) for u in rng.random(30)]
    yield "random circle angles, 40 digits", "pairs", gk.Circle(), mpf("0.3"), angles, \
        rng.standard_normal(30).tolist(), 40
    # the pair route: an angle below the lift cut, and points off a progression
    more = np.random.default_rng(4)
    with mp.workdps(40):
        below = [*angles, mpf("1e-130")]
        pairs = [(2 * mp.pi * mpf(u), 2 * mp.pi * mpf(v)) for u, v in more.random((30, 2))]
    yield "random circle angles and 1e-130, 40 digits", "pairs", gk.Circle(), mpf("0.3"), \
        below, more.standard_normal(31).tolist(), 40
    yield "random torus angles, 40 digits", "pairs", gk.FlatTorus(), mpf("0.3"), pairs, \
        more.standard_normal(30).tolist(), 40
    torus = gk.witness_for_target(gk.FlatTorus(), "0.4", precision_digits=30)
    yield "torus, 30 digits", "gaps", torus.space, torus.lam, torus.points, \
        torus.coefficients, 30
    for lam, digits in ((5, 50), (10, 70), (20, 100)):
        torus = gk.witness_for_target(gk.FlatTorus(), lam, n_max=1024, precision_digits=digits)
        yield f"torus lambda {lam}, {digits} digits", "gaps", torus.space, torus.lam, \
            torus.points, torus.coefficients, digits
    for text in ("sphere:2", "grassmann:2,4"):
        space = gk.parse_space(text)
        pts = sample_points(space, 11, 24)
        yield text, "double", space, 0.4, pts, rng.standard_normal(24).tolist(), 17
    yield from _cofactor_cases()


def _wide_factor(mantissa, shift=0):
    """A wide value whose mantissa leaves 8 bits spare at the working
    precision, so k times it is exact for |k| < 256."""
    return mp.ldexp(mpf(mantissa % 2 ** (mp.prec - 8) | 1), shift - mp.prec)


def _cofactor_cases():
    """Wide cases whose lifted coefficients share a wide factor, beside
    the offsets the pair loops single out; drawn from their own generator
    so the cases above keep their inputs."""
    rng = np.random.default_rng(6)
    with numeric(40) as x:
        w = _wide_factor(int.from_bytes(rng.bytes(32), "big"))
        ks = rng.integers(-9, 10, 24)
        angles = [2 * x.pi * mpf(u) for u in rng.random(24)]
        coeffs = [int(k) * w for k in ks]
        pi = +x.pi
        _, _, exp, bc = pi._mpf_
        above = pi + mp.ldexp(1, exp + bc - mp.prec)  # one ulp above the working pi
        pairs = [(2 * x.pi * mpf(u), 2 * x.pi * mpf(v)) for u, v in rng.random((24, 2))]
    assert above > pi and len({abs(k) for k in ks}) > 2
    yield "circle, cofactors up to 9, 40 digits", "pairs", gk.Circle(), mpf("0.3"), angles, \
        coeffs, 40
    yield "circle, a zero coefficient, 40 digits", "pairs", gk.Circle(), mpf("0.3"), angles, \
        [mpf(0), *coeffs[1:]], 40
    yield "circle, a repeated angle, 40 digits", "pairs", gk.Circle(), mpf("0.3"), \
        [*angles[:-1], angles[0]], coeffs, 40
    yield "circle, offsets pi and an ulp above, 40 digits", "pairs", gk.Circle(), mpf("0.3"), \
        [*angles[:-3], mpf(0), pi, above], coeffs, 40
    witness = gk.circle_witness(15, n_max=1024, precision_digits=90)
    yield "circle lambda 15, 90 digits", "gaps", witness.space, witness.lam, witness.points, \
        witness.coefficients, 90
    yield "torus, cofactors up to 9, 40 digits", "pairs", gk.FlatTorus(), mpf("0.3"), pairs, \
        coeffs, 40


def _reference_form(route):
    return _exact_quadratic_form if route == "gaps" else _plain_quadratic_form


def test_quadratic_form_memo_is_bit_identical(monkeypatch):
    # double precision: the memo streams the plain loop's terms in order;
    # wide precision: the exact sum of the plain loop's terms, rounded once,
    # whose kernel values on the gap route are the exact ones rounded once
    loops = _count_pair_loops(monkeypatch)
    for what, route, space, lam, pts, coeffs, digits in _bit_identity_cases():
        del loops[:]
        memo = gk.quadratic_form(space, lam, pts, coeffs, digits)
        assert bool(loops) == (route == "pairs"), what
        reference = _reference_form(route)(space, lam, pts, coeffs, digits)
        assert type(memo) is type(reference), what
        assert _bits(memo) == _bits(reference), what


def test_wide_quadratic_form_is_permutation_invariant():
    rng = np.random.default_rng(5)
    for what, _, space, lam, pts, coeffs, digits in _bit_identity_cases():
        if digits <= DOUBLE_DIGITS:
            continue
        value = gk.quadratic_form(space, lam, pts, coeffs, digits)
        for _ in range(2):
            perm = rng.permutation(len(pts))
            shuffled = gk.quadratic_form(
                space, lam, [pts[i] for i in perm], [coeffs[i] for i in perm], digits
            )
            assert _bits(shuffled) == _bits(value), what


@st.composite
def _wide_sets(draw):
    """(space, lam, points, coefficients, digits): 4-24 circle angles or
    torus pairs at 18-100 digits, with repeated points and pairs exactly pi
    apart, and coefficients small integers times one wide factor."""
    digits = draw(st.integers(18, 100))
    torus = draw(st.booleans())
    n = draw(st.integers(4, 24))
    unit = st.integers(0, 2 ** 20 - 1).map(lambda u: mpf(u) / 2 ** 20)
    with numeric(digits) as x:
        pi = +x.pi
        angle = lambda: 2 * pi * draw(unit)
        points = []
        while len(points) < n:
            kind = draw(st.sampled_from(["fresh", "repeat", "opposite"]))
            if kind == "repeat" and points:
                points.append(points[draw(st.integers(0, len(points) - 1))])
            elif kind == "opposite":
                b = pi + pi * draw(unit)  # in [pi, 2 pi), so b - pi is exact
                point = (b, angle()) if torus else b
                mirror = (b - pi, draw(st.sampled_from([point[1], angle()]))) if torus else b - pi
                points += [point, mirror]
            else:
                points.append((angle(), angle()) if torus else angle())
        points = points[:n]
        w = _wide_factor(draw(st.integers(0, 2 ** 400)), draw(st.integers(-40, 40)))
        ks = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        coeffs = [k * w for k in ks]
    lam = mpf(draw(st.sampled_from(["0.3", "1", "4"])))
    return gk.FlatTorus() if torus else gk.Circle(), lam, points, coeffs, digits


@given(_wide_sets())
def test_wide_form_with_a_shared_factor_is_the_plain_form(case):
    assert _bits(gk.quadratic_form(*case)) == _bits(_plain_quadratic_form(*case))


def _on_grid(value):
    """``value`` rounded to a multiple of 2^(12 - p): below 8, sums and
    small multiples of such values are exact at the working precision."""
    unit = mp.ldexp(1, 12 - mp.prec)
    return mp.nint(value / unit) * unit


def _progression_cases():
    """(what, route, space, lam, points, coefficients, digits): exact
    progressions a_0 + k*h that no builder makes, which take the gap
    route, and one angle moved by one ulp, which takes the pair route."""
    rng = np.random.default_rng(8)
    coeffs = [mpf(float(v)) for v in rng.standard_normal(24)]
    with numeric(40) as x:
        h = _on_grid(2 * x.pi / 26)  # the gaps past 13 cross pi
        up = [_on_grid(mpf("0.3")) + k * h for k in range(24)]
        down = [_on_grid(6) - k * h for k in range(24)]
        moved = list(up)
        moved[5] += mp.ldexp(1, mp.mag(up[5]) - mp.prec)
        assert moved[5] > up[5]
    yield "nonzero first angle", "gaps", gk.Circle(), mpf("0.3"), up, coeffs, 40
    yield "descending step", "gaps", gk.Circle(scale=0.7), mpf("0.3"), down, coeffs, 40
    yield "zero step", "gaps", gk.Circle(), mpf("0.3"), [up[7]] * 24, coeffs, 40
    yield "torus, both factors step", "gaps", gk.FlatTorus(), mpf("0.3"), \
        list(zip(up, down)), coeffs, 40
    yield "one angle an ulp off", "pairs", gk.Circle(), mpf("0.3"), moved, coeffs, 40
    yield "torus, one angle an ulp off", "pairs", gk.FlatTorus(), mpf("0.3"), \
        list(zip(down, moved)), coeffs, 40


def _count_pair_loops(monkeypatch):
    loops = []
    monkeypatch.setattr(certificates, "combinations",
                        lambda *args: loops.append(args) or itertools.combinations(*args))
    return loops


def test_gap_route_is_the_plain_form_on_other_progressions(monkeypatch):
    loops = _count_pair_loops(monkeypatch)
    for what, route, space, lam, pts, coeffs, digits in _progression_cases():
        del loops[:]
        value = gk.quadratic_form(space, lam, pts, coeffs, digits)
        reference = _reference_form(route)(space, lam, pts, coeffs, digits)
        assert _bits(value) == _bits(reference), what
        assert ("pairs" if loops else "gaps") == route, what


def _record_gap_rows(monkeypatch):
    """The kernel values each gap-route form reads, one list per call of
    ``gap_gaussians``."""
    rows = []
    gap_gaussians = certificates.gap_gaussians
    monkeypatch.setattr(certificates, "gap_gaussians",
                        lambda *args: rows.append(gap_gaussians(*args)) or rows[-1])
    return rows


def _gap_kernels(space, lam, points, digits):
    """The exact kernel of the exact arcs between points 0 and g, rounded
    once, for g = 1, ..., N-1: gap g's value when ``points`` are in
    progression in their given order."""
    with numeric(digits) as x:
        pi = +x.pi
        circle = isinstance(space, gk.Circle)
        scale = x.num(space.scale if circle else 1)
        angles = [(x.num(p),) if circle else tuple(map(x.num, p)) for p in points]
        return [_exact_kernel(x.num(lam), scale, [_exact_arc(a, b, pi) for a, b in
                                                  zip(angles[0], angles[g])])
                for g in range(1, len(points))]


def _gap_route_cases():
    """(what, space, lam, points, coefficients, digits), each an exact
    progression in its given order: builder witnesses, their torus image,
    and the descending and two-factor progressions no builder makes."""
    for lam, digits in ((0.1, 30), (1, 30), (5, 50), (10, 70), (20, 100)):
        for scale in (1, 0.7):
            cert = gk.circle_witness(lam, n_max=1024, precision_digits=digits, scale=scale)
            yield f"circle lambda {lam} scale {scale}, {digits} digits", cert.space, cert.lam, \
                cert.points, cert.coefficients, digits
    torus = gk.witness_for_target(gk.FlatTorus(), 10, n_max=1024, precision_digits=70)
    yield "torus image lambda 10, 70 digits", torus.space, torus.lam, torus.points, \
        torus.coefficients, 70
    for what, route, *case in _progression_cases():
        if route == "gaps":
            yield what, *case


def test_gap_route_kernel_values_are_the_exact_ones_rounded_once(monkeypatch):
    # each gap's value is exp(-lam (s arc)^2) of its exact arc rounded
    # once, formed from Gaussian rows with no exp; the form is the exact
    # sum of the exact values, rounded once
    rows = _record_gap_rows(monkeypatch)
    calls = []
    exp = precision._WIDE.exp
    monkeypatch.setattr(precision._WIDE, "exp", lambda v: calls.append(v) or exp(v))
    for what, space, lam, pts, coeffs, digits in _gap_route_cases():
        del rows[:]
        value = gk.quadratic_form(space, lam, pts, coeffs, digits)
        assert calls == [], what
        [row] = rows
        expected = _gap_kernels(space, lam, pts, digits)
        assert [v._mpf_ for v in row] == [v._mpf_ for v in expected], what
        assert _bits(value) == _bits(_exact_quadratic_form(space, lam, pts, coeffs, digits)), what


@pytest.mark.parametrize("lam, digits", [(5, 50), (20, 100)])
def test_torus_image_form_is_the_circle_form(monkeypatch, lam, digits):
    # the image (k h, 0): its second factor contributes exactly 1
    rows = _record_gap_rows(monkeypatch)
    circle = gk.circle_witness(lam, n_max=1024, precision_digits=digits)
    torus = gk.witness_for_target(gk.FlatTorus(), lam, n_max=1024, precision_digits=digits)
    assert [p for p, _ in torus.points] == list(circle.points)
    assert {q for _, q in torus.points} == {0}
    forms = [gk.quadratic_form(c.space, c.lam, c.points, c.coefficients, digits)
             for c in (circle, torus)]
    assert _bits(forms[0]) == _bits(forms[1]) == _bits(torus.quad_form)
    assert [v._mpf_ for v in rows[-2]] == [v._mpf_ for v in rows[-1]]


@pytest.mark.parametrize("digits", [70, 30])
def test_torus_image_pair_form_is_the_circle_form(monkeypatch, digits):
    # the pair route's twin of the test above: angles 2 pi k/N rounded one
    # by one lie off a progression, and the image (theta, 0) must read the
    # circle's distances, so its form is the circle form bit for bit
    rows = _record_gap_rows(monkeypatch)
    cert = _golden_cert70("circle_cert70_rounded.json")
    image = [(p, mpf(0)) for p in cert.points]
    forms = [gk.quadratic_form(space, cert.lam, pts, cert.coefficients, digits)
             for space, pts in ((cert.space, cert.points), (gk.FlatTorus(), image))]
    assert rows == []
    assert forms[0] < 0
    assert _bits(forms[0]) == _bits(forms[1])


def test_gaps_g_and_n_minus_g_merge_when_n_h_is_the_working_two_pi(monkeypatch):
    # at 48 digits the working pi has 6 trailing zero bits, so k*pi/32 is
    # exact for k < 64; the arc of gap g > 32 is then (64 - g)*pi/32
    # exactly, so gaps g and 64 - g get one value, the exact kernel rounded
    # once, though the rows count them from opposite ends; no exp is made
    loops = _count_pair_loops(monkeypatch)
    rows = _record_gap_rows(monkeypatch)
    with numeric(48) as x:
        pi = +x.pi
        assert mp.prec - pi._mpf_[3] >= 6
        points = [(63 - k) * pi / 32 for k in range(64)]
        expected = [_exact_kernel(mpf(2), 1, [min(g, 64 - g) * pi / 32]) for g in range(1, 64)]
    coeffs = [mpf((-1) ** k * (k % 5 + 1)) for k in range(64)]
    args = gk.Circle(), mpf(2), points, coeffs, 48
    calls = []
    exp = precision._WIDE.exp
    monkeypatch.setattr(precision._WIDE, "exp", lambda v: calls.append(v) or exp(v))
    assert _bits(gk.quadratic_form(*args)) == _bits(_exact_quadratic_form(*args))
    assert not loops and not calls
    [row] = rows
    assert [v._mpf_ for v in row] == [v._mpf_ for v in expected]
    assert all(row[g - 1] == row[63 - g] for g in range(1, 64))


def _refuse_pairs(*_args):
    raise AssertionError("a builder witness entered the per-pair loop")


@pytest.mark.parametrize("target", ["circle", "torus"])
@pytest.mark.parametrize("lam, digits", [(5, 50), (20, 100)])
def test_builder_witnesses_sum_by_index_gap(monkeypatch, target, lam, digits):
    monkeypatch.setattr(certificates, "combinations", _refuse_pairs)
    if target == "circle":
        cert = gk.circle_witness(lam, n_max=1024, precision_digits=digits)
    else:
        cert = gk.witness_for_target(gk.FlatTorus(), lam, n_max=1024, precision_digits=digits)
    assert gk.verify_certificate(cert).ok


def test_quadratic_form_evaluates_each_distinct_pair_once(monkeypatch):
    # one kernel exp per distinct distance: offsets d and 2*pi - d, and
    # rounded offsets whose arcs round alike, share one
    cert = _golden_cert70("circle_cert70_rounded.json")
    n = cert.order
    with numeric(70) as x:
        angles = [x.num(p) for p in cert.points]
        offsets = {angles[i] - angles[j] for i in range(n) for j in range(i + 1, n)}
        distances = {min(abs(d), 2 * x.pi - abs(d)) for d in offsets}
        args = sorted(-x.num(cert.lam) * d * d for d in distances)
    # parsed angles are rounded, so equal index gaps give many offsets
    assert n // 2 < len(distances) < len(offsets) < n * (n - 1) // 2 / 3
    calls = []
    exp = precision._WIDE.exp
    monkeypatch.setattr(precision._WIDE, "exp", lambda v: calls.append(v) or exp(v))
    value = gk.quadratic_form(cert.space, cert.lam, cert.points, cert.coefficients, 70)
    assert value < 0
    assert sorted(calls) == args


def test_quadratic_form_forms_each_torus_distance_once_per_key(monkeypatch):
    # off a progression torus keys come from one subtraction per pair and
    # factor, but the distance (one sqrt) is formed once per distinct key,
    # never once per pair
    cert = _golden_cert70()
    n = cert.order
    points = [(a, cert.points[3 * i % n]) for i, a in enumerate(cert.points)]
    with numeric(70) as x:
        pts = [(x.num(a), x.num(b)) for a, b in points]
        keys = {(p[0] - q[0], p[1] - q[1]) for i, p in enumerate(pts) for q in pts[i + 1:]}
    assert len(keys) < n * (n - 1) // 2 / 3
    calls = []
    sqrt = precision._WIDE.sqrt
    monkeypatch.setattr(precision._WIDE, "sqrt", lambda v: calls.append(v) or sqrt(v))
    gk.quadratic_form(gk.FlatTorus(), cert.lam, points, cert.coefficients, 70)
    assert 0 < len(calls) <= len(keys)


@pytest.mark.parametrize("lam, digits", [
    (0.1, 30), (1, 40), (5, 50), (10, 70), (15, 90), (20, 100),
])
def test_builder_witness_pairs_add_unit_cofactors(monkeypatch, lam, digits):
    # a builder witness's coefficients are +-1/sqrt(N): once their gcd is
    # out, every pair adds +-1, at build and at verify, and its gap sums
    # take int64
    handed = []
    pair_sums = certificates._pair_sums
    monkeypatch.setattr(certificates, "_pair_sums",
                        lambda space, lam, pts, cs, x: handed.append(cs)
                        or pair_sums(space, lam, pts, cs, x))
    cert = gk.circle_witness(lam, n_max=1024, precision_digits=digits)
    assert gk.verify_certificate(cert).ok
    assert len(handed) == 2
    assert all({abs(c) for c in cs} == {1} and len(cs) == cert.order for cs in handed)
    assert all(certificates._gap_sums(cs) == _python_gap_sums(cs) for cs in handed)


def test_json_enters_the_working_precision_once(monkeypatch):
    # one mpmath precision switch per certificate, not one per number
    cert = _golden_cert70()
    obj = gk.cert_to_json(cert)
    calls = []
    workdps = precision.mp.workdps
    monkeypatch.setattr(precision.mp, "workdps", lambda dps: calls.append(dps) or workdps(dps))
    assert gk.cert_to_json(cert) == obj
    assert gk.cert_from_json(obj) == cert
    assert calls == [70 + precision.GUARD_DIGITS] * 2


@pytest.fixture(scope="module")
def cert_lambda20():
    """The 100-digit circle certificate at lambda 20 (N = 256), as JSON."""
    return gk.cert_to_json(gk.circle_witness(20, n_max=1024, precision_digits=100))


@pytest.mark.parametrize("field, index, ok, detail", [
    ("coefficients", 0, False, "recomputed value 3.906250e-03 is not below "
                               "the certification threshold -2.560000e-90"),
    ("points", 0, True, None),
    ("points", 1, False, "recomputed value 9.355916e-05 is not below "
                         "the certification threshold -2.560000e-90"),
])
def test_verify_survives_extreme_exponents(cert_lambda20, field, index, ok, detail):
    obj = json.loads(json.dumps(cert_lambda20))
    obj[field][index] = "1e-100000"
    cert = gk.cert_from_json(obj)
    start = time.perf_counter()
    result = gk.verify_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert (result.ok, result.detail) == (ok, detail)


@pytest.mark.parametrize("target, lam, digits, parent_count", [
    ("circle", 5, 50, 881),
    ("circle", 10, 70, 2333),
    ("circle", 20, 100, 6457),
    ("torus", "0.4", 30, None),
])
def test_fresh_certificate_verifies_at_the_builders_cost(
        monkeypatch, target, lam, digits, parent_count):
    # the builder's points, coefficients, lambda and quad form read back
    # bit for bit, so the verify repeats the build's kernel work: no kernel
    # exp (parent_count is what the rounded angles once made), and a few
    # mpf_exp seeds of gap_gaussians' rows, two rows per factor and two
    # seeds per ROW_BLOCK terms of a row besides its first two
    calls, seeds = [], []
    exp, mpf_exp = precision._WIDE.exp, precision.mpf_exp
    monkeypatch.setattr(precision._WIDE, "exp", lambda v: calls.append(v) or exp(v))
    monkeypatch.setattr(precision, "mpf_exp", lambda *a: seeds.append(a) or mpf_exp(*a))
    quadratic_form = certificates.quadratic_form
    built = []

    def counted_form(*args):
        before = len(calls), len(seeds)
        value = quadratic_form(*args)
        built.append((len(calls) - before[0], len(seeds) - before[1]))
        return value

    monkeypatch.setattr(certificates, "quadratic_form", counted_form)
    if target == "circle":
        cert = gk.circle_witness(lam, n_max=1024, precision_digits=digits)
    else:
        cert = gk.witness_for_target(gk.FlatTorus(), lam, precision_digits=digits)
    back = gk.cert_from_json(json.loads(json.dumps(gk.cert_to_json(cert))))
    monkeypatch.setattr(certificates, "quadratic_form", quadratic_form)
    del calls[:], seeds[:]
    result = gk.verify_certificate(back)
    assert result.ok
    assert result.recomputed._mpf_ == result.stored._mpf_ == cert.quad_form._mpf_
    assert built == [(len(calls), len(seeds))]
    assert calls == []
    blocks = -(-(cert.order - 1) // precision.ROW_BLOCK)
    assert 0 < len(seeds) <= 2 * (2 * blocks + 2)
    if digits == 100:
        assert cert.order == 256 and len(seeds) <= 4


CERT_KEYS = {"schema_version", "space", "lambda", "points", "coefficients",
             "quad_form", "precision_digits"}


def _echoes(cert, method, num):
    """The keys that schema-1 files carried beside what the verifier reads:
    the builder's minimum eigenvalue (within its 1e-8 check of the form),
    the spectral route, and the bandwidth on the unit circle."""
    return {
        "min_eigenvalue": num(cert.quad_form),
        "method": method,
        "unit_circle_lambda": num(cert.lam * cert.space.scale ** 2),
    }


def _old_format(cert, method="circulant"):
    """The certificate's JSON with every wide number at digits + 5
    significant digits, as certificates were written before their numbers
    read back bit for bit, and with the echo keys of that time."""
    digits = cert.precision_digits
    with numeric(digits):
        old = lambda v: mp.nstr(mpf(v), digits + 5, strip_zeros=True)
        obj = gk.cert_to_json(cert)
        obj.update(
            points=[old(p) for p in cert.points],
            coefficients=[old(c) for c in cert.coefficients],
            quad_form=old(cert.quad_form),
            **_echoes(cert, method, old),
        )
    return obj


def test_old_format_certificate_still_verifies():
    cert = gk.cert_from_json(_old_format(gk.circle_witness(10, precision_digits=70)))
    assert gk.verify_certificate(cert).ok
    args = cert.space, cert.lam, cert.points, cert.coefficients, 70
    assert _bits(gk.quadratic_form(*args)) == _bits(_plain_quadratic_form(*args))


@pytest.mark.parametrize("method", ["circulant", "jacobi", "gaussian_elimination"])
def test_echo_keys_of_older_files_are_ignored(method):
    # the loader reads the certificate's own keys and nothing else, so a
    # schema-1 file verifies whatever its echoes say, the method included
    cert = _unit_witness(lam=0.4, digits=30)
    with numeric(30):
        echoes = _echoes(cert, method, lambda v: number_to_json(v, 30))
    result = gk.verify_certificate(gk.cert_from_json({**gk.cert_to_json(cert), **echoes}))
    assert result.ok
    assert result.recomputed._mpf_ == result.stored._mpf_ == cert.quad_form._mpf_
    old = _old_format(cert, method)
    bare = {k: v for k, v in old.items() if k in CERT_KEYS}
    with_echoes, without = (gk.verify_certificate(gk.cert_from_json(o)) for o in (old, bare))
    assert with_echoes.ok
    assert _bits(with_echoes.recomputed) == _bits(without.recomputed)
    assert _bits(with_echoes.stored) == _bits(without.stored)


def test_fresh_certificate_holds_only_what_the_verifier_reads():
    assert [f.name for f in dataclasses.fields(gk.WitnessCertificate)] == [
        "space", "lam", "points", "coefficients", "quad_form", "precision_digits"]
    for cert in (_unit_witness(), gk.witness_for_target(gk.FlatTorus(), "0.4"),
                 gk.witness_for_target(gk.Sphere(2), 0.1),
                 gk.probe(3, 0.01, 80, 10, seed=7).witness):
        assert set(gk.cert_to_json(cert)) == CERT_KEYS


@pytest.mark.parametrize("space, lam, tiny", [
    (gk.Circle(), "0.4", "1e-100000"),
    (gk.FlatTorus(), "0.4", "1e-100000"),
    (gk.Circle(), "0.4", "1e-130"),
    (gk.FlatTorus(), "0.4", "1e-130"),
    # a wide scale or bandwidth makes the tiny angles' distance matter
    (gk.Circle(scale=1e300), "0.4", "1e-130"),
    (gk.Circle(), "1e300", "1e-130"),
    (gk.FlatTorus(), "1e300", "1e-130"),
])
def test_angles_below_the_lift_cut_keep_the_rounded_form(space, lam, tiny):
    # tiny and 3 * tiny lie more than LIFT_SPAN precisions below 3 and lift
    # truncated; their pairs must still read the rounded angle differences
    with numeric(30):
        angles = [mpf(0), mpf(tiny), 3 * mpf(tiny), mpf(3)]
        points = angles if isinstance(space, gk.Circle) else [
            (a, b) for a, b in zip(angles, reversed(angles))]
        coeffs = [mpf("0.5"), mpf("-0.25"), mpf("0.75"), mpf("-1.5")]
    args = space, mpf(lam), points, coeffs, 30
    assert _bits(gk.quadratic_form(*args)) == _bits(_plain_quadratic_form(*args))


@pytest.mark.parametrize("beside", ["1e-400", "1e-300"])
def test_torus_keeps_first_angles_beside_a_tiny_negative_second_angle(beside):
    # the tiny negative second angle is rejected; at its mirror +1e-400 the
    # point lies beside the other tiny angles, and each pair must still read
    # its points' own first angles
    with numeric(30):
        points = [(mpf(1), mpf("-1e-400")), (mpf(2), mpf(beside)),
                  (mpf(3), mpf("2e-400")), (mpf(0), mpf(0))]
        coeffs = [mpf("0.5"), mpf("-0.25"), mpf("0.75"), mpf("-1.5")]
    with pytest.raises(gk.InvalidPointError, match="outside"):
        gk.quadratic_form(gk.FlatTorus(), mpf("0.4"), points, coeffs, 30)
    points[0] = (mpf(1), mpf("1e-400"))
    args = gk.FlatTorus(), mpf("0.4"), points, coeffs, 30
    assert _bits(gk.quadratic_form(*args)) == _bits(_plain_quadratic_form(*args))


@pytest.mark.parametrize("target", ["circle", "torus"])
def test_angle_just_below_zero_is_rejected(target, tmp_path):
    # float("-1e-400") is -0.0, so the check must read the wide angle itself
    if target == "circle":
        space, cert = gk.Circle(), _unit_witness(digits=30)
        bad = lambda p: "-1e-400"
    else:
        space, cert = gk.FlatTorus(), gk.witness_for_target(gk.FlatTorus(), "0.4")
        bad = lambda p: [p[0], "-1e-400"]
    assert cert.precision_digits == 30
    obj = gk.cert_to_json(cert)
    obj["points"][0] = bad(obj["points"][0])
    forged = gk.cert_from_json(obj)
    with pytest.raises(gk.InvalidPointError, match="outside"):
        require_valid(space, forged.points[0])
    with pytest.raises(gk.InvalidPointError, match="outside"):
        gk.quadratic_form(space, forged.lam, forged.points, forged.coefficients, 30)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify-certificate", str(path)]) == 1
    # a zero angle, float or wide, still passes
    zero = {"circle": [0.0, mpf(0)], "torus": [(0.0, mpf(0)), (mpf(0), 0.0)]}[target]
    for point in zero:
        require_valid(space, point)


@pytest.mark.parametrize("space, digits", [
    (gk.Circle(), 30), (gk.FlatTorus(), 30),
    (gk.Circle(), 17), (gk.FlatTorus(), 17), (gk.Sphere(2), 17),
], ids=["circle-30", "torus-30", "circle-17", "torus-17", "sphere-17"])
def test_form_of_no_points_is_zero(space, digits):
    assert gk.quadratic_form(space, "0.4", [], [], digits) == 0


@pytest.mark.parametrize("space, point", [
    (gk.Circle(), "1"), (gk.FlatTorus(), ("1", "2")),
], ids=["circle", "torus"])
def test_form_of_one_point_is_its_coefficient_squared(space, point):
    with numeric(30) as x:
        point = tuple(map(x.num, point)) if isinstance(point, tuple) else x.num(point)
    assert gk.quadratic_form(space, "0.4", [point], ["1"], 30) == 1


def _python_gap_sums(cs):
    return [sum(a * b for a, b in zip(cs, cs[g:])) for g in range(1, len(cs))]


def _spy_correlate(monkeypatch):
    calls = []
    correlate = np.correlate
    monkeypatch.setattr(np, "correlate", lambda *a, **k: calls.append(a) or correlate(*a, **k))
    return calls


@pytest.mark.parametrize("n", [4, 5, 16, 68, 128, 256, 1023, 1024])
def test_gap_sums_of_unit_cofactors_take_int64_and_equal_python_ints(monkeypatch, n):
    calls = _spy_correlate(monkeypatch)
    cs = [(-1) ** k for k in range(n)]
    sums = certificates._gap_sums(cs)
    assert sums == _python_gap_sums(cs) == [(-1) ** g * (n - g) for g in range(1, n)]
    assert all(type(s) is int for s in sums)
    assert len(calls) == 1


def test_gap_sums_on_either_side_of_the_int64_bound_stay_exact(monkeypatch):
    calls = _spy_correlate(monkeypatch)
    top = math.isqrt((2 ** 63 - 1) // 4)  # 4 top^2 < 2^63 <= 4 (top + 1)^2
    for c, route in ((top, 1), (top + 1, 0), (2 ** 40, 0)):
        cs = [c, -c, c, c]
        calls.clear()
        sums = certificates._gap_sums(cs)
        assert sums == _python_gap_sums(cs) and all(type(s) is int for s in sums)
        assert len(calls) == route, c
    # past the bound int64 would wrap: 3 * 2^80 is no int64
    assert certificates._gap_sums([2 ** 40] * 4)[0] == 3 * 2 ** 80


def test_build_certificate_circulant_fields():
    with mp.workdps(40):
        points = [2 * mp.pi * k / 4 for k in range(4)]
        cert = gk.build_certificate(gk.Circle(), mpf("0.1"), points, 30)
        _, report = gk.psd_decision(gk.Circle(), points, mpf("0.1"), 30)
        assert report.method == "circulant"
        assert gk.cert_to_json(cert)["schema_version"] == "1"
        assert cert.precision_digits == 30
        assert cert.order == 4
        assert abs(mp.fsum(c * c for c in cert.coefficients) - 1) < mpf("1e-25")
        assert cert.quad_form < 0
        assert abs(cert.quad_form - report.min_eigenvalue) < mpf("1e-20")


def test_build_certificate_jacobi_on_generic_points():
    # perturbed angles lose the exact-spectrum path but keep the violation
    angles = [0.0, math.pi / 2 + 0.01, math.pi, 3 * math.pi / 2 - 0.02]
    cert = gk.build_certificate(gk.Circle(), 0.1, angles, 17)
    assert gk.psd_decision(gk.Circle(), angles, 0.1, 17)[1].method == "jacobi"
    assert cert.quad_form < -1e-3
    assert gk.verify_certificate(cert).ok
    with pytest.raises(PrecisionError):
        gk.build_certificate(gk.Circle(), 0.1, angles, 30)


def test_dense_certificate_solves_its_gram_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    angles = [0.0, math.pi / 2 + 0.01, math.pi, 3 * math.pi / 2 - 0.02]
    cert = gk.build_certificate(gk.Circle(), 0.1, angles)
    assert cert.quad_form < 0
    assert len(calls) == 1


def test_certificate_takes_its_spectrum_from_psd_decision():
    angles = [0.0, math.pi / 2 + 0.01, math.pi, 3 * math.pi / 2 - 0.02]
    for points in (circle_equispaced(8), angles):
        _, report = gk.psd_decision(gk.Circle(), points, 0.1)
        cert = gk.build_certificate(gk.Circle(), 0.1, points)
        assert cert.coefficients == gk.min_eigenvector(report)
        assert abs(cert.quad_form - report.min_eigenvalue) <= 1e-8 * len(points)


def test_build_certificate_refuses_a_mode_its_form_disagrees_with():
    # a 1 % error in the eigenvalue passes both threshold checks but not
    # the agreement check against the form recomputed from the points
    with numeric(30) as x:
        points = [2 * x.pi * k / 4 for k in range(4)]
    _, report = gk.psd_decision(gk.Circle(), points, "0.1", 30)
    w, coeffs = report.min_eigenvalue, gk.min_eigenvector(report)
    assert gk.build_certificate(gk.Circle(), "0.1", points, 30, mode=(w, coeffs)).quad_form < 0
    with pytest.raises(CertificateError, match="quadratic form disagrees with the spectral value"):
        gk.build_certificate(gk.Circle(), "0.1", points, 30, mode=(w * 1.01, coeffs))


def test_build_certificate_refuses_psd_input():
    with pytest.raises(CertificateError):
        gk.build_certificate(gk.Circle(), 1.0, circle_equispaced(4), 17)


def test_build_certificate_refuses_marginal_violation():
    # locate the sign change tightly, then step just below it: the tiny
    # violation sits inside the certification margin and must be refused
    lowest = lambda lam: gk.circulant_eigenvalues(lam, 4, DOUBLE_DIGITS).min_eigenvalue
    lo, hi = 0.2469, 0.2471
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if lowest(mid) < 0:
            lo = mid
        else:
            hi = mid
    lam = lo - 1e-11
    floor = lowest(lam)
    assert -10.0 * gk.psd_tolerance(4) < floor < 0  # marginal by construction
    with pytest.raises(CertificateError):
        gk.build_certificate(gk.Circle(), lam, circle_equispaced(4), 17)


def test_refusal_shows_a_value_below_the_double_range():
    # float(-1e-400) is -0.0: the message must show the value itself
    with numeric(100) as x:
        points = [2 * x.pi * k / 4 for k in range(4)]
        mode = mpf("-1e-400"), tuple(x.num((-1) ** k) / 2 for k in range(4))
    with pytest.raises(CertificateError) as caught:
        gk.build_certificate(gk.Circle(), 1, points, 100, mode=mode)
    assert "e-400" in str(caught.value)
    assert "-0.000000e+00" not in str(caught.value)
    assert str(caught.value).startswith("minimum eigenvalue -1.000000e-400 is not below")


def test_verify_detail_shows_a_stored_value_below_the_double_range(cert_lambda20):
    obj = json.loads(json.dumps(cert_lambda20))
    obj["quad_form"] = "-1e-400"
    result = gk.verify_certificate(gk.cert_from_json(obj))
    assert not result.ok
    assert "differs from stored -1.0e-400 beyond" in result.detail


def _rectangle(lam, delta, digits, reflected=False):
    """The inscribed rectangle {0, delta, pi, pi + delta}, or its mirror
    {0, pi - delta, pi, 2 pi - delta}, at ``digits`` with the alternating
    coefficients (1, -1, 1, -1)/2 and its quadratic form."""
    with numeric(digits) as x:
        pi, delta = +x.pi, x.num(delta)
        points = [x.num(0), pi - delta, pi, 2 * pi - delta] if reflected else \
            [x.num(0), delta, pi, pi + delta]
        coeffs = tuple(x.num((-1) ** k) / 2 for k in range(4))
    return points, coeffs, gk.quadratic_form(gk.Circle(), lam, points, coeffs, digits)


def test_verify_refuses_a_reproducible_form_above_the_bar(monkeypatch, tmp_path, capsys):
    # at lambda 20, delta = 3.01 pi E (E = exp(-20 pi^2)) lies past the sign
    # change of the rectangle's form: the exact form is +2.1e-169, yet K(delta)
    # rounds to 1 at 100 digits and the form reads -4.19e-169, far above the
    # builder's bar; off a progression, the form takes the pair route
    rows = _record_gap_rows(monkeypatch)
    with numeric(100) as x:
        lam = x.num(20)
        delta = x.num("3.01") * x.pi * x.exp(-lam * x.pi ** 2)
    points, coeffs, form = _rectangle(lam, delta, 100)
    assert rows == []
    assert -4.2e-169 < form < -4.19e-169
    with mp.workdps(400):
        gram = [[mp.exp(-20 * min(abs(a - b), 2 * mp.pi - abs(a - b)) ** 2) for b in points]
                for a in points]
        assert mp.fsum(ci * cj * k for ci, row in zip(coeffs, gram) for cj, k in zip(coeffs, row)) > 0
    cert = gk.WitnessCertificate(gk.Circle(), lam, tuple(points), coeffs, form, 100)
    result = gk.verify_certificate(cert)
    assert not result.ok
    assert result.detail == ("recomputed value -4.191187e-169 is not below the certification "
                             "threshold -4.000000e-92")
    with pytest.raises(CertificateError, match="not below the certification threshold"):
        gk.build_certificate(gk.Circle(), lam, points, 100, mode=(form, coeffs))
    path = tmp_path / "rectangle.json"
    path.write_text(json.dumps(gk.cert_to_json(cert)))
    capsys.readouterr()
    assert main(["verify-certificate", str(path)]) == 1
    printed = json.loads(capsys.readouterr().out)["outputs"]
    assert printed["ok"] is False and printed["detail"] == result.detail


def test_angles_whose_float_is_two_pi_are_judged_by_their_own_value():
    # 2 pi - 1e-21 reads through float as 2 pi, yet lies inside [0, 2 pi):
    # the mirrored rectangle is valid and has the rectangle's form
    points, coeffs, form = _rectangle(1, "1e-21", 60, reflected=True)
    with numeric(60) as x:
        assert float(points[3]) == 2 * math.pi
        check_points(gk.Circle(), points)
        refused = [mpf("-1e-400"), 2 * math.pi, 2 * x.pi]
        for angle in refused:
            with pytest.raises(gk.InvalidPointError, match="outside"):
                check_points(gk.Circle(), [angle])
    _, _, plain = _rectangle(1, "1e-21", 60)
    assert form < 0 and abs(form - plain) <= 1e-12 * abs(plain)
    cert = gk.build_certificate(gk.Circle(), 1, points, 60, mode=(form, coeffs))
    assert gk.verify_certificate(cert).ok


def test_verify_certificate_ok():
    cert = _unit_witness()
    res = gk.verify_certificate(cert)
    assert res.ok
    assert res.detail is None
    assert res.recomputed == pytest.approx(float(res.stored), rel=1e-12)


def test_verify_detects_quad_tampering():
    cert = _unit_witness()
    bent = dataclasses.replace(cert, quad_form=cert.quad_form * (1 + 1e-6))
    res = gk.verify_certificate(bent)
    assert not res.ok
    flipped = dataclasses.replace(cert, quad_form=-cert.quad_form)
    res = gk.verify_certificate(flipped)
    assert not res.ok
    assert "negative" in res.detail


def test_verify_detects_coefficient_tampering():
    cert = _unit_witness()
    coeffs = list(cert.coefficients)
    coeffs[0] = coeffs[0] * 1.001
    res = gk.verify_certificate(dataclasses.replace(cert, coefficients=tuple(coeffs)))
    assert not res.ok


def test_verify_rejects_unknown_schema(tmp_path):
    # the loader refuses the file, so no unknown schema reaches the verifier
    payload = gk.cert_to_json(_unit_witness())
    payload["schema_version"] = "2"
    with pytest.raises(CertificateError, match="unknown schema version '2'"):
        gk.cert_from_json(payload)
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-certificate", str(path)]) == 1


def test_verify_rejects_invalid_points():
    sphere = gk.witness_for_target(gk.Sphere(2), 0.1)
    circle = _unit_witness(digits=30)
    torus = gk.witness_for_target(gk.FlatTorus(), "0.4")
    assert circle.precision_digits == torus.precision_digits == 30
    bad_first = (
        (sphere, sphere.points[0] * 1.01),  # off the sphere
        (circle, mpf("-0.5")),  # angle outside [0, 2*pi)
        (torus, (mpf(7), torus.points[0][1])),
    )
    for cert, bad in bad_first:
        points = (bad,) + tuple(cert.points[1:])
        with pytest.raises(gk.InvalidPointError):
            gk.verify_certificate(dataclasses.replace(cert, points=points))


def test_verify_certificate_validates_each_point_once(monkeypatch):
    # through check_points, in the pairwise distances at double precision
    # and before the exact arcs at wide precision; never once per pair
    import geokernel.spaces as sp
    from collections import Counter

    stein = gk.probe(3, 0.01, 80, 10, seed=7).witness
    angles = [0.0, math.pi / 2 + 0.01, math.pi, 3 * math.pi / 2 - 0.02]
    circle = gk.build_certificate(gk.Circle(), 0.1, angles, 17)
    wide = _unit_witness(digits=30)
    counts = Counter()
    original = sp.check_points

    def counting(space, points):
        counts.update(map(id, points))
        return original(space, points)

    monkeypatch.setattr(sp, "check_points", counting)
    for cert in (stein, circle, wide):
        counts.clear()
        assert gk.verify_certificate(cert).ok
        assert len(counts) == len({id(p) for p in cert.points})
        assert max(counts.values()) == 1


def test_cert_json_round_trip_double():
    cert = gk.circle_witness(0.1, n_max=16, precision_digits=17)
    payload = gk.cert_to_json(cert)
    text = json.dumps(payload, sort_keys=True)
    back = gk.cert_from_json(json.loads(text))
    assert back.space == cert.space
    assert back.lam == cert.lam
    assert back.quad_form == cert.quad_form
    assert back.coefficients == cert.coefficients
    assert tuple(back.points) == tuple(cert.points)
    assert gk.verify_certificate(back).ok


def test_cert_json_round_trip_wide():
    cert = _unit_witness(digits=30)
    payload = gk.cert_to_json(cert)
    assert isinstance(payload["quad_form"], str)
    assert all(isinstance(p, str) for p in payload["points"])
    back = gk.cert_from_json(json.loads(json.dumps(payload)))
    assert back.precision_digits == 30
    assert abs(back.quad_form - cert.quad_form) < mpf("1e-25")
    assert gk.verify_certificate(back).ok


def _refuse_number_parsing(monkeypatch):
    import geokernel.certificates as certificates

    def refuse(value, digits):
        raise AssertionError("parsed a number before the precision check")

    monkeypatch.setattr(certificates, "number_from_json", refuse)
    monkeypatch.setattr(gk.spaces, "number_from_json", refuse)


def test_cert_from_json_checks_precision_before_parsing(monkeypatch):
    payload = gk.cert_to_json(_unit_witness())
    payload["precision_digits"] = 10 ** 7
    _refuse_number_parsing(monkeypatch)
    with pytest.raises(PrecisionError, match="must be <= 100"):
        gk.cert_from_json(payload)


@pytest.mark.parametrize("digits", [17.9, "abc", "30", True, None])
def test_cert_from_json_rejects_non_integer_precision(digits, monkeypatch):
    payload = gk.cert_to_json(_unit_witness())
    payload["precision_digits"] = digits
    _refuse_number_parsing(monkeypatch)
    with pytest.raises(CertificateError, match="precision_digits must be an integer"):
        gk.cert_from_json(payload)


def test_cert_from_json_rejects_non_numeric_coefficient():
    payload = gk.cert_to_json(_unit_witness(digits=30))
    payload["coefficients"][1] = "minus one half"
    with pytest.raises(CertificateError, match="malformed certificate"):
        gk.cert_from_json(payload)


@pytest.mark.parametrize("space", [5, [], "circle"])
def test_cert_from_json_rejects_a_space_that_is_no_object(space):
    payload = gk.cert_to_json(_unit_witness())
    payload["space"] = space
    with pytest.raises(CertificateError, match="malformed certificate"):
        gk.cert_from_json(payload)


@pytest.mark.parametrize("top", [[], "x", 5, None])
def test_cert_from_json_rejects_a_top_level_that_is_no_object(top):
    with pytest.raises(CertificateError, match="certificate is a JSON object"):
        gk.cert_from_json(top)


@pytest.mark.parametrize("n", [2.9, True, "2"])
def test_cert_from_json_takes_only_a_json_integer_for_an_integer_field(n):
    payload = gk.cert_to_json(gk.witness_for_target(gk.Sphere(2), 0.1))
    payload["space"]["n"] = n
    with pytest.raises(CertificateError, match="malformed certificate"):
        gk.cert_from_json(payload)


def test_cert_from_json_takes_a_torus_point_as_exactly_two_angles():
    payload = gk.cert_to_json(gk.witness_for_target(gk.FlatTorus(), "0.4"))
    assert gk.verify_certificate(gk.cert_from_json(payload)).ok
    payload["points"][1] = [*payload["points"][1], "999"]
    with pytest.raises(CertificateError, match="malformed certificate"):
        gk.cert_from_json(payload)


def test_cert_from_json_refuses_a_json_boolean_as_a_number():
    payload = gk.cert_to_json(_unit_witness())
    payload["lambda"] = True
    with pytest.raises(CertificateError, match="malformed certificate.*expected a number, got True"):
        gk.cert_from_json(payload)


def test_cert_from_json_takes_points_only_as_a_list():
    # a string is no list of angles, though it iterates as one angle per character
    payload = gk.cert_to_json(_unit_witness())
    payload["points"] = "05"
    with pytest.raises(CertificateError, match="'points' must be a list, got str"):
        gk.cert_from_json(payload)


@pytest.mark.parametrize("coefficients", ["0" * 16, {"0": 1}, 0.25, None])
def test_cert_from_json_takes_coefficients_only_as_a_list(coefficients):
    # a string of N characters once loaded as N coefficients
    payload = gk.cert_to_json(gk.circle_witness(1, precision_digits=30))
    assert len(payload["coefficients"]) == 16
    payload["coefficients"] = coefficients
    with pytest.raises(CertificateError, match=re.escape(
            "malformed certificate: TypeError(\"certificate entry 'coefficients' must be "
            f"a list, got {type(coefficients).__name__}\")")):
        gk.cert_from_json(payload)


@pytest.mark.parametrize("digits", [17, 30])
@pytest.mark.parametrize("bad, detail", [
    ("abc", "could not convert string to float: 'abc'"),
    (True, "expected a number, got True"),
    ([1], ""),  # float and mpmath word it apart
])
def test_cert_from_json_names_a_malformed_coefficient_by_index(digits, bad, detail):
    payload = gk.cert_to_json(_unit_witness(digits=digits))
    payload["coefficients"][2] = bad
    with pytest.raises(CertificateError, match=re.escape(f"coefficient 2: {detail}")):
        gk.cert_from_json(payload)


def test_cert_from_json_names_a_malformed_point_by_index():
    payload = gk.cert_to_json(_unit_witness())
    payload["points"][3] = [payload["points"][3]]
    with pytest.raises(CertificateError,
                       match=re.escape("point 3 of Circle(scale=1.0): expected one angle, got a list")):
        gk.cert_from_json(payload)


def test_build_certificate_refuses_a_held_mode_whose_form_misses_the_bar():
    # the held eigenvalue clears the bar, but the form of its vector on the
    # PSD lambda = 1 Gram does not
    mode = (-1.0, (0.5, -0.5, 0.5, -0.5))
    with pytest.raises(CertificateError, match=re.escape(
            "quadratic form 8.304418e-01 is not below the certification threshold "
            "-4.000000e-09; refusing to certify")):
        gk.build_certificate(gk.Circle(), 1.0, circle_equispaced(4), 17, mode=mode)


def test_psd_decision_dispatch():
    verdict, report = gk.psd_decision(gk.Circle(), circle_equispaced(4), 0.1)
    assert report.method == "circulant"
    assert verdict.verdict == "not_psd"

    pts = sample_points(gk.Sphere(2), 6, 5)
    verdict, report = gk.psd_decision(gk.Sphere(2), pts, 0.1)
    assert report.method == "jacobi"
    assert report.order == 5

    for digits in (30, 5):  # wide is refused, out-of-range is invalid
        with pytest.raises(PrecisionError):
            gk.psd_decision(gk.Sphere(2), pts, 0.1, digits)


@pytest.mark.parametrize("digits", [None, 30])
@pytest.mark.parametrize("points, index", [(["a", "b", "c"], 0), ([0.0, None], 1)])
def test_psd_decision_names_a_circle_payload_that_is_no_number(points, index, digits):
    # no route is picked on payloads that are not numbers: the point
    # check names the first of them
    with pytest.raises(gk.InvalidPointError) as info:
        gk.psd_decision(gk.Circle(), points, 1.0, digits)
    assert str(info.value) == (
        f"point {index} of Circle(scale=1.0): circle: angle payload is not a real number"
    )


def test_psd_decision_scaled_circle():
    # the equispaced shortcut must respect the circle scale
    verdict, report = gk.psd_decision(gk.Circle(scale=2.0), circle_equispaced(4), 0.025)
    assert report.method == "circulant"
    assert verdict.verdict == "not_psd"
    verdict, _ = gk.psd_decision(gk.Circle(scale=2.0), circle_equispaced(4), 0.25)
    assert verdict.verdict != "not_psd"


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_verify_rejects_non_finite_coefficient(bad):
    obj = json.loads((GOLDEN / "circle_cert70.json").read_text())
    obj["coefficients"][3] = bad
    result = gk.verify_certificate(gk.cert_from_json(obj))
    assert (result.ok, result.detail) == (
        False, "recomputed value nan is not below the certification threshold -1.280000e-60")


@pytest.mark.parametrize("stored", ["nan", "0", "0.5"])
def test_verify_rejects_a_stored_value_that_is_not_negative(stored):
    # the recomputed form clears the bar; the stored one is refused by its sign
    obj = json.loads((GOLDEN / "circle_cert70.json").read_text())
    obj["quad_form"] = stored
    result = gk.verify_certificate(gk.cert_from_json(obj))
    assert (result.ok, result.detail) == (False, "stored value not negative")


@pytest.mark.parametrize("digits", [17, 30])
def test_verify_rejects_infinite_coefficient_at_every_precision(digits):
    # JSON's Infinity literal parses to a float at either precision
    text = json.dumps(gk.cert_to_json(gk.circle_witness(0.1, precision_digits=digits)))
    obj = json.loads(text)
    obj["coefficients"][0] = math.inf
    result = gk.verify_certificate(gk.cert_from_json(json.loads(json.dumps(obj))))
    bar = {17: "-4.000000e-09", 30: "-4.000000e-22"}[digits]
    assert (result.ok, result.detail) == (
        False, f"recomputed value nan is not below the certification threshold {bar}")
    assert math.isnan(result.recomputed)


def test_double_form_past_the_double_range_is_nan():
    cert = _unit_witness(digits=17)
    huge = tuple(1e200 * (-1) ** k for k in range(cert.order))
    result = gk.verify_certificate(dataclasses.replace(cert, coefficients=huge))
    assert (result.ok, result.detail) == (
        False, "recomputed value nan is not below the certification threshold -4.000000e-09")
