"""Equispaced circle spectra: the alternating mode, witness scan, and
the critical bandwidth profile."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import geokernel as gk
from geokernel import circle, precision
from geokernel.circle import CircleError
from geokernel.gram import gram
from geokernel.precision import DOUBLE_DIGITS, numeric
from geokernel.spectral import psd_tolerance

# root of a^3 + a^2 + a = 1 pushed through lambda = -4 ln(a) / pi^2
LAMBDA_CRIT_4 = 0.2469715456351


def test_w_half_closed_form_n4():
    lam = 0.1
    mu = gk.mu_of_lambda(lam)
    a = math.exp(-lam * math.pi ** 2 / 4.0)
    closed = 1.0 - 2.0 * a + a ** 4
    assert gk.w_half(mu, 4, 17) == pytest.approx(closed, abs=1e-15)
    with mp.workdps(50):
        wide = gk.w_half(gk.mu_of_lambda(mpf("0.1"), 40), 4, 40)
        assert abs(wide - mpf("-0.18997962224145058659")) < mpf("1e-18")


def test_w_half_is_the_alternating_fourier_mode():
    # w_half sums the circulant row itself, so it is circle-spectrum's
    # w_{N/2} to the last bit at every precision
    rng = random.Random(1)
    draws = [(10 ** rng.uniform(-2, 1.3), 4 * rng.randint(1, 64),
              rng.choice([17, 20, 30, 40, 60, 100])) for _ in range(300)]
    for lam, n, digits in [(0.2, 4, 17), (0.2, 8, 17), (0.7, 12, 17)] + draws:
        report = gk.circulant_eigenvalues(lam, n, digits)
        spectrum = dict(zip(report.fourier_indices, report.eigenvalues))[n // 2]
        w = gk.w_half(gk.mu_of_lambda(lam, digits), n, digits)
        assert _bitwise((n, w)) == _bitwise((n, spectrum)), (lam, n, digits)


def test_w_half_requires_quarter_order():
    for n in (2, 6, 7):
        with pytest.raises(CircleError):
            gk.w_half(1.0, n)


def test_w_half_rejects_non_finite_mu_at_every_precision():
    for digits in (17, 30):
        for bad in ("inf", "nan", "0"):
            with pytest.raises(CircleError):
                gk.w_half(bad, 8, digits)


def test_find_witness_size_small_lambda():
    n, w = gk.find_witness_size(0.1, 64, 17)
    assert n == 4
    assert w == pytest.approx(-0.18997962224145, abs=1e-12)


def test_find_witness_size_lambda_one():
    hit = gk.find_witness_size(mpf(1), 64, 40)
    assert hit is not None
    n, w = hit
    assert n == 16 and n % 4 == 0
    assert abs(w - mpf("-4.35744544194376e-5")) < mpf("1e-13")
    # every smaller admissible size is clean at this bandwidth
    for m in (4, 8, 12):
        assert gk.w_half(gk.mu_of_lambda(mpf(1), 40), m, 40) > 0
    assert gk.find_witness_size(mpf(1), 12, 40) is None


def _floor(lam, n):
    """The double spectrum's minimum, the predicate lambda_crit bisects."""
    return gk.circulant_eigenvalues(lam, n, DOUBLE_DIGITS).min_eigenvalue


def test_double_spectrum_floor_matches_the_dense_floor():
    points = gk.circle_equispaced(8)
    dense = gk.jacobi_eigenvalues(gram(gk.Circle(), points, 0.15).entries)
    assert _floor(0.15, 8) == pytest.approx(dense.min_eigenvalue, abs=1e-12)


def test_lambda_crit_4_closed_form():
    crit = gk.lambda_crit(4)
    assert abs(crit - LAMBDA_CRIT_4) <= 1e-7  # bisection stops at 1e-8
    # bracketing: just below is non-PSD, just above is PSD
    assert _floor(crit - 1e-6, 4) < 0
    assert _floor(crit + 1e-6, 4) > 0


def test_lambda_crit_nondecreasing():
    crits = [gk.lambda_crit(n) for n in (4, 8, 16, 32)]
    for lo, hi in zip(crits, crits[1:]):
        assert hi >= lo - 1e-8


def test_lambda_profile_rows():
    for n in (4, 8):
        # at the reported critical value the floor sits at the boundary
        assert -1e-6 < _floor(gk.lambda_crit(n), n) <= 1e-12


@pytest.mark.parametrize("n", [
    4, 8, 16, 32,
    # the double spectrum's floor is rounding noise at these N, so the
    # bisection lands far above the crossings near 4.9493 and 10.0243
    pytest.param(64, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
    pytest.param(128, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
])
def test_lambda_crit_separates_the_wide_verdicts(n):
    # the definition, read from the exact spectrum: not PSD just below
    # lambda_crit(N), positive definite just above
    crit, digits = gk.lambda_crit(n), 30 + n // 4

    def verdict(lam):
        return gk.pd_verdict(gk.circulant_eigenvalues(lam, n, digits)).verdict

    assert verdict(0.9999 * crit) == "not_psd"
    assert verdict(1.0001 * crit) == "positive_definite"


def test_circle_witness_unit_scale():
    cert = gk.circle_witness(0.1, n_max=64)
    assert cert is not None
    assert cert.order == 4
    assert gk.spaces.equispaced_order(cert.points) == cert.order  # the circulant route
    assert cert.space == gk.Circle()
    assert cert.lam == pytest.approx(0.1, abs=0)
    assert float(cert.quad_form) == pytest.approx(-0.18997962224145, abs=1e-12)
    assert gk.verify_certificate(cert).ok


def test_circle_witness_rescaled_circle():
    # doubling the radius quarters the bandwidth at equal Gram
    cert = gk.circle_witness(0.025, n_max=64, scale=2.0)
    assert cert is not None
    assert cert.space == gk.Circle(scale=2.0)
    assert cert.order == 4
    assert float(cert.lam * cert.space.scale ** 2) == pytest.approx(0.1, rel=1e-15)
    assert float(cert.quad_form) == pytest.approx(-0.18997962224145, abs=1e-12)
    assert gk.verify_certificate(cert).ok


def test_circle_witness_exhausted():
    assert gk.circle_witness(1.0, n_max=12) is None


def test_circle_witness_wide_precision():
    cert = gk.circle_witness(mpf("0.1"), n_max=16, precision_digits=40)
    assert cert.precision_digits == 40
    assert isinstance(cert.quad_form, mpf)
    assert gk.verify_certificate(cert).ok


def _plain_scan(lam, n_max, digits):
    """The witness scan with every N decided by the wide w_half."""
    mu = gk.mu_of_lambda(lam, digits)
    with numeric(digits) as x:
        threshold = -(x.num(10) ** (-digits + 5))
    for n in range(4, n_max + 1, 4):
        w = gk.w_half(mu, n, digits)
        if w < threshold:
            return n, w
    return None


def _bitwise(hit):
    if hit is None:
        return None
    n, w = hit
    return n, type(w), w._mpf_ if isinstance(w, mpf) else w.hex()


def _count_w_half(monkeypatch):
    calls = []
    real = circle.w_half
    monkeypatch.setattr(circle, "w_half", lambda *a: calls.append(a[1]) or real(*a))
    return calls


@pytest.mark.parametrize("digits", [17, 30, 40, 70, 100])
def test_screened_scan_is_the_plain_scan(digits):
    # N = 320 covers every hit of the grid
    n_max = 1024 if digits == 17 else 320
    for lam in ("0.01", "0.1", "0.3", "1", "2", "5", "10", "15", "20", "50"):
        with mp.workdps(digits + 10):
            lam = mpf(lam)
        assert _bitwise(gk.find_witness_size(lam, n_max, digits)) == \
            _bitwise(_plain_scan(lam, n_max, digits)), (lam, digits)


def test_screen_defers_when_the_tail_needs_more_than_n_over_2_terms():
    mu = float(gk.mu_of_lambda(1e-4))
    for n in (4, 64, 1024):
        assert circle._scaled_tail(mu, n) is None
        assert not circle._screen_clears(mu, n, -25 * math.log(10))
    assert _bitwise(gk.find_witness_size(mpf("1e-4"), 64, 30)) == \
        _bitwise(_plain_scan(mpf("1e-4"), 64, 30))


def test_screened_scan_near_the_threshold(monkeypatch):
    # bisect lambda until the first negative w_half sits at the bar
    digits, n_max = 30, 128
    with mp.workdps(digits + 10):
        lo, hi = mpf(5), mpf(7)
        while hi - lo > mpf("1e-30"):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _plain_scan(mid, n_max, digits) else (lo, mid)
        n, w = _plain_scan(lo, n_max, digits)
        assert abs(w / -mpf(10) ** -(digits - 5) - 1) < mpf("0.01")
        assert _plain_scan(hi, n_max, digits) is None
        calls = _count_w_half(monkeypatch)
        for lam in (lo, hi):
            assert _bitwise(gk.find_witness_size(lam, n_max, digits)) == \
                _bitwise(_plain_scan(lam, n_max, digits))
        # inside the screen's band, so both sides went to w_half at N
        assert calls.count(n) == 2


def test_screened_scan_calls_w_half_only_where_undecided(monkeypatch):
    calls = _count_w_half(monkeypatch)
    assert gk.find_witness_size(10, 512, 30) is None  # the default exhaust
    assert calls == []
    hit = gk.find_witness_size(20, 1024, 100)
    assert hit[0] == 256
    assert 1 <= len(calls) <= 2
    # 17 digits is screened too: an exhausting scan below N = 1,124
    for lam in (5, 10, 20):
        calls.clear()
        hit = gk.find_witness_size(lam, 1024, 17)
        assert calls == []
        assert hit is None and _plain_scan(lam, 1024, 17) is None


@pytest.mark.parametrize("lam, n", [
    (2, 4), (2, 28), (2, 64), (5, 8), (5, 68), (5, 72), (10, 12), (10, 128),
    (20, 8), (20, 12), (20, 248), (20, 256), (20, 300),
])
def test_screen_matches_the_scaled_alternating_eigenvalue(lam, n):
    # 60 digits resolve w_{N/2} ~ e^{-mu/4} up to lambda 10; 100 beyond
    digits = 60 if lam <= 10 else 100
    with mp.workdps(digits + 10):
        mu = gk.mu_of_lambda(mpf(lam), digits)
        scaled = float(gk.w_half(mu, n, digits) * mp.exp(mu / 4))
    log_p, err_p = circle._log_scaled_theta(float(mu), n)
    t, err_t = circle._scaled_tail(float(mu), n)
    s = math.exp(log_p) + t
    assert abs(s / scaled - 1) < 1e-9
    # and the screen's error budget covers the true value
    assert abs(s - scaled) <= math.exp(log_p) * 2 * err_p + err_t


# N = 2048 and 4096 deviate by 1.2e-12 and 3.0e-12 at 17 digits, past a
# flat 1e-12 and within the tolerance of equispaced_order
@pytest.mark.parametrize("n, digits", [(n, digits) for n in (4, 16, 28, 68, 256, 1024)
                                       for digits in (17, 30, 100)] + [(2048, 17), (4096, 17)])
def test_witness_points_are_an_exact_progression(n, digits):
    # every angle is k * h exactly, h = points[1], and within 4N units of
    # 2^-p * 2 pi of 2 pi k / N (h is off by under (1 + 2^-b) 2^{e+b-p},
    # with 2^b <= 2(N - 1) and 2^e <= 2h); the set is still the equispaced
    # family
    with numeric(digits) as x:
        points = circle._progression(n, x)
        if digits <= DOUBLE_DIGITS:
            h, prec = Fraction(points[1]), 53
            assert all(Fraction(p) == k * h for k, p in enumerate(points))
        else:
            prec = mp.prec
            with mp.workprec(prec + 200):  # k * h is exact up here
                assert all(p == k * points[1] for k, p in enumerate(points))
        with mp.workprec(prec + 200):
            bound = 4 * n * 2 * mp.pi * mpf(2) ** -prec
            assert all(abs(mpf(p) - 2 * mp.pi * k / n) <= bound for k, p in enumerate(points))
    assert 0 == points[0] < points[1] and points[-1] < 2 * math.pi
    assert gk.spaces.equispaced_order(points) == n


@pytest.mark.parametrize("lam, digits", [(5, 50), (10, 70), (20, 100)])
def test_wide_witness_form_has_one_distance_per_index_gap(monkeypatch, lam, digits):
    # the circle_wide rows: N - 1 exact offsets g * h and N - 1 distinct
    # distances, whose N - 1 kernel values the verify forms from Gaussian
    # rows, with no kernel exp
    cert = gk.circle_witness(lam, n_max=1024, precision_digits=digits)
    n = cert.order
    with numeric(digits) as x:
        angles = [x.num(p) for p in cert.points]
        assert all(a == k * angles[1] for k, a in enumerate(angles))
        offsets = {a - b for i, a in enumerate(angles) for b in angles[i + 1:]}
        distances = {min(abs(d), 2 * x.pi - abs(d)) for d in offsets}
        w = gk.w_half(gk.mu_of_lambda(lam, digits), n, digits)
    assert len(offsets) == len(distances) == n - 1
    assert abs(cert.quad_form - w) <= psd_tolerance(n, digits)
    calls = []
    exp = precision._WIDE.exp
    monkeypatch.setattr(precision._WIDE, "exp", lambda v: calls.append(v) or exp(v))
    assert gk.verify_certificate(cert).ok
    assert calls == []
