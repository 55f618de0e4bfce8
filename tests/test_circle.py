"""Equispaced circle spectra: the alternating mode, witness scan, and
the critical bandwidth profile."""

import math

import pytest
from mpmath import mp, mpf

import geokernel as gk
from geokernel.certificates import circulant_row
from geokernel.circle import CircleError, min_circulant_eigenvalue

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
    for lam, n in [(0.2, 4), (0.2, 8), (0.7, 12)]:
        row = circulant_row(lam, n)
        report = gk.circulant_eigenvalues(row)
        pos = report.fourier_indices.index(n // 2)
        assert gk.w_half(gk.mu_of_lambda(lam), n, 17) == pytest.approx(
            report.eigenvalues[pos], abs=1e-14
        )


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


def test_min_circulant_eigenvalue_matches_full_spectrum():
    row = circulant_row(0.15, 8)
    assert min_circulant_eigenvalue(0.15, 8) == gk.circulant_eigenvalues(row, 17).min_eigenvalue


def test_lambda_crit_4_closed_form():
    crit = gk.lambda_crit(4)
    assert abs(crit - LAMBDA_CRIT_4) <= 1e-7  # bisection stops at 1e-8
    # bracketing: just below is non-PSD, just above is PSD
    assert min_circulant_eigenvalue(crit - 1e-6, 4) < 0
    assert min_circulant_eigenvalue(crit + 1e-6, 4) > 0


def test_lambda_crit_nondecreasing():
    crits = [gk.lambda_crit(n) for n in (4, 8, 16, 32)]
    for lo, hi in zip(crits, crits[1:]):
        assert hi >= lo - 1e-8


def test_lambda_profile_rows():
    rows = gk.lambda_profile([4, 8])
    assert [r.n for r in rows] == [4, 8]
    for row in rows:
        assert row.lambda_crit == pytest.approx(gk.lambda_crit(row.n), abs=0)
        # at the reported critical value the floor sits at the boundary
        assert -1e-6 < row.min_eig_at_probe <= 1e-12


def test_circle_witness_unit_scale():
    cert = gk.circle_witness(0.1, n_max=64)
    assert cert is not None
    assert cert.order == 4
    assert cert.method == "circulant"
    assert cert.space == gk.Circle()
    assert cert.unit_circle_lambda == pytest.approx(0.1, abs=0)
    assert float(cert.quad_form) == pytest.approx(-0.18997962224145, abs=1e-12)
    assert gk.verify_certificate(cert).ok


def test_circle_witness_rescaled_circle():
    # doubling the radius quarters the bandwidth at equal Gram
    cert = gk.circle_witness(0.025, n_max=64, scale=2.0)
    assert cert is not None
    assert cert.space == gk.Circle(scale=2.0)
    assert cert.order == 4
    assert float(cert.unit_circle_lambda) == pytest.approx(0.1, rel=1e-15)
    assert float(cert.quad_form) == pytest.approx(-0.18997962224145, abs=1e-12)
    assert gk.verify_certificate(cert).ok


def test_circle_witness_exhausted():
    assert gk.circle_witness(1.0, n_max=12) is None


def test_circle_witness_wide_precision():
    cert = gk.circle_witness(mpf("0.1"), n_max=16, precision_digits=40)
    assert cert.precision_digits == 40
    assert isinstance(cert.quad_form, mpf)
    assert gk.verify_certificate(cert).ok
