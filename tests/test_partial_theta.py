"""Alternating partial sums, the tail split identity, and the bound."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

import geokernel as gk
from geokernel.cli import main
from geokernel.partial_theta import PartialThetaError, _tail_split, partial_theta
from geokernel.precision import PrecisionError


def _direct_sum(mu, r, n, dps, terms):
    # brute reference at elevated precision
    with mp.workdps(dps):
        mu = mpf(mu)
        r = mpf(r)
        return mp.fsum(
            (-1) ** k * mp.exp(-mu * k * k / n ** 2 - r * k / n)
            for k in range(terms)
        )


def test_query_validation():
    with pytest.raises(PartialThetaError, match="^N must be an integer >= 1$"):
        partial_theta(1.0, 0.0, 0)
    with pytest.raises(PartialThetaError, match="^N must be an integer >= 1$"):
        partial_theta(1.0, 0.0, 2.5)
    with pytest.raises(PrecisionError, match="^precision_digits must be <= "):
        partial_theta(1.0, 0.0, 4, precision_digits=1000)
    # N is checked first, then the digits, then mu, then r
    with pytest.raises(PartialThetaError, match="^N must be an integer >= 1$"):
        partial_theta("inf", 0.0, 0)
    with pytest.raises(PrecisionError, match="^precision_digits must be <= "):
        partial_theta("inf", 0.0, 4, precision_digits=1000)
    with pytest.raises(PartialThetaError, match="^mu must be positive$"):
        partial_theta("inf", -1, 4)
    with pytest.raises(PartialThetaError, match="^r must be nonnegative$"):
        partial_theta(1.0, -1, 4)


@pytest.mark.parametrize("check", [gk.bound_rhs, gk.tail_decomposition_check],
                         ids=["bound_rhs", "tail_decomposition_check"])
@pytest.mark.parametrize("digits, message", [
    (None, "an integer, got None"), ("30", "an integer, got '30'"), (16, ">= 17, got 16"),
])
def test_tail_split_checks_n_then_digits_then_mu(check, digits, message):
    with pytest.raises(PartialThetaError, match="^N must be divisible by 4, got 6$"):
        check("inf", 6, digits)
    with pytest.raises(PrecisionError, match=f"^precision_digits must be {message}$"):
        check("inf", 8, digits)
    with pytest.raises(PartialThetaError, match="^mu must be positive$"):
        check("inf", 8, 30)


def test_infinite_r_is_refused():
    # exp(-r k/N) is 0 past k = 0 and exp(nan) at it; nan is no finite r either
    for digits in (17, 30):
        for r in ("inf", "nan"):
            with pytest.raises(PartialThetaError, match="^r must be finite$"):
                partial_theta(1.0, r, 4, digits)
    assert main(["theta", "--mu", "1", "--r", "inf", "--n", "4"]) == 1


def test_value_matches_direct_summation():
    for mu, r, n in [(1.0, 0.0, 4), (10.0, 1.0, 8), (40.0, 0.1, 128), (2.5, 100.0, 12)]:
        res = partial_theta(mu, r, n, 30)
        ref = _direct_sum(mu, r, n, 60, 20 * res.terms_used + 50)
        assert abs(res.value - ref) <= mpf("1e-30")


def test_truncation_bound_is_honest():
    res = partial_theta(3.0, 0.0, 16, 30)
    ref = _direct_sum(3.0, 0.0, 16, 60, 20 * res.terms_used + 50)
    assert abs(res.value - ref) <= res.truncation_bound
    assert res.truncation_bound < mpf("1e-35")  # cutoff is digits + 5


def test_value_stable_across_precision():
    lo = partial_theta(3.0, 0.5, 12, 30)
    hi = partial_theta(3.0, 0.5, 12, 50)
    assert abs(lo.value - hi.value) <= mpf("1e-28")


def test_damped_sums_dominate_undamped():
    # the r-damped sum never drops below the r = 0 sum
    for mu in (1.0, 40.0):
        for n in (4, 64):
            base = partial_theta(mu, 0, n, 30).value
            for r in (0.1, 1.0, 10.0, 100.0):
                res = partial_theta(mu, r, n, 30)
                assert res.value >= base - mpf("1e-28")


def test_tail_decomposition_identity():
    rng = np.random.default_rng(17)
    for _ in range(8):
        mu = float(rng.uniform(0.5, 50.0))
        n = int(4 * rng.integers(1, 33))
        residual = gk.tail_decomposition_check(mu, n, 40)
        assert residual <= mpf("1e-35")


def test_tail_decomposition_needs_quarter_order():
    with pytest.raises(PartialThetaError):
        gk.tail_decomposition_check(1.0, 6, 30)


def test_w_half_never_exceeds_bound():
    for mu in (1.0, 10.0, 40.0):
        for n in (4, 8, 20):
            w = gk.w_half(mu, n, 30)
            b = gk.bound_rhs(mu, n, 30)
            assert w <= b + mpf("1e-28")


def test_leading_term_closed_form_and_sign():
    for mu, n in [(1.0, 8), (3.0, 16), (2.0, 4)]:
        expect = math.exp(-mu / 4.0) * (2.0 * mu - mu * mu) / n ** 2
        assert gk.leading_term(mu, n) == pytest.approx(expect, rel=1e-15, abs=1e-300)
    assert gk.leading_term(2.0, 8) == 0.0
    assert gk.leading_term(1.9, 8) > 0.0
    assert gk.leading_term(2.1, 8) < 0.0
    wide = gk.leading_term(mpf(3), 16, 30)
    assert abs(float(wide) - gk.leading_term(3.0, 16)) <= 1e-16


def test_bringmann_coefficient_against_derivatives():
    # the 2a-th scaled derivative of 1/(1 + e^{2 pi i u}) at u = 0 is 1/2
    # for a = 0; the odd tangent part kills every order above zero
    with mp.workdps(60):
        h = lambda u: 1 / (1 + mp.e ** (2j * mp.pi * u))
        for a in range(4):
            numeric = mp.diff(h, 0, 2 * a) * (-1) ** a / (2 * mp.pi) ** (2 * a)
            assert abs(numeric.real - (0.5 if a == 0 else 0)) < mpf("1e-40")
            assert abs(numeric.imag) < mpf("1e-40")


def test_mu_lambda_maps_are_inverse():
    for lam in (0.01, 0.1, 1.0, 3.7):
        assert gk.lambda_of_mu(gk.mu_of_lambda(lam)) == pytest.approx(lam, rel=1e-15)
    # the sign threshold mu = 2 sits at lambda = 1/(2 pi^2)
    assert gk.lambda_of_mu(2.0) == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-15)


def test_non_finite_parameters_rejected_at_every_precision():
    for digits in (17, 30):
        for bad in ("inf", "-inf", "nan", "0", "-1"):
            with pytest.raises(PartialThetaError):
                gk.mu_of_lambda(bad, digits)
            with pytest.raises(PartialThetaError):
                gk.lambda_of_mu(bad, digits)
            with pytest.raises(PartialThetaError):
                gk.leading_term(bad, 8, digits)
    with pytest.raises(PartialThetaError):
        partial_theta("inf", 0, 4)
    with pytest.raises(PartialThetaError):
        gk.bound_rhs("inf", 8, 30)


def test_tail_factors_are_the_exact_exps_rounded_once():
    # e^{-mu/N^2 - mu/N} and e^{-4mu/N^2 - 2mu/N} in bound_rhs and the tail
    # identity; mp.exp of the rounded arguments missed 92 of these 300
    for digits in (30, 60, 100):
        for mu in ("0.5", "2", "20", "78.95683520871486", "789.5683520871486"):
            for n in (4, 8, 12, 16, 20, 32, 36, 64, 128, 256):
                with _tail_split(mu, n, digits) as (mu_, _, _, *factors):
                    with mp.workprec(mp.prec + 200):
                        ref = [mp.exp(-k * k * mu_ / (n * n) - k * mu_ / n) for k in (1, 2)]
                    assert [v._mpf_ for v in factors] == [(+v)._mpf_ for v in ref], (digits, mu, n)
