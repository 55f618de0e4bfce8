"""Partial theta sums and the analytic bound on the alternating eigenvalue.

S_r(N) = sum_{k>=0} (-1)^k exp(-mu k^2/N^2 - r k/N) is evaluated by
paired-term summation of :func:`~geokernel.precision.gaussian_row`'s
terms, which keeps the partial sums monotone and makes the first
omitted term a rigorous truncation bound.  On top of it sit
the tail-decomposition identity, the closed-form upper bound for the
alternating Fourier eigenvalue, and its leading 1/N^2 term.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import mpmath as mp

from .precision import (
    DEFAULT_DIGITS,
    DOUBLE_DIGITS,
    check_digits,
    gaussian_row,
    numeric,
    require_positive,
    working_dps,
)

# hard cap on summation length; reachable only for degenerate mu, r
MAX_TERMS = 5_000_000


class PartialThetaError(ValueError):
    pass


def require_quarter(n: int, error=PartialThetaError) -> None:
    """Refuse N, with ``error``, unless it is an integer >= 4 divisible by 4."""
    if not (isinstance(n, int) and n >= 4 and n % 4 == 0):
        raise error(f"N must be divisible by 4, got {n}")


@dataclass(frozen=True)
class PartialThetaResult:
    value: object
    terms_used: int
    truncation_bound: object


def partial_theta(mu, r, n: int, precision_digits: int = DEFAULT_DIGITS) -> PartialThetaResult:
    """Alternating sum S_r(N), paired so the truncation bound is exact.

    Terms, each the exact one rounded once, are added in pairs
    (k = 2m, 2m+1); summation stops when the next unpaired term drops
    below 10^-(digits+5), and that term is the reported truncation bound.
    The arguments are checked in the order N, digits, mu, r.
    """
    if not (isinstance(n, int) and n >= 1):
        raise PartialThetaError("N must be an integer >= 1")
    digits = check_digits(precision_digits)
    with working_dps(digits):
        mu = require_positive(mp.mpf(mu), "mu", PartialThetaError)
        r = mp.mpf(r)
        if not 0 <= r < mp.inf:
            raise PartialThetaError(f"r must be {'nonnegative' if r < 0 else 'finite'}")
        cutoff = mp.mpf(10) ** (-(digits + 5))
        terms = gaussian_row(mu, r, n)
        total = mp.mpf(0)
        for k in range(0, MAX_TERMS + 1, 2):
            head = next(terms)
            if head < cutoff:
                return PartialThetaResult(value=+total, terms_used=k, truncation_bound=+head)
            total += head - next(terms)
        raise PartialThetaError(f"series did not reach cutoff within {MAX_TERMS} terms")


@contextmanager
def _tail_split(mu, n: int, digits: int):
    """Yields (mu, S_0(N), e^{-mu/4}, e^{-mu/N^2 - mu/N}, e^{-4mu/N^2 - 2mu/N})
    at the working precision of ``digits``, N, the digits and then mu
    checked first: the tail split's terms, the last two those of k = 1, 2
    in :func:`~geokernel.precision.gaussian_row` with r = mu, each rounded
    once."""
    require_quarter(n)
    with working_dps(check_digits(digits)):
        mu = require_positive(mp.mpf(mu), "mu", PartialThetaError)
        s = partial_theta(mu, 0, n, digits).value
        yield mu, s, mp.exp(-mu / 4), *islice(gaussian_row(mu, mu, n), 1, 3)


def tail_decomposition_check(mu, n: int, precision_digits: int = DEFAULT_DIGITS):
    """Residual of the exact tail-split identity for S_0(N).

    S_0(N) = sum_{k<N/2} (-1)^k e^{-mu k^2/N^2}
             + e^{-mu/4} - e^{-mu/4} e^{-mu/N^2 - mu/N}
             + e^{-mu/4} e^{-4mu/N^2 - 2mu/N} S_{mu(1+4/N)}(N)

    The identity is pure index reshuffling, so the residual measures
    arithmetic error only; the head sum reads S_0(N)'s own terms.
    """
    with _tail_split(mu, n, precision_digits) as (mu, lhs, e4, e1, e2):
        star = mp.fsum((-1) ** k * v for k, v in zip(range(n // 2), gaussian_row(mu, 0, n)))
        tail = partial_theta(mu, mu * (1 + mp.mpf(4) / n), n, precision_digits).value
        return abs(lhs - (star + e4 - e4 * e1 + e4 * e2 * tail))


def bound_rhs(mu, n: int, precision_digits: int = DEFAULT_DIGITS):
    """Closed-form upper bound for the alternating Fourier eigenvalue:

    -1 + 2 S_0(N) + e^{-mu/4} (-1 + 2 e^{-mu/N^2 - mu/N}
                                  - 2 e^{-4mu/N^2 - 2mu/N} S_0(N))
    """
    with _tail_split(mu, n, precision_digits) as (_, s, e4, e1, e2):
        return -1 + 2 * s + e4 * (-1 + 2 * e1 - 2 * e2 * s)


def leading_term(mu, n: int, precision_digits: int = DOUBLE_DIGITS):
    """Leading 1/N^2 asymptotics of the bound: e^{-mu/4} (2mu - mu^2) / N^2.

    Negative exactly when mu > 2, i.e. lambda > 1/(2 pi^2).
    """
    if not (isinstance(n, int) and n >= 1):
        raise PartialThetaError("N must be an integer >= 1")
    with numeric(precision_digits) as x:
        m = require_positive(x.num(mu), "mu", PartialThetaError)
        return x.exp(-m / 4) * (2 * m - m * m) / (x.num(n) * n)


def mu_of_lambda(lam, precision_digits: int = DOUBLE_DIGITS):
    """mu = 4 pi^2 lambda, the bandwidth in circumference-fraction units."""
    with numeric(precision_digits) as x:
        lam = require_positive(x.num(lam), "lambda", PartialThetaError)
        return 4 * x.pi * x.pi * lam


def lambda_of_mu(mu, precision_digits: int = DOUBLE_DIGITS):
    """Inverse of mu_of_lambda."""
    with numeric(precision_digits) as x:
        mu = require_positive(x.num(mu), "mu", PartialThetaError)
        return mu / (4 * x.pi * x.pi)
