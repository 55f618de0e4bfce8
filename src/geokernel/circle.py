"""Alternating-eigenvalue machinery for equispaced points on the circle.

For N equispaced points the Gram is circulant and the j = N/2 eigenvalue
collapses to a short alternating sum.  That sum goes negative for some
finite N at every bandwidth, which is what the witness search exploits;
lambda_crit profiles, per N, where the whole spectrum turns PSD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import spaces as sp
from .certificates import WitnessCertificate, build_certificate, circulant_row
from .partial_theta import _require_quarter, mu_of_lambda
from .precision import DOUBLE_DIGITS, numeric, require_positive, resolve_digits
from .spectral import circulant_eigenvalues

LAMBDA_CRIT_TOL = 1e-8
BRACKET_DOUBLINGS = 60


class CircleError(ValueError):
    pass


def w_half(mu, n: int, precision_digits: int = 30):
    """The alternating Fourier eigenvalue of the equispaced-circle Gram:

    w_{N/2} = -1 + 2 sum_{k<N/2} (-1)^k exp(-mu k^2/N^2) + exp(-mu/4)

    Compensated summation at double precision, mpmath above it.
    """
    _require_quarter(n, CircleError)
    with numeric(precision_digits) as x:
        m = require_positive(x.num(mu), "mu", CircleError)
        nn = x.num(n) * n
        terms = [x.num(-1), x.exp(-m / 4)]
        terms += [2 * (-1) ** k * x.exp(-m * k * k / nn) for k in range(n // 2)]
        return x.fsum(terms)


def find_witness_size(lam, n_max: int, precision_digits: int = 30):
    """Scan N = 4, 8, 12, ... <= n_max for the first clearly negative
    alternating eigenvalue at bandwidth lambda.

    Returns (N, w value) or None when the scan is exhausted; the bar is
    w < -10^(-digits+5) so rounding noise can never be mistaken for a
    witness.
    """
    if n_max < 4:
        raise CircleError("n_max must be at least 4")
    digits = precision_digits
    mu = mu_of_lambda(lam, digits)
    with numeric(digits) as x:
        threshold = -(x.num(10) ** (-digits + 5))
    for n in range(4, n_max + 1, 4):
        w = w_half(mu, n, digits)
        if w < threshold:
            return n, w
    return None


def min_circulant_eigenvalue(lam, n: int, precision_digits: int = DOUBLE_DIGITS):
    """Most negative eigenvalue over all N Fourier indices."""
    row = circulant_row(lam, n, precision_digits)
    return circulant_eigenvalues(row, precision_digits).min_eigenvalue


def lambda_crit(n: int, precision_digits: int = DOUBLE_DIGITS) -> float:
    """Supremum of the non-PSD bandwidth region for N equispaced points.

    Bisection on the predicate min_j w_j < 0 over the full spectrum (at
    small lambda the most negative mode need not be j = N/2), bracket
    grown by doubling from 1e-6, absolute tolerance 1e-8.
    """
    _require_quarter(n, CircleError)
    digits = precision_digits

    def not_psd(lam: float) -> bool:
        return min_circulant_eigenvalue(lam, n, digits) < 0

    lo = 1e-6
    if not not_psd(lo):
        raise CircleError(
            f"kernel already PSD at lambda={lo}; no bracket below the probe floor"
        )
    hi = lo
    for _ in range(BRACKET_DOUBLINGS):
        hi *= 2.0
        if not not_psd(hi):
            break
    else:
        raise CircleError(
            f"kernel still not PSD at lambda={hi} after {BRACKET_DOUBLINGS} "
            "doublings; giving up on the bracket"
        )
    lo = hi / 2.0
    while hi - lo > LAMBDA_CRIT_TOL:
        mid = 0.5 * (lo + hi)
        if not_psd(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ProfileRow:
    n: int
    lambda_crit: float
    min_eig_at_probe: float


def lambda_profile(n_list, precision_digits: int = DOUBLE_DIGITS) -> list[ProfileRow]:
    """Per-N critical bandwidths with the spectrum floor at each probe."""
    rows = []
    for n in n_list:
        crit = lambda_crit(n, precision_digits)
        floor = float(min_circulant_eigenvalue(crit, n, precision_digits))
        rows.append(ProfileRow(n=n, lambda_crit=crit, min_eig_at_probe=floor))
    return rows


def circle_witness(
    lam,
    n_max: int = 512,
    precision_digits: int | None = None,
    scale: float = 1.0,
) -> WitnessCertificate | None:
    """Witness certificate on Circle{scale} at bandwidth lambda, or None.

    The scan runs on the unit-circle equivalent lambda*scale^2 (scaling
    the circle by s multiplies every distance by s), then the
    certificate is built on the scaled circle itself; the equivalent is
    recorded on the certificate for bookkeeping.
    """
    digits = resolve_digits(precision_digits)
    with numeric(digits) as x:
        lam_unit = x.num(lam) * x.num(scale) ** 2
    hit = find_witness_size(lam_unit, n_max, digits)
    if hit is None:
        return None
    n, _ = hit
    with numeric(digits) as x:
        points = [2 * x.pi * k / n for k in range(n)]
    space = sp.Circle(scale=float(scale))
    cert = build_certificate(space, lam, points, digits)
    return replace(cert, unit_circle_lambda=lam_unit)
