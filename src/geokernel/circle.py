"""Alternating-eigenvalue machinery for equispaced points on the circle.

For N equispaced points the Gram is circulant and the j = N/2 eigenvalue
collapses to a short alternating sum of the kernel row
(:func:`~geokernel.spectral.equispaced_half_row`).  That sum goes
negative for some finite N at every bandwidth, which the witness search
finds (deciding most N with a double-precision screen of the same sum)
and certifies as it is, mode and value, on the points k*h of an exact
progression (h is 2*pi/N cut to p - bitlen(N - 1) bits), so the
certificate's quadratic form sees one exact arc per index gap g and
forms its N - 1 kernel values from Gaussian rows, with no ``exp`` per
gap; lambda_crit profiles, per N,
where the whole spectrum (:func:`~geokernel.spectral.circulant_eigenvalues`
of lambda and N) turns PSD.
"""

from __future__ import annotations

import math

from . import spaces as sp
from .certificates import WitnessCertificate, build_certificate
from .partial_theta import mu_of_lambda, require_quarter
from .precision import DEFAULT_DIGITS, DOUBLE_DIGITS, numeric, require_positive, resolve_digits
from .spectral import circulant_eigenvalues, equispaced_half_row

# the largest N a witness scan tries unless told otherwise
DEFAULT_MAX_N = 512
LAMBDA_CRIT_TOL = 1e-8
BRACKET_DOUBLINGS = 60

# unit roundoff of an IEEE double
ULP = 2.0 ** -53
# terms of the Jacobi theta form; the first omitted one is below e^{-30 pi}
THETA_TERMS = 6
# the screen's band around the search threshold, in natural-log units,
# on top of its rounding budget
SCREEN_MARGIN = 1e-9


class CircleError(ValueError):
    pass


def w_half(mu, n: int, precision_digits: int = DEFAULT_DIGITS):
    """The alternating Fourier eigenvalue of the equispaced-circle Gram:

    w_{N/2} = -1 + 2 sum_{k<N/2} (-1)^k exp(-mu k^2/N^2) + exp(-mu/4)

    It is the signed sum of the circulant row, row[0] + row[N/2] +
    2 sum_{0<k<N/2} (-1)^k row[k], rounded once, so it is the circulant
    spectrum's w_{N/2} bit for bit.
    """
    require_quarter(n, CircleError)
    with numeric(precision_digits) as x:
        row = equispaced_half_row(require_positive(x.num(mu), "mu", CircleError), n, x)
        return x.fsum([row[0], row[-1]] + [2 * (-1) ** k * row[k] for k in range(1, n // 2)])


def find_witness_size(lam, n_max: int, precision_digits: int = DEFAULT_DIGITS):
    """Scan N = 4, 8, 12, ... <= n_max for the first clearly negative
    alternating eigenvalue at bandwidth lambda.

    Returns (N, w value) or None when the scan is exhausted; the bar is
    w < -10^(-digits+5) so rounding noise can never be mistaken for a
    witness.

    At every precision a double screen (:func:`_screen_clears`) skips
    each N at which it proves that ``w_half`` cannot fall below the bar;
    every other N, the hit included, is decided by ``w_half`` itself, so
    the result is bitwise that of the plain scan.  ``w_half``'s rounding
    is bounded by E_w = 16 (N/2 + 2) u, u the unit roundoff (2^-53 for
    doubles, 2^-prec above): a double row value rounds twice in its
    exponent a = mu k^2/N^2 (moving it by 2u a e^{-a} < u) and once in
    ``exp``, and a wide one is within (1 + 2^-45) u
    (:func:`~geokernel.precision.gaussian_row`), so each of the N/2 + 1
    terms is off by less than 4u, and the sum rounds once more.  Where E_w
    reaches the bar (at 17 digits, N >= 1,124) the screen defers.
    """
    if n_max < 4:
        raise CircleError("n_max must be at least 4")
    digits = precision_digits
    mu = mu_of_lambda(lam, digits)
    with numeric(digits) as x:
        threshold = -(x.num(10) ** (-digits + 5))
        u = x.eps / 2  # the unit roundoff
        rel_term = float(16 * u / -threshold)  # E_w / |bar| per term
    mu_f = float(mu)
    screen = 0 < mu_f < math.inf
    for n in range(4, n_max + 1, 4):
        rel = (n // 2 + 2) * rel_term  # E_w / |bar|
        if screen and rel < 1 and _screen_clears(
                mu_f, n, -(digits - 5) * math.log(10) + math.log1p(-rel)):
            continue
        w = w_half(mu, n, digits)
        if w < threshold:
            return n, w
    return None


def _screen_clears(mu: float, n: int, log_bar: float) -> bool:
    """True when double precision proves w_{N/2}(mu) > -e^{log_bar}.

    For 4 | N, w_{N/2} = e^{-mu/4} s with s = theta e^{mu/4} + T (see
    :func:`_log_scaled_theta` and :func:`_scaled_tail`), and T >= -1.
    A lower bound on s, with every rounding of the double evaluation and
    of ``float(mu)`` in its error budget, decides in logs, since
    e^{mu/4} overflows a double above lambda ~ 72.  Anything within
    SCREEN_MARGIN of the bar, or a tail longer than N/2 terms, is left
    undecided (False).
    """
    # mu >= pi N^2 decides at once: there theta >= 1 - 2e^{-pi} > 0.91
    # and e^{mu/4} >= e^{4 pi} (N >= 4), so s > 0.91 e^{4 pi} - 1 > 0 with
    # room for any rounding of float(mu); so w_{N/2} > 0, and since the
    # screen runs only where E_w < |bar|, the computed w_half cannot fall
    # below the bar.  Below it, a = mu/N^2 < pi and theta takes the Jacobi form.
    if mu >= math.pi * n * n:
        return True
    slack = SCREEN_MARGIN + 8 * ULP * (mu / 4 + abs(log_bar))

    def above_bar(s_lo: float) -> bool:
        # float(mu) is within ULP * mu of mu, so mu/4 is at least this
        return s_lo >= 0 or math.log(-s_lo) - mu / 4 * (1 - 2 * ULP) < log_bar - slack

    log_p, err_p = _log_scaled_theta(mu, n)
    # theta e^{mu/4} > 2 > |T|, or e^{-mu/4} alone is under the bar
    if log_p - err_p > math.log(2) or above_bar(-1.0):
        return True
    tail = _scaled_tail(mu, n)
    if tail is None:
        return False
    t, err_t = tail
    return above_bar(max(-1.0, math.exp(log_p - err_p) + t - err_t - 16 * ULP))


def _log_scaled_theta(mu: float, n: int) -> tuple[float, float]:
    """(ln(theta e^{mu/4}), error bound) in double, for
    theta = sum_{k in Z} (-1)^k e^{-a k^2} with a = mu/N^2 < pi.

    Through the Jacobi transformation theta = 2N sqrt(pi/mu) e^{-c/4}
    sum_{m>=0} e^{-c m(m+1)} with c = pi^2 N^2/mu > pi, whose THETA_TERMS
    terms leave a truncation far below a double's rounding.  The bound
    covers the rounding of each piece and the error of ``float(mu)``,
    which moves the log by about (mu/4 + c/4) ULP.
    """
    c = (math.pi * n) ** 2 / mu
    head = math.log(2 * n) + 0.5 * math.log(math.pi / mu)
    series = math.fsum(math.exp(-c * m * (m + 1)) for m in range(1, THETA_TERMS))
    log_theta = head - c / 4 + math.log1p(series)
    return mu / 4 + log_theta, 32 * ULP * (mu / 4 + (abs(head) + c / 4) + 4)


def _scaled_tail(mu: float, n: int) -> tuple[float, float] | None:
    """(T, error bound) in double for
    T = -1 + 2 sum_{j>=1} (-1)^{j+1} e^{-b j - a j^2}, b = mu/N, a = mu/N^2,
    or None when it needs more than N/2 terms.

    The alternating terms decrease, so the first omitted one bounds the
    truncation, and the partial sums stay in [0, 1].
    """
    a, b = mu / (n * n), mu / n
    total = 0.0
    for j in range(1, n // 2 + 1):
        t = math.exp(-(b + a * j) * j)
        if t < ULP:
            return 2 * total - 1, 2 * t + 16 * j * ULP
        total += t if j % 2 else -t
    return None


def lambda_crit(n: int) -> float:
    """Supremum of the non-PSD bandwidth region for N equispaced points.

    Bisection on the predicate min_j w_j < 0 over the full spectrum (at
    small lambda the most negative mode need not be j = N/2), bracket
    grown by doubling from 1e-6, absolute tolerance 1e-8.
    """
    require_quarter(n, CircleError)

    def not_psd(lam: float) -> bool:
        return circulant_eigenvalues(lam, n, DOUBLE_DIGITS).min_eigenvalue < 0

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


def _progression(n: int, x) -> list:
    """N angles k*h, k < N, at the working precision of ``x``: h is 2*pi/N
    truncated to keep p - bitlen(N - 1) of its p bits, so every k*h is
    exact and every pair at index gap g has the same exact offset g*h.
    Each angle lies within 4N units of 2^-p * 2*pi of 2*pi*k/N."""
    h = 2 * x.pi / n
    unit = x.eps * 2 ** (math.frexp(float(h))[1] + (n - 1).bit_length() - 1)
    h -= h % unit
    return [k * h for k in range(n)]


def circle_witness(
    lam,
    n_max: int = DEFAULT_MAX_N,
    precision_digits: int | None = None,
    scale: float = 1.0,
) -> WitnessCertificate | None:
    """Witness certificate on Circle{scale} at bandwidth lambda, or None.

    The scan runs on the unit-circle equivalent lambda*scale^2 (scaling
    the circle by s multiplies every distance by s), then the
    certificate is built on the scaled circle itself from the scan's hit:
    the alternating mode j = N/2, eigenvalue ``w_half`` and coefficients
    (-1)^k/sqrt(N), with no circulant spectrum.  The points are the exact
    progression k*h of :func:`_progression`, within 4N units of 2^-p * 2*pi
    of 2*pi*k/N, so ``equispaced_order`` still reads them as the
    equispaced family.
    """
    digits = resolve_digits(precision_digits)
    with numeric(digits) as x:
        hit = find_witness_size(x.num(lam) * x.num(scale) ** 2, n_max, digits)
        if hit is None:
            return None
        n, w = hit
        points = _progression(n, x)
        norm = x.sqrt(n)  # the coefficients are cos(pi k) = (-1)^k, exactly
        mode = w, tuple(x.num((-1) ** k) / norm for k in range(n))
    return build_certificate(sp.Circle(scale=float(scale)), lam, points, digits, mode=mode)
