"""Witness certificates: self-contained proofs that a Gram matrix fails PSD.

A certificate stores the space, bandwidth, points, and a coefficient
vector c with c^T K c < 0.  Everything needed to re-derive the violation
travels with it, so an independent verifier can recompute all distances,
kernel values, and the quadratic form from raw data alone.

Building one is a search for a negative mode: the circle scan's
alternating mode, a Stein trial's minimum, or the minimum of the
spectrum :func:`psd_decision` returns (the exact circulant spectrum of
lambda and N for equispaced circle points, dense otherwise); one
tail turns any mode into a witness (recomputed quadratic form, both
checked against :func:`certification_threshold`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import combinations, count
from operator import mul

import mpmath as mp
import numpy as np

from . import spaces as sp
from .gram import gram
from .precision import (
    DOUBLE_DIGITS,
    PrecisionError,
    check_digits,
    gap_gaussians,
    lift,
    lift_whole,
    number_from_json,
    number_text,
    number_to_json,
    numeric,
    pair_differences,
    require_positive,
    resolve_digits,
    unlift,
)
from .spectral import (
    circulant_eigenvalues,
    jacobi_eigenvalues,
    min_eigenvector,
    pd_verdict,
    psd_tolerance,
)

SCHEMA_VERSION = "1"

# certified violations must clear ten times the PSD tolerance band
CERT_MARGIN = 10.0

VERIFY_REL_TOL = 1e-12


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessCertificate:
    space: sp.Space
    lam: object
    points: tuple
    coefficients: tuple
    quad_form: object
    precision_digits: int

    @property
    def order(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    recomputed: object
    stored: object
    detail: str | None = None


def quadratic_form(space: sp.Space, lam, points, coefficients, precision_digits: int):
    """c^T K c recomputed from scratch: distances, kernel values, then the
    sum.

    At double precision the kernel values are the entries of :func:`gram`,
    and the terms ``(2 c_i) c_j K_ij`` stream into a compensated sum in the
    order of the plain double loop.  Wide precision needs circle or torus
    points, whose payloads are exact angles, and sums in integer fixed
    point: the lifted coefficients' gcd g is factored out, the cofactor
    products accumulate exactly per distinct kernel value
    (:func:`_pair_sums`: by index gap on an exact progression, such as a
    builder witness, whose values are the exact kernel of each gap's exact
    arc rounded once, from Gaussian rows with no ``exp`` per gap; by pair
    otherwise, one ``exp`` per distinct distance), each value multiplies
    its total, and the sum, times g^2, is rounded once, so the only
    rounding is in the coefficients and kernel values (a builder
    witness's cofactors are +-1, so its pairs add small integers).  A
    non-finite coefficient, or double terms past the double range, give
    nan, which no verification accepts.  Each point is validated once."""
    points = list(points)
    n = len(points)
    if len(coefficients) != n:
        raise CertificateError(
            f"{len(coefficients)} coefficients for {n} points"
        )
    with numeric(precision_digits) as x:
        lam = require_positive(x.num(lam), "lambda", CertificateError)
        if precision_digits <= DOUBLE_DIGITS:
            kernel = gram(space, points, lam).entries.tolist() if n else []
        elif not space.angles:
            raise PrecisionError(
                "wide-precision re-evaluation needs angle payloads (circle or "
                "torus); rebuild the certificate at <= 17 digits"
            )
        else:
            sp.check_points(space, points)
        c = [x.num(v) for v in coefficients]
        if not all(map(x.isfinite, c)):
            return x.num("nan")  # an infinite coefficient leaves the form undefined
        if precision_digits > DOUBLE_DIGITS:
            cs, exp_c = lift(c)
            g = math.gcd(*cs) or 1
            cs = [ci // g for ci in cs]
            sums = _pair_sums(space, lam, points, cs, x)
            ks, exp_k = lift([mp.mpf(1), *map(mp.make_mpf, sums)])
            total = ks[0] * sum(ci * ci for ci in cs) + 2 * sum(map(mul, ks[1:], sums.values()))
            return unlift(g * g * total, exp_k + 2 * exp_c)

        def terms():
            yield from (ci * ci for ci in c)  # diagonal: kernel value is 1
            for i, row in enumerate(kernel):
                two_ci = 2 * c[i]  # doubling is exact
                for j in range(i + 1, n):
                    yield two_ci * c[j] * row[j]

        try:
            return x.fsum(terms())
        except (ValueError, OverflowError):  # products past the double range
            return x.num("nan")


def _pair_sums(space: sp.Space, lam, points: list, cs: list, x) -> dict:
    """{kernel value: sum} for wide circle or torus ``points`` and integer
    coefficients ``cs``: each kernel value a pair i < j can take, as a raw
    mpf, mapped to the exact integer sum of ``cs[i] * cs[j]`` over the
    pairs that take it.

    Circle and torus share two routes, on the descriptor's ``angles``
    angle factors of scale s (1 on the torus).  When every factor lifts whole
    (:func:`~geokernel.precision.lift_whole`) to an exact progression
    a_0 + k*h in one order of the points (sorted by label), as a builder
    witness k*h and its torus image do, the pairs at index gap g share one
    exact arc per factor, and the gap's kernel value, the exact
    exp(-lam (s arc)^2) rounded once, comes from Gaussian rows over the
    gaps (:func:`~geokernel.precision.gap_gaussians`, no ``exp`` per gap);
    its sum is that of ``cs[i] * cs[i + g]`` in that order.  Any other set (an
    angle more than ``LIFT_SPAN`` working precisions below the largest,
    which lifts truncated, or angles off a progression, such as 2*pi*k/N
    rounded one by one) keys each pair by its angle differences rounded
    at the working precision (:func:`~geokernel.precision.pair_differences`),
    merges equal keys, forms each distinct key's distance s sqrt(sum_f
    arc_f^2) once (offsets at equal distances, d and 2*pi - d among them,
    merge) and evaluates the kernel once per distinct distance."""
    two_pi = 2 * +x.pi
    arc = lambda diff: min(abs(diff), two_pi - abs(diff))
    payloads = points if space.angles > 1 else [[p] for p in points]
    factors = [list(map(x.num, column)) for column in zip(*payloads)]
    scale = x.num(space.scale)
    # sqrt of a correctly rounded square is the value itself: one factor gives s * arc
    dist = lambda d: scale * x.sqrt(sum(arc(a) ** 2 for a in d))
    sums = defaultdict(int)
    lifted = [lift_whole(angles) for angles in factors]
    if None not in lifted:
        # points in progression in any order are in progression sorted by label
        order = sorted(range(len(cs)), key=lambda i: [labels[i] for labels, _ in lifted])
        steps = []  # (h, exponent) of each factor
        for labels, exp in lifted:
            hs = {labels[b] - labels[a] for a, b in zip(order, order[1:])}
            if len(hs) < 2:
                steps.append((hs.pop() if hs else 0, exp))
        if len(steps) == len(factors):
            cs = [cs[i] for i in order]
            for k, s in zip(gap_gaussians(lam, scale, steps, len(cs)), _gap_sums(cs)):
                sums[k._mpf_] += s
            return sums
    keys = defaultdict(int)
    for key, (i, j) in zip(zip(*map(pair_differences, factors)),
                           combinations(range(len(cs)), 2)):
        keys[key] += cs[i] * cs[j]
    kernel = cache(lambda d: x.exp(-lam * d * d)._mpf_)  # once per distinct distance
    for k, s in keys.items():
        sums[kernel(dist(map(mp.make_mpf, k)))] += s
    return sums


def _gap_sums(cs: list) -> list:
    """sum_i cs[i] * cs[i + g] for the gaps g = 1, ..., N-1 of N integers,
    exact: one int64 ``np.correlate`` when N max|c_i|^2 < 2^63, which
    bounds every partial sum (a builder witness's +-1 cofactors always
    qualify), else Python ints."""
    n = len(cs)
    if n > 1 and n * max(map(abs, cs)) ** 2 < 2 ** 63:
        c = np.array(cs, dtype=np.int64)
        return np.correlate(c, c, "full")[n:].tolist()
    return [sum(map(mul, cs, cs[g:])) for g in range(1, n)]


def certification_threshold(n: int, digits: int):
    """The bar a certified violation must lie below: ten times the PSD
    tolerance band of an order-n spectrum at ``digits``, negated."""
    return -CERT_MARGIN * psd_tolerance(n, digits)


def missed_bar(value, n: int, digits: int, what: str) -> str:
    """Why ``value`` certifies no order-n Gram at ``digits``, or "" when it
    lies below :func:`certification_threshold`: the one check behind every
    refusal of a form by the builder, the verifier and the witness transfer."""
    bar = certification_threshold(n, digits)
    return "" if value < bar else (f"{what} {number_text(value, '.6e')} is not below "
                                   f"the certification threshold {bar:.6e}")


def build_certificate(
    space: sp.Space, lam, points, precision_digits: int | None = None, mode=None
) -> WitnessCertificate:
    """Certify that the Gram of (space, lambda, points) is not PSD.

    The witness is ``mode``, an (eigenvalue, unit eigenvector) pair of
    this Gram at ``precision_digits`` that the caller already holds, or
    else the minimum mode of the spectrum from :func:`psd_decision`
    (exact circulant for equispaced circle points, dense at double
    otherwise).  Refuses unless both the eigenvalue and the quadratic
    form, recomputed from the raw points, clear the certification
    threshold, so a passed mode cannot certify a Gram that is PSD, and
    unless they differ by at most 1e-8 * N * max(1, |eigenvalue|), a
    bound that does not tighten with the precision.
    """
    points = list(points)
    if len(points) < 2:
        raise CertificateError("need at least two points")
    if mode is None:
        _, spectrum = psd_decision(space, points, lam, precision_digits)
        mode = spectrum.min_eigenvalue, min_eigenvector(spectrum)
        precision_digits = spectrum.precision_digits
    w_min, coeffs = mode
    n, digits = len(points), resolve_digits(precision_digits)
    if missed := missed_bar(w_min, n, digits, "minimum eigenvalue"):
        raise CertificateError(f"{missed}; refusing to certify")
    quad = quadratic_form(space, lam, points, coeffs, digits)
    if missed := missed_bar(quad, n, digits, "quadratic form"):
        raise CertificateError(f"{missed}; refusing to certify")
    if abs(quad - w_min) > 1e-8 * n * max(1.0, abs(float(w_min))):
        raise CertificateError(
            "quadratic form disagrees with the spectral value; "
            "certificate construction is inconsistent"
        )
    with numeric(digits) as x:
        stored_lam = x.num(lam)
    return WitnessCertificate(
        space=space,
        lam=stored_lam,
        points=tuple(points),
        coefficients=coeffs,
        quad_form=quad,
        precision_digits=digits,
    )


def verify_certificate(cert: WitnessCertificate) -> VerificationResult:
    """Re-derive the quadratic form from raw data and compare.

    ok iff the recomputed value lies below the builder's bar
    (:func:`missed_bar`), the stored one is negative, and the two agree
    within 1e-12 relative; the detail names the first rule that fails.
    Shares no state with the builder.
    """
    recomputed = quadratic_form(
        cert.space, cert.lam, cert.points, cert.coefficients, cert.precision_digits
    )
    stored = cert.quad_form
    if missed := missed_bar(recomputed, cert.order, cert.precision_digits, "recomputed value"):
        return VerificationResult(False, recomputed, stored, missed)
    if not stored < 0:
        return VerificationResult(False, recomputed, stored, "stored value not negative")
    if abs(recomputed - stored) > VERIFY_REL_TOL * abs(stored):
        return VerificationResult(
            False,
            recomputed,
            stored,
            f"recomputed {number_text(recomputed)} differs from stored "
            f"{number_text(stored)} beyond {VERIFY_REL_TOL} relative",
        )
    return VerificationResult(True, recomputed, stored, None)


# ---------------------------------------------------------------------------
# PSD decision shared by the builder and the CLI

def psd_decision(space: sp.Space, points, lam, precision_digits: int | None = None) -> tuple:
    """(verdict, spectrum) for the Gram of (space, lambda, points).

    The one place that picks the route: equispaced circle points ride the
    exact circulant path at the requested precision; anything else gets
    the dense eigensolver at double, which refuses wide precision.
    """
    points = list(points)
    if len(points) < 1:
        raise CertificateError("need at least one point")
    if isinstance(space, sp.Circle) and sp.equispaced_order(points) == len(points):
        report = circulant_eigenvalues(lam, len(points), precision_digits, space.scale)
    elif precision_digits is not None and check_digits(precision_digits) > DOUBLE_DIGITS:
        sp.check_points(space, points)  # an invalid point is named before the refusal
        raise PrecisionError(
            "dense route is double precision only; wide precision needs "
            "equispaced circle points"
        )
    else:
        k = gram(space, points, float(lam))
        report = jacobi_eigenvalues(k.entries)
    return pd_verdict(report), report


# ---------------------------------------------------------------------------
# serialization

def cert_to_json(cert: WitnessCertificate) -> dict:
    digits = cert.precision_digits
    num = lambda x: number_to_json(x, digits)
    # each distinct value once (a built witness has two): by value where it fixes the text
    coefficient = cache(num) if digits > DOUBLE_DIGITS else num
    with numeric(digits):  # once for every number below
        return {
            "schema_version": SCHEMA_VERSION,
            **sp.pointset_to_json(cert.space, cert.points, digits),
            "lambda": num(cert.lam),
            "coefficients": [coefficient(c) for c in cert.coefficients],
            "quad_form": num(cert.quad_form),
            "precision_digits": digits,
        }


def cert_from_json(obj: dict) -> WitnessCertificate:
    """Inverse of :func:`cert_to_json`: a point-set file plus the witness
    fields.  Any other key, such as older schema-1 files' echoes, is ignored."""
    if not isinstance(obj, dict):
        raise CertificateError(f"a certificate is a JSON object, got {type(obj).__name__}")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CertificateError(f"unknown schema version {version!r}")
    digits = obj.get("precision_digits")
    if type(digits) is not int:  # not isinstance: a bool is an int
        raise CertificateError(f"precision_digits must be an integer, got {digits!r}")
    digits = check_digits(digits)  # range-check before parsing any number
    try:
        with numeric(digits):  # once for every number below
            space, points = sp.pointset_from_json(obj, digits)
            num = lambda x: number_from_json(x, digits)
            parse = cache(num)  # each distinct text once
            coefficients = obj["coefficients"]
            if not isinstance(coefficients, list):
                raise TypeError("certificate entry 'coefficients' must be a list, "
                                f"got {type(coefficients).__name__}")

            def coefficient(i, c):
                try:
                    return parse(c) if type(c) is str else num(c)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"coefficient {i}: {exc}") from None

            return WitnessCertificate(
                space=space,
                lam=num(obj["lambda"]),
                points=tuple(points),
                coefficients=tuple(map(coefficient, count(), coefficients)),
                quad_form=num(obj["quad_form"]),
                precision_digits=digits,
            )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from None
