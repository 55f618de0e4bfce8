"""Witness certificates: self-contained proofs that a Gram matrix fails PSD.

A certificate stores the space, bandwidth, points, and a coefficient
vector c with c^T K c < 0.  Everything needed to re-derive the violation
travels with it, so an independent verifier can recompute all distances,
kernel values, and the quadratic form from raw data alone.

Building one is a search: :func:`psd_decision` picks the route (exact
circulant spectrum for equispaced circle points, dense eigensolver
otherwise) and returns the spectrum, and one tail turns any spectrum
into a witness (minimum-mode coefficients, recomputed quadratic form,
both checked against :func:`certification_threshold`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_sub

from . import spaces as sp
from .gram import KernelParam, gram
from .precision import (
    DOUBLE_DIGITS,
    PrecisionError,
    check_digits,
    lift,
    number_from_json,
    number_to_json,
    numeric,
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
    min_eigenvalue: object
    method: str
    precision_digits: int
    unit_circle_lambda: object | None = None
    schema_version: str = SCHEMA_VERSION

    @property
    def order(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    recomputed: object
    stored: object
    detail: str | None = None


def circulant_row(lam, n: int, precision_digits: int = DOUBLE_DIGITS, scale=1.0) -> list:
    """First row of the equispaced-circle Gram: exp(-mu m^2/N^2) with
    m = min(k, N-k) and mu = 4 pi^2 lambda scale^2."""
    if n < 2:
        raise CertificateError("need at least two points")
    with numeric(precision_digits) as x:
        mu = 4 * x.pi * x.pi * x.num(lam) * x.num(scale) ** 2
        nn = x.num(n) * n
        return [x.exp(-mu * min(k, n - k) ** 2 / nn) for k in range(n)]


def quadratic_form(space: sp.Space, lam, points, coefficients, precision_digits: int):
    """c^T K c recomputed from scratch: distances, kernel values, then the
    sum.  The kernel is evaluated once per distinct pair key (see
    :func:`_pair_distance`), which fixes the distance bit for bit.

    At double precision the terms ``(2 c_i) c_j K_ij`` stream into a
    compensated sum in the order of the plain double loop.  Wide precision
    (circle and torus points, whose payloads are exact angles) sums in
    integer fixed point (:func:`_exact_form`): ``c_i c_j`` accumulates
    exactly per pair key, each key's kernel value multiplies its total,
    and the sum is rounded once, so the only rounding is in the
    coefficients and kernel values.  A non-finite coefficient, or double
    terms past the double range, give nan, which no verification
    accepts."""
    points = list(points)
    n = len(points)
    if len(coefficients) != n:
        raise CertificateError(
            f"{len(coefficients)} coefficients for {n} points"
        )
    with numeric(precision_digits) as x:
        lam = require_positive(x.num(lam), "lambda", CertificateError)
        key, dist = _pair_distance(space, points, precision_digits, x)

        def kernel(k):
            d = dist(k)
            return x.exp(-lam * d * d)

        c = [x.num(v) for v in coefficients]
        if not all(map(x.isfinite, c)):
            return x.num("nan")  # an infinite coefficient leaves the form undefined
        if precision_digits > DOUBLE_DIGITS:
            return _exact_form(c, *key, kernel)

        def terms():
            memo = {}
            yield from (ci * ci for ci in c)  # diagonal: kernel value is 1
            for i in range(n):
                two_ci = 2 * c[i]  # doubling is exact
                for j in range(i + 1, n):
                    if (kv := memo.get(k := key(i, j))) is None:
                        kv = memo[k] = kernel(k)
                    yield two_ci * c[j] * kv

        try:
            return x.fsum(terms())
        except (ValueError, OverflowError):  # products past the double range
            return x.num("nan")


def _exact_form(c: list, labels: list, rounded, direct, kernel):
    """The wide quadratic form: sum_i c_i^2 + 2 sum_key K_key S_key, with
    S_key the exact integer sum of c_i c_j over the pairs i < j with that
    key, rounded once.

    A pair's exact key is ``labels[i] - labels[j]``, one Python-int
    subtraction beside its ``c_i c_j``.  Before any kernel is evaluated
    the exact keys are merged by ``rounded(key)``, the working-precision
    difference the arc reads, so each distinct rounded key costs one
    kernel evaluation however many exact keys round to it.  A pair with a
    point labelled None takes that rounded difference as ``direct(i, j)``
    instead."""
    cs, exp_c = lift(c)
    whole = [i for i, label in enumerate(labels) if label is not None]
    wc, wl = [cs[i] for i in whole], [labels[i] for i in whole]
    sums = defaultdict(int)
    for i, (ci, li) in enumerate(zip(wc, wl)):
        for cj, lj in zip(wc[i + 1:], wl[i + 1:]):
            sums[li - lj] += ci * cj
    merged = defaultdict(int)
    for k, s in sums.items():
        merged[rounded(k)] += s
    if len(whole) < len(cs):
        for i, j in combinations(range(len(cs)), 2):
            if labels[i] is None or labels[j] is None:
                merged[direct(i, j)] += cs[i] * cs[j]
    ks, exp_k = lift([mp.mpf(1), *map(kernel, merged)])
    total = ks[0] * sum(ci * ci for ci in cs) + 2 * sum(map(mul, ks[1:], merged.values()))
    return unlift(total, exp_k + 2 * exp_c)


def _pair_distance(space: sp.Space, points: list, digits: int, x):
    """(key, dist) for the pairs of ``points``; ``dist(k)`` is the
    distance of a pair with key ``k``, a key fixing it bit for bit.

    At double precision ``key(i, j)`` is the distance itself, the space's
    own metric with every pair from one ``distance_matrix``.

    Wide precision needs circle or torus points, whose angle payloads
    give exact arcs.  There ``key`` is ``(labels, rounded, direct)`` for
    :func:`_exact_form`: each point's angles are lifted once to integers
    on one exponent per torus factor (:func:`~geokernel.precision.lift`),
    so ``labels[i] - labels[j]`` is the exact angle difference, and
    ``rounded`` maps it to the difference rounded at the working
    precision, mpmath's raw ``(sign, man, exp, bc)`` tuple (one per torus
    factor), exactly what ``mpf_sub`` of the two angles returns.  That
    rounded difference, not the index gap, is the key: parsed angles need
    not fix the gap to the last bit.  An angle more than ``LIFT_SPAN``
    working precisions below the largest lifts truncated; its point is
    labelled None, and ``direct(i, j)`` forms that point's keys with
    ``mpf_sub`` from the raw angles, so every key is the rounded
    difference whatever the angles' exponents.  Either way each point is
    validated once."""
    if digits <= DOUBLE_DIGITS:
        dist = sp.distance_matrix(space, points).tolist()
        return (lambda i, j: dist[i][j]), (lambda d: d)
    if not isinstance(space, (sp.Circle, sp.FlatTorus)):
        raise PrecisionError(
            "wide-precision re-evaluation needs angle payloads (circle or "
            "torus); rebuild the certificate at <= 17 digits"
        )
    for p in points:
        sp.require_valid(space, p)
    two_pi = 2 * x.pi
    prec, rnd = mp.mp._prec_rounding

    def lifted(angles):
        # a nonzero mpf mantissa is odd, so an angle below the lift's
        # exponent has lost bits: its label is None
        ints, exp = lift(angles)
        return [None if a._mpf_[1] and a._mpf_[2] < exp else k
                for a, k in zip(angles, ints)], exp

    def differences(angles):
        raw = [a._mpf_ for a in angles]
        return lambda i, j: mpf_sub(raw[i], raw[j], prec, rnd)

    def arc(diff):
        d = abs(mp.make_mpf(diff))
        return min(d, two_pi - d)

    if isinstance(space, sp.Circle):
        angles = [x.num(p) for p in points]
        labels, exp = lifted(angles)
        scale = x.num(space.scale)
        return (labels, lambda k: from_man_exp(k, exp, prec, rnd), differences(angles)), (
            lambda k: scale * arc(k))
    xs, ys = ([x.num(p[f]) for p in points] for f in (0, 1))
    (lx, ex), (ly, ey) = lifted(xs), lifted(ys)
    # one label per point packs the second factor below the first; a tiny
    # negative angle passes validation, so the shift leaves room for
    # second-factor differences of either sign
    shift = max((abs(b) for b in ly if b is not None), default=0).bit_length() + 2
    half, mask = 1 << (shift - 1), (1 << shift) - 1

    def rounded(k):
        dy = ((k + half) & mask) - half
        return (from_man_exp((k - dy) >> shift, ex, prec, rnd),
                from_man_exp(dy, ey, prec, rnd))

    sub_x, sub_y = differences(xs), differences(ys)
    labels = [None if a is None or b is None else (a << shift) + b for a, b in zip(lx, ly)]
    return (labels, rounded, lambda i, j: (sub_x(i, j), sub_y(i, j))), (
        lambda k: x.sqrt(arc(k[0]) ** 2 + arc(k[1]) ** 2))


def certification_threshold(n: int, digits: int):
    """The bar a certified violation must lie below: ten times the PSD
    tolerance band of an order-n spectrum at ``digits``, negated."""
    return -CERT_MARGIN * psd_tolerance(n, digits)


def _certify_threshold(value, n: int, digits: int, what: str) -> None:
    bar = certification_threshold(n, digits)
    if not value < bar:
        raise CertificateError(
            f"{what} {float(value):.6e} is not below the certification "
            f"threshold {bar:.6e}; refusing to certify"
        )


def build_certificate(space: sp.Space, lam, points, precision_digits: int | None = None) -> WitnessCertificate:
    """Certify that the Gram of (space, lambda, points) is not PSD.

    The spectrum comes from :func:`psd_decision` (exact circulant for
    equispaced circle points at any precision, dense at double
    otherwise); the witness is the minimum eigenvalue's unit
    eigenvector.  Refuses unless both the minimum eigenvalue and the
    recomputed quadratic form clear the certification threshold and
    agree with each other.
    """
    points = list(points)
    if len(points) < 2:
        raise CertificateError("need at least two points")
    _, report, method = psd_decision(space, points, lam, precision_digits)
    n, digits = len(points), report.precision_digits
    w_min = report.min_eigenvalue
    _certify_threshold(w_min, n, digits, "minimum eigenvalue")
    coeffs = min_eigenvector(report)
    quad = quadratic_form(space, lam, points, coeffs, digits)
    _certify_threshold(quad, n, digits, "quadratic form")
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
        min_eigenvalue=w_min,
        method=method,
        precision_digits=digits,
    )


def verify_certificate(cert: WitnessCertificate) -> VerificationResult:
    """Re-derive the quadratic form from raw data and compare.

    ok iff the recomputed value matches the stored one within 1e-12
    relative and is negative.  Shares no state with the builder.
    """
    if cert.schema_version != SCHEMA_VERSION:
        raise CertificateError(f"unknown schema version {cert.schema_version!r}")
    recomputed = quadratic_form(
        cert.space, cert.lam, cert.points, cert.coefficients, cert.precision_digits
    )
    stored = cert.quad_form
    if not recomputed < 0:
        detail = "recomputed value nonnegative"
        if stored < 0:
            detail += ", stored negative"
        return VerificationResult(False, recomputed, stored, detail)
    if not stored < 0:
        return VerificationResult(
            False, recomputed, stored, "recomputed value negative, stored positive"
        )
    if abs(recomputed - stored) > VERIFY_REL_TOL * abs(stored):
        return VerificationResult(
            False,
            recomputed,
            stored,
            f"recomputed {float(recomputed)!r} differs from stored "
            f"{float(stored)!r} beyond {VERIFY_REL_TOL} relative",
        )
    return VerificationResult(True, recomputed, stored, None)


# ---------------------------------------------------------------------------
# PSD decision shared by the builder, the CLI and the probes

def psd_decision(space: sp.Space, points, lam, precision_digits: int | None = None) -> tuple:
    """(verdict, spectrum, method) for the Gram of (space, lambda, points).

    The one place that picks the route: equispaced circle points ride the
    exact circulant path at the requested precision; anything else gets
    the dense eigensolver at double, which refuses wide precision.
    """
    points = list(points)
    if len(points) < 1:
        raise CertificateError("need at least one point")
    if isinstance(space, sp.Circle) and sp.equispaced_order(points) == len(points):
        digits = resolve_digits(precision_digits)
        row = circulant_row(lam, len(points), digits, scale=space.scale)
        report = circulant_eigenvalues(row, digits)
    elif precision_digits is not None and check_digits(precision_digits) > DOUBLE_DIGITS:
        raise PrecisionError(
            "dense route is double precision only; wide precision needs "
            "equispaced circle points"
        )
    else:
        k = gram(space, points, KernelParam(float(lam)))
        report = jacobi_eigenvalues(k.entries)
    return pd_verdict(report, 1.0), report, report.method


# ---------------------------------------------------------------------------
# serialization

def cert_to_json(cert: WitnessCertificate) -> dict:
    digits = cert.precision_digits
    num = lambda x: number_to_json(x, digits)
    obj = {
        "schema_version": cert.schema_version,
        "space": sp.space_to_json(cert.space),
        "lambda": num(cert.lam),
        "points": [sp.point_to_json(cert.space, p, digits) for p in cert.points],
        "coefficients": [num(c) for c in cert.coefficients],
        "quad_form": num(cert.quad_form),
        "min_eigenvalue": num(cert.min_eigenvalue),
        "method": cert.method,
        "precision_digits": digits,
    }
    if cert.unit_circle_lambda is not None:
        obj["unit_circle_lambda"] = num(cert.unit_circle_lambda)
    return obj


def cert_from_json(obj: dict) -> WitnessCertificate:
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CertificateError(f"unknown schema version {version!r}")
    digits = obj.get("precision_digits")
    if type(digits) is not int:  # not isinstance: a bool is an int
        raise CertificateError(f"precision_digits must be an integer, got {digits!r}")
    digits = check_digits(digits)  # range-check before parsing any number
    try:
        space = sp.space_from_json(obj["space"])
        num = lambda x: number_from_json(x, digits)
        points = tuple(sp.point_from_json(space, p, digits) for p in obj["points"])
        cert = WitnessCertificate(
            space=space,
            lam=num(obj["lambda"]),
            points=points,
            coefficients=tuple(num(c) for c in obj["coefficients"]),
            quad_form=num(obj["quad_form"]),
            min_eigenvalue=num(obj["min_eigenvalue"]),
            method=str(obj["method"]),
            precision_digits=digits,
            unit_circle_lambda=(
                num(obj["unit_circle_lambda"]) if "unit_circle_lambda" in obj else None
            ),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from None
    if cert.method not in ("circulant", "jacobi"):
        raise CertificateError(f"unknown method {cert.method!r}")
    return cert
