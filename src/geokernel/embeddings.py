"""Witness transfer along isometric circle embeddings.

Each space descriptor that contains an isometric circle says so itself
(``circle_scale`` and ``_circle_points`` in :mod:`geokernel.spaces`):
spheres contain great circles; projective spaces and Grassmannians
contain a circle of half scale, since rotating a line by t moves the
point by t/2.  Since an isometry preserves every pairwise distance, a
Gram matrix built on the image equals the source Gram entrywise, and a
non-PSD witness transfers with the very same coefficients.  Every
function here takes the target space itself; ``source_circle`` is the
circle it holds, and a target that holds none raises EmbeddingError.
"""

from __future__ import annotations

import math

import numpy as np

from . import spaces as sp
from .certificates import CertificateError, WitnessCertificate, missed_bar, quadratic_form
from .circle import DEFAULT_MAX_N, circle_witness
from .precision import DOUBLE_DIGITS, number_text, numeric


class EmbeddingError(ValueError):
    pass


def source_circle(target: sp.Space) -> sp.Circle:
    """The circle of the target's ``circle_scale``, which its
    ``_circle_points`` maps isometrically into it."""
    if target.circle_scale is None:
        raise EmbeddingError(f"{target!r} contains no isometric circle")
    return sp.Circle(scale=target.circle_scale)


def verify_isometry(target: sp.Space, pair_count: int = 1000, seed: int = 0) -> float:
    """Max |d_target(iota a, iota b) - d_source(a, b)| over seeded pairs
    of source angles, iota the target's ``_circle_points``; no pairs give 0."""
    source = source_circle(target)
    if pair_count < 0:
        raise EmbeddingError(f"pair_count must be >= 0, got {pair_count}")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, (pair_count, 2)).ravel().tolist()
    i, j = np.arange(len(angles)).reshape(-1, 2).T
    d_src = sp.pair_distances(source, angles, i, j)
    d_tgt = sp.pair_distances(target, target._circle_points(angles), i, j)
    return float(np.max(np.abs(d_tgt - d_src), initial=0.0))


def transfer_witness(cert: WitnessCertificate, target: sp.Space) -> WitnessCertificate:
    """Carry a witness on the target's source circle to the target.

    The images keep the source distances, so the same lambda and the
    same coefficients give the same quadratic form; it is recomputed in
    the target from scratch and must agree with the stored value within
    the rounding of the two evaluations (``_rounding_bound``), and clear
    the builder's bar (:func:`missed_bar`).

    Targets with non-angle payloads store points in double precision, so
    a wide source certificate is re-anchored at 17 digits (coefficients
    and lambda as floats); the transfer refuses if the violation would
    drown in double-precision noise.
    """
    source = source_circle(target)
    if cert.space != source:
        raise CertificateError(f"certificate on {cert.space!r}, map source {source!r}")
    digits = cert.precision_digits if target.angles else min(cert.precision_digits, DOUBLE_DIGITS)
    images = tuple(target._circle_points(cert.points))
    with numeric(digits) as x:
        coeffs, lam = tuple(map(x.num, cert.coefficients)), x.num(cert.lam)
    quad = quadratic_form(target, lam, images, coeffs, digits)
    if missed := missed_bar(quad, len(images), digits, "transferred violation"):
        raise CertificateError(f"{missed} at {digits} digits")
    stored = cert.quad_form
    allowed = _rounding_bound(coeffs, lam, source.scale, digits)
    if not abs(quad - stored) <= allowed:
        raise CertificateError(
            f"target Gram re-verification failed: {number_text(quad)} vs "
            f"stored {number_text(stored)}, allowed {number_text(allowed, '.1e')}"
        )
    return WitnessCertificate(
        space=target,
        lam=lam,
        points=images,
        coefficients=coeffs,
        quad_form=quad,
        precision_digits=digits,
    )


def _rounding_bound(coefficients, lam, scale: float, digits: int):
    """How far two evaluations of one form c^T K c on the circle of
    ``scale``, or an isometric image, may differ by rounding alone.

    With eps the machine epsilon of the evaluation (2^-52 at double, the
    working precision's above) and D = pi * scale the largest distance:
    a distance is off by at most 4 eps D (payloads and formula; the
    embeddings measure under 2 eps D for both sides together), which
    moves K = exp(-lambda d^2) <= 1 by 2 lambda d * 4 eps D * K; forming
    -lambda d^2 adds 2 lambda d^2 eps K and exp eps K; the coefficients
    and products of a term add 4 eps |c_i c_j|, and the sum eps S.  So one
    evaluation is within eps S (10 lambda D^2 + 6), S = (sum |c_i|)^2,
    and the bound is twice that, one for each side."""
    with numeric(digits) as x:
        s = x.fsum(abs(x.num(c)) for c in coefficients) ** 2
        return 2 * x.eps * s * (10 * x.num(lam) * (x.pi * scale) ** 2 + 6)


def witness_for_target(
    target: sp.Space,
    lam,
    n_max: int = DEFAULT_MAX_N,
    precision_digits: int | None = None,
) -> WitnessCertificate | None:
    """Find a circle witness at the right scale and push it to the target."""
    scale = source_circle(target).scale
    source_cert = circle_witness(lam, n_max=n_max, precision_digits=precision_digits, scale=scale)
    if source_cert is None:
        return None
    return transfer_witness(source_cert, target)
