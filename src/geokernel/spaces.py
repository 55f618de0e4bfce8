"""Catalog of metric spaces: descriptors, point validation, exact distances.

Each space is a small frozen descriptor; points are plain payloads (an
angle, a unit vector, an orthonormal matrix, an SPD matrix).  Distances
follow the closed-form geodesic or matrix-metric formulas, with inner
products clamped to [-1, 1] and an error raised only when the excess
betrays genuinely non-unit input.  ``pair_distances`` validates and
factors each point once and derives every pair from that;
``distance_matrix`` (all pairs) and ``distance`` (one pair) are its
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precision import DOUBLE_DIGITS, number_from_json, number_to_json
from .spectral import jacobi_eigensystem

TWO_PI = 2.0 * math.pi

# arccos inputs may exceed 1 by rounding; beyond this the input was bad
CLAMP_EXCESS = 1e-8
UNIT_NORM_TOL = 1e-12
ORTHONORMAL_TOL = 1e-10
SYMMETRY_TOL = 1e-12

SPD_SAMPLE_RIDGE = 1e-6


class InvalidSpaceError(ValueError):
    """Descriptor parameters outside their allowed ranges."""


class InvalidPointError(ValueError):
    """Point payload fails the invariants of its space."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidSpaceError(message)


@dataclass(frozen=True)
class Circle:
    """Circle of circumference 2*pi*scale; points are angles in [0, 2*pi)."""

    scale: float = 1.0
    variant = "circle"

    def __post_init__(self):
        _require(
            isinstance(self.scale, (int, float))
            and math.isfinite(self.scale)
            and self.scale > 0,
            "circle scale must be a positive real",
        )


@dataclass(frozen=True)
class Sphere:
    """Unit n-sphere in R^(n+1) with the great-circle (arc) distance."""

    n: int
    variant = "sphere"

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 1, "sphere needs n >= 1")


@dataclass(frozen=True)
class ProjectiveSpace:
    """Real projective n-space: antipodal unit vectors identified."""

    n: int
    variant = "projective"

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 1, "projective needs n >= 1")


@dataclass(frozen=True)
class Grassmannian:
    """k-planes in R^n; metric is principal_angle (geodesic) or projection."""

    k: int
    n: int
    metric: str = "principal_angle"
    variant = "grassmannian"

    def __post_init__(self):
        _require(
            isinstance(self.k, int) and isinstance(self.n, int) and 1 <= self.k < self.n,
            "grassmannian needs 1 <= k < n",
        )
        _require(
            self.metric in ("principal_angle", "projection"),
            f"unknown grassmannian metric {self.metric!r}",
        )


@dataclass(frozen=True)
class SpdMatrices:
    """Symmetric positive definite n x n matrices under a chosen metric."""

    n: int
    metric: str = "frobenius"
    variant = "spd"

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 1, "spd needs n >= 1")
        _require(
            self.metric in ("frobenius", "log_euclidean", "stein"),
            f"unknown spd metric {self.metric!r}",
        )


@dataclass(frozen=True)
class Euclidean:
    n: int
    variant = "euclidean"

    def __post_init__(self):
        _require(isinstance(self.n, int) and self.n >= 1, "euclidean needs n >= 1")


@dataclass(frozen=True)
class FlatTorus:
    """Product of two unit circles; points are angle pairs, distances add
    in quadrature.  Serves as the flat target that still contains an
    isometric circle."""

    variant = "torus"


Space = Circle | Sphere | ProjectiveSpace | Grassmannian | SpdMatrices | Euclidean | FlatTorus


# ---------------------------------------------------------------------------
# validation

def _checked_angle(value) -> tuple[str | None, float | None]:
    try:
        theta = float(value)
        # float() rounds a tiny negative wide angle to -0.0
        negative = theta == 0.0 and value < 0
    except (TypeError, ValueError):
        return "angle payload is not a real number", None
    if not math.isfinite(theta):
        return "angle is not finite", None
    if negative or not (0.0 <= theta < TWO_PI):
        return "angle outside [0, 2*pi)", None
    return None, theta


def _checked(space: Space, point) -> tuple[str | None, object]:
    """(violated invariant, None) for a bad payload, else (None, the
    payload in the form the distance formulas read): a float angle, an
    angle pair, an array, or an SPD matrix with its Cholesky factor."""
    if isinstance(space, Circle):
        return _checked_angle(point)

    if isinstance(space, FlatTorus):
        try:
            a, b = point
        except (TypeError, ValueError):
            return "torus point must be a pair of angles", None
        (violation_a, a), (violation_b, b) = _checked_angle(a), _checked_angle(b)
        violation = violation_a or violation_b
        return (violation, None) if violation else (None, (a, b))

    if isinstance(space, (Sphere, ProjectiveSpace)):
        v = np.asarray(point, dtype=float)
        if v.shape != (space.n + 1,):
            return f"expected vector of length {space.n + 1}, got shape {v.shape}", None
        if not np.all(np.isfinite(v)):
            return "vector has non-finite entries", None
        if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_NORM_TOL:
            return "norm != 1", None
        return None, v

    if isinstance(space, Grassmannian):
        a = np.asarray(point, dtype=float)
        if a.shape != (space.n, space.k):
            return f"expected {space.n}x{space.k} representative, got shape {a.shape}", None
        if not np.all(np.isfinite(a)):
            return "representative has non-finite entries", None
        gram = a.T @ a
        if float(np.max(np.abs(gram - np.eye(space.k)))) > ORTHONORMAL_TOL:
            return "columns not orthonormal", None
        return None, a

    if isinstance(space, SpdMatrices):
        m = np.asarray(point, dtype=float)
        if m.shape != (space.n, space.n):
            return f"expected {space.n}x{space.n} matrix, got shape {m.shape}", None
        if not np.all(np.isfinite(m)):
            return "matrix has non-finite entries", None
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL * scale:
            return "not symmetric", None
        try:
            lower = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return "not positive definite", None
        return None, (m, lower)

    if isinstance(space, Euclidean):
        v = np.asarray(point, dtype=float)
        if v.shape != (space.n,):
            return f"expected vector of length {space.n}, got shape {v.shape}", None
        if not np.all(np.isfinite(v)):
            return "vector has non-finite entries", None
        return None, v

    raise InvalidSpaceError(f"unknown space {space!r}")


def validate_point(space: Space, point) -> str | None:
    """None if the payload satisfies its space's invariants, else the
    violated invariant spelled out."""
    return _checked(space, point)[0]


def require_valid(space: Space, point):
    """The payload in the form the distance formulas read (see
    ``_checked``); InvalidPointError naming the violated invariant
    otherwise."""
    violation, form = _checked(space, point)
    if violation is not None:
        raise InvalidPointError(f"{space.variant}: {violation}")
    return form


# ---------------------------------------------------------------------------
# distances

def _unit_angle(p: np.ndarray, q: np.ndarray) -> float:
    """Angle between unit vectors: arccos of the inner product, evaluated
    as 2*atan2(|p-q|, |p+q|).

    The direct arccos turns rounding in a near-collinear inner product
    into ~1e-8 of angle; the half-angle form keeps equal inputs at
    exactly 0 and opposite inputs at exactly pi.
    """
    dot = float(np.dot(p, q))
    if abs(dot) > 1.0 + CLAMP_EXCESS:
        raise InvalidPointError(
            f"inner product {dot!r} exceeds 1 beyond rounding; non-unit input"
        )
    return 2.0 * math.atan2(
        float(np.linalg.norm(p - q)), float(np.linalg.norm(p + q))
    )


def _line_angle(p: np.ndarray, q: np.ndarray) -> float:
    """Angle between lines: pick the representative on the same side first."""
    if float(np.dot(p, q)) < 0.0:
        q = -q
    return _unit_angle(p, q)


def circle_arc(theta_p: float, theta_q: float, scale: float = 1.0) -> float:
    """Shorter arc between two angles, scaled."""
    delta = abs(theta_p - theta_q)
    return scale * min(delta, TWO_PI - delta)


def matrix_log(m: np.ndarray) -> np.ndarray:
    """Log of an SPD matrix through its eigensystem."""
    values, vectors = jacobi_eigensystem(m)
    if values[0] <= 0.0:
        raise InvalidPointError("matrix log needs strictly positive eigenvalues")
    return (vectors * np.log(values)) @ vectors.T


# math.atan2 elementwise: numpy's SIMD arctan2 rounds some inputs
# differently depending on where they sit in the array, and a pair's
# distance must not depend on the batch it was computed in
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def principal_angles(a, b) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal
    representatives, ascending; stacks of pairs, shaped (..., n, k),
    give one row of angles per pair.

    B splits into its projection A (A^T B) onto span A and the rest:
    the singular values of the first are the cosines, those of the
    second the sines (Bjorck & Golub 1973).  Each angle is
    atan2(sine, cosine), which keeps the relative accuracy of the sine
    for small angles, so distinct spans stay at a positive distance,
    and that of the cosine near pi/2 (Knyazev & Argentati 2002).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    along = a @ (np.swapaxes(a, -1, -2) @ b)
    cosines, sines = np.linalg.svd(np.stack((along, b - along)), compute_uv=False)
    if cosines.max() > 1.0 + CLAMP_EXCESS:
        raise InvalidPointError(
            f"cosine {cosines.max()!r} of a principal angle exceeds 1 beyond rounding"
        )
    # cosines descend and sines ascend along the same angle order
    return _atan2(sines[..., ::-1], cosines).astype(float)


def chol_logdet(lower: np.ndarray) -> float:
    """log det(L L^T) from the Cholesky factor L."""
    return 2.0 * math.fsum(math.log(x) for x in np.diag(lower))


def stein_divergences(matrices, logdets, pairs) -> list[float]:
    """S(A_i, A_j) = logdet((A_i + A_j)/2) - (logdet A_i + logdet A_j)/2
    for each (i, j) in pairs, given every matrix's own log-determinant.

    All midpoints are factored by one stacked Cholesky.  S is zero iff
    A_i = A_j and mathematically nonnegative (concavity of logdet), so
    the rounding residue below zero is clipped.
    """
    stack = np.asarray(matrices, dtype=float)
    i, j = np.asarray(pairs, dtype=int).T
    try:
        lowers = np.linalg.cholesky((stack[i] + stack[j]) / 2.0)
    except np.linalg.LinAlgError:
        raise InvalidPointError("stein midpoint is not positive definite") from None
    return [
        max(0.0, chol_logdet(low) - 0.5 * (logdets[p] + logdets[q]))
        for low, (p, q) in zip(lowers, pairs)
    ]


def _distance_forms(space: Space, points) -> list:
    """Each point validated once, then reduced to what its metric reads:
    the projector for the projection Grassmannian, the matrix log for
    log-Euclidean SPD, the Cholesky log-determinant for Stein."""
    forms = [require_valid(space, p) for p in points]
    if isinstance(space, Grassmannian) and space.metric == "projection":
        return [a @ a.T for a in forms]
    if isinstance(space, SpdMatrices):
        if space.metric == "log_euclidean":
            return [matrix_log(m) for m, _ in forms]
        if space.metric == "stein":
            return [(m, chol_logdet(lower)) for m, lower in forms]
        return [m for m, _ in forms]
    return forms


def _norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def _pair_formula(space: Space):
    """(form_p, form_q) -> d(p, q) for the metrics computed pair by
    pair; None for Stein and the Grassmann geodesic, which run as
    stacked LAPACK calls over all pairs at once."""
    if isinstance(space, Circle):
        return lambda p, q: circle_arc(p, q, space.scale)
    if isinstance(space, FlatTorus):
        return lambda p, q: math.hypot(circle_arc(p[0], q[0]), circle_arc(p[1], q[1]))
    if isinstance(space, Sphere):
        return _unit_angle
    if isinstance(space, ProjectiveSpace):
        return _line_angle
    if isinstance(space, (Grassmannian, SpdMatrices)) and \
            space.metric in ("stein", "principal_angle"):
        return None
    if isinstance(space, (Grassmannian, SpdMatrices, Euclidean)):
        return _norm_distance
    raise InvalidSpaceError(f"unknown space {space!r}")


def pair_distances(space: Space, points, pairs) -> list[float]:
    """d(points[i], points[j]) for each (i, j) in pairs.

    Each point is validated and factored once, however many pairs it is
    in; a pair's value does not depend on the other pairs or points.
    """
    forms = _distance_forms(space, points)
    formula = _pair_formula(space)
    if formula is not None:
        return [formula(forms[i], forms[j]) for i, j in pairs]
    if not pairs:
        return []
    if isinstance(space, SpdMatrices):
        divergences = stein_divergences(
            [m for m, _ in forms], [ld for _, ld in forms], pairs
        )
        return [math.sqrt(s) for s in divergences]
    stack = np.asarray(forms)
    i, j = np.asarray(pairs, dtype=int).T
    return [math.hypot(*row) for row in principal_angles(stack[i], stack[j]).tolist()]


def distance_matrix(space: Space, points) -> np.ndarray:
    """Symmetric matrix of d(p_i, p_j) with a zero diagonal: every pair
    of ``pair_distances``."""
    points = list(points)
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    d = np.zeros((n, n))
    values = pair_distances(space, points, pairs)  # validates even one point
    if pairs:
        rows, cols = zip(*pairs)
        d[rows, cols] = d[cols, rows] = values
    return d


def distance(space: Space, p, q) -> float:
    """Metric distance between two valid points of the space: the
    one-pair case of ``pair_distances``."""
    return pair_distances(space, (p, q), ((0, 1),))[0]


# ---------------------------------------------------------------------------
# point construction

def circle_equispaced(count: int) -> list[float]:
    """Angles 2*pi*k/count for k = 0..count-1."""
    if not isinstance(count, int) or count < 2:
        raise InvalidSpaceError("equispaced circle needs an integer count >= 2")
    return [TWO_PI * k / count for k in range(count)]


def equispaced_order(angles) -> int | None:
    """count if the angles are exactly the equispaced family 2*pi*k/count
    in construction order (within 1e-12 each), else None."""
    n = len(angles)
    if n < 2:
        return None
    for k, theta in enumerate(angles):
        if abs(float(theta) - TWO_PI * k / n) > 1e-12:
            return None
    return n


def sample_points(space: Space, seed: int, count: int) -> list:
    """Deterministic random points, all valid for the space."""
    if count < 1:
        raise InvalidSpaceError("count must be >= 1")
    rng = np.random.default_rng(seed)

    if isinstance(space, Circle):
        return [float(t) for t in rng.uniform(0.0, TWO_PI, count)]

    if isinstance(space, FlatTorus):
        pairs = rng.uniform(0.0, TWO_PI, (count, 2))
        return [(float(a), float(b)) for a, b in pairs]

    if isinstance(space, (Sphere, ProjectiveSpace)):
        points = []
        while len(points) < count:
            v = rng.standard_normal(space.n + 1)
            norm = float(np.linalg.norm(v))
            if norm < 1e-8:
                continue
            points.append(v / norm)
        return points

    if isinstance(space, Grassmannian):
        points = []
        for _ in range(count):
            g = rng.standard_normal((space.n, space.k))
            q, r = np.linalg.qr(g)
            # canonical representative: positive diagonal in R
            signs = np.sign(np.diag(r))
            signs[signs == 0.0] = 1.0
            points.append(q * signs)
        return points

    if isinstance(space, SpdMatrices):
        points = []
        for _ in range(count):
            g = rng.standard_normal((space.n, space.n))
            m = g @ g.T + SPD_SAMPLE_RIDGE * np.eye(space.n)
            points.append((m + m.T) / 2.0)
        return points

    if isinstance(space, Euclidean):
        return [rng.standard_normal(space.n) for _ in range(count)]

    raise InvalidSpaceError(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# text and JSON forms

def parse_space(text: str) -> Space:
    """Parse the CLI space syntax.

    circle[:scale] | sphere:n | projective:n | grassmann:k,n[:metric]
    | spd:n[:metric] | euclidean:n | torus
    """
    parts = text.strip().split(":")
    head = parts[0].lower()
    try:
        if head == "circle":
            if len(parts) == 1:
                return Circle()
            return Circle(scale=float(parts[1]))
        if head == "sphere":
            return Sphere(n=int(parts[1]))
        if head == "projective":
            return ProjectiveSpace(n=int(parts[1]))
        if head in ("grassmann", "grassmannian"):
            k_str, n_str = parts[1].split(",")
            metric = parts[2] if len(parts) > 2 else "principal_angle"
            return Grassmannian(k=int(k_str), n=int(n_str), metric=metric)
        if head == "spd":
            metric = parts[2] if len(parts) > 2 else "frobenius"
            return SpdMatrices(n=int(parts[1]), metric=metric)
        if head == "euclidean":
            return Euclidean(n=int(parts[1]))
        if head == "torus":
            return FlatTorus()
    except (IndexError, ValueError) as exc:
        raise InvalidSpaceError(f"cannot parse space {text!r}: {exc}") from None
    raise InvalidSpaceError(f"unknown space {text!r}")


def space_to_json(space: Space) -> dict:
    if isinstance(space, Circle):
        return {"variant": "circle", "scale": space.scale}
    if isinstance(space, Sphere):
        return {"variant": "sphere", "n": space.n}
    if isinstance(space, ProjectiveSpace):
        return {"variant": "projective", "n": space.n}
    if isinstance(space, Grassmannian):
        return {"variant": "grassmannian", "k": space.k, "n": space.n, "metric": space.metric}
    if isinstance(space, SpdMatrices):
        return {"variant": "spd", "n": space.n, "metric": space.metric}
    if isinstance(space, Euclidean):
        return {"variant": "euclidean", "n": space.n}
    if isinstance(space, FlatTorus):
        return {"variant": "torus"}
    raise InvalidSpaceError(f"unknown space {space!r}")


def space_from_json(obj: dict) -> Space:
    variant = obj.get("variant")
    if variant == "circle":
        return Circle(scale=float(obj.get("scale", 1.0)))
    if variant == "sphere":
        return Sphere(n=int(obj["n"]))
    if variant == "projective":
        return ProjectiveSpace(n=int(obj["n"]))
    if variant == "grassmannian":
        return Grassmannian(
            k=int(obj["k"]), n=int(obj["n"]),
            metric=obj.get("metric", "principal_angle"),
        )
    if variant == "spd":
        return SpdMatrices(n=int(obj["n"]), metric=obj.get("metric", "frobenius"))
    if variant == "euclidean":
        return Euclidean(n=int(obj["n"]))
    if variant == "torus":
        return FlatTorus()
    raise InvalidSpaceError(f"unknown space variant {variant!r}")


def point_to_json(space: Space, point, digits: int = DOUBLE_DIGITS):
    """Variant-matched nested lists; numbers become decimal strings when
    digits exceed double precision."""
    enc = lambda x: number_to_json(x, digits)
    if isinstance(space, Circle):
        return enc(point)
    if isinstance(space, FlatTorus):
        return [enc(point[0]), enc(point[1])]
    if isinstance(space, (Sphere, ProjectiveSpace, Euclidean)):
        return [enc(x) for x in np.asarray(point).tolist()]
    if isinstance(space, (Grassmannian, SpdMatrices)):
        return [[enc(x) for x in row] for row in np.asarray(point).tolist()]
    raise InvalidSpaceError(f"unknown space {space!r}")


def point_from_json(space: Space, obj, digits: int = DOUBLE_DIGITS):
    dec = lambda x: number_from_json(x, digits)
    if isinstance(space, Circle):
        return dec(obj)
    if isinstance(space, FlatTorus):
        return (dec(obj[0]), dec(obj[1]))
    if isinstance(space, (Sphere, ProjectiveSpace, Euclidean)):
        return np.array([float(dec(x)) for x in obj], dtype=float)
    if isinstance(space, (Grassmannian, SpdMatrices)):
        return np.array([[float(dec(x)) for x in row] for row in obj], dtype=float)
    raise InvalidSpaceError(f"unknown space {space!r}")


def pointset_to_json(space: Space, points, digits: int = DOUBLE_DIGITS) -> dict:
    return {
        "space": space_to_json(space),
        "points": [point_to_json(space, p, digits) for p in points],
    }


def pointset_from_json(obj: dict, digits: int = DOUBLE_DIGITS) -> tuple[Space, list]:
    space = space_from_json(obj["space"])
    points = [point_from_json(space, p, digits) for p in obj["points"]]
    return space, points
