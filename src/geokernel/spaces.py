"""Catalog of metric spaces: descriptors, point validation, exact distances.

Each space is a small frozen descriptor class, listed once in
:data:`VARIANTS`, that holds its parameters (whose fields also give the
text and JSON forms), its one point check, distance formula, sampler
and, when it contains one, its isometric circle (``circle_scale`` and
``_circle_points``).
Points are plain payloads (an angle, an angle pair, a unit vector, an
orthonormal matrix, an SPD matrix).  Distances follow the closed-form
geodesic or matrix-metric formulas: unit vectors through the half-angle
form, which needs no clamp, and only principal angles check that no
cosine exceeds 1 beyond rounding.  ``pair_distances(space, points, i,
j)`` validates and factors each point once and derives every pair
(i[m], j[m]) of two index arrays from that; ``distance`` (one pair),
``distance_matrix`` and the Gram (every pair i < j) are its callers.

A point set goes through one stacked numpy pass: the space's check reads
every point as one array (wide angles through ``float``, save at 0 and
2*pi), and when any point fails it is re-run on one-point sets, which
names the first invalid point; then each space's ``_distances(forms, i,
j)`` evaluates all pairs at once from two index arrays, pair m joining
points i[m] and j[m].
Every value is the one the scalar formula gives, bit for bit: inner
products and norms are row-wise BLAS dots (``_dots``), which round like
``np.dot`` and ``np.linalg.norm`` of one pair, and the transcendental
functions are those of :mod:`math`, applied elementwise, since numpy's
SIMD versions may round differently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from itertools import groupby

import mpmath as mp
import numpy as np

from .precision import DOUBLE_DIGITS, number_from_json, number_to_json, numeric
from .spectral import jacobi_eigensystem

TWO_PI = 2.0 * math.pi

# principal angles' SVD cosines may exceed 1 by rounding; beyond this the input was bad
CLAMP_EXCESS = 1e-8
UNIT_NORM_TOL = 1e-12
ORTHONORMAL_TOL = 1e-10
SYMMETRY_TOL = 1e-12

SPD_SAMPLE_RIDGE = 1e-6


class InvalidSpaceError(ValueError):
    """Descriptor parameters outside their allowed ranges."""


class InvalidPointError(ValueError):
    """Point payload fails the invariants of its space."""


def _require(cond: bool, message: str, error: type = InvalidSpaceError) -> None:
    if not cond:
        raise error(message)


# ---------------------------------------------------------------------------
# payload checks: each reads a whole point set and raises when any point
# fails; ``check_points`` then names the first

def _angles(values) -> np.ndarray:
    """Angle payloads, one number each, as one float array; else
    InvalidPointError for the first fault in this order: a payload that is
    not a real number (text included, though ``float`` reads it), one that
    is not finite (or past the double range), one outside [0, 2*pi), where a
    non-float's float is 0 or 2*pi by its own value (an mpf against the working 2*pi)."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged
        a = None
    own = {}  # index: verdict on a payload's own value
    if a is None or a.dtype.kind not in "biuf" or a.shape != (len(values),):
        # one float() each: wide numbers, and whatever numpy does not read as numbers
        try:
            if any(isinstance(v, (str, bytes)) for v in values):
                raise TypeError
            a = np.array([float(v) for v in values])
            for k in np.flatnonzero((a == 0) | (a == TWO_PI)).tolist():
                if not isinstance(v := values[k], float):
                    own[k] = 0 <= v and (a[k] == 0 or isinstance(v, mp.mpf) and v < 2 * mp.pi)
        except (TypeError, ValueError):
            raise InvalidPointError("angle payload is not a real number") from None
        except OverflowError:
            raise InvalidPointError("angle is not finite") from None
    a = np.asarray(a, dtype=float)
    _require(np.isfinite(a).all(), "angle is not finite", InvalidPointError)
    inside = (0.0 <= a) & (a < TWO_PI)
    inside[list(own)] = list(own.values())
    _require(inside.all(), "angle outside [0, 2*pi)", InvalidPointError)
    return a


def _floats(points, shape: tuple, noun: str) -> np.ndarray:
    """The payloads as one float array of shape (P, *shape) with finite
    number (not text) entries; else InvalidPointError for the first point
    at fault, with numpy's own text where numpy cannot read it as floats."""
    if not len(points):
        return np.empty((0, *shape))
    try:
        a = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a ragged set, or entries numpy cannot read
        a = None
    if a is None or a.shape != (len(points), *shape):
        for point in points:  # read alone, the first point at fault raises
            try:
                got = np.asarray(point, dtype=float).shape
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidPointError(str(exc)) from None
            if got != shape:
                size = f"{noun} of length {shape[0]}" if len(shape) == 1 else \
                    f"{shape[0]}x{shape[1]} {noun}"
                raise InvalidPointError(f"expected {size}, got shape {got}")
    raw = np.asarray(points)  # numpy reads "1" as 1.0: text leaves a stack of text or objects
    _require(raw.dtype.kind not in "OSU" or not any(isinstance(v, (str, bytes)) for v in raw.flat),
             f"{noun} has text entries", InvalidPointError)
    _require(np.isfinite(a).all(), f"{noun} has non-finite entries", InvalidPointError)
    return a


# ---------------------------------------------------------------------------
# distance formulas

# math functions elementwise: numpy's SIMD arctan2, hypot, cos and sin
# round some inputs differently depending on where they sit in the
# array, and a pair's distance must not depend on the batch it was
# computed in
_atan2 = np.frompyfunc(math.atan2, 2, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)
_cos = np.frompyfunc(math.cos, 1, 1)
_sin = np.frompyfunc(math.sin, 1, 1)
_log = np.frompyfunc(math.log, 1, 1)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of a with the same row of b, two (M, d)
    stacks.  Each is one BLAS dot, so it equals ``np.dot`` of the pair bit
    for bit; ``norm(axis=1)``, ``einsum`` and ``sum`` add in other orders."""
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(len(a))


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm of each entry of a stack, each equal to
    ``np.linalg.norm`` of that entry bit for bit."""
    flat = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.sqrt(_dots(flat, flat))


def circle_arc(theta_p, theta_q, scale: float = 1.0):
    """Shorter arc between two angles, or elementwise between two arrays
    of them, scaled."""
    delta = np.abs(np.subtract(theta_p, theta_q))
    return scale * np.minimum(delta, TWO_PI - delta)


def matrix_log(m: np.ndarray) -> np.ndarray:
    """Log of an SPD matrix through its eigensystem."""
    values, vectors = jacobi_eigensystem(m)
    if values[0] <= 0.0:
        raise InvalidPointError("matrix log needs strictly positive eigenvalues")
    return (vectors * np.log(values)) @ vectors.T


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
            f"cosine {float(cosines.max())!r} of a principal angle exceeds 1 beyond rounding"
        )
    # cosines descend and sines ascend along the same angle order
    return _atan2(sines[..., ::-1], cosines).astype(float)


def chol_logdets(lowers) -> np.ndarray:
    """log det(L L^T) for each Cholesky factor L of a stack: twice the
    compensated sum of the logs of L's diagonal."""
    logs = _log(np.diagonal(lowers, axis1=-2, axis2=-1)).tolist()
    return 2.0 * np.array([math.fsum(row) for row in logs], dtype=float)


def stein_divergences(matrices, lowers, i, j) -> np.ndarray:
    """S(A_i, A_j) = logdet((A_i + A_j)/2) - (logdet A_i + logdet A_j)/2
    for each pair of the index arrays i and j, given every matrix's
    Cholesky factor.

    All midpoints are factored by one stacked Cholesky.  S is zero iff
    A_i = A_j and mathematically nonnegative (concavity of logdet), so
    the rounding residue below zero is clipped.
    """
    stack = np.asarray(matrices, dtype=float)
    logdets = chol_logdets(np.asarray(lowers))
    try:
        middles = chol_logdets(np.linalg.cholesky((stack[i] + stack[j]) / 2.0))
    except np.linalg.LinAlgError:
        raise InvalidPointError("stein midpoint is not positive definite") from None
    s = middles - 0.5 * (logdets[i] + logdets[j])
    return np.where(s > 0.0, s, 0.0)  # max(0.0, s), which maps nan to 0 too


# ---------------------------------------------------------------------------
# descriptors

# field annotation -> (types its value may have, conversion from text)
_FIELD_TYPES = {"int": (int, int), "float": ((int, float), float), "str": (str, str)}


class Space:
    """Base of the descriptors: frozen dataclasses that set ``variant``
    and define ``_check(points)`` and ``_sample(rng, count)``.
    ``_check`` is the one point check: it reads a whole point set as one
    stack and returns it in the form the distance formulas read, one
    entry per point, or raises InvalidPointError when any point fails; a
    point's verdict depends on that point alone.  ``_distances(forms, i,
    j)`` evaluates all pairs (i[m], j[m]) of two index arrays at once, by
    default the norm of the difference.

    A space that contains an isometric copy of Circle{circle_scale}
    sets ``circle_scale`` and maps angles of that circle to their image
    points with ``_circle_points(thetas)``."""

    metrics: tuple = ()  # the values a str (metric) field may take
    angles = 0  # payload: this many exact angles, or a float array if 0
    circle_scale = None

    def __post_init__(self):
        # numbers are positive, ints at least 1; a bool is no number here
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type][0]):
                raise InvalidSpaceError(f"{self.variant} {f.name} must be {f.type}, got {value!r}")
            if f.type == "int" and value < 1:
                raise InvalidSpaceError(f"{self.variant} needs {f.name} >= 1")
            if f.type == "float" and not (math.isfinite(value) and value > 0):
                raise InvalidSpaceError(f"{self.variant} {f.name} must be a positive real")
            if f.type == "str" and value not in self.metrics:
                raise InvalidSpaceError(f"unknown {self.variant} {f.name} {value!r}")

    def _distances(self, forms, i, j):
        stack = np.asarray(forms, dtype=float)
        return _norms(stack[i] - stack[j])


@dataclass(frozen=True)
class Circle(Space):
    """Circle of circumference 2*pi*scale; points are angles in [0, 2*pi)."""

    scale: float = 1.0
    variant = "circle"
    angles = 1
    _check = staticmethod(_angles)

    def _distances(self, forms, i, j):
        return circle_arc(forms[i], forms[j], self.scale)

    def _sample(self, rng, count):
        return [float(t) for t in rng.uniform(0.0, TWO_PI, count)]


class _UnitVectors(Space):
    lines = False  # projective space: v and -v are one point

    def _check(self, points):
        v = _floats(points, (self.n + 1,), "vector")
        _require((np.abs(_norms(v) - 1.0) <= UNIT_NORM_TOL).all(), "norm != 1", InvalidPointError)
        return v

    def _distances(self, forms, i, j):
        """Angle between unit vectors (between lines: q is first replaced
        by -q where <p, q> < 0): arccos of the inner product, evaluated
        as 2*atan2(|p-q|, |p+q|).

        The direct arccos turns rounding in a near-collinear inner product
        into ~1e-8 of angle; the half-angle form keeps equal inputs at
        exactly 0 and opposite inputs at exactly pi.
        """
        p, q = forms[i], forms[j]
        minus, plus = _norms(p - q), _norms(p + q)
        if self.lines:
            # negating q swaps p - q with p + q, exactly
            flip = _dots(p, q) < 0.0
            minus, plus = np.where(flip, plus, minus), np.where(flip, minus, plus)
        return 2.0 * _atan2(minus, plus)

    def _circle_points(self, thetas):
        """(cos t, sin t, 0, ..., 0) with t = circle_scale * theta, one row
        per angle: a great circle, or on projective space the lines
        through it, which turn by |dt|/2 as t varies (antipodal t give
        the same line)."""
        t = np.asarray(thetas, dtype=float) * self.circle_scale
        v = np.zeros((len(t), self.n + 1))
        v[:, 0] = _cos(t)
        v[:, 1] = _sin(t)
        return v

    def _sample(self, rng, count):
        v = rng.standard_normal((count, self.n + 1))
        return list(v / _norms(v)[:, None])


@dataclass(frozen=True)
class Sphere(_UnitVectors):
    """Unit n-sphere in R^(n+1) with the great-circle (arc) distance."""

    n: int
    variant = "sphere"
    circle_scale = 1.0


@dataclass(frozen=True)
class ProjectiveSpace(_UnitVectors):
    """Real projective n-space: antipodal unit vectors identified."""

    n: int
    variant = "projective"
    circle_scale = 0.5
    lines = True


@dataclass(frozen=True)
class Grassmannian(Space):
    """k-planes in R^n; metric is principal_angle (geodesic) or projection
    (the distance of the projectors)."""

    k: int
    n: int
    metric: str = "principal_angle"
    variant = "grassmannian"
    metrics = ("principal_angle", "projection")

    def __post_init__(self):
        super().__post_init__()
        _require(self.k < self.n, "grassmannian needs 1 <= k < n")

    @property
    def circle_scale(self):
        # the projection metric bends arcs (chord of the angle): no circle
        return 0.5 if self.metric == "principal_angle" else None

    def _circle_points(self, thetas):
        """span{cos(t/2) e_1 + sin(t/2) e_(k+1), e_2, ..., e_k} for each
        angle t: only the first principal angle moves, by |dt|/2."""
        basis = np.eye(self.n)
        t = np.asarray(thetas, dtype=float) / 2.0
        frames = np.empty((len(t), self.n, self.k))
        frames[:, :, 0] = np.multiply.outer(_cos(t).astype(float), basis[:, 0]) + \
            np.multiply.outer(_sin(t).astype(float), basis[:, self.k])
        frames[:, :, 1:] = basis[:, 1:self.k]
        return frames

    def _check(self, points):  # the frames, or their projectors for the projection metric
        a = _floats(points, (self.n, self.k), "representative")
        _require((np.abs(a.swapaxes(1, 2) @ a - np.eye(self.k)) <= ORTHONORMAL_TOL).all(),
                 "columns not orthonormal", InvalidPointError)
        return a @ a.swapaxes(1, 2) if self.metric == "projection" else a

    def _distances(self, forms, i, j):
        if self.metric == "projection":
            return super()._distances(forms, i, j)
        # the geodesic: one stacked LAPACK call over all pairs
        return [math.hypot(*row) for row in principal_angles(forms[i], forms[j]).tolist()]

    def _sample(self, rng, count):
        qrs = (np.linalg.qr(rng.standard_normal((self.n, self.k))) for _ in range(count))
        # canonical representative: nonnegative diagonal in R
        return [q * np.where(np.diag(r) < 0.0, -1.0, 1.0) for q, r in qrs]


@dataclass(frozen=True)
class SpdMatrices(Space):
    """Symmetric positive definite n x n matrices under a chosen metric.
    A checked point is the matrix (frobenius), its log (log_euclidean) or
    the matrix stacked on its Cholesky factor (stein)."""

    n: int
    metric: str = "frobenius"
    variant = "spd"
    metrics = ("frobenius", "log_euclidean", "stein")

    def _check(self, points):
        m = _floats(points, (self.n, self.n), "matrix")
        scale = np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
        _require((np.abs(m - m.swapaxes(1, 2)).max(axis=(1, 2)) <= SYMMETRY_TOL * scale).all(),
                 "not symmetric", InvalidPointError)
        try:
            lowers = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise InvalidPointError("not positive definite") from None
        if self.metric == "stein":
            return np.stack((m, lowers), axis=1)
        return np.array([matrix_log(a) for a in m]) if self.metric == "log_euclidean" else m

    def _distances(self, forms, i, j):
        if self.metric != "stein":
            return super()._distances(forms, i, j)
        return np.sqrt(stein_divergences(forms[:, 0], forms[:, 1], i, j))

    def _sample(self, rng, count):
        # one draw for the stack: the stream a draw per matrix would read
        g = rng.standard_normal((count, self.n, self.n))
        m = g @ g.swapaxes(1, 2) + SPD_SAMPLE_RIDGE * np.eye(self.n)
        return list((m + m.swapaxes(1, 2)) / 2.0)


@dataclass(frozen=True)
class Euclidean(Space):
    n: int
    variant = "euclidean"

    def _check(self, points):
        return _floats(points, (self.n,), "vector")

    def _sample(self, rng, count):
        return list(rng.standard_normal((count, self.n)))


@dataclass(frozen=True)
class FlatTorus(Space):
    """Product of two unit circles; points are angle pairs, distances add
    in quadrature.  Serves as the flat target that still contains an
    isometric circle."""

    variant = "torus"
    angles = 2
    scale = 1.0  # of both angles; not a field, so the text and JSON forms name none
    circle_scale = 1.0

    def _circle_points(self, thetas):  # the second angle pinned at 0
        return [(theta, 0.0) for theta in thetas]

    def _check(self, points):
        try:
            columns = [a for a, _ in points], [b for _, b in points]
        except (TypeError, ValueError):
            raise InvalidPointError("torus point must be a pair of angles") from None
        # all first angles, then all second ones: a pair's first fault is named
        return np.column_stack([_angles(column) for column in columns])

    def _distances(self, forms, i, j):
        return _hypot(circle_arc(forms[i, 0], forms[j, 0]), circle_arc(forms[i, 1], forms[j, 1]))

    def _sample(self, rng, count):
        return [(float(a), float(b)) for a, b in rng.uniform(0.0, TWO_PI, (count, 2))]


# variant name -> descriptor class: the one list of the spaces
VARIANTS = {cls.variant: cls for cls in (
    Circle, Sphere, ProjectiveSpace, Grassmannian, SpdMatrices, Euclidean, FlatTorus,
)}


def require_valid(space: Space, point):
    """The payload in the form the distance formulas read (a float angle,
    an angle pair or an array; see each space's ``_check``): the space's
    check of the one-point set; InvalidPointError naming the violated
    invariant otherwise."""
    try:
        return space._check([point])[0]
    except InvalidPointError as exc:
        raise InvalidPointError(f"{space.variant}: {exc}") from None


def _each_point(space: Space, points, read) -> list:
    """``read(p)`` for each of ``points``; the first that fails raises
    InvalidPointError naming its index and the space."""
    out = []
    for i, p in enumerate(points):
        try:
            out.append(read(p))
        except (TypeError, ValueError, OverflowError) as exc:  # InvalidPointError is a ValueError
            raise InvalidPointError(f"point {i} of {space!r}: {exc}") from None
    return out


def check_points(space: Space, points):
    """The points in the form the distance formulas read, checked as one
    stack by the space's ``_check``.  When any fails, the check is re-run
    on one-point sets (``require_valid``), so InvalidPointError names the
    first invalid point's index and the space."""
    try:
        return space._check(points)
    except (TypeError, ValueError, OverflowError):
        _each_point(space, points, lambda p: require_valid(space, p))
        raise


def pair_distances(space: Space, points, i, j) -> np.ndarray:
    """d(points[i[m]], points[j[m]]) for each m, two index arrays.

    The points are validated and put in the form their metric reads once
    (see ``check_points``), however many pairs each is in; all pairs are
    then evaluated together, and a pair's value does not depend on the
    others.
    """
    forms = check_points(space, points)
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    return np.asarray(space._distances(forms, i, j) if len(i) else [], dtype=float)


def distance_matrix(space: Space, points) -> np.ndarray:
    """Symmetric matrix of d(p_i, p_j) with a zero diagonal: every pair
    of ``pair_distances``."""
    points = list(points)
    rows, cols = np.triu_indices(len(points), 1)
    d = np.zeros((len(points), len(points)))
    d[rows, cols] = d[cols, rows] = pair_distances(space, points, rows, cols)
    return d


def distance(space: Space, p, q) -> float:
    """Metric distance between two valid points of the space: the
    one-pair case of ``pair_distances``."""
    return float(pair_distances(space, (p, q), [0], [1])[0])


# ---------------------------------------------------------------------------
# point construction

def circle_equispaced(count: int) -> list[float]:
    """Angles 2*pi*k/count for k = 0..count-1."""
    if not isinstance(count, int) or count < 2:
        raise InvalidSpaceError("equispaced circle needs an integer count >= 2")
    return [TWO_PI * k / count for k in range(count)]


def equispaced_order(angles) -> int | None:
    """count if the angles are exactly the family ``circle_equispaced(count)``
    in construction order, else None: each nonnegative and within
    max(1e-12, 8 N 2^-53 2*pi) of 2*pi*k/N, twice the bound of a witness's
    exact progression k*h at 17 digits (``circle._progression``).  A
    payload that is not a real number is left for the point check to name."""
    n = len(angles)
    if n < 2:
        return None
    tol = max(1e-12, 8 * n * TWO_PI * 2.0 ** -53)
    try:
        # a negated test, since a nan angle fails every comparison
        if not all(theta >= 0 and abs(float(theta) - target) <= tol
                   for theta, target in zip(angles, circle_equispaced(n))):
            return None
    except (TypeError, ValueError):
        return None
    return n


def sample_points(space: Space, seed, count: int) -> list:
    """Deterministic random points, all valid for the space, drawn from
    ``np.random.default_rng(seed)``: a seed, or a Generator drawn from as
    it stands."""
    if count < 1:
        raise InvalidSpaceError("count must be >= 1")
    return space._sample(np.random.default_rng(seed), count)


# ---------------------------------------------------------------------------
# text and JSON forms

def parse_space(text: str) -> Space:
    """Parse the CLI space syntax.

    circle[:scale] | sphere:n | projective:n | grassmann:k,n[:metric]
    | spd:n[:metric] | euclidean:n | torus

    After the variant name (any case), the descriptor's fields in order:
    one ``:`` group per run of same-typed fields, joined by ``,`` within a
    run.  Defaulted groups may be left off; extra groups are ignored.
    """
    head, *groups = text.strip().split(":")
    head = head.lower()
    cls = VARIANTS.get({"grassmann": "grassmannian"}.get(head, head))
    if cls is None:
        raise InvalidSpaceError(f"unknown space {text!r}")
    values = {}
    try:
        for (_, run), group in zip(groupby(fields(cls), key=lambda f: f.type), groups):
            run, items = list(run), group.split(",")
            if len(items) != len(run):
                raise ValueError(f"expected {','.join(f.name for f in run)}, got {group!r}")
            values.update((f.name, _FIELD_TYPES[f.type][1](v)) for f, v in zip(run, items))
        return cls(**values)
    except (TypeError, ValueError) as exc:  # a bad value, or a field left off
        raise InvalidSpaceError(f"cannot parse space {text!r}: {exc}") from None


def space_to_json(space: Space) -> dict:
    return {"variant": space.variant, **asdict(space)}


def space_from_json(obj) -> Space:
    """Inverse of :func:`space_to_json`; a field left out takes its
    default, or raises TypeError when it has none."""
    variant = obj.get("variant") if isinstance(obj, dict) else None
    cls = VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise InvalidSpaceError(f"no known space variant in {obj!r}")
    return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


def _nested(obj, leaf):
    """``obj`` with ``leaf`` applied to each number in its nested lists."""
    return [_nested(x, leaf) for x in obj] if isinstance(obj, list) else leaf(obj)


def point_to_json(point, digits: int = DOUBLE_DIGITS):
    """The payload as it nests (an angle, an angle pair, a vector or a
    matrix), its numbers decimal strings when digits exceed double
    precision."""
    return _nested(np.asarray(point).tolist(), lambda x: number_to_json(x, digits))


def point_from_json(space: Space, obj, digits: int = DOUBLE_DIGITS):
    """Inverse of :func:`point_to_json`.  Angles (a circle's number, a
    torus's list of exactly two) keep the working precision; vectors and
    matrices become float arrays."""
    dec = lambda x: number_from_json(x, digits)
    if not space.angles:
        return np.array(_nested(obj, dec), dtype=float)
    one = space.angles == 1
    if isinstance(obj, list) == one or not one and len(obj) != space.angles:
        raise InvalidPointError(
            "expected one angle, got a list" if one else f"expected a list of {space.angles} angles"
        )
    return dec(obj) if one else tuple(map(dec, obj))


def pointset_to_json(space: Space, points, digits: int = DOUBLE_DIGITS) -> dict:
    with numeric(digits):  # once for every number below
        return {
            "space": space_to_json(space),
            "points": [point_to_json(p, digits) for p in points],
        }


def pointset_from_json(obj: dict, digits: int = DOUBLE_DIGITS) -> tuple[Space, list]:
    if not isinstance(obj, dict):
        raise InvalidSpaceError(f"a point set is a JSON object, got {type(obj).__name__}")
    for key in ("space", "points"):
        if key not in obj:
            raise InvalidSpaceError(f"point set has no {key!r} entry")
    if not isinstance(obj["points"], list):
        raise InvalidSpaceError(
            f"point set entry 'points' must be a list, got {type(obj['points']).__name__}"
        )
    space = space_from_json(obj["space"])
    with numeric(digits):  # once for every number below
        return space, _each_point(space, obj["points"], lambda p: point_from_json(space, p, digits))
