"""Gaussian kernel evaluation and Gram matrix assembly.

The kernel is exp(-lambda d^2) for a metric distance d.  A Gram matrix
holds only its entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spaces as sp


class GramError(ValueError):
    pass


# math.exp elementwise: numpy's SIMD exp may round differently
_exp = np.frompyfunc(math.exp, 1, 1)


def kernel_values(lam: float, distances) -> np.ndarray:
    """exp(-lambda d^2) of each of an array of distances, as ``math.exp``
    gives it; rejects a bandwidth that is not a positive real and
    negative distances."""
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0):
        raise GramError("bandwidth lambda must be a positive real")
    d = np.asarray(distances, dtype=float)
    negative = np.flatnonzero(d < 0)
    if negative.size:
        raise GramError(f"negative distance {float(d.flat[negative[0]])!r}")
    return np.asarray(_exp(-lam * d * d), dtype=float)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix.

    Diagonal entries are exactly 1 by construction and off-diagonal
    entries are computed once per unordered pair, then mirrored.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise GramError("entries must be a square matrix")
        object.__setattr__(self, "entries", e)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def gram_stack(space: sp.Space, points, lam: float, sets: int = 1) -> np.ndarray:
    """The entries of the Grams of ``sets`` point sets of one size P,
    listed one after another in ``points``, as a (sets, P, P) stack.  The
    points are checked as one set, and each set pairs only its own points
    i < j, row by row, offset by the set's start, in one
    :func:`~geokernel.spaces.pair_distances` call; a pair's value does not
    depend on the others, so each Gram is its set's :func:`gram` bit for
    bit."""
    size, rest = divmod(len(points), sets)
    if size < 1:
        raise GramError("need at least one point")
    if rest:
        raise GramError(f"{len(points)} points do not split into {sets} sets of one size")
    rows, cols = np.triu_indices(size, 1)
    start = size * np.arange(sets)[:, None]
    d = sp.pair_distances(space, points, (rows + start).ravel(), (cols + start).ravel())
    k = np.ones((sets, size, size))
    k[:, rows, cols] = k[:, cols, rows] = kernel_values(lam, d.reshape(sets, len(rows)))
    return k


def gram(space: sp.Space, points, lam: float) -> GramMatrix:
    """Gram matrix entries[i][j] = exp(-lambda d(p_i, p_j)^2): the one-set
    case of :func:`gram_stack`."""
    return GramMatrix(entries=gram_stack(space, list(points), lam)[0])
