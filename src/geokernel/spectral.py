"""Symmetric eigensolvers and PSD verdicts.

Two routes to a spectrum: LAPACK's dense symmetric eigensolver (double
precision, any symmetric matrix) and an exact discrete-Fourier path for
the Gram of N equispaced circle points, a circulant formed from
(lambda, N) alone (double or wide precision).  Keeping both lets every
circulant result be cross-checked against dense linear algebra.

The dense route only searches: a witness's violation is re-derived from
raw points, bandwidth and coefficients by the certificate verifier,
which uses no eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import mul

import numpy as np

from .partial_theta import mu_of_lambda
from .precision import (DOUBLE_DIGITS, cosine_table, gaussian_row, lift, numeric, resolve_digits,
                        unlift)

class AsymmetricInputError(ValueError):
    """Dense input matrix is not square and symmetric."""


class ConvergenceError(RuntimeError):
    """A spectrum failed its consistency check; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted spectrum of a symmetric matrix plus how it was obtained.

    eigenvalues are ascending; fourier_indices, present only on the
    circulant path, maps each sorted eigenvalue back to its frequency
    index j; eigenvectors, present only on the dense path, holds the
    matching unit eigenvectors as columns.
    """

    eigenvalues: tuple
    min_eigenvalue: float
    method: str
    precision_digits: int
    fourier_indices: tuple[int, ...] | None = None
    eigenvectors: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class PdVerdict:
    verdict: str  # positive_definite | positive_semidefinite | not_psd
    tolerance: float


def _largest(m: np.ndarray) -> np.ndarray:
    """The largest entry of each matrix of a stack (0 for an empty one)."""
    return np.max(m, axis=(-2, -1), initial=0.0)


def _check_symmetric(m: np.ndarray) -> None:
    """Each matrix of a stack, or the one matrix, must be square and
    symmetric to 1e-12 relative."""
    if m.shape[-2] != m.shape[-1]:
        raise AsymmetricInputError(f"matrix is {m.shape[-2]}x{m.shape[-1]}, not square")
    scale = np.maximum(_largest(np.abs(m)), 1e-300)
    if (_largest(np.abs(m - m.swapaxes(-2, -1))) > 1e-12 * scale).any():
        raise AsymmetricInputError("asymmetric input beyond 1e-12 relative")


def jacobi_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvector columns) of a symmetric matrix,
    or of each of a stack, from LAPACK's symmetric eigensolver
    (``numpy.linalg.eigh``)."""
    a = np.array(matrix, dtype=float)
    _check_symmetric(a)
    return np.linalg.eigh(a)


def jacobi_spectra(matrices) -> list[SpectrumReport]:
    """Dense double-precision spectra of a stack of symmetric matrices,
    from one stacked eigensolve; each is the one :func:`jacobi_eigenvalues`
    gives for its matrix alone, bit for bit.

    The method label stays "jacobi": it names the dense route in stored
    certificates and CLI output.  Each matrix's eigenvalues must sum to
    its trace, which also rejects a spectrum with non-finite entries.
    """
    a = np.array(matrices, dtype=float)
    values, vectors = jacobi_eigensystem(a)
    scale = np.maximum(1.0, _largest(np.abs(a)))
    drift = np.abs(np.trace(a, axis1=-2, axis2=-1) - np.sum(values, axis=-1))
    bad = np.flatnonzero(~(drift <= 1e-10 * a.shape[-1] * scale))
    if bad.size:
        raise ConvergenceError("trace not conserved by the eigensolver", float(drift[bad[0]]))
    return [
        SpectrumReport(
            eigenvalues=tuple(w),
            min_eigenvalue=w[0],
            method="jacobi",
            precision_digits=DOUBLE_DIGITS,
            eigenvectors=v,
        )
        for w, v in zip(values.tolist(), vectors)
    ]


def jacobi_eigenvalues(matrix) -> SpectrumReport:
    """Dense double-precision spectrum of a symmetric matrix: the
    one-matrix case of :func:`jacobi_spectra`."""
    return jacobi_spectra([matrix])[0]


def equispaced_half_row(mu, n: int, x) -> list:
    """exp(-mu k^2/N^2) for k <= N/2 in the :func:`~geokernel.precision.numeric`
    arithmetic ``x`` (wide, :func:`~geokernel.precision.gaussian_row`'s): the
    equispaced kernel row's distinct values, which :func:`circulant_eigenvalues`
    and :func:`~geokernel.circle.w_half` sum."""
    if x.wide:
        return list(islice(gaussian_row(mu, 0, n), n // 2 + 1))
    nn = x.num(n) * n
    return [x.exp(-mu * k ** 2 / nn) for k in range(n // 2 + 1)]


def circulant_eigenvalues(lam, n: int, precision_digits: int | None = None,
                          scale=1.0) -> SpectrumReport:
    """Spectrum of the Gram of N equispaced points on the circle of the
    given scale at bandwidth lambda: the circulant with first row
    row[k] = half[min(k, N-k)] for the :func:`equispaced_half_row` of
    mu = :func:`~geokernel.partial_theta.mu_of_lambda` times scale^2 (wide,
    each the exact value for that mu rounded once).

    w_j = sum_k row[k] C[jk mod N], C[m] = cos(2 pi m/N), and w_{N-j} is
    the same sum as w_j, so only j <= N/2 are formed and the rest copied.
    At double precision the products are summed with exact compensated
    summation (math.fsum).  Above it, the half row and the
    :func:`~geokernel.precision.cosine_table` (each entry the exact cosine
    rounded once, and exactly symmetric) are lifted once to integer fixed
    point (:func:`~geokernel.precision.lift`), and the exact integer
    products are regrouped: k and N-k fold into 2 row[k] C[jk], so only
    k <= N/2 are multiplied, and the sums E_j and O_j over even and odd k
    give w_j = E_j + O_j, and for even N also w_{N/2-j} = E_j - O_j, so
    only j <= N/4 are formed.  Either way w_j is the exactly rounded sum
    of its products.  Eigenvalues come back ascending with their frequency
    indices.
    """
    digits = resolve_digits(precision_digits)
    if n < 2:
        raise ValueError("need at least two points")
    with numeric(digits) as x:
        half = equispaced_half_row(mu_of_lambda(lam, digits) * x.num(scale) ** 2, n, x)
        if digits <= DOUBLE_DIGITS:
            base = [x.cos(2 * x.pi * m / n) for m in range(n)]
            values = [
                x.fsum(half[min(k, n - k)] * base[(j * k) % n] for k in range(n))
                for j in range(n // 2 + 1)
            ]
        else:
            (ints, exp_r), (cosines, exp_b) = lift(half), lift(cosine_table(n))
            exp = exp_r + exp_b
            # row[N-k] = row[k] and C[-jk] = C[jk]: each 0 < k < N/2 carries
            # 2 row[k]; the k = N/2 of even N is unpaired
            twice = [ints[0], *(2 * v for v in ints[1:(n + 1) // 2]), *ints[(n + 1) // 2:]]
            even, odd = twice[0::2], twice[1::2]
            values = [None] * (n // 2 + 1)
            for j in range(n // 2 + 1 if n % 2 else n // 4 + 1):
                e = sum(map(mul, even, [cosines[2 * j * k % n] for k in range(len(even))]))
                o = sum(map(mul, odd, [cosines[j * (2 * k + 1) % n] for k in range(len(odd))]))
                values[j] = unlift(e + o, exp)
                if not n % 2:  # C[(N/2 - j) k] is C[jk] for even k and -C[jk] for odd k
                    values[n // 2 - j] = unlift(e - o, exp)
        values += [values[n - j] for j in range(n // 2 + 1, n)]
    order = sorted(range(n), key=lambda j: values[j])
    eigs = tuple(values[j] for j in order)
    return SpectrumReport(
        eigenvalues=eigs,
        min_eigenvalue=eigs[0],
        method="circulant",
        precision_digits=digits,
        fourier_indices=tuple(order),
    )


def psd_tolerance(order: int, precision_digits: int = DOUBLE_DIGITS) -> float:
    """Halfwidth of the PSD tolerance band: 10^-(p-7) * N at p digits,
    1e-10 * N at double precision (p = 17), tighter with each wide digit
    as the circulant path's rounding floor drops to ~10^-p."""
    return 10.0 ** -(precision_digits - 7) * order


def pd_verdict(report: SpectrumReport) -> PdVerdict:
    """Classify a spectrum against the order-scaled band."""
    tol = psd_tolerance(report.order, report.precision_digits)
    lo = report.min_eigenvalue
    if lo < -tol:
        verdict = "not_psd"
    elif lo > tol:
        verdict = "positive_definite"
    else:
        verdict = "positive_semidefinite"
    return PdVerdict(verdict=verdict, tolerance=tol)


def min_eigenvector(report: SpectrumReport) -> tuple:
    """Unit eigenvector of ``report``'s minimum eigenvalue, in the
    report's arithmetic: the cosine mode of its frequency on the
    circulant path, the first eigenvector column on the dense path."""
    if report.fourier_indices is not None:
        n, j = report.order, report.fourier_indices[0]
        with numeric(report.precision_digits) as x:
            comps = [x.cos(2 * x.pi * j * k / n) for k in range(n)]
            norm = x.sqrt(x.fsum(c * c for c in comps))
            return tuple(c / norm for c in comps)
    v = report.eigenvectors[:, 0]
    # canonical sign: first component of visible magnitude is positive
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0:
                v = -v
            break
    return tuple(float(c) for c in v)
