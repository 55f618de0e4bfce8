"""Symmetric eigensolvers and PSD verdicts.

Two routes to a spectrum: a dense cyclic Jacobi solver (double precision,
any symmetric matrix) and an exact discrete-Fourier path for symmetric
circulant first rows (double or wide precision).  Keeping both lets every
circulant result be cross-checked against dense linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precision import DOUBLE_DIGITS, numeric, resolve_digits

# Convergence: off-diagonal Frobenius norm relative to the input norm.
JACOBI_OFF_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100

# PSD tolerance coefficient at double precision; at p wide digits the
# circulant path's rounding floor drops to ~10^-p, so the band scales
# as 10^-(p-7) (1e-10 is exactly the p=17 case).
PSD_TOL_COEFF = 1e-10

INVERSE_ITER_MAX = 50
INVERSE_ITER_TOL = 1e-8


class AsymmetricInputError(ValueError):
    """Input matrix or circulant row is not symmetric."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted spectrum of a symmetric matrix plus how it was obtained.

    eigenvalues are ascending; fourier_indices, present only on the
    circulant path, maps each sorted eigenvalue back to its frequency
    index j.
    """

    eigenvalues: tuple
    min_eigenvalue: float
    method: str
    precision_digits: int
    offdiag_residual: float | None = None
    fourier_indices: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class PdVerdict:
    verdict: str  # positive_definite | positive_semidefinite | not_psd
    min_eigenvalue: float
    tolerance: float


def _check_symmetric(m: np.ndarray) -> None:
    scale = np.max(np.abs(m)) if m.size else 0.0
    if m.shape[0] != m.shape[1]:
        raise AsymmetricInputError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(scale, 1e-300):
        raise AsymmetricInputError("asymmetric input beyond 1e-12 relative")


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi sweeps; returns (eigenvalues ascending, eigenvector columns).

    Rotations zero one off-diagonal pair at a time; each sweep visits all
    pairs in row order.  Stops when the off-diagonal Frobenius norm falls
    below JACOBI_OFF_TOL times the input norm.
    """
    values, vectors, _ = _jacobi_sweeps(matrix)
    return values, vectors


def _jacobi_sweeps(matrix) -> tuple[np.ndarray, np.ndarray, float]:
    a = np.array(matrix, dtype=float)
    _check_symmetric(a)
    n = a.shape[0]
    v = np.eye(n)
    norm = float(np.linalg.norm(a))
    target = JACOBI_OFF_TOL * norm
    # rotations below this cannot keep the off-norm above target
    skip = target / (10.0 * max(n, 1))
    off = _offdiag_norm(a)
    for _ in range(JACOBI_MAX_SWEEPS):
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = a[p, p], a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                new_p = c * col_p - s * col_q
                new_q = s * col_p + c * col_q
                a[:, p] = new_p
                a[p, :] = new_p
                a[:, q] = new_q
                a[q, :] = new_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
        off = _offdiag_norm(a)
    else:
        raise ConvergenceError(
            f"jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps", off
        )
    diag = np.diag(a).copy()
    order = np.argsort(diag, kind="stable")
    return diag[order], v[:, order], off


def jacobi_eigenvalues(matrix) -> SpectrumReport:
    """Dense double-precision spectrum via cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    values, _, residual = _jacobi_sweeps(a)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    n = a.shape[0]
    if abs(float(np.trace(a)) - float(np.sum(values))) > 1e-10 * n * scale:
        raise ConvergenceError("trace not conserved by rotations", residual)
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in values),
        min_eigenvalue=float(values[0]),
        method="jacobi",
        precision_digits=DOUBLE_DIGITS,
        offdiag_residual=residual,
    )


def circulant_eigenvalues(first_row, precision_digits: int | None = None) -> SpectrumReport:
    """Spectrum of the symmetric circulant with the given first row.

    w_j = sum_k row[k] cos(2 pi j k / N), evaluated with exact compensated
    summation (math.fsum) at double precision or mpmath arithmetic above
    it.  Eigenvalues come back ascending with their frequency indices.
    """
    digits = resolve_digits(precision_digits)
    row = list(first_row)
    n = len(row)
    if n < 1:
        raise ValueError("empty first row")
    _check_circulant_symmetry(row)
    with numeric(digits) as x:
        row = [x.num(v) for v in row]
        base = [x.cos(2 * x.pi * m / n) for m in range(n)]
        values = [
            x.fsum(row[k] * base[(j * k) % n] for k in range(n))
            for j in range(n)
        ]
    order = sorted(range(n), key=lambda j: values[j])
    eigs = tuple(values[j] for j in order)
    return SpectrumReport(
        eigenvalues=eigs,
        min_eigenvalue=eigs[0],
        method="circulant",
        precision_digits=digits,
        fourier_indices=tuple(order),
    )


def _check_circulant_symmetry(row) -> None:
    # rows assembled from computed distances carry a few ulp of exp/arc
    # rounding even when the configuration is exactly symmetric, so the
    # band is 8 ulp at unit scale rather than exact equality
    n = len(row)
    for k in range(1, n // 2 + 1):
        a, b = row[k], row[n - k]
        fa, fb = float(a), float(b)
        if fa == fb:
            continue
        if abs(fa - fb) > 8.0 * math.ulp(max(abs(fa), abs(fb), 1.0)):
            raise AsymmetricInputError(
                f"first row not symmetric under k -> N-k at k={k}"
            )


def psd_tolerance(order: int, precision_digits: int = DOUBLE_DIGITS, scale: float = 1.0) -> float:
    """Halfwidth of the PSD tolerance band: 1e-10 * N * scale at double
    precision; a spectrum computed at p wide digits earns the tighter
    10^-(p-7) coefficient (1e-10 is exactly the p = 17 case)."""
    coeff = PSD_TOL_COEFF if precision_digits <= DOUBLE_DIGITS \
        else 10.0 ** (-(precision_digits - 7))
    return coeff * order * scale


def pd_verdict(report: SpectrumReport, scale: float) -> PdVerdict:
    """Classify a spectrum against the order- and magnitude-scaled band."""
    tol = psd_tolerance(report.order, report.precision_digits, scale)
    lo = report.min_eigenvalue
    if lo < -tol:
        verdict = "not_psd"
    elif lo > tol:
        verdict = "positive_definite"
    else:
        verdict = "positive_semidefinite"
    return PdVerdict(verdict=verdict, min_eigenvalue=float(lo), tolerance=tol)


def min_eigenvector(matrix, target: float) -> np.ndarray:
    """Unit eigenvector for the eigenvalue nearest ``target``.

    Inverse iteration with a slightly detuned shift; the residual
    requirement is ||M c - target c|| <= 1e-8 ||M||_F.
    """
    m = np.array(matrix, dtype=float)
    _check_symmetric(m)
    n = m.shape[0]
    norm = float(np.linalg.norm(m))
    detune = 1e-11 * max(norm, 1.0)
    shifted = m - (float(target) + detune) * np.eye(n)
    x = np.ones(n) / math.sqrt(n)
    best = None
    for _ in range(INVERSE_ITER_MAX):
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            detune *= 10.0
            shifted = m - (float(target) + detune) * np.eye(n)
            continue
        ynorm = float(np.linalg.norm(y))
        if not math.isfinite(ynorm) or ynorm == 0.0:
            detune *= 10.0
            shifted = m - (float(target) + detune) * np.eye(n)
            continue
        x = y / ynorm
        residual = float(np.linalg.norm(m @ x - float(target) * x))
        if best is None or residual < best[0]:
            best = (residual, x.copy())
        if residual <= INVERSE_ITER_TOL * max(norm, 1e-300):
            break
    else:
        raise ConvergenceError("inverse iteration did not converge", best[0])
    x = best[1]
    # canonical sign: first component of visible magnitude is positive
    for comp in x:
        if abs(comp) > 1e-12:
            if comp < 0:
                x = -x
            break
    return x
