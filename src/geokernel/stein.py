"""Stein divergence on SPD matrices and the bandwidth-set probe.

S(A,B) = logdet((A+B)/2) - (logdet A + logdet B)/2, through Cholesky
log-determinants (the formula lives in ``spaces``, next to the root-Stein
distance built on it).  The Gaussian kernel of d = sqrt(S) is known to be PD
exactly on {1/2, ..., (n-2)/2} united with [(n-1)/2, inf), the set
:func:`in_lambda_plus_set` tests; the probe hunts for violations at a
bandwidth with structured point families and certifies the first one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from .certificates import WitnessCertificate, build_certificate, certification_threshold
from .gram import gram, gram_stack
from .precision import DOUBLE_DIGITS
from .spectral import SpectrumReport, jacobi_eigenvalues, jacobi_spectra, min_eigenvector

PROBE_STRATEGIES = ("wishart", "diagonal", "ill_conditioned")


class SteinError(ValueError):
    pass


def stein_divergence(a, b) -> float:
    """logdet of the midpoint minus the mean logdet; zero iff A = B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SteinError(f"need two square matrices of equal size, got {a.shape} and {b.shape}")
    space = sp.SpdMatrices(a.shape[0], metric="stein")
    try:
        checked = sp.check_points(space, (a, b))
        return float(sp.stein_divergences(checked[:, 0], checked[:, 1], [0], [1])[0])
    except sp.InvalidPointError as exc:
        raise SteinError(str(exc)) from None


def in_lambda_plus_set(n: int, lam: float) -> bool:
    """Whether the Gaussian-of-Stein kernel is PD at bandwidth lambda for
    n x n SPD matrices: lambda is one of the half-integers below (n-1)/2
    or on the ray from it, up to 1e-12, so a computed half-integer
    counts."""
    if not (isinstance(n, int) and n >= 1):
        raise SteinError("dimension must be an integer >= 1")
    return lam >= (n - 1) / 2.0 - 1e-12 or any(abs(lam - i / 2.0) <= 1e-12 for i in range(1, n - 1))


@dataclass(frozen=True)
class SteinProbeReport:
    trials_run: int
    min_eig_seen: float
    witness: WitnessCertificate | None
    witness_strategy: str | None = None


def _strategy_points(strategy: str, rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """One trial's points, a (count, n, n) stack, drawn as a draw per point
    would draw them: one draw for the stack where each point reads one
    kind of number, interleaved draws per point where it reads two."""
    if strategy == "wishart":
        return np.asarray(sp.sample_points(sp.SpdMatrices(n), rng, count))
    if strategy == "diagonal":
        m = np.zeros((count, n, n))
        m[:, range(n), range(n)] = 10.0 ** rng.uniform(-3.0, 3.0, (count, n))
        return m
    if strategy == "ill_conditioned":
        draws = [(rng.standard_normal((n, n)), rng.uniform(-3.5, 3.5, n)) for _ in range(count)]
        q, _ = np.linalg.qr(np.array([g for g, _ in draws]))
        eigs = 10.0 ** np.array([e for _, e in draws])
        m = (q * eigs[:, None, :]) @ q.swapaxes(1, 2)
        return (m + m.swapaxes(1, 2)) / 2.0
    raise SteinError(f"unknown strategy {strategy!r}")


# trials drawn and solved as one stack; this ceiling bounds a chunk's memory
CHUNK_CEILING = 96


def _spectra(space: sp.Space, lam: float, sets: list) -> Iterable[SpectrumReport]:
    """The spectrum of each trial's Gram, in trial order: all trials as one
    stack (one point check, Gram fill and eigensolve), or, when any step of
    that fails, one trial at a time and only as far as the caller reads,
    so a trial at fault raises with its own error only once it is
    reached."""
    try:
        return jacobi_spectra(gram_stack(space, np.concatenate(sets), lam, len(sets)))
    except (ValueError, ArithmeticError, RuntimeError):
        return (jacobi_eigenvalues(gram(space, points, lam).entries) for points in sets)


def probe(
    n: int,
    lam: float,
    trials: int,
    points_per_trial: int,
    seed: int,
) -> SteinProbeReport:
    """Hunt for a non-PSD Gaussian-of-Stein Gram at bandwidth lambda.

    Trials cycle through Wishart-style, diagonal, and ill-conditioned
    point families from one seeded stream, so the first hit is
    deterministic by trial index.  Trials are drawn and solved in chunks
    of up to ``CHUNK_CEILING`` trials from the first: each chunk's Grams
    are built and solved as one stack (see :func:`_spectra`) and scanned
    in trial order.  The first trial whose minimum eigenvalue is below
    the certification threshold is certified from the spectrum already
    computed for it; ``min_eig_seen`` covers the trials up to and
    including it, never the rest of its chunk.
    No witness within the budget is reported as exactly that, never as
    a PSD verdict.
    """
    if trials < 1:
        raise SteinError("trials must be >= 1")
    if points_per_trial < 2:
        raise SteinError("points_per_trial must be >= 2")
    space = sp.SpdMatrices(n=n, metric="stein")
    rng = np.random.default_rng(seed)
    threshold = certification_threshold(points_per_trial, DOUBLE_DIGITS)
    min_seen = math.inf
    for start in range(0, trials, CHUNK_CEILING):
        chunk = range(start, min(start + CHUNK_CEILING, trials))
        strategies = [PROBE_STRATEGIES[trial % len(PROBE_STRATEGIES)] for trial in chunk]
        sets = [_strategy_points(s, rng, n, points_per_trial) for s in strategies]
        spectra = _spectra(space, float(lam), sets)
        for trial, strategy, points, report in zip(chunk, strategies, sets, spectra):
            min_seen = min(min_seen, report.min_eigenvalue)
            if report.min_eigenvalue < threshold:
                mode = report.min_eigenvalue, min_eigenvector(report)
                cert = build_certificate(space, float(lam), points, DOUBLE_DIGITS, mode=mode)
                return SteinProbeReport(
                    trials_run=trial + 1,
                    min_eig_seen=float(min_seen),
                    witness=cert,
                    witness_strategy=strategy,
                )
    return SteinProbeReport(
        trials_run=trials,
        min_eig_seen=float(min_seen),
        witness=None,
    )
