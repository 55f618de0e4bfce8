"""Stein divergence on SPD matrices and the bandwidth-set probe.

S(A,B) = logdet((A+B)/2) - (logdet A + logdet B)/2, through Cholesky
log-determinants (the formula lives in ``spaces``, next to the root-Stein
distance built on it).  The Gaussian kernel of d = sqrt(S) is known to be PD
exactly on {1/2, ..., (n-2)/2} united with [(n-1)/2, inf); the probe
hunts for violations at a given bandwidth with structured point
families and certifies the first one it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spaces as sp
from .certificates import WitnessCertificate, build_certificate, certification_threshold
from .gram import KernelParam, gram
from .precision import DOUBLE_DIGITS
from .spectral import jacobi_eigenvalues

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
        matrices, lowers = zip(*sp.check_points(space, (a, b)))
        return sp.stein_divergences(matrices, lowers, ((0, 1),))[0]
    except sp.InvalidPointError as exc:
        raise SteinError(str(exc)) from None


@dataclass(frozen=True)
class LambdaPlusSet:
    """Bandwidths where the Gaussian-of-Stein kernel is PD for n x n SPD
    matrices: the half-integers below (n-1)/2 plus the ray above it."""

    n: int
    discrete: tuple[float, ...]
    continuous_from: float

    def contains(self, lam: float) -> bool:
        """Membership up to 1e-12, so a computed half-integer counts."""
        if lam >= self.continuous_from - 1e-12:
            return True
        return any(abs(lam - d) <= 1e-12 for d in self.discrete)


def lambda_plus_set(n: int) -> LambdaPlusSet:
    if not (isinstance(n, int) and n >= 1):
        raise SteinError("dimension must be an integer >= 1")
    discrete = tuple(i / 2.0 for i in range(1, n - 1))
    return LambdaPlusSet(n=n, discrete=discrete, continuous_from=(n - 1) / 2.0)


@dataclass(frozen=True)
class SteinProbeReport:
    trials_run: int
    min_eig_seen: float
    witness: WitnessCertificate | None
    witness_strategy: str | None = None


def _strategy_points(strategy: str, rng: np.random.Generator, n: int, count: int) -> list:
    if strategy == "wishart":
        return sp.sample_points(sp.SpdMatrices(n), rng, count)
    if strategy == "diagonal":
        return [np.diag(10.0 ** rng.uniform(-3.0, 3.0, n)) for _ in range(count)]
    if strategy == "ill_conditioned":
        points = []
        for _ in range(count):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = 10.0 ** rng.uniform(-3.5, 3.5, n)
            m = (q * eigs) @ q.T
            points.append((m + m.T) / 2.0)
        return points
    raise SteinError(f"unknown strategy {strategy!r}")


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
    deterministic by trial index.  No witness within the budget is
    reported as exactly that, never as a PSD verdict.
    """
    if trials < 1:
        raise SteinError("trials must be >= 1")
    if points_per_trial < 2:
        raise SteinError("points_per_trial must be >= 2")
    space = sp.SpdMatrices(n=n, metric="stein")
    param = KernelParam(float(lam))
    rng = np.random.default_rng(seed)
    threshold = certification_threshold(points_per_trial, DOUBLE_DIGITS)
    min_seen = math.inf
    for trial in range(trials):
        strategy = PROBE_STRATEGIES[trial % len(PROBE_STRATEGIES)]
        points = _strategy_points(strategy, rng, n, points_per_trial)
        k = gram(space, points, param)
        report = jacobi_eigenvalues(k.entries)
        min_seen = min(min_seen, report.min_eigenvalue)
        if report.min_eigenvalue < threshold:
            cert = build_certificate(space, float(lam), points, DOUBLE_DIGITS)
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
