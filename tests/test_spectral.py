"""Dense eigensolver and the exact circulant spectrum path."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import mpf_mul, mpf_pos, mpf_sum, round_nearest

import geokernel as gk
from geokernel import precision
from geokernel.partial_theta import PartialThetaError
from geokernel.precision import DOUBLE_DIGITS, lift, numeric, unlift
from geokernel.spectral import (
    AsymmetricInputError,
    ConvergenceError,
    SpectrumReport,
    equispaced_half_row,
    jacobi_spectra,
)


def _random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


def test_jacobi_matches_reference_eigensolver():
    rng = np.random.default_rng(0)
    for n in range(2, 13):
        m = _random_symmetric(rng, n)
        mine = gk.jacobi_eigenvalues(m).eigenvalues
        ref = np.linalg.eigvalsh(m)
        assert list(mine) == sorted(mine)
        assert np.max(np.abs(np.asarray(mine) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


def test_jacobi_eigensystem_reconstructs_input():
    rng = np.random.default_rng(3)
    m = _random_symmetric(rng, 8)
    values, vectors = gk.jacobi_eigensystem(m)
    v = np.asarray(vectors)
    assert np.max(np.abs(v.T @ v - np.eye(8))) <= 1e-12
    recon = (v * values) @ v.T
    assert np.max(np.abs(recon - m)) <= 1e-12


def test_trace_conservation():
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e6):
        m = _random_symmetric(rng, 9, scale)
        report = gk.jacobi_eigenvalues(m)
        drift = abs(float(np.trace(m)) - math.fsum(report.eigenvalues))
        assert drift <= 1e-10 * 9 * max(1.0, float(np.max(np.abs(m))))


def test_orthogonal_similarity_invariance():
    rng = np.random.default_rng(4)
    m = _random_symmetric(rng, 7)
    q = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    a = gk.jacobi_eigenvalues(m).eigenvalues
    b = gk.jacobi_eigenvalues(q.T @ m @ q).eigenvalues
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-9


def test_eigensystem_residual_is_small():
    rng = np.random.default_rng(8)
    m = _random_symmetric(rng, 10)
    values, vectors = gk.jacobi_eigensystem(m)
    residual = np.linalg.norm(m @ vectors - vectors * values)
    assert residual <= 1e-12 * np.linalg.norm(m)
    report = gk.jacobi_eigenvalues(m)
    assert report.method == "jacobi"
    assert report.order == 10


def test_diagonal_input_is_exact():
    d = [3.0, -1.0, 0.5, 7.25]
    report = gk.jacobi_eigenvalues(np.diag(d))
    assert list(report.eigenvalues) == sorted(d)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(AsymmetricInputError):
        gk.jacobi_eigenvalues(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_stacked_spectra_are_each_matrix_alone():
    rng = np.random.default_rng(20)
    stack = [_random_symmetric(rng, 10, scale) for scale in (1e-3, 1.0, 1e3, 1.0)]
    for alone, report in zip(map(gk.jacobi_eigenvalues, stack), jacobi_spectra(stack)):
        assert report.eigenvalues == alone.eigenvalues
        assert report.min_eigenvalue == alone.min_eigenvalue == alone.eigenvalues[0]
        assert np.array_equal(report.eigenvectors, alone.eigenvectors)


def test_stacked_spectra_check_every_matrix():
    rng = np.random.default_rng(21)
    good = _random_symmetric(rng, 4)
    with pytest.raises(AsymmetricInputError):
        jacobi_spectra([good, np.triu(good)])
    with pytest.raises(ConvergenceError):
        jacobi_spectra([good, np.diag([1.0, np.nan, 2.0, 3.0])])


def test_convergence_error_carries_residual():
    err = ConvergenceError("did not settle", residual=1e-3)
    assert err.residual == 1e-3


def _kernel_row(lam, n, digits, scale=1.0):
    """The equispaced kernel's whole first row: exp(-mu m^2/N^2) with
    m = min(k, N-k) and mu = mu_of_lambda * scale^2, read from the half
    row the spectrum sums."""
    with numeric(digits) as x:
        mu = gk.mu_of_lambda(lam, digits) * x.num(scale) ** 2
        half = equispaced_half_row(mu, n, x)
        return [half[min(k, n - k)] for k in range(n)]


def _rounded_cosines(n):
    """cos(2 pi m/N) for m < N at the working precision, each formed 200
    bits wider and rounded once, and exactly 0 where 4m/N is an odd integer."""
    with mp.workprec(mp.prec + 200):
        wide = [mp.cos(2 * mp.pi * m / n) for m in range(n)]
    return [mpf(0) if 4 * m % n == 0 and 4 * m // n % 2 else +v for m, v in enumerate(wide)]


@pytest.mark.parametrize("digits", [17, 30])
def test_circulant_spectrum_evaluates_half_the_kernel_row(monkeypatch, digits):
    # row[k] == row[N-k]: the spectrum evaluates only k <= N/2; in doubles
    # one math.exp per k, wide two exps per block of gaussian_row's
    # recurrence and none per term
    wide_exp = precision.mpf_exp
    for n in (2, 3, 4, 5, 16, 27, 256):
        calls, wide_calls = [], []
        for arith in (precision._DOUBLE, precision._WIDE):
            monkeypatch.setattr(arith, "exp", lambda v, exp=arith.exp: calls.append(v) or exp(v))
        monkeypatch.setattr(precision, "mpf_exp", lambda *a: wide_calls.append(a) or wide_exp(*a))
        gk.circulant_eigenvalues(0.7, n, digits)
        monkeypatch.undo()
        if digits > DOUBLE_DIGITS:
            blocks = -(-(n // 2 + 1) // precision.ROW_BLOCK)
            assert calls == [] and 0 < len(wide_calls) <= 2 * blocks + 1, n
            continue
        assert len(calls) == n // 2 + 1 and wide_calls == [], n
        with numeric(digits) as x:
            mu, nn = gk.mu_of_lambda(0.7, digits), x.num(n) * n
            assert calls == [-mu * k ** 2 / nn for k in range(n // 2 + 1)], n


def test_equispaced_half_row_values_and_lambda_check():
    lam = 0.3
    n = 8
    mu = gk.mu_of_lambda(lam)
    with numeric(DOUBLE_DIGITS) as x:
        half = equispaced_half_row(mu, n, x)
    assert half[0] == 1.0
    for k in range(n // 2 + 1):
        assert half[k] == pytest.approx(math.exp(-mu * k * k / n ** 2), rel=1e-15)
    for digits in (17, 30):
        for bad in (0, -1, math.nan, math.inf):
            with pytest.raises(PartialThetaError, match="lambda must be positive"):
                gk.circulant_eigenvalues(bad, n, digits)


def test_circulant_matches_jacobi_on_kernel_rows():
    # the dense solver and the exact cosine-sum spectrum must agree on
    # the same circulant matrix
    for n in (4, 8, 16, 64):
        for lam in (0.01, 0.1, 1.0):
            row = _kernel_row(lam, n, 17)
            dense = [[row[(i - j) % n] for j in range(n)] for i in range(n)]
            a = np.asarray(gk.jacobi_eigenvalues(dense).eigenvalues)
            b = np.asarray([float(x) for x in gk.circulant_eigenvalues(lam, n).eigenvalues])
            assert np.max(np.abs(a - b)) <= 1e-9


def test_circulant_eigenvalue_formula():
    n = 8
    row = _kernel_row(0.3, n, 17)
    report = gk.circulant_eigenvalues(0.3, n)
    assert sorted(report.fourier_indices) == list(range(n))
    assert report.method == "circulant"
    for pos, j in enumerate(report.fourier_indices):
        direct = math.fsum(
            row[k] * math.cos(2.0 * math.pi * j * k / n) for k in range(n)
        )
        assert abs(report.eigenvalues[pos] - direct) <= 1e-12
    assert list(report.eigenvalues) == sorted(report.eigenvalues)


def test_circulant_wide_agrees_with_double():
    n = 12
    lam = 0.2
    fine = gk.circulant_eigenvalues(lam, n, 30)
    coarse = gk.circulant_eigenvalues(lam, n, 17)
    assert fine.precision_digits == 30
    assert isinstance(fine.eigenvalues[0], mpf)
    for a, b in zip(fine.eigenvalues, coarse.eigenvalues):
        assert abs(float(a) - b) <= 1e-14


# (lambda, N, digits, scale): odd N and the half circle included
WIDE_CASES = [
    (1, 16, 40, 1.0), (5, 68, 50, 1.0), (20, 256, 100, 1.0),
    (0.3, 27, 30, 1.0), (2, 45, 60, 0.5), (0.05, 24, 30, 0.5),
]


def test_circulant_wide_is_the_exact_sum_rounded_once():
    for lam, n, digits, scale in WIDE_CASES:
        report = gk.circulant_eigenvalues(lam, n, digits, scale)
        row = _kernel_row(lam, n, digits, scale)
        with numeric(digits):
            row = [v._mpf_ for v in row]
            base = [v._mpf_ for v in _rounded_cosines(n)]
            exact = [
                mpf_pos(mpf_sum([mpf_mul(row[k], base[j * k % n], 0) for k in range(n)], 0),
                        mp.prec, round_nearest)
                for j in range(n)
            ]
        mine = dict(zip(report.fourier_indices, report.eigenvalues))
        assert [mine[j]._mpf_ for j in range(n)] == exact, (lam, n, digits, scale)


@pytest.mark.parametrize("digits", [30, 100])
def test_circulant_wide_fold_is_the_unfolded_sum(digits):
    # the k <-> N-k and parity folds regroup exact integer products, so
    # every w_j is bit for bit the plain sum over all k of R_k * C[jk mod N]
    for n in [*range(2, 41), 256]:
        for lam, scale in ((0.7, 1.0), (3, 0.5)):
            report = gk.circulant_eigenvalues(lam, n, digits, scale)
            row = _kernel_row(lam, n, digits, scale)
            with numeric(digits):
                ints, exp_r = lift(row)
                cosines, exp_b = lift(_rounded_cosines(n))
                ref = [
                    unlift(sum(ints[k] * cosines[j * k % n] for k in range(n)), exp_r + exp_b)._mpf_
                    for j in range(n)
                ]
            mine = dict(zip(report.fourier_indices, report.eigenvalues))
            assert [mine[j]._mpf_ for j in range(n)] == ref, (n, lam)


def test_circulant_wide_mirror_frequencies_are_bitwise_equal():
    for lam, n, digits, scale in WIDE_CASES:
        report = gk.circulant_eigenvalues(lam, n, digits, scale)
        mine = dict(zip(report.fourier_indices, report.eigenvalues))
        for j in range(1, n):
            assert mine[j]._mpf_ == mine[n - j]._mpf_, (lam, n, digits, j)


def _full_circulant_reference(row, digits):
    """Every frequency formed on its own, no mirror copies: (eigenvalues,
    fourier_indices) as circulant_eigenvalues reports them."""
    n = len(row)
    with numeric(digits) as x:
        row = [x.num(v) for v in row]
        if digits <= 17:
            base = [x.cos(2 * x.pi * m / n) for m in range(n)]
            values = [math.fsum(row[k] * base[j * k % n] for k in range(n)) for j in range(n)]
        else:
            row, base = [v._mpf_ for v in row], [v._mpf_ for v in _rounded_cosines(n)]
            values = [
                mpf(mpf_pos(mpf_sum([mpf_mul(row[k], base[j * k % n], 0) for k in range(n)], 0),
                            mp.prec, round_nearest))
                for j in range(n)
            ]
    order = sorted(range(n), key=lambda j: values[j])
    return tuple(values[j] for j in order), tuple(order)


@pytest.mark.parametrize("digits", [17, 30])
def test_circulant_half_spectrum_is_the_full_spectrum(digits):
    for n in (2, 5, 24, 27, 192, 256):
        for lam, scale in ((0.7, 1.0), (0.02, 1.0), (4, 0.5)):
            report = gk.circulant_eigenvalues(lam, n, digits, scale)
            values, indices = _full_circulant_reference(_kernel_row(lam, n, digits, scale), digits)
            assert report.fourier_indices == indices, (n, lam, scale)
            bits = (lambda v: v._mpf_) if digits > 17 else float.hex
            assert list(map(bits, report.eigenvalues)) == list(map(bits, values)), (n, lam, scale)


def test_min_eigenvector_residual_and_sign():
    rng = np.random.default_rng(1)
    m = _random_symmetric(rng, 6)
    report = gk.jacobi_eigenvalues(m)
    v = np.asarray(gk.min_eigenvector(report))
    m = np.asarray(m)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    residual = np.linalg.norm(m @ v - report.min_eigenvalue * v)
    assert residual <= 1e-12 * np.linalg.norm(m)
    rayleigh = float(v @ m @ v)
    assert abs(rayleigh - report.min_eigenvalue) <= 1e-12 * np.linalg.norm(m)
    lead = v[np.argmax(np.abs(v) > 1e-12)]
    assert lead > 0.0  # canonical sign


def test_psd_tolerance_formula():
    assert gk.psd_tolerance(10) == 1e-10 * 10
    assert gk.psd_tolerance(10, 17) == 1e-10 * 10
    assert gk.psd_tolerance(10, 30) == pytest.approx(10 ** -(30 - 7) * 10, rel=1e-12)


def test_pd_verdict_bands():
    tol = gk.psd_tolerance(2)
    mk = lambda lo: SpectrumReport(
        eigenvalues=(lo, 1.0), min_eigenvalue=lo, method="jacobi",
        precision_digits=17,
    )
    assert gk.pd_verdict(mk(-10 * tol)).verdict == "not_psd"
    assert gk.pd_verdict(mk(0.0)).verdict == "positive_semidefinite"
    assert gk.pd_verdict(mk(10 * tol)).verdict == "positive_definite"


@given(st.integers(min_value=2, max_value=10))
def test_jacobi_idempotent_on_eigenbasis(n):
    rng = np.random.default_rng(n)
    m = _random_symmetric(rng, n)
    values, vectors = gk.jacobi_eigensystem(m)
    v = np.asarray(vectors)
    diag = v.T @ np.asarray(m) @ v
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) <= 1e-12 * max(1.0, float(np.max(np.abs(m))))
