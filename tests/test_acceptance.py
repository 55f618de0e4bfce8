"""End-to-end acceptance gate.

Twelve checks, each printing one verdict line (echoed in the terminal
summary) that ends with the time spent against its budget.  Every numeric constant below was frozen from an independent
reference computation before the implementation was trusted; tolerances
are part of the contract, not knobs.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from mpmath import mp

import geokernel as gk
from geokernel.gram import gram
from geokernel.partial_theta import partial_theta

from conftest import record_criterion


def report_criterion(num: int, name: str, verdict: str, elapsed: float, budget_s: float):
    """Print and record one verdict line, with the time spent against
    the criterion's budget."""
    line = f"criterion {num:02d} {name}: {verdict} {elapsed:.2f} s / {budget_s:g} s"
    print(line)
    record_criterion(line)


@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    done = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"{elapsed:.2f}s over the {budget_s}s budget"
        done = True
    finally:
        verdict = "PASS" if done else "FAIL"
        report_criterion(num, name, verdict, time.perf_counter() - t0, budget_s)


def test_c01_four_point_circle_witness():
    # smallest indefinite configuration: 4 equispaced points, lambda 0.1
    with criterion(1, "four-point circle witness at lambda 0.1", 1.0):
        lam = 0.1
        pts = gk.circle_equispaced(4)
        k = gram(gk.Circle(), pts, lam)
        dense = gk.jacobi_eigenvalues(k.entries)
        a = math.exp(-lam * math.pi**2 / 4.0)
        closed = 1.0 - 2.0 * a + a**4
        assert closed == pytest.approx(-0.18997962224145058, abs=1e-15)
        assert abs(dense.min_eigenvalue - closed) <= 1e-6
        circ = gk.circulant_eigenvalues(lam, 4, precision_digits=17)
        for u, v in zip(sorted(dense.eigenvalues), sorted(circ.eigenvalues)):
            assert abs(u - v) <= 1e-9


def test_c02_unit_bandwidth_witness_size():
    # lambda = 1: the first quarter-divisible order whose alternating
    # mode goes negative, located at 40-digit precision
    with criterion(2, "unit-bandwidth witness size search", 5.0):
        with mp.workdps(50):
            n, w = gk.find_witness_size(mp.mpf(1), 64, 40)
            assert n == 16
            assert n % 4 == 0
            assert w < mp.mpf("-1e-9")
            assert abs(w - mp.mpf("-4.35744544194376e-5")) < mp.mpf("1e-13")
            mu = 4 * mp.pi**2
            for smaller in (4, 8, 12):
                assert gk.w_half(mu, smaller, 40) > 0


def test_c03_tail_decomposition_identity():
    with criterion(3, "tail decomposition identity", 5.0):
        rng = np.random.default_rng(2026)
        with mp.workdps(50):
            for _ in range(20):
                mu = float(rng.uniform(0.5, 50.0))
                n = 4 * int(rng.integers(1, 33))
                resid = gk.tail_decomposition_check(mu, n, precision_digits=40)
                assert abs(resid) <= mp.mpf("1e-30")


def test_c04_damped_sums_dominate():
    # the exponentially damped series never falls below the undamped
    # one, and is nondecreasing in the damping rate
    with criterion(4, "damped series dominate the undamped one", 10.0):
        digits = 30
        with mp.workdps(40):
            slack = mp.mpf("1e-28")
            for mu in (1, 10, 40):
                for n in (4, 8, 16, 32, 64, 128):
                    base = partial_theta(mu, 0, n, digits).value
                    prev = base
                    for r in (0.1, 1, 10, 100):
                        val = partial_theta(mu, r, n, digits).value
                        assert val >= base - slack
                        assert val >= prev - slack
                        prev = val


def test_c05_half_limit_collapse_under_doubling():
    # |S_0(N) - 1/2| drops far faster than N^-6 over one doubling
    with criterion(5, "half-limit deviation collapse under doubling", 1.0):
        with mp.workdps(40):
            s4 = partial_theta(20, 0, 4, 30).value
            s8 = partial_theta(20, 0, 8, 30).value
            assert abs(s4 - mp.mpf("0.72022014490236811158")) < mp.mpf("1e-18")
            assert abs(s8 - mp.mpf("0.50118058739375478410")) < mp.mpf("1e-18")
            d4 = abs(s4 - mp.mpf(1) / 2)
            d8 = abs(s8 - mp.mpf(1) / 2)
            assert d8 <= d4 / 64
            ratio = d4 / d8
            assert abs(ratio - mp.mpf("186.53438624477580")) < mp.mpf("1e-10")


def test_c06_bound_chain_and_asymptotic_order():
    with criterion(6, "alternating mode under its closed-form bound", 30.0):
        with mp.workdps(60):
            mu_small = 4 * mp.pi**2 * mp.mpf("0.1")
            mu_unit = 4 * mp.pi**2
            slack40 = mp.mpf("1e-35")
            for mu, n in ((mu_small, 4), (mu_unit, 16)):
                assert gk.w_half(mu, n, 40) <= gk.bound_rhs(mu, n, 40) + slack40
            slack30 = mp.mpf("1e-25")
            for mu in (1, 5, 10, 20, 40):
                for n in (4, 8, 16, 32, 64):
                    assert (
                        gk.w_half(mu, n, 30)
                        <= gk.bound_rhs(mu, n, 30) + slack30
                    )
            w20 = gk.w_half(mu_unit, 20, 40)
            b20 = gk.bound_rhs(mu_unit, 20, 40)
            assert w20 <= b20
            assert abs(w20 - mp.mpf("-3.9942169132013771e-5")) < mp.mpf("1e-17")
            assert abs(b20 - mp.mpf("-3.9376205843508295e-5")) < mp.mpf("1e-17")
        # N^3-scaled gap between the bound and its 1/N^2 leading term
        # stays bounded along a doubling chain (increments contract)
        with mp.workdps(50):
            mu = mp.mpf("39.478")
            frozen = (
                "2.5740668279042657",
                "2.6355294196380876",
                "2.6670036741515763",
            )
            scaled = []
            for n, ref in zip((400, 800, 1600), frozen):
                v = abs(
                    (gk.bound_rhs(mu, n, 50) - gk.leading_term(mu, n, 50))
                    * n**3
                )
                assert v < 3
                assert abs(v - mp.mpf(ref)) < mp.mpf("1e-9")
                scaled.append(v)
            assert 0 < scaled[2] - scaled[1] < scaled[1] - scaled[0]


def test_c07_leading_term_sign_threshold():
    with criterion(7, "leading-term sign threshold", 1.0):
        assert gk.leading_term(2.0, 100) == 0.0
        with mp.workdps(40):
            assert gk.leading_term(mp.mpf(2), 100, 30) == 0
        for mu in (0.5, 1.5, 1.9, 1.99):
            assert gk.leading_term(mu, 64) > 0.0
        for mu in (2.01, 2.1, 3.0, 10.0):
            assert gk.leading_term(mu, 64) < 0.0
        lam_star = gk.lambda_of_mu(2.0)
        assert abs(lam_star - 1.0 / (2.0 * math.pi**2)) <= 1e-15
        assert abs(lam_star - 0.050660591821169) <= 1e-12


TRANSFER_CASES = [
    (0.1, "sphere:2", -0.18997962224145049, 0.1),
    (0.1, "sphere:5", -0.18997962224145049, 0.1),
    (0.1, "projective:2", -0.09901421080043793, 0.025),
    (0.1, "grassmann:2,4", -0.09901421080043793, 0.025),
    (0.4, "sphere:2", -0.015050166445732458, 0.4),
    (0.4, "sphere:5", -0.015050166445732458, 0.4),
    (0.4, "projective:2", -0.18997962224145043, 0.1),
    (0.4, "grassmann:2,4", -0.18997962224145049, 0.1),
]


def test_c08_witness_transfer_to_embedded_targets():
    with criterion(8, "witness transfer to embedded targets", 10.0):
        for lam, spec_str, quad_ref, unit_lam in TRANSFER_CASES:
            target = gk.parse_space(spec_str)
            cert = gk.witness_for_target(target, lam)
            assert cert is not None
            assert cert.space == target
            assert cert.quad_form == pytest.approx(quad_ref, rel=1e-12)
            assert lam * target.circle_scale ** 2 == pytest.approx(unit_lam, rel=1e-14)
            assert gk.verify_certificate(cert).ok
            # preservation against an independently built source witness
            src = gk.circle_witness(unit_lam, precision_digits=17)
            assert cert.quad_form == pytest.approx(src.quad_form, rel=1e-12)
        for spec_str in ("sphere:2", "sphere:5", "projective:2", "grassmann:2,4"):
            target = gk.parse_space(spec_str)
            assert gk.verify_isometry(target, pair_count=1000, seed=0) <= 1e-10


def test_c09_positive_controls_stay_semidefinite():
    with criterion(9, "positive controls stay semidefinite", 30.0):
        spaces = [
            gk.Euclidean(5),
            gk.SpdMatrices(3),
            gk.SpdMatrices(3, "log_euclidean"),
            gk.Grassmannian(2, 4, "projection"),
        ]
        for idx, space in enumerate(spaces):
            pts = gk.sample_points(space, 100 + idx, 20)
            for lam in (0.1, 1.0, 10.0):
                k = gram(space, pts, lam)
                rep = gk.jacobi_eigenvalues(k.entries)
                assert rep.min_eigenvalue >= -1e-10 * 20


def test_c10_stein_metric_probe():
    # in-set bandwidths must stay clean; the half-integer gap gets a
    # 10^4-trial witness hunt whose failure is inconclusive, not a pass
    budget_s = 300.0
    t0 = time.perf_counter()
    status = "FAIL"
    detail = ""
    try:
        for lam in (0.5, 1.0, 3.0):
            rep = gk.probe(3, lam, trials=200, points_per_trial=10, seed=3)
            assert rep.witness is None
            assert rep.min_eig_seen > -gk.psd_tolerance(10)
        budget = gk.probe(3, 0.75, trials=10_000, points_per_trial=10, seed=5)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"{elapsed:.1f}s over the {budget_s:g}s budget"
        if budget.witness is None:
            status = "INCONCLUSIVE"
            detail = " (no witness within budget)"
        else:
            cert = budget.witness
            assert cert.quad_form < 0
            assert gk.verify_certificate(cert).ok
            status = "PASS"
    finally:
        report_criterion(10, "stein-metric probe", status + detail,
                         time.perf_counter() - t0, budget_s)
    if status == "INCONCLUSIVE":
        print("no witness within budget")
        pytest.skip("no witness within budget")


def test_c11_critical_bandwidth_profile():
    with criterion(11, "critical-bandwidth profile", 30.0):
        lc4 = gk.lambda_crit(4)
        assert abs(lc4 - 0.246968) <= 1e-5
        a_star = 0.5436890126920763  # real root of a^3 + a^2 + a = 1
        lam_star = -4.0 * math.log(a_star) / math.pi**2
        assert abs(lc4 - lam_star) <= 1e-7
        profile = [gk.lambda_crit(n) for n in (4, 8, 16, 32)]
        frozen = (
            0.24697154296874996,
            0.5473154960937501,
            1.1657738867187497,
            2.4208577929687487,
        )
        for got, ref in zip(profile, frozen):
            assert got == pytest.approx(ref, abs=1e-9)
        for lo, hi in zip(profile, profile[1:]):
            assert hi >= lo - 1e-8


def test_c12_matrix_property_bundle():
    with criterion(12, "matrix property bundle", 60.0):
        rng = np.random.default_rng(12)

        # entrywise products of PSD factors stay PSD
        for _ in range(50):
            b1 = rng.normal(size=(6, 6))
            b2 = rng.normal(size=(6, 6))
            h = (b1.T @ b1) * (b2.T @ b2)
            assert gk.jacobi_eigenvalues(h).min_eigenvalue >= -1e-10 * 6

        # bandwidth addition at matrix level; needs both summands PSD,
        # so run it where the kernel never goes indefinite
        space = gk.Euclidean(5)
        pts = gk.sample_points(space, 9, 10)
        for l1, l2 in ((0.3, 0.8), (0.1, 0.1), (1.0, 2.5)):
            k1 = gram(space, pts, l1)
            k2 = gram(space, pts, l2)
            assert gk.jacobi_eigenvalues(k1.entries).min_eigenvalue >= -1e-10 * 10
            assert gk.jacobi_eigenvalues(k2.entries).min_eigenvalue >= -1e-10 * 10
            ks = gram(space, pts, l1 + l2)
            assert np.allclose(
                k1.entries * k2.entries, ks.entries, rtol=1e-13, atol=0
            )
            assert gk.jacobi_eigenvalues(ks.entries).min_eigenvalue >= -1e-10 * 10

        # principal submatrices of a PSD Gram stay PSD
        big = gram(space, gk.sample_points(space, 14, 12), 0.6)
        for idx in ([0, 1, 2], [0, 3, 7, 11], list(range(0, 12, 2))):
            sub = big.entries[np.ix_(idx, idx)]
            rep = gk.jacobi_eigenvalues(sub)
            assert rep.min_eigenvalue >= -1e-10 * len(idx)

        # trace conserved by the rotation sequence
        m = rng.normal(size=(10, 10))
        m = (m + m.T) / 2.0
        rep = gk.jacobi_eigenvalues(m)
        scale = float(np.max(np.abs(m)))
        assert abs(sum(rep.eigenvalues) - float(np.trace(m))) <= 1e-10 * 10 * scale

        # spectrum invariant under orthogonal similarity
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        rep2 = gk.jacobi_eigenvalues(q.T @ m @ q)
        for u, v in zip(sorted(rep.eigenvalues), sorted(rep2.eigenvalues)):
            assert abs(u - v) <= 1e-9

        # stein divergence invariant under congruence
        a = rng.normal(size=(4, 4))
        a = a @ a.T + np.eye(4)
        b = rng.normal(size=(4, 4))
        b = b @ b.T + np.eye(4)
        t = rng.normal(size=(4, 4))
        t = t @ t.T + np.eye(4)
        before = gk.stein_divergence(a, b)
        after = gk.stein_divergence(t @ a @ t.T, t @ b @ t.T)
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))
