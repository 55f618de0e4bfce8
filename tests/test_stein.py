"""Log-det divergence on SPD matrices and the bandwidth-set probe."""

import math

import numpy as np
import pytest

import geokernel as gk
from geokernel.gram import gram
from geokernel.spaces import require_valid
from geokernel.stein import PROBE_STRATEGIES, SteinError


def _random_spd(rng, n):
    g = rng.standard_normal((n, n))
    m = g @ g.T + 1e-3 * np.eye(n)
    return (m + m.T) / 2.0


def test_divergence_identity_and_scalar_case():
    eye = np.eye(2)
    assert gk.stein_divergence(eye, eye) == 0.0
    # S(I, cI) = n (log((1+c)/2) - log(c)/2)
    expect = 2.0 * (math.log(2.5) - 0.5 * math.log(4.0))
    assert gk.stein_divergence(eye, 4.0 * eye) == pytest.approx(expect, rel=1e-12)


def test_divergence_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = _random_spd(rng, 3)
        b = _random_spd(rng, 3)
        assert gk.stein_divergence(a, b) == gk.stein_divergence(b, a)


def test_divergence_congruence_invariance():
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = _random_spd(rng, 3)
        b = _random_spd(rng, 3)
        x = rng.standard_normal((3, 3)) + 0.1 * np.eye(3)
        left = gk.stein_divergence(x.T @ a @ x, x.T @ b @ x)
        right = gk.stein_divergence(a, b)
        assert abs(left - right) <= 1e-9 * max(1.0, right)


def test_divergence_input_checks():
    with pytest.raises(SteinError):
        gk.stein_divergence(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(SteinError):
        gk.stein_divergence(-np.eye(2), np.eye(2))
    with pytest.raises(SteinError):
        gk.stein_divergence(np.eye(2), np.eye(3))


def test_lambda_plus_set_structure():
    # n = 3: the half-integer 1/2, then the ray from 1
    for lam in (0.5, 1.0, 7.25):
        assert gk.in_lambda_plus_set(3, lam)
    for lam in (0.75, 0.49):
        assert not gk.in_lambda_plus_set(3, lam)
    # n = 5: the half-integers 1/2, 1 and 3/2, then the ray from 2
    for lam in (0.5, 1.0, 1.5, 2.0):
        assert gk.in_lambda_plus_set(5, lam)
    for lam in (0.75, 1.25, 2.0 - 1e-9):
        assert not gk.in_lambda_plus_set(5, lam)
    with pytest.raises(SteinError, match="dimension must be an integer >= 1"):
        gk.in_lambda_plus_set(0, 1.0)


def test_probe_clean_at_half_integer():
    report = gk.probe(3, 0.5, 60, 8, seed=3)
    assert report.witness is None
    assert report.trials_run == 60
    assert report.min_eig_seen > -gk.psd_tolerance(8)


def test_probe_finds_witness_off_the_set():
    report = gk.probe(3, 0.01, 300, 10, seed=7)
    assert report.witness is not None
    assert report.trials_run == 63  # the hit is the last trial run, index 62
    assert report.witness_strategy == "ill_conditioned"
    assert report.witness_strategy == PROBE_STRATEGIES[(report.trials_run - 1) % 3]
    cert = report.witness
    assert cert.space == gk.SpdMatrices(3, metric="stein")
    assert cert.quad_form < 0
    assert gk.verify_certificate(cert).ok


def test_probe_is_deterministic():
    a = gk.probe(3, 0.01, 80, 10, seed=7)
    b = gk.probe(3, 0.01, 80, 10, seed=7)
    assert a.min_eig_seen == b.min_eig_seen
    assert a.trials_run == b.trials_run
    c = gk.probe(3, 0.01, 80, 10, seed=8)
    assert c.min_eig_seen != a.min_eig_seen


def test_probe_argument_validation():
    with pytest.raises(SteinError):
        gk.probe(3, 0.5, 0, 8, seed=0)
    with pytest.raises(SteinError):
        gk.probe(3, 0.5, 5, 1, seed=0)


def test_strategy_families_are_valid_points():
    from geokernel.stein import _strategy_points

    rng = np.random.default_rng(0)
    space = gk.SpdMatrices(4, metric="stein")
    for strategy in PROBE_STRATEGIES:
        for p in _strategy_points(strategy, rng, 4, 5):
            require_valid(space, p)


def test_probe_hit_coefficients_are_an_eigenvector():
    # the certificate's c is the eigenvector of the minimum eigenvalue to
    # working precision, not only a vector with a negative quadratic form
    cert = gk.probe(3, 0.01, 80, 10, seed=7).witness
    k = gram(cert.space, cert.points, cert.lam).entries
    c = np.asarray(cert.coefficients)
    assert np.linalg.norm(k @ c - gk.jacobi_eigenvalues(k).min_eigenvalue * c) <= 1e-12


def test_probe_hit_solves_each_gram_once(monkeypatch):
    # every trial drawn is solved once, in its chunk's stacked eigensolve,
    # and the hit is certified from its trial's spectrum, not solved again
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.reshape(a, (-1, 10, 10))) or eigh(a))
    report = gk.probe(3, 0.01, 80, 10, seed=7)
    assert report.trials_run == 63
    assert [len(stack) for stack in calls] == [80]
    assert len({m.tobytes() for m in calls[0]}) == 80
    calls.clear()
    report = gk.probe(3, 0.75, 24, 10, seed=11)
    assert report.witness is None and report.trials_run == 24
    assert [len(stack) for stack in calls] == [24]


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.5, 0.75, 1.0])
def test_probe_report_matches_trial_replay(lam):
    # replay the seeded trial stream with an independent eigvalsh: the probe
    # stops at the first trial below the certification threshold, reports
    # the minimum over exactly the trials it ran, and names that trial
    import geokernel.stein as stein
    from geokernel.certificates import certification_threshold
    from geokernel.precision import DOUBLE_DIGITS

    threshold = certification_threshold(10, DOUBLE_DIGITS)
    cases = [(seed, 24) for seed in range(4)]
    if lam == 0.01:
        cases.append((7, 80))  # the frozen hit at trial index 62
    space = gk.SpdMatrices(n=3, metric="stein")
    for seed, trials in cases:
        report = gk.probe(3, lam, trials, 10, seed)
        rng = np.random.default_rng(seed)
        mins, hit = [], None
        for trial in range(trials):
            strategy = PROBE_STRATEGIES[trial % len(PROBE_STRATEGIES)]
            points = stein._strategy_points(strategy, rng, 3, 10)
            k = gram(space, points, lam).entries
            mins.append(float(np.linalg.eigvalsh(np.asarray(k))[0]))
            if mins[-1] < threshold:
                hit = trial
                break
        assert report.trials_run == len(mins)
        assert abs(report.min_eig_seen - min(mins)) <= 1e-14
        assert (report.trials_run - 1 if report.witness else None) == hit
        if hit is None:
            assert report.witness is None and report.witness_strategy is None
        else:
            assert report.witness_strategy == PROBE_STRATEGIES[hit % 3]
            assert gk.verify_certificate(report.witness).ok
    if lam == 0.01:
        assert report.trials_run - 1 == 62


def _reference_stein_gram(points, lam):
    # the per-pair loop: one Cholesky per matrix and per midpoint, each
    # log-determinant a math.fsum of math.log of the factor's diagonal
    def logdet(m):
        return 2.0 * math.fsum(math.log(x) for x in np.diag(np.linalg.cholesky(m)))

    n = len(points)
    k = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mid = (points[i] + points[j]) / 2.0
            s = max(0.0, logdet(mid) - 0.5 * (logdet(points[i]) + logdet(points[j])))
            d = math.sqrt(s)
            k[i, j] = k[j, i] = math.exp(-lam * d * d)
    return k


@pytest.mark.parametrize("count", [2, 10, 40])
def test_stacked_stein_gram_equals_the_per_pair_loop(count):
    from geokernel.stein import _strategy_points

    rng = np.random.default_rng(count)
    space = gk.SpdMatrices(3, metric="stein")
    for trial in range(9):
        strategy = PROBE_STRATEGIES[trial % len(PROBE_STRATEGIES)]
        points = _strategy_points(strategy, rng, 3, count)
        k = gram(space, points, 0.75)
        assert np.array_equal(k.entries, _reference_stein_gram(points, 0.75)), strategy
    assert gk.probe(3, 0.01, 80, 10, seed=7).trials_run == 63


def _per_point_draws(strategy, rng, n, count):
    # the probe's draws as it once made them, one call per point
    points = []
    for _ in range(count):
        if strategy == "wishart":
            g = rng.standard_normal((n, n))
            m = g @ g.T + 1e-6 * np.eye(n)
        elif strategy == "diagonal":
            points.append(np.diag(10.0 ** rng.uniform(-3.0, 3.0, n)))
            continue
        else:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            m = (q * 10.0 ** rng.uniform(-3.5, 3.5, n)) @ q.T
        points.append((m + m.T) / 2.0)
    return points


@pytest.mark.parametrize("strategy", PROBE_STRATEGIES)
def test_stacked_draws_are_the_per_point_stream(strategy):
    from geokernel.stein import _strategy_points

    for n in (3, 4):
        for count in (1, 10):
            for seed in range(3):
                stacked, per_point = np.random.default_rng(seed), np.random.default_rng(seed)
                points = _strategy_points(strategy, stacked, n, count)
                assert points.shape == (count, n, n)
                assert np.array_equal(points, _per_point_draws(strategy, per_point, n, count))
                # both leave the stream at the same place
                assert stacked.standard_normal() == per_point.standard_normal()


def _bad_point_at(monkeypatch, k):
    # trial k's fifth point becomes -I, which is not positive definite
    import geokernel.stein as stein

    draw, drawn = stein._strategy_points, []

    def patched(strategy, rng, n, count):
        points = draw(strategy, rng, n, count)
        if len(drawn) == k:
            points[4] = -np.eye(n)
        drawn.append(strategy)
        return points

    monkeypatch.setattr(stein, "_strategy_points", patched)


@pytest.mark.parametrize("k", [0, 10, 50, 62])
def test_probe_raises_at_a_bad_trial_it_reaches(monkeypatch, k):
    # the seed-7 hit is trial 62 of the one chunk, holding trials 0-79; a
    # bad point in any trial up to it raises as a one-trial Gram would
    _bad_point_at(monkeypatch, k)
    with pytest.raises(gk.InvalidPointError) as caught:
        gk.probe(3, 0.01, 80, 10, seed=7)
    assert str(caught.value) == "point 4 of SpdMatrices(n=3, metric='stein'): spd: not positive definite"


@pytest.mark.parametrize("k", [63, 79])
def test_probe_ignores_a_bad_trial_past_the_hit(monkeypatch, k):
    clean = gk.probe(3, 0.01, 80, 10, seed=7)
    _bad_point_at(monkeypatch, k)
    report = gk.probe(3, 0.01, 80, 10, seed=7)
    assert (report.trials_run, report.min_eig_seen) == (clean.trials_run, clean.min_eig_seen)
    assert gk.cert_to_json(report.witness) == gk.cert_to_json(clean.witness)
