"""Log-det divergence on SPD matrices and the bandwidth-set probe."""

import math

import numpy as np
import pytest

import geokernel as gk
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
    s3 = gk.lambda_plus_set(3)
    assert s3.discrete == (0.5,)
    assert s3.continuous_from == 1.0
    assert s3.contains(0.5)
    assert s3.contains(1.0)
    assert s3.contains(7.25)
    assert not s3.contains(0.75)
    assert not s3.contains(0.49)
    s5 = gk.lambda_plus_set(5)
    assert s5.discrete == (0.5, 1.0, 1.5)
    assert s5.continuous_from == 2.0


def test_probe_clean_at_half_integer():
    report = gk.probe(3, 0.5, 60, 8, seed=3)
    assert report.witness is None
    assert report.trials_run == 60
    assert report.min_eig_seen > -gk.psd_tolerance(8)


def test_probe_finds_witness_off_the_set():
    report = gk.probe(3, 0.01, 300, 10, seed=7)
    assert report.witness is not None
    assert report.witness_trial == 62
    assert report.witness_strategy == "ill_conditioned"
    assert report.witness_strategy == PROBE_STRATEGIES[report.witness_trial % 3]
    cert = report.witness
    assert cert.space == gk.SpdMatrices(3, metric="stein")
    assert cert.method == "jacobi"
    assert cert.quad_form < 0
    assert gk.verify_certificate(cert).ok


def test_probe_is_deterministic():
    a = gk.probe(3, 0.01, 80, 10, seed=7)
    b = gk.probe(3, 0.01, 80, 10, seed=7)
    assert a.min_eig_seen == b.min_eig_seen
    assert a.witness_trial == b.witness_trial
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
            assert gk.validate_point(space, p) is None


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.5, 0.75, 1.0])
def test_screen_matches_jacobi_on_every_trial(lam, monkeypatch):
    # the LAPACK screen only skips trials that cannot change the report
    import geokernel.stein as stein
    from geokernel.certificates import cert_to_json

    cases = [(seed, 24) for seed in range(4)]
    if lam == 0.01:
        cases.append((7, 80))  # the frozen hit at trial index 62
    screened = [gk.probe(3, lam, trials, 10, seed) for seed, trials in cases]
    monkeypatch.setattr(stein, "eigvalsh", lambda m: np.array([-np.inf]))
    unscreened = [gk.probe(3, lam, trials, 10, seed) for seed, trials in cases]
    for a, b in zip(screened, unscreened):
        assert a.trials_run == b.trials_run
        assert a.min_eig_seen.hex() == b.min_eig_seen.hex()
        assert a.witness_trial == b.witness_trial
        assert a.witness_strategy == b.witness_strategy
        assert (a.witness is None) == (b.witness is None)
        if a.witness is not None:
            assert cert_to_json(a.witness) == cert_to_json(b.witness)
    if lam == 0.01:
        assert screened[-1].witness_trial == 62

