"""Gram assembly, the kernel map, and matrix-level closure properties."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import geokernel as gk
from geokernel.gram import GramError, gram, gram_stack, kernel_values
from geokernel.spaces import sample_points


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan, "0.5"])
def test_gram_rejects_a_bandwidth_that_is_not_a_positive_real(lam):
    with pytest.raises(GramError, match=r"^bandwidth lambda must be a positive real$"):
        gram(gk.Circle(), [0.0, 1.0], lam)


def test_gaussian_kernel_basics():
    k0, k1, k2 = kernel_values(0.3, [0.0, 1.0, 2.0])
    assert k0 == 1.0
    assert k1 == math.exp(-0.3)
    assert k2 < k1
    with pytest.raises(GramError, match=r"^negative distance -0\.1$"):
        kernel_values(0.3, [1.0, -0.1])


def test_gram_matches_manual_loop():
    space = gk.Circle()
    pts = [0.0, 0.7, 2.1, 4.4, 5.9]
    lam = 0.3
    k = gram(space, pts, lam)
    assert k.order == 5
    for i in range(5):
        assert k.entries[i][i] == 1.0
        for j in range(5):
            d = gk.distance(space, pts[i], pts[j])
            assert k.entries[i, j] == pytest.approx(math.exp(-lam * d * d), rel=1e-15)
            assert k.entries[i, j] == k.entries[j, i]  # one evaluation per unordered pair


def test_gram_validates_points():
    with pytest.raises(gk.InvalidPointError):
        gram(gk.Sphere(2), [np.array([1.0, 0.5, 0.0])], 1.0)


def test_gram_validates_each_point_once(monkeypatch):
    # every point passes the one validation entry once, never once per pair
    import geokernel.spaces as sp

    seen = []
    original = sp.check_points

    def counting(space, points):
        seen.extend(id(p) for p in points)
        return original(space, points)

    monkeypatch.setattr(sp, "check_points", counting)
    for space in (gk.SpdMatrices(3, metric="stein"), gk.Sphere(2), gk.Grassmannian(2, 4)):
        seen.clear()
        pts = sample_points(space, 4, 7)
        gram(space, pts, 0.5)
        assert sorted(seen) == sorted(id(p) for p in pts)


def test_hadamard_schur_closure():
    # entrywise products of PSD matrices stay PSD
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        b1 = rng.standard_normal((n, n))
        b2 = rng.standard_normal((n, n))
        m1 = b1.T @ b1
        m2 = b2.T @ b2
        prod = m1 * m2
        floor = gk.jacobi_eigenvalues(prod).min_eigenvalue
        scale = max(1.0, float(np.max(np.abs(prod))))
        assert floor >= -scale * gk.psd_tolerance(n)


def test_bandwidth_addition():
    # exp(-l1 d^2) * exp(-l2 d^2) = exp(-(l1+l2) d^2) entrywise
    space = gk.Circle()
    pts = sample_points(space, 6, 7)
    k1 = gram(space, pts, 0.2)
    k2 = gram(space, pts, 0.5)
    ksum = gram(space, pts, 0.7)
    assert np.allclose(k1.entries * k2.entries, ksum.entries, rtol=1e-14, atol=0)


def test_identity_limit_on_doubling_grid():
    # off-diagonal mass shrinks monotonically as the bandwidth doubles,
    # and some grid point earns an outright positive-definite verdict
    space = gk.Sphere(3)
    pts = sample_points(space, 11, 8)
    lam = 0.5
    prev = None
    pd_seen = False
    for _ in range(10):
        k = gram(space, pts, lam)
        dev = float(np.max(np.abs(k.entries - np.eye(8))))
        if prev is not None:
            assert dev <= prev
        prev = dev
        rep = gk.jacobi_eigenvalues(k.entries)
        if gk.pd_verdict(rep).verdict == "positive_definite":
            pd_seen = True
        lam *= 2.0
    assert prev < 1e-6
    assert pd_seen


def test_principal_submatrix_is_gram_of_subset():
    space = gk.Sphere(2)
    pts = sample_points(space, 9, 6)
    k = gram(space, pts, 0.8)
    idx = [0, 2, 5]
    sub = k.entries[np.ix_(idx, idx)]
    direct = gram(space, [pts[i] for i in idx], 0.8)
    assert np.array_equal(sub, direct.entries)


def test_restriction_keeps_psd():
    # a principal submatrix of a PSD Gram is PSD
    space = gk.Sphere(3)
    pts = sample_points(space, 14, 10)
    k = gram(space, pts, 6.0)
    assert gk.jacobi_eigenvalues(k.entries).min_eigenvalue >= -gk.psd_tolerance(10)
    idx = [1, 3, 4, 8]
    sub = k.entries[np.ix_(idx, idx)]
    assert gk.jacobi_eigenvalues(sub).min_eigenvalue >= -gk.psd_tolerance(4)


@given(
    st.lists(st.floats(min_value=0.0, max_value=6.28), min_size=2, max_size=7),
    st.floats(min_value=0.01, max_value=2.0),
)
def test_gram_entries_in_unit_interval(angles, lam):
    k = gram(gk.Circle(), angles, lam)
    e = np.asarray(k.entries)
    assert np.all(e <= 1.0) and np.all(e > 0.0)
    assert np.array_equal(e, e.T)


@given(st.integers(min_value=2, max_value=9), st.floats(min_value=0.05, max_value=3.0))
def test_rayleigh_never_beats_min_eigenvalue(n, lam):
    pts = sample_points(gk.Sphere(2), n, n + 2)
    k = gram(gk.Sphere(2), pts, lam)
    floor = gk.jacobi_eigenvalues(k.entries).min_eigenvalue
    rng = np.random.default_rng(n)
    for _ in range(5):
        c = rng.standard_normal(n + 2)
        quad = float(c @ np.asarray(k.entries) @ c) / float(c @ c)
        assert quad >= floor - 1e-10


@pytest.mark.parametrize("text", ["spd:3:stein", "grassmann:2,4"])
def test_multi_set_gram_is_each_sets_gram(text):
    # sets checked as one, paired only within each set, give each set's
    # own Gram bit for bit
    space = gk.parse_space(text)
    sets = [sample_points(space, seed, 7) for seed in range(5)]
    stack = gram_stack(space, [p for points in sets for p in points], 0.75, len(sets))
    assert stack.shape == (5, 7, 7)
    for k, points in zip(stack, sets):
        assert np.array_equal(k, gram(space, points, 0.75).entries)


def test_multi_set_gram_needs_sets_of_one_size():
    points = sample_points(gk.Sphere(2), 0, 7)
    with pytest.raises(GramError, match="do not split"):
        gram_stack(gk.Sphere(2), points, 1.0, 2)
    with pytest.raises(GramError, match="at least one point"):
        gram_stack(gk.Sphere(2), [], 1.0, 1)
