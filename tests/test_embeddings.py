"""Circle embeddings: isometry checks and witness transfer."""

import dataclasses
import math
import re

import pytest
from mpmath import mp, mpf

import geokernel as gk
from geokernel.certificates import CertificateError
from geokernel.cli import main
from geokernel.embeddings import EmbeddingError, _rounding_bound
from geokernel.spaces import VARIANTS, require_valid

TARGETS = [
    gk.Sphere(2),
    gk.Sphere(5),
    gk.ProjectiveSpace(2),
    gk.Grassmannian(2, 4),
    gk.FlatTorus(),
]


def test_isometry_across_catalog():
    for target in TARGETS:
        assert gk.verify_isometry(target, pair_count=400, seed=1) <= 1e-10


# one or two instances of every descriptor in the variant table, with the
# scale of the isometric circle each contains (None: it contains none)
INSTANCES = {
    "circle": [(gk.Circle(), None), (gk.Circle(scale=0.5), None)],
    "sphere": [(gk.Sphere(1), 1.0), (gk.Sphere(4), 1.0)],
    "projective": [(gk.ProjectiveSpace(1), 0.5), (gk.ProjectiveSpace(3), 0.5)],
    "grassmannian": [(gk.Grassmannian(1, 3), 0.5), (gk.Grassmannian(2, 5), 0.5),
                     (gk.Grassmannian(2, 4, metric="projection"), None)],
    "spd": [(gk.SpdMatrices(2), None), (gk.SpdMatrices(3, metric="stein"), None)],
    "euclidean": [(gk.Euclidean(3), None)],
    "torus": [(gk.FlatTorus(), 1.0)],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_space_carries_its_circle_or_refuses(variant):
    for space, scale in INSTANCES[variant]:
        assert type(space) is VARIANTS[variant]
        assert space.circle_scale == scale
        if scale is None:
            with pytest.raises(EmbeddingError):
                gk.source_circle(space)
            continue
        assert gk.source_circle(space) == gk.Circle(scale=scale)
        assert gk.verify_isometry(space, pair_count=200, seed=2) <= 1e-10


def test_source_scales():
    assert gk.source_circle(gk.Sphere(3)) == gk.Circle()
    assert gk.source_circle(gk.FlatTorus()) == gk.Circle()
    # subspace-angle targets halve every arc, so the source is the
    # half-radius circle
    assert gk.source_circle(gk.ProjectiveSpace(4)) == gk.Circle(scale=0.5)
    assert gk.source_circle(gk.Grassmannian(2, 5)) == gk.Circle(scale=0.5)


def test_half_angle_parametrization():
    target = gk.ProjectiveSpace(2)
    for a, b in [(0.0, 0.3), (1.0, 4.0), (0.2, 6.0)]:
        d_src = gk.distance(gk.source_circle(target), a, b)
        d_tgt = gk.distance(target, *target._circle_points([a, b]))
        assert d_tgt == pytest.approx(d_src, abs=1e-13)
        assert d_tgt == pytest.approx(0.5 * gk.distance(gk.Circle(), a, b), abs=1e-13)


def test_great_circle_images_are_unit_vectors():
    for img in gk.Sphere(4)._circle_points([0.0, 1.0, 3.5]):
        assert len(img) == 5
        require_valid(gk.Sphere(4), img)


def test_wrongly_scaled_map_fails_isometry_check():
    # negative control: a projective space that claims the full-radius
    # circle, on which angles pi apart map to one line
    class Liar(gk.ProjectiveSpace):
        circle_scale = 1.0

    assert gk.verify_isometry(Liar(2), pair_count=50, seed=0) > 1e-2


def test_verify_isometry_refuses_a_negative_pair_count():
    for count in (-1, -3):
        with pytest.raises(EmbeddingError, match=rf"^pair_count must be >= 0, got {count}$"):
            gk.verify_isometry(gk.Sphere(2), pair_count=count)
    assert gk.verify_isometry(gk.Sphere(2), pair_count=0) == 0.0


def test_embedding_for_rejects_projection_metric():
    # every entry point refuses a target that holds no isometric circle
    cert = gk.circle_witness(0.1, n_max=16)
    for text in ("grassmann:2,4:projection", "euclidean:3"):
        target = gk.parse_space(text)
        message = f"^{re.escape(repr(target))} contains no isometric circle$"
        for call in (
            lambda: gk.source_circle(target),
            lambda: gk.verify_isometry(target),
            lambda: gk.transfer_witness(cert, target),
            lambda: gk.witness_for_target(target, 0.1),
        ):
            with pytest.raises(EmbeddingError, match=message):
                call()


def test_transfer_preserves_quadratic_form():
    for lam in (0.05, 0.1, 0.3):
        cert = gk.circle_witness(lam, n_max=64, precision_digits=17)
        moved = gk.transfer_witness(cert, gk.Sphere(3))
        assert moved.lam == cert.lam
        assert moved.coefficients == cert.coefficients
        assert abs(moved.quad_form - cert.quad_form) <= 1e-12 * abs(cert.quad_form)
        assert moved.space == gk.Sphere(3)
        assert moved.lam * moved.space.circle_scale ** 2 == pytest.approx(lam, rel=1e-15)
        assert gk.verify_certificate(moved).ok


def test_transfer_rejects_non_circle_certificates():
    moved = gk.witness_for_target(gk.Sphere(2), 0.1)
    with pytest.raises(CertificateError):
        gk.transfer_witness(moved, gk.Sphere(2))


def test_transfer_rejects_scale_mismatch():
    cert = gk.circle_witness(0.1, n_max=16)  # unit-circle certificate
    with pytest.raises(CertificateError):
        gk.transfer_witness(cert, gk.ProjectiveSpace(2))


def test_transfer_coerces_wide_to_double_for_vector_targets():
    cert = gk.circle_witness(mpf("0.1"), n_max=16, precision_digits=30)
    moved = gk.transfer_witness(cert, gk.Sphere(2))
    assert moved.precision_digits == 17
    assert isinstance(moved.quad_form, float)
    assert gk.verify_certificate(moved).ok


def test_transfer_refuses_a_stored_value_past_the_rounding_bound():
    cert = gk.circle_witness(1, n_max=64, precision_digits=17)
    target = gk.Sphere(2)
    bound = _rounding_bound(cert.coefficients, cert.lam, gk.source_circle(target).scale, 17)
    # the two evaluations agree far inside the bound, which stays far
    # below the violation itself
    moved = gk.transfer_witness(cert, target)
    assert abs(moved.quad_form - cert.quad_form) < bound < 1e-6 * abs(cert.quad_form)
    nudged = dataclasses.replace(cert, quad_form=cert.quad_form + bound / 2)
    assert gk.transfer_witness(nudged, target).quad_form == moved.quad_form
    for shift in (10 * bound, -10 * bound):
        forged = dataclasses.replace(cert, quad_form=cert.quad_form + shift)
        with pytest.raises(CertificateError, match="re-verification failed"):
            gk.transfer_witness(forged, target)


# the 30-digit circle witness at lambda 2 clears its bar, but on sphere:2 it
# is re-evaluated at 17 digits, whose bar its form does not clear
TRANSFER_REFUSAL = ("transferred violation -2.143376e-09 is not below the certification "
                    "threshold -2.800000e-08 at 17 digits")


def test_transfer_refuses_a_violation_above_the_bar():
    with pytest.raises(CertificateError) as info:
        gk.witness_for_target(gk.Sphere(2), 2.0)
    assert str(info.value) == TRANSFER_REFUSAL


def test_witness_space_reports_the_transfer_refusal(capsys):
    assert main(["witness", "space", "--target", "sphere:2", "--lambda", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {TRANSFER_REFUSAL}\n")


def test_flat_torus_transfer_keeps_wide_precision():
    cert = gk.circle_witness(mpf("0.1"), n_max=16, precision_digits=30)
    moved = gk.transfer_witness(cert, gk.FlatTorus())
    assert moved.precision_digits == 30
    assert all(p[1] == 0 for p in moved.points)
    with mp.workdps(40):
        assert abs(moved.quad_form - cert.quad_form) < mpf("1e-25")
    assert gk.verify_certificate(moved).ok


def test_witness_for_target_end_to_end():
    cert = gk.witness_for_target(gk.Grassmannian(2, 4), 0.4)
    assert cert is not None
    assert cert.space == gk.Grassmannian(2, 4)
    assert cert.order == 4
    assert float(cert.lam * cert.space.circle_scale ** 2) == pytest.approx(0.1, rel=1e-15)
    assert float(cert.quad_form) == pytest.approx(-0.18997962224145, abs=1e-12)
    assert gk.verify_certificate(cert).ok


def test_witness_for_target_torus_from_decimal_text():
    # the CLI hands lambda over as text; the wide certificate stores it parsed
    cert = gk.witness_for_target(gk.FlatTorus(), "0.4")
    assert cert is not None
    assert cert.precision_digits == 30
    assert cert.order == 8
    assert float(cert.quad_form) == pytest.approx(-0.015050166445732458, rel=1e-12)
    assert gk.verify_certificate(cert).ok


def test_witness_for_target_exhausted():
    assert gk.witness_for_target(gk.Sphere(2), 1.0, n_max=12) is None
