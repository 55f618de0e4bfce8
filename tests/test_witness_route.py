"""The circle witness is built from the alternating mode the scan stops
at, with no circulant spectrum; these tests hold it to the spectrum
route byte for byte: every certificate, refusal and None the same as
``build_certificate`` on the same points through ``psd_decision``."""

import json
import math

import numpy as np
import pytest

import geokernel as gk
from geokernel import certificates, circle, cli, spectral
from geokernel.certificates import build_certificate, cert_from_json, cert_to_json
from geokernel.circle import circle_witness, find_witness_size
from geokernel.embeddings import source_circle, transfer_witness, witness_for_target
from geokernel.precision import MAX_DIGITS, numeric
from geokernel.spectral import circulant_eigenvalues

# plus 2.5: refused at 17 digits with w_{N/2} = -1.694531959827355e-11,
# the circulant spectrum's value, of which about 6 digits are good
LAMBDAS = [float(v) for v in np.geomspace(0.005, 22, 30)] + [2.5]
TARGETS = ["sphere:2", "projective:2", "torus", "grassmann:2,4"]
N_MAX = 1024


def derived_digits(lam: float) -> int:
    """ceil(mu / (4 ln 10) + log10(10 N)) + 8 guard digits, N from the
    explicit witness size 4 ceil((2/pi) sqrt(mu (mu/4 + ln(mu)/2 + 2)) / 4),
    within the supported digits."""
    mu = 4 * math.pi ** 2 * lam
    n = 4 * math.ceil(2 / math.pi * math.sqrt(mu * (mu / 4 + math.log(mu) / 2 + 2)) / 4)
    return min(MAX_DIGITS, max(17, math.ceil(mu / (4 * math.log(10)) + math.log10(10 * n)) + 8))


def _outcome(build):
    """The certificate's JSON text, or the refusal's type and text, or None."""
    try:
        cert = build()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return None if cert is None else json.dumps(cert_to_json(cert))


def _spectrum_route(lam, digits, scale=1.0):
    """The certificate as built before: the scan's N and the witness's
    points, then the minimum mode of the circulant spectrum
    ``psd_decision`` computes."""
    hit = find_witness_size(lam * scale ** 2, N_MAX, digits)
    if hit is None:
        return None
    n = hit[0]
    with numeric(digits) as x:
        points = circle._progression(n, x)
    return build_certificate(gk.Circle(scale=scale), lam, points, digits)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_circle_witness_matches_the_spectrum_route(lam):
    for digits in sorted({17, 30, derived_digits(lam)}):
        new = _outcome(lambda: circle_witness(lam, N_MAX, digits))
        assert new == _outcome(lambda: _spectrum_route(lam, digits)), (lam, digits)
        hit = find_witness_size(lam, N_MAX, digits)
        if hit is not None:
            n = hit[0]
            spectrum = circulant_eigenvalues(lam, n, digits)
            assert spectrum.fourier_indices[0] == n // 2, (lam, digits, n)


def test_the_sweep_certifies_and_refuses():
    """The grid holds certificates, refusals and exhausted scans alike."""
    kinds = set()
    for lam in LAMBDAS[::3]:
        for digits in (17, 30):
            out = _outcome(lambda: circle_witness(lam, N_MAX, digits))
            kinds.add("none" if out is None else "cert" if isinstance(out, str) else "refused")
    assert kinds == {"none", "cert", "refused"}


@pytest.mark.parametrize("text", TARGETS)
def test_target_witness_matches_the_spectrum_route(text):
    target = gk.parse_space(text)
    scale = source_circle(target).scale
    for lam in (0.4, 1.0, 2.0, 5.0):
        for digits in (17, 30, derived_digits(lam)):
            def old():
                cert = _spectrum_route(lam, digits, scale)
                return None if cert is None else transfer_witness(cert, target)

            new = _outcome(lambda: witness_for_target(target, lam, N_MAX, digits))
            assert new == _outcome(old), (text, lam, digits)


@pytest.mark.parametrize("digits", [17, 30, 50, 100])
@pytest.mark.parametrize("n", [4, 68, 256, 1024])
def test_alternating_cosine_mode_is_exactly_plus_minus_one(n, digits):
    """cos(2 pi (N/2) k / N), formed as ``min_eigenvector`` forms a
    cosine mode, rounds to exactly (-1)^k."""
    with numeric(digits) as x:
        comps = [x.cos(2 * x.pi * (n // 2) * k / n) for k in range(n)]
        assert comps == [x.num((-1) ** k) for k in range(n)]


def _refuse(*_args, **_kwargs):
    raise AssertionError("the witness path formed a circulant spectrum")


@pytest.mark.parametrize("lam, digits", [("5", 50), ("10", 70), ("15", 90), ("20", 100)])
def test_circle_witness_forms_no_spectrum(monkeypatch, capsys, lam, digits):
    for mod in (certificates, circle, cli, spectral):
        for name in ("circulant_eigenvalues", "min_eigenvector"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _refuse)
    argv = ["witness", "circle", "--lambda", lam, "--max-n", str(N_MAX), "--precision", str(digits)]
    assert cli.main(argv) == 0
    cert = cert_from_json(json.loads(capsys.readouterr().out))
    assert gk.verify_certificate(cert).ok


def test_each_distinct_coefficient_is_formatted_and_parsed_once(monkeypatch):
    cert = circle_witness("10", N_MAX, 70)
    text = json.dumps(cert_to_json(cert))
    calls = []
    for name in ("number_to_json", "number_from_json"):
        original = getattr(certificates, name)
        monkeypatch.setattr(certificates, name,
                            lambda v, d, f=original, name=name: calls.append(name) or f(v, d))
    obj = cert_to_json(cert)
    assert json.dumps(obj) == text
    assert json.dumps(cert_to_json(cert_from_json(obj))) == text
    # lambda, quad_form and the two coefficient values, each way
    assert sorted(calls) == ["number_from_json"] * 4 + ["number_to_json"] * 8
