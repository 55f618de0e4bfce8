"""Argument checks of the public functions, frozen: the exception type and
text each one gives for a malformed call."""

import numpy as np
import pytest

import geokernel as gk
from geokernel import spaces as sp
from geokernel.certificates import CertificateError
from geokernel.circle import CircleError
from geokernel.gram import GramError
from geokernel.partial_theta import PartialThetaError
from geokernel.spectral import AsymmetricInputError

CIRCLE4 = gk.circle_equispaced(4)

CALLS = {
    "quadratic_form_coefficient_count": (
        lambda: gk.quadratic_form(gk.Circle(), 0.1, CIRCLE4, [1.0, -1.0, 1.0], 17),
        CertificateError, "3 coefficients for 4 points"),
    "build_certificate_one_point": (
        lambda: gk.build_certificate(gk.Circle(), 0.1, [0.0]),
        CertificateError, "need at least two points"),
    "psd_decision_no_points": (
        lambda: gk.psd_decision(gk.Circle(), [], 0.1),
        CertificateError, "need at least one point"),
    "find_witness_size_n_max_3": (
        lambda: gk.find_witness_size(0.1, 3),
        CircleError, "n_max must be at least 4"),
    "gram_matrix_2x3": (
        lambda: gk.GramMatrix(np.ones((2, 3))),
        GramError, "entries must be a square matrix"),
    "leading_term_n_0": (
        lambda: gk.leading_term(20, 0),
        PartialThetaError, "N must be an integer >= 1"),
    "matrix_log_indefinite": (
        lambda: sp.matrix_log(np.diag([1.0, -1.0])),
        gk.InvalidPointError, "matrix log needs strictly positive eigenvalues"),
    "sample_points_count_0": (
        lambda: gk.sample_points(gk.Circle(), 0, 0),
        gk.InvalidSpaceError, "count must be >= 1"),
    "jacobi_eigenvalues_2x3": (
        lambda: gk.jacobi_eigenvalues(np.ones((2, 3))),
        AsymmetricInputError, "matrix is 2x3, not square"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_malformed_call_raises_its_error(name):
    call, error, message = CALLS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message

