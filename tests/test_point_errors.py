"""Point errors, frozen: the exception type and text that ``require_valid``
and ``check_points`` give for malformed payloads on every space, with the
bad payload first in its set and inside it."""

import math

import numpy as np
import pytest
from mpmath import mpf

import geokernel as gk
from geokernel import spaces as sp
from geokernel.spaces import VARIANTS

IPE = gk.InvalidPointError

MALFORMED = {
    "shape": np.ones((2, 3)),
    "ragged": [[1.0, 0.0], [0.0]],
    "none": None,
    "abc": "abc",
    "text_vector": ["a", "0", "0"],
    "zero_text": "0",
    "one_text": "1",
    "two_chars": "ab",
    "nan": math.nan,
    "inf": math.inf,
    "outside": 7.0,
    "nan_pair": [0.5, math.nan],
    "outside_pair": [7.0, math.nan],  # the first angle's fault is named
    "faults_pair": [math.inf, None],
    "huge": 10**400,
    "huge_pair": [0.5, 10**400],
    "list": [0.5],
    "triple": [0.5, 0.5, 0.5],
    "wide": mpf("-1e-400"),  # float() rounds it to -0.0
    "wide_pair": [0.5, mpf("-1e-400")],
    "empty": [],
    "numeric_text": ["1", "0", "0"],  # numpy reads each entry as a float
    "text_matrix": [["1", "0"], ["0", "1"]],
}

# an InvalidPointError with numpy's own text converting the payload to a
# float array
NUMPY = "numpy"

# variant text -> payload name -> (type, text) that require_valid raises,
# or None where the payload is a valid point
POINT_ERRORS = {
    "circle": {
        "shape": (IPE, "circle: angle payload is not a real number"),
        "ragged": (IPE, "circle: angle payload is not a real number"),
        "none": (IPE, "circle: angle payload is not a real number"),
        "abc": (IPE, "circle: angle payload is not a real number"),
        "text_vector": (IPE, "circle: angle payload is not a real number"),
        "zero_text": (IPE, "circle: angle payload is not a real number"),
        "one_text": (IPE, "circle: angle payload is not a real number"),
        "two_chars": (IPE, "circle: angle payload is not a real number"),
        "nan": (IPE, "circle: angle is not finite"),
        "inf": (IPE, "circle: angle is not finite"),
        "outside": (IPE, "circle: angle outside [0, 2*pi)"),
        "nan_pair": (IPE, "circle: angle payload is not a real number"),
        "outside_pair": (IPE, "circle: angle payload is not a real number"),
        "faults_pair": (IPE, "circle: angle payload is not a real number"),
        "huge": (IPE, "circle: angle is not finite"),
        "huge_pair": (IPE, "circle: angle payload is not a real number"),
        "list": (IPE, "circle: angle payload is not a real number"),
        "triple": (IPE, "circle: angle payload is not a real number"),
        "wide": (IPE, "circle: angle outside [0, 2*pi)"),
        "wide_pair": (IPE, "circle: angle payload is not a real number"),
        "empty": (IPE, "circle: angle payload is not a real number"),
        "numeric_text": (IPE, "circle: angle payload is not a real number"),
        "text_matrix": (IPE, "circle: angle payload is not a real number"),
    },
    "sphere:2": {
        "shape": (IPE, "sphere: expected vector of length 3, got shape (2, 3)"),
        "ragged": NUMPY,
        "none": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "abc": NUMPY,
        "text_vector": NUMPY,
        "zero_text": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "one_text": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "two_chars": NUMPY,
        "nan": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "inf": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "outside": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "nan_pair": (IPE, "sphere: expected vector of length 3, got shape (2,)"),
        "outside_pair": (IPE, "sphere: expected vector of length 3, got shape (2,)"),
        "faults_pair": (IPE, "sphere: expected vector of length 3, got shape (2,)"),
        "huge": (IPE, "sphere: int too large to convert to float"),
        "huge_pair": (IPE, "sphere: int too large to convert to float"),
        "list": (IPE, "sphere: expected vector of length 3, got shape (1,)"),
        "triple": (IPE, "sphere: norm != 1"),
        "wide": (IPE, "sphere: expected vector of length 3, got shape ()"),
        "wide_pair": (IPE, "sphere: expected vector of length 3, got shape (2,)"),
        "empty": (IPE, "sphere: expected vector of length 3, got shape (0,)"),
        "numeric_text": (IPE, "sphere: vector has text entries"),
        "text_matrix": (IPE, "sphere: expected vector of length 3, got shape (2, 2)"),
    },
    "projective:2": {
        "shape": (IPE, "projective: expected vector of length 3, got shape (2, 3)"),
        "ragged": NUMPY,
        "none": (IPE, "projective: expected vector of length 3, got shape ()"),
        "abc": NUMPY,
        "text_vector": NUMPY,
        "zero_text": (IPE, "projective: expected vector of length 3, got shape ()"),
        "one_text": (IPE, "projective: expected vector of length 3, got shape ()"),
        "two_chars": NUMPY,
        "nan": (IPE, "projective: expected vector of length 3, got shape ()"),
        "inf": (IPE, "projective: expected vector of length 3, got shape ()"),
        "outside": (IPE, "projective: expected vector of length 3, got shape ()"),
        "nan_pair": (IPE, "projective: expected vector of length 3, got shape (2,)"),
        "outside_pair": (IPE, "projective: expected vector of length 3, got shape (2,)"),
        "faults_pair": (IPE, "projective: expected vector of length 3, got shape (2,)"),
        "huge": (IPE, "projective: int too large to convert to float"),
        "huge_pair": (IPE, "projective: int too large to convert to float"),
        "list": (IPE, "projective: expected vector of length 3, got shape (1,)"),
        "triple": (IPE, "projective: norm != 1"),
        "wide": (IPE, "projective: expected vector of length 3, got shape ()"),
        "wide_pair": (IPE, "projective: expected vector of length 3, got shape (2,)"),
        "empty": (IPE, "projective: expected vector of length 3, got shape (0,)"),
        "numeric_text": (IPE, "projective: vector has text entries"),
        "text_matrix": (IPE, "projective: expected vector of length 3, got shape (2, 2)"),
    },
    "grassmann:2,4": {
        "shape": (IPE, "grassmannian: expected 4x2 representative, got shape (2, 3)"),
        "ragged": NUMPY,
        "none": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "abc": NUMPY,
        "text_vector": NUMPY,
        "zero_text": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "one_text": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "two_chars": NUMPY,
        "nan": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "inf": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "outside": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "nan_pair": (IPE, "grassmannian: expected 4x2 representative, got shape (2,)"),
        "outside_pair": (IPE, "grassmannian: expected 4x2 representative, got shape (2,)"),
        "faults_pair": (IPE, "grassmannian: expected 4x2 representative, got shape (2,)"),
        "huge": (IPE, "grassmannian: int too large to convert to float"),
        "huge_pair": (IPE, "grassmannian: int too large to convert to float"),
        "list": (IPE, "grassmannian: expected 4x2 representative, got shape (1,)"),
        "triple": (IPE, "grassmannian: expected 4x2 representative, got shape (3,)"),
        "wide": (IPE, "grassmannian: expected 4x2 representative, got shape ()"),
        "wide_pair": (IPE, "grassmannian: expected 4x2 representative, got shape (2,)"),
        "empty": (IPE, "grassmannian: expected 4x2 representative, got shape (0,)"),
        "numeric_text": (IPE, "grassmannian: expected 4x2 representative, got shape (3,)"),
        "text_matrix": (IPE, "grassmannian: expected 4x2 representative, got shape (2, 2)"),
    },
    "spd:2": {
        "shape": (IPE, "spd: expected 2x2 matrix, got shape (2, 3)"),
        "ragged": NUMPY,
        "none": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "abc": NUMPY,
        "text_vector": NUMPY,
        "zero_text": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "one_text": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "two_chars": NUMPY,
        "nan": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "inf": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "outside": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "nan_pair": (IPE, "spd: expected 2x2 matrix, got shape (2,)"),
        "outside_pair": (IPE, "spd: expected 2x2 matrix, got shape (2,)"),
        "faults_pair": (IPE, "spd: expected 2x2 matrix, got shape (2,)"),
        "huge": (IPE, "spd: int too large to convert to float"),
        "huge_pair": (IPE, "spd: int too large to convert to float"),
        "list": (IPE, "spd: expected 2x2 matrix, got shape (1,)"),
        "triple": (IPE, "spd: expected 2x2 matrix, got shape (3,)"),
        "wide": (IPE, "spd: expected 2x2 matrix, got shape ()"),
        "wide_pair": (IPE, "spd: expected 2x2 matrix, got shape (2,)"),
        "empty": (IPE, "spd: expected 2x2 matrix, got shape (0,)"),
        "numeric_text": (IPE, "spd: expected 2x2 matrix, got shape (3,)"),
        "text_matrix": (IPE, "spd: matrix has text entries"),
    },
    "euclidean:3": {
        "shape": (IPE, "euclidean: expected vector of length 3, got shape (2, 3)"),
        "ragged": NUMPY,
        "none": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "abc": NUMPY,
        "text_vector": NUMPY,
        "zero_text": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "one_text": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "two_chars": NUMPY,
        "nan": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "inf": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "outside": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "nan_pair": (IPE, "euclidean: expected vector of length 3, got shape (2,)"),
        "outside_pair": (IPE, "euclidean: expected vector of length 3, got shape (2,)"),
        "faults_pair": (IPE, "euclidean: expected vector of length 3, got shape (2,)"),
        "huge": (IPE, "euclidean: int too large to convert to float"),
        "huge_pair": (IPE, "euclidean: int too large to convert to float"),
        "list": (IPE, "euclidean: expected vector of length 3, got shape (1,)"),
        "triple": None,
        "wide": (IPE, "euclidean: expected vector of length 3, got shape ()"),
        "wide_pair": (IPE, "euclidean: expected vector of length 3, got shape (2,)"),
        "empty": (IPE, "euclidean: expected vector of length 3, got shape (0,)"),
        "numeric_text": (IPE, "euclidean: vector has text entries"),
        "text_matrix": (IPE, "euclidean: expected vector of length 3, got shape (2, 2)"),
    },
    "torus": {
        "shape": (IPE, "torus: angle payload is not a real number"),
        "ragged": (IPE, "torus: angle payload is not a real number"),
        "none": (IPE, "torus: torus point must be a pair of angles"),
        "abc": (IPE, "torus: torus point must be a pair of angles"),
        "text_vector": (IPE, "torus: torus point must be a pair of angles"),
        "zero_text": (IPE, "torus: torus point must be a pair of angles"),
        "one_text": (IPE, "torus: torus point must be a pair of angles"),
        "two_chars": (IPE, "torus: angle payload is not a real number"),
        "nan": (IPE, "torus: torus point must be a pair of angles"),
        "inf": (IPE, "torus: torus point must be a pair of angles"),
        "outside": (IPE, "torus: torus point must be a pair of angles"),
        "nan_pair": (IPE, "torus: angle is not finite"),
        "outside_pair": (IPE, "torus: angle outside [0, 2*pi)"),
        "faults_pair": (IPE, "torus: angle is not finite"),
        "huge": (IPE, "torus: torus point must be a pair of angles"),
        "huge_pair": (IPE, "torus: angle is not finite"),
        "list": (IPE, "torus: torus point must be a pair of angles"),
        "triple": (IPE, "torus: torus point must be a pair of angles"),
        "wide": (IPE, "torus: torus point must be a pair of angles"),
        "wide_pair": (IPE, "torus: angle outside [0, 2*pi)"),
        "empty": (IPE, "torus: torus point must be a pair of angles"),
        "numeric_text": (IPE, "torus: torus point must be a pair of angles"),
        "text_matrix": (IPE, "torus: angle payload is not a real number"),
    },
}

# the errors check_points prefixes with the index of the point and the
# space
NAMED = (TypeError, ValueError, OverflowError)


def test_every_variant_is_covered():
    assert {type(gk.parse_space(text)) for text in POINT_ERRORS} == set(VARIANTS.values())


def _raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("text, name", [(t, n) for t in POINT_ERRORS for n in MALFORMED])
def test_point_errors_are_frozen(text, name):
    space, payload = gk.parse_space(text), MALFORMED[name]
    expected = POINT_ERRORS[text][name]
    if expected == NUMPY:
        kind, text = _raised(lambda: np.asarray(payload, dtype=float))
        assert kind is ValueError
        expected = (IPE, f"{space.variant}: {text}")
    good = gk.sample_points(space, 1, 3)
    sets = {0: [payload, *good], 2: [*good[:2], payload, good[2]]}
    if expected is None:
        sp.require_valid(space, payload)
        for points in sets.values():
            sp.check_points(space, points)
        return
    kind, message = expected
    assert _raised(lambda: sp.require_valid(space, payload)) == expected
    for index, points in sets.items():
        if issubclass(kind, NAMED):
            expected = (IPE, f"point {index} of {space!r}: {message}")
        assert _raised(lambda: sp.check_points(space, points)) == expected
