"""Integer fixed point for wide sums (lift and its inverse) and the
JSON text of wide numbers."""

import random
import sys

import pytest
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from geokernel.precision import (
    GUARD_DIGITS,
    LIFT_SPAN,
    lift,
    number_from_json,
    number_to_json,
    numeric,
    unlift,
)


def test_numeric_hands_out_the_machine_epsilon():
    with numeric(17) as x:
        assert x.eps is sys.float_info.epsilon
    with numeric(30) as x:
        assert mp.prec == dps_to_prec(30 + GUARD_DIGITS)
        assert +x.eps == mp.eps == mpf(2) ** (1 - mp.prec)


def test_lift_is_exact_and_unlift_inverts_it():
    with numeric(40):
        values = [mpf(1) / 3, -mp.pi, mpf("1e-30"), mpf(0), mpf(2) ** 70]
        ints, exp = lift(values)
        assert [unlift(m, exp) for m in ints] == values
        assert all(isinstance(m, int) for m in ints)


def test_lift_of_zeros():
    with numeric(30):
        assert lift([mpf(0), mpf(0)]) == ([0, 0], 0)


def test_lift_drops_bits_far_below_the_largest_value():
    with numeric(30):
        tiny = mpf("1e-100000")
        ints, exp = lift([mpf(1), tiny, -tiny])
        assert ints[1:] == [0, 0]
        # the dropped values do not widen the kept ones
        assert ints[0].bit_length() <= LIFT_SPAN * mp.prec + 1
        assert unlift(ints[0], exp) == 1


def test_unlift_rounds_once_at_the_working_precision():
    with numeric(30):
        third = mpf(1) / 3
        ints, exp = lift([third, third, third])
        assert unlift(sum(ints), exp) == mp.fsum([third] * 3)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_lift_rejects_non_finite_values(bad):
    with numeric(30):
        with pytest.raises(ValueError):
            lift([mpf(1), mpf(bad)])


def _wide_values(digits):
    """Angles 2 pi k / N for N <= 1024, random signed values, short
    decimals, 0, and exponents near +-100000, at the working precision of
    ``digits``."""
    rng = random.Random(digits)
    with numeric(digits) as x:
        for n in (3, 64, 256, 1000, 1024):
            yield from (2 * x.pi * k / n for k in range(n))
        yield mpf(0)
        for _ in range(100):
            yield mpf(rng.uniform(-1, 1)) * mpf(2) ** rng.randint(-60, 60) / 3
        for length in (1, 3, digits, digits + 5):
            for _ in range(20):
                text = "".join(rng.choice("0123456789") for _ in range(length))
                yield mpf(f"{rng.choice('-+')}0.{text}e{rng.randint(-40, 40)}")
            yield mpf("9." + "9" * (length - 1))
        for e in (-100001, -99999, 99999, 100001):
            yield mpf(rng.uniform(1, 2)) / 7 * mpf(10) ** e
            yield -mp.pi * mpf(10) ** e
            yield mpf(f"0.4e{e}")


@pytest.mark.parametrize("digits", [18, 30, 50, 70, 100])
def test_number_json_reads_back_bit_for_bit(digits):
    forms = set()
    for value in _wide_values(digits):
        text = number_to_json(value, digits)
        assert number_from_json(text, digits)._mpf_ == value._mpf_, text
        # the digits + 5 text wherever it reads back, else the repr_dps one
        with numeric(digits):
            short = mp.nstr(value, digits + 5, strip_zeros=True)
            if mp.mpf(short)._mpf_ == value._mpf_:
                assert text == short
            else:
                assert text == mp.nstr(value, digits + GUARD_DIGITS + 3, strip_zeros=True)
        forms.add(text == short)
    assert forms == {True, False}


@pytest.mark.parametrize("digits", [18, 30, 50, 70, 100])
def test_number_json_keeps_short_text(digits):
    for text in ("0.4", "0.1", "-2.5"):
        value = number_from_json(text, digits)
        assert number_to_json(value, digits) == text
        assert number_to_json(text, digits) == text
