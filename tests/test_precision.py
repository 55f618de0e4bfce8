"""Integer fixed point for wide sums: lift and its inverse."""

import pytest
from mpmath import mp, mpf

from geokernel.precision import LIFT_SPAN, lift, numeric, unlift


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
