"""Integer fixed point for wide sums (lift and its inverse), wide
Gaussian rows from one integer recurrence, the kernel values of an exact
progression's gaps, rounded pair differences, and the JSON text of wide
numbers."""

import json
import random
import sys
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, mpf_pos, repr_dps, round_nearest

import geokernel as gk
from geokernel import precision
from geokernel.partial_theta import partial_theta
from geokernel.precision import (
    GUARD_DIGITS,
    LIFT_SPAN,
    ROW_BLOCK,
    PrecisionError,
    cosine_table,
    gap_gaussians,
    gaussian_row,
    lift,
    lift_whole,
    number_from_json,
    number_to_json,
    numeric,
    pair_differences,
    unlift,
    working_dps,
)
from geokernel.spectral import equispaced_half_row


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


@pytest.mark.parametrize("digits", [30, 40, 70, 100])
def test_wide_half_row_is_the_exact_exp_rounded_once(digits):
    # every value is exp(-mu k^2/N^2) for the working-precision mu,
    # formed 200 bits wider and rounded once: 4,730 values per precision
    for lam in (0.01, 0.1, 1, 5, 20):
        for n in (4, 16, 68, 256, 512, 1024):
            with numeric(digits) as x:
                mu = gk.mu_of_lambda(lam, digits)
                row = [v._mpf_ for v in equispaced_half_row(mu, n, x)]
                with mp.workprec(mp.prec + 200):
                    ref = [mp.exp(-mu * k * k / (n * n)) for k in range(n // 2 + 1)]
                assert row == [(+v)._mpf_ for v in ref], (lam, n)


@pytest.mark.parametrize("mu, r, n, digits", [
    ("1e-4", 0, 4, 30),  # 3,592 terms
    ("0.01", 0, 64, 50),  # 7,204 terms
    ("1e-4", "1e-3", 4, 30),  # damped, r > 0
    ("1e-3", 0, 4, 17),  # summed at 17 + GUARD_DIGITS = 27 digits
])
def test_partial_theta_across_row_blocks_is_the_direct_sum(mu, r, n, digits):
    res = partial_theta(mu, r, n, digits)
    assert res.terms_used > 2 * ROW_BLOCK
    with working_dps(digits):
        mu, r = mpf(mu), mpf(r)
        row = [v._mpf_ for v in islice(gaussian_row(mu, r, n), res.terms_used + 1)]
        with mp.workprec(mp.prec + 200):
            ref = [mp.exp(-mu * k * k / (n * n) - r * k / n) for k in range(res.terms_used + 1)]
            total = mp.fsum(v if k % 2 == 0 else -v for k, v in enumerate(ref[:-1]))
        assert row == [(+v)._mpf_ for v in ref]
        assert abs(res.value - total) <= mpf(10) ** -(digits + 5) * total
        assert res.truncation_bound._mpf_ == row[-1]


def _rounded_once(value, prec):
    return mp.make_mpf(mpf_pos(value._mpf_, prec, round_nearest))


def _step(angle, prec):
    """(h, e) with h 2^e the angle cut to an integer multiple of 2^e."""
    e = -prec - 8
    return int(mp.floor(mp.ldexp(angle, -e))), e


@pytest.mark.parametrize("digits, n, scale", [
    (30, 2, "1"), (30, 5, "1"), (40, 97, "0.7"), (60, 600, "2.5"), (100, 1100, "1"),
])
def test_gap_gaussians_are_the_exact_kernel_rounded_once(digits, n, scale):
    # a torus-like progression with three factors: steps near 2 pi/N
    # (both runs of gaps, each past a reseed at N = 1100), a step whose
    # gaps all stay below pi, and a zero step
    with numeric(digits) as x:
        pi, prec = +x.pi, mp.prec
        lam, s = mpf("0.3"), x.num(scale)
        steps = [_step(2 * pi / n, prec), _step(pi / n, prec), (0, 0)]
        steps[0] = (-steps[0][0], steps[0][1])  # a descending factor
        values = [v._mpf_ for v in gap_gaussians(lam, s, steps, n)]
        ref = []
        for g in range(1, n):
            arcs = []
            for h, e in steps:
                d = mp.ldexp(abs(h) * g, e)
                arcs.append(d if d <= pi else mp.fsub(2 * pi, d, exact=True))
            with mp.workprec(prec + 200):
                value = mp.exp(-lam * s * s * mp.fsum(a * a for a in arcs))
            ref.append(_rounded_once(value, prec)._mpf_)
        assert values == ref


def test_pair_differences_round_as_mpf_subtraction():
    # one route for every input, the mpf subtraction's bits: values that
    # lift whole (as the gap route reads them) and one that lifts truncated
    rng = random.Random(9)
    with numeric(40) as x:
        angles = [2 * x.pi * rng.random() for _ in range(40)]
        grid = [mpf(k) / 8 for k in range(-20, 20)]
        for values in (angles, grid, [*angles[:5], mpf("1e-200")]):
            whole = lift_whole(values) is not None
            assert whole == (values[-1] != mpf("1e-200"))
            assert pair_differences(values) == [(a - b)._mpf_ for a, b in combinations(values, 2)]


# N = 601, 1030 and 2100 run the rotation past a reseed at m = ROW_BLOCK
COSINE_NS = [*range(2, 65), 68, 192, 256, 601, 1024, 1030, 2100]


@pytest.mark.parametrize("digits", [18, 30, 40, 100])
def test_cosine_table_is_the_exact_cos_rounded_once(digits):
    for n in COSINE_NS:
        with numeric(digits):
            table = [v._mpf_ for v in cosine_table(n)]
            with mp.workprec(mp.prec + 200):
                ref = [mp.cos(2 * mp.pi * m / n) for m in range(n)]
            for m, v in enumerate(ref):
                quarter = 4 * m % n == 0 and 4 * m // n % 2  # 4m/N odd
                assert table[m] == (mpf(0) if quarter else +v)._mpf_, (n, m)
            assert all(table[n - m] == table[m] for m in range(1, n)), n
            if n % 2 == 0:
                half = n // 2
                assert all(table[half + m] == (-mpf(table[m]))._mpf_ for m in range(half)), n


def test_wide_spectrum_calls_cos_only_to_seed_the_rotation(monkeypatch):
    calls = []
    seed = precision.mpf_cos_sin
    monkeypatch.setattr(precision, "mpf_cos_sin", lambda *a: calls.append(a) or seed(*a))

    def refuse(*a):
        raise AssertionError("a per-entry cos or sin call")

    monkeypatch.setattr(precision._WIDE, "cos", refuse)
    monkeypatch.setattr(mp, "cos", refuse)
    monkeypatch.setattr(mp, "sin", refuse)
    gk.circulant_eigenvalues(20, 256, 100)
    assert len(calls) == 1  # (c_1, s_1); the octant m <= 32 needs no reseed
    for n, seeds in ((2100, 2), (4104, 3), (1030, 2), (601, 2)):
        calls.clear()
        with numeric(30):
            cosine_table(n)
        assert len(calls) == seeds, n


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


def _nstr_to_json(value, digits):
    """The JSON text of a wide value as mpmath.mpf and mpmath.nstr give it:
    the digits + 5 text where it parses back, else the repr_dps one."""
    with working_dps(digits):
        value = mp.mpf(value)
        short = mp.nstr(value, digits + 5, strip_zeros=True)
        if mp.mpf(short)._mpf_ == value._mpf_:
            return short
        return mp.nstr(value, repr_dps(mp.prec), strip_zeros=True)


# plain decimal text, with decimal exponents on both sides of +-400, where
# mpmath stops rounding the exact value once
_DECIMAL_TEXT = st.builds(
    lambda sign, whole, fraction, exp: sign + whole + fraction + exp,
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"[0-9]{1,5}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,130}", fullmatch=True)),
    st.one_of(st.just(""), st.integers(-430, 430).map(lambda e: f"e{e:+d}"),
              st.integers(0, 430).map(lambda e: f"e{e}")),
)


@given(st.integers(18, 100), _DECIMAL_TEXT)
@example(30, "-0.000")
@example(100, "0")
@example(100, "-1.25e-400")
@example(100, "-1.25e-401")
@example(18, "3e400")
@example(18, "3e401")
# past +-400 mpmath rounds twice, and these two land apart from the exact value
@example(30, "91224887618567637e-405")
@example(18, "5725941795693087111011170239160328328219e401")
def test_number_from_json_parses_decimal_text_as_mpmath_does(digits, text):
    with working_dps(digits):
        expected = mp.mpf(text)._mpf_
    assert number_from_json(text, digits)._mpf_ == expected


@pytest.mark.parametrize("digits", [18, 30, 100])
def test_number_from_json_rounds_decimal_ties_to_even(digits):
    # m 2^-j with m of prec + 1 bits lies halfway between two mpf values;
    # written exactly as m 5^j e-j.  A digit 1 far past m / 2 lifts it off
    # the tie: only the remainder of the division tells
    p = dps_to_prec(digits + GUARD_DIGITS)
    for m in (2 ** p + 1, 2 ** p + 3, 2 ** (p + 1) - 1, 3 * 2 ** (p - 1) + 1):
        for sign in "+-":
            texts = [f"{sign}{m * 5 ** j}e-{j}" for j in (1, 3, 40)]
            for text in (*texts, f"{sign}{m // 2}.5", f"{sign}{m // 2}.5{'0' * 40}1"):
                with working_dps(digits):
                    expected = mp.mpf(text)._mpf_
                assert number_from_json(text, digits)._mpf_ == expected, text


@given(st.integers(18, 100), st.one_of(
    # any mantissa at a binary exponent with a decimal one up to about +-430
    st.tuples(st.integers(-2 ** 400, 2 ** 400), st.integers(-1800, 1400)),
    # short decimals, which take the digits + 5 form
    st.builds(lambda whole, exp: f"{whole}e{exp}",
              st.integers(-10 ** 6, 10 ** 6), st.integers(-430, 430)),
))
@example(30, (0, 0))
@example(100, "-4e-5")
def test_number_to_json_writes_as_mpmath_nstr_does(digits, payload):
    with mp.workdps(200):  # the codec rounds it at the working precision
        value = mpf(payload)
    assert number_to_json(value, digits) == _nstr_to_json(value, digits)


@pytest.mark.parametrize("text", [
    "1/3", "inf", "-inf", "nan", " 1.5 ", "1_0", "1e", "abc", ".5", "5.", "1E5",
    "1e-401", "1e401", "1e" + "9" * 5000, "1" * 5000, True,
])
@pytest.mark.parametrize("digits", [18, 100])
def test_number_from_json_takes_other_input_as_before(text, digits):
    def outcome(parse):
        try:
            with working_dps(digits):
                return parse(text)._mpf_
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    expected = (TypeError, "expected a number, got True") if text is True else outcome(mp.mpf)
    assert outcome(lambda t: number_from_json(t, digits)) == expected


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("golden/*cert*.json")),
                         ids=lambda p: p.name)
def test_golden_certificates_read_and_write_as_before(path):
    text = path.read_text()
    obj = json.loads(text)
    cert = gk.cert_from_json(obj)

    def raw(v):  # mpmath.mpf's raw tuples of a number, a text or nested lists of them
        return tuple(map(raw, v)) if isinstance(v, (list, tuple)) else mp.mpf(v)._mpf_

    with working_dps(cert.precision_digits):
        for field, parsed in (("points", cert.points), ("coefficients", cert.coefficients),
                              ("lambda", cert.lam), ("quad_form", cert.quad_form)):
            assert raw(parsed) == raw(obj[field]), field
    assert json.dumps(gk.cert_to_json(cert), sort_keys=True, indent=2) + "\n" == text


# one call per public function that reaches ``numeric`` without a range
# check of its own
GATEWAY_CALLS = {
    "find_witness_size": lambda d: gk.find_witness_size(0.1, 8, d),
    "w_half": lambda d: gk.w_half(20, 8, d),
    "quadratic_form": lambda d: gk.quadratic_form(
        gk.Circle(), 0.1, gk.circle_equispaced(4), [0.5, -0.5, 0.5, -0.5], d),
    "leading_term": lambda d: gk.leading_term(20, 8, d),
    "mu_of_lambda": lambda d: gk.mu_of_lambda(1, d),
}


@pytest.mark.parametrize("digits, message", [
    (16, ">= 17, got 16"),
    (101, "<= 100, got 101"),
    (True, "an integer, got True"),
], ids=["16", "101", "True"])
@pytest.mark.parametrize("name", sorted(GATEWAY_CALLS))
def test_numeric_refuses_digits_out_of_range(name, digits, message):
    with pytest.raises(PrecisionError, match=f"^precision_digits must be {message}$"):
        GATEWAY_CALLS[name](digits)
