"""Working-precision plumbing shared by the series and spectrum code.

Everything at or below :data:`DOUBLE_DIGITS` significant digits runs on
IEEE doubles; above that, computations switch to mpmath wide floats.
:func:`numeric` hands out the arithmetic for a precision, so each formula
is written once for both.  The default wide precision is
:data:`DEFAULT_DIGITS` (30 digits); commands that take ``--precision``
override it per call.

Wide sums of products (quadratic forms, circulant spectra) run in
integer fixed point: :func:`lift` puts a list of mpf values on one
binary exponent, the products and the sum are exact Python integers,
and :func:`unlift` rounds the total once.  The only rounding in such a
sum is in its inputs.  Those inputs are correctly rounded: wide Gaussian
rows come from one integer recurrence, :func:`gaussian_row`, with two
``exp`` calls per block, and so do the kernel values of an exact
progression's index gaps (:func:`gap_gaussians`); the equispaced cosines
come from another, :func:`cosine_table`, a rotation with one
``cos``/``sin`` seed per block and the rest of the circle filled by exact
symmetry.

Wide numbers travel through JSON as decimal text, and the codec works on
integers: :func:`number_from_json` splits plain decimal text into an
integer mantissa and a power of ten and rounds their quotient once
(:func:`_decimal_mpf`), which is the mpf that ``mpmath.mpf`` parses from
the same text; :func:`number_to_json` writes with libmp's ``to_str``,
the formatter behind ``mpmath.nstr``.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager, nullcontext
from functools import cache
from itertools import combinations, count, islice
from types import SimpleNamespace

import mpmath as mp
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, from_rational, fzero, mpf_add,
                          mpf_cos_sin, mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_shift, mpf_sub,
                          repr_dps, round_nearest, to_fixed, to_str)

# Significant decimal digits representable by an IEEE double.  Requests at
# or below this run entirely in hardware floats.
DOUBLE_DIGITS = 17

DEFAULT_DIGITS = 30
MAX_DIGITS = 100

# Guard digits added on top of the requested precision while summing, so
# the returned values are correctly rounded at the requested precision.
GUARD_DIGITS = 10

# lift() keeps bits down to this many working precisions below its
# largest value; mpf_sum likewise drops terms past a gap of two
LIFT_SPAN = 3

# decimal text the codec parses on integers: sign, whole digits, fraction
# digits and exponent; any other text goes to mpmath.mpf
_DECIMAL = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+))?(?:e([+-]?[0-9]+))?")
# mpmath.mpf rounds a decimal correctly only up to this decimal exponent
# (of the mantissa with its fraction's trailing zeros cut)
_EXACT_DECIMAL_EXP = 400

# bits past the working precision of gaussian_row's and cosine_table's
# recurrences, and their steps between seeds
ROW_GUARD_BITS = 64
ROW_BLOCK = 256


class PrecisionError(ValueError):
    """Requested precision outside the supported range."""


def check_digits(digits: int) -> int:
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise PrecisionError(f"precision_digits must be an integer, got {digits!r}")
    if digits < DOUBLE_DIGITS:
        raise PrecisionError(
            f"precision_digits must be >= {DOUBLE_DIGITS}, got {digits}"
        )
    if digits > MAX_DIGITS:
        raise PrecisionError(
            f"precision_digits must be <= {MAX_DIGITS}, got {digits}"
        )
    return digits


def resolve_digits(digits: int | None) -> int:
    return DEFAULT_DIGITS if digits is None else check_digits(digits)


_HELD = nullcontext()  # reusable: it holds no state


def working_dps(digits: int):
    """mpmath context at ``digits`` plus guard digits.  Entering it where
    that precision already holds changes nothing and costs almost
    nothing, so a caller that formats or parses many numbers enters it
    once around all of them."""
    return _HELD if mp.mp.prec == _working_prec(digits) else mp.workdps(digits + GUARD_DIGITS)


@cache
def _working_prec(digits: int) -> int:
    return dps_to_prec(digits + GUARD_DIGITS)


# math.fsum, not mpmath's fp.fsum: only the former is compensated
_DOUBLE = SimpleNamespace(
    wide=False, num=float, exp=math.exp, cos=math.cos, sqrt=math.sqrt, pi=math.pi,
    fsum=math.fsum, isfinite=math.isfinite, eps=sys.float_info.epsilon,
)
_WIDE = SimpleNamespace(
    wide=True, num=mp.mpf, exp=mp.exp, cos=mp.cos, sqrt=mp.sqrt, pi=mp.pi,
    fsum=mp.fsum, isfinite=mp.isfinite, eps=mp.eps,
)


@contextmanager
def numeric(digits: int):
    """Arithmetic at ``digits``: floats and :mod:`math` up to
    :data:`DOUBLE_DIGITS`, mpmath inside :func:`working_dps` above it.

    Yields a namespace with ``wide`` (False on doubles), ``num`` (parse a
    number), ``exp``, ``cos``, ``sqrt``, ``pi``, ``fsum``, ``isfinite``
    and ``eps`` = 2^(1 - prec).  ``digits`` is range-checked first
    (:func:`check_digits`).
    """
    if check_digits(digits) <= DOUBLE_DIGITS:
        yield _DOUBLE
    else:
        with working_dps(digits):
            yield _WIDE


def lift(values) -> tuple[list[int], int]:
    """(mantissas, exponent) with ``mantissas[i] * 2**exponent`` equal to
    ``values[i]``, finite mpf values at the working precision.

    Bits more than :data:`LIFT_SPAN` working precisions below the largest
    value are truncated toward zero, so the integers stay that narrow
    whatever exponents the inputs carry.  Non-finite values raise
    ``ValueError``.
    """
    raws = [v._mpf_ for v in values]
    if any(not man and exp for _, man, exp, _ in raws):
        raise ValueError("cannot lift a non-finite value")
    nonzero = [(exp, bc) for _, man, exp, bc in raws if man]
    if not nonzero:
        return [0] * len(raws), 0
    cut = max(exp + bc for exp, bc in nonzero) - LIFT_SPAN * mp.mp.prec
    # values wholly under the cut lift to 0 and do not widen the rest
    floor = max(cut, min(exp for exp, bc in nonzero if exp + bc > cut))
    out = []
    for sign, man, exp, _ in raws:
        man = man << (exp - floor) if exp >= floor else man >> (floor - exp)
        out.append(-man if sign else man)
    return out, floor


def unlift(mantissa: int, exponent: int) -> mp.mpf:
    """``mantissa * 2**exponent`` rounded once at the working precision
    and rounding mode: the inverse of :func:`lift`."""
    prec, rnd = mp.mp._prec_rounding
    return mp.make_mpf(from_man_exp(mantissa, exponent, prec, rnd))


def gaussian_row(mu, r, n: int):
    """exp(-(mu k^2/N^2 + r k/N)) for k = 0, 1, 2, ... without end, for finite mpf
    mu > 0 and r >= 0, each the exact value rounded once at the working
    precision p.

    t_{k+1} = t_k q_k and q_{k+1} = q_k d, for q_k = exp(-(mu (2k + 1)/N^2
    + r/N)) and d = exp(-2 mu/N^2), on W = p + ROW_GUARD_BITS bit integer
    mantissas with their own exponents, each product cut to W bits
    (:func:`_row_terms`).  t_0 = 1; q_0, d (q_0^2 when r = 0), and t_k, q_k
    at each k in ROW_BLOCK Z+ are seeded by ``mpf_exp`` at W bits of an
    exact numerator divided once by N^2 to within 2^(-W-4).  A seed or cut
    errs by under 2^(1-W) and d by 3 times that, so m < ROW_BLOCK terms past
    a seed q errs by (1 + 4m) 2^(1-W) and t by (1 + 2m^2) 2^(1-W) < 2^-46 u,
    u = 2^-p: each term is within (1 + 2^-45) u of the exact value.
    """
    prec, rnd = mp.mp._prec_rounding
    mu, r = mp.mpf(mu)._mpf_, mp.mpf(r)._mpf_
    for man, exp in _row_terms(mu, r, fzero, n, prec + ROW_GUARD_BITS):
        yield mp.make_mpf(from_man_exp(man, exp, prec, rnd))


def _row_terms(mu, r, c, n: int, wide: int):
    """:func:`gaussian_row`'s recurrence for raw mpf coefficients, which
    enter exactly, with a constant c >= 0 in the exponent: exp(-(c + mu
    k^2/N^2 + r k/N)) as unrounded (mantissa, exponent) pairs with
    ``wide``-bit mantissas.  t_0 = exp(-c) is seeded like t_k (it is (1, 0)
    when c = 0), so every term keeps gaussian_row's error bound."""
    nn = from_int(n * n)
    cnn = mpf_mul(c, nn)

    def seed(a: int, b: int, base=fzero):  # exp(-(base + mu a + r b)/N^2)
        num = mpf_add(base, mpf_add(mpf_mul(mu, from_int(a)), mpf_mul(r, from_int(b))))
        mag = max(0, num[2] + num[3] - nn[2] - nn[3] + 1)  # 2^mag > num/N^2
        arg = mpf_div(num, nn, wide + 4 + mag, round_nearest)
        _, man, exp, bc = mpf_exp(mpf_neg(arg), wide, round_nearest)
        return man << wide - bc, exp - wide + bc

    def cut(man: int, exp: int):
        shift = man.bit_length() - wide
        return man >> shift, exp + shift

    (t, t_exp), (q, q_exp) = (1, 0) if c == fzero else seed(0, 0, cnn), seed(1, n)
    d, d_exp = cut(q * q, 2 * q_exp) if r == fzero else seed(2, 0)
    for k in count(1):
        yield t, t_exp
        if k % ROW_BLOCK:
            (t, t_exp), (q, q_exp) = cut(t * q, t_exp + q_exp), cut(q * d, q_exp + d_exp)
        else:
            (t, t_exp), (q, q_exp) = seed(k * k, k * n, cnn), seed(2 * k + 1, n)


def gap_gaussians(lam, scale, steps, n: int) -> list:
    """exp(-lam s^2 sum_f a_f(g)^2) for the index gaps g = 1, ..., N-1 of N
    points in exact progression, each the exact value rounded once at the
    working precision p, for mpf lam > 0 and scale s > 0.

    ``steps`` holds one (h, e) per angle factor, its step h 2^e (integers,
    as :func:`lift` gives labels), so the factor's angles differ by g H at
    gap g, H = |h| 2^e, and (N-1) H < 2 pi_p for the working pi_p, as for
    valid angles.  The arc a(g) = min(g H, 2 pi_p - g H) is exact.  With
    w = lam s^2, the gaps g H <= pi_p read the Gaussian row exp(-w H^2 g^2);
    the rest, counted down from g = N-1 as j = N-1-g, have the arc alpha +
    j H, alpha = 2 pi_p - (N-1) H > 0, and read exp(-(w alpha^2 + w H^2 j^2
    + 2 w alpha H j)).  Both are :func:`gaussian_row` recurrences (N = 1)
    on exact coefficients.  A factor with h = 0 contributes exactly 1, and
    a gap's factors multiply at the rows' W = p + ROW_GUARD_BITS bits
    before the one rounding, so each value is within (1 + 2^-44) u of the
    exact one, u = 2^-p.
    """
    prec, rnd = mp.mp._prec_rounding
    wide = prec + ROW_GUARD_BITS
    pi = (+mp.pi)._mpf_
    _, pi_man, pi_exp, _ = pi
    w = mpf_mul(lam._mpf_, mpf_mul(scale._mpf_, scale._mpf_))
    terms = [(1, 0)] * (n - 1)
    for h, e in steps:
        h = abs(h)
        if not h:
            continue
        step = from_man_exp(h, e)
        alpha = mpf_sub(mpf_shift(pi, 1), from_man_exp((n - 1) * h, e))
        mu = mpf_mul(w, mpf_mul(step, step))
        r, c = mpf_shift(mpf_mul(mpf_mul(w, alpha), step), 1), mpf_mul(w, mpf_mul(alpha, alpha))
        # the last gap g with g H <= pi_p, in integers
        shift = pi_exp - e
        near = min(n - 1, (pi_man << shift) // h if shift >= 0 else pi_man // (h << -shift))
        far = list(islice(_row_terms(mu, r, c, 1, wide), n - 1 - near))
        row = [*islice(_row_terms(mu, fzero, fzero, 1, wide), 1, near + 1), *reversed(far)]
        terms = [(a * b, x + y) for (a, x), (b, y) in zip(terms, row)]
    return [mp.make_mpf(from_man_exp(man, exp, prec, rnd)) for man, exp in terms]


def lift_whole(values):
    """:func:`lift`'s (mantissas, exponent) when no value loses a bit to the
    lift, else None."""
    mantissas, exp = lift(values)
    # a nonzero mpf mantissa is odd, so a value below the exponent has lost bits
    return (mantissas, exp) if all(not v._mpf_[1] or v._mpf_[2] >= exp for v in values) else None


def pair_differences(values) -> list:
    """values[i] - values[j] for the pairs i < j in ``combinations`` order,
    each rounded at the working precision and rounding mode as mpf
    subtraction rounds it, as raw mpf tuples."""
    prec, rnd = mp.mp._prec_rounding
    return [mpf_sub(a, b, prec, rnd) for a, b in combinations([v._mpf_ for v in values], 2)]


def cosine_table(n: int) -> list:
    """cos(2 pi m/N) for m = 0, ..., N-1, each the exact value rounded once
    at the working precision p, and exactly 0 where 4m/N is an odd integer.

    (c_m, s_m) = (cos, sin)(2 pi m/N) come from the rotation c_{m+1} =
    c_m c_1 - s_m s_1, s_{m+1} = s_m c_1 + c_m s_1 on W = p + ROW_GUARD_BITS
    bit fixed-point integers, floored; (c_1, s_1) and (c_k, s_k) at each k
    in ROW_BLOCK Z+ are seeded by ``mpf_cos_sin`` (``pi=True``, of 2k/N
    rounded to W + 8 bits), (c_0, s_0) = (1, 0).  A seed errs by under
    1.3 * 2^-W in each coordinate and each step adds under 2^(2-W) to the
    error vector, so m < ROW_BLOCK steps past a seed are within 2^(10-W) of
    the exact pair: an entry of size 2^-e or more is within 2^(e-54) u of
    its exact value, u = 2^-p relative, and every entry is at least
    sin(pi/2N) in size unless it is 0.
    The recurrence runs over m <= N/8 when 4 | N, m <= N/4 when only 2 | N
    and m <= N/2 for odd N; the rest of the table is exact symmetry,
    C[N-m] = C[m], C[N/2 -+ m] = -C[m] and, when 4 | N, C[N/4 - m] = s_m, so
    C[N/4] = s_0 = 0.
    """
    prec, rnd = mp.mp._prec_rounding
    wide = prec + ROW_GUARD_BITS

    def seed(k: int):  # (cos, sin)(2 pi k/N) as W-bit fixed-point integers
        arg = from_rational(2 * k, n, wide + 8, round_nearest)
        return tuple(to_fixed(v, wide) for v in mpf_cos_sin(arg, wide + 2, round_nearest, 0, True))

    last = n // 8 if n % 4 == 0 else n // 4 if n % 2 == 0 else n // 2
    c1, s1 = seed(1)
    c, s = 1 << wide, 0
    cos, sin = [], []
    for m in range(last + 1):
        if m and m % ROW_BLOCK == 0:
            c, s = seed(m)
        cos.append(c)
        sin.append(s)
        c, s = (c * c1 - s * s1) >> wide, (s * c1 + c * s1) >> wide
    table = [from_man_exp(v, -wide, prec, rnd) for v in cos]
    if n % 4 == 0:
        table += [from_man_exp(v, -wide, prec, rnd) for v in reversed(sin[:n // 4 - last])]
    if n % 2 == 0:  # the quadrant m <= N/4 is whole; reflect it about N/4
        table += [mpf_neg(v) for v in reversed(table[:n // 2 + 1 - len(table)])]
    table += reversed(table[1:n - len(table) + 1])
    return [mp.make_mpf(v) for v in table]


def require_positive(value, what: str, error: type[Exception]):
    """``value`` itself when it is finite and > 0, float or mpf alike;
    otherwise ``error``."""
    if not 0 < value < math.inf:
        raise error(f"{what} must be positive")
    return value


def number_text(value, spec: str = "r") -> str:
    """``float(value)`` formatted with ``spec`` (``"r"``: its repr), or, for
    a nonzero finite value whose float is 0 or infinite, ``mpmath.nstr`` in
    the same shape: -1e-400 shows as -1.000000e-400, not -0.000000e+00."""
    f = float(value)
    if (f == 0 or math.isinf(f)) and value != 0 and mp.isfinite(value):
        digits = DOUBLE_DIGITS if spec == "r" else int(spec[1:-1]) + 1
        return mp.nstr(value, digits, strip_zeros=spec == "r")
    return repr(f) if spec == "r" else format(f, spec)


def number_to_json(value, digits: int):
    """JSON payload for a number: raw float at double precision, decimal
    string above it (floats survive JSON round-trips exactly; wide values
    need the string form).

    A wide value, first rounded at the working precision by
    ``mpmath.mpf``, is written at ``digits + 5`` significant digits when
    that text parses back to the same mpf (so a bandwidth given as
    ``"0.4"`` keeps its short text), and otherwise at mpmath's
    ``repr_dps`` of the working precision (``digits + GUARD_DIGITS + 3``),
    which always does; the text is libmp's ``to_str``, as ``mpmath.nstr``
    writes it.  Either way :func:`number_from_json` returns the value bit
    for bit."""
    if digits <= DOUBLE_DIGITS:
        return float(value)
    with working_dps(digits):
        raw = mp.mpf(value)._mpf_
        text = to_str(raw, repr_dps(mp.mp.prec))
        # the short text reads back only from within half an ulp of the
        # value, and then text's digits just past it are all 0 or all 9;
        # only then is it worth forming and parsing
        mantissa = text.lstrip("+-").split("e")[0].replace(".", "").lstrip("0")
        if mantissa.ljust(digits + 9, "0")[digits + 5:digits + 9] in ("0000", "9999"):
            short = to_str(raw, digits + 5)
            if _decimal_mpf(short) == raw:
                return short
        return text


def number_from_json(value, digits: int):
    """Inverse of :func:`number_to_json`: a float at double precision, an
    mpf at the working precision above it.  On text that
    :func:`number_to_json` wrote it is exact; older certificates, written
    at ``digits + 5`` digits throughout, parse to the nearest mpf.  A
    JSON boolean is no number: TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if digits <= DOUBLE_DIGITS:
        return float(value)
    with working_dps(digits):
        return mp.make_mpf(_decimal_mpf(value)) if type(value) is str else mp.mpf(value)


def _decimal_mpf(text: str):
    """The raw mpf that ``mpmath.mpf(text)`` gives at the working
    precision p in mpmath's rounding mode, to nearest (nothing here sets
    another).

    Plain decimal text, [+-]digits[.digits][e[+-]digits], is the integer
    mantissa m (the fraction's trailing zeros cut) times 10^e.  For |e| up
    to ``_EXACT_DECIMAL_EXP`` mpmath rounds that exact value once, and so
    does this: m 10^e as an integer, or, for e < 0, the quotient of m 2^s
    by 5^-e, which keeps p + 2 bits or more, cut to p bits, ties to even,
    with the remainder as a sticky bit.  Any other text, a larger
    exponent, or digits past Python's limit for ``int`` go to
    ``mpmath.mpf``, so the value or error is mpmath's."""
    prec = mp.mp.prec
    match = _DECIMAL.fullmatch(text)
    if match:
        sign, whole, fraction, exp = match.groups()
        fraction = (fraction or "").rstrip("0")
        try:
            man, exp = int(whole + fraction), int(exp or 0) - len(fraction)
        except ValueError:  # past the digit limit: mpmath raises its own error
            exp = math.inf
        if abs(exp) <= _EXACT_DECIMAL_EXP:
            if exp >= 0 or not man:
                return from_int((-man if sign == "-" else man) * 10 ** exp, prec, round_nearest)
            five = 5 ** -exp
            shift = max(0, prec + 2 + five.bit_length() - man.bit_length())
            quot, rem = divmod(man << shift, five)
            drop = quot.bit_length() - prec  # >= 2: the rounding bit and one below it
            low, quot, half = quot & (1 << drop) - 1, quot >> drop, 1 << drop - 1
            if low > half or low == half and (rem or quot & 1):
                quot += 1
            zeros = (quot & -quot).bit_length() - 1  # an mpf mantissa is odd
            quot >>= zeros
            return int(sign == "-"), quot, exp - shift + drop + zeros, quot.bit_length()
    return mp.mpf(text)._mpf_
