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
sum is in its inputs.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, repr_dps

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


def working_dps(digits: int):
    """mpmath context at ``digits`` plus guard digits.  Entering it where
    that precision already holds changes nothing and costs almost
    nothing, so a caller that formats or parses many numbers enters it
    once around all of them."""
    dps = digits + GUARD_DIGITS
    return nullcontext() if mp.mp.prec == dps_to_prec(dps) else mp.workdps(dps)


# math.fsum, not mpmath's fp.fsum: only the former is compensated
_DOUBLE = SimpleNamespace(
    num=float, exp=math.exp, cos=math.cos, sqrt=math.sqrt, pi=math.pi,
    fsum=math.fsum, isfinite=math.isfinite, eps=sys.float_info.epsilon,
)
_WIDE = SimpleNamespace(
    num=mp.mpf, exp=mp.exp, cos=mp.cos, sqrt=mp.sqrt, pi=mp.pi,
    fsum=mp.fsum, isfinite=mp.isfinite, eps=mp.eps,
)


@contextmanager
def numeric(digits: int):
    """Arithmetic at ``digits``: floats and :mod:`math` up to
    :data:`DOUBLE_DIGITS`, mpmath inside :func:`working_dps` above it.

    Yields a namespace with ``num`` (parse a number), ``exp``, ``cos``,
    ``sqrt``, ``pi``, ``fsum``, ``isfinite`` and ``eps`` = 2^(1 - prec).
    """
    if digits <= DOUBLE_DIGITS:
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

    A wide value is written at ``digits + 5`` significant digits when
    that text parses back to the same mpf at the working precision (so a
    bandwidth given as ``"0.4"`` keeps its short text), and otherwise at
    mpmath's ``repr_dps`` of the working precision
    (``digits + GUARD_DIGITS + 3``), which always does.  Either way
    :func:`number_from_json` returns the value bit for bit."""
    if digits <= DOUBLE_DIGITS:
        return float(value)
    with working_dps(digits):
        value = mp.mpf(value)
        text = mp.nstr(value, repr_dps(mp.mp.prec), strip_zeros=True)
        # the short text reads back only from within half an ulp of the
        # value, and then text's digits just past it are all 0 or all 9;
        # only then is it worth forming and parsing
        mantissa = text.lstrip("+-").split("e")[0].replace(".", "").lstrip("0")
        if mantissa.ljust(digits + 9, "0")[digits + 5:digits + 9] in ("0000", "9999"):
            short = mp.nstr(value, digits + 5, strip_zeros=True)
            if mp.mpf(short)._mpf_ == value._mpf_:
                return short
        return text


def number_from_json(value, digits: int):
    """Inverse of :func:`number_to_json`: a float at double precision, an
    mpf at the working precision above it.  On text that
    :func:`number_to_json` wrote it is exact; older certificates, written
    at ``digits + 5`` digits throughout, parse to the nearest mpf."""
    if digits <= DOUBLE_DIGITS:
        return float(value)
    with working_dps(digits):
        return mp.mpf(value)
