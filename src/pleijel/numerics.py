"""Special-function primitives shared by the rest of the package.

All approximate values are binary64.  Quantities that blow up (such as
Gamma(2n + m) for large n) are never formed directly on the approximate
path; everything is assembled in the log domain.

Half-integers are represented as Fraction with denominator 1 or 2; plain
ints and exactly-half-integral floats are accepted and coerced.  The
float bounds of pi live here, as does ``round_half_away``, the display
rule of every printed value.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

from .core import Enclosure

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["log_gamma", "round_half_away"]


def as_half_integer(q) -> Fraction:
    """Coerce q to an exact half-integer Fraction; reject anything else."""
    from fractions import Fraction  # loaded only where one is built

    if isinstance(q, numbers.Integral):
        return Fraction(int(q))
    if isinstance(q, Fraction):
        f = q
    elif isinstance(q, float):
        f = Fraction(q)
    else:
        raise TypeError(f"not a half-integer: {q!r}")
    if (2 * f).denominator != 1:
        raise ValueError(f"not a half-integer: {q!r}")
    return f


def log_gamma(q) -> float:
    """Natural log of Gamma(q) for a positive half-integer q.

    Relative accuracy 1e-14 against max(1, |ln Gamma(q)|); delegated to
    math.lgamma, which is well within that on half-integral arguments
    (validated against the exact factorial forms in the test-suite).
    """
    f = as_half_integer(q)
    if f <= 0:
        raise ValueError(f"log_gamma needs q > 0, got {q}")
    return math.lgamma(float(f))


# math.pi < pi < nextafter(math.pi, 4), as (numerator, denominator)
_PI_LO = math.pi.as_integer_ratio()
_PI_HI = math.nextafter(math.pi, 4).as_integer_ratio()


def _outward(lo: tuple[int, int], hi: tuple[int, int]) -> Enclosure:
    # int / int is correctly rounded, so one ulp outward contains each exact end
    return Enclosure(math.nextafter(lo[0] / lo[1], -math.inf),
                     math.nextafter(hi[0] / hi[1], math.inf))


def round_half_away(value, decimals: int = 4) -> str:
    """Fixed-point decimal string, rounding halves away from zero.

    Any finite int, float or Fraction is rounded exactly, from its integer
    ratio (a float's is its exact binary value).  This is the display
    convention of the reference tables (0.72576 -> "0.7258").
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"cannot round {value!r}")
    num, den = value.as_integer_ratio()
    q, r = divmod(abs(num) * 10**decimals, den)
    if 2 * r >= den:
        q += 1  # halves of the magnitude go up, i.e. away from zero
    sign = "-" if num < 0 else ""
    if decimals == 0:
        return f"{sign}{q}"
    return f"{sign}{q // 10**decimals}.{q % 10**decimals:0{decimals}d}"
