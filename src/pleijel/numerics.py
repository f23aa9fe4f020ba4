"""Numeric primitives shared by the rest of the package.

The float bounds of pi live here, with ``_outward``, which rounds an exact
quotient of integers one ulp outward, and ``round_half_away``, the display
rule of every printed value.
"""

import math

from .core import Enclosure

__all__ = ["round_half_away"]


# math.pi < pi < nextafter(math.pi, 4), as (numerator, denominator)
_PI_LO = math.pi.as_integer_ratio()
_PI_HI = math.nextafter(math.pi, 4).as_integer_ratio()


def _outward(lo: tuple[int, int], hi: tuple[int, int]) -> Enclosure:
    # int / int is correctly rounded, so one ulp outward contains each exact end
    return Enclosure(math.nextafter(lo[0] / lo[1], -math.inf),
                     math.nextafter(hi[0] / hi[1], math.inf))


def round_half_away(value, decimals: int = 4) -> str:
    """Fixed-point decimal string, rounding halves away from zero.

    Any finite int, float, Fraction or ``cells.Ratio`` is rounded exactly,
    from its integer ratio (a float's is its exact binary value).  This is
    the display convention of the reference tables (0.72576 -> "0.7258").
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
