"""Special-function primitives shared by the rest of the package.

All approximate values are binary64.  Quantities that blow up (such as
Gamma(2n + m) for large n) are never formed directly on the approximate
path; everything is assembled in the log domain.

Half-integers are represented as Fraction with denominator 1 or 2; plain
ints and exactly-half-integral floats are accepted and coerced.  The
float bounds of pi and ``zeta_interval``, the checks' zeta oracle, live here,
as does ``round_half_away``, the display rule of every printed value.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import Enclosure
from .series import _BERNOULLI, _ETA, _POW, _charge

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["log_gamma", "sphere_area", "zeta_interval", "zeta", "round_half_away"]

LOG_PI = math.log(math.pi)


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


def sphere_area(d: int) -> float:
    """Surface measure of the unit d-sphere: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if d < 0:
        raise ValueError(f"sphere_area needs d >= 0, got {d}")
    from fractions import Fraction

    h = Fraction(d + 1, 2)
    return math.exp(math.log(2) + float(h) * LOG_PI - log_gamma(h))


# math.pi < pi < nextafter(math.pi, 4), as (numerator, denominator)
_PI_LO = math.pi.as_integer_ratio()
_PI_HI = math.nextafter(math.pi, 4).as_integer_ratio()


def _outward(lo: tuple[int, int], hi: tuple[int, int]) -> Enclosure:
    # int / int is correctly rounded, so one ulp outward contains each exact end
    return Enclosure(math.nextafter(lo[0] / lo[1], -math.inf),
                     math.nextafter(hi[0] / hi[1], math.inf))


@lru_cache(maxsize=None)
def zeta_interval(s: int) -> Enclosure:
    """Riemann zeta at an integer s >= 2, enclosed to 1e-14 relative.

    Even s = 2j <= 24: zeta(2j) = |B_2j| (2 pi)^(2j) / (2 (2j)!), exact at
    both float bounds of pi.  Other s: ``math.fsum`` of j^-s for j < N (each
    pow charged 4 ulps, the sum one rounding) plus the remainder's integral
    bracket [N^(1-s), (N-1)^(1-s)] / (s-1), under 5e-15 wide.  Each end is
    exact, then rounded outward.  No Euler-Maclaurin code is shared with
    ``series``, so the checks' zeta rows stay an independent oracle.
    """
    if not isinstance(s, numbers.Integral) or s < 2:
        raise ValueError(f"zeta needs an integer s >= 2, got {s!r}")
    s = int(s)
    if s % 2 == 0 and s // 2 <= len(_BERNOULLI):
        num, den = _BERNOULLI[s // 2 - 1]
        num, den = abs(num) * 2 ** (s - 1), den * math.factorial(s)
        return _outward((num * _PI_LO[0] ** s, den * _PI_LO[1] ** s),
                        (num * _PI_HI[0] ** s, den * _PI_HI[1] ** s))
    from fractions import Fraction

    N = math.ceil(2e14 ** (1 / s)) + 2  # bracket width ~ N^-s
    head = math.fsum(j ** -float(s) for j in map(float, range(1, N)))
    error = Fraction(_charge(_POW + 1, head) + (_POW + 1) * N * _ETA)
    lo = Fraction(head) - error + Fraction(1, (s - 1) * N ** (s - 1))
    hi = Fraction(head) + error + Fraction(1, (s - 1) * (N - 1) ** (s - 1))
    return _outward(lo.as_integer_ratio(), hi.as_integer_ratio())


def zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2: the midpoint of ``zeta_interval``."""
    return zeta_interval(s).mid


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
