"""Numeric primitives shared by the rest of the package.

The float bracket of pi, math.pi < pi < nextafter(math.pi, 4), lives here
alone, as the cached powers ``_pi_powers``.  ``_ends`` gives the exact ends
of (num/den) pi^k prod x^p, and ``_outward`` rounds each by ``int / int``
(correctly rounded) and one ulp outward (W. Tucker, *Validated Numerics*,
Princeton UP 2011), so floating-point noise can never flip a classification
(is gamma_tilde >= 1?).  ``_bounded_pair`` is the size limit of the exact
constants and the brute-force Weyl oracle, and ``round_half_away`` the
display rule of every printed value.
"""

import math
from functools import lru_cache

from .core import Enclosure, Refused, as_pair

__all__ = ["round_half_away"]


def _bounded_pair(name: str, pair) -> "DimPair":
    # as_pair, refused past n + m = 10,000: sobolev's integer root work grows like s^1.6,
    # gamma_bar's Fraction takes seconds to reduce, and weyl and gamma_tilde fail for
    # certain (out of the series' range at n >= 2, an underflow at n = 1)
    p = as_pair(pair)
    if p.n + p.m > 10_000:
        raise Refused(f"{name}{p} needs n + m <= 10000")
    return p


@lru_cache(maxsize=None)
def _pi_powers(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # the exact ends of pi^k, k != 0, at math.pi < pi < nextafter(math.pi, 4)
    return _ends(1, 1, 0, (math.pi, math.nextafter(math.pi, 4), k))


def _ends(num: int, den: int, k: int, *factors) -> tuple[tuple[int, int], tuple[int, int]]:
    """The exact ends of (num/den) pi^k prod x^p, each as (numerator, denominator),
    over positive factors (lo, hi, p) with float ends: a positive power takes the
    same end of its factor, a negative power the other end."""
    ln, ld, hn, hd = num, den, num, den
    for lo, hi, p in factors:
        (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if p < 0:  # the other end, inverted
            a, b, c, d, p = d, c, b, a, -p
        if p != 1:
            a, b, c, d = a**p, b**p, c**p, d**p
        ln, ld, hn, hd = ln * a, ld * b, hn * c, hd * d
    if k:  # pi^k, the largest factor, multiplied in last
        (pl, pd), (ph, phd) = _pi_powers(k)
        ln, ld, hn, hd = ln * pl, ld * pd, hn * ph, hd * phd
    return (ln, ld), (hn, hd)


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
