"""The sharp L^2 Sobolev constant of an H-type group R^(2n) x R^m, enclosed:

    C = 4^(n/(n+m)) n (n+m-1) pi^((2n+m)/(2n+2m))
        (Gamma(n+m/2)/Gamma(2n+m))^(1/(n+m)).

C needs no series: C^(n+m) is a rational times a power of pi, and each end
of the enclosure is the outward float root of one exact end of that, found
by a search whose every candidate is compared exactly over integers.
Only ``value`` and ``table`` of sobolev, and ``check``, run this module, so
the other quantities' ``value`` ops compile none of it.
"""

import math
from operator import le, lt, truediv

from .core import Enclosure, as_pair
from .numerics import _ends

__all__ = ["sobolev_interval"]


def _sides(x: float, num: int, den: int, s: int) -> tuple[int, int]:
    # x^s and num/den, each times one positive integer, the twos of den and x as one shift
    e = (den & -den).bit_length() - 1
    a, b = x.as_integer_ratio()  # b is a power of two
    shift = (b.bit_length() - 1) * s - e
    den >>= e
    return (a**s * den, num << shift) if shift >= 0 else (a**s * den << -shift, num)


def _root(num: int, den: int, s: int) -> float:
    """The largest float x with x^s <= num/den: one Newton step off the logarithmic
    estimate (within about 2 ulps), then one walk, down while x^s exceeds num/den,
    or else up while the next float still fits, each compared exactly over integers."""
    x = math.exp((math.log(num) - math.log(den)) / s)
    x *= truediv(*_sides(x, num, den, s)[::-1]) ** (1 / s)
    fits = le(*_sides(x, num, den, s))
    while le(*_sides(y := math.nextafter(x, math.inf if fits else 0.0), num, den, s)) == fits:
        x = y
    return x if fits else y


def sobolev_interval(pair) -> Enclosure:
    """Certified enclosure of the sharp L^2 Sobolev constant C, from
    C^s = R pi^k with s = n + m, q = 2n + m, k = n + ceil(m/2) and the rational
    R = 4^n n^s (s-1)^s Gamma(q/2) / (Gamma(q) sqrt(pi)^[q odd]), whose gamma
    ratio is 1/prod_{q/2 <= i < q} i (q even) or 1/(4^j j!) (q = 2j + 1).  The
    lower end is the largest float lo with lo^s <= R pi_lo^k.  The upper, the
    smallest float hi with hi^s >= R pi_hi^k, is one walk up from the float after
    lo, since lo^s <= R pi_lo^k < R pi_hi^k; (pi_hi/pi_lo)^k puts it a few ulps up."""
    p = as_pair(pair)
    s, k, q = p.n + p.m, p.n + (p.m + 1) // 2, 2 * p.n + p.m
    den = math.prod(range(q // 2, q)) if q % 2 == 0 else 4 ** (q // 2) * math.factorial(q // 2)
    (ln, ld), (hn, hd) = _ends(4**p.n * p.n**s * (s - 1) ** s, den, k)
    lo = _root(ln, ld, s)
    hi = math.nextafter(lo, math.inf)
    while lt(*_sides(hi, hn, hd, s)):
        hi = math.nextafter(hi, math.inf)
    return Enclosure(lo, hi)
