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
from operator import ge, le, truediv

from .core import Enclosure, as_pair
from .numerics import _ends

__all__ = ["sobolev_interval"]


def _root(num: int, den: int, s: int, up: bool, x: float | None = None) -> float:
    """The smallest float with x^s >= num/den (up), or the largest with
    x^s <= num/den, searched from x, or else from one Newton step off the
    logarithmic estimate; each candidate is compared exactly over integers,
    the powers of two of den and of x as one shift."""
    e = (den & -den).bit_length() - 1
    den >>= e

    def sides(x: float) -> tuple[int, int]:  # x^s and num/den times one positive integer
        a, b = x.as_integer_ratio()  # b is a power of two
        shift = (b.bit_length() - 1) * s - e
        return (a**s * den, num << shift) if shift >= 0 else (a**s * den << -shift, num)

    if x is None:  # one Newton step off the logarithmic estimate: within ~2 ulps
        x = math.exp((math.log(num) - math.log(den) - e * math.log(2)) / s)
        x *= truediv(*sides(x)[::-1]) ** (1 / s)
    holds, outward, inward = (ge, math.inf, 0.0) if up else (le, 0.0, math.inf)
    while not holds(*sides(x)):
        x = math.nextafter(x, outward)
    while holds(*sides(y := math.nextafter(x, inward))):
        x = y
    return x


def sobolev_interval(pair) -> Enclosure:
    """Certified enclosure of the sharp L^2 Sobolev constant C, from
    C^s = R pi^k with s = n + m, q = 2n + m, k = n + ceil(m/2) and the rational
    R = 4^n n^s (s-1)^s Gamma(q/2) / (Gamma(q) sqrt(pi)^[q odd]), whose gamma
    ratio is 1/prod_{q/2 <= i < q} i (q even) or 1/(4^j j!) (q = 2j + 1).  The
    ends are the outward float s-th roots of the exact ends of R pi^k; the upper
    exceeds the lower by (pi_hi/pi_lo)^k, a few ulps, so its search starts one
    ulp above the lower root.
    """
    p = as_pair(pair)
    s, k, q = p.n + p.m, p.n + (p.m + 1) // 2, 2 * p.n + p.m
    den = math.prod(range(q // 2, q)) if q % 2 == 0 else 4 ** (q // 2) * math.factorial(q // 2)
    (ln, ld), (hn, hd) = _ends(4**p.n * p.n**s * (s - 1) ** s, den, k)
    lo = _root(ln, ld, s, up=False)
    return Enclosure(lo, _root(hn, hd, s, up=True, x=math.nextafter(lo, math.inf)))
