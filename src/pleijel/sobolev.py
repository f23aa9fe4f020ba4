"""The sharp L^2 Sobolev constant of an H-type group R^(2n) x R^m, enclosed:

    C = 4^(n/(n+m)) n (n+m-1) pi^((2n+m)/(2n+2m))
        (Gamma(n+m/2)/Gamma(2n+m))^(1/(n+m)).

C needs no series: C^(n+m) is a rational times a power of pi, and each end
of the enclosure is the outward float root of that at a float bound of pi,
found by a search whose every candidate is compared exactly over integers.
Only ``value`` and ``table`` of sobolev, and ``check``, run this module, so
the other quantities' ``value`` ops compile none of it.
"""

import math

from .constants import _gamma_half, _pi_powers
from .core import Enclosure, as_pair

__all__ = ["sobolev_interval"]


def _root(x: float, num: int, den: int, e: int, s: int, up: bool) -> float:
    """The smallest float with x^s >= num/(den 2^e) (up), or the largest with
    x^s <= num/(den 2^e), searched from x; each candidate is compared exactly over
    integers, the powers of two as one shift."""
    def holds(x: float) -> bool:
        a, b = x.as_integer_ratio()  # b is a power of two
        lhs, rhs, shift = a**s * den, num, (b.bit_length() - 1) * s - e
        if shift >= 0:
            rhs <<= shift
        else:
            lhs <<= -shift
        return lhs >= rhs if up else lhs <= rhs

    outward, inward = (math.inf, 0.0) if up else (0.0, math.inf)
    while not holds(x):
        x = math.nextafter(x, outward)
    while holds(y := math.nextafter(x, inward)):
        x = y
    return x


def sobolev_interval(pair) -> Enclosure:
    """Certified enclosure of the sharp L^2 Sobolev constant C, from
    C^s = R pi^k with s = n + m, k = n + ceil(m/2) and the rational
    R = 4^n n^s (s-1)^s (Gamma(n+m/2)/sqrt(pi)^[m odd]) / (2n+m-1)!; the
    ends are the outward float s-th roots of R pi^k at the two pi bounds.
    The upper target exceeds the lower one by (pi_hi/pi_lo)^k, a few ulps,
    so the upper root's search starts one ulp above the lower root.
    """
    p = as_pair(pair)
    s, k = p.n + p.m, p.n + (p.m + 1) // 2
    gn, gd = _gamma_half(2 * p.n + p.m)
    num = 4**p.n * p.n**s * (s - 1) ** s * gn
    den = gd * math.factorial(2 * p.n + p.m - 1)
    twos = (den & -den).bit_length() - 1
    den >>= twos  # R pi^k at a pi bound is num pi_num^k / (den 2^(twos + e))
    (pl, el), (ph, eh) = _pi_powers(k)
    ln, el, hn, eh = num * pl, twos + el, num * ph, twos + eh
    x = math.exp((math.log(ln) - math.log(den) - el * math.log(2)) / s)
    a, b = x.as_integer_ratio()
    shift = (b.bit_length() - 1) * s - el  # one Newton step: now within ~2 ulps
    x *= ((ln << max(shift, 0)) / ((a**s * den) << max(-shift, 0))) ** (1 / s)
    lo = _root(x, ln, den, el, s, up=False)
    return Enclosure(lo, _root(math.nextafter(lo, math.inf), hn, den, eh, s, up=True))
