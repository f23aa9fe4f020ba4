"""The spectral constants of an H-type group R^(2n) x R^m.

For Q = 2n + 2m the homogeneous dimension:

* the sharp L^2 Sobolev constant C, enclosed by ``sobolev.sobolev_interval``
  without the series;

* ``weyl_interval`` -- coefficient W in the eigenvalue-counting
  asymptotics N(lambda) ~ W |Omega| lambda^(Q/2),

      W = omega_(m-1) / (2 pi)^(n+m) * c(n,m) / (n+m),

  with c(n, m) the certified series from the series module.

* ``gamma_tilde_interval`` -- the nodal-domain (Pleijel) bound C^(-Q/2) W^-1,
  which collapses algebraically to

      2^-(n-m+1) (n+m) / (n^(n+m) (n+m-1)^(n+m))
          * Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2) / c(n,m).

  Everything in front of 1/c is an exact rational (the gamma ratio
  telescopes), so gamma_tilde is computed as exact-rational / certified
  series value and inherits a certified enclosure.  The independent
  product-form enclosure through C and weyl_interval is
  a consistency check (``oracles.gamma_tilde_product_form``).

* ``gamma_bar_exact`` -- the rational upper bound obtained by keeping only
  the k = 0 term of the series, i.e. replacing 1/c by n^(n+m).

Every non-exact constant is an ``Enclosure(lo, hi)`` built from exact
rationals (the gamma factors are rational once the half-integer sqrt(pi)
joins the pi power) by ``numerics``, the one home of pi's float bracket.  A
caller that wants one float reads its ``mid``, and gamma_bar's one float is
``float(gamma_bar_exact(p))``.  The series enclosure sits at the binary64
rounding floor, the same for every eps, so nothing here takes an eps: the
CLI's ``--eps`` (on ``value`` and ``table`` only) is decided on the enclosure
it prints.  Each, like ``sobolev_interval``, raises ``Refused`` past
n + m = 10,000.
"""

import math

# series is called through its module attribute: gamma_bar never runs it (the
# package registers it lazily), and a wrapped c_series is the one called
from . import series
from .core import DimPair, Enclosure
from .numerics import _bounded_pair, _ends, _outward

__all__ = [
    "weyl_interval",
    "gamma_tilde_interval",
    "gamma_bar_exact",
]


def _gamma_bar_ratio(p: DimPair) -> tuple[int, int]:
    # gamma_bar_exact as an unnormalised (numerator, denominator)
    s = p.n + p.m
    num = s * math.factorial(p.m - 1) * math.prod(range(p.m + 1, p.m + 2 * p.n, 2))
    return num << (p.m - 1), (s - 1) ** s


def gamma_bar_exact(pair) -> "Fraction":
    """First-term truncation bound as an exact rational:

    2^-(n-m+1) (n+m)/(n+m-1)^(n+m) * Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2).

    The gamma ratio has integer argument difference, so the half-integer
    gammas cancel and the whole expression is rational:
    Gamma(m/2)/Gamma(n+m/2) = 2^n / prod_{j<n} (m+2j), which cancels the
    factors m + 2j of (2n+m-1)! = (m-1)! prod_{j<n} (m+2j)(m+2j+1) and leaves

        2^(m-1) s (m-1)! prod_{j<n} (m+2j+1) / (s-1)^s,  s = n + m,

    built over integers and normalised once.
    """
    from fractions import Fraction  # loaded only where one is built

    return Fraction(*_gamma_bar_ratio(_bounded_pair("gamma_bar", pair)))


def _gamma_half(q: int) -> tuple[int, int]:
    """Gamma(q/2) / sqrt(pi)^[q odd] as (numerator, denominator): (q/2 - 1)! at even q,
    and (2k-1)!! / 2^k = (2k)! / (4^k k!) at q = 2k + 1, with (2k-1)!! = (2k)!/k! / 2^k."""
    if q % 2 == 0:
        return math.factorial(q // 2 - 1), 1
    return math.perm(q - 1, q // 2) >> q // 2, 1 << q // 2


def weyl_interval(pair) -> Enclosure:
    """Certified enclosure of the eigenvalue-counting coefficient
    W = R_w c(n, m) pi^-k, with s = n + m, k = n + ceil(m/2) and the rational
    R_w = 2 / (s 2^s Gamma(m/2)/sqrt(pi)^[m odd]).
    """
    p = _bounded_pair("weyl", pair)
    sv = series.c_series(p)
    s, k = p.n + p.m, p.n + (p.m + 1) // 2
    gn, gd = _gamma_half(p.m)
    return _outward(*_ends(2 * gd, s * gn << s, -k, (sv.value, sv.upper, 1)))


def gamma_tilde_interval(pair) -> Enclosure:
    """Certified enclosure [low, high] of the nodal-domain bound: the exact
    gamma_bar_exact / n^(n+m) over c(n, m).
    """
    p = _bounded_pair("gamma_tilde", pair)
    sv = series.c_series(p)
    num, den = _gamma_bar_ratio(p)
    return _outward(*_ends(num, den * p.n ** (p.n + p.m), 0, (sv.value, sv.upper, -1)))
