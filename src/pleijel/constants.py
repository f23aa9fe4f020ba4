"""The spectral constants of an H-type group R^(2n) x R^m.

For Q = 2n + 2m the homogeneous dimension:

* ``sobolev_interval`` -- the sharp L^2 Sobolev constant, enclosed,

      C = 4^(n/(n+m)) n (n+m-1) pi^((2n+m)/(2n+2m))
          (Gamma(n+m/2)/Gamma(2n+m))^(1/(n+m)).

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
  product-form enclosure through sobolev_interval and weyl_interval is
  a consistency check (``oracles.gamma_tilde_product_form``).

* ``gamma_bar_exact`` -- the rational upper bound obtained by keeping only
  the k = 0 term of the series, i.e. replacing 1/c by n^(n+m); its
  logarithm in binary64 via ``log_gamma_bar``.

Every non-exact constant is an ``Enclosure(lo, hi)`` built from exact
rationals; a caller that wants one float reads its ``mid``, and gamma_bar's
one float is ``math.exp(log_gamma_bar(p))``.  The series enclosure sits at
the binary64 rounding floor, the same for every eps, so nothing here takes
an eps: the CLI's ``--eps`` (on ``value`` and ``table`` only) is decided on
the enclosure it prints.  The gamma factors are rational once the
half-integer sqrt(pi) joins the pi power, and
math.pi < pi < nextafter(math.pi, 4).  Each end is an integer quotient,
correctly rounded by ``int / int`` and moved one ulp outward (W. Tucker,
*Validated Numerics*, Princeton UP 2011), so floating-point noise can never
flip a classification (is gamma_tilde >= 1?).
"""

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

# series is called through its module attribute: gamma_bar and sobolev never
# run it (the package registers it lazily), and a wrapped c_series is the one called
from . import series
from .admissibility import radon_hurwitz
from .core import DimPair, Enclosure, PrecisionUnreachable, as_pair
from .numerics import _PI_HI, _PI_LO, _outward

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ExceptionalSet",
    "sobolev_interval",
    "weyl_interval",
    "gamma_tilde_interval",
    "gamma_bar_exact",
    "log_gamma_bar",
    "exceptional_set",
]


def _gamma_bar_ratio(p: DimPair) -> tuple[int, int]:
    # gamma_bar_exact as an unnormalised (numerator, denominator)
    s = p.n + p.m
    num = 2 ** (p.m - 1) * s * math.factorial(2 * p.n + p.m - 1)
    return num, (s - 1) ** s * math.prod(range(p.m, p.m + 2 * p.n, 2))


def gamma_bar_exact(pair) -> "Fraction":
    """First-term truncation bound as an exact rational:

    2^-(n-m+1) (n+m)/(n+m-1)^(n+m) * Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2).

    The gamma ratio has integer argument difference, so the half-integer
    gammas cancel and the whole expression is rational:
    Gamma(m/2)/Gamma(n+m/2) = 2^n / prod_{j<n} (m+2j), which leaves

        2^(m-1) s (2n+m-1)! / ((s-1)^s prod_{j<n} (m+2j)),  s = n + m,

    built over integers and normalised once.
    """
    from fractions import Fraction  # loaded only where one is built

    return Fraction(*_gamma_bar_ratio(as_pair(pair)))


def log_gamma_bar(pair) -> float:
    """ln gamma_bar in binary64: six terms, each at most about (2n+m) ln(2n+m)
    in size and accurate to 1e-14 relative.  Each lgamma argument is one
    correctly rounded int / int (n + m/2 would round twice), and math.lgamma
    is within 1e-14 at half-integers (checked against exact factorials in the
    tests).  A pair whose terms leave the float range (2n + m past about
    10^305) raises PrecisionUnreachable with an infinite ``best_bound``."""
    p = as_pair(pair)
    s, q = p.n + p.m, 2 * p.n + p.m
    try:
        log = ((p.m - p.n - 1) * math.log(2)
               + math.log(s)
               - s * math.log(s - 1)
               + math.lgamma(p.m / 2)
               + math.lgamma(q)
               - math.lgamma(q / 2))
    except OverflowError:  # an integer or an lgamma past the largest float
        log = math.inf
    if not math.isfinite(log):
        raise PrecisionUnreachable(f"gamma_bar{p} is out of range: the terms of its "
                                   "logarithm overflow binary64",
                                   best_bound=math.inf, terms_used=0)
    return log


def _gamma_half(q: int) -> tuple[int, int]:
    # Gamma(q/2) / sqrt(pi)^[q odd] as (numerator, denominator)
    if q % 2 == 0:
        return math.factorial(q // 2 - 1), 1
    k = q // 2  # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    return math.factorial(2 * k), 4**k * math.factorial(k)


@lru_cache(maxsize=None)
def _pi_powers(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # the float bounds of pi to the k-th power, each as (numerator, e) over 2^e
    return tuple((num**k, (den.bit_length() - 1) * k) for num, den in (_PI_LO, _PI_HI))


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


def weyl_interval(pair) -> Enclosure:
    """Certified enclosure of the eigenvalue-counting coefficient
    W = R_w c(n, m) pi^-k, with s = n + m, k = n + ceil(m/2) and the rational
    R_w = 2 / (s 2^s Gamma(m/2)/sqrt(pi)^[m odd]).
    """
    p = as_pair(pair)
    sv = series.c_series(p)
    s, k = p.n + p.m, p.n + (p.m + 1) // 2
    gn, gd = _gamma_half(p.m)
    num, den = 2 * gd, s * 2**s * gn
    (ln, ld), (hn, hd) = sv.value.as_integer_ratio(), sv.upper.as_integer_ratio()
    (pl, el), (ph, eh) = _pi_powers(k)
    return _outward((num * ln << eh, den * ld * ph), (num * hn << el, den * hd * pl))


def gamma_tilde_interval(pair) -> Enclosure:
    """Certified enclosure [low, high] of the nodal-domain bound: the exact
    gamma_bar_exact / n^(n+m) over c(n, m).
    """
    p = as_pair(pair)
    sv = series.c_series(p)
    num, den = _gamma_bar_ratio(p)
    den *= p.n ** (p.n + p.m)
    (ln, ld), (hn, hd) = sv.upper.as_integer_ratio(), sv.value.as_integer_ratio()
    return _outward((num * ld, den * ln), (num * hd, den * hn))


class ExceptionalSet(NamedTuple):
    """Admissible pairs classified against the Pleijel threshold 1."""

    exceptional: list[DimPair]  # certified gamma_tilde >= 1
    uncertain: list[DimPair]  # certified interval straddles 1 (expected empty)


def exceptional_set(n_max: int, m_max: int) -> ExceptionalSet:
    """Classify every admissible pair in the box [1, n_max] x [1, m_max].

    gamma_tilde < gamma_bar (c exceeds its k = 0 term), and the exact
    gamma_bar decreases in n and in m (``monotonicity``), so a row stops at
    its first gamma_bar < 1, and the walk at the first row where that is
    m = 1 (n = 7): any box costs about a dozen exact gamma_bar and at most
    11 series evaluations.  A pair before the stop is exceptional iff the
    certified lower end of its gamma_tilde interval is >= 1, safe iff the
    upper end is < 1; anything straddling the threshold is reported
    separately rather than silently decided.
    """
    if n_max < 1 or m_max < 1:
        raise ValueError(f"need n_max, m_max >= 1, got ({n_max}, {m_max})")
    exceptional: list[DimPair] = []
    uncertain: list[DimPair] = []
    for n in range(1, n_max + 1):
        # the admissible m are 1..rho(2n) - 1, so a tall box costs nothing extra
        for m in range(1, min(m_max, radon_hurwitz(2 * n) - 1) + 1):
            p = DimPair(n, m)
            num, den = _gamma_bar_ratio(p)
            if num < den:
                break
            low, high = gamma_tilde_interval(p)
            if low >= 1.0:
                exceptional.append(p)
            elif high >= 1.0:
                uncertain.append(p)
        if m == 1 and num < den:
            break
    return ExceptionalSet(exceptional, uncertain)
