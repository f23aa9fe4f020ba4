"""The spectral constants of an H-type group R^(2n) x R^m.

For Q = 2n + 2m the homogeneous dimension:

* ``sobolev_constant`` -- sharp constant of the L^2 Sobolev inequality,

      C = 4^(n/(n+m)) n (n+m-1) pi^((2n+m)/(2n+2m))
          (Gamma(n+m/2)/Gamma(2n+m))^(1/(n+m)).

* ``weyl_constant`` -- coefficient W in the eigenvalue-counting
  asymptotics N(lambda) ~ W |Omega| lambda^(Q/2),

      W = omega_(m-1) / (2 pi)^(n+m) * c(n,m) / (n+m),

  with c(n, m) the certified series from the series module.

* ``gamma_tilde`` -- the nodal-domain (Pleijel) bound C^(-Q/2) W^-1,
  which collapses algebraically to

      2^-(n-m+1) (n+m) / (n^(n+m) (n+m-1)^(n+m))
          * Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2) / c(n,m).

  Everything in front of 1/c is an exact rational (the gamma ratio
  telescopes), so gamma_tilde is computed as exact-rational / certified
  series value and inherits a certified enclosure.  The independent
  product-form enclosure through sobolev_interval and weyl_interval is
  kept as a consistency check (``gamma_tilde_product_form``).

* ``gamma_bar`` -- the rational upper bound obtained by keeping only the
  k = 0 term of the series, i.e. replacing 1/c by n^(n+m).  Exact value
  via ``gamma_bar_exact``.

Every non-exact constant is an ``Enclosure(lo, hi)`` built from exact
rationals; the float views (``gamma_tilde``, ``weyl_constant``,
``sobolev_constant``) are its midpoints.  The series enclosure sits at
the binary64 rounding floor, the same for every eps, so nothing here
takes an eps: the CLI's ``--eps`` (on ``value`` and ``table`` only) is
decided on the enclosure it prints.  The gamma factors are rational
once the half-integer sqrt(pi) joins the pi power, and
math.pi < pi < nextafter(math.pi, 4).  Each end is an integer
quotient, correctly rounded by ``int / int`` and moved one ulp outward
(W. Tucker, *Validated Numerics*, Princeton UP 2011), so floating-point
noise can never flip a classification (is gamma_tilde >= 1?).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .admissibility import radon_hurwitz
from .core import DimPair, Enclosure, as_pair
from .numerics import _PI_HI, _PI_LO, _outward, log_gamma, sphere_area
from .series import (
    _integral_remainder,
    _min_terms,
    _summand,
    c_series,
)

__all__ = [
    "ExceptionalSet",
    "sobolev_constant",
    "sobolev_interval",
    "weyl_constant",
    "weyl_interval",
    "gamma_tilde",
    "gamma_tilde_interval",
    "gamma_tilde_product_form",
    "gamma_bar",
    "gamma_bar_exact",
    "log_gamma_bar",
    "exceptional_set",
    "weyl_density_bruteforce",
]

_LOG_TWO_PI = math.log(2 * math.pi)


def _gamma_bar_ratio(p: DimPair) -> tuple[int, int]:
    # gamma_bar_exact as an unnormalised (numerator, denominator)
    s = p.n + p.m
    num = 2 ** (p.m - 1) * s * math.factorial(2 * p.n + p.m - 1)
    return num, (s - 1) ** s * math.prod(range(p.m, p.m + 2 * p.n, 2))


def gamma_bar_exact(pair) -> Fraction:
    """First-term truncation bound as an exact rational:

    2^-(n-m+1) (n+m)/(n+m-1)^(n+m) * Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2).

    The gamma ratio has integer argument difference, so the half-integer
    gammas cancel and the whole expression is rational:
    Gamma(m/2)/Gamma(n+m/2) = 2^n / prod_{j<n} (m+2j), which leaves

        2^(m-1) s (2n+m-1)! / ((s-1)^s prod_{j<n} (m+2j)),  s = n + m,

    built over integers and normalised once.
    """
    return Fraction(*_gamma_bar_ratio(as_pair(pair)))


def log_gamma_bar(pair) -> float:
    """ln gamma_bar in binary64: six terms, each at most about (2n+m) ln(2n+m)
    in size and accurate to 1e-14 relative (``log_gamma``)."""
    p = as_pair(pair)
    s = p.n + p.m
    return (
        (p.m - p.n - 1) * math.log(2)
        + math.log(s)
        - s * math.log(s - 1)
        + log_gamma(Fraction(p.m, 2))
        + log_gamma(2 * p.n + p.m)
        - log_gamma(Fraction(p.m, 2) + p.n)
    )


def gamma_bar(pair) -> float:
    """Log-domain binary64 evaluation of the truncation bound."""
    return math.exp(log_gamma_bar(pair))


def _gamma_half(q: int) -> tuple[int, int]:
    # Gamma(q/2) / sqrt(pi)^[q odd] as (numerator, denominator)
    if q % 2 == 0:
        return math.factorial(q // 2 - 1), 1
    k = q // 2  # Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    return math.factorial(2 * k), 4**k * math.factorial(k)


@lru_cache(maxsize=None)
def _pi_powers(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # the float bounds of pi to the k-th power, each as (numerator, denominator)
    return ((_PI_LO[0] ** k, _PI_LO[1] ** k), (_PI_HI[0] ** k, _PI_HI[1] ** k))


def _root(x: float, num: int, den: int, s: int, up: bool) -> float:
    """The smallest float with x^s >= num/den (up), or the largest with x^s <= num/den,
    searched from x; each candidate is compared exactly over integers."""
    def holds(x: float) -> bool:
        a, b = x.as_integer_ratio()  # b is a power of two
        lhs, rhs = a**s * den, num << (b.bit_length() - 1) * s
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
    (ln, ld), (hn, hd) = _pi_powers(k)
    ln, ld, hn, hd = num * ln, den * ld, num * hn, den * hd  # R pi^k at the two bounds
    x = math.exp((math.log(ln) - math.log(ld)) / s)
    a, b = x.as_integer_ratio()
    x *= (ln * b**s / (a**s * ld)) ** (1 / s)  # one Newton step: now within ~2 ulps
    lo = _root(x, ln, ld, s, up=False)
    return Enclosure(lo, _root(math.nextafter(lo, math.inf), hn, hd, s, up=True))


def sobolev_constant(pair) -> float:
    """Sharp L^2 Sobolev constant: the midpoint of ``sobolev_interval``."""
    return sobolev_interval(pair).mid


def weyl_interval(pair) -> Enclosure:
    """Certified enclosure of the eigenvalue-counting coefficient
    W = R_w c(n, m) pi^-k, with s = n + m, k = n + ceil(m/2) and the rational
    R_w = 2 / (s 2^s Gamma(m/2)/sqrt(pi)^[m odd]).
    """
    p = as_pair(pair)
    sv = c_series(p)
    s, k = p.n + p.m, p.n + (p.m + 1) // 2
    gn, gd = _gamma_half(p.m)
    num, den = 2 * gd, s * 2**s * gn
    (ln, ld), (hn, hd) = sv.value.as_integer_ratio(), sv.upper.as_integer_ratio()
    (pln, pld), (phn, phd) = _pi_powers(k)
    return _outward((num * ln * phd, den * ld * phn), (num * hn * pld, den * hd * pln))


def weyl_constant(pair) -> float:
    """Eigenvalue-counting coefficient: the midpoint of ``weyl_interval``."""
    return weyl_interval(pair).mid


def gamma_tilde_interval(pair) -> Enclosure:
    """Certified enclosure [low, high] of the nodal-domain bound: the exact
    gamma_bar_exact / n^(n+m) over c(n, m).
    """
    p = as_pair(pair)
    sv = c_series(p)
    num, den = _gamma_bar_ratio(p)
    den *= p.n ** (p.n + p.m)
    (ln, ld), (hn, hd) = sv.upper.as_integer_ratio(), sv.value.as_integer_ratio()
    return _outward((num * ld, den * ln), (num * hd, den * hn))


def gamma_tilde(pair) -> float:
    """Nodal-domain bound: the midpoint of ``gamma_tilde_interval``."""
    return gamma_tilde_interval(pair).mid


def _weyl_prefactor(p: DimPair) -> float:
    s = p.n + p.m
    return math.exp(math.log(sphere_area(p.m - 1)) - s * _LOG_TWO_PI - math.log(s))


def gamma_tilde_product_form(pair) -> Enclosure:
    """Certified enclosure of the defining product C^(-Q/2) W^-1,
    [1/(C_hi^s W_hi), 1/(C_lo^s W_lo)] with s = n + m, built exactly from
    ``sobolev_interval`` and ``weyl_interval``.  The two routes share only
    the series value, so its overlap with ``gamma_tilde_interval``
    isolates the gamma/power algebra.  Where W's lower end underflows to
    0 or below, the upper end is infinite.
    """
    p = as_pair(pair)
    s = p.n + p.m
    c, w = sobolev_interval(p), weyl_interval(p)
    lo = 1 / (Fraction(c.hi) ** s * Fraction(w.hi))
    if w.lo <= 0:
        return Enclosure(math.nextafter(float(lo), -math.inf), math.inf)
    hi = 1 / (Fraction(c.lo) ** s * Fraction(w.lo))
    return _outward(lo.as_integer_ratio(), hi.as_integer_ratio())


class ExceptionalSet(NamedTuple):
    """Admissible pairs classified against the Pleijel threshold 1."""

    exceptional: list[DimPair]  # certified gamma_tilde >= 1
    uncertain: list[DimPair]  # certified interval straddles 1 (expected empty)


def exceptional_set(n_max: int, m_max: int) -> ExceptionalSet:
    """Classify every admissible pair in the box [1, n_max] x [1, m_max].

    A pair whose exact gamma_bar is < 1 is safe, since gamma_tilde <
    gamma_bar (c exceeds its k = 0 term); this needs no series, so it also
    decides pairs past the series' range.  Any other pair is exceptional iff
    the certified lower end of its gamma_tilde interval is >= 1, safe iff
    the upper end is < 1; anything straddling the threshold is reported
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
                continue
            low, high = gamma_tilde_interval(p)
            if low >= 1.0:
                exceptional.append(p)
            elif high >= 1.0:
                uncertain.append(p)
    return ExceptionalSet(sorted(exceptional), sorted(uncertain))


_BRUTEFORCE_EPS = 1e-9  # the shell sum stops at a term <= this times its partial sum


def weyl_density_bruteforce(pair, lam: float) -> float:
    """On-diagonal spectral density 1(-Delta < lambda) rebuilt from first
    principles, as a cross-check of ``weyl_constant``.

    The fibrewise diagonalisation gives Landau levels |tau|(2|k| + n) over
    multi-indices k in N_0^n; for each shell |k| = K the radial tau
    integral is exact:

        int_0^inf tau^(n+m-1) 1(tau (2K+n) < lambda) dtau
            = (lambda/(2K+n))^(n+m) / (n+m),

    so the density is omega_(m-1)/(2pi)^(n+m) times the shell sum of
    C(K+n-1, K) (lambda/(2K+n))^(n+m)/(n+m), where C(K+n-1, K) counts the
    multi-indices with |k| = K (stars and bars).  Shells are
    enumerated directly, independently of the c_series kernel: the sum
    stops at the first K >= _min_terms(n) whose series term is at most
    1e-9 times the partial series sum, and the rest is enclosed by the
    integral bracket (the shell sum *is* the series, restructured); the
    bracket midpoint is used.

    Equals weyl_constant(pair) * lambda^(n+m) up to the combined
    certified error.
    """
    p = as_pair(pair)
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    n, s = p.n, p.n + p.m
    shells, remainder = _bruteforce_shells(n, p.m)
    total = 0.0
    comp = 0.0
    for K in range(shells):
        # (number of multi-indices with |k| = K) * (lam / (2K + n))^s / s
        shell = math.comb(K + n - 1, K) * (lam / (2 * K + n)) ** s / s
        y = shell - comp
        t = total + y
        comp = (t - total) - y
        total = t
    total += lam**s * remainder / s
    # omega_(m-1)/(2pi)^(n+m) * total; _weyl_prefactor carries an extra 1/s
    return _weyl_prefactor(p) * s * total


@lru_cache(maxsize=16)
def _bruteforce_shells(n: int, m: int) -> tuple[int, float]:
    """The lambda-free part of weyl_density_bruteforce: the number of shells
    summed before the stop rule holds, and the integral bracket of the
    series from there on."""
    kmin = _min_terms(n)
    partial = 0.0  # the series' partial sum, for the stop rule
    K = 0
    while True:
        term = _summand(n, m, K)
        if K >= kmin and term <= _BRUTEFORCE_EPS * partial:
            break
        partial += term
        K += 1
    return K, _integral_remainder((n, m), K) + term / 2
