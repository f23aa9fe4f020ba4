"""Certified evaluation of the Landau-level series

    c(n, m) = sum_{k >= 0} C(k+n-1, k) / (2k+n)^(n+m).

Every emitted value comes with a proven enclosure.  ``c_series`` splits
the series at K = ``_min_terms(n)`` >= n^2/2, past the summand's peak:

* the head, k < K, is summed over Python floats in binary64
  (``_head_factors``, shared by every m, times (2k+n)^-(m+1) from libm's
  pow, then the correctly rounded ``math.fsum``);

* the tail is a finite combination of Hurwitz zeta values.  With
  u = 2k + n, C(k+n-1, k) = 2^(1-n)/(n-1)! * sum_i b_i u^i, where b_i are
  the integer coefficients of ``_shifted_numerator_coeffs``, so

      sum_{k >= K} = 2^(1-n)/(n-1)! * sum_i b_i 2^(-s_i) zeta(s_i, K + n/2),

  with s_i = n + m - i >= m + 1.  Each zeta(s, a) comes from
  Euler-Maclaurin with p Bernoulli corrections,

      zeta(s, a) = a^(1-s)/(s-1) + a^(-s)/2
                   + sum_{j=1..p} B_2j/(2j)! (s)_(2j-1) a^(1-s-2j) + R_p.

  u^-s is completely monotone, so R_p has the sign of the first omitted
  correction and is at most that term in size (DLMF 2.10(i), 25.11;
  F. Johansson, Numer. Algorithms 69 (2015), arXiv:1309.2877).  The
  bound is charged with |b_i|.  Past the peak u >= n^2, so the signed
  b_i u^i barely cancel.

Rounding is bounded a priori, per pair (N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 3-4): a
computed quantity that went through k roundings is charged gamma_k, a
pow() counts as 4 ulps, and every rounding that may land in the
subnormal range adds 2^-1074.  p grows until the Euler-Maclaurin bound
is below 1e-3 of that budget.  The enclosure is therefore the same for
every eps, at the rounding floor (a few 1e-15 relative for n, m <= 30),
and eps is only checked against it: a target below the floor is refused
at once with ``PrecisionUnreachable``.

Pairs with (n+m) log2 n > 1000 are refused as well: their k = 0 term
n^-(n+m), a lower bound on c(n, m), nears the subnormal range, where
binary64 loses relative accuracy.

Two more remainder bounds serve the oracles and callers outside the
kernel:

* ``c_tail_bound`` -- the coarse closed bound
  (K-1)^-m / ((n-1)! 2^(m+1) m), valid for K >= max(n-1, 2).  It follows
  from C(k+n-1, k) <= (k+n-1)^(n-1)/(n-1)! and k+n-1 <= 2k for k >= n-1,
  which squeeze the summand below k^-(m+1)/((n-1)! 2^(m+1)); an integral
  comparison finishes.

* ``_integral_remainder`` -- the summand extends to the real function
  f(x) = prod_{j<n}(x+j) / ((n-1)! (2x+n)^(n+m)), which is nonincreasing
  for x >= n^2/2.  For K past that point

      I(K) <= sum_{k >= K} f(k) <= I(K) + f(K),

  where I(K) = int_K^inf f is evaluated in closed form.  The direct-
  summation oracles (``weyl_density_bruteforce`` and the tests) use this
  bracket.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import PrecisionUnreachable, as_pair

__all__ = ["SeriesValue", "c_series", "c_tail_bound"]

_U = 2.0**-53  # unit roundoff of binary64
_ETA = 2.0**-1074  # bound on the error of one rounding into the subnormal range
_POW = 8  # roundings charged per pow(): 4 ulps (libm's pow, as in glibc, is within 1)
_MAX_SCORE = 1000  # refuse (n+m) log2 n above this: n^-(n+m) nears 2^-1022

# B_2, B_4, ..., B_24 as (numerator, denominator)
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)


def _em_ratios() -> tuple[float, ...]:
    # in U = 2a scaling, correction j of 2^-s zeta(s, a) is beta_j (s)_(2j-1) U^(-s-2j+1)
    # with beta_j = B_2j 2^(2j-1) / (2j)!; consecutive corrections differ by
    # beta_(j+1)/beta_j (s+2j-1)(s+2j) / U^2
    beta = [Fraction(num, den) * 2 ** (2 * j - 1) / math.factorial(2 * j)
            for j, (num, den) in enumerate(_BERNOULLI, start=1)]
    return tuple(float(b1 / b0) for b0, b1 in zip(beta, beta[1:]))


_EM_RATIO = _em_ratios()
_BETA1 = 1 / 6  # beta_1 = B_2


class _SeriesValueFields(NamedTuple):
    value: float
    tail_bound: float
    terms_used: int


class SeriesValue(_SeriesValueFields):
    """A certified lower bound plus enclosure width for a positive series.

    The true sum lies in [value, value + tail_bound].  ``terms_used`` is
    the number of explicitly summed terms; the rest of the series is
    accounted for by the Euler-Maclaurin Hurwitz-zeta tail.
    """

    __slots__ = ()

    def __new__(cls, value: float, tail_bound: float, terms_used: int):
        if tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")
        return super().__new__(cls, value, tail_bound, terms_used)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def midpoint(self) -> float:
        return self.value + self.tail_bound / 2

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


def _summand(n: int, m: int, k: int) -> float:
    """Summand C(k+n-1, k) / (2k+n)^(n+m) as a float, for n, m >= 1 and k >= 0.

    Evaluated as prod_{j<n} (k+j)/(j(2k+n)) * (2k+n)^-(m+1): the partial
    products stay O(1), so nothing overflows for any k, and the relative
    error is <= ~2n machine epsilons (far inside 1e-13).
    """
    d = 2 * k + n
    return _binomial_factor(n, k, d) * float(d) ** (-(m + 1))


def _binomial_factor(n: int, k: int, d: int) -> float:
    """prod_{j<n} (k+j)/(j d): exact integers in, one correctly rounded division each."""
    r = 1.0
    for j in range(1, n):
        r *= (k + j) / (j * d)
    return r


@lru_cache(maxsize=None)
def _shifted_numerator_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients b_i with prod_{j=1}^{n-1} (u + 2j - n) = sum b_i u^i."""
    coeffs = [1]
    for j in range(1, n):
        shift = 2 * j - n
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a * shift
            nxt[i + 1] += a
        coeffs = nxt
    return tuple(coeffs)


def _integral_remainder(pair, K: int) -> float:
    """Closed form of int_K^inf f(x) dx for the real-extended summand f.

    With u = 2x + n the numerator polynomial becomes
    2^-(n-1) * sum_i b_i u^i, and each power integrates to
    U^(i-n-m+1)/(n+m-i-1) with U = 2K + n.  Valid (as a remainder lower
    bound) only where f is nonincreasing, i.e. K >= n^2/2.
    """
    p = as_pair(pair)
    U = float(2 * K + p.n)
    total = 0.0
    for i, b in enumerate(_shifted_numerator_coeffs(p.n)):
        decay = p.n + p.m - i - 1  # >= m >= 1
        total += b * U ** (-decay) / decay
    return total / (2**p.n * math.factorial(p.n - 1))


def _min_terms(n: int) -> int:
    # past the summand's peak (k >= n^2/2 makes it nonincreasing), plus the
    # fixed floor that avoids spuriously early exits at small n
    return max(16, n, n * n // 2 + 1)


@lru_cache(maxsize=None)
def _head_factors(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """d = 2k + n and prod_{j<n} (k+j)/(j d), for the head k < _min_terms(n).

    A head term is this product times d^-(m+1), so every m shares it.
    """
    d = [2 * k + n for k in range(_min_terms(n))]
    return tuple(map(float, d)), tuple(_binomial_factor(n, k, dk) for k, dk in enumerate(d))


def _charge(k: int, x: float) -> float:
    """Error bound for a computed x >= 0 that went through k roundings.

    gamma_k = k u / (1 - k u) bounds the error relative to the true
    value; relative to the computed one it is gamma_k / (1 - gamma_k),
    which gamma_2k exceeds by a factor of about 2.  That margin also
    covers the rounding of the bound's own evaluation.
    """
    return 2 * k * _U / (1 - 2 * k * _U) * x


@lru_cache(maxsize=None)
def _enclosure(n: int, m: int) -> SeriesValue:
    """c(n, m) enclosed at the binary64 rounding floor (see the module docstring)."""
    score = (n + m) * math.log2(n)
    if score > _MAX_SCORE:
        raise PrecisionUnreachable(
            f"c({n},{m}) is out of range: (n+m) log2 n = {score:.0f} > {_MAX_SCORE}, "
            "so c nears the binary64 subnormal range",
            best_bound=math.inf,
            terms_used=0,
        )
    K = _min_terms(n)

    # Head: a term goes through 2(n-1) roundings, pow and a product; fsum
    # adds one.  Its factors (k+j)/(j(2k+n)) and d^-(m+1) are <= 1, so
    # subnormal errors do not grow.
    d, r = _head_factors(n)
    e = -(m + 1.0)
    head = math.fsum([x * dk ** e for x, dk in zip(r, d)])
    k_head = 2 * (n - 1) + _POW + 2
    head_error = _charge(k_head, head) + K * k_head * _ETA

    # Tail, scaled by U^(s_i): b_i U^-s_i = t_i U^-(m+1), and 2^-s zeta(s, U/2)
    # = U^-s (U/(2(s-1)) + 1/2 + sum_j beta_j (s)_(2j-1) U^(1-2j)).  Each
    # t_i = b_i / U^(n-1-i) is one correctly rounded integer division, and
    # |t_i| <= 1 because U >= n^2.
    U = 2 * K + n
    t = [b / U ** (n - 1 - i) for i, b in enumerate(_shifted_numerator_coeffs(n))]
    s = [float(n + m - i) for i in range(n)]  # s_i = n + m - i
    scale = 1 / (2 ** (n - 1) * math.factorial(n - 1)) * float(U) ** -(m + 1)
    # roundings: 5 in t U/(2(s-1)), 2 in t/2
    parts = [ti * (U / (2 * (si - 1))) for ti, si in zip(t, s)] + [0.5 * ti for ti in t]
    magnitudes = [abs(x) for x in parts]
    em = [_BETA1 * si / U for si in s]  # correction 1 per i, 4 roundings
    inv_u2 = 1 / (U * U)
    p = 0
    while True:
        # t * em is the first omitted correction: 9p + 6 roundings, each
        # correction adding 9 (4 in the rising-factorial step, 3 in the ratio, 2 products)
        correction = [ti * ei for ti, ei in zip(t, em)]
        correction_magnitudes = [abs(x) for x in correction]
        omitted = math.fsum(correction_magnitudes)
        truncation = scale * omitted
        truncation += (_charge(9 * p + _POW + 10, truncation)
                       + ((_POW + 2) * omitted + 1) * _ETA)
        absolute = math.fsum(magnitudes)
        k_tail = max(5, 9 * p - 3) + _POW + 4  # parts, fsum, scale, product
        rounding = (head_error + _charge(k_tail, scale * absolute)
                    + (n * (p + 3) + 2 + (_POW + 2) * absolute) * _ETA)
        if truncation <= 1e-3 * rounding or p == len(_EM_RATIO):
            break
        parts += correction
        magnitudes += correction_magnitudes
        ratio = _EM_RATIO[p] * inv_u2
        em = [ei * ((si + (2 * p + 1)) * (si + (2 * p + 2))) * ratio for ei, si in zip(em, s)]
        p += 1

    center = head + scale * math.fsum(parts)
    radius = rounding + truncation + 2 * _U * center
    lo = math.nextafter(center - radius, -math.inf)
    hi = math.nextafter(center + radius, math.inf)
    return SeriesValue(value=lo, tail_bound=math.nextafter(hi - lo, math.inf), terms_used=K)


def c_series(pair, eps: float = 1e-8, relative: bool = False) -> SeriesValue:
    """Evaluate c(n, m) with certified enclosure width <= eps.

    Returns a SeriesValue whose [value, value + tail_bound] provably
    contains the sum.  By default eps is the absolute enclosure width;
    with ``relative=True`` the target is eps times the certified lower
    bound.  The enclosure is the same for every eps, at the rounding
    floor, and cached per pair; a target below it raises
    PrecisionUnreachable at once, with the floor width as ``best_bound``.
    So does a pair out of binary64 range ((n+m) log2 n > 1000), with an
    infinite ``best_bound``.
    """
    p = as_pair(pair)
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    sv = _enclosure(p.n, p.m)
    target = eps * sv.value if relative else eps
    if sv.tail_bound > target:
        raise PrecisionUnreachable(
            f"c{p} cannot reach eps={eps:g}{' relative' if relative else ''}: "
            f"its certified width is {sv.tail_bound:.3g} at the binary64 rounding floor",
            best_bound=sv.tail_bound,
            terms_used=sv.terms_used,
        )
    return sv


# c_series answers from the per-pair cache of _enclosure: its statistics and reset
c_series.cache_info = _enclosure.cache_info
c_series.cache_clear = _enclosure.cache_clear


def c_tail_bound(pair, K: int) -> float:
    """Coarse proven bound on sum_{k >= K} of the summand.

    Equals (K-1)^-m / ((n-1)! 2^(m+1) m); requires K >= max(n-1, 2) so
    that both the binomial squeeze and the integral comparison apply.
    Strictly decreasing in K.
    """
    p = as_pair(pair)
    if K < max(p.n - 1, 2):
        raise ValueError(f"c_tail_bound{p} needs K >= max(n-1, 2) = {max(p.n - 1, 2)}, got {K}")
    return float(K - 1) ** (-p.m) / (math.factorial(p.n - 1) * 2 ** (p.m + 1) * p.m)
