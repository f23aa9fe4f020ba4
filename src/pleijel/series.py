"""Certified evaluation of the Landau-level series

    c(n, m) = sum_{k >= 0} C(k+n-1, k) / (2k+n)^(n+m).

Every emitted value comes with a proven enclosure.  ``c_series`` splits
the series at K = ``_split(n)`` = max(16, n, floor(n^(3/2)) + 1):

* the head, k < K, is summed over Python floats in binary64.  Each term
  is C(k+n-1, n-1) / (2k+n)^(n-1), built from exact integers and rounded
  once by a correctly rounded ``int / int``, times (2k+n)^-(m+1) from
  libm's pow; the correctly rounded ``math.fsum`` adds them;

* the tail is a finite combination of Hurwitz zeta values.  With
  u = 2k + n, C(k+n-1, k) = 2^(1-n)/(n-1)! * sum_i b_i u^i, where b_i are
  the integer coefficients of ``_shifted_numerator_coeffs``, so

      sum_{k >= K} = 2^(1-n)/(n-1)! * sum_i b_i 2^(-s_i) zeta(s_i, K + n/2),

  with s_i = n + m - i >= m + 1.  Each zeta(s, a) comes from
  Euler-Maclaurin with p Bernoulli corrections,

      zeta(s, a) = a^(1-s)/(s-1) + a^(-s)/2
                   + sum_{j=1..p} B_2j/(2j)! (s)_(2j-1) a^(1-s-2j) + R_p.

  u^-s is completely monotone, so at any a > 0, R_p has the sign of the
  first omitted correction and is at most that term in size (DLMF
  2.10(i), 25.11; F. Johansson, Numer. Algorithms 69 (2015),
  arXiv:1309.2877).  The bound is charged with |b_i|, so it holds at any
  split; the split only sets how far the signed b_i u^i cancel.

The tail is scaled by U = 2K + n: b_i U^-s_i = t_i U^-(m+1), with
t_i = b_i / U^(n-1-i).  The shifts 2j - n of the numerator's factors
come in pairs +-c, so b_i = 0 unless r = (n-1-i)/2 is a whole number,
and then |b_i| is the r-th elementary symmetric polynomial of the c^2,
at most S^r / r! with S = sum c^2 = n(n-1)(n-2)/6.  U > 2 n^(3/2) gives
U^2 > 4 n^3 > 24 S, so |t_i| <= 24^-r / r! <= 1, with equality only at
the leading t_(n-1) = 1: no tail quantity exceeds the head's scale.

Rounding is bounded a priori, per pair (N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 3-4): a
computed quantity that went through k roundings is charged gamma_k, a
pow() counts as 4 ulps, and every rounding that may land in the
subnormal range adds 2^-1074.  p grows until the Euler-Maclaurin bound
is below 1e-3 of that budget.  The enclosure is therefore the same for
every eps, at the rounding floor (about 1e-14 relative or less for
n, m <= 30), and eps is only checked against it: a target below the
floor is refused at once with ``PrecisionUnreachable``, which only this
module raises.

What does not depend on m -- K, U, the head's factors, the tail's t_i,
t_i/2 and |t_i/2| at the i = n-1, n-3, ... (the others are 0),
1/(2^(n-1) (n-1)!) and 1/U^2 -- is computed once per row n (``_row``);
each m then runs the float operations of a computation from scratch, in
the same order, less the exact zeros of the other i.

Pairs with (n+m) log2 n > 1000 are refused as well: their k = 0 term
n^-(n+m), a lower bound on c(n, m), nears the subnormal range, where
binary64 loses relative accuracy.  So are the pairs whose float
evaluation overflows (n + m past the largest float, or n = 1 with m
past about 10^306).

One more remainder bound serves callers outside the kernel:
``c_tail_bound``, the coarse closed bound (K-1)^-m / ((n-1)! 2^(m+1) m),
valid for K >= max(n-1, 2).  It follows from
C(k+n-1, k) <= (k+n-1)^(n-1)/(n-1)! and k+n-1 <= 2k for k >= n-1, which
squeeze the summand below k^-(m+1)/((n-1)! 2^(m+1)); an integral
comparison finishes.  The direct summations of the oracles bracket the
remainder by its integral instead (``oracles._integral_remainder``).
"""

import math
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from operator import mul

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
    # beta_(j+1)/beta_j (s+2j-1)(s+2j) / U^2, and beta_(j+1)/beta_j =
    # 4 B_(2j+2) / (B_2j (2j+1)(2j+2)): one correctly rounded int / int each
    return tuple(4 * n1 * d0 / (d1 * n0 * (2 * j + 1) * (2 * j + 2))
                 for j, ((n0, d0), (n1, d1)) in enumerate(zip(_BERNOULLI, _BERNOULLI[1:]), 1))


_EM_RATIO = _em_ratios()
_BETA1 = 1 / 6  # beta_1 = B_2


class SeriesValue(namedtuple("SeriesValue", "value tail_bound terms_used")):
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
    def upper(self) -> float:
        return self.value + self.tail_bound


@lru_cache(maxsize=None)
def _shifted_numerator_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients b_i with prod_{j=1}^{n-1} (u + 2j - n) = sum b_i u^i.

    The shifts pair up as +-c, so the product is prod (u^2 - c^2) over
    c = n-2, n-4, ... > 0, multiplied out in v = u^2, times u when n is even.
    """
    q = [1]  # coefficients in v
    for c in range(n - 2, 0, -2):
        q = [a - c * c * b for a, b in zip([0, *q], [*q, 0])]
    coeffs = [0] * n
    coeffs[1 - n % 2::2] = q
    return tuple(coeffs)


def _split(n: int) -> int:
    # the kernel's head length: U = 2K + n > 2 n^(3/2) keeps every |t_i| <= 1
    return max(16, n, math.isqrt(n**3) + 1)


def _head_factors(n: int, K: int) -> tuple[float, ...]:
    """C(k+n-1, n-1) / (2k+n)^(n-1) for k < K: exact integers, one correctly
    rounded int / int each."""
    factors = []
    binomial = 1  # C(k+n-1, n-1)
    for k in range(K):
        factors.append(binomial / (2 * k + n) ** (n - 1))
        binomial = binomial * (k + n) // (k + 1)
    return tuple(factors)


@lru_cache(maxsize=None)
def _row(n: int) -> tuple:
    """Row n's share of every m: K, d, r, U, t, t/2, |t/2|, 1/(2^(n-1) (n-1)!), 1/U^2.

    t, t/2 and |t/2| hold the i = n-1, n-3, ... only, in rising i: b_i = 0
    for the other i (module docstring).
    """
    K = _split(n)
    U = 2 * K + n
    # one correctly rounded integer division each; |t_i| <= 1 (module docstring)
    b = _shifted_numerator_coeffs(n)
    t = tuple(b[i] / U ** (n - 1 - i) for i in range((n - 1) % 2, n, 2))
    half = tuple(0.5 * ti for ti in t)
    return (K, tuple(float(2 * k + n) for k in range(K)), _head_factors(n, K), U, t, half,
            tuple(map(abs, half)), 1 / (2 ** (n - 1) * math.factorial(n - 1)), 1 / (U * U))


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
    """c(n, m) enclosed at the binary64 rounding floor (see the module docstring),
    or PrecisionUnreachable for a pair out of binary64 range."""
    try:
        score = (n + m) * math.log2(n)
        if score <= _MAX_SCORE:
            return _evaluate(n, m)
        why = (f"(n+m) log2 n = {score:.0f} > {_MAX_SCORE}, "
               "so c nears the binary64 subnormal range")
    except OverflowError:  # n + m, or at n = 1 a power of it, past the largest float
        why = "its evaluation overflows binary64"
    raise PrecisionUnreachable(f"c({n},{m}) is out of range: {why}", terms_used=0)


def _evaluate(n: int, m: int) -> SeriesValue:
    K, d, r, U, t, half, half_magnitudes, inv_norm, inv_u2 = _row(n)

    # Head: a term goes through one rounding (its factor's int / int, none
    # at n = 1), pow and a product; fsum adds one.  Its factors are <= 1, so
    # subnormal errors do not grow.
    head = math.fsum(map(mul, r, map(pow, d, repeat(-(m + 1.0)))))
    k_head = min(1, n - 1) + _POW + 2
    head_error = _charge(k_head, head) + K * k_head * _ETA

    # Tail, scaled by U^(s_i): b_i U^-s_i = t_i U^-(m+1), and 2^-s zeta(s, U/2)
    # = U^-s (U/(2(s-1)) + 1/2 + sum_j beta_j (s)_(2j-1) U^(1-2j)), with
    # s_i = n + m - i.  The i of t step by 2 up to n - 1, so s_i steps by 2 from
    # top = s of the first down to m + 1, and 2(s_i - 1) by 4 from 2(top - 1) to 2m.
    scale = inv_norm * float(U) ** -(m + 1)
    top = n + m - (n - 1) % 2
    # roundings: 5 in t U/(2(s-1)), 2 in t/2
    parts = list(map(mul, t, map(U.__truediv__, range(2 * (top - 1), 2 * m - 1, -4))))
    magnitudes = [*map(abs, parts), *half_magnitudes]
    parts += half
    em = [_BETA1 * si / U for si in range(top, m, -2)]  # correction 1 per i, 4 roundings
    p = 0
    while True:
        # t * em is the first omitted correction: 9p + 6 roundings, each
        # correction adding 9 (4 in the rising-factorial step, 3 in the ratio, 2 products)
        correction = list(map(mul, t, em))
        correction_magnitudes = list(map(abs, correction))
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
        em = [ei * (si * (si + 1)) * ratio
              for ei, si in zip(em, range(top + 2 * p + 1, m + 2 * p + 1, -2))]
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
    PrecisionUnreachable at once, with the head's length as ``terms_used``.
    So does a pair out of binary64 range ((n+m) log2 n > 1000, or a
    float evaluation that overflows), with ``terms_used`` 0.
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
            terms_used=sv.terms_used,
        )
    return sv


# c_series answers from the per-pair cache of _enclosure: its statistics and reset
c_series.cache_info = _enclosure.cache_info
c_series.cache_clear = _enclosure.cache_clear


def c_tail_bound(pair, K: int) -> float:
    """Coarse proven bound on sum_{k >= K} of the summand.

    The exact (K-1)^-m / ((n-1)! 2^(m+1) m) as one correctly rounded
    integer quotient, moved one ulp up, so it is at least the exact bound
    (0 where that underflows becomes the smallest subnormal); requires
    K >= max(n-1, 2) so that both the binomial squeeze and the integral
    comparison apply.  Nonincreasing in K.
    """
    p = as_pair(pair)
    if K < max(p.n - 1, 2):
        raise ValueError(f"c_tail_bound{p} needs K >= max(n-1, 2) = {max(p.n - 1, 2)}, got {K}")
    den = (K - 1) ** p.m * math.factorial(p.n - 1) * 2 ** (p.m + 1) * p.m
    return math.nextafter(1 / den, math.inf)
