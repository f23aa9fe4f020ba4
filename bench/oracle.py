"""Independent high-precision oracle for every number the CLI prints.

Nothing here imports the package under test.  The series c(n, m) comes
from the Hurwitz-zeta identity (u = 2k + n)

    C(k+n-1, k) = 2^(1-n)/(n-1)! * sum_i b_i u^i,
    c(n, m)     = 2^(1-n)/(n-1)! * sum_i b_i 2^(-s_i) zeta(s_i, n/2),  s_i = n+m-i,

with the integer coefficients b_i of prod_{j=1}^{n-1} (u + 2j - n),
evaluated by mpmath at two working precisions that must agree (see
F. Johansson, arXiv:1309.2877, for the Hurwitz zeta evaluation).  The
b_i alternate in sign, so the working precision grows with n to absorb
the cancellation.  Gamma prefactors, the Sobolev and the Weyl factors come
from mpmath ``gamma``/``pi``; gamma_bar is an exact ``Fraction``.

Results are cached per process; the oracle runs outside every timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

# The oracle's two evaluations must agree to this relative distance, far
# below anything the CLI prints.
AGREE = mpmath.mpf(10) ** -30
GUARD_DIGITS = 40


@lru_cache(maxsize=None)
def shifted_coeffs(n: int) -> tuple[int, ...]:
    """b_i with prod_{j=1}^{n-1} (u + 2j - n) = sum_i b_i u^i."""
    coeffs = [1]
    for j in range(1, n):
        shift = 2 * j - n
        coeffs = [shift * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _digits_needed(n: int) -> int:
    # sum_i |b_i| 2^-s_i zeta(s_i, n/2) / c(n, m) <= (2n)^(n-1): the terms
    # cancel by at most that many digits.
    return GUARD_DIGITS + math.ceil((n - 1) * math.log10(2 * n)) + 10


@lru_cache(maxsize=None)
def _hurwitz(s: int, n: int, dps: int):
    with mpmath.workdps(dps):
        return mpmath.zeta(s, mpmath.mpf(n) / 2)


def _c_at(n: int, m: int, dps: int):
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for i, b in enumerate(shifted_coeffs(n)):
            if b:
                s = n + m - i
                total += b * mpmath.ldexp(_hurwitz(s, n, dps), -s)
        return mpmath.ldexp(total, 1 - n) / mpmath.factorial(n - 1)


class OracleDisagreement(RuntimeError):
    """The two oracle precisions disagree: the oracle itself is not trusted."""


@lru_cache(maxsize=None)
def c_value(n: int, m: int):
    """c(n, m) as an mpf, checked at two precisions."""
    dps = _digits_needed(n)
    lo, hi = _c_at(n, m, dps), _c_at(n, m, dps + 20)
    with mpmath.workdps(dps):
        if not (hi > 0 and abs(lo - hi) <= AGREE * hi):
            raise OracleDisagreement(f"c({n},{m}): {lo} vs {hi}")
        return +hi


@lru_cache(maxsize=None)
def gamma_bar(n: int, m: int) -> Fraction:
    """2^-(n-m+1) (n+m)/(n+m-1)^(n+m) Gamma(m/2) Gamma(2n+m) / Gamma(n+m/2), exactly.

    Gamma(n + m/2) / Gamma(m/2) = prod_{j<n} (m/2 + j) and Gamma(2n+m) = (2n+m-1)!.
    """
    s = n + m
    rising = math.prod(Fraction(m + 2 * j, 2) for j in range(n))
    return (Fraction(2) ** (m - n - 1) * Fraction(s, (s - 1) ** s)
            * math.factorial(2 * n + m - 1) / rising)


@lru_cache(maxsize=None)
def gamma_tilde(n: int, m: int):
    s = n + m
    with mpmath.workdps(_digits_needed(n)):
        pref = (mpmath.ldexp(mpmath.mpf(s), -(n - m + 1))
                / (mpmath.mpf(n) ** s * mpmath.mpf(s - 1) ** s)
                * mpmath.gamma(mpmath.mpf(m) / 2) * mpmath.gamma(2 * n + m)
                / mpmath.gamma(n + mpmath.mpf(m) / 2))
        return pref / c_value(n, m)


@lru_cache(maxsize=None)
def sobolev(n: int, m: int):
    s = n + m
    with mpmath.workdps(50):
        return (mpmath.power(4, mpmath.mpf(n) / s) * n * (s - 1)
                * mpmath.power(mpmath.pi, mpmath.mpf(2 * n + m) / (2 * s))
                * mpmath.power(mpmath.gamma(n + mpmath.mpf(m) / 2) / mpmath.gamma(2 * n + m),
                               mpmath.mpf(1) / s))


@lru_cache(maxsize=None)
def weyl(n: int, m: int):
    s = n + m
    with mpmath.workdps(_digits_needed(n)):
        sphere = 2 * mpmath.power(mpmath.pi, mpmath.mpf(m) / 2) / mpmath.gamma(mpmath.mpf(m) / 2)
        return sphere / mpmath.power(2 * mpmath.pi, s) * c_value(n, m) / s


def value(quantity: str, n: int, m: int):
    """The oracle for one CLI quantity: an mpf, or a Fraction for gamma_bar."""
    if quantity == "gamma_bar":
        return gamma_bar(n, m)
    return {"gamma_tilde": gamma_tilde, "sobolev": sobolev, "weyl": weyl,
            "c_series": c_value}[quantity](n, m)


def to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (or pass a Fraction/float through)."""
    if isinstance(x, (Fraction, int, float)):
        return Fraction(x)
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def round_half_away(x: Fraction, decimals: int) -> str:
    """Fixed-point rounding of a nonnegative rational, halves away from zero."""
    scaled = x * 10**decimals
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return f"{q // 10**decimals}.{q % 10**decimals:0{decimals}d}"


def near_rounding_tie(x: Fraction, decimals: int, tol: Fraction) -> bool:
    """True if x lies within tol of a half-unit rounding boundary."""
    unit = Fraction(1, 10**decimals)
    frac = (x / unit) % 1
    return abs(frac - Fraction(1, 2)) * unit <= tol


def radon_hurwitz(N: int) -> int:
    """rho(N) = 8a + 2^b for N = 2^(4a+b) * odd."""
    v = 0
    while N % 2 == 0:
        N //= 2
        v += 1
    return 8 * (v // 4) + 2 ** (v % 4)


def admissible(n: int, m: int) -> bool:
    return m <= radon_hurwitz(2 * n) - 1
