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
  product-form evaluation through sobolev_constant and weyl_constant is
  kept as a consistency check (``gamma_tilde_product_form``).

* ``gamma_bar`` -- the rational upper bound obtained by keeping only the
  k = 0 term of the series, i.e. replacing 1/c by n^(n+m).  Exact value
  via ``gamma_bar_exact``.

Asymptotic-classification decisions (is gamma_tilde >= 1?) are made on
certified intervals so that floating-point noise can never flip them:
gamma factors are exact rationals, the series contributes its enclosure
(at the binary64 rounding floor, the same for every eps; eps is only
checked against it), and a single multiplicative slack of 1e-10 absorbs
the rounding of the remaining binary64 factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .admissibility import is_admissible
from .core import DimPair, PrecisionUnreachable, as_pair
from .numerics import log_gamma, sphere_area
from .series import (
    SeriesValue,
    _integral_remainder,
    _min_terms,
    c_series,
    multiindex_count,
    series_term,
)

__all__ = [
    "ConstantBundle",
    "ExceptionalSet",
    "sobolev_constant",
    "weyl_constant",
    "gamma_tilde",
    "gamma_tilde_interval",
    "gamma_tilde_product_form",
    "gamma_bar",
    "gamma_bar_exact",
    "constant_bundle",
    "exceptional_set",
    "weyl_density_bruteforce",
]

_SLACK = 1e-10  # multiplicative allowance for binary64 gamma/power factors

_LOG_TWO_PI = math.log(2 * math.pi)


def _c_certified(p: DimPair, eps: float) -> SeriesValue:
    """Series value with enclosure width <= eps *relative* to c(n, m)."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return c_series(p, eps, relative=True)


def gamma_bar_exact(pair) -> Fraction:
    """First-term truncation bound as an exact rational:

    2^-(n-m+1) (n+m)/(n+m-1)^(n+m) * Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2).

    The gamma ratio has integer argument difference, so the half-integer
    gammas cancel and the whole expression is rational:
    Gamma(m/2)/Gamma(n+m/2) = 2^n / prod_{j<n} (m+2j), which leaves

        2^(m-1) s (2n+m-1)! / ((s-1)^s prod_{j<n} (m+2j)),  s = n + m,

    built over integers and normalised once.
    """
    p = as_pair(pair)
    s = p.n + p.m
    num = 2 ** (p.m - 1) * s * math.factorial(2 * p.n + p.m - 1)
    den = (s - 1) ** s * math.prod(range(p.m, p.m + 2 * p.n, 2))
    return Fraction(num, den)


def gamma_bar(pair) -> float:
    """Log-domain binary64 evaluation of the truncation bound."""
    p = as_pair(pair)
    s = p.n + p.m
    log = (
        (p.m - p.n - 1) * math.log(2)
        + math.log(s)
        - s * math.log(s - 1)
        + log_gamma(Fraction(p.m, 2))
        + log_gamma(2 * p.n + p.m)
        - log_gamma(Fraction(p.m, 2) + p.n)
    )
    return math.exp(log)


def _gamma_tilde_prefactor(p: DimPair) -> Fraction:
    # the exact rational multiplying 1/c(n, m)
    return gamma_bar_exact(p) / Fraction(p.n) ** (p.n + p.m)


def gamma_tilde_interval(pair, eps: float = 1e-8) -> tuple[float, float]:
    """Certified enclosure [low, high] of the nodal-domain bound.

    eps is the relative width requested from the series; the gamma
    prefactor is exact, and the 1e-10 float slack widens both ends.
    """
    p = as_pair(pair)
    sv = _c_certified(p, eps)
    pref = _gamma_tilde_prefactor(p)
    low = float(pref / Fraction(sv.upper)) * (1 - _SLACK)
    high = float(pref / Fraction(sv.value)) * (1 + _SLACK)
    return low, high


def gamma_tilde(pair, eps: float = 1e-8) -> float:
    """Nodal-domain bound, certified to relative accuracy ~eps/2 + 1e-10."""
    p = as_pair(pair)
    sv = _c_certified(p, eps)
    return float(_gamma_tilde_prefactor(p) / Fraction(sv.midpoint))


def sobolev_constant(pair) -> float:
    """Sharp L^2 Sobolev constant, assembled in the log domain."""
    p = as_pair(pair)
    s = p.n + p.m
    log = (
        (p.n / s) * math.log(4)
        + math.log(p.n)
        + math.log(s - 1)
        + ((2 * p.n + p.m) / (2 * s)) * math.log(math.pi)
        + (log_gamma(Fraction(p.m, 2) + p.n) - log_gamma(2 * p.n + p.m)) / s
    )
    return math.exp(log)


def weyl_constant(pair, eps: float = 1e-8) -> float:
    """Eigenvalue-counting coefficient, relative accuracy ~eps/2."""
    p = as_pair(pair)
    sv = _c_certified(p, eps)
    return _weyl_prefactor(p) * sv.midpoint


def _weyl_prefactor(p: DimPair) -> float:
    s = p.n + p.m
    return math.exp(math.log(sphere_area(p.m - 1)) - s * _LOG_TWO_PI - math.log(s))


def gamma_tilde_product_form(pair, eps: float = 1e-8) -> float:
    """The defining product C^(-Q/2) W^-1, evaluated through the Sobolev
    and Weyl routes; agrees with gamma_tilde to ~1e-8 relative (the two
    paths share only the series value, so this isolates the gamma/power
    algebra).
    """
    p = as_pair(pair)
    s = p.n + p.m
    sv = _c_certified(p, eps)
    log_w = math.log(_weyl_prefactor(p)) + math.log(sv.midpoint)
    return math.exp(-s * math.log(sobolev_constant(p)) - log_w)


@dataclass(frozen=True)
class ConstantBundle:
    """All constants for one pair, from a single certified series value."""

    pair: DimPair
    Q: int
    c: SeriesValue
    sobolev: float
    weyl: float
    gamma_tilde: float
    gamma_tilde_low: float
    gamma_tilde_high: float
    gamma_bar: float
    gamma_bar_exact: Fraction


def constant_bundle(pair, eps: float = 1e-8) -> ConstantBundle:
    p = as_pair(pair)
    sv = _c_certified(p, eps)
    pref = _gamma_tilde_prefactor(p)
    return ConstantBundle(
        pair=p,
        Q=p.homogeneous_dimension,
        c=sv,
        sobolev=sobolev_constant(p),
        weyl=_weyl_prefactor(p) * sv.midpoint,
        gamma_tilde=float(pref / Fraction(sv.midpoint)),
        gamma_tilde_low=float(pref / Fraction(sv.upper)) * (1 - _SLACK),
        gamma_tilde_high=float(pref / Fraction(sv.value)) * (1 + _SLACK),
        gamma_bar=gamma_bar(p),
        gamma_bar_exact=gamma_bar_exact(p),
    )


class ExceptionalSet(NamedTuple):
    """Admissible pairs classified against the Pleijel threshold 1."""

    exceptional: list[DimPair]  # certified gamma_tilde >= 1
    uncertain: list[DimPair]  # certified interval straddles 1 (expected empty)


def exceptional_set(n_max: int, m_max: int, eps: float = 1e-8) -> ExceptionalSet:
    """Classify every admissible pair in the box [1, n_max] x [1, m_max].

    A pair is exceptional iff the certified lower end of its gamma_tilde
    interval is >= 1, safe iff the upper end is < 1; anything straddling
    the threshold is reported separately rather than silently decided.
    """
    if n_max < 1 or m_max < 1:
        raise ValueError(f"need n_max, m_max >= 1, got ({n_max}, {m_max})")
    exceptional: list[DimPair] = []
    uncertain: list[DimPair] = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            p = DimPair(n, m)
            if not is_admissible(p):
                continue
            low, high = gamma_tilde_interval(p, eps)
            if low >= 1.0:
                exceptional.append(p)
            elif high >= 1.0:
                uncertain.append(p)
    return ExceptionalSet(sorted(exceptional), sorted(uncertain))


def weyl_density_bruteforce(pair, lam: float, max_shells: int | None = None,
                            eps: float = 1e-9) -> float:
    """On-diagonal spectral density 1(-Delta < lambda) rebuilt from first
    principles, as a cross-check of ``weyl_constant``.

    The fibrewise diagonalisation gives Landau levels |tau|(2|k| + n) over
    multi-indices k in N_0^n; for each shell |k| = K the radial tau
    integral is exact:

        int_0^inf tau^(n+m-1) 1(tau (2K+n) < lambda) dtau
            = (lambda/(2K+n))^(n+m) / (n+m),

    so the density is omega_(m-1)/(2pi)^(n+m) times the shell sum of
    multiindex_count(n, K) (lambda/(2K+n))^(n+m)/(n+m).  Shells are
    enumerated directly, independently of the c_series kernel: the sum
    stops at the first K >= _min_terms(n) whose series term is at most
    eps times the partial series sum, and the rest is enclosed by the
    integral bracket (the shell sum *is* the series, restructured); the
    bracket midpoint is used.

    Equals weyl_constant(pair) * lambda^(n+m) up to the combined
    certified error.  Raises PrecisionUnreachable if ``max_shells`` shells
    do not reach that stop rule.
    """
    p = as_pair(pair)
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    s = p.n + p.m
    kmin = _min_terms(p.n)

    total = 0.0
    comp = 0.0
    partial = 0.0  # the series' partial sum, for the stop rule
    K = 0
    while True:
        term = series_term(p, K)
        if K >= kmin and term <= eps * partial:
            break
        if max_shells is not None and K >= max_shells:
            raise PrecisionUnreachable(
                f"max_shells={max_shells} insufficient for eps={eps:g} at {p}",
                best_bound=term if K >= kmin else math.inf,
                terms_used=K,
            )
        shell = multiindex_count(p.n, K) * (lam / (2 * K + p.n)) ** s / s
        y = shell - comp
        t = total + y
        comp = (t - total) - y
        total = t
        partial += term
        K += 1
    remainder = _integral_remainder(p, K) + term / 2
    total += lam**s * remainder / s
    # omega_(m-1)/(2pi)^(n+m) * total; _weyl_prefactor carries an extra 1/s
    return _weyl_prefactor(p) * s * total
