"""The monotonicity chain behind the exceptional-set classification,
decided exactly.

Two directions:

* in n (for gamma_tilde): the quotient

      phi(n, m) = gamma_tilde(n, m) / gamma_tilde(n-1, m)

  has the closed form

      (n-1)^(n+m-1) (n+m-2)^(n+m-1) (n+m) (2n+m-1)
      / (n^(n+m) (n+m-1)^(n+m+1)) * c(n-1, m)/c(n, m),

  and c(n, m)/c(n-1, m) is bounded below by the k = 0 value of the
  termwise quotient of the two series, written here as notation (no
  function computes it; the reports decide its properties exactly)

      term_ratio(n, m, k) = 1/(n-1) * (k+n-1)/(2k+n) * (1 - 1/(2k+n))^(n+m-1),

  which increases in real k >= 0 (its log-derivative is a positive
  rational function of d = 2k + n, checked exactly for every n >= 2,
  m >= 1).  Altogether phi <= 5/(2e) < 1, so gamma_tilde decreases in n.

* in m (for gamma_bar): the quotient psi(n, m) = gb(n, m)/gb(n, m-1) is
  an exact rational; psi(1, m) <= 64/(27e), and for n >= 2 Wendel's
  gamma-ratio inequality gives, with l = n + m - 1 >= 3,

      psi(n, m)^2 <= 4/e^2 (1 + 3/l - 3/l^2) <= 20/(3 e^2) < 1,

  so gamma_bar decreases in m.

These are theorems over the full range; this module checks the
term_ratio link for every pair and every other link on the 12 x 12 grid.
Each verdict is decided once, exactly: on Fractions, on the certified
ends of ``gamma_tilde_interval``, and against thresholds built from a
rational upper bound on e, so each threshold is a lower bound on the
true one.  Floats appear only in the displayed maxima.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .constants import _gamma_half, gamma_bar_exact, gamma_tilde_interval
from .core import as_pair
from .series import c_series

__all__ = [
    "InequalityReport",
    "psi",
    "psi_closed_form",
    "inequality_suite",
]

# e < _E_HI: the Taylor series of e to k = 17, and 1/(17 17!) >= sum_{k >= 18} 1/k!
_E_HI = (sum(Fraction(1, math.factorial(k)) for k in range(18))
         + Fraction(1, 17 * math.factorial(17)))


class InequalityReport(NamedTuple):
    name: str
    domain_scanned: str
    max_observed: float
    threshold: float
    passed: bool
    note: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        out = (
            f"[{mark}] {self.name}: max {self.max_observed:.6g} "
            f"vs threshold {self.threshold:.6g} on {self.domain_scanned}"
        )
        return out + (f"  ({self.note})" if self.note else "")


def _report(name: str, domain: str, worst, bound, note: str = "") -> InequalityReport:
    """The verdict worst <= bound, decided on the exact values; floats are for display."""
    return InequalityReport(name, domain, float(worst), float(bound), worst <= bound, note)


def _phi_prefactor(n: int, m: int) -> Fraction:
    """The rational factor of phi(n, m) in front of c(n-1, m)/c(n, m)."""
    s = n + m
    return Fraction((n - 1) ** (s - 1) * (s - 2) ** (s - 1) * s * (2 * n + m - 1),
                    n**s * (s - 1) ** (s + 1))


def psi(pair) -> Fraction:
    """gamma_bar(n, m)/gamma_bar(n, m-1) for m >= 2, as an exact rational."""
    p = as_pair(pair)
    if p.m < 2:
        raise ValueError(f"psi needs m >= 2, got {p}")
    return gamma_bar_exact(p) / gamma_bar_exact((p.n, p.m - 1))


def psi_closed_form(pair) -> Fraction:
    """Gamma-function form of psi, as an exact rational:

    4 (n+m-2)^(n+m-1) (n+m) / (n+m-1)^(n+m+1)
        * Gamma(m/2)Gamma(n+m/2+1/2) / (Gamma(m/2-1/2)Gamma(n+m/2)).

    One Gamma above and one below have half-integral arguments, so their
    sqrt(pi) factors cancel.
    """
    p = as_pair(pair)
    if p.m < 2:
        raise ValueError(f"psi needs m >= 2, got {p}")
    n, m = p.n, p.m
    s = n + m
    g = [Fraction(*_gamma_half(q)) for q in (m, 2 * n + m + 1, m - 1, 2 * n + m)]
    return Fraction(4 * (s - 2) ** (s - 1) * s, (s - 1) ** (s + 1)) * g[0] * g[1] / (g[2] * g[3])


def inequality_suite() -> list[InequalityReport]:
    """Decide every inequality of the monotonicity chain on the 12 x 12 grid.

    All reports pass; a failed report carries the offending maximum
    rather than raising.
    """
    n_max = m_max = 12
    reports: list[InequalityReport] = []

    # each certified gamma_tilde enclosure and each exact gamma_bar, once per pair
    lo, hi, gb = {}, {}, {}
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            g = gamma_tilde_interval((n, m))
            lo[n, m], hi[n, m] = Fraction(g.lo), Fraction(g.hi)
            gb[n, m] = gamma_bar_exact((n, m))

    # --- phi: certified bound, and the closed form's prefactor exactly ------
    # 5/(2e) < 1, so the bound also shows gamma_tilde decreasing in n; the c(n, m)
    # factors are the same on both sides of the closed form, so only its rational
    # prefactor is compared, with gb(n,m) (n-1)^(n+m-1) / (gb(n-1,m) n^(n+m))
    phi_domain = f"2 <= n <= {n_max}, 1 <= m <= {m_max}"
    phi_pairs = [(n, m) for n in range(2, n_max + 1) for m in range(1, m_max + 1)]
    worst = max(hi[n, m] / lo[n - 1, m] for n, m in phi_pairs)
    reports.append(_report("phi_upper_bound", phi_domain, worst, 5 / (2 * _E_HI)))
    worst = max(abs(_phi_prefactor(n, m) * gb[n - 1, m] * n ** (n + m)
                    / (gb[n, m] * (n - 1) ** (n + m - 1)) - 1) for n, m in phi_pairs)
    reports.append(_report("phi_closed_form_agreement", phi_domain, worst, 0))

    # --- the quadratic used to settle the phi bound ------------------------
    quad_max = max(Fraction(11 - 8 * m - 3 * m * m, 2) for m in range(1, m_max + 1))
    reports.append(
        _report("phi_quadratic_nonpositive", f"1 <= m <= {m_max}", quad_max, 0,
                note="-(3/2)m^2 - 4m + 11/2 <= 0")
    )

    # --- termwise quotient: increasing in real k, exactly -------------------
    # d = 2k + n: d/dd log term_ratio = 1/(d+n-2) - 1/d + (n+m-1)/(d(d-1)) is
    # numerator/denominator below.  Cleared of denominators the identity has
    # degree <= 2 in d and n, <= 1 in m, so a 3 x 3 x 2 grid off the poles
    # proves it.  Every linear factor has nonnegative coefficients, so on
    # d >= n >= 2, m >= 1 both are least at (d, n, m) = (2, 2, 1).
    def numerator(d: int, n: int, m: int) -> int:
        return (m + 1) * d + (n - 2) * (n + m)

    def denominator(d: int, n: int) -> int:
        return d * (d - 1) * (d + n - 2)

    identity = all(
        Fraction(1, d + n - 2) - Fraction(1, d) + Fraction(n + m - 1, d * (d - 1))
        == Fraction(numerator(d, n, m), denominator(d, n))
        for d in (2, 3, 4) for n in (2, 3, 4) for m in (1, 2))
    corner = min(numerator(2, 2, 1), denominator(2, 2))
    reports.append(
        _report("term_ratio_increasing", "n >= 2, m >= 1, real k >= 0",
                -corner if identity else math.inf, 0,
                note="d/dd log term_ratio = ((m+1)d + (n-2)(n+m))/(d(d-1)(d+n-2)), "
                     "d = 2k+n, exactly; max = -min(numerator, denominator)")
    )

    # --- c-ratio lower bound: term_ratio at k = 0 times the certified ends --
    worst = max(
        Fraction((n - 1) ** (n + m - 1), n ** (n + m))
        * Fraction(c_series((n - 1, m)).upper) / Fraction(c_series((n, m)).value)
        for n, m in phi_pairs)
    reports.append(
        _report("c_ratio_lower_bound_holds", phi_domain, worst, 1,
                note="bound / certified ratio")
    )

    # --- psi: exact rationals against thresholds at e's upper bound ---------
    psis = {(n, m): psi((n, m)) for n in range(1, n_max + 1) for m in range(2, m_max + 1)}
    reports.append(
        _report("psi_heisenberg_bound", f"n = 1, 2 <= m <= {m_max}",
                max(psis[1, m] for m in range(2, m_max + 1)), 64 / (27 * _E_HI))
    )
    psi_domain = f"2 <= n <= {n_max}, 2 <= m <= {m_max}"
    wide = [(n, m) for n, m in psis if n >= 2]
    reports.append(_report("psi_squared_bound", psi_domain,
                           max(psis[p] ** 2 for p in wide), 20 / (3 * _E_HI**2)))

    def wendel(l: int) -> Fraction:  # (4/e^2)(1 + 3/l - 3/l^2) at e's upper bound
        return 4 / _E_HI**2 * Fraction(l * l + 3 * l - 3, l * l)

    worst = max(psis[n, m] ** 2 - wendel(n + m - 1) for n, m in wide)
    reports.append(
        _report("psi_squared_wendel_chain", psi_domain, worst, 0,
                note="psi^2 - (4/e^2)(1 + 3/l - 3/l^2), l = n+m-1")
    )
    worst = max(abs(psi_closed_form(p) / psis[p] - 1) for p in wide)
    reports.append(_report("psi_closed_form_agreement", psi_domain, worst, 0))

    # --- the combination chain settling n >= 4, m >= 2 ----------------------
    worst = max(
        max(hi[4, m] / gb[4, m],  # gamma_tilde(4, m) <= gamma_bar(4, m)
            gb[4, m] / gb[4, 2],  # gamma_bar(4, m) <= gamma_bar(4, 2) = 2268/3125
            *(hi[n, m] / lo[4, m] for n in range(5, n_max + 1)))  # gt(n, m) <= gt(4, m)
        for m in range(2, m_max + 1))
    reports.append(
        _report("combination_chain",
                f"4 <= n <= {n_max}, 2 <= m <= {m_max}", worst, 1,
                note="gamma_tilde(n,m) <= gamma_tilde(4,m) <= gamma_bar(4,m) <= 2268/3125")
    )
    return reports
