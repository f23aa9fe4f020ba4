"""Numerical verification of the monotonicity chain behind the
exceptional-set classification, as a regression suite.

Two directions:

* in n (for gamma_tilde): the quotient

      phi(n, m) = gamma_tilde(n, m) / gamma_tilde(n-1, m)

  has the closed form

      (n-1)^(n+m-1) (n+m-2)^(n+m-1) (n+m) (2n+m-1)
      / (n^(n+m) (n+m-1)^(n+m+1)) * c(n-1, m)/c(n, m),

  and c(n, m)/c(n-1, m) is bounded below by the k = 0 value of the
  termwise quotient

      term_ratio(n, m, k) = 1/(n-1) * (k+n-1)/(2k+n) * (1 - 1/(2k+n))^(n+m-1),

  which increases in real k >= 0 (its log-derivative is a positive
  rational function of d = 2k + n, checked exactly for every n >= 2,
  m >= 1).  Altogether phi <= 5/(2e) < 1 on the grid.

* in m (for gamma_bar): the quotient psi(n, m) = gb(n, m)/gb(n, m-1) is
  an exact rational; psi(1, m) <= 64/(27e), and for n >= 2 Wendel's
  gamma-ratio inequality gives, with l = n + m - 1 >= 3,

      psi(n, m)^2 <= 4/e^2 (1 + 3/l - 3/l^2) <= 20/(3 e^2) < 1.

These are theorems over the full range; this module re-checks the
term_ratio link exactly and every other link on a finite grid, reporting
the observed maxima, so any implementation regression (or transcription
slip in a formula) trips a named report.
The decrease of gamma_tilde in m is also scanned, but only as an
empirical observation: it is not covered by the proved chain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .constants import gamma_bar_exact, gamma_tilde, gamma_tilde_interval
from .core import Enclosure, as_pair
from .numerics import log_gamma
from .series import c_series

__all__ = [
    "InequalityReport",
    "phi",
    "phi_closed_form",
    "term_ratio",
    "c_ratio_lower_bound",
    "psi",
    "psi_closed_form",
    "inequality_suite",
]


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


def _report(name: str, domain: str, max_observed: float, threshold: float,
            note: str = "") -> InequalityReport:
    return InequalityReport(
        name=name,
        domain_scanned=domain,
        max_observed=max_observed,
        threshold=threshold,
        passed=max_observed <= threshold,
        note=note,
    )


def phi(pair, eps: float = 1e-8) -> float:
    """gamma_tilde(n, m)/gamma_tilde(n-1, m) for n >= 2.

    Evaluates both the direct quotient and the closed form and insists
    they agree to 1e-8 relative before returning the quotient.
    """
    p = as_pair(pair)
    if p.n < 2:
        raise ValueError(f"phi needs n >= 2, got {p}")
    quotient = gamma_tilde(p, eps / 8) / gamma_tilde((p.n - 1, p.m), eps / 8)
    closed = phi_closed_form(p, eps / 8)
    if abs(quotient - closed) > 1e-8 * quotient:
        raise RuntimeError(
            f"phi{p}: quotient {quotient!r} and closed form {closed!r} disagree"
        )
    return quotient


def phi_closed_form(pair, eps: float = 1e-8) -> float:
    p = as_pair(pair)
    if p.n < 2:
        raise ValueError(f"phi needs n >= 2, got {p}")
    n, m = p.n, p.m
    s = n + m
    pref = (
        Fraction(n - 1) ** (s - 1)
        * Fraction(s - 2) ** (s - 1)
        * s
        * (2 * n + m - 1)
        / (Fraction(n) ** s * Fraction(s - 1) ** (s + 1))
    )
    c_prev = c_series((n - 1, m), eps, relative=True).midpoint
    c_here = c_series((n, m), eps, relative=True).midpoint
    return float(pref) * c_prev / c_here


def term_ratio(pair, k: int) -> float:
    """Quotient of the k-th series term at (n, m) to the k-th at (n-1, m):

        1/(n-1) * (k+n-1)/(2k+n) * (1 - 1/(2k+n))^(n+m-1).

    Nondecreasing in k, hence minimised at k = 0.
    """
    p = as_pair(pair)
    if p.n < 2:
        raise ValueError(f"term_ratio needs n >= 2, got {p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, d = p.n, 2 * k + p.n
    return (k + n - 1) / ((n - 1) * d) * (1 - 1 / d) ** (n + p.m - 1)


def c_ratio_lower_bound(pair) -> float:
    """Lower bound (1/n)(1 - 1/n)^(n+m-1) on c(n, m)/c(n-1, m); equals
    term_ratio at k = 0."""
    return term_ratio(pair, 0)


def psi(pair) -> Fraction:
    """gamma_bar(n, m)/gamma_bar(n, m-1) for m >= 2, as an exact rational."""
    p = as_pair(pair)
    if p.m < 2:
        raise ValueError(f"psi needs m >= 2, got {p}")
    return gamma_bar_exact(p) / gamma_bar_exact((p.n, p.m - 1))


def psi_closed_form(pair) -> float:
    """Gamma-function form of psi:

    4 (n+m-2)^(n+m-1) (n+m) / (n+m-1)^(n+m+1)
        * Gamma(m/2)Gamma(n+m/2+1/2) / (Gamma(m/2-1/2)Gamma(n+m/2)).
    """
    p = as_pair(pair)
    if p.m < 2:
        raise ValueError(f"psi needs m >= 2, got {p}")
    n, m = p.n, p.m
    s = n + m
    half = Fraction(1, 2)
    log = (
        math.log(4)
        + (s - 1) * math.log(s - 2)
        + math.log(s)
        - (s + 1) * math.log(s - 1)
        + log_gamma(Fraction(m, 2))
        + log_gamma(n + Fraction(m, 2) + half)
        - log_gamma(Fraction(m, 2) - half)
        - log_gamma(n + Fraction(m, 2))
    )
    return math.exp(log)


def inequality_suite(n_max: int = 12, m_max: int = 12, eps: float = 1e-8) -> list[InequalityReport]:
    """Scan every inequality of the monotonicity chain on a finite grid.

    All reports pass on the default grid; a failed report carries the
    offending maximum rather than raising.
    """
    if n_max < 2 or m_max < 2:
        raise ValueError("the suite needs n_max, m_max >= 2")
    reports: list[InequalityReport] = []
    e = math.e

    def interval(n: int, m: int) -> Enclosure:
        return gamma_tilde_interval((n, m), eps)

    # --- phi: value bound and quotient-vs-closed-form agreement ------------
    phi_domain = f"2 <= n <= {n_max}, 1 <= m <= {m_max}"
    phis = {}
    worst_dev = 0.0
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            q = gamma_tilde((n, m), eps / 8) / gamma_tilde((n - 1, m), eps / 8)
            phis[n, m] = q
            worst_dev = max(worst_dev, abs(q - phi_closed_form((n, m), eps / 8)) / q)
    reports.append(_report("phi_upper_bound", phi_domain, max(phis.values()), 5 / (2 * e)))
    reports.append(_report("phi_closed_form_agreement", phi_domain, worst_dev, 1e-8))

    # --- the quadratic used to settle the phi bound ------------------------
    quad_max = max(-1.5 * m * m - 4 * m + 5.5 for m in range(1, m_max + 1))
    reports.append(
        _report("phi_quadratic_nonpositive", f"1 <= m <= {m_max}", quad_max, 0.0,
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
                -corner if identity else math.inf, 0.0,
                note="d/dd log term_ratio = ((m+1)d + (n-2)(n+m))/(d(d-1)(d+n-2)), "
                     "d = 2k+n, exactly; max = -min(numerator, denominator)")
    )

    # --- c-ratio lower bound, with certified series intervals --------------
    worst_ratio = 0.0
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            lo_here = c_series((n, m), eps, relative=True)
            hi_prev = c_series((n - 1, m), eps, relative=True)
            certified_low = lo_here.value / hi_prev.upper
            worst_ratio = max(worst_ratio, c_ratio_lower_bound((n, m)) / certified_low)
    reports.append(
        _report("c_ratio_lower_bound_holds", phi_domain, worst_ratio, 1.0,
                note="bound / certified ratio")
    )

    # --- psi: exact rational bound checks -----------------------------------
    psi1 = max(psi((1, m)) for m in range(2, m_max + 1))
    reports.append(
        _report("psi_heisenberg_bound", f"n = 1, 2 <= m <= {m_max}", float(psi1), 64 / (27 * e))
    )
    worst_sq = 0.0
    worst_wendel = -math.inf
    worst_closed_dev = 0.0
    for n in range(2, n_max + 1):
        for m in range(2, m_max + 1):
            value = psi((n, m))
            worst_sq = max(worst_sq, float(value) ** 2)
            ell = n + m - 1  # >= 3
            wendel = 4 / e**2 * (1 + 3 / ell - 3 / ell**2)
            worst_wendel = max(worst_wendel, float(value) ** 2 - wendel)
            worst_closed_dev = max(
                worst_closed_dev, abs(float(value) - psi_closed_form((n, m))) / float(value)
            )
    psi_domain = f"2 <= n <= {n_max}, 2 <= m <= {m_max}"
    reports.append(_report("psi_squared_bound", psi_domain, worst_sq, 20 / (3 * e**2)))
    reports.append(
        _report("psi_squared_wendel_chain", psi_domain, worst_wendel, 0.0,
                note="psi^2 - (4/e^2)(1 + 3/l - 3/l^2), l = n+m-1")
    )
    reports.append(_report("psi_closed_form_agreement", psi_domain, worst_closed_dev, 1e-12))

    # --- monotonicity of the tables themselves -----------------------------
    worst = max(interval(n, m).hi / interval(n - 1, m).lo
                for m in range(1, m_max + 1) for n in range(2, n_max + 1))
    reports.append(
        _report("gamma_tilde_decreasing_in_n", phi_domain, worst, 1.0,
                note="certified upper/lower quotient of consecutive rows")
    )

    worst_psi = max(
        float(psi((n, m))) for n in range(1, n_max + 1) for m in range(2, m_max + 1)
    )
    reports.append(
        _report("gamma_bar_decreasing_in_m",
                f"1 <= n <= {n_max}, 2 <= m <= {m_max}", worst_psi, 1.0,
                note="exact rational quotient of consecutive columns")
    )

    worst = max(interval(n, m).hi / interval(n, m - 1).lo
                for n in range(1, n_max + 1) for m in range(2, m_max + 1))
    reports.append(
        _report("gamma_tilde_decreasing_in_m_empirical",
                f"1 <= n <= {n_max}, 2 <= m <= {m_max}", worst, 1.0,
                note="EMPIRICAL observation only; not covered by the proved chain")
    )

    # --- the combination chain settling n >= 4, m >= 2 ----------------------
    gb42 = gamma_bar_exact((4, 2))  # = 2268/3125
    worst = 0.0
    for m in range(2, m_max + 1):
        g4, gbm = interval(4, m), gamma_bar_exact((4, m))
        worst = max(worst, g4.hi / float(gbm))  # gamma_tilde(4, m) <= gamma_bar(4, m)
        worst = max(worst, float(gbm / gb42))  # gamma_bar(4, m) <= gamma_bar(4, 2)
        for n in range(5, n_max + 1):
            worst = max(worst, interval(n, m).hi / g4.lo)  # gamma_tilde(n, m) <= gamma_tilde(4, m)
    reports.append(
        _report("combination_chain",
                f"4 <= n <= {n_max}, 2 <= m <= {m_max}", worst, 1.0,
                note="gamma_tilde(n,m) <= gamma_tilde(4,m) <= gamma_bar(4,m) <= 2268/3125")
    )
    return reports
