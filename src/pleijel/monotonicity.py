"""The monotonicity links behind the exceptional-set classification,
decided exactly.

With s = n + m, gamma_tilde = gamma_bar / (n^s c(n, m)) < gamma_bar, since c
exceeds its k = 0 term n^-s, and two elementary links make {gamma_bar >= 1}
a down-set:

* in n: gamma_bar(n, m)/gamma_bar(n-1, m) = X = s (2n+m-1) (s-2)^(s-1) / (s-1)^(s+1).
  (1 - 1/k)^k < 1/e and 2n + m - 1 <= 2s - 2 give X < 2s/(e(s-1)), and
  2s/(s-1) <= 8/3 < e for s >= 4.  The one pair left, (2, 1), has X = 3/4.
* in m: psi = gamma_bar(n, m)/gamma_bar(n, m-1) = 2 X Pi with
  Pi = prod_{j<n} (m-1+2j)/(m+2j).  a(a+2) <= (a+1)^2 telescopes to
  Pi^2 <= (m-1)/(2n+m-1), and (2n+m-1)(m-1) = (s-1)^2 - n^2, so
  psi < 2s/(e(s-1)) as well.  The one pair left, (1, 2), has psi = 9/16.
  psi is notation for the quotient, not a function.

Four exact rationals below 1 fix the down-set's edge: gamma_bar(7, 1) =
737280/823543, gamma_bar(4, 2) = 2268/3125, gamma_bar(2, 3) = 15/16 and
gamma_bar(1, 5) = 13824/15625.  It holds 11 pairs, (1..6, 1), (1..3, 2),
(1, 3) and (1, 4), and ``exceptional.exceptional_set`` asks the series about
none outside it.

The paper's lemmas, reproduced (no classification rests on them): gamma_tilde
itself decreases in n.  phi(n, m) = gamma_tilde(n, m)/gamma_tilde(n-1, m) is
(n-1)^(s-1)/n^s * X * c(n-1, m)/c(n, m), and c(n, m)/c(n-1, m) is bounded
below by the k = 0 value of the termwise quotient of the two series (notation
only; the reports decide its properties exactly)

      term_ratio(n, m, k) = 1/(n-1) * (k+n-1)/(2k+n) * (1 - 1/(2k+n))^(n+m-1),

which increases in real k >= 0: its log-derivative is a positive rational
function of d = 2k + n.  Altogether phi <= 5/(2e) < 1.

Each verdict is decided once, exactly: the quotient identities on the
12 x 12 grid against quotients of one table of ``gamma_bar_exact``, each
polynomial identity on a grid that fixes its degrees, phi on the
certified ends of ``gamma_tilde_interval``.  e enters as two rationals:
the partial sum _E_LO < e, so 8/3 < _E_LO proves 8/3 < e, and _E_HI > e,
so phi's threshold 5/(2 _E_HI) is below the true one.  Floats appear
only in the displayed maxima.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .constants import gamma_bar_exact, gamma_tilde_interval
from .series import c_series

__all__ = ["InequalityReport", "inequality_suite"]

# e > _E_LO: a partial sum of sum_k 1/k!, whose terms are all positive
_E_LO = sum(Fraction(1, math.factorial(k)) for k in range(10))
# e < _E_HI: the Taylor series of e to k = 17, and 1/(17 17!) >= sum_{k >= 18} 1/k!
_E_HI = (sum(Fraction(1, math.factorial(k)) for k in range(18))
         + Fraction(1, 17 * math.factorial(17)))


class InequalityReport(namedtuple("InequalityReport",
                                  "name domain_scanned max_observed threshold passed note",
                                  defaults=("",))):
    """One decided link of the proof; ``str()`` is its line in ``check monotonicity``."""

    __slots__ = ()

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


def _n_quotient(n: int, m: int) -> Fraction:
    """X(n, m) = gamma_bar(n, m)/gamma_bar(n-1, m) in closed form."""
    s = n + m
    return Fraction(s * (2 * n + m - 1) * (s - 2) ** (s - 1), (s - 1) ** (s + 1))


def _pi_product(n: int, m: int) -> Fraction:
    """Pi(n, m) = prod_{j<n} (m-1+2j)/(m+2j), the factor of psi beside 2 X(n, m)."""
    return Fraction(math.prod(range(m - 1, m + 2 * n - 1, 2)), math.prod(range(m, m + 2 * n, 2)))


def inequality_suite() -> list[InequalityReport]:
    """Decide the paper's phi chain and both links of the gamma_bar down-set.

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

    # the paper's lemmas, reproduced: the phi chain, which no classification rests on
    # --- phi: certified bound ----------------------------------------------
    # 5/(2e) < 1, so the bound also shows gamma_tilde decreasing in n.  The closed
    # form's rational prefactor is (n-1)^(s-1)/n^s X(n, m), whose X is decided
    # exactly below (gamma_bar_n_quotient)
    phi_domain = f"2 <= n <= {n_max}, 1 <= m <= {m_max}"
    phi_pairs = [(n, m) for n in range(2, n_max + 1) for m in range(1, m_max + 1)]
    worst = max(hi[n, m] / lo[n - 1, m] for n, m in phi_pairs)
    reports.append(_report("phi_upper_bound", phi_domain, worst, 5 / (2 * _E_HI)))

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

    # --- the gamma_bar down-set: two links, each by its identity and e ------
    # 2s/(s-1) <= 8/3 < _E_LO < e for s >= 4 bounds both quotients below 1 there
    reports.append(
        _report("e_lower_bound", "sum_{k<10} 1/k! < e", _E_LO,
                sum(Fraction(1, math.factorial(k)) for k in range(10)),
                note="_E_LO against the partial sum")
    )
    worst = max(abs(_n_quotient(n, m) * gb[n - 1, m] / gb[n, m] - 1) for n, m in phi_pairs)
    reports.append(
        _report("gamma_bar_n_quotient", phi_domain, worst, 0,
                note="gamma_bar(n,m)/gamma_bar(n-1,m) = X = s(2n+m-1)(s-2)^(s-1)/(s-1)^(s+1)")
    )
    reports.append(
        _report("gamma_bar_decreasing_in_n", "n >= 2, m >= 1",
                max(Fraction(8, 3) / _E_LO, _n_quotient(2, 1)), 1,
                note="X < 2s/(e(s-1)) <= 8/(3e) for s >= 4; X(2,1) = 3/4")
    )
    psi_domain = f"1 <= n <= {n_max}, 2 <= m <= {m_max}"
    # psi = gamma_bar(n, m)/gamma_bar(n, m-1), read from the table
    worst = max(abs(2 * _n_quotient(n, m) * _pi_product(n, m) * gb[n, m - 1] / gb[n, m] - 1)
                for n in range(1, n_max + 1) for m in range(2, m_max + 1))
    reports.append(
        _report("gamma_bar_m_quotient", psi_domain, worst, 0,
                note="psi = 2 X Pi, Pi = prod_{j<n} (m-1+2j)/(m+2j)")
    )
    # degree 2 in n and in m, so a 3 x 3 grid proves it
    worst = max(abs((2 * n + m - 1) * (m - 1) - (n + m - 1) ** 2 + n * n)
                for n in (1, 2, 3) for m in (2, 3, 4))
    reports.append(
        _report("psi_square_identity", "n >= 1, m >= 2", worst, 0,
                note="(2n+m-1)(m-1) = (s-1)^2 - n^2, exactly on a 3 x 3 grid")
    )
    reports.append(
        _report("gamma_bar_decreasing_in_m", "n >= 1, m >= 2",
                max(Fraction(8, 3) / _E_LO, 2 * _n_quotient(1, 2) * _pi_product(1, 2)), 1,
                note="psi^2 <= 4 X^2 (m-1)/(2n+m-1) < (2s/(e(s-1)))^2 "
                     "<= (8/(3e))^2 for s >= 4; psi(1,2) = 9/16")
    )
    return reports
