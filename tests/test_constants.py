"""Constants module: closed-form checkpoints, cross-route consistency,
and the brute-force spectral-density oracle.

Frozen high-precision references (50-digit independent evaluation):

    sobolev(2, 1) = 4^(2/3) * 4 * pi^(5/6) * (Gamma(5/2)/Gamma(5))^(1/3)
                  = 9.973934966328010133...
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pleijel.admissibility import radon_hurwitz
from pleijel.constants import (
    gamma_bar_exact,
    gamma_tilde_interval,
    log_gamma_bar,
    weyl_interval,
)
from pleijel.core import DimPair, Enclosure, PrecisionUnreachable, as_pair
from pleijel.exceptional import exceptional_set
from pleijel.sobolev import sobolev_interval
from pleijel.numerics import _ends, round_half_away
from pleijel import constants, reference
from pleijel.oracles import (
    _integral_remainder,
    _min_terms,
    _summand,
    _weyl_prefactor,
    gamma_tilde_product_form,
    sphere_area,
    weyl_density_bruteforce,
    zeta_interval,
)
from test_series import _EDGE, _hurwitz_oracle

SOBOLEV_21_REFERENCE = 9.973934966328010133395

_RNG = random.Random(20261019)
#: n and m log-uniform in [1, 10^15]
_LOG_UNIFORM_PAIRS = [(int(10 ** _RNG.uniform(0, 15)), int(10 ** _RNG.uniform(0, 15)))
                      for _ in range(500)]


def gamma_ratio_exact(a, b) -> Fraction:
    """Gamma(a)/Gamma(b) as an exact rational, for positive half-integers with
    a - b an integer (the sqrt(pi) factors cancel and the ratio telescopes).

    The reference that ``gamma_bar_exact``'s integer form is compared against.
    """
    fa, fb = Fraction(a), Fraction(b)
    if min(fa, fb) <= 0 or (2 * fa).denominator != 1 or (2 * fb).denominator != 1:
        raise ValueError(f"gamma_ratio_exact needs positive half-integers, got ({a}, {b})")
    if (fa - fb).denominator != 1:
        raise ValueError(f"unsupported ratio: Gamma({a})/Gamma({b}) (a - b must be an integer)")
    if fa < fb:
        return 1 / gamma_ratio_exact(fb, fa)
    # Gamma(a) = (a-1)(a-2)...(b) Gamma(b); with b = p/q each factor is (p + iq)/q
    p, q = fb.numerator, fb.denominator
    steps = int(fa - fb)
    return Fraction(math.prod(range(p, p + steps * q, q)), q**steps)


class TestSobolev:
    def test_heisenberg_base_case_is_pi(self):
        # 2 pi^(3/4) (Gamma(3/2)/Gamma(3))^(1/2) = pi by hand
        g = sobolev_interval((1, 1))
        assert g.lo <= math.pi <= g.hi
        assert g.mid == pytest.approx(math.pi, rel=1e-12)

    def test_frozen_high_precision_value(self):
        g = sobolev_interval((2, 1))
        assert g.lo <= SOBOLEV_21_REFERENCE <= g.hi
        assert g.mid == pytest.approx(SOBOLEV_21_REFERENCE, rel=1e-12)

    def test_positive_on_grid(self):
        for n, m in itertools.product(range(1, 21), range(1, 21)):
            assert sobolev_interval((n, m)).lo > 0


class TestWeyl:
    def test_heisenberg_value(self):
        assert weyl_interval((1, 1)).mid == pytest.approx(1 / 32, rel=1e-9)

    def test_composition_oracle_2_2(self):
        want = sphere_area(1) / (2 * math.pi) ** 4 / 4 * zeta_interval(3).mid / 16
        assert weyl_interval((2, 2)).mid == pytest.approx(want, rel=1e-9)

    def test_positive(self):
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            assert weyl_interval((n, m)).mid > 0


class TestGammaTilde:
    def test_heisenberg_closed_form(self):
        want = 32 / math.pi**2
        assert abs(gamma_tilde_interval((1, 1)).mid - want) <= 1e-10 * want

    def test_n2_closed_form(self):
        # c(2,1) = zeta(2)/8 makes gamma_tilde(2,1) = 18/pi^2 exactly
        want = 18 / math.pi**2
        assert abs(gamma_tilde_interval((2, 1)).mid - want) <= 1e-10 * want

    def test_reference_cells(self):
        assert round_half_away(gamma_tilde_interval((1, 1)).mid, 4) == "3.2423"
        assert round_half_away(gamma_tilde_interval((2, 2)).mid, 4) == "1.2325"
        assert round_half_away(gamma_tilde_interval((4, 2)).mid, 4) == "0.4120"

    def test_heisenberg_column_matches_reference(self):
        for n in range(1, 11):
            want = reference.GAMMA_TILDE_PRINTED[n, 1]
            assert round_half_away(gamma_tilde_interval((n, 1)).mid, 4) == want

    def test_interval_brackets_point(self):
        for pair in ((1, 1), (3, 2), (10, 10), (20, 20)):
            low, high = gamma_tilde_interval(pair)
            point = gamma_tilde_interval(pair).mid
            assert low <= point <= high
            assert (high - low) / point <= 1e-9  # at most the series width asked for


class TestProductFormConsistency:
    def test_heisenberg(self):
        want = 32 / math.pi**2
        assert gamma_tilde_product_form((1, 1)).mid == pytest.approx(want, rel=1e-9)

    def test_reference_spot_values(self):
        assert round_half_away(gamma_tilde_product_form((3, 1)).mid, 4) == "1.0689"
        assert round_half_away(gamma_tilde_product_form((10, 10)).mid, 4) == "0.0005"

    def test_agrees_with_closed_form_everywhere(self):
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            g, product = gamma_tilde_interval((n, m)), gamma_tilde_product_form((n, m))
            assert g.lo <= product.hi and product.lo <= g.hi, (n, m)
            assert product.hi - product.lo <= 1e-13 * product.lo, (n, m)
            dev = abs(g.mid - product.mid) / g.mid
            assert dev <= 1e-8, f"({n},{m}): {dev:.2e}"

    def test_underflowing_weyl_leaves_the_upper_end_open(self):
        # W(139, 1) is below the subnormal range: its enclosure straddles 0
        assert weyl_interval((139, 1)).lo <= 0
        product = gamma_tilde_product_form((139, 1))
        assert 0 < product.lo <= gamma_tilde_interval((139, 1)).lo and product.hi == math.inf


def test_derived_enclosures_bit_pinned():
    # every end of the derived enclosures, bit for bit: weyl, gamma_tilde and sobolev
    # on 30 x 30 and on every 4th of the range's edge rows n >= 2 ((1, 10^6) alone
    # takes about a minute), the product form on 10 x 10 and zeta at s = 2..40
    grid = [(n, m) for n in range(1, 31) for m in range(1, 31)]
    ends = [f(pair) for pair in grid + _EDGE[1::4]
            for f in (weyl_interval, gamma_tilde_interval, sobolev_interval)]
    ends += [gamma_tilde_product_form(pair) for pair in grid if max(pair) <= 10]
    ends += map(zeta_interval, range(2, 41))
    digest = hashlib.sha256("".join(f"{e.lo.hex()} {e.hi.hex()}\n" for e in ends).encode())
    assert digest.hexdigest() == (
        "88f2241595570e4b4a44f69e2b5566793a400429e262bfca2b32b235c6b61bb6")


def _gamma_half_factorials(q: int) -> Fraction:
    # Gamma(q/2) / sqrt(pi)^[q odd] from factorials: Gamma(k + 1/2) = (2k)! / (4^k k!) sqrt(pi)
    k = q // 2
    if q % 2 == 0:
        return Fraction(math.factorial(k - 1))
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))


def test_exact_prefactors_equal_their_factorial_forms():
    for q in range(1, 401):
        assert Fraction(*constants._gamma_half(q)) == _gamma_half_factorials(q), q
    # gamma_bar = 2^(m-n-1) s/(s-1)^s Gamma(m/2) Gamma(2n+m) / Gamma(n+m/2), s = n + m
    for n, m in itertools.product(range(1, 61), repeat=2):
        s = n + m
        want = (Fraction(2) ** (m - n - 1) * Fraction(s, (s - 1) ** s) * _gamma_half_factorials(m)
                * math.factorial(2 * n + m - 1) / _gamma_half_factorials(2 * n + m))
        assert Fraction(*constants._gamma_bar_ratio(DimPair(n, m))) == want, (n, m)


def _power_sign(x: float, s: int, end: tuple[int, int]) -> int:
    # the sign of x^s - num/den, over integers
    (a, b), (num, den) = x.as_integer_ratio(), end
    diff = a**s * den - num * b**s
    return (diff > 0) - (diff < 0)


def test_sobolev_ends_are_the_outward_roots():
    # C^s = R pi^k with R = 4^n n^s (s-1)^s Gamma(q/2) / (Gamma(q) sqrt(pi)^[q odd]):
    # the lower end is the largest float whose s-th power is <= R pi_lo^k, the upper
    # the smallest whose s-th power is >= R pi_hi^k
    grid = [(n, m) for n in range(1, 31) for m in range(1, 31)]
    for n, m in grid + _EDGE[1::4]:
        s, k, q = n + m, n + (m + 1) // 2, 2 * n + m
        r = 4**n * n**s * (s - 1) ** s * _gamma_half_factorials(q) / math.factorial(q - 1)
        lower, upper = _ends(r.numerator, r.denominator, k)
        lo, hi = sobolev_interval((n, m))
        assert _power_sign(lo, s, lower) <= 0 < _power_sign(
            math.nextafter(lo, math.inf), s, lower), (n, m)
        assert _power_sign(math.nextafter(hi, 0.0), s, upper) < 0 <= _power_sign(
            hi, s, upper), (n, m)


class TestGammaRatioExact:
    def test_examples(self):
        assert gamma_ratio_exact(3, 1) == 2
        assert gamma_ratio_exact(Fraction(3, 2), Fraction(7, 2)) == Fraction(4, 15)
        assert gamma_ratio_exact(10, 5) == 15120  # 9!/4!

    def test_non_integer_difference_rejected(self):
        with pytest.raises(ValueError, match="unsupported ratio"):
            gamma_ratio_exact(Fraction(3, 2), 2)

    def test_agrees_with_log_gamma(self):  # math.lgamma
        for twice_b in range(1, 40):
            for diff in range(-12, 13):
                twice_a = twice_b + 2 * diff
                if twice_a < 1 or twice_a > 120 or twice_b > 120:
                    continue
                a, b = Fraction(twice_a, 2), Fraction(twice_b, 2)
                exact = gamma_ratio_exact(a, b)
                via_log = math.exp(math.lgamma(twice_a / 2) - math.lgamma(twice_b / 2))
                assert float(exact) == pytest.approx(via_log, rel=1e-10)

    def test_inverse_pairs(self):
        a, b = Fraction(61, 2), Fraction(5, 2)
        assert gamma_ratio_exact(a, b) * gamma_ratio_exact(b, a) == 1

    def test_equals_chained_fraction_product(self):
        # the factor-by-factor product Gamma(a)/Gamma(b) = (a-1)(a-2)...(b)
        def chained(a, b):
            if a < b:
                return 1 / chained(b, a)
            out, x = Fraction(1), b
            while x < a:
                out *= x
                x += 1
            return out

        for twice_b in range(1, 62):
            for diff in range(-30, 31):
                twice_a = twice_b + 2 * diff
                if twice_a < 1:
                    continue
                a, b = Fraction(twice_a, 2), Fraction(twice_b, 2)
                assert gamma_ratio_exact(a, b) == chained(a, b), (a, b)


class TestGammaBar:
    def test_rational_checkpoints(self):
        assert gamma_bar_exact((4, 2)) == Fraction(2268, 3125)
        assert gamma_bar_exact((2, 3)) == Fraction(15, 16)
        assert gamma_bar_exact((1, 1)) == 4

    def test_cell_1_3_is_128_over_81(self):
        # the exact value behind the reference-table erratum
        assert gamma_bar_exact((1, 3)) == Fraction(128, 81)
        assert round_half_away(Fraction(128, 81), 4) == "1.5802"

    def test_equals_gamma_ratio_form(self):
        # the defining form 2^-(n-m+1) (n+m)/(n+m-1)^(n+m) Gamma(m/2)Gamma(2n+m)/Gamma(n+m/2)
        for n, m in itertools.product(range(1, 31), range(1, 31)):
            s = n + m
            half_m = Fraction(m, 2)
            want = (Fraction(2) ** (m - n - 1) * Fraction(s, (s - 1) ** s)
                    * gamma_ratio_exact(half_m, half_m + n) * math.factorial(2 * n + m - 1))
            assert gamma_bar_exact((n, m)) == want, (n, m)

    def test_log_domain_matches_exact(self):
        for n, m in itertools.product(range(1, 21), range(1, 21)):
            exact = float(gamma_bar_exact((n, m)))
            assert math.exp(log_gamma_bar((n, m))) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("pairs", [
        list(itertools.product(range(1, 61), repeat=2)),
        _LOG_UNIFORM_PAIRS,
        [(3, 2**53 + 1)],
    ], ids=["n,m<=60", "random-to-1e15", "witness"])
    def test_log_bit_identical_to_the_fraction_form(self, pairs):
        # each lgamma argument is rounded once, as float() of the Fraction did
        for n, m in pairs:
            assert log_gamma_bar((n, m)).hex() == _log_gamma_bar_reference(n, m).hex(), (n, m)

    def test_half_integer_argument_rounded_once(self):
        # at the witness, n + m/2 rounds twice and moves ln Gamma by 64
        n, m = 3, 2**53 + 1
        assert math.lgamma(n + m / 2) - math.lgamma((2 * n + m) / 2) == -64.0

    @pytest.mark.parametrize("pair", [(1, 1), (4, 2), (30, 30), (2000, 1), (1, 3000), (700, 900)])
    def test_log_within_the_refusal_margin(self, pair):
        # the CLI refuses gamma_bar over the digit limit from log_gamma_bar,
        # with 1e-9 q ln q (q = 2n + m) as its float error allowance
        exact = gamma_bar_exact(pair)
        q = 2 * pair[0] + pair[1]
        err = abs(log_gamma_bar(pair) - (math.log(exact.numerator) - math.log(exact.denominator)))
        assert err <= 1e-12 * q * math.log(q)

    @pytest.mark.parametrize("pair", [(10**309, 1), (1, 10**309), (1, 10**307), (10**307, 1)])
    def test_log_out_of_the_float_range_refused(self, pair):
        # an int past the largest float, or an lgamma that overflows, used to
        # escape as OverflowError
        with pytest.raises(PrecisionUnreachable, match="out of range") as err:
            log_gamma_bar(pair)
        assert err.value.best_bound == math.inf

    def test_dominates_gamma_tilde_strictly(self):
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            assert gamma_tilde_interval((n, m)).hi < gamma_bar_exact((n, m))

    def test_reference_table(self):
        table = reference.corrected(reference.GAMMA_BAR_PRINTED, reference.GAMMA_BAR_ERRATA)
        for (n, m), want in table.items():
            assert round_half_away(gamma_bar_exact((n, m)), 4) == want


class TestExceptionalSet:
    def test_ten_by_ten(self):
        result = exceptional_set(10, 10)
        want = [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2), DimPair(3, 1)]
        assert result.exceptional == sorted(want)
        assert result.uncertain == []

    def test_small_boxes(self):
        assert exceptional_set(1, 1).exceptional == [DimPair(1, 1)]
        assert exceptional_set(3, 3).exceptional == sorted(
            [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2), DimPair(3, 1)]
        )
        # nothing new appears in row n = 4
        assert exceptional_set(4, 7).exceptional == exceptional_set(3, 3).exceptional

    def test_no_admissible_interval_straddles_one(self):
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            low, high = gamma_tilde_interval((n, m))
            assert low >= 1.0 or high < 1.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            exceptional_set(0, 5)

    def test_past_the_series_range_decided_by_gamma_bar(self, monkeypatch):
        # c(140, 1) is out of binary64 range; gamma_tilde < gamma_bar < 1 makes it safe
        with pytest.raises(PrecisionUnreachable):
            gamma_tilde_interval((140, 1))
        assert gamma_bar_exact((140, 1)) < 1
        assert exceptional_set(140, 1) == exceptional_set(139, 1)
        # a refused pair that gamma_bar cannot decide is refused, not classified:
        # with gamma_bar >= 1 all down the column m = 1, the walk reaches (140, 1)
        ratio = constants._gamma_bar_ratio
        monkeypatch.setattr(constants, "_gamma_bar_ratio",
                            lambda pair: (1, 1) if pair.m == 1 else ratio(pair))
        with pytest.raises(PrecisionUnreachable):
            exceptional_set(140, 1)

    def test_gamma_bar_below_one_decides_without_the_series(self, monkeypatch):
        # every pair the series is asked about has gamma_bar >= 1
        asked = []
        monkeypatch.setattr(constants, "gamma_tilde_interval",
                            lambda pair: asked.append(pair) or gamma_tilde_interval(pair))
        assert exceptional_set(30, 30) == (
            [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2), DimPair(3, 1)], [])
        assert asked and all(gamma_bar_exact(pair) >= 1 for pair in asked)

    def test_staircase_equals_a_full_box_scan(self):
        # the reference classifies every admissible pair of 40 x 40 by its certified
        # gamma_tilde, which lies under the exact gamma_bar; each box is a sub-box
        verdict = {}
        for n in range(1, 41):
            for m in range(1, min(40, radon_hurwitz(2 * n) - 1) + 1):
                low, high = gamma_tilde_interval((n, m))
                assert high < gamma_bar_exact((n, m))
                verdict[n, m] = "exceptional" if low >= 1 else "uncertain" if high >= 1 else ""
        for n_max, m_max in itertools.product(range(1, 41), repeat=2):
            box = [p for p in sorted(verdict) if p[0] <= n_max and p[1] <= m_max]
            assert exceptional_set(n_max, m_max) == tuple(
                [p for p in box if verdict[p] == kind] for kind in ("exceptional", "uncertain")
            ), (n_max, m_max)

    def test_any_box_asks_the_series_inside_the_down_set_only(self, monkeypatch):
        # the admissible pairs of the 11-pair down-set {gamma_bar >= 1}, and no others
        asked = []
        monkeypatch.setattr(constants, "gamma_tilde_interval",
                            lambda pair: asked.append(pair) or gamma_tilde_interval(pair))
        assert exceptional_set(10**9, 10**9) == (
            [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2), DimPair(3, 1)], [])
        assert asked == [(1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1), (6, 1)]


class TestWeylBruteForce:
    def test_heisenberg_lambda_one(self):
        assert weyl_density_bruteforce((1, 1), 1.0) == pytest.approx(1 / 32, rel=1e-7)

    def test_matches_weyl_constant(self):
        for pair in ((1, 1), (2, 2), (3, 1)):
            w = weyl_interval(pair).mid
            s = sum(pair)
            for lam in (0.5, 1.0, 2.0):
                got = weyl_density_bruteforce(pair, lam) / lam**s
                assert got == pytest.approx(w, rel=1e-7), (pair, lam)

    def test_homogeneity(self):
        for pair in ((1, 1), (2, 2), (3, 1)):
            s = sum(pair)
            ratios = [
                weyl_density_bruteforce(pair, lam) / lam**s for lam in (0.5, 1.0, 2.0, 8.0)
            ]
            spread = (max(ratios) - min(ratios)) / ratios[0]
            assert spread <= 1e-9

    def test_bad_lambda(self):
        for lam in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                weyl_density_bruteforce((1, 1), lam)

    @pytest.mark.parametrize("pair", [(1, 1), (2, 2), (3, 1)])
    def test_bit_identical_to_the_shell_loop(self, pair):
        # the (pair, lambda) calls of check_consistency
        for lam in (0.5, 1.0, 2.0, 8.0):
            got = weyl_density_bruteforce(pair, lam)
            assert got.hex() == _bruteforce_reference(pair, lam).hex(), lam


def _log_gamma_bar_reference(n: int, m: int) -> float:
    """log_gamma_bar as it was built: each lgamma argument a Fraction half-integer
    converted by float(), the reference for its int / int form."""
    s = n + m
    return (
        (m - n - 1) * math.log(2)
        + math.log(s)
        - s * math.log(s - 1)
        + math.lgamma(float(Fraction(m, 2)))
        + math.lgamma(float(Fraction(2 * n + m)))
        - math.lgamma(float(Fraction(m, 2) + n))
    )


def _bruteforce_reference(pair, lam) -> float:
    """weyl_density_bruteforce as one loop over the shells, each term and
    count computed in place: the reference for its hoisted form."""
    p = as_pair(pair)
    s = p.n + p.m
    kmin = _min_terms(p.n)
    total = comp = partial = 0.0
    K = 0
    while True:
        term = _summand(p.n, p.m, K)
        if K >= kmin and term <= 1e-9 * partial:
            break
        shell = math.comb(K + p.n - 1, K) * (lam / (2 * K + p.n)) ** s / s
        y = shell - comp
        t = total + y
        comp = (t - total) - y
        total = t
        partial += term
        K += 1
    remainder = _integral_remainder(p, K) + term / 2
    total += lam**s * remainder / s
    return _weyl_prefactor(p) * s * total


_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


class TestEnclosure:
    @given(_FINITE, _FINITE)
    def test_radius_covers_the_ends_exactly(self, a, b):
        enc = Enclosure(min(a, b), max(a, b))
        mid, radius = Fraction(enc.mid), Fraction(enc.radius)
        assert enc.lo <= enc.mid <= enc.hi
        assert mid - radius <= Fraction(enc.lo) and Fraction(enc.hi) <= mid + radius


def _mp_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


#: every cell of the 30 x 30 tables, plus the largest n the series serves
_ORACLE_PAIRS = list(itertools.product(range(1, 31), range(1, 31))) + [(139, 1)]


class TestEnclosuresContainOracle:
    """The enclosures hold 50-digit mpmath values built from the defining
    formulas (gamma functions, pi powers, roots), with c(n, m) from the
    Hurwitz-zeta identity."""

    def test_sobolev(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for n, m in _ORACLE_PAIRS:
                s, h = n + m, mpmath.mpf(m) / 2
                want = (mpmath.power(4, mpmath.mpf(n) / s) * n * (s - 1)
                        * mpmath.power(mpmath.pi, (n + h) / s)
                        * mpmath.power(mpmath.gamma(n + h) / mpmath.gamma(2 * n + m),
                                       mpmath.mpf(1) / s))
                low, high = sobolev_interval((n, m))
                assert low <= _mp_fraction(want) <= high, (n, m)

    def test_weyl_and_gamma_tilde(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for n, m in _ORACLE_PAIRS:
                s, c = n + m, _hurwitz_oracle(n, m)
                sphere = 2 * mpmath.power(mpmath.pi, mpmath.mpf(m) / 2) / mpmath.gamma(
                    mpmath.mpf(m) / 2)
                want = sphere / mpmath.power(2 * mpmath.pi, s) / s * c.numerator / c.denominator
                low, high = weyl_interval((n, m))
                assert low <= _mp_fraction(want) <= high, (n, m)
                # gamma_tilde is the exact gamma_bar_exact / n^s over c
                low, high = gamma_tilde_interval((n, m))
                assert low <= gamma_bar_exact((n, m)) / n**s / c <= high, (n, m)
