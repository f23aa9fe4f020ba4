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
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pleijel.admissibility import admissible, radon_hurwitz
from pleijel.constants import (
    gamma_bar_exact,
    gamma_tilde_interval,
    weyl_interval,
)
from pleijel.core import (DimPair, Enclosure, InadmissiblePair, PrecisionUnreachable, Refused,
                          as_pair)
from pleijel.exceptional import exceptional_set
from pleijel.htype_algebra import construct
from pleijel.sobolev import sobolev_interval
from pleijel.numerics import _ends, round_half_away
from pleijel.series import c_series
from pleijel import constants, reference
from pleijel.oracles import (
    _integral_remainder,
    _min_terms,
    _weyl_prefactor,
    gamma_tilde_product_form,
    sphere_area,
    weyl_density_bruteforce,
    zeta_interval,
)
from test_cli import _LOG_SCALE
from test_series import _EDGE, _hurwitz_oracle

SOBOLEV_21_REFERENCE = 9.973934966328010133395


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

    def test_underflowing_weyl_is_refused(self):
        # W(139, 1) is below the subnormal range: its enclosure straddles 0, so the
        # product's upper end is infinite and the product form refuses.  W(1, 225) is
        # the first subnormal W of the row n = 1: refused too, where (1, 224) answers.
        # The library's gamma_tilde, built without W, answers at all three
        assert weyl_interval((139, 1)).lo <= 0 < weyl_interval((1, 225)).lo < 2.0**-1022
        for pair in ((139, 1), (1, 225)):
            with pytest.raises(Refused, match=r"needs W's lower end to be a normal float"):
                gamma_tilde_product_form(pair)
            assert gamma_tilde_interval(pair).lo > 0
        product = gamma_tilde_product_form((1, 224))
        assert product.lo <= gamma_tilde_interval((1, 224)).lo and product.hi < math.inf


def _ends_digest(ends) -> str:
    text = "".join(f"{e.lo.hex()} {e.hi.hex()}\n" for e in ends)
    return hashlib.sha256(text.encode()).hexdigest()


def test_derived_enclosures_bit_pinned():
    # every end of the derived enclosures, bit for bit: weyl, gamma_tilde and sobolev
    # on 30 x 30 and on every 4th of the range's edge rows n >= 2 ((1, 10^6) alone
    # takes about a minute), and the product form on 10 x 10
    grid = [(n, m) for n in range(1, 31) for m in range(1, 31)]
    ends = [f(pair) for pair in grid + _EDGE[1::4]
            for f in (weyl_interval, gamma_tilde_interval, sobolev_interval)]
    ends += [gamma_tilde_product_form(pair) for pair in grid if max(pair) <= 10]
    assert _ends_digest(ends) == (
        "03424c65ef52d0aada6584a73625622a939cac84a093026463659868ff13c9d7")


def test_zeta_enclosures_bit_pinned():
    # every end of the zeta oracle at s = 2..40, bit for bit
    assert _ends_digest(map(zeta_interval, range(2, 41))) == (
        "d13c45c4adad7f5e8c5f8e8c8970b02beda028ffed58ff3b298ff035c052e265")


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
        # the first four are the edge of the down-set {gamma_bar >= 1}, as stated in
        # ``monotonicity`` and the README
        assert gamma_bar_exact((7, 1)) == Fraction(737280, 823543)
        assert gamma_bar_exact((4, 2)) == Fraction(2268, 3125)
        assert gamma_bar_exact((2, 3)) == Fraction(15, 16)
        assert gamma_bar_exact((1, 5)) == Fraction(13824, 15625)
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

    def test_dominates_gamma_tilde_strictly(self):
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            assert gamma_tilde_interval((n, m)).hi < gamma_bar_exact((n, m))

    def test_reference_table(self):
        table = reference.corrected(reference.GAMMA_BAR_PRINTED, reference.GAMMA_BAR_ERRATA)
        for (n, m), want in table.items():
            assert round_half_away(gamma_bar_exact((n, m)), 4) == want


class TestExceptionalSet:
    def test_ten_by_ten(self):
        assert exceptional_set(10, 10) == [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2),
                                           DimPair(3, 1)]

    def test_small_boxes(self):
        assert exceptional_set(1, 1) == [DimPair(1, 1)]
        assert exceptional_set(3, 3) == [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2),
                                         DimPair(3, 1)]
        # nothing new appears in row n = 4
        assert exceptional_set(4, 7) == exceptional_set(3, 3)

    def test_no_admissible_interval_straddles_one(self):
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            low, high = gamma_tilde_interval((n, m))
            assert low >= 1.0 or high < 1.0

    def test_every_asked_pair_lies_strictly_on_one_side(self):
        # the 7 admissible pairs of the down-set: the four exceptional, then three safe
        for pair in ((1, 1), (2, 1), (2, 2), (3, 1)):
            assert gamma_tilde_interval(pair).lo >= 1, pair
        for pair in ((4, 1), (5, 1), (6, 1)):
            assert gamma_tilde_interval(pair).hi < 1, pair

    def test_a_straddling_interval_is_refused(self, monkeypatch):
        monkeypatch.setattr(constants, "gamma_tilde_interval",
                            lambda pair: Enclosure(0.99, 1.01))
        with pytest.raises(Refused, match=r"gamma_tilde\(1,1\) .* straddles") as err:
            exceptional_set(10, 10)
        assert not isinstance(err.value, PrecisionUnreachable)

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
        assert exceptional_set(30, 30) == [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2),
                                           DimPair(3, 1)]
        assert asked and all(gamma_bar_exact(pair) >= 1 for pair in asked)

    def test_staircase_equals_a_full_box_scan(self):
        # the reference classifies every admissible pair of 40 x 40 by its certified
        # gamma_tilde, which lies under the exact gamma_bar; each box is a sub-box
        verdict = {}
        for n in range(1, 41):
            for m in range(1, min(40, radon_hurwitz(2 * n) - 1) + 1):
                low, high = gamma_tilde_interval((n, m))
                assert high < gamma_bar_exact((n, m))
                assert low >= 1 or high < 1
                verdict[n, m] = low >= 1
        for n_max, m_max in itertools.product(range(1, 41), repeat=2):
            box = [p for p in sorted(verdict) if p[0] <= n_max and p[1] <= m_max]
            assert exceptional_set(n_max, m_max) == [p for p in box if verdict[p]], (n_max, m_max)

    def test_any_box_asks_the_series_inside_the_down_set_only(self, monkeypatch):
        # the admissible pairs of the 11-pair down-set {gamma_bar >= 1}, and no others
        asked = []
        monkeypatch.setattr(constants, "gamma_tilde_interval",
                            lambda pair: asked.append(pair) or gamma_tilde_interval(pair))
        assert exceptional_set(10**9, 10**9) == [DimPair(1, 1), DimPair(2, 1), DimPair(2, 2),
                                                 DimPair(3, 1)]
        assert asked == [(1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1), (6, 1)]


class TestWeylBruteForce:
    def test_heisenberg_lambda_one(self):
        assert weyl_density_bruteforce((1, 1)) == pytest.approx(1 / 32, rel=1e-7)

    def test_matches_weyl_constant(self):
        for pair in ((1, 1), (2, 2), (3, 1)):
            assert weyl_density_bruteforce(pair) == pytest.approx(
                weyl_interval(pair).mid, rel=1e-7), pair

    def test_counts_stay_exact(self):
        # (4, 1) stops at K = 42,159, where C(K+3, 3) < 2^44; at (5, 1) a count
        # reaches 2^53 before the stop, so the pair is refused
        assert weyl_density_bruteforce((4, 1)) == pytest.approx(
            weyl_interval((4, 1)).mid, rel=1e-7)
        with pytest.raises(Refused, match="needs a count of 2\\^53"):
            weyl_density_bruteforce((5, 1))

    @pytest.mark.parametrize("pair", [(1, 1), (2, 2), (3, 1)])
    def test_bit_identical_to_the_shell_loop(self, pair):
        # the pairs of check_consistency
        assert weyl_density_bruteforce(pair).hex() == _bruteforce_reference(pair).hex()


def _bruteforce_reference(pair) -> float:
    """weyl_density_bruteforce as one loop over the shells, each count
    C(K+n-1, K) by ``math.comb`` times its power, with the same stop and one
    ``math.fsum``: the reference for its stream form."""
    p = as_pair(pair)
    s = p.n + p.m
    kmin = _min_terms(p.n)
    shells, partial = [], 0.0
    while True:
        K = len(shells)
        shell = math.comb(K + p.n - 1, K) * (2 * K + p.n) ** -s
        if K >= kmin and shell <= 1e-9 * partial:
            break
        shells.append(shell)
        partial += shell
    total = math.fsum(shells) + (_integral_remainder(p, K) + shell / 2)
    return _weyl_prefactor(p) * total


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


def _ordered(enc: Enclosure) -> bool:
    return enc.lo <= enc.hi


#: each public call at a pair, with what its answer must satisfy
_ANSWERS = [(c_series, lambda sv: sv.value <= sv.upper), (weyl_interval, _ordered),
            (gamma_tilde_interval, _ordered), (sobolev_interval, _ordered),
            (gamma_bar_exact, lambda q: q > 0),
            (construct, lambda s: len(s.family) == s.pair.m),
            (admissible, lambda verdict: isinstance(verdict.admissible, bool))]


class TestLibraryAnswersOrRefuses:
    """Every public constant, and ``construct``, called directly answers or raises its
    typed refusal (``Refused``, or ``InadmissiblePair`` from ``construct``) within 1 s:
    past n + m = 10,000 the exact constants refuse before building an integer, and
    ``construct`` past m * 2n = 2^18 before building a family."""

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(_LOG_SCALE, _LOG_SCALE)
    @example(1, 10**6)
    @example(10**6, 1)
    @example(1, 9999)
    @example(9999, 1)
    @example(5000, 5000)
    @example(2**17, 1)
    @example(2**17 + 1, 1)
    def test_each_call_answers_or_refuses_in_time(self, n, m):
        def in_box(pairs):
            return all(p.n <= n and p.m <= m for p in pairs)

        for call, args, sound in [*((call, [(n, m)], sound) for call, sound in _ANSWERS),
                                  (exceptional_set, [n, m], in_box)]:
            start = time.perf_counter()
            try:
                assert sound(call(*args)), (call.__name__, n, m)
            except Refused:
                pass
            except InadmissiblePair:
                assert call is construct, (call.__name__, n, m)
            assert time.perf_counter() - start < 1.0, (call.__name__, n, m)

    @pytest.mark.parametrize("pair", [(1, 10**6), (10**6, 1), (5000, 5001)])
    def test_exact_constants_refuse_past_the_limit(self, pair):
        for call, name in [(weyl_interval, "weyl"), (gamma_tilde_interval, "gamma_tilde"),
                           (sobolev_interval, "sobolev"), (gamma_bar_exact, "gamma_bar")]:
            start = time.perf_counter()
            with pytest.raises(Refused) as err:
                call(pair)
            assert time.perf_counter() - start < 0.1
            assert str(err.value) == f"{name}({pair[0]},{pair[1]}) needs n + m <= 10000"


def _agrees_with_weyl(pair):
    def sound(density):
        w = weyl_interval(pair).mid
        return 2.0**-1022 <= density < math.inf and abs(density - w) <= 1e-7 * w
    return sound


class TestOraclesAnswerOrRefuse:
    """Every oracle export called directly answers or raises ``Refused`` within 1 s,
    at the argument a pair (n, m) gives it: the product form and the brute-force
    Weyl constant at the pair, zeta at m + 1 (c(1, m)'s zeta), the sphere area
    at m - 1 (the Weyl prefactor's).  Past n + m = 10,000, zeta past s = 10,000, the brute
    force where a count would reach 2^53 and the sphere area past d = 437 refuse
    before their work; the product form refuses where W's lower end is not a
    normal float, and otherwise answers with finite positive ends."""

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(_LOG_SCALE, _LOG_SCALE)
    @example(300, 1)
    @example(10**9, 1)
    @example(1, 10**5)
    @example(1, 10**6)
    @example(1, 9999)
    @example(4, 1)
    @example(5, 1)
    @example(13, 10)
    @example(1, 438)
    def test_each_oracle_answers_or_refuses_in_time(self, n, m):
        calls = [(gamma_tilde_product_form, [(n, m)], lambda g: 0 < g.lo <= g.hi < math.inf),
                 (weyl_density_bruteforce, [(n, m)], _agrees_with_weyl((n, m))),
                 (zeta_interval, [m + 1], lambda z: 1 <= z.hi and z.lo <= z.hi),
                 (sphere_area, [m - 1], lambda area: 2.0**-1022 <= area < math.inf)]
        for call, args, sound in calls:
            start = time.perf_counter()
            try:
                assert sound(call(*args)), (call.__name__, n, m)
            except Refused:
                pass
            assert time.perf_counter() - start < 1.0, (call.__name__, n, m)

    @pytest.mark.parametrize("call, args", [
        (weyl_density_bruteforce, ((300, 1),)),
        (weyl_density_bruteforce, ((10**9, 1),)),
        (weyl_density_bruteforce, ((14, 1),)),
        (weyl_density_bruteforce, ((1, 10**5),)),
        (weyl_density_bruteforce, ((1, 438),)),
        (zeta_interval, (10**5,)),
        (zeta_interval, (10**6,)),
        (sphere_area, (438,)),
        (sphere_area, (10**400,)),
        *((gamma_tilde_product_form, (pair,)) for pair in
          ((1, 300), (2, 300), (139, 1), (1, 438), (1, 1074), (1, 5000), (1, 9999))),
    ])
    def test_refused_before_the_work(self, call, args):
        start = time.perf_counter()
        with pytest.raises(Refused):
            call(*args)
        assert time.perf_counter() - start < 0.1
