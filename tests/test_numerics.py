"""Special-function primitives against exact and classical oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pleijel.numerics import (
    as_half_integer,
    binomial,
    gamma_ratio_exact,
    log_gamma,
    round_half_away,
    sphere_area,
    zeta,
    zeta_interval,
)


def exact_log_gamma(q: Fraction) -> float:
    """Independent oracle: closed forms at (half-)integers.

    Gamma(k) = (k-1)! and Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!).
    """
    if q.denominator == 1:
        return math.log(math.factorial(q.numerator - 1))
    k = (q - Fraction(1, 2)).numerator // (q - Fraction(1, 2)).denominator
    assert q == k + Fraction(1, 2)
    ratio = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return math.log(ratio.numerator) - math.log(ratio.denominator) + math.log(math.pi) / 2


class TestLogGamma:
    def test_gamma_one_is_exactly_zero(self):
        assert log_gamma(1) == 0.0
        assert log_gamma(2) == 0.0

    def test_half(self):
        assert log_gamma(Fraction(1, 2)) == pytest.approx(math.log(math.pi) / 2, rel=1e-15)

    def test_ten(self):
        # Gamma(10) = 9! = 362880 by direct multiplication
        assert log_gamma(10) == pytest.approx(math.log(362880), rel=1e-15)

    def test_against_exact_closed_forms(self):
        for twice in range(1, 241):
            q = Fraction(twice, 2)
            want = exact_log_gamma(q)
            assert abs(log_gamma(q) - want) <= 1e-14 * max(1.0, abs(want))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0)
        with pytest.raises(ValueError):
            log_gamma(Fraction(-3, 2))
        with pytest.raises(ValueError):
            log_gamma(0.3)  # not a half-integer

    @given(st.integers(min_value=1, max_value=100))
    def test_recurrence(self, twice_q):
        # Gamma(q+1) = q Gamma(q) for q in (0, 50]
        q = Fraction(twice_q, 2)
        assert math.exp(log_gamma(q + 1) - log_gamma(q)) == pytest.approx(float(q), rel=1e-12)


class TestGammaRatioExact:
    def test_examples(self):
        assert gamma_ratio_exact(3, 1) == 2
        assert gamma_ratio_exact(Fraction(3, 2), Fraction(7, 2)) == Fraction(4, 15)
        assert gamma_ratio_exact(10, 5) == 15120  # 9!/4!

    def test_non_integer_difference_rejected(self):
        with pytest.raises(ValueError, match="unsupported ratio"):
            gamma_ratio_exact(Fraction(3, 2), 2)

    def test_agrees_with_log_gamma(self):
        for twice_b in range(1, 40):
            for diff in range(-12, 13):
                twice_a = twice_b + 2 * diff
                if twice_a < 1 or twice_a > 120 or twice_b > 120:
                    continue
                a, b = Fraction(twice_a, 2), Fraction(twice_b, 2)
                exact = gamma_ratio_exact(a, b)
                via_log = math.exp(log_gamma(a) - log_gamma(b))
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


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(8, 7) == 8
        for k in range(20):
            assert binomial(k, k) == 1  # the n = 1 series row

    def test_above_diagonal_is_zero(self):
        assert binomial(5, 7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_pascal_rule_exhaustive(self):
        for p in range(1, 201):
            for q in range(1, p + 1):
                assert binomial(p, q) == binomial(p - 1, q - 1) + binomial(p - 1, q)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=400))
    def test_symmetry(self, p, q):
        if q <= p:
            assert binomial(p, q) == binomial(p, p - q)


class TestSphereArea:
    def test_low_dimensions(self):
        assert sphere_area(0) == pytest.approx(2.0, rel=1e-14)
        assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-13)
        assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-13)

    def test_defining_identity(self):
        for d in range(0, 51):
            lhs = sphere_area(d) * math.gamma((d + 1) / 2) / (2 * math.pi ** ((d + 1) / 2))
            assert lhs == pytest.approx(1.0, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_area(-1)


class TestZeta:
    def test_classical_identities(self):
        assert zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-13)
        assert zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-13)

    def test_apery(self):
        # direct summation with a sub-1e-14 bracket; frozen reference value
        assert zeta(3) == pytest.approx(1.2020569031595942854, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1)
        with pytest.raises(ValueError):
            zeta(0)

    def test_decreasing_to_one(self):
        values = [zeta(s) for s in range(2, 20)]
        assert all(a > b > 1 for a, b in zip(values, values[1:]))

    def test_interval_contains_the_true_value(self):
        # even s <= 24 from the Bernoulli closed form, the rest by direct summation
        mpmath = pytest.importorskip("mpmath")
        for s in range(2, 31):
            enc = zeta_interval(s)
            with mpmath.workdps(40):
                assert enc.lo <= mpmath.zeta(s) <= enc.hi, s
            assert enc.hi - enc.lo < 1e-14 * enc.lo, s
            assert zeta(s) == enc.mid


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(Fraction(2268, 3125), 4) == "0.7258"  # 0.72576
        assert round_half_away(Fraction(128, 81), 4) == "1.5802"  # 1.58024691...
        assert round_half_away(Fraction(15, 16), 4) == "0.9375"
        assert round_half_away(Fraction(4), 4) == "4.0000"

    def test_exact_ties_go_up(self):
        assert round_half_away(Fraction(5, 10**5), 4) == "0.0001"  # 0.00005
        assert round_half_away(Fraction(12345, 10**5), 4) == "0.1235"
        assert round_half_away(Fraction(-5, 2), 0) == "-3"

    def test_float_path(self):
        assert round_half_away(0.72576, 4) == "0.7258"
        assert round_half_away(3.2422778765548087, 4) == "3.2423"

    def test_precision_range(self):
        assert round_half_away(Fraction(1, 3), 8) == "0.33333333"
        with pytest.raises(ValueError):
            round_half_away(1.0, -1)


class TestHalfIntegerCoercion:
    def test_accepts(self):
        assert as_half_integer(3) == 3
        assert as_half_integer(2.5) == Fraction(5, 2)
        assert as_half_integer(Fraction(7, 2)) == Fraction(7, 2)

    def test_rejects(self):
        with pytest.raises(ValueError):
            as_half_integer(0.2)
        with pytest.raises(TypeError):
            as_half_integer("1/2")


class TestNumpyIntegers:
    """numpy integers pass the numbers.Integral checks, as plain ints do."""

    def test_accepted_like_ints(self):
        assert as_half_integer(np.int64(4)) == 4
        assert type(as_half_integer(np.int64(4))) is Fraction
        assert log_gamma(np.int64(3)) == log_gamma(3)
        assert zeta(np.int64(2)) == zeta(2)
