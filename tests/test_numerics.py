"""Numeric primitives, and the special functions they rest on, against exact and
classical oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pleijel.constants import log_gamma_bar
from pleijel.numerics import round_half_away
from pleijel.oracles import sphere_area, zeta_interval


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
    """math.lgamma at half-integers: the 1e-14 premise of ``log_gamma_bar``."""

    def test_gamma_one_is_exactly_zero(self):
        assert math.lgamma(1) == 0.0
        assert math.lgamma(2) == 0.0

    def test_half(self):
        assert math.lgamma(1 / 2) == pytest.approx(math.log(math.pi) / 2, rel=1e-15)

    def test_ten(self):
        # Gamma(10) = 9! = 362880 by direct multiplication
        assert math.lgamma(10) == pytest.approx(math.log(362880), rel=1e-15)

    def test_against_exact_closed_forms(self):
        for twice in range(1, 241):
            want = exact_log_gamma(Fraction(twice, 2))
            assert abs(math.lgamma(twice / 2) - want) <= 1e-14 * max(1.0, abs(want))

    @given(st.integers(min_value=1, max_value=100))
    def test_recurrence(self, twice_q):
        # Gamma(q+1) = q Gamma(q) for q in (0, 50]
        q = twice_q / 2
        assert math.exp(math.lgamma(q + 1) - math.lgamma(q)) == pytest.approx(q, rel=1e-12)


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
        assert zeta_interval(2).mid == pytest.approx(math.pi**2 / 6, rel=1e-13)
        assert zeta_interval(4).mid == pytest.approx(math.pi**4 / 90, rel=1e-13)

    def test_apery(self):
        # direct summation with a sub-1e-14 bracket; frozen reference value
        assert zeta_interval(3).mid == pytest.approx(1.2020569031595942854, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_interval(1)
        with pytest.raises(ValueError):
            zeta_interval(0)

    def test_decreasing_to_one(self):
        values = [zeta_interval(s).mid for s in range(2, 20)]
        assert all(a > b > 1 for a, b in zip(values, values[1:]))

    def test_interval_contains_the_true_value(self):
        # even s <= 24 from the Bernoulli closed form, the rest by direct summation
        mpmath = pytest.importorskip("mpmath")
        for s in range(2, 31):
            enc = zeta_interval(s)
            with mpmath.workdps(40):
                assert enc.lo <= mpmath.zeta(s) <= enc.hi, s
            assert enc.hi - enc.lo < 1e-14 * enc.lo, s


def half_away_reference(x: Fraction, decimals: int) -> str:
    """The display rule from its definition: sign(x) floor(|x| 10^d + 1/2), d decimals."""
    digits = str(math.floor(abs(x) * 10**decimals + Fraction(1, 2))).rjust(decimals + 1, "0")
    body = f"{digits[:-decimals]}.{digits[-decimals:]}" if decimals else digits
    return ("-" if x < 0 else "") + body


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
        assert round_half_away(0.125, 2) == "0.13"  # binary64 ties too
        assert round_half_away(-2.5, 0) == "-3"

    def test_float_path(self):
        assert round_half_away(0.72576, 4) == "0.7258"
        assert round_half_away(3.2422778765548087, 4) == "3.2423"

    def test_precision_range(self):
        assert round_half_away(Fraction(1, 3), 8) == "0.33333333"
        with pytest.raises(ValueError):
            round_half_away(1.0, -1)

    def test_floats_follow_the_exact_rational_rule(self):
        # random magnitudes, and k/2^j: exact at j <= d, a tie at j = d + 1, finer beyond
        rng = random.Random(20240601)
        for decimals in range(13):
            values = [rng.choice((-1, 1)) * rng.random() * 10 ** rng.uniform(-15, 15)
                      for _ in range(300)]
            values += [rng.choice((-1, 1)) * rng.randrange(1, 2**40, 2) / 2**j
                       for j in range(decimals + 3) for _ in range(20)]
            for x in values:
                assert round_half_away(x, decimals) == half_away_reference(Fraction(x), decimals), \
                    (x, decimals)

    def test_large_floats_print_their_exact_value(self):
        assert round_half_away(1e30, 4) == f"{int(1e30)}.0000"
        assert round_half_away(-2.0**200, 0) == str(-(2**200))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="cannot round"):
            round_half_away(value, 4)


class TestNumpyIntegers:
    """numpy integers pass the integer checks, as plain ints do."""

    def test_accepted_like_ints(self):
        assert log_gamma_bar((np.int64(3), np.int64(2))) == log_gamma_bar((3, 2))
        assert zeta_interval(np.int64(2)) == zeta_interval(2)
