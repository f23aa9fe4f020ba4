"""Certified series evaluation against independent oracles.

Frozen references below were produced by independent high-precision runs
(50-digit arithmetic, direct term-by-term summation with its own integral
bracket); closed forms used as oracles:

    c(1, m) = (1 - 2^-(m+1)) zeta(m+1)          (C(k, k) = 1, odd denominators)
    c(2, m) = 2^-(m+2) zeta(m+1)                (C(k+1, k) = k+1 cancels)
    c(3, m) = (lambda(m+1) - lambda(m+3)) / 8   (lambda = odd-denominator zeta)
    c(4, m) = (zeta(m+1) - zeta(m+3)) / (6 * 2^(4+m))
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleijel.core import DimPair, Enclosure, PrecisionUnreachable, as_pair
from pleijel.oracles import _integral_remainder, _min_terms, _summand, zeta_interval
from pleijel.series import (
    _BERNOULLI,
    SeriesValue,
    _enclosure,
    _row,
    _shifted_numerator_coeffs,
    _split,
    c_series,
    c_tail_bound,
)

C41_REFERENCE = 0.002930264755922334609148  # 10^7-term summation + bracket; = (zeta(2)-zeta(4))/192
C31_REFERENCE = 0.02737781481649722160101


def _term_block(n: int, m: int, k0: int, k1: int) -> np.ndarray:
    """Vectorised ``_summand`` for k in [k0, k1); same arithmetic as the scalar.

    The direct-summation oracle of these tests; the kernel shares its factors per row.
    """
    k = np.arange(k0, k1, dtype=np.float64)
    d = 2.0 * k + n
    r = d ** (-(m + 1.0))
    for j in range(1, n):
        r *= (k + j) / (j * d)
    return r


#: the range's edge: (1, 10^6) and, for each n, the largest m with (n+m) log2 n <= 1000
_EDGE = [(1, 10**6)] + [(n, math.floor(1000 / math.log2(n)) - n) for n in range(2, 131)]


def odd_zeta(s: int) -> float:
    return (1 - 2.0 ** (-s)) * zeta_interval(s).mid


def _mid(sv: SeriesValue) -> float:
    """The midpoint of the series enclosure [value, upper]."""
    return Enclosure(sv.value, sv.upper).mid


class TestSeriesTerm:
    def test_trivial_values(self):
        assert _summand(1, 1, 0) == 1.0
        assert _summand(1, 1, 1) == pytest.approx(1 / 9, rel=1e-15)
        # C(4, 3) = 4 over (2*3+2)^4 = 4096
        assert _summand(2, 2, 3) == pytest.approx(4 / 4096, rel=1e-14)

    def test_exact_cross_check_path(self):
        # rational arithmetic agrees with the float path through k = 64
        for n, m in itertools.product(range(1, 13), range(1, 13)):
            for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
                exact = Fraction(math.comb(k + n - 1, k), (2 * k + n) ** (n + m))
                approx = _summand(n, m, k)
                assert abs(approx - float(exact)) <= 1e-13 * float(exact)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=5000),
    )
    def test_positive_and_eventually_decreasing(self, n, m, k):
        t = _summand(n, m, k)
        assert t > 0
        if k >= n * n // 2:  # past the peak, terms never increase
            assert _summand(n, m, k + 1) <= t


class TestCSeries:
    def test_bracket_contains_known_sums(self):
        sv = c_series((1, 1), 1e-10)
        truth = math.pi**2 / 8
        assert sv.value <= truth <= sv.value + sv.tail_bound
        assert sv.tail_bound <= 1e-10
        assert _mid(sv) == pytest.approx(truth, abs=1e-10)

        sv = c_series((2, 2), 1e-10)
        truth = zeta_interval(3).mid / 16
        assert sv.value <= truth <= sv.value + sv.tail_bound
        assert _mid(sv) == pytest.approx(truth, abs=1e-10)

    def test_zeta_oracle_equivalence_rows_one_and_two(self):
        for m in range(1, 11):
            target = 1e-10 * _summand(1, m, 0)
            got = _mid(c_series((1, m), target))
            want = odd_zeta(m + 1)
            assert abs(got - want) <= 1e-10 * want

            target = 1e-10 * _summand(2, m, 0)
            got = _mid(c_series((2, m), target))
            want = 2.0 ** (-(m + 2)) * zeta_interval(m + 1).mid
            assert abs(got - want) <= 1e-10 * want

    def test_rows_three_and_four_closed_forms(self):
        for m in range(1, 8):
            want = (odd_zeta(m + 1) - odd_zeta(m + 3)) / 8
            got = _mid(c_series((3, m), 1e-11 * _summand(3, m, 0)))
            assert got == pytest.approx(want, rel=1e-10)
            want = (zeta_interval(m + 1).mid - zeta_interval(m + 3).mid) / (6 * 2.0 ** (4 + m))
            got = _mid(c_series((4, m), 1e-11 * _summand(4, m, 0)))
            assert got == pytest.approx(want, rel=1e-10)

    def test_long_summation_references(self):
        sv = c_series((4, 1), 1e-8)
        assert _mid(sv) == pytest.approx(C41_REFERENCE, abs=1e-8)
        assert sv.value <= C41_REFERENCE <= sv.value + sv.tail_bound
        sv = c_series((3, 1), 1e-9)
        assert sv.value <= C31_REFERENCE <= sv.value + sv.tail_bound

    def test_enclosures_at_different_eps_overlap(self):
        for pair in ((1, 1), (2, 1), (3, 4), (7, 2), (10, 10)):
            scale = _summand(*pair, 0)
            coarse = c_series(pair, 1e-6 * scale)
            fine = c_series(pair, 1e-12 * scale)
            assert coarse.value <= fine.value + fine.tail_bound
            assert fine.value <= coarse.value + coarse.tail_bound
            assert fine.tail_bound <= coarse.tail_bound
        # the enclosure sits at the rounding floor whatever eps is asked
        fine, coarse = c_series((1, 1), 1e-12), c_series((1, 1), 1e-6)
        assert fine.tail_bound == coarse.tail_bound <= 1e-12

    def test_reported_tail_meets_target_and_floor(self):
        for pair in ((1, 1), (2, 3), (5, 1), (12, 12)):
            p = DimPair(*pair)
            sv = c_series(p, 1e-9 * _summand(*p, 0))
            assert sv.tail_bound <= 1e-9 * _summand(*p, 0)
            assert sv.terms_used == _split(p.n)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            c_series((1, 1), 0.0)
        with pytest.raises(ValueError):
            c_series((1, 1), -1e-3)

    def test_precision_unreachable_is_explicit(self):
        with pytest.raises(PrecisionUnreachable) as err:
            c_series((1, 1), 1e-30)
        assert _enclosure(1, 1).tail_bound > 1e-30
        assert err.value.terms_used == _split(1)
        with pytest.raises(PrecisionUnreachable) as err:
            c_series((200, 1))
        assert err.value.terms_used == 0


class TestHurwitzKernel:
    """The head sum plus Euler-Maclaurin Hurwitz-zeta tail behind c_series."""

    def test_overlaps_direct_summation_on_30x30(self):
        # an independent bracket: 4096 summed terms plus the integral
        # bracket [I(K), I(K) + f(K)], widened by 1e-12 for its own rounding
        K = 4096
        for n, m in itertools.product(range(1, 31), range(1, 31)):
            head = float(np.sum(_term_block(n, m, 0, K)))
            lo = (head + _integral_remainder((n, m), K)) * (1 - 1e-12)
            hi = (head + _integral_remainder((n, m), K) + _summand(n, m, K)) * (1 + 1e-12)
            for eps in (1e-8, 1e-12):
                sv = c_series((n, m), eps, relative=True)
                assert sv.tail_bound <= eps * sv.value, (n, m, eps)
                assert sv.value <= hi and lo <= sv.upper, (n, m, eps)

    def test_contains_hurwitz_identity_value(self):
        pytest.importorskip("mpmath")
        for n, m in ((1, 1), (1, 30), (2, 7), (5, 5), (13, 2), (30, 1), (30, 30),
                     (60, 60), (139, 1)):
            sv = c_series((n, m), 1e-12, relative=True)
            assert Fraction(sv.value) <= _hurwitz_oracle(n, m) <= Fraction(sv.upper), (n, m)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=140, max_value=400)),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=-18, max_value=-1).map(lambda e: 10.0**e),
        st.booleans(),
    )
    def test_sound_or_typed_refusal(self, n, m, eps, relative):
        pytest.importorskip("mpmath")
        try:
            sv = c_series((n, m), eps, relative)
        except PrecisionUnreachable as err:
            if (n + m) * math.log2(n) > 1000:
                assert err.terms_used == 0
                return
            floor = _enclosure(n, m)
            assert floor.tail_bound > (eps * floor.value if relative else eps)
            assert err.terms_used == floor.terms_used
            return
        assert (n + m) * math.log2(n) <= 1000
        assert Fraction(sv.value) <= _hurwitz_oracle(n, m) <= Fraction(sv.upper)

    def test_out_of_range_pairs_refused(self):
        # (200, 1) used to overflow, (150, 3) to miss the true c ~ 1.9e-315; the
        # last three raised OverflowError from the range score or the kernel's floats
        for pair in ((200, 1), (150, 3), (10**309, 1), (1, 10**309), (1, 10**307)):
            with pytest.raises(PrecisionUnreachable) as err:
                c_series(pair, 1e-8, relative=True)
            assert err.value.terms_used == 0
            with pytest.raises(PrecisionUnreachable):
                _enclosure(*pair)

    def test_default_eps_never_refuses_an_in_range_pair(self):
        # the library reads every enclosure through c_series(p) at its default and
        # leaves eps to the CLI, so the floor must stay under 1e-8 absolute on the
        # range's edge
        for n, m in _EDGE:
            if n > 1:
                assert (n + m) * math.log2(n) <= 1000 < (n + m + 1) * math.log2(n), n
            c_series((n, m))  # a refusal raises PrecisionUnreachable

    def test_enclosures_bit_pinned(self):
        # every (lo, hi) on the 30 x 30 grid and the range's edge, bit for bit: a
        # change to the kernel that moves any enclosure end by one ulp fails here
        grid = [(n, m) for n in range(1, 31) for m in range(1, 31)]
        digest = hashlib.sha256()
        for pair in grid + _EDGE:
            sv = c_series(pair)
            digest.update(f"{sv.value.hex()} {sv.upper.hex()}\n".encode())
        assert digest.hexdigest() == (
            "2d7d3f44417f9dfcadb16a529eb04ca53aec6b45ed33b20490dd8d06becdecaf")

    def test_relative_width_on_30x30(self):
        # the one-rounding head keeps every enclosure within 1.1e-14 of its value
        for n, m in itertools.product(range(1, 31), range(1, 31)):
            sv = c_series((n, m))
            assert sv.tail_bound <= 1.1e-14 * sv.value, (n, m)

    @pytest.mark.parametrize("n", [*range(1, 31), 31, 47, 64, 89, 101, 128, 130, 139])
    def test_head_factors_are_correctly_rounded(self, n):
        # each head factor is C(k+n-1, n-1) / (2k+n)^(n-1) rounded once, bit for bit
        K, d, r = _row(n)[:3]
        assert K == _split(n) == len(d) == len(r)
        for k, factor in enumerate(r):
            assert d[k] == 2 * k + n
            assert factor == float(Fraction(math.comb(k + n - 1, n - 1), (2 * k + n) ** (n - 1)))

    def test_scaled_tail_coefficients_at_most_one(self):
        # the premise of the module docstring, exactly: b_i = 0 unless r = (n-1-i)/2 is
        # whole, and then |b_i| <= U^(2r) / (24^r r!), since U > 2 n^(3/2); the
        # computed t_i = b_i / U^(n-1-i) are therefore <= 1, the leading one exactly 1
        for n in range(1, 140):  # every n with an in-range pair
            U = _row(n)[3]
            assert U == 2 * _split(n) + n and U * U > 4 * n**3
            for i, b in enumerate(_shifted_numerator_coeffs(n)):
                r, odd = divmod(n - 1 - i, 2)
                assert b == 0 if odd else abs(b) * 24**r * math.factorial(r) <= U ** (2 * r)
            t = _row(n)[4]
            assert t[-1] == 1.0 and max(map(abs, t)) == 1.0, n

    def test_numerator_coefficients_equal_the_one_factor_product(self):
        # the kernel multiplies the factors out in pairs u^2 - c^2; the plain
        # product of the n - 1 factors u + 2j - n must give the same integers
        for n in range(1, 201):
            coeffs = [1]
            for j in range(1, n):
                coeffs = [a * (2 * j - n) + b for a, b in zip([*coeffs, 0], [0, *coeffs])]
            got = _shifted_numerator_coeffs(n)
            assert got == tuple(coeffs) and all(type(b) is int for b in got), n

    def test_pair_forms_share_one_cache_entry(self):
        c_series.cache_clear()
        _enclosure.cache_clear()
        c_series((2, 2))
        c_series(DimPair(2, 2))  # equal to (2, 2), with its hash: a cache hit
        c_series((2, 2), 1e-10, relative=True)
        info = _enclosure.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert c_series.cache_info() == info  # c_series reports the per-pair cache

    def test_pair_validated_before_the_cache(self):
        c_series(DimPair(1, 1))  # a cached (1, 1) must not answer for bad pair forms
        for bad in ((1.0, 1), (True, True)):
            with pytest.raises(TypeError):
                c_series(bad)

    def test_series_value_validated(self):
        assert SeriesValue(1.0, 0.5, 3) == (1.0, 0.5, 3)
        for tail_bound in (-1, -1e-300):
            with pytest.raises(ValueError):
                SeriesValue(1.0, tail_bound=tail_bound, terms_used=0)
        with pytest.raises(ValueError):
            SeriesValue(1.0, 0.5, 3)._replace(tail_bound=-1)

    def test_bernoulli_table(self):
        # B_j from the recurrence sum_{k<=j} C(j+1, k) B_k = 0; the kernel's
        # Euler-Maclaurin corrections read this table
        B = [Fraction(1)]
        for j in range(1, 2 * len(_BERNOULLI) + 1):
            B.append(-sum(math.comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
        assert [Fraction(*b) for b in _BERNOULLI] == B[2::2]


@lru_cache(maxsize=None)
def _hurwitz_oracle(n: int, m: int) -> Fraction:
    """c(n, m) = 2^(1-n)/(n-1)! sum_i b_i 2^(-s_i) zeta(s_i, n/2), s_i = n+m-i, in mpmath.

    b_i are the coefficients of prod_{j=1}^{n-1} (u + 2j - n), built here
    independently of the package.  They alternate in sign and cancel by at
    most (n-1) log10(2n) digits; 30 more digits leave the value far inside
    any binary64 enclosure.
    """
    import mpmath

    b = [1]
    for j in range(1, n):
        b = [(2 * j - n) * lo + hi for lo, hi in zip(b + [0], [0] + b)]
    with mpmath.workdps(_oracle_digits(n)):
        total = mpmath.fsum(bi * mpmath.ldexp(_hurwitz_zeta(n + m - i, n), -(n + m - i))
                            for i, bi in enumerate(b) if bi)
        man, exp = (mpmath.ldexp(total, 1 - n) / mpmath.factorial(n - 1)).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _oracle_digits(n: int) -> int:
    return 30 + math.ceil((n - 1) * math.log10(2 * n))


@lru_cache(maxsize=None)
def _hurwitz_zeta(s: int, n: int):
    """zeta(s, n/2) at the working precision of row n (shared by every m)."""
    import mpmath

    with mpmath.workdps(_oracle_digits(n)):
        return mpmath.zeta(s, mpmath.mpf(n) / 2)


class TestTailBound:
    def test_quoted_examples(self):
        # (1,1), K = 1000: bound 999^-1/4, true remainder just below it
        bound = c_tail_bound((1, 1), 1000)
        assert bound == pytest.approx(2.503e-4, rel=1e-3)
        remainder = _true_remainder_upper((1, 1), 1000)
        assert remainder <= bound
        # (2,3), K = 100: bound ~2.148e-8 dominates
        bound = c_tail_bound((2, 3), 100)
        assert bound == pytest.approx(2.148e-8, rel=1e-3)
        assert _true_remainder_upper((2, 3), 100) <= bound

    def test_strictly_decreasing_in_K(self):
        for pair in ((1, 1), (2, 5), (6, 2)):
            bounds = [c_tail_bound(pair, K) for K in range(10, 200, 7)]
            assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_validity_threshold(self):
        with pytest.raises(ValueError):
            c_tail_bound((1, 1), 1)
        with pytest.raises(ValueError):
            c_tail_bound((5, 1), 3)  # needs K >= n - 1 = 4
        assert c_tail_bound((5, 1), 4) > 0

    def test_rounds_the_exact_rational_up(self):
        # (K-1)^-m / ((n-1)! 2^(m+1) m) correctly rounded, then one ulp up: at least
        # the exact bound.  A float power over an int fell below it at about half
        # these points (at (3, 1), K = 52, for one) and overflowed at (200, 1)
        points = [((n, m), K) for n in range(1, 40) for m in range(1, 40)
                  for K in sorted({max(n - 1, 2), 7, 52, 1000}) if K >= max(n - 1, 2)]
        for (n, m), K in [*points, ((200, 1), 300)]:
            exact = Fraction(1, (K - 1) ** m * math.factorial(n - 1) * 2 ** (m + 1) * m)
            bound = c_tail_bound((n, m), K)
            assert Fraction(bound) >= exact, (n, m, K)
            assert bound == math.nextafter(float(exact), math.inf), (n, m, K)

    def test_dominates_true_remainder_on_grid(self):
        for n, m in [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 1), (5, 5)]:
            for K in (max(n - 1, 2), 10, 50, 250):
                if K < max(n - 1, 2):
                    continue
                assert c_tail_bound((n, m), K) >= _true_remainder_upper((n, m), K)


def _true_remainder_upper(pair, K: int, extra: int = 10**6) -> float:
    """Certified upper bound on sum_{k >= K}: 10^6 explicit terms plus the
    summation's own integral bracket at the far end (vectorised)."""
    n, m = DimPair(*pair).n, DimPair(*pair).m
    far = max(K + extra, _min_terms(n))
    ks = np.arange(K, far, dtype=np.float64)
    d = 2.0 * ks + n
    vals = d ** (-(m + 1.0))
    for j in range(1, n):
        vals *= (ks + j) / (j * d)
    explicit = float(np.sum(vals))
    return explicit + _integral_remainder((n, m), far) + _summand(n, m, far)


def _shell_count(n: int, K: int) -> int:
    """C(K+n-1, K): the multi-indices in N_0^n with |k| = K (stars and bars),
    as ``weyl_density_bruteforce`` counts each shell."""
    return math.comb(K + n - 1, K)


class TestMultiindexCount:
    def test_examples(self):
        assert all(_shell_count(1, K) == 1 for K in range(20))
        assert _shell_count(3, 2) == 6  # (2,0,0)x3 and (1,1,0)x3
        assert _shell_count(2, 7) == 8  # pairs (a, 7-a)

    def test_explicit_enumeration(self):
        # multi-indices with |k| = K correspond to multisets of K slots
        # from n positions; generate and count them exhaustively
        for n in range(1, 6):
            for K in range(0, 13):
                count = sum(1 for _ in itertools.combinations_with_replacement(range(n), K))
                assert _shell_count(n, K) == count

    def test_brute_force_tuples_small(self):
        for n in range(1, 4):
            for K in range(0, 7):
                count = sum(
                    1
                    for tup in itertools.product(range(K + 1), repeat=n)
                    if sum(tup) == K
                )
                assert _shell_count(n, K) == count


class TestDimPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            DimPair(0, 1)
        with pytest.raises(ValueError):
            DimPair(1, 0)
        with pytest.raises(TypeError):
            DimPair(1.5, 1)
        with pytest.raises(ValueError):
            DimPair(1, 1)._replace(n=0)
        # _replace builds through _make, which validates as the constructor does
        with pytest.raises(TypeError):
            DimPair(2, 1)._replace(n=True)
        with pytest.raises(ValueError):
            DimPair(2, 1)._replace(m=0)

    def test_bools_rejected(self):
        # bool is an int subclass: (True, True) would print as (True,True)
        # and share the cache entry of (1, 1)
        for n, m in ((True, True), (True, 1), (1, False)):
            with pytest.raises(TypeError):
                DimPair(n, m)

    def test_as_pair_rejects_non_integers(self):
        # a float is not truncated to an int, nor a string or bool coerced
        for pair in ((1.9, 1), (2, 1.0), ("3", "4"), (True, True), (2, False)):
            with pytest.raises(TypeError):
                as_pair(pair)
        with pytest.raises(TypeError):
            c_series((1.9, 1))

    def test_numpy_integers_coerced(self):
        pair = as_pair((np.int64(2), np.int64(1)))
        assert pair == DimPair(2, 1)
        assert type(pair.n) is int and type(pair.m) is int

    def test_a_tuple_with_order_str_and_hash(self):
        assert sorted([DimPair(2, 1), DimPair(1, 3), DimPair(1, 1)]) == [
            DimPair(1, 1), DimPair(1, 3), DimPair(2, 1)]
        assert str(DimPair(2, 1)) == f"{DimPair(2, 1)}" == "(2,1)"
        assert DimPair(2, 1) == (2, 1) and hash(DimPair(2, 1)) == hash((2, 1))
        assert DimPair(n=2, m=1) == DimPair(2, 1) != DimPair(1, 2)
