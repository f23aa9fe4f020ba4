"""Monotonicity suite: the quotient functions and the grid reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from pleijel import monotonicity
from pleijel.constants import gamma_bar_exact
from pleijel.monotonicity import _n_quotient, _pi_product, inequality_suite, psi
from pleijel.constants import gamma_tilde_interval
from pleijel.oracles import _summand
from pleijel.series import c_series
from test_series import _mid


def term_ratio(pair, k: float) -> float:
    """The k-th series term at (n, m) over the k-th at (n-1, m), as the
    module docstring writes it: 1/(n-1) (k+n-1)/(2k+n) (1 - 1/(2k+n))^(n+m-1)."""
    n, m = pair
    d = 2 * k + n
    return (k + n - 1) / ((n - 1) * d) * (1 - 1 / d) ** (n + m - 1)


def phi_quotient(pair) -> float:
    """phi(n, m) as the direct quotient gamma_tilde(n, m)/gamma_tilde(n-1, m)."""
    n, m = pair
    return gamma_tilde_interval((n, m)).mid / gamma_tilde_interval((n - 1, m)).mid


def phi_closed_form(pair) -> float:
    """phi(n, m) by its closed form: the rational prefactor (n-1)^(s-1)/n^s X(n, m),
    s = n + m, times c(n-1, m)/c(n, m).  X is looked up when called."""
    n, m = pair
    prefactor = Fraction((n - 1) ** (n + m - 1), n ** (n + m)) * monotonicity._n_quotient(n, m)
    return float(prefactor) * _mid(c_series((n - 1, m))) / _mid(c_series(pair))


class TestPhi:
    def test_heisenberg_step_is_exactly_nine_sixteenths(self):
        # gamma_tilde(2,1)/gamma_tilde(1,1) = (18/pi^2)/(32/pi^2) = 9/16
        assert phi_quotient((2, 1)) == pytest.approx(9 / 16, rel=1e-8)
        assert phi_closed_form((2, 1)) == pytest.approx(9 / 16, rel=1e-8)

    def test_reference_cell_quotient(self):
        # quotient of the printed 4-decimal cells, so only ~4 digits agree
        assert phi_quotient((4, 2)) == pytest.approx(0.4120 / 0.7141, abs=5e-4)

    def test_below_one_on_scan(self):
        for n in range(2, 9):
            for m in range(1, 9):
                assert phi_quotient((n, m)) < 1
                assert phi_closed_form((n, m)) < 1

    def test_closed_form_matches_quotient(self):
        for pair in ((2, 1), (3, 3), (5, 2), (9, 7)):
            assert phi_closed_form(pair) == pytest.approx(phi_quotient(pair), rel=1e-8)


class TestTermRatio:
    def test_k_zero_value(self):
        assert term_ratio((2, 1), 0) == pytest.approx(1 / 8, rel=1e-15)

    def test_limit(self):
        # (1/(n-1)) * 1/2 as k -> infinity
        assert term_ratio((2, 1), 10**7) == pytest.approx(0.5, abs=1e-6)
        assert term_ratio((5, 3), 10**7) == pytest.approx(1 / 8, abs=1e-6)

    def test_minimum_at_zero(self):
        for n in range(2, 10):
            for m in range(1, 10):
                r0 = term_ratio((n, m), 0)
                assert all(term_ratio((n, m), k) >= r0 for k in (1, 2, 5, 50, 1000, 10**4))

    def test_equals_series_term_quotient(self):
        for n, m, k in ((2, 1, 0), (3, 2, 4), (6, 5, 17)):
            direct = _summand(n, m, k) / _summand(n - 1, m, k)
            assert term_ratio((n, m), k) == pytest.approx(direct, rel=1e-12)

    def test_log_derivative_is_the_exact_link(self):
        # the suite proves d/dd log term_ratio = ((m+1)d + (n-2)(n+m)) / (d(d-1)(d+n-2))
        # with d = 2k + n; a central difference of the written-out ratio must agree
        h = 1e-4
        for n, m, k in ((2, 1, 0.5), (5, 3, 2.0), (12, 12, 0.25), (3, 7, 40.0)):
            d = 2 * k + n
            exact = ((m + 1) * d + (n - 2) * (n + m)) / (d * (d - 1) * (d + n - 2))
            slope = (math.log(term_ratio((n, m), k + h))
                     - math.log(term_ratio((n, m), k - h))) / (4 * h)
            assert slope == pytest.approx(exact, rel=1e-6)


class TestCRatioLowerBound:
    """term_ratio at k = 0, (1/n)(1 - 1/n)^(n+m-1), bounds c(n, m)/c(n-1, m) below."""

    def test_example_2_1(self):
        # bound 1/8; actual ratio (zeta(2)/8)/(pi^2/8) = 1/6
        assert term_ratio((2, 1), 0) == pytest.approx(1 / 8, rel=1e-15)
        actual = (
            _mid(c_series((2, 1), 1e-10 * _summand(2, 1, 0)))
            / _mid(c_series((1, 1), 1e-10 * _summand(1, 1, 0)))
        )
        assert actual == pytest.approx(1 / 6, rel=1e-9)
        assert actual >= term_ratio((2, 1), 0)

    def test_example_3_2(self):
        bound = term_ratio((3, 2), 0)
        assert bound == pytest.approx((1 / 3) * (2 / 3) ** 4, rel=1e-14)
        actual = (
            _mid(c_series((3, 2), 1e-10 * _summand(3, 2, 0)))
            / _mid(c_series((2, 2), 1e-10 * _summand(2, 2, 0)))
        )
        assert actual >= bound

    def test_always_below_one(self):
        for n in range(2, 15):
            for m in range(1, 15):
                assert term_ratio((n, m), 0) < 1


class TestPsi:
    def test_exact_rational_values(self):
        assert psi((1, 2)) == Fraction(9, 16)
        # 0.7258... / 1.8750 as exact rationals
        assert psi((4, 2)) == gamma_bar_exact((4, 2)) / gamma_bar_exact((4, 1))
        assert psi((4, 2)) == Fraction(6048, 15625)
        assert float(psi((4, 2))) == pytest.approx(0.7258 / 1.8750, abs=5e-4)

    def test_below_one_on_scan(self):
        for n in range(1, 13):
            for m in range(2, 13):
                assert psi((n, m)) < 1

    def test_closed_form_agreement(self):
        # psi = 2 X Pi exactly, here off the suite's 12 x 12 grid too
        for n, m in ((1, 2), (2, 5), (7, 3), (12, 12), (13, 2), (20, 9)):
            assert psi((n, m)) == 2 * _n_quotient(n, m) * _pi_product(n, m)

    def test_gamma_bar_n_quotient_off_the_grid(self):
        for n, m in ((2, 1), (13, 1), (20, 9), (7, 30)):
            assert gamma_bar_exact((n, m)) / gamma_bar_exact((n - 1, m)) == _n_quotient(n, m)

    def test_needs_m_at_least_two(self):
        with pytest.raises(ValueError):
            psi((3, 1))


@pytest.fixture(scope="module")
def reports():
    return inequality_suite()


class TestInequalitySuite:
    def test_all_pass_on_default_grid(self, reports):
        failing = [r.name for r in reports if not r.passed]
        assert not failing, f"failing reports: {failing}"

    def test_expected_reports_present(self, reports):
        names = {r.name for r in reports}
        assert {
            "phi_upper_bound",
            "phi_quadratic_nonpositive",
            "term_ratio_increasing",
            "c_ratio_lower_bound_holds",
            "e_lower_bound",
            "gamma_bar_n_quotient",
            "gamma_bar_decreasing_in_n",
            "gamma_bar_m_quotient",
            "psi_square_identity",
            "gamma_bar_decreasing_in_m",
        } == names

    def test_thresholds_are_the_stated_bounds(self, reports):
        by_name = {r.name: r for r in reports}
        e = math.e
        assert by_name["phi_upper_bound"].threshold == pytest.approx(5 / (2 * e))
        assert by_name["e_lower_bound"].threshold == pytest.approx(e, rel=1e-6)
        assert by_name["e_lower_bound"].threshold < e
        for link in ("gamma_bar_decreasing_in_n", "gamma_bar_decreasing_in_m"):
            # 8/(3e) at e's lower bound, above X(2,1) = 3/4 and psi(1,2) = 9/16
            assert by_name[link].threshold == 1
            assert by_name[link].max_observed == pytest.approx(8 / (3 * e), rel=1e-6)

    def test_passed_flag_is_consistent(self, reports):
        for r in reports:
            assert r.passed == (r.max_observed <= r.threshold)

    def test_term_ratio_link_is_exact(self, reports):
        (link,) = [r for r in reports if r.name == "term_ratio_increasing"]
        assert link.passed and link.max_observed == -4 and link.threshold == 0
        assert link.domain_scanned == "n >= 2, m >= 1, real k >= 0"

    @pytest.mark.parametrize("name, failing", [
        ("_n_quotient", {"gamma_bar_n_quotient", "gamma_bar_m_quotient"}),
        ("_pi_product", {"gamma_bar_m_quotient"}),
    ], ids=["X", "Pi"])
    def test_quotient_identities_are_compared_exactly(self, monkeypatch, name, failing):
        # X or Pi off by one part in 2^40 fails each identity that uses it.  X is
        # also phi's closed-form prefactor over (n-1)^(s-1)/n^s, so a prefactor
        # off by as much moves phi_closed_form and fails gamma_bar_n_quotient
        exact = getattr(monotonicity, name)
        phi = phi_closed_form((3, 2))
        monkeypatch.setattr(monotonicity, name,
                            lambda n, m: exact(n, m) * (1 + Fraction(1, 2**40)))
        assert {r.name for r in inequality_suite() if not r.passed} == failing
        assert (phi_closed_form((3, 2)) != phi) == (name == "_n_quotient")

    def test_e_lower_bound_is_compared_exactly(self, monkeypatch):
        monkeypatch.setattr(monotonicity, "_E_LO",
                            monotonicity._E_LO * (1 + Fraction(1, 2**40)))
        assert {r.name for r in inequality_suite() if not r.passed} == {"e_lower_bound"}

    def test_e_lower_bound_is_below_e(self):
        from pleijel.monotonicity import _E_LO

        assert Fraction(8, 3) < _E_LO < Fraction(math.e)

    def test_e_upper_bound_exceeds_e(self):
        from pleijel.monotonicity import _E_HI

        assert _E_HI > sum(Fraction(1, math.factorial(k)) for k in range(40))
