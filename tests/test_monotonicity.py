"""Monotonicity suite: the quotient functions and the grid reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from pleijel.constants import gamma_bar_exact, gamma_tilde
from pleijel.monotonicity import (
    inequality_suite,
    phi_closed_form,
    psi,
    psi_closed_form,
    term_ratio,
)
from pleijel.series import c_series, series_term


def phi_quotient(pair) -> float:
    """phi(n, m) as the direct quotient gamma_tilde(n, m)/gamma_tilde(n-1, m)."""
    n, m = pair
    return gamma_tilde((n, m), 1e-9) / gamma_tilde((n - 1, m), 1e-9)


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

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            phi_closed_form((1, 1))


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
            direct = series_term((n, m), k) / series_term((n - 1, m), k)
            assert term_ratio((n, m), k) == pytest.approx(direct, rel=1e-12)

    def test_log_derivative_is_the_exact_link(self):
        # the suite proves d/dd log term_ratio = ((m+1)d + (n-2)(n+m)) / (d(d-1)(d+n-2))
        # with d = 2k + n; a central difference of the public function must agree
        h = 1e-4
        for n, m, k in ((2, 1, 0.5), (5, 3, 2.0), (12, 12, 0.25), (3, 7, 40.0)):
            d = 2 * k + n
            exact = ((m + 1) * d + (n - 2) * (n + m)) / (d * (d - 1) * (d + n - 2))
            slope = (math.log(term_ratio((n, m), k + h))
                     - math.log(term_ratio((n, m), k - h))) / (4 * h)
            assert slope == pytest.approx(exact, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            term_ratio((1, 1), 0)
        with pytest.raises(ValueError):
            term_ratio((2, 1), -1)


class TestCRatioLowerBound:
    """term_ratio at k = 0, (1/n)(1 - 1/n)^(n+m-1), bounds c(n, m)/c(n-1, m) below."""

    def test_example_2_1(self):
        # bound 1/8; actual ratio (zeta(2)/8)/(pi^2/8) = 1/6
        assert term_ratio((2, 1), 0) == pytest.approx(1 / 8, rel=1e-15)
        actual = (
            c_series((2, 1), 1e-10 * series_term((2, 1), 0)).midpoint
            / c_series((1, 1), 1e-10 * series_term((1, 1), 0)).midpoint
        )
        assert actual == pytest.approx(1 / 6, rel=1e-9)
        assert actual >= term_ratio((2, 1), 0)

    def test_example_3_2(self):
        bound = term_ratio((3, 2), 0)
        assert bound == pytest.approx((1 / 3) * (2 / 3) ** 4, rel=1e-14)
        actual = (
            c_series((3, 2), 1e-10 * series_term((3, 2), 0)).midpoint
            / c_series((2, 2), 1e-10 * series_term((2, 2), 0)).midpoint
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
        for pair in ((1, 2), (2, 5), (7, 3), (12, 12)):
            assert psi_closed_form(pair) == pytest.approx(float(psi(pair)), rel=1e-12)

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
            "phi_closed_form_agreement",
            "phi_quadratic_nonpositive",
            "term_ratio_increasing",
            "c_ratio_lower_bound_holds",
            "psi_heisenberg_bound",
            "psi_squared_bound",
            "psi_squared_wendel_chain",
            "psi_closed_form_agreement",
            "gamma_tilde_decreasing_in_n",
            "gamma_bar_decreasing_in_m",
            "gamma_tilde_decreasing_in_m_empirical",
            "combination_chain",
        } <= names

    def test_thresholds_are_the_stated_bounds(self, reports):
        by_name = {r.name: r for r in reports}
        e = math.e
        assert by_name["phi_upper_bound"].threshold == pytest.approx(5 / (2 * e))
        assert by_name["psi_heisenberg_bound"].threshold == pytest.approx(64 / (27 * e))
        assert by_name["psi_squared_bound"].threshold == pytest.approx(20 / (3 * e**2))

    def test_passed_flag_is_consistent(self, reports):
        for r in reports:
            assert r.passed == (r.max_observed <= r.threshold)

    def test_term_ratio_link_is_exact(self, reports):
        (link,) = [r for r in reports if r.name == "term_ratio_increasing"]
        assert link.passed and link.max_observed == -4 and link.threshold == 0
        assert link.domain_scanned == "n >= 2, m >= 1, real k >= 0"

    def test_empirical_scan_is_labelled(self, reports):
        (emp,) = [r for r in reports if r.name == "gamma_tilde_decreasing_in_m_empirical"]
        assert "EMPIRICAL" in emp.note

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            inequality_suite(n_max=1)
