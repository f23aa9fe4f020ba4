"""Acceptance criteria, one test per criterion, each printing a verdict
line (run with `pytest tests/test_acceptance.py -v -rA` to see them all).

Criterion 1 checks all 200 cells of the two reference tables against the
printed digits, corrected through the two errata recorded in
`pleijel/reference.py`.  Those two printed cells are provably wrong:
gamma_bar(1,3) is the exact rational 128/81 = 1.58024691..., printed
1.5803; gamma_tilde(9,10) is certified 0.000897389..., printed 0.0010.
The criterion pins the errata set to exactly these two cells and proves
each of the two printed digits wrong: the whole computed enclosure lies
outside the interval of values that round to it.  The companion test
pins the certified values of those two cells.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pleijel import reference
from pleijel.admissibility import radon_hurwitz, shading_mask
from pleijel.cells import _compute_cell
from pleijel.constants import gamma_bar_exact, gamma_tilde_interval, weyl_interval
from pleijel.core import DimPair
from pleijel.exceptional import exceptional_set
from pleijel.htype_algebra import construct, group_mul, verify_structure
from pleijel.monotonicity import inequality_suite
from pleijel.numerics import round_half_away
from pleijel.oracles import (
    _integral_remainder,
    _min_terms,
    _summand,
    gamma_tilde_product_form,
    weyl_density_bruteforce,
    zeta_interval,
)
from pleijel.render import TableSpec, render_table
from pleijel.series import c_series, c_tail_bound
from test_series import _mid


def _verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


#: the printed cells known to be wrong; a new erratum must be argued here,
#: not added quietly to `pleijel/reference.py`
_EXPECTED_ERRATA = {"gamma_tilde": {(9, 10)}, "gamma_bar": {(1, 3)}}

#: half a unit in the last printed (4th) decimal
_HALF_ULP = Fraction(1, 2 * 10**4)


def _reference_tables() -> dict[str, tuple[dict, dict]]:
    """(printed, errata) per quantity, read at call time."""
    return {
        "gamma_tilde": (reference.GAMMA_TILDE_PRINTED, reference.GAMMA_TILDE_ERRATA),
        "gamma_bar": (reference.GAMMA_BAR_PRINTED, reference.GAMMA_BAR_ERRATA),
    }


def _enclosure(cell) -> tuple[Fraction, Fraction]:
    """Exact ends of the cell's certified enclosure value +- error_bound."""
    if cell.exact is not None:  # a lowest-terms (numerator, denominator) pair
        exact = Fraction(*cell.exact)
        return exact, exact
    value, err = Fraction(cell.value), Fraction(cell.error_bound)
    return value - err, value + err


def _table_mismatches(eps: float = 1e-8) -> list[str]:
    """Cells whose value (within 5e-5), display, or either enclosure end's
    display differs from the corrected reference."""
    failures = []
    for quantity, (printed, errata) in _reference_tables().items():
        for (n, m), want in sorted(reference.corrected(printed, errata).items()):
            cell = _compute_cell(quantity, n, m, 4, eps)
            ends = tuple(round_half_away(end, 4) for end in _enclosure(cell))
            if (abs(cell.value - float(want)) > 5e-5 or cell.display != want
                    or ends != (want, want)):
                failures.append(
                    f"{quantity}({n},{m}): computed {cell.value:.8f} -> {cell.display} "
                    f"(enclosure ends -> {ends[0]}, {ends[1]}), expected {want}"
                )
    return failures


def _errata_disproofs(eps: float = 1e-8) -> list[str]:
    """Errata whose printed digit is not proven wrong: the corrected display
    must differ from the printed one, and the whole enclosure must lie
    outside the interval of values that round to the printed digit."""
    failures = []
    for quantity, (printed, errata) in _reference_tables().items():
        for (n, m), fixed in sorted(errata.items()):
            low, high = _enclosure(_compute_cell(quantity, n, m, 4, eps))
            digit = Fraction(printed[n, m])
            rounds_to_printed = (digit - _HALF_ULP, digit + _HALF_ULP)  # [lo, hi)
            if fixed == printed[n, m] or not (
                high < rounds_to_printed[0] or low >= rounds_to_printed[1]
            ):
                failures.append(
                    f"{quantity}({n},{m}): printed {printed[n, m]} not disproved by "
                    f"enclosure [{float(low):.12g}, {float(high):.12g}]"
                )
    return failures


def test_criterion_01_table_reproduction():
    """Both 10 x 10 tables reproduce the reference cells, with the printed
    digits corrected through the recorded errata (tolerance 5e-5 before
    rounding; display and both enclosure ends match); runtime < 10 s."""
    t0 = time.perf_counter()
    rendered = render_table(TableSpec(quantity="gamma_tilde"))
    rendered += render_table(TableSpec(quantity="gamma_bar"))
    elapsed = time.perf_counter() - t0
    assert rendered

    errata = {q: set(e) for q, (_, e) in _reference_tables().items()}
    mismatches = _table_mismatches()
    disproofs = _errata_disproofs()
    ok = errata == _EXPECTED_ERRATA and not mismatches and not disproofs and elapsed < 10.0
    _verdict(1, "table reproduction (printed cells, 2 recorded errata corrected)", ok,
             f"runtime {elapsed:.2f}s; {200 - len(mismatches)}/200 cells match")
    assert elapsed < 10.0
    assert errata == _EXPECTED_ERRATA, (
        f"recorded errata {errata} differ from the known {_EXPECTED_ERRATA}; "
        "see the errata in pleijel/reference.py"
    )
    assert not mismatches, (
        "cells differing from the reference tables corrected through the errata "
        "in pleijel/reference.py:\n  " + "\n  ".join(mismatches)
    )
    assert not disproofs, (
        "errata in pleijel/reference.py not proven by the certified enclosure:\n  "
        + "\n  ".join(disproofs)
    )


def test_criterion_01_has_teeth(capsys, monkeypatch):
    """The corrected comparison still catches a dropped or a spurious erratum."""
    # drop the gamma_bar erratum: the computed 1.5802 then mismatches 1.5803
    monkeypatch.setattr(reference, "GAMMA_BAR_ERRATA", {})
    assert any(f.startswith("gamma_bar(1,3): ") for f in _table_mismatches())
    monkeypatch.undo()

    # a spurious erratum, even one repeating the printed digit, is refused
    monkeypatch.setattr(reference, "GAMMA_TILDE_ERRATA",
                        {**reference.GAMMA_TILDE_ERRATA, (1, 1): "3.2423"})
    with pytest.raises(AssertionError, match="recorded errata"):
        test_criterion_01_table_reproduction()
    assert ": FAIL" in capsys.readouterr().out  # the verdict line reports it too


def test_known_reference_errata():
    """The two printed cells that contradict exact/certified arithmetic."""
    # gamma_bar(1,3) is an exact rational; no rounding reproduces 1.5803
    exact = gamma_bar_exact((1, 3))
    assert exact == Fraction(128, 81)
    assert float(exact) == pytest.approx(1.5802469135802468, rel=1e-15)
    # gamma_tilde(9,10): certified interval excludes every value that could
    # round to the printed 0.0010
    low, high = gamma_tilde_interval((9, 10))
    assert high < 0.00095  # anything printing 0.0010 is at least 0.00095
    assert low <= Fraction("0.000897389516577124100793306") <= high  # independent 50-digit value
    _verdict(0, "reference-table errata pinned (2 cells)", True,
             "gamma_bar(1,3) = 128/81 -> 1.5802; gamma_tilde(9,10) -> 0.0009")


def test_criterion_02_exceptional_set():
    """Exactly {(1,1), (2,1), (3,1), (2,2)} over 1 <= n, m <= 10, with
    certified intervals never straddling 1."""
    result = exceptional_set(10, 10)
    want = sorted([DimPair(1, 1), DimPair(2, 1), DimPair(3, 1), DimPair(2, 2)])
    straddlers = []
    for n, m in itertools.product(range(1, 11), range(1, 11)):
        low, high = gamma_tilde_interval((n, m))
        if low < 1.0 <= high:
            straddlers.append((n, m))
    ok = result == want and not straddlers
    _verdict(2, "exceptional set over 10x10", ok,
             "exceptional = " + " ".join(map(str, result)))
    assert result == want
    assert not straddlers


def test_criterion_03_rational_checkpoints():
    ok = (
        gamma_bar_exact((4, 2)) == Fraction(2268, 3125)
        and gamma_bar_exact((2, 3)) == Fraction(15, 16)
    )
    _verdict(3, "rational checkpoints 2268/3125 and 15/16", ok)
    assert gamma_bar_exact((4, 2)) == Fraction(2268, 3125)
    assert gamma_bar_exact((2, 3)) == Fraction(15, 16)


def test_criterion_04_oracle_equivalence():
    """Series vs zeta closed forms at n in {1, 2}, m in 1..10 (<= 1e-10
    relative); gamma_tilde(1,1) = 32/pi^2 within 1e-10."""
    worst = 0.0
    for m in range(1, 11):
        z = zeta_interval(m + 1).mid
        for n, oracle in ((1, (1 - 2.0 ** (-(m + 1))) * z), (2, 2.0 ** (-(m + 2)) * z)):
            value = _mid(c_series((n, m), 1e-10 * _summand(n, m, 0)))
            worst = max(worst, abs(value - oracle) / oracle)
    g11_dev = abs(gamma_tilde_interval((1, 1)).mid - 32 / math.pi**2) / (32 / math.pi**2)
    ok = worst <= 1e-10 and g11_dev <= 1e-10
    _verdict(4, "zeta-oracle equivalence", ok,
             f"worst series dev {worst:.2e}; gamma_tilde(1,1) dev {g11_dev:.2e}")
    assert worst <= 1e-10
    assert g11_dev <= 1e-10


def test_criterion_05_closed_form_vs_product_form():
    worst = 0.0
    disjoint = []
    for n, m in itertools.product(range(1, 11), range(1, 11)):
        g, product = gamma_tilde_interval((n, m)), gamma_tilde_product_form((n, m))
        worst = max(worst, abs(g.mid - product.mid) / g.mid)
        if not (g.lo <= product.hi and product.lo <= g.hi):
            disjoint.append((n, m))
    ok = worst <= 1e-8 and not disjoint
    _verdict(5, "gamma_tilde closed form vs (sobolev)^(-Q/2)/weyl", ok,
             f"worst rel dev {worst:.2e} over n, m <= 10; disjoint enclosures at {disjoint}")
    assert worst <= 1e-8
    assert not disjoint


def test_criterion_06_weyl_bruteforce_oracle():
    worst = 0.0
    for pair in ((1, 1), (2, 2), (3, 1)):
        w = weyl_interval(pair).mid
        worst = max(worst, abs(weyl_density_bruteforce(pair) - w) / w)
    ok = worst <= 1e-7
    _verdict(6, "brute-force spectral density vs Weyl constant", ok, f"worst rel dev {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_07_monotonicity_suite():
    t0 = time.perf_counter()
    reports = inequality_suite()
    elapsed = time.perf_counter() - t0
    failing = [r.name for r in reports if not r.passed]
    ok = not failing and elapsed < 30.0
    _verdict(7, "monotonicity inequality suite", ok,
             f"{len(reports)} reports, runtime {elapsed:.2f}s")
    assert elapsed < 30.0
    assert not failing, f"failing reports: {failing}"


def test_criterion_08_admissibility_pattern():
    mask = shading_mask(10, 10)
    mismatches = [
        (n, m)
        for n, m in itertools.product(range(1, 11), range(1, 11))
        if mask[n - 1][m - 1] != ((n, m) not in reference.INADMISSIBLE_PRINTED)
    ]
    special = radon_hurwitz(2) == 2 and radon_hurwitz(4) == 4 and radon_hurwitz(6) == 2
    ok = not mismatches and special
    _verdict(8, "admissibility shading and quoted rho values", ok)
    assert not mismatches
    assert special  # n = 1, 3 admit only m = 1; n = 2 admits m <= 3


def test_criterion_09_algebra():
    import random
    from fractions import Fraction as F

    for n in range(1, 9):
        for m in range(1, radon_hurwitz(2 * n)):
            verify_structure(construct((n, m)))  # exact integer axioms

    s = construct((2, 3))
    rng = random.Random(99)

    def element():
        from pleijel.htype_algebra import GroupElement

        return GroupElement(
            x=tuple(F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(s.dim_x)),
            t=tuple(F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(s.dim_t)),
        )

    assoc_failures = sum(
        group_mul(s, group_mul(s, a, b), c) != group_mul(s, a, group_mul(s, b, c))
        for a, b, c in (tuple(element() for _ in range(3)) for _ in range(1000))
    )

    s47 = construct((4, 7))
    dense = np.array([P.rows() for P in s47.family], dtype=np.float64)
    np_rng = np.random.default_rng(7)
    worst_j = 0.0
    for _ in range(100):
        z = np_rng.normal(size=7)
        z /= math.sqrt(float(z @ z))
        J = np.tensordot(z, dense, axes=1)  # J_z = sum_j z_j U^(j)
        worst_j = max(worst_j, float(np.max(np.abs(J.T @ J - np.eye(8)))))

    ok = assoc_failures == 0 and worst_j <= 1e-12
    _verdict(9, "matrix axioms, exact group law, J_z orthogonality", ok,
             f"1000 exact triples; J_z dev {worst_j:.2e}")
    assert assoc_failures == 0
    assert worst_j <= 1e-12


def test_criterion_10_tail_bound_soundness():
    grid = [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 1), (5, 5), (8, 2)]
    worst_margin = math.inf
    for n, m in grid:
        for K in (max(n - 1, 2), 20, 100, 400):
            bound = c_tail_bound((n, m), K)
            remainder = _remainder_upper(n, m, K)
            worst_margin = min(worst_margin, bound / remainder)
            assert bound >= remainder, ((n, m), K)
    _verdict(10, "coarse tail bound dominates true remainder", True,
             f"smallest bound/remainder ratio {worst_margin:.3f}")


def _remainder_upper(n: int, m: int, K: int, extra: int = 10**6) -> float:
    """Certified upper bound on the true remainder: explicit terms plus
    the far tail's own integral bracket."""
    far = max(K + extra, _min_terms(n))
    ks = np.arange(K, far, dtype=np.float64)
    d = 2.0 * ks + n
    vals = d ** (-(m + 1.0))
    for j in range(1, n):
        vals *= (ks + j) / (j * d)
    return float(np.sum(vals)) + _integral_remainder((n, m), far) + _summand(n, m, far)
