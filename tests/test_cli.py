"""CLI surface: output contracts, formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pleijel
from pleijel import cells, checks, constants, htype_algebra, reference, render, series, sobolev
from pleijel.admissibility import admissible
from pleijel.argparser import build_parser
from pleijel.cells import _compute_cell
from pleijel.cli import FORMATS, GRAMMAR, QUANTITIES, SUITE_NAMES, _read, main
from pleijel.constants import gamma_bar_exact, gamma_tilde_interval
from pleijel.core import DimPair, Enclosure, InadmissiblePair, PrecisionUnreachable, Refused
from pleijel.render import TableSpec, render_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                        reason="no integer-to-string digit limit")


@contextlib.contextmanager
def _digit_limit(limit: int):
    """The interpreter's integer-to-string digit limit set to ``limit`` (0: none)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def assert_parser_refuses(capsys, *argv):
    # exit 2 and nothing on stdout, with argparse's message naming the verb and argument
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == "", argv
    assert f"pleijel {argv[0]}: error: argument " in captured.err, argv


_VALUE = ("value", "1", "1", "gamma_tilde")
_HUGE = str(10**309)  # past the largest float, 1.8e308


class TestValue:
    def test_gamma_bar_with_exact_rational(self, capsys):
        code, out, _ = run_cli(capsys, "value", "4", "2", "gamma_bar")
        assert code == 0
        assert out.splitlines()[0] == "0.7258 (= 2268/3125)"

    def test_gamma_tilde_plain(self, capsys):
        code, out, _ = run_cli(capsys, "value", "1", "1", "gamma_tilde")
        assert code == 0
        assert out.splitlines()[0] == "3.2423"

    def test_inadmissible_warning_still_computes(self, capsys):
        code, out, _ = run_cli(capsys, "value", "1", "2", "gamma_tilde")
        assert code == 0
        assert out.splitlines()[0] == "2.1392 [inadmissible: no H-type group]"

    def test_error_bound_reported(self, capsys):
        _, out, _ = run_cli(capsys, "value", "2", "2", "weyl", "--precision", "9")
        assert "error_bound=" in out and "admissible=yes" in out

    def test_tight_eps_is_met(self, capsys):
        # eps is relative here: the printed bound is at most eps/2 of the value
        _, out, _ = run_cli(capsys, "value", "30", "1", "gamma_tilde", "--eps", "1e-12")
        fields = dict(f.split("=") for f in out.splitlines()[1].removeprefix("# ").split())
        assert float(fields["error_bound"]) <= 5e-13 * float(fields["value"])

    def test_c_series_quantity(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "1", "1", "c_series", "--precision", "10", "--eps", "1e-12"
        )
        assert code == 0
        assert out.splitlines()[0] == "1.2337005501"  # pi^2/8

    def test_sobolev_quantity(self, capsys):
        code, out, _ = run_cli(capsys, "value", "1", "1", "sobolev", "--precision", "6")
        assert code == 0
        assert out.splitlines()[0] == "3.141593"

    def test_invalid_quantity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["value", "1", "1", "nonsense"])
        assert err.value.code == 2

    def test_invalid_pair_exits_2(self, capsys):
        for argv in (("value", "0", "1", "gamma_tilde"), ("value", "1", "0", "gamma_tilde"),
                     ("htype", "0", "1", os.devnull), ("htype", "1", "0", os.devnull)):
            assert_parser_refuses(capsys, *argv)

    def test_invalid_precision_exits_2(self, capsys):
        for verb in (_VALUE, ("table", "gamma_tilde")):
            for bad in ("0", "13"):
                assert_parser_refuses(capsys, *verb, "--precision", bad)

    def test_invalid_eps_exits_2(self, capsys):
        for verb in (_VALUE, ("table", "gamma_tilde")):
            for bad in ("0", "-1", "nan"):
                assert_parser_refuses(capsys, *verb, "--eps", bad)
        # check and exceptional take no eps: their enclosures are the same for every eps
        for verb in (("check", "all"), ("exceptional",)):
            with pytest.raises(SystemExit) as err:
                main([*verb, "--eps", "1e-8"])
            captured = capsys.readouterr()
            assert err.value.code == 2 and captured.out == "", verb
            assert "unrecognized arguments: --eps 1e-8" in captured.err, verb

    def test_malformed_number_names_its_type(self, capsys):
        with pytest.raises(SystemExit):
            main([*_VALUE, "--eps", "abc"])
        assert "argument --eps: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, refusal", [
        (("value", "1", "1", "gamma_tilde", "--eps", "1e-18"),  # below the rounding floor
         "gamma_tilde(1,1) cannot be certified to relative eps=1e-18 in binary64"),
        (("value", "200", "1", "gamma_tilde"), "c(200,1) is out of range"),  # used to overflow
        (("value", "150", "3", "gamma_tilde"), "c(150,3) is out of range"),  # missed c ~ 1.9e-315
        (("table", "weyl", "--eps", "1e-18"),
         "weyl(1,1) cannot be certified to relative eps=1e-18 in binary64"),
        # pairs past the float range used to end in an OverflowError traceback
        (("value", _HUGE, "1", "gamma_bar"), f"gamma_bar({_HUGE},1) needs n + m <= 10000"),
        (("value", _HUGE, "1", "c_series"), f"c({_HUGE},1) is out of range"),
        (("value", "1", _HUGE, "c_series"), f"c(1,{_HUGE}) is out of range"),
        (("value", "1", _HUGE, "gamma_bar"), f"gamma_bar(1,{_HUGE}) needs n + m <= 10000"),
    ], ids=[f"argv{i}" for i in range(8)])
    def test_unreachable_refused_in_one_line(self, capsys, argv, refusal):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {refusal}") and err.count("\n") == 1

    @pytest.mark.parametrize("quantity", ["gamma_tilde", "sobolev", "weyl", "c_series"])
    def test_eps_is_decided_on_the_printed_width(self, capsys, quantity):
        # eps at the printed width 2 * error_bound (over |value| where eps is
        # relative), rounded up to a float, is met; the float below it is refused
        for n, m in ((1, 1), (1, 30), (2, 7), (4, 1), (7, 3), (13, 2), (30, 1), (30, 30)):
            cell = _compute_cell(quantity, n, m, 4, 1.0)
            width = 2 * Fraction(cell.error_bound)
            if quantity != "c_series":
                width /= abs(Fraction(cell.value))
            eps = float(width)
            if Fraction(eps) < width:
                eps = math.nextafter(eps, math.inf)
            argv = ("value", str(n), str(m), quantity, "--eps")
            code, out, _ = run_cli(capsys, *argv, repr(eps))
            assert code == 0 and f"value={cell.value!r} " in out, (n, m)
            code, out, err = run_cli(capsys, *argv, repr(math.nextafter(eps, 0)))
            assert code == 2 and out == "", (n, m)
            assert err.startswith(f"error: {quantity}({n},{m}) cannot be certified to ")
            assert err.count("\n") == 1

    def test_infinite_eps_bounds_the_width_but_not_an_underflow(self, capsys):
        code, out, _ = run_cli(capsys, "value", "1", "1", "gamma_tilde", "--eps", "inf")
        assert code == 0 and out.startswith("3.2423\n")
        code, out, err = run_cli(capsys, "value", "139", "1", "weyl", "--eps", "inf")
        assert code == 2 and out == "" and err.startswith("error: weyl(139,1) cannot be certified")

    def test_c_series_eps_between_tail_bound_and_printed_width_refused(self, capsys):
        # c(1, 30) has tail_bound 5.218e-15, but value +- error_bound spans 5.33e-15
        code, out, err = run_cli(capsys, "value", "1", "30", "c_series",
                                 "--eps", "5.2180482157382365e-15")
        assert code == 2 and out == ""
        assert err.startswith("error: c_series(1,30) cannot be certified to absolute eps=")

    @pytest.mark.parametrize("pair", [("139", "1"), ("1", "3000")])
    def test_underflow_refused_not_printed_as_zero(self, capsys, pair):
        # weyl underflows binary64 here: [-5e-324, 5e-324] meets no relative eps
        code, out, err = run_cli(capsys, "value", *pair, "weyl")
        assert code == 2 and out == ""
        assert err.startswith(f"error: weyl({pair[0]},{pair[1]}) cannot be certified")
        assert err.count("\n") == 1

    def test_exact_rational_over_the_digit_limit_refused(self, capsys):
        # gamma_bar(2000, 1) = p/q with a 5,055-digit q: str() of it would raise
        code, out, err = run_cli(capsys, "value", "2000", "1", "gamma_bar")
        assert code == 2 and out == ""
        assert err.startswith("error: gamma_bar(2000,1) is exact") and err.count("\n") == 1
        # (1000, 1) has a 2,229-digit q, under the limit: printed in full, as before
        code, out, _ = run_cli(capsys, "value", "1000", "1", "gamma_bar")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "c6cca717828fdaa32101bc2d5a6ca9ae42a20fb1e95f86ec6bcc03d4df5ec0e3")

    def test_exact_rational_refused_before_normalising(self, capsys):
        # past n + m = 10,000 the library's size rule refuses, so the ratio of
        # gamma_bar(1, 100000) (about 5 s to reduce) is never built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "value", "1", "100000", "gamma_bar")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: gamma_bar(1,100000) needs n + m <= 10000\n"

    @pytest.mark.parametrize("pair", [("100000", "1"), ("50000", "1"), ("200000", "1")])
    def test_large_n_refused_from_the_magnitude(self, capsys, pair):
        # n alone is past n + m = 10,000, so no factorial of 2n is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "value", *pair, "gamma_bar")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == f"error: gamma_bar({pair[0]},{pair[1]}) needs n + m <= 10000\n"

    def test_huge_sobolev_refused_at_once(self, capsys):
        # sobolev_interval's integer work grows like (n+m)^1.6: refused before it runs
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "value", "1", "1000000", "sobolev")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: sobolev(1,1000000) needs n + m <= 10000\n"

    @_NEEDS_DIGIT_LIMIT
    @pytest.mark.parametrize("m", ["20000", "1000000"])
    def test_gamma_bar_past_the_limit_refused_with_no_digit_limit(self, capsys, m):
        # with no digit limit to refuse on, the size rule still refuses at once:
        # gamma_bar(1, 10^6) used to build its factorial for over 20 s
        with _digit_limit(0):
            result = run_in_budget(capsys, "value", "1", m, "gamma_bar")
        assert result == (2, "", f"error: gamma_bar(1,{m}) needs n + m <= 10000\n")

    @_NEEDS_DIGIT_LIMIT
    def test_gamma_bar_over_a_lowered_digit_limit_refused(self, capsys):
        # inside n + m <= 10,000, the reduced ratio is refused over the digit limit
        with _digit_limit(640):
            result = run_in_budget(capsys, "value", "5000", "5000", "gamma_bar")
        assert result == (2, "", "error: gamma_bar(5000,5000) is exact, but its numerator or "
                                 "denominator may have more than the 640 digits this "
                                 "interpreter prints\n")

    @pytest.mark.parametrize("quantity", ["weyl", "gamma_tilde"])
    def test_huge_weyl_and_gamma_tilde_refused_at_once(self, capsys, quantity):
        # past n + m = 10,000 the refusal is certain: out of the series' range for
        # n >= 2, an underflow at n = 1; the exact work was 20-60 s at m = 10^6
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "value", "1", "1000000", quantity)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: {quantity}(1,1000000) needs n + m <= 10000\n"

    @pytest.mark.parametrize("pair", [(1, 9999), (2, 9998), (9999, 1)])
    def test_below_the_limit_weyl_and_gamma_tilde_still_refuse_as_before(self, capsys, pair):
        # the kernel's own refusals at n + m = 10,000 are kept
        for quantity in ("weyl", "gamma_tilde"):
            code, out, err = run_cli(capsys, "value", *map(str, pair), quantity)
            assert code == 2 and out == "", quantity
            assert err.startswith("error: ") and "needs n + m" not in err, quantity
            assert err.count("\n") == 1

    def test_sobolev_at_the_limit_still_answers(self, capsys):
        code, out, _ = run_cli(capsys, "value", "9999", "1", "sobolev")
        assert code == 0
        assert out.splitlines()[0] == "85411.7425"


def _csv_cells(out: str) -> dict[tuple[int, int], list[str]]:
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,value,error_bound,admissible"
    cells = {}
    for line in lines[1:]:
        n, m, value, err, adm = line.split(",")
        cells[int(n), int(m)] = [value, err, adm]
    return cells


#: sha256 of the default 10 x 10 tables (4 decimals, eps 1e-8, annotated)
_TABLE_DIGESTS = {
    ("gamma_tilde", "markdown"): "a191fc4b08c2253646d777a4f8840dc666f6357483dc12c7b72ffcc45a205c3e",
    ("gamma_tilde", "latex"): "6420d0f98f47f38b79d8944a120567ca1f93cf569d9e9d93c520975f81be250e",
    ("gamma_bar", "markdown"): "ef1a4755df0956c5fefd819c7a6d49001756d7b0ae1200ed1d1459e79e29a6da",
    ("gamma_bar", "latex"): "edf7692d58c6321da314865bf9552ce8734406f9003a0a55e86a44c8ba793d14",
    ("sobolev", "markdown"): "fd09bcc5134b3c63d83b55f09e21a65a5da529cda3fa3c60733fad8fd634c93e",
    ("sobolev", "latex"): "e674475cca5adaa3fd1bd798df47050a22b47c8f2699e582fa158d91fd7623fb",
    ("weyl", "markdown"): "ad8df82d6032d74b35b9638b8417a8e6bbf57f4945d0112597d7e7f9386037e8",
    ("weyl", "latex"): "ec6493f63bf83b33542e8c033b53acc658ee16bb8b017337085e78340e81c16e",
    ("c_series", "markdown"): "e9026213f2f9ba2b2af53da315abcd358104f91f2b80cff6751524326955119f",
    ("c_series", "latex"): "645d6b2237360881457ccd75273820f04cbf930ed1fe05059f4ef83525678c4d",
}

#: sha256 of the 30 x 30 grid outputs (4 decimals, eps 1e-8, annotated); the json
#: c_series table is the one with a cell, (1, 30), whose enclosure straddles 1.  The
#: tables printing the series' enclosures (json value and error_bound, csv error_bound)
#: were re-pinned when the one-rounding head narrowed them; every display is unchanged
_GRID_DIGESTS = {
    ("gamma_tilde", "json"): "726191aabac8dde7c38064d149dc7d21d03248d63f06abf69c590d41692a04b9",
    ("gamma_bar", "json"): "85411cdbc3c064f0e05a7e2c633bbe9d8e6e683659f454d74a98e60e91441846",
    ("sobolev", "json"): "0ef5cfab0a9a955426d894955191ffedbf255b178ca5caf1afef891a157928d0",
    ("weyl", "json"): "b67449914bda5d584327ef8ad79c230de2e06140cf3312cf11d9a326e6ed6e6e",
    ("c_series", "json"): "2815fde16d2e73d1f588481b2c42554d6703cd159a31009ee5921f981866e147",
    ("gamma_tilde", "csv"): "d6be00b44040717ed8dcd4857ce5a9922e4acc8638106657e5ac19e9f72545b9",
    ("gamma_tilde", "latex"): "0495a4020fb49f2695963fe644e8deff12e2e843c94280be2954e368aa96cf00",
}
#: (re-pinned when each interval end came to be rounded outward, not to nearest)
_EXCEPTIONAL_30_DIGEST = "da7a7eb5b80e11a1632d81bb638161ace6f72c11c8d58cb6475e410bbf87de6e"


def _json_payload(spec: TableSpec) -> dict:
    """The table json.dumps(..., indent=1) would print, built from the cells."""
    cells = [_compute_cell(spec.quantity, n, m, spec.precision, spec.eps)
             for n in range(1, spec.n_max + 1) for m in range(1, spec.m_max + 1)]
    return {
        "quantity": spec.quantity,
        "n_max": spec.n_max,
        "m_max": spec.m_max,
        "precision": spec.precision,
        "eps": spec.eps,
        "cells": [
            {
                "n": c.n,
                "m": c.m,
                "value": c.value,
                "display": c.display,
                "error_bound": c.error_bound,
                "admissible": admissible((c.n, c.m)).admissible,
                "exceeds_one": c.exceeds_one,
                **({"exact": f"{c.exact.numerator}/{c.exact.denominator}"}
                   if c.exact is not None else {}),
            }
            for c in cells
        ],
    }


class TestTable:
    @pytest.mark.parametrize("quantity, module, name", [
        ("gamma_tilde", constants, "gamma_tilde_interval"),
        ("sobolev", sobolev, "sobolev_interval"),
        ("weyl", constants, "weyl_interval"),
        ("c_series", series, "c_series"),
    ])
    def test_each_cell_calls_the_module_attribute(self, capsys, monkeypatch, quantity,
                                                  module, name):
        # the CLI looks its enclosure up when a cell is computed, so a wrapped
        # module attribute (the benchmark's per-layer trace) sees every call
        original, calls = getattr(module, name), []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        code, _, _ = run_cli(capsys, "table", quantity)
        assert code == 0
        assert len(calls) == 100

    def test_gamma_tilde_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gamma_tilde", "--format", "csv")
        assert code == 0
        cells = _csv_cells(out)
        want = reference.corrected(reference.GAMMA_TILDE_PRINTED, reference.GAMMA_TILDE_ERRATA)
        assert len(cells) == 100
        for key, printed in want.items():
            assert cells[key][0] == printed, key

    def test_gamma_bar_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gamma_bar", "--format", "csv")
        assert code == 0
        cells = _csv_cells(out)
        want = reference.corrected(reference.GAMMA_BAR_PRINTED, reference.GAMMA_BAR_ERRATA)
        for key, printed in want.items():
            assert cells[key][0] == printed, key
            assert cells[key][1] == "0.000e+00"  # exact rational

    def test_csv_higher_precision_no_annotations(self, capsys):
        _, out, _ = run_cli(capsys, "table", "gamma_bar", "--format", "csv", "--precision", "8")
        cells = _csv_cells(out)
        assert cells[1, 3][0] == "1.58024691"
        assert cells[1, 3][2] == "false"
        assert cells[2, 2][2] == "true"
        assert not any(ch in out for ch in "*()")

    def test_markdown_annotations(self, capsys):
        _, out, _ = run_cli(capsys, "table", "gamma_tilde")
        assert "| **3.2423** |" in out  # admissible and > 1
        assert "(2.1392)" in out  # inadmissible
        assert "| 0.8662 |" in out  # admissible, below 1: bare
        _, plain, _ = run_cli(capsys, "table", "gamma_tilde", "--no-annotations")
        assert "**" not in plain and "(" not in plain.replace("(4 decimals", "")

    def test_markdown_red_flags_match_reference(self, capsys):
        _, out, _ = run_cli(capsys, "table", "gamma_bar")
        want = reference.corrected(reference.GAMMA_BAR_PRINTED, reference.GAMMA_BAR_ERRATA)
        for (n, m) in reference.RED_PRINTED_GAMMA_BAR:
            assert f"**{want[n, m]}**" in out

    def test_json_round_trip(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "gamma_tilde", "--format", "json",
                             "--n-max", "4", "--m-max", "4")
        _, out2, _ = run_cli(capsys, "table", "gamma_tilde", "--format", "json",
                             "--n-max", "4", "--m-max", "4")
        assert out1 == out2  # byte-identical
        payload = json.loads(out1)
        assert payload["quantity"] == "gamma_tilde"
        assert len(payload["cells"]) == 16
        for cell in payload["cells"]:
            fresh = _compute_cell("gamma_tilde", cell["n"], cell["m"], 4, 1e-8)
            assert cell["value"] == fresh.value  # exact float round trip
            assert cell["display"] == fresh.display
            assert cell["admissible"] == admissible((cell["n"], cell["m"])).admissible

    def test_json_carries_exact_rationals_for_gamma_bar(self, capsys):
        _, out, _ = run_cli(capsys, "table", "gamma_bar", "--format", "json")
        payload = json.loads(out)
        by_key = {(c["n"], c["m"]): c for c in payload["cells"]}
        assert by_key[2, 3]["exact"] == "15/16"
        for (n, m), cell in by_key.items():
            assert Fraction(cell["exact"]) == gamma_bar_exact((n, m)), (n, m)

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_json_error_bounds_meet_eps(self, capsys, quantity):
        eps = 1e-12
        _, out, _ = run_cli(capsys, "table", quantity, "--format", "json",
                            "--n-max", "30", "--m-max", "30", "--eps", str(eps))
        for cell in json.loads(out)["cells"]:
            assert cell["error_bound"] <= eps / 2 * abs(cell["value"]), cell

    def test_latex_format(self, capsys):
        _, out, _ = run_cli(capsys, "table", "gamma_bar", "--format", "latex",
                            "--n-max", "3", "--m-max", "3")
        assert out.startswith("%")
        assert "\\begin{tabular}" in out
        assert "\\cellcolor{gray!50}" in out  # inadmissible shading
        assert "\\textcolor{red}{4.0000}" in out  # admissible > 1

    def test_bounds_validated(self, capsys):
        for args in (["table", "gamma_tilde", "--n-max", "31"],
                     ["table", "gamma_tilde", "--precision", "0"],
                     ["table", "gamma_tilde", "--m-max", "0"],
                     ["exceptional", "--n-max", "0"],
                     ["exceptional", "--m-max", "0"]):
            assert_parser_refuses(capsys, *args)

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_twelve_decimals_print_in_fixed_point(self, quantity):
        # Decimal's str() would print 0E-12 and 1.2E-11 here; error bounds use e
        text = render_table(TableSpec(quantity, n_max=30, m_max=30, fmt="csv", precision=12))
        assert "E" not in text
        for value, _, _ in _csv_cells(text).values():
            whole, point, frac = value.partition(".")
            assert whole.isdigit() and point == "." and len(frac) == 12 and frac.isdigit()

    @pytest.mark.parametrize("quantity", QUANTITIES)
    @pytest.mark.parametrize("fmt", ("markdown", "latex"))
    def test_displayed_bytes_pinned(self, quantity, fmt):
        # a change to the numerics that moves a displayed digit fails here
        text = render_table(TableSpec(quantity, fmt=fmt))
        assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_DIGESTS[quantity, fmt]

    @pytest.mark.parametrize("quantity, fmt", sorted(_GRID_DIGESTS))
    def test_grid_bytes_pinned(self, quantity, fmt):
        text = render_table(TableSpec(quantity, n_max=30, m_max=30, fmt=fmt))
        assert hashlib.sha256(text.encode()).hexdigest() == _GRID_DIGESTS[quantity, fmt]

    @pytest.mark.parametrize("spec", [
        TableSpec("c_series", n_max=30, m_max=30, eps=math.inf),
        TableSpec("gamma_bar", n_max=30, m_max=30, eps=1e-300),
        TableSpec("weyl", n_max=12, m_max=12, precision=12),
        TableSpec("gamma_tilde", annotations=False),
        TableSpec("sobolev", n_max=1, m_max=1),
    ], ids=["eps-inf", "gamma_bar-exact-eps-1e-300", "precision-12", "no-annotations",
            "one-cell"])
    def test_json_is_json_dumps_indent_one(self, spec):
        # the text json.dumps writes, byte for byte: json's own float text (an
        # infinite eps is Infinity, where repr would print inf) and its layout
        text = render_table(spec._replace(fmt="json"))
        assert text == json.dumps(_json_payload(spec), indent=1) + "\n"

    def test_exceeds_one_only_when_certified(self):
        # c(1, 30) is enclosed in [0.999999999999999, 1.0000000000000042]: its
        # midpoint is above 1, but the enclosure does not prove it
        cell = _compute_cell("c_series", 1, 30, 4, 1e-8)
        assert cell.value > 1 and not cell.exceeds_one
        for n, m in ((1, 1), (2, 1), (3, 1)):
            assert _compute_cell("gamma_tilde", n, m, 4, 1e-8).exceeds_one

    def test_json_enclosures_contain_the_known_values(self, capsys):
        # value +- error_bound, as printed, against what the package knows exactly
        from pleijel.numerics import _ends
        from pleijel.oracles import zeta_interval

        def enclosures(quantity, *argv):
            _, out, _ = run_cli(capsys, "table", quantity, "--format", "json", *argv)
            cells = json.loads(out)["cells"]
            return {(c["n"], c["m"]): (Fraction(c["value"]) - Fraction(c["error_bound"]),
                                       Fraction(c["value"]) + Fraction(c["error_bound"]))
                    for c in cells}

        lo, hi = enclosures("weyl", "--n-max", "1", "--m-max", "1")[1, 1]
        assert lo <= Fraction(1, 32) <= hi
        c = enclosures("c_series", "--n-max", "2", "--m-max", "30")
        for m in range(1, 31):
            z = zeta_interval(m + 1)
            for n, scale in ((1, 1 - Fraction(1, 2 ** (m + 1))), (2, Fraction(1, 2 ** (m + 2)))):
                lo, hi = c[n, m]
                assert lo <= scale * Fraction(z.hi) and scale * Fraction(z.lo) <= hi, (n, m)
        lo, hi = enclosures("gamma_tilde", "--n-max", "1", "--m-max", "1")[1, 1]
        exact_lo, exact_hi = _ends(32, 1, -2)  # the ends of 32/pi^2
        assert lo <= Fraction(*exact_hi) and Fraction(*exact_lo) <= hi

    def test_determinism_markdown(self, capsys):
        _, a, _ = run_cli(capsys, "table", "gamma_tilde", "--n-max", "5", "--m-max", "5")
        _, b, _ = run_cli(capsys, "table", "gamma_tilde", "--n-max", "5", "--m-max", "5")
        assert a == b


#: every byte of `check all --no-timestamp` (Python 3.11)
_CHECK_ALL_TEXT = (Path(__file__).parent / "check_all_no_timestamp.txt").read_text(encoding="utf-8")


class TestCheck:
    def test_suite_names_are_the_suites_then_all(self):
        # a literal in the CLI, so that building the parser does not run `checks`
        assert SUITE_NAMES == (*checks.SUITES, "all")

    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "admissibility", "--no-timestamp")
        assert code == 0
        assert out.splitlines()[0] == "PASS admissibility"
        report = json.loads(out.strip().splitlines()[-1])
        assert report["passed"] is True
        assert "timestamp" not in report

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "check", "admissibility")
        report = json.loads(out.strip().splitlines()[-1])
        assert "timestamp" in report

    def test_deterministic_with_no_timestamp(self, capsys):
        _, a, _ = run_cli(capsys, "check", "admissibility", "--no-timestamp")
        _, b, _ = run_cli(capsys, "check", "admissibility", "--no-timestamp")
        assert a == b

    def test_all_suites_bytes_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "check", "all", "--no-timestamp")
        assert code == 0
        assert out == _CHECK_ALL_TEXT

    def test_zeta_rows_compare_enclosures(self, monkeypatch):
        # an oracle shifted by 1e-13 relative no longer overlaps the series enclosure
        from pleijel import checks, oracles
        from pleijel.oracles import zeta_interval

        def shifted(s):
            z = zeta_interval(s)
            return z._replace(lo=z.lo * (1 + 1e-13), hi=z.hi * (1 + 1e-13))

        monkeypatch.setattr(oracles, "zeta_interval", shifted)
        result = checks.check_consistency()
        assert not result.passed
        assert "series/zeta oracle enclosures disjoint at (1,1)" in result.details

    def test_bruteforce_row_sees_a_shifted_weyl_constant(self, monkeypatch):
        # the Weyl constant shifted by 1e-6 relative is 10x past the 1e-7 gate
        from pleijel import checks
        from pleijel.constants import weyl_interval

        def shifted(pair):
            w = weyl_interval(pair)
            return w._replace(lo=w.lo * (1 + 1e-6), hi=w.hi * (1 + 1e-6))

        monkeypatch.setattr(constants, "weyl_interval", shifted)
        result = checks.check_consistency()
        assert not result.passed
        assert any(line.startswith("brute-force Weyl mismatch at (1, 1): rel dev")
                   for line in result.details)

    def test_pi_squared_row_compares_enclosures(self, monkeypatch):
        # gamma_tilde(1,1) shifted by 1e-13 relative no longer meets 32/pi^2
        from pleijel import checks
        from pleijel.constants import gamma_tilde_interval

        def shifted(pair):
            g = gamma_tilde_interval(pair)
            return g._replace(lo=g.lo * (1 + 1e-13), hi=g.hi * (1 + 1e-13))

        monkeypatch.setattr(constants, "gamma_tilde_interval", shifted)
        result = checks.check_consistency()
        assert not result.passed
        assert "gamma_tilde(1,1) enclosure misses 32/pi^2" in result.details

    def test_tables_suite_reports_errata(self, capsys):
        code, out, _ = run_cli(capsys, "check", "tables", "--no-timestamp")
        assert code == 0
        assert "erratum: gamma_bar(1,3)" in out
        assert "erratum: gamma_tilde(9,10)" in out

    # the figure's red cells are compared with the certified exceeds_one of the cell
    # `table` prints, which renders a red cell from it, and the digits with its display
    @pytest.mark.parametrize("quantity, pair, change, failure", [
        ("gamma_tilde", (3, 1), {"exceeds_one": False},
         "red-flag mismatch in gamma_tilde table at (3,1)"),
        ("gamma_bar", (4, 5), {"display": "0.1484"},
         "gamma_bar(4,5): computed 0.1484, reference 0.1483"),
    ], ids=["red-flag", "display"])
    def test_tables_suite_reads_the_printed_cell(self, capsys, monkeypatch, quantity, pair,
                                                 change, failure):
        def changed(*args):
            cell = _compute_cell(*args)
            return cell._replace(**change) if args[:3] == (quantity, *pair) else cell

        monkeypatch.setattr(cells, "_compute_cell", changed)
        code, out, _ = run_cli(capsys, "check", "tables", "--no-timestamp")
        (suite,) = json.loads(out.splitlines()[-1])["suites"]
        assert code == 1 and out.startswith("FAIL tables\n") and not suite["passed"]
        # one failure line past the count and the errata notes
        assert [line for line in suite["details"]
                if not line.startswith(("compared ", "erratum: "))] == [failure]

    def test_failure_exits_1(self, capsys, monkeypatch):
        # drop the gamma_bar erratum: the computed 1.5802 then mismatches
        # the printed 1.5803 and the tables suite must fail
        monkeypatch.setattr(reference, "GAMMA_BAR_ERRATA", {})
        code, out, _ = run_cli(capsys, "check", "tables", "--no-timestamp")
        assert code == 1
        assert "FAIL tables" in out
        assert "gamma_bar(1,3): computed 1.5802, reference 1.5803" in out

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "everything"])
        assert err.value.code == 2


_EXCEPTIONAL_LINE = re.compile(r"  \((\d+),(\d+)\)  gamma_tilde in \[(\d+\.\d{8}), (\d+\.\d{8})\]")


def assert_intervals_contain_enclosures(out) -> int:
    """Each interval `exceptional` printed contains its pair's certified enclosure,
    compared exactly; the number of intervals."""
    lines = out.splitlines()[1:-1]
    for line in lines:
        n, m, lo, hi = _EXCEPTIONAL_LINE.fullmatch(line).groups()
        g = gamma_tilde_interval((int(n), int(m)))
        assert Fraction(lo) <= Fraction(g.lo) and Fraction(g.hi) <= Fraction(hi), line
    return len(lines)


class TestExceptional:
    def test_default_box(self, capsys):
        code, out, _ = run_cli(capsys, "exceptional")
        assert code == 0
        for pair in ("(1,1)", "(2,1)", "(2,2)", "(3,1)"):
            assert f"  {pair}  gamma_tilde in [" in out
        assert out.count("gamma_tilde in [") == 4
        assert "uncertain: none" in out

    def test_tiny_box(self, capsys):
        _, out, _ = run_cli(capsys, "exceptional", "--n-max", "1", "--m-max", "1")
        assert out.count("gamma_tilde in [") == 1
        assert "(1,1)" in out

    def test_intervals_printed_match_library(self, capsys):
        # each end rounded outward at 8 decimals: the interval contains the enclosure
        _, out, _ = run_cli(capsys, "exceptional", "--n-max", "30", "--m-max", "30")
        assert assert_intervals_contain_enclosures(out) == 4
        assert "  (1,1)  gamma_tilde in [3.24227787, 3.24227788]\n" in out

    def test_tall_box_answers_at_once(self, capsys):
        # only m <= rho(2n) - 1 is admissible, so the box's height costs nothing
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "exceptional", "--n-max", "1", "--m-max", "10000000")
        assert code == 0 and time.perf_counter() - start < 1
        assert out.count("gamma_tilde in [") == 1 and "(1,1)" in out

    def test_grid_bytes_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "exceptional", "--n-max", "30", "--m-max", "30")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == _EXCEPTIONAL_30_DIGEST

    def test_past_the_series_range(self, capsys):
        # c(140, 1) is out of binary64 range; its exact gamma_bar < 1 classifies it safe
        code, tall, _ = run_cli(capsys, "exceptional", "--n-max", "140", "--m-max", "1")
        _, short, _ = run_cli(capsys, "exceptional", "--n-max", "139", "--m-max", "1")
        assert code == 0
        assert tall.splitlines()[1:] == short.splitlines()[1:]

    def test_huge_box_answers_at_once(self, capsys):
        # the walk stops at the edge of the down-set {gamma_bar >= 1}, whatever the box
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pleijel.cli", "exceptional",
             "--n-max", "1000000000", "--m-max", "1000000000"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0 and time.perf_counter() - start < 0.5
        _, default, _ = run_cli(capsys, "exceptional")
        assert result.stdout.splitlines()[1:] == default.splitlines()[1:]

    def test_a_straddling_interval_is_refused(self, capsys, monkeypatch):
        # no pair's certified interval straddles 1; one that did is refused, not decided
        monkeypatch.setattr(constants, "gamma_tilde_interval",
                            lambda pair: Enclosure(0.99, 1.01))
        code, out, err = run_cli(capsys, "exceptional")
        assert code == 2 and out == ""
        assert err.startswith("error: gamma_tilde(1,1) in [0.99, 1.01] straddles")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_determinism(self, capsys):
        _, a, _ = run_cli(capsys, "exceptional")
        _, b, _ = run_cli(capsys, "exceptional")
        assert a == b


#: sha256 of the `htype` JSON for every admissible pair with 2n <= 16, (16, 9), (32, 11)
_HTYPE_DIGESTS = {
    (1, 1): "4ccdb5608fb04cbeb3e8043e474aff5f221902906d1909011011e679f1516e4e",
    (2, 1): "3883e347c97f197369426b8e5e6af505c4b26a1ec6b693f674450193fce27ccd",
    (2, 2): "c0877b2b7530ddb28ffab5cd66aed06f66a98d7cf82877a01382df74f10956b1",
    (2, 3): "8c420dfecbd3ec030c95ce51874f6103a4c71fa8e709277e73bab2122e45715b",
    (3, 1): "502b3aef3a6af4fbea989784f6ec71009e6ec4fda7a72655d69dfd20e273342c",
    (4, 1): "1c8a8105e322dfb91c7bf2d260317c3e0b5fad15735790f400df73a999c80c63",
    (4, 2): "ad918dff0619d21ac1899f94eb6e228a1320b814d66ff5e461879d60b9e0097c",
    (4, 3): "dadff80a2211a5d8a8b8320636886c5a68eb2a21def6aa04161fd27371bcccc2",
    (4, 4): "b97abeb9d0714ab3f92e69eae20a99f1bade9019aaae3946d72dd26f3b06095b",
    (4, 5): "76c960c1f3cb8206620497006bc5052e714bc08bfc83a19c90a699b0aed18c95",
    (4, 6): "54799740e77ca788cca53791ce067373c3047d762a53468a9662c261af3372c5",
    (4, 7): "20f8bf46575c9870f6ad6b64ffb14b55a67e69e46b0774dce1f0abcfdf7601c3",
    (5, 1): "cbb591dcfd69925ef088335b19679e96e2116f2a466f1ce417d8eb084c1d698e",
    (6, 1): "97d61b9ddb1acec3973e6fa7c33736b9439617342d2a0ff382fa1328eafeeab4",
    (6, 2): "db6cee73a7a19b357886bbfecfba26521423ab36bdfa5f2c98ad00226d3ffcd2",
    (6, 3): "d44dbf5cf2e9d87a5f9a1e417bbde5c00cb5b41aca56e74ab388f6a711a18119",
    (7, 1): "93cb2ab11d578135ff1007c3cc6722e430489be5894d5b0af48538eb442c8df2",
    (8, 1): "64599773c3cb77f104f5a5b492a933fd7090439a7fc889707c5b7696e225747b",
    (8, 2): "39aaa6f4f4fb8ff9d998bfb9d5d14b14bb597f8cef7acc95217f6b7f5712c26c",
    (8, 3): "931e852f8e822d5920c6cc8ca7d07c9137ce12cef9823ae8de513303d6674dfe",
    (8, 4): "989d529f4df252d59e3783f67cc8e7c3f0e8bb3f8ebef953465298e07837086c",
    (8, 5): "1d1e7e8f8e55f12375303d114f3d90e40c7878f1ca36ed8f2121a30a1abf8499",
    (8, 6): "2abaeadb9388187ad80710d19fe1acd11e8fffacc96501f1f1737f7b0ad83713",
    (8, 7): "0e5c3eda0868acc8255995796676d156a13ddf5cd45e494ecb4c83f6979f6f54",
    (8, 8): "7212af578417209df2e3c665de13350e1eae728cac9cdbffa62c42d7c2600d5d",
    (16, 9): "731018425af040f2b6711cdd2a6403090be746583a528a0ae0d6038e43ab22d6",
    (32, 11): "e2d7e7c23e90faf52463aa5220434303b7e48cbe4bbe88db4694675eec34fd04",
}


class TestHType:
    @pytest.mark.parametrize("pair", sorted(_HTYPE_DIGESTS))
    def test_json_bytes_pinned(self, capsys, tmp_path, pair):
        out_file = tmp_path / "h.json"
        code, _, _ = run_cli(capsys, "htype", *map(str, pair), str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == _HTYPE_DIGESTS[pair]

    def test_writes_heisenberg_matrix(self, capsys, tmp_path):
        out_file = tmp_path / "h.json"
        code, out, _ = run_cli(capsys, "htype", "1", "1", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text()) == {"n": 1, "m": 1, "U": [[[0, -1], [1, 0]]]}

    def test_quaternionic_family(self, capsys, tmp_path):
        out_file = tmp_path / "h23.json"
        code, _, _ = run_cli(capsys, "htype", "2", "3", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["n"] == 2 and data["m"] == 3 and len(data["U"]) == 3

    def test_inadmissible_exits_3(self, capsys, tmp_path):
        out_file = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "htype", "2", "4", str(out_file))
        assert code == 3
        assert "rho(4) = 4" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("pair", [("5000", "1"), ("1025", "1"), ("512", "5")])
    def test_oversized_refused_without_writing(self, capsys, tmp_path, pair):
        # m (2n)^2 > 2^22 dense entries; htype 1024 1 (exactly 2^22) is the largest m = 1
        out_file = tmp_path / "big.json"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "htype", *pair, str(out_file))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith(f"error: htype({pair[0]},{pair[1]}) would write")
        assert err.count("\n") == 1
        assert not out_file.exists()

    def test_refusals_come_before_the_family_is_built(self, capsys, tmp_path, monkeypatch):
        # both refusals read n and m alone; building these families would take gigabytes
        def unbuilt(pair):
            raise AssertionError(f"construct{pair} was called")

        monkeypatch.setattr(htype_algebra, "construct", unbuilt)
        out_file = tmp_path / "big.json"
        code, out, err = run_cli(capsys, "htype", "1000000000", "1", str(out_file))
        assert code == 2 and out == ""
        assert err == ("error: htype(1000000000,1) would write 4000000000000000000 dense "
                       "matrix entries, over the limit of 2^22\n")
        code, out, err = run_cli(capsys, "htype", "1000000001", "2", str(out_file))
        assert code == 3 and out == ""
        assert err == ("error: no H-type group with (n, m) = (1000000001, 2): "
                       "rho(2n) = rho(2000000002) = 2 allows at most m = 1\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("where, reason", [("missing/h.json", "No such file or directory"),
                                                ("", "Is a directory")])
    def test_unwritable_output_refused_in_one_line(self, capsys, tmp_path, where, reason):
        out_file = tmp_path / where
        code, out, err = run_cli(capsys, "htype", "2", "1", str(out_file))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {out_file}: {reason}\n"

    def test_inadmissible_refused_before_the_size(self, capsys, tmp_path):
        out_file = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "htype", "5001", "2", str(out_file))
        assert code == 3 and "rho(10002) = 2" in err
        assert not out_file.exists()


def assert_answered_or_refused(code, out, err):
    # an answer on stdout and nothing on stderr, or one `error:` line and nothing on stdout
    if code == 0:
        assert err == "", err
    else:
        assert code in (2, 3) and out == "", (code, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


_LOG_SCALE = st.floats(min_value=0, max_value=9).map(lambda e: int(10 ** e))  # 1 to 10^9


def run_in_budget(capsys, *argv):
    """run_cli, asserting that the run ends within the per-run budget of 2 s."""
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0, argv
    return result


# the suites drawn with valid spellings take at most 0.04 s in process; consistency,
# algebra and all (0.1-0.2 s) are explicit examples
_CHEAP_SUITES = ("tables", "monotonicity", "admissibility")
_SUITE_TYPOS = ("table", "Tables", "algebr", "monotonicity ", "al", "", "tables,algebra",
                "--no-timestamp")
_TIMESTAMP_SPELLINGS = ("--no-timestamp", "--no-time", "--no", "--n", "--no-timestamps",
                        "--timestamp", "-no-timestamp", "--no_timestamp")


class TestRefusalPath:
    def test_main_prints_a_raised_refusal(self, capsys, monkeypatch):
        def raising(exc):
            def handler(args):
                raise exc
            return handler

        monkeypatch.setattr(render, "cmd_table", raising(Refused("x")))
        assert run_cli(capsys, "table", "gamma_tilde") == (2, "", "error: x\n")
        inadmissible = InadmissiblePair(DimPair(2, 4), 4)
        monkeypatch.setattr(checks, "cmd_check", raising(inadmissible))
        assert run_cli(capsys, "check", "all") == (3, "", f"error: {inadmissible}\n")
        # a library caller catches every refusal with one type
        assert issubclass(PrecisionUnreachable, Refused)

    def test_eps_refusal_is_the_cells_own(self):
        # only the series kernel raises PrecisionUnreachable; the --eps gate is a Refused
        with pytest.raises(Refused, match=r"c_series\(1,1\) cannot be certified") as err:
            _compute_cell("c_series", 1, 1, 4, 1e-15)
        assert not isinstance(err.value, PrecisionUnreachable)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_LOG_SCALE, _LOG_SCALE, st.sampled_from(QUANTITIES),
           st.none() | st.floats(min_value=1e-16, max_value=1),
           st.none() | st.integers(min_value=1, max_value=12))
    def test_value_answers_or_refuses(self, capsys, n, m, quantity, eps, precision):
        argv = ["value", str(n), str(m), quantity]
        if eps is not None:
            argv += ["--eps", repr(eps)]
        if precision is not None:
            argv += ["--precision", str(precision)]
        assert_answered_or_refused(*run_in_budget(capsys, *argv))

    # a 30 x 30 table takes 20-40 ms in process, and the sides are drawn in 1..30.  eps is
    # log-uniform in [1e-16, 1], or omitted, so that both answers and refusals are drawn
    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(QUANTITIES), st.sampled_from(FORMATS),
           st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30),
           st.none() | st.integers(min_value=1, max_value=12),
           st.floats(min_value=-17, max_value=0).map(lambda e: None if e < -16 else 10**e),
           st.booleans())
    def test_table_answers_or_refuses(self, capsys, quantity, fmt, n_max, m_max, precision,
                                      eps, plain):
        argv = ["table", quantity, "--n-max", str(n_max), "--m-max", str(m_max), "--format", fmt]
        if precision is not None:
            argv += ["--precision", str(precision)]
        if eps is not None:
            argv += ["--eps", repr(eps)]
        if plain:
            argv.append("--no-annotations")
        code, out, err = run_in_budget(capsys, *argv)
        assert code in (0, 2)
        assert_answered_or_refused(code, out, err)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_LOG_SCALE, _LOG_SCALE)
    def test_exceptional_answers_or_refuses(self, capsys, n_max, m_max):
        code, out, err = run_in_budget(capsys, "exceptional", "--n-max", str(n_max),
                                       "--m-max", str(m_max))
        assert code in (0, 2)
        assert_answered_or_refused(code, out, err)
        if code == 0:
            assert_intervals_contain_enclosures(out)

    # m (2n)^2 <= 2^16 writes at most 0.5 MB; over 2^22 is refused unwritten.  Small m
    # are drawn often, so that admissible pairs reach the writer
    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.tuples(_LOG_SCALE, st.integers(min_value=1, max_value=8) | _LOG_SCALE).filter(
               lambda p: not 1 << 16 < p[1] * (2 * p[0]) ** 2 <= 1 << 22),
           st.sampled_from(["h.json", "missing/h.json"]))
    def test_htype_answers_or_refuses(self, capsys, tmp_path, pair, where):
        out_file = tmp_path / where
        out_file.unlink(missing_ok=True)
        code, out, err = run_in_budget(capsys, "htype", *map(str, pair), str(out_file))
        assert_answered_or_refused(code, out, err)
        assert out_file.exists() == (code == 0)

    # a suite name, valid or misspelt, then --no-timestamp absent, repeated or in
    # another spelling: argparse reads an abbreviation, and refuses a misspelling
    # in one `error:` line after its usage
    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(_CHEAP_SUITES) | st.sampled_from(_SUITE_TYPOS),
           st.lists(st.sampled_from(_TIMESTAMP_SPELLINGS), max_size=2))
    @example("consistency", ["--no-timestamp"])
    @example("algebra", ["--no-t"])
    @example("all", [])
    @example("all", ["--no-timestamp", "--no-timestamp"])
    def test_check_answers_or_refuses(self, capsys, suite, flags):
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, "check", suite, *flags)
        except SystemExit as exc:  # argparse's refusal
            code, (out, err) = exc.code, capsys.readouterr()
        assert time.perf_counter() - start < 2.0, (suite, flags)
        if code in (0, 1):
            assert err == "" and json.loads(out.splitlines()[-1])["suites"], (suite, flags)
        else:
            assert code == 2 and out == "", (suite, flags)
            assert [line for line in err.splitlines() if "error:" in line] == [
                err.splitlines()[-1]], err


def _exit_code(parse, argv) -> int:
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code


# Every argv the benchmark runs (bench/workloads.py): the fixed ops of its four
# workloads, the interactive `value` one-shots' form, the warm-ups and the probes.
_BENCH_ARGV = [
    ["table", "gamma_tilde"], ["table", "gamma_bar"], ["exceptional"],
    ["value", "17", "30", "c_series"], ["value", "1", "29", "sobolev"],
    *(["table", q, "--n-max", "30", "--m-max", "30"] for q in QUANTITIES),
    *(["table", q, "--n-max", "30", "--m-max", "30", "--format", "json"] for q in QUANTITIES),
    ["table", "gamma_tilde", "--n-max", "30", "--m-max", "30", "--format", "csv"],
    ["table", "gamma_tilde", "--n-max", "30", "--m-max", "30", "--format", "latex"],
    ["exceptional", "--n-max", "30", "--m-max", "30"],
    ["table", "weyl", "--n-max", "30", "--m-max", "30", "--eps", "1e-10", "--format", "json"],
    ["value", "30", "1", "gamma_tilde", "--eps", "1e-12"],
    ["table", "gamma_tilde", "--eps", "1e-12", "--format", "json"],
    ["check", "all", "--no-timestamp"], ["htype", "8", "8", "w/htype_8_8.json"],
    ["value", "2", "1", "gamma_tilde"], ["table", "gamma_tilde", "--n-max", "2", "--m-max", "2"],
    ["exceptional", "--n-max", "2", "--m-max", "2"], ["check", "admissibility", "--no-timestamp"],
    ["htype", "1", "1", "w/htype_warmup.json"],
    ["value", "200", "1", "gamma_tilde"], ["value", "150", "3", "gamma_tilde"],
]

# argv checked against argparse by hand: (argv, argparse reads it, _read reads it)
_SPELLINGS = [
    ("value 1 --eps 1e-9 1 gamma_tilde", True, False),  # an option between positionals
    ("value 1 1 gamma_tilde --e 1e-9", True, False),  # an abbreviation
    ("value 1 1 gamma_tilde --eps=1e-9", True, False),
    ("value -- 1 1 weyl", True, False),
    ("htype 1 1 -", True, False),  # "-" is a positional to argparse
    ("htype 1 1 -o.json", False, False),  # an unknown option to argparse
    ("value 1_0 1 weyl", True, True),  # int() reads both as argparse's converter does
    ("value +1 1 weyl", True, True),
    ("table gamma_tilde --no-annotations --no-annotations", True, False),
]

_NUMBERS = ("1", "2", "12", "13", "30", "31", "0", "-1", "+1", "1_0", " 3 ", "1e-9", "-1e-9",
            "inf", "nan", "1e999", str(10**309), "x")
_CHOICES = ("gamma_tilde", "gamma_bar", "weyl", "gamma", "json", "latex", "xml", "all",
            "algebra", "out.json", "-o.json", "-", "")
_FLAGS = ("--eps", "--precision", "--n-max", "--m-max", "--format", "--no-annotations",
          "--no-timestamp", "--e", "--n", "--form", "--eps=1e-9", "--format=csv", "-h", "--help",
          "--")
_WORD = st.sampled_from(_NUMBERS + _CHOICES)


def _word_for(kind):
    """A word that may read as ``kind`` (a grammar table's argument kind), or any word."""
    if kind is None:
        return _WORD
    return st.sampled_from(kind if isinstance(kind[0], str) else _NUMBERS) | _WORD


def _near_canonical(verb):
    """The verb, a word per positional, then options, mostly the verb's own."""
    _, _, positionals, options = GRAMMAR[verb]
    option = st.builds(lambda flag, words: [flag, *words], st.sampled_from(_FLAGS),
                       st.lists(_WORD, max_size=1))
    for flag, kind, _, _ in options:
        option |= st.just([flag]) if kind is None else _word_for(kind).map(
            lambda word, flag=flag: [flag, word])
    return st.builds(lambda words, options: [verb, *words, *(w for o in options for w in o)],
                     st.tuples(*(_word_for(kind) for _, kind in positionals)),
                     st.lists(option, max_size=3))


VERBS = tuple(GRAMMAR)
_ARGV = st.one_of(*map(_near_canonical, VERBS)) | st.lists(
    st.sampled_from(VERBS + ("valu",) + _FLAGS + _NUMBERS + _CHOICES), max_size=8)


_FULL_PARSER = build_parser(GRAMMAR)


def _argparse_reads(argv):
    """The attributes argparse sets for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_FULL_PARSER.parse_args(argv))
        except SystemExit:
            return None


def assert_read_agrees(argv) -> bool:
    """_read declines argv, or reads what argparse reads; whether it read argv."""
    read = _read(list(argv))
    if read is not None:
        # func is the same handler: both readers take it from the one grammar table
        assert vars(read) == _argparse_reads(argv), argv
    return read is not None


class TestParser:
    def test_bytes_pinned(self, capsys, monkeypatch):
        # usage, help and error texts with their exit codes: main prints what the
        # parser of all five verbs prints, and what it printed when recorded (under
        # CPython 3.11); argparse wraps at COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        records = json.loads((Path(__file__).parent / "parser_output.json").read_text())
        for record in records:
            argv = record["argv"]
            got = (_exit_code(main, argv), *capsys.readouterr())
            built = _exit_code(build_parser(GRAMMAR).parse_args, argv)
            assert got == (built, *capsys.readouterr()), argv
            if sys.version_info[:2] == (3, 11):
                assert got == (record["code"], record["stdout"], record["stderr"]), argv

    def test_read_agrees_on_the_recorded_argv(self):
        records = json.loads((Path(__file__).parent / "parser_output.json").read_text())
        for record in records:
            assert not assert_read_agrees(record["argv"])  # help and errors are argparse's

    def test_read_takes_every_benchmark_argv(self):
        for argv in _BENCH_ARGV:
            assert assert_read_agrees(argv), argv

    @pytest.mark.parametrize("line, by_argparse, by_read", _SPELLINGS,
                             ids=[line.replace(" ", "_") for line, *_ in _SPELLINGS])
    def test_read_declines_what_is_not_canonical(self, line, by_argparse, by_read):
        argv = line.split(" ")
        assert (_argparse_reads(argv) is not None) == by_argparse
        assert assert_read_agrees(argv) == by_read

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_ARGV)
    def test_read_agrees_with_argparse(self, argv):
        assert_read_agrees(argv)


# The children's environment: the host's, with stdout and stderr buffered, as they are
# by default, so that a write left unflushed when the process ends is lost; and the
# package's source first on PYTHONPATH, where a child under -S (no site) finds it too.
_BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
_BUFFERED["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(pleijel.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))

# Imported by site at start-up from the first PYTHONPATH entry: at exit, whether the
# CLI module was also imported under its own name, and the name of what ran as __main__.
_SITECUSTOMIZE = """
import atexit, json, os, sys

@atexit.register
def report():
    main = sys.modules["__main__"].__spec__
    os.write(2, json.dumps({"imported": "pleijel.cli" in sys.modules,
                            "main": main and main.name}).encode())
"""


class TestConsoleEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        # the installed entry point and module invocation agree: the script generated
        # for the [project.scripts] target runs `sys.exit(target())`
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = pyproject.partition("[project.scripts]\n")[2].partition("\n[")[0]
        targets = dict(line.replace('"', "").split(" = ") for line in section.splitlines() if line)
        module, _, func = targets["pleijel"].partition(":")
        script = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
        results = [subprocess.run([sys.executable, *entry, "value", "2", "3", "gamma_bar"],
                                  capture_output=True, text=True, timeout=120, env=_BUFFERED)
                   for entry in (["-m", "pleijel.cli"], ["-c", script])]
        assert [r.returncode for r in results] == [0, 0]
        assert results[0].stdout == results[1].stdout
        assert results[0].stdout.splitlines()[0] == "0.9375 (= 15/16)"

    def test_module_invocation_warns_nothing(self):
        # the package leaves cli unregistered, so runpy finds it unloaded and does
        # not warn that it is already in sys.modules
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pleijel.cli", "value", "1", "1", "gamma_tilde"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_BUFFERED,
        )
        assert result.returncode == 0
        assert result.stderr == ""

    @pytest.mark.parametrize("argv", [
        ("value", "2", "3", "gamma_bar"),
        ("value", "2", "3", "gamma_bar", "--eps=1e-9"),  # read by argparse
    ], ids=["well-formed", "non-canonical"])
    def test_module_invocation_compiles_the_cli_once(self, tmp_path, argv):
        # runpy runs the CLI as __main__; an import of pleijel.cli from anything it runs,
        # the argparse module included, would compile and run it a second time
        (tmp_path / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = {**_BUFFERED,
               "PYTHONPATH": os.pathsep.join((str(tmp_path), _BUFFERED["PYTHONPATH"]))}
        result = subprocess.run([sys.executable, "-m", "pleijel.cli", *argv],
                                capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "0.9375 (= 15/16)"
        assert json.loads(result.stderr) == {"imported": False, "main": "pleijel.cli"}

    def test_joined_option_value_reads_as_two_words(self):
        # `--eps=1e-9` is not canonical: argparse reads it, in a fresh process that
        # loads argparse for it, and prints what `--eps 1e-9` prints without it
        results = [subprocess.run([sys.executable, "-X", "importtime", "-m", "pleijel.cli",
                                   "value", "2", "3", "gamma_bar", *eps],
                                  capture_output=True, text=True, timeout=120, env=_BUFFERED)
                   for eps in (["--eps=1e-9"], ["--eps", "1e-9"])]
        assert [r.returncode for r in results] == [0, 0]
        assert results[0].stdout == results[1].stdout
        assert results[0].stdout.splitlines()[0] == "0.9375 (= 15/16)"
        loaded = [{line.rpartition("|")[2].strip() for line in r.stderr.splitlines()}
                  for r in results]
        assert ["argparse" in names for names in loaded] == [True, False]

    def test_subprocess_bad_args(self):
        result = subprocess.run(
            [sys.executable, "-m", "pleijel.cli", "table", "gamma_tilde", "--n-max", "99"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_BUFFERED,
        )
        assert result.returncode == 2


# Run in a fresh interpreter: which modules one import and five verbs load.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)  # whatever site loaded does not count
import pleijel.cli
added = set(sys.modules) - before
import contextlib, io
after_import = "numpy" in sys.modules
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["value", "30", "1", "gamma_tilde"], ["value", "3", "4", "weyl"],
                 ["table", "weyl", "--n-max", "30", "--m-max", "30", "--format", "json"],
                 ["value", "7", "3", "gamma_bar"], ["table", "gamma_bar", "--format", "json"],
                 ["exceptional"], ["htype", "8", "8", sys.argv[1]]):
        codes.append(pleijel.cli.main(argv))
    by_verbs = set(sys.modules) - before
import json
print(json.dumps({"after_import": after_import,
                  "after_verbs": "numpy" in sys.modules, "codes": codes,
                  "stdlib_added": sorted(added & {"dataclasses", "inspect", "datetime", "json",
                                                  "fractions", "decimal", "argparse", "gettext",
                                                  "locale", "importlib.util", "contextlib"}),
                  "stdlib_by_verbs": sorted(by_verbs & {"fractions", "decimal", "json",
                                                        "argparse", "gettext", "locale"}),
                  "typing_threading_by_verbs": sorted(by_verbs & {"typing", "threading", "re",
                                                                  "enum"})}))
"""

# Run in a fresh interpreter: which pleijel modules are in sys.modules, and which
# have run (a lazily registered module becomes a plain module when it runs), after
# `import pleijel.cli` and after the verb given as JSON; and whether numpy, numbers,
# __future__ and argparse were loaded.
_VERB_PROBE = """
import contextlib, io, json, sys, types
import pleijel.cli

def ran():
    return sorted(name.partition(".")[2] for name, module in sys.modules.items()
                  if name.startswith("pleijel.") and type(module) is types.ModuleType)

present = sorted(name.partition(".")[2] for name in sys.modules if name.startswith("pleijel."))
after_import = ran()
with contextlib.redirect_stdout(io.StringIO()):
    code = pleijel.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"present": present, "after_import": after_import, "after_verb": ran(),
                  "code": code, "numpy": "numpy" in sys.modules,
                  "numbers": "numbers" in sys.modules, "future": "__future__" in sys.modules,
                  "argparse": "argparse" in sys.modules}))
"""

_PACKAGE_MODULES = {"admissibility", "argparser", "cells", "checks", "cli", "constants", "core",
                    "exceptional", "htype_algebra", "monotonicity", "numerics", "oracles",
                    "reference", "render", "series", "sobolev"}
# the modules only `check` runs
_SELF_CHECK_LAYERS = {"checks", "htype_algebra", "monotonicity", "oracles", "reference"}
# the modules a well-formed `value` or `table` argv does not run: `check`'s, the
# classification of `exceptional` and the parser of help, errors and other spellings
_NOT_VALUE = _SELF_CHECK_LAYERS | {"exceptional", "argparser"}


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("check", "all", "--no-timestamp"),
        ("table", "c_series", "--n-max", "30", "--m-max", "30", "--format", "json"),
    ])
    def test_exit_one_and_quiet_stderr(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "pleijel.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_BUFFERED)
        proc.stdout.close()  # the reader is gone before anything is written
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 1, err
        for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
            assert marker not in err, err

    def test_a_profiler_writing_into_the_closed_pipe_stays_quiet(self):
        # cProfile catches the CLI's SystemExit and prints its report into the devnull
        # the CLI left on stdout; the exit hook then ends the process with the CLI's code
        proc = subprocess.Popen([sys.executable, "-m", "cProfile", "-m", "pleijel.cli", *_VALUE],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_BUFFERED)
        proc.stdout.close()
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 1, err
        assert err == ""


# Run in a fresh interpreter: `python -m pleijel.cli ARGV` inside a wrapper that
# registered an exit handler first, whose marker (no newline) stays buffered until
# stderr is flushed, and that keeps an object only the interpreter's teardown finalises.
_EXIT_WRAPPER = """
import atexit, os, runpy, sys

class Finalised:
    def __del__(self, write=os.write):
        write(2, b"<finalised>")

atexit.register(lambda: sys.stderr.write("<exit handler>"))
kept = Finalised()
sys.argv = ["pleijel", *sys.argv[1:]]
runpy.run_module("pleijel.cli", run_name="__main__", alter_sys=True)
"""


def run_wrapped(*argv):
    return subprocess.run([sys.executable, "-c", _EXIT_WRAPPER, *argv],
                          capture_output=True, text=True, timeout=120, env=_BUFFERED)


class TestProcessExit:
    def test_ends_after_the_exit_handlers_without_teardown(self, capsys):
        argv = ("value", "2", "3", "gamma_bar")
        result = run_wrapped(*argv)
        assert (result.returncode, result.stdout) == run_cli(capsys, *argv)[:2]
        assert result.returncode == 0
        assert "<exit handler>" in result.stderr
        assert "<finalised>" not in result.stderr

    def test_a_parser_exit_is_the_ordinary_exit(self):
        result = run_wrapped("table", "gamma_tilde", "--n-max", "99")
        assert result.returncode == 2
        assert "pleijel table: error: argument --n-max: must be in [1, 30], got 99" in result.stderr
        assert "<exit handler>" in result.stderr
        assert "<finalised>" in result.stderr

    def test_a_profiler_still_reports_after_the_cli(self, capsys):
        result = subprocess.run([sys.executable, "-m", "cProfile", "-m", "pleijel.cli", *_VALUE],
                                capture_output=True, text=True, timeout=120, env=_BUFFERED)
        out = run_cli(capsys, *_VALUE)[1]
        assert len(out.splitlines()) == 2
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(out)
        assert "function calls" in result.stdout[len(out):]
        assert result.stdout.endswith("\n\n")  # the report's last lines: nothing left unflushed

    @pytest.mark.parametrize("argv, expected", [
        (("htype", "2", "3"), 0),
        (("value", "200", "1", "gamma_tilde"), 2),
        (("htype", "1", "2"), 3),
    ])
    def test_a_child_prints_and_writes_what_main_does(self, capsys, tmp_path, argv, expected):
        out_json = tmp_path / "OUT.json"
        if argv[0] == "htype":
            argv += (str(out_json),)
        by_main = run_cli(capsys, *argv)
        file_by_main = out_json.read_bytes() if out_json.exists() else None
        out_json.unlink(missing_ok=True)
        result = subprocess.run([sys.executable, "-m", "pleijel.cli", *argv],
                                capture_output=True, text=True, timeout=120, env=_BUFFERED)
        assert (result.returncode, result.stdout, result.stderr) == by_main
        assert by_main[0] == expected
        assert (out_json.read_bytes() if out_json.exists() else None) == file_by_main
        assert (file_by_main is not None) == (expected == 0)


class TestImportPath:
    def test_value_table_exceptional_leave_numpy_unloaded(self, tmp_path):
        # and `htype`: the five verbs load no numpy, and no fractions, decimal or json;
        # a well-formed argv loads no argparse (which pulls in gettext and locale)
        result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "h88.json")],
                                capture_output=True, text=True, timeout=120, env=_BUFFERED)
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout)
        assert probe["codes"] == [0] * 7
        assert not probe["after_import"]
        assert not probe["after_verbs"]
        # the import itself adds none of these: dataclasses pulls in inspect, ast,
        # dis and tokenize, and fractions pulls in decimal; datetime, json and
        # fractions are loaded by the verbs that use them, argparse by help and errors
        assert probe["stdlib_added"] == []
        # value, a json table, exceptional and htype build no Fraction (gamma_bar's
        # exact cell is a lowest-terms integer pair) and write their JSON text themselves;
        # the strict reader reads their argv
        assert probe["stdlib_by_verbs"] == []

    def test_import_and_verbs_load_no_typing_or_threading_without_site(self, tmp_path):
        # site may preload stdlib modules (a .pth hook can load typing, re and enum), and
        # the probe subtracts whatever it loaded; under -S nothing is preloaded, so the
        # import and the seven verbs show every module they load themselves
        result = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE,
                                 str(tmp_path / "h88.json")],
                                capture_output=True, text=True, timeout=120, env=_BUFFERED)
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout)
        assert probe["codes"] == [0] * 7
        # the lazy modules' specs are built from the package directory: no importlib.util,
        # whose import loads contextlib and functools
        assert probe["stdlib_added"] == []
        # the value types are collections.namedtuples and the lazy modules' lock is
        # _thread's; `check` is not run: its fractions and json load re
        assert probe["typing_threading_by_verbs"] == []

    @pytest.mark.parametrize("argv, unrun", [
        (["value", "30", "1", "gamma_tilde"], _NOT_VALUE | {"render", "sobolev"}),
        (["table", "weyl", "--format", "json"], _NOT_VALUE | {"sobolev"}),
        # gamma_bar is exact and sobolev a root of an exact rational: no series, and
        # sobolev no constants
        (["value", "7", "3", "gamma_bar"], _NOT_VALUE | {"render", "series", "sobolev"}),
        (["value", "7", "3", "sobolev"], _NOT_VALUE | {"render", "series", "constants"}),
        (["table", "gamma_bar", "--format", "json"], _NOT_VALUE | {"series", "sobolev"}),
        (["table", "sobolev"], _NOT_VALUE | {"series", "constants"}),
        # `exceptional` runs no `cells`, the cell path
        (["exceptional"], _SELF_CHECK_LAYERS | {"argparser", "render", "cells", "sobolev"}),
        (["htype", "8", "8", "h88.json"], {"argparser", "checks", "monotonicity", "oracles",
                                            "reference", "render", "constants", "exceptional",
                                            "numerics", "series", "cells", "sobolev"}),
        # the zeta oracle sums Borwein's series over integers, the term-ratio link is
        # exact, and the algebra suite is integer work on signed permutations: no numpy.
        # The tables suite computes each cell with `cells`, as `table` does
        (["check", "all", "--no-timestamp"], {"argparser", "render"}),
        # `checks` reads the library through module attributes, so a suite runs only
        # the modules it calls
        (["check", "admissibility", "--no-timestamp"],
         _PACKAGE_MODULES - {"admissibility", "checks", "cli", "core", "reference"}),
        # and `oracles` reads the library the same way: the algebra suite runs neither
        # the series nor the numerics it never calls
        (["check", "algebra", "--no-timestamp"],
         _PACKAGE_MODULES - {"admissibility", "checks", "cli", "core", "htype_algebra",
                             "oracles"}),
        # an argv that is not canonical is read by argparse, built by `argparser`
        (["value", "30", "1", "gamma_tilde", "--eps=1e-9"],
         _NOT_VALUE - {"argparser"} | {"render", "sobolev"}),
    ], ids=["value", "table", "value-gamma_bar", "value-sobolev", "table-gamma_bar",
            "table-sobolev", "exceptional", "htype", "check", "check-admissibility",
            "check-algebra", "value-joined-eps"])
    def test_each_verb_runs_only_the_modules_it_calls(self, tmp_path, argv, unrun):
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        # with this host's site, and under -S, where nothing is loaded before the probe
        for flags in ([], ["-S"]):
            result = subprocess.run([sys.executable, *flags, "-c", _VERB_PROBE, json.dumps(argv)],
                                    capture_output=True, text=True, timeout=120, env=_BUFFERED)
            assert result.returncode == 0, result.stderr
            probe = json.loads(result.stdout)
            assert probe["code"] == 0
            # every module stays in sys.modules, where the benchmark's tracer finds it
            assert probe["present"] == sorted(_PACKAGE_MODULES)
            assert probe["after_import"] == ["cli", "core"]
            assert probe["after_verb"] == sorted(_PACKAGE_MODULES - unrun)
            # `value`, `table` and the tables suite of `check all` run `cells`, the cell path
            assert ("cells" in probe["after_verb"]) == (argv[0] in ("value", "table")
                                                        or argv[:2] == ["check", "all"])
            # a well-formed argv never runs the argparse module, nor loads argparse
            assert ("argparser" in probe["after_verb"]) == ("--eps=1e-9" in argv)
            if flags:
                assert probe["argparse"] == ("--eps=1e-9" in argv)
            assert not probe["numpy"]
            # only `check` builds a Fraction (fractions imports numbers) or runs oracles
            assert probe["numbers"] == (argv[0] == "check")
            # no module postpones its annotations, so none imports __future__
            assert not probe["future"]

    def test_from_import_of_cli_runs_what_import_does(self):
        # the import system asks the package for `cli` before importing it
        probe = ("import sys, types\n"
                 "from pleijel import cli\n"
                 "print(*sorted(name for name, module in sys.modules.items()\n"
                 "              if name.startswith('pleijel.')\n"
                 "              and type(module) is types.ModuleType))\n")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, timeout=120, env=_BUFFERED)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["pleijel.cli", "pleijel.core"]

    def test_every_verb_runs_where_numpy_cannot_be_imported(self, tmp_path):
        # stands in for an install without numpy: the import system refuses it
        result = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE, str(tmp_path / "h.json")],
                                capture_output=True, text=True, timeout=120, env=_BUFFERED)
        assert result.returncode == 0, result.stderr
        probe = json.loads(result.stdout)
        assert probe["codes"] == [0] * 6
        assert probe["check_all"] == _CHECK_ALL_TEXT


_NO_NUMPY_PROBE = """
import contextlib, io, json, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is not installed")

sys.meta_path.insert(0, RefuseNumpy())
import pleijel.cli
codes, outputs = [], []
for argv in (["value", "3", "2", "weyl"], ["table", "gamma_tilde", "--format", "json"],
             ["exceptional"], ["htype", "4", "7", sys.argv[1]], ["check", "all", "--no-timestamp"],
             ["check", "monotonicity", "--no-timestamp"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(pleijel.cli.main(argv))
    outputs.append(out.getvalue())
print(json.dumps({"codes": codes, "check_all": outputs[4]}))
"""
