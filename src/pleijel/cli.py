"""Command-line interface.

Verbs:

* ``value N M QUANTITY``  -- one constant with its certified error bound;
* ``table QUANTITY``      -- a full table in markdown/csv/json/latex;
* ``check SUITE``         -- offline self-checks (exit 1 on any failure);
* ``exceptional``         -- certified classification against the
                             Pleijel threshold 1;
* ``htype N M OUT.json``  -- write a verified H-type matrix family
                             (exit 3 for inadmissible pairs, exit 2 over
                             2^22 dense matrix entries).

``--eps`` exists on ``value`` and ``table`` only: the library computes
each enclosure at the binary64 rounding floor, the same for every eps,
and ``_compute_cell`` decides eps once, on the enclosure it prints.  A
certified value that cannot be delivered (its printed enclosure wider
than eps, a pair out of binary64 range, or a value that underflows
binary64 so no relative eps holds) is refused with a one-line message on
stderr and exit 2, as is an exact gamma_bar whose numerator or
denominator may exceed the interpreter's integer-to-string digit limit,
or a sobolev value with n + m > 10,000.

Output is deterministic byte-for-byte; ``check`` carries a timestamp in
its JSON trailer unless --no-timestamp is given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple

# The library modules are called through their module attributes, looked up when
# a verb runs: each verb then runs only the modules it calls (the package registers
# them lazily), and a wrapped module attribute is the one called.
from . import checks, constants, htype_algebra, numerics, series
from .admissibility import admissible, shading_mask
from .core import DimPair, Enclosure, InadmissiblePair, PrecisionUnreachable

QUANTITIES = ("gamma_tilde", "gamma_bar", "sobolev", "weyl", "c_series")
_SOBOLEV_MAX_S = 10_000  # `value` refuses sobolev above this n + m
FORMATS = ("markdown", "csv", "json", "latex")
# checks.SUITES, then "all", spelled out so that building the parser runs no checks
SUITE_NAMES = ("tables", "consistency", "monotonicity", "admissibility", "algebra", "all")


class TableSpec(NamedTuple):
    quantity: str
    n_max: int = 10
    m_max: int = 10
    fmt: str = "markdown"
    precision: int = 4
    eps: float = 1e-8
    annotations: bool = True


class Cell(NamedTuple):  # admissibility is the table's shading_mask
    n: int
    m: int
    value: float
    display: str
    error_bound: float
    exceeds_one: bool  # certified: the exact value, or the enclosure's lower end, is > 1
    exact: Fraction | None = None


def _c_enclosure(pair: DimPair) -> Enclosure:
    sv = series.c_series(pair)
    return Enclosure(sv.value, sv.upper)


# every quantity but the exact gamma_bar: pair -> its certified enclosure
_ENCLOSURES = {
    "gamma_tilde": lambda pair: constants.gamma_tilde_interval(pair),
    "sobolev": lambda pair: constants.sobolev_interval(pair),
    "weyl": lambda pair: constants.weyl_interval(pair),
    "c_series": _c_enclosure,
}


def _compute_cell(quantity: str, n: int, m: int, precision: int, eps: float) -> Cell:
    pair = DimPair(n, m)
    if quantity == "gamma_bar":
        exact = constants.gamma_bar_exact(pair)
        return Cell(n=n, m=m, value=float(exact),
                    display=numerics.round_half_away(exact, precision), error_bound=0.0,
                    exceeds_one=exact > 1, exact=exact)
    enc = _ENCLOSURES[quantity](pair)
    mid, radius = enc.mid, enc.radius
    # eps bounds the printed width 2 * error_bound: absolute for c_series, relative to
    # |value| elsewhere; decided exactly on the floats' integer ratios, since a float
    # product could round across the bound (eps = inf counts as the largest float)
    absolute = quantity == "c_series"
    rn, rd = radius.as_integer_ratio()
    en, ed = min(eps, sys.float_info.max).as_integer_ratio()
    mn, md = (1, 1) if absolute else abs(mid).as_integer_ratio()
    if not 2 * rn * ed * md <= en * mn * rd:  # 2 radius <= eps |mid|
        raise PrecisionUnreachable(f"{quantity}({n},{m}) cannot be certified to "
                                   f"{'absolute' if absolute else 'relative'} eps={eps:g} "
                                   f"in binary64: its enclosure is {list(enc)}",
                                   best_bound=radius, terms_used=0)
    return Cell(n=n, m=m, value=mid, display=numerics.round_half_away(mid, precision),
                error_bound=radius, exceeds_one=enc.lo > 1.0)


# --------------------------------------------------------------------------
# table rendering

def _annotated_rows(spec: TableSpec, cells: dict[tuple[int, int], Cell],
                    exceeds: str, inadmissible: str) -> list[list[str]]:
    """Rows [n, display(n, 1), ...]; with annotations on, an admissible cell
    above 1 is put in the ``exceeds`` template, an inadmissible one in the
    ``inadmissible`` template."""
    rows = []
    mask = shading_mask(spec.n_max, spec.m_max)
    for n in range(1, spec.n_max + 1):
        row = [str(n)]
        for m in range(1, spec.m_max + 1):
            c = cells[n, m]
            text = c.display
            if spec.annotations:
                if not mask[n - 1][m - 1]:
                    text = inadmissible.format(text)
                elif c.exceeds_one:
                    text = exceeds.format(text)
            row.append(text)
        rows.append(row)
    return rows


def _render_markdown(spec: TableSpec, cells: dict[tuple[int, int], Cell]) -> str:
    lines = [f"quantity: {spec.quantity} ({spec.precision} decimals; eps {spec.eps:g})", ""]
    header = "| n/m | " + " | ".join(str(m) for m in range(1, spec.m_max + 1)) + " |"
    rule = "|" + "---|" * (spec.m_max + 1)
    lines += [header, rule]
    lines += ["| " + " | ".join(row) + " |"
              for row in _annotated_rows(spec, cells, "**{}**", "({})")]
    if spec.annotations:
        lines += ["", "legend: **value** admissible and > 1; (value) no H-type group"]
    return "\n".join(lines) + "\n"


def _render_csv(spec: TableSpec, cells: dict[tuple[int, int], Cell]) -> str:
    lines = ["n,m,value,error_bound,admissible"]
    mask = shading_mask(spec.n_max, spec.m_max)
    for n in range(1, spec.n_max + 1):
        for m in range(1, spec.m_max + 1):
            c = cells[n, m]
            lines.append(f"{n},{m},{c.display},{c.error_bound:.3e},"
                         f"{str(mask[n - 1][m - 1]).lower()}")
    return "\n".join(lines) + "\n"


def _render_json(spec: TableSpec, cells: dict[tuple[int, int], Cell]) -> str:
    # json.dumps(payload, indent=1) byte for byte (json indents in pure Python): the
    # floats are json's own text from one call of its C encoder (eps inf: Infinity),
    # and the strings are names and digits, which json leaves as they are
    import json

    ordered = [cells[key] for key in sorted(cells)]
    floats = json.dumps([spec.eps, *(x for c in ordered for x in (c.value, c.error_bound))])
    eps, *floats = floats[1:-1].split(", ")
    mask = shading_mask(spec.n_max, spec.m_max)
    objects = []
    for c, value, error_bound in zip(ordered, floats[::2], floats[1::2]):
        exact = ("" if c.exact is None else
                 f',\n   "exact": "{c.exact.numerator}/{c.exact.denominator}"')
        objects.append(
            f'  {{\n   "n": {c.n},\n   "m": {c.m},\n   "value": {value},\n'
            f'   "display": "{c.display}",\n   "error_bound": {error_bound},\n'
            f'   "admissible": {str(mask[c.n - 1][c.m - 1]).lower()},\n'
            f'   "exceeds_one": {str(c.exceeds_one).lower()}{exact}\n  }}')
    return (f'{{\n "quantity": "{spec.quantity}",\n "n_max": {spec.n_max},\n'
            f' "m_max": {spec.m_max},\n "precision": {spec.precision},\n "eps": {eps},\n'
            f' "cells": [\n' + ",\n".join(objects) + "\n ]\n}\n")


def _render_latex(spec: TableSpec, cells: dict[tuple[int, int], Cell]) -> str:
    cols = "|c|" + "c|" * spec.m_max
    lines = [
        f"% {spec.quantity}, {spec.precision} decimals",
        f"\\begin{{tabular}}{{{cols}}}",
        "\\hline",
        "$n/m$ & " + " & ".join(str(m) for m in range(1, spec.m_max + 1)) + r" \\ \hline",
    ]
    lines += [" & ".join(row) + r" \\ \hline" for row in _annotated_rows(
        spec, cells, r"\textcolor{{red}}{{{}}}", r"\cellcolor{{gray!50}}{}")]
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "markdown": _render_markdown,
    "csv": _render_csv,
    "json": _render_json,
    "latex": _render_latex,
}


def render_table(spec: TableSpec) -> str:
    cells = {
        (n, m): _compute_cell(spec.quantity, n, m, spec.precision, spec.eps)
        for n in range(1, spec.n_max + 1)
        for m in range(1, spec.m_max + 1)
    }
    return _RENDERERS[spec.fmt](spec, cells)


# --------------------------------------------------------------------------
# subcommand implementations

def _over_digit_limit(args, bits: int) -> bool:
    """Whether an exact value with a numerator or denominator of ``bits`` bits
    is refused, with its one-line message on stderr.

    str() refuses integers over the interpreter's digit limit (0: none; no
    limit before Python 3.10.7); b bits give at most b log10(2) + 1 digits.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not (limit and bits * 30103 // 100000 + 1 > limit):
        return False
    print(f"error: {args.quantity}({args.n},{args.m}) is exact, but its numerator or "
          f"denominator may have more than the {limit} digits this interpreter "
          "prints", file=sys.stderr)
    return True


def _cmd_value(args) -> int:
    if args.quantity == "sobolev" and args.n + args.m > _SOBOLEV_MAX_S:
        # sobolev_interval's integer work grows like s^1.6: 0.3-0.5 s at the limit
        print(f"error: sobolev({args.n},{args.m}) needs n + m <= {_SOBOLEV_MAX_S}",
              file=sys.stderr)
        return 2
    if args.quantity == "gamma_bar":
        # a/b in lowest terms has a or b of more than |log2(a/b)| bits: enough to
        # refuse before building it; 1e-9 q ln q covers log_gamma_bar's float error
        q = 2 * args.n + args.m
        log = abs(constants.log_gamma_bar(DimPair(args.n, args.m))) - 1e-9 * q * math.log(q)
        if _over_digit_limit(args, math.floor(log / math.log(2))):
            return 2
    cell = _compute_cell(args.quantity, args.n, args.m, args.precision, args.eps)
    adm = admissible(DimPair(args.n, args.m)).admissible
    line = cell.display
    if cell.exact is not None:
        if _over_digit_limit(args, max(cell.exact.numerator.bit_length(),
                                       cell.exact.denominator.bit_length())):
            return 2
        line += f" (= {cell.exact.numerator}/{cell.exact.denominator})"
    if not adm:
        line += " [inadmissible: no H-type group]"
    print(line)
    print(
        f"# quantity={args.quantity} n={args.n} m={args.m} "
        f"value={cell.value!r} error_bound={cell.error_bound:.3e} "
        f"admissible={'yes' if adm else 'no'}"
    )
    return 0


def _cmd_table(args) -> int:
    spec = TableSpec(
        quantity=args.quantity,
        n_max=args.n_max,
        m_max=args.m_max,
        fmt=args.format,
        precision=args.precision,
        eps=args.eps,
        annotations=not args.no_annotations,
    )
    sys.stdout.write(render_table(spec))
    return 0


def _cmd_check(args) -> int:
    import json

    names = SUITE_NAMES[:-1] if args.suite == "all" else (args.suite,)
    results = [checks.run_suite(name) for name in names]
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}")
        for line in res.details:
            print(f"    {line}")
    report = {
        "suites": [
            {"name": r.name, "passed": r.passed, "details": list(r.details)} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if not args.no_timestamp:
        from datetime import datetime, timezone

        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(report, sort_keys=True))
    return 0 if report["passed"] else 1


def _cmd_exceptional(args) -> int:
    result = constants.exceptional_set(args.n_max, args.m_max)
    titles = (f"exceptional pairs (certified gamma_tilde >= 1) "
              f"for 1 <= n <= {args.n_max}, 1 <= m <= {args.m_max}:",
              "uncertain (certified interval straddles 1):" if result.uncertain
              else "uncertain: none")
    for title, pairs in zip(titles, result):
        print(title)
        for p in pairs:
            low, high = constants.gamma_tilde_interval(p)
            print(f"  {p}  gamma_tilde in [{low:.8f}, {high:.8f}]")
    return 0


def _cmd_htype(args) -> int:
    try:
        structure = htype_algebra.construct((args.n, args.m))
    except InadmissiblePair as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    entries = args.m * (2 * args.n) ** 2  # htype 1024 1 (29 MB of JSON) is the largest m = 1
    if entries > 1 << 22:
        print(f"error: htype({args.n},{args.m}) would write {entries} dense matrix entries, "
              "over the limit of 2^22", file=sys.stderr)
        return 2
    htype_algebra.write_json(structure, args.output)
    print(f"wrote verified H-type structure ({args.n},{args.m}) to {args.output}")
    return 0


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert`` the text, then refuse a value failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # a malformed value reads "invalid int value: ..."
    return parse


_EPS = _checked(float, lambda x: x > 0, "> 0")  # NaN fails x > 0 too
_PRECISION = _checked(int, lambda k: 1 <= k <= 12, "in [1, 12]")
_POSITIVE = _checked(int, lambda k: k >= 1, ">= 1")
_TABLE_SIDE = _checked(int, lambda k: 1 <= k <= 30, "in [1, 30]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pleijel",
        description="Certified spectral constants on H-type groups R^(2n) x R^m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eps(p):
        p.add_argument("--eps", type=_EPS, default=1e-8,
                       help="series tolerance (default 1e-8); relative for derived "
                            "constants, absolute enclosure width for c_series")

    p = sub.add_parser("value", help="one constant with certified error bound")
    p.add_argument("n", type=_POSITIVE)
    p.add_argument("m", type=_POSITIVE)
    p.add_argument("quantity", choices=QUANTITIES)
    p.add_argument("--precision", type=_PRECISION, default=4)
    add_eps(p)
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("table", help="emit a full table")
    p.add_argument("quantity", choices=QUANTITIES)
    p.add_argument("--n-max", type=_TABLE_SIDE, default=10)
    p.add_argument("--m-max", type=_TABLE_SIDE, default=10)
    p.add_argument("--format", choices=FORMATS, default="markdown")
    p.add_argument("--precision", type=_PRECISION, default=4)
    p.add_argument("--no-annotations", action="store_true",
                   help="plain numbers only (csv is always plain)")
    add_eps(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="run offline self-check suites")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp from the JSON trailer (deterministic output)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("exceptional", help="classify pairs against the threshold 1")
    p.add_argument("--n-max", type=_POSITIVE, default=10)
    p.add_argument("--m-max", type=_POSITIVE, default=10)
    p.set_defaults(func=_cmd_exceptional)

    p = sub.add_parser("htype", help="export a verified H-type matrix family as JSON")
    p.add_argument("n", type=_POSITIVE)
    p.add_argument("m", type=_POSITIVE)
    p.add_argument("output")
    p.set_defaults(func=_cmd_htype)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except PrecisionUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so the
        # interpreter's own flush at exit cannot fail again (Python docs, signal)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
