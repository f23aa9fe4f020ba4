"""Checks one op's output against the oracle.

An op fails if it exits with a traceback or an unexpected code, if a
printed enclosure misses the oracle, if displayed digits differ from the
oracle's half-away rounding (cells whose oracle lies within the certified
width of a rounding tie are skipped), or if a printed error_bound is wider
than --eps promises or than the one recorded at the seed in
error_bounds.json.  Every workload op
is served at the seed, so a typed refusal (exit 2) of one fails it; only
the known-defect probes count a typed refusal as served.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
from workloads import Op, admissible_pairs, box, option

SUITES = ("tables", "consistency", "monotonicity", "admissibility", "algebra")
EXCEPTIONAL_10x10 = {(1, 1), (2, 1), (3, 1), (2, 2)}
BOUNDS_FILE = Path(__file__).with_name("error_bounds.json")

# error_bound is printed as %.3e: the true bound is at most half a unit in
# the last printed digit above it.
PRINTED_BOUND_SLACK = Fraction(10005, 10000)
# exceptional prints interval ends with 8 decimals.
EIGHT_DECIMALS = Fraction(5, 10**9)
# The promise --eps makes: a certified width of at most eps, absolute for
# c_series and relative elsewhere, plus the package's 1e-10 relative slack
# for its binary64 gamma/power factors.
FLOAT_SLACK = Fraction(1, 10**10)


@dataclass
class Outcome:
    """What one op did: exit code, output streams and, for htype, the file it wrote."""

    op: Op
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    written: str | None = None
    maxrss_kb: int = 0

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


class Mismatch(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def load_bounds() -> dict[str, list[float]]:
    return json.loads(BOUNDS_FILE.read_text())


def failure(res: Outcome, bounds: dict[str, list[float]],
            refusal_served: bool = False) -> str | None:
    """None if the op was served correctly, else why it failed.

    ``refusal_served`` lets a typed refusal (exit 2) count as served; only
    the known-defect probes pass it, since every workload op exits 0 at the
    seed and a refusal there would look like a very fast op.
    """
    if res.traceback:
        return "traceback: " + res.stderr.strip().splitlines()[-1]
    if res.exit_code == 2:
        return None if refusal_served else "refused (exit 2): " + res.stderr.strip()[-200:]
    if res.exit_code != 0:
        return f"exit code {res.exit_code}"
    try:
        ebs = CHECKERS[res.op.verb](res)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    recorded = bounds.get(res.op.key)
    if recorded is not None and ebs is not None:
        if len(recorded) != len(ebs):
            return f"{len(ebs)} error bounds printed, {len(recorded)} recorded"
        wider = [i for i, (new, old) in enumerate(zip(ebs, recorded)) if new > old]
        if wider:
            i = wider[0]
            return f"error_bound widened at {len(wider)} cells, first: {ebs[i]!r} > {recorded[i]!r}"
    return None


# --------------------------------------------------------------------------
# numbers


def _tie_tolerance(quantity: str, x: Fraction, eps: float) -> Fraction | None:
    """Width within which a correct program may round either way.

    gamma_bar is exact, so no tie is skipped.  Elsewhere the certified
    width is at most eps relative (absolute for c_series) plus the
    package's float slacks, all below (eps + 1e-9) * (x + 1).
    """
    if quantity == "gamma_bar":
        return None
    return (Fraction(eps) + Fraction(1, 10**9)) * (abs(x) + 1)


def _check_display(where: str, display: str, x: Fraction, decimals: int,
                   tol: Fraction | None) -> None:
    if tol is not None and oracle.near_rounding_tie(x, decimals, tol):
        return
    want = oracle.round_half_away(x, decimals)
    expect(display == want, f"{where}: displays {display}, oracle rounds to {want}")


def _clear_of_one(x: Fraction, tol: Fraction | None) -> bool:
    return tol is None or abs(x - 1) > tol


def _check_enclosure(where: str, quantity: str, x: Fraction, value: float, eb: float,
                     exact: str | None, eps: float) -> None:
    if quantity == "gamma_bar":
        expect(exact == f"{x.numerator}/{x.denominator}", f"{where}: exact value {exact} is wrong")
        expect(value == float(x), f"{where}: value {value!r} is not the rounded exact value")
        return
    expect(abs(Fraction(value) - x) <= Fraction(eb) * PRINTED_BOUND_SLACK,
           f"{where}: [{value!r} +- {eb:.3e}] misses the oracle {float(x)!r}")
    half = Fraction(eps) / 2
    promised = half if quantity == "c_series" else (half + FLOAT_SLACK) * abs(x)
    expect(Fraction(eb) <= promised * PRINTED_BOUND_SLACK,
           f"{where}: error_bound {eb:.3e} is wider than eps {eps:g} allows ({float(promised):.3e})")


# --------------------------------------------------------------------------
# verbs; each returns the printed error bounds (None if none are printed)


def _check_value(res: Outcome) -> list[float]:
    args = res.op.args
    n, m, quantity = int(args[1]), int(args[2]), args[3]
    eps = float(option(args, "--eps", "1e-8"))
    decimals = int(option(args, "--precision", "4"))
    first, trailer = res.stdout.splitlines()
    fields = dict(f.split("=", 1) for f in trailer.removeprefix("# ").split())
    x = oracle.to_fraction(oracle.value(quantity, n, m))
    adm = oracle.admissible(n, m)
    where = f"value {n} {m} {quantity}"
    expect(fields["admissible"] == ("yes" if adm else "no"), f"{where}: admissibility is wrong")
    expect(first.endswith("[inadmissible: no H-type group]") != adm,
           f"{where}: inadmissible tag is wrong")
    value, eb = float(fields["value"]), float(fields["error_bound"])
    exact = re.search(r"\(= (\d+/\d+)\)", first)
    _check_enclosure(where, quantity, x, value, eb, exact and exact.group(1), eps)
    _check_display(where, first.split()[0], x, decimals, _tie_tolerance(quantity, x, eps))
    return [eb]


@dataclass
class _Cell:
    display: str
    flagged: bool | None = None  # bold/red highlight, where the format shows it
    admissible: bool | None = None
    value: float | None = None
    error_bound: float | None = None
    exact: str | None = None
    exceeds_one: bool | None = None


def _annotated_markdown(text: str) -> _Cell:
    inadm = text.startswith("(") and text.endswith(")")
    text = text[1:-1] if inadm else text
    bold = text.startswith("**") and text.endswith("**")
    return _Cell(text.strip("*"), flagged=bold, admissible=not inadm)


def _annotated_latex(text: str) -> _Cell:
    inadm = text.startswith(r"\cellcolor{gray!50}")
    text = text.removeprefix(r"\cellcolor{gray!50}")
    red = text.startswith(r"\textcolor{red}{")
    text = text.removeprefix(r"\textcolor{red}{").removesuffix("}") if red else text
    return _Cell(text, flagged=red, admissible=not inadm)


def _grid_rows(lines, sep: str, parse) -> dict[tuple[int, int], _Cell]:
    cells = {}
    for line in lines:
        parts = [p.strip() for p in line.split(sep)]
        if parts and parts[0].isdigit():
            n = int(parts[0])
            for m, text in enumerate(parts[1:], start=1):
                cells[n, m] = parse(text)
    return cells


def _parse_markdown(out: str):
    rows = [line.strip("|") for line in out.splitlines() if line.startswith("| ")]
    return _grid_rows(rows, "|", _annotated_markdown)


def _parse_latex(out: str):
    rows = [line.removesuffix(r" \\ \hline") for line in out.splitlines()
            if line.endswith(r"\\ \hline") and line[:1].isdigit()]
    return _grid_rows(rows, "&", _annotated_latex)


def _parse_csv(out: str):
    lines = out.splitlines()
    expect(lines[0] == "n,m,value,error_bound,admissible", "csv header is wrong")
    cells = {}
    for line in lines[1:]:
        n, m, display, eb, adm = line.split(",")
        cells[int(n), int(m)] = _Cell(display, admissible={"true": True, "false": False}[adm],
                                      error_bound=float(eb))
    return cells


def _parse_json(out: str):
    return {(c["n"], c["m"]): _Cell(c["display"], admissible=c["admissible"], value=c["value"],
                                    error_bound=c["error_bound"], exact=c.get("exact"),
                                    exceeds_one=c["exceeds_one"])
            for c in json.loads(out)["cells"]}


_PARSERS = {"markdown": _parse_markdown, "latex": _parse_latex, "csv": _parse_csv,
            "json": _parse_json}


def _check_table(res: Outcome) -> list[float] | None:
    args = res.op.args
    quantity = args[1]
    n_max, m_max = box(args)
    fmt = option(args, "--format", "markdown")
    eps = float(option(args, "--eps", "1e-8"))
    decimals = int(option(args, "--precision", "4"))
    cells = _PARSERS[fmt](res.stdout)
    expect(set(cells) == {(n, m) for n in range(1, n_max + 1) for m in range(1, m_max + 1)},
           f"table {quantity}: cells do not cover the {n_max}x{m_max} box")
    ebs = []
    for (n, m), cell in sorted(cells.items()):
        where = f"table {quantity} {fmt} ({n},{m})"
        x = oracle.to_fraction(oracle.value(quantity, n, m))
        adm = oracle.admissible(n, m)
        tol = _tie_tolerance(quantity, x, eps)
        expect(cell.admissible == adm, f"{where}: admissibility is wrong")
        _check_display(where, cell.display, x, decimals, tol)
        if cell.flagged is not None and _clear_of_one(x, tol):
            expect(cell.flagged == (adm and x > 1), f"{where}: highlight is wrong")
        if cell.exceeds_one is not None and _clear_of_one(x, tol):
            expect(cell.exceeds_one == (x > 1), f"{where}: exceeds_one is wrong")
        if cell.value is not None:
            _check_enclosure(where, quantity, x, cell.value, cell.error_bound, cell.exact, eps)
        if cell.error_bound is not None:
            ebs.append(cell.error_bound)
    return ebs if fmt in ("csv", "json") else None


_EXCEPTIONAL_LINE = re.compile(r"  \((\d+),(\d+)\)  gamma_tilde in \[([0-9.]+), ([0-9.]+)\]")


def _check_exceptional(res: Outcome) -> None:
    n_max, m_max = box(res.op.args)
    lines = res.stdout.splitlines()
    expect(lines[0] == "exceptional pairs (certified gamma_tilde >= 1) "
                       f"for 1 <= n <= {n_max}, 1 <= m <= {m_max}:", "exceptional: bad header")
    found = {}
    for line in lines[1:-1]:
        hit = _EXCEPTIONAL_LINE.fullmatch(line)
        expect(hit is not None, f"exceptional: unexpected line {line!r}")
        n, m, lo, hi = hit.groups()
        found[int(n), int(m)] = (Fraction(lo), Fraction(hi))
    expect(lines[-1] == "uncertain: none", "exceptional: uncertain pairs reported")
    want = {p for p in admissible_pairs(n_max, m_max)
            if oracle.to_fraction(oracle.gamma_tilde(*p)) >= 1}
    if (n_max, m_max) == (10, 10):
        expect(want == EXCEPTIONAL_10x10, "exceptional: oracle disagrees with the paper")
    expect(set(found) == want, f"exceptional: got {sorted(found)}, oracle says {sorted(want)}")
    for (n, m), (lo, hi) in found.items():
        x = oracle.to_fraction(oracle.gamma_tilde(n, m))
        expect(lo - EIGHT_DECIMALS <= x <= hi + EIGHT_DECIMALS,
               f"exceptional ({n},{m}): [{lo}, {hi}] misses the oracle {float(x)!r}")


def _check_check(res: Outcome) -> None:
    lines = res.stdout.splitlines()
    verdicts = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    expect(verdicts == [f"PASS {s}" for s in SUITES], f"check: verdicts {verdicts}")
    report = json.loads(lines[-1])
    expect(report["passed"] is True and "timestamp" not in report,
           "check: trailer not passed or carries a timestamp")
    expect(tuple(s["name"] for s in report["suites"]) == SUITES, "check: trailer suites differ")


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _check_htype(res: Outcome) -> None:
    n, m = int(res.op.args[1]), int(res.op.args[2])
    expect(res.stdout == f"wrote verified H-type structure ({n},{m}) to {res.op.output}\n",
           f"htype {n} {m}: unexpected stdout")
    data = json.loads(res.written)
    mats = data["U"]
    d = 2 * n
    expect((data["n"], data["m"], len(mats)) == (n, m, m), f"htype {n} {m}: wrong shape")
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    zero = [[0] * d for _ in range(d)]
    for a, U in enumerate(mats):
        expect(len(U) == d and all(len(r) == d and set(r) <= {-1, 0, 1} for r in U),
               f"htype {n} {m}: U{a} is not a {d}x{d} matrix over -1, 0, 1")
        expect(all(U[i][j] == -U[j][i] for i in range(d) for j in range(d)),
               f"htype {n} {m}: U{a} is not skew")
        expect(_matmul([list(c) for c in zip(*U)], U) == eye, f"htype {n} {m}: U{a} not orthogonal")
        for b in range(a):
            V = mats[b]
            anti = [[x + y for x, y in zip(r, s)] for r, s in zip(_matmul(U, V), _matmul(V, U))]
            expect(anti == zero, f"htype {n} {m}: U{a}, U{b} do not anticommute")


CHECKERS = {
    "value": _check_value,
    "table": _check_table,
    "exceptional": _check_exceptional,
    "check": _check_check,
    "htype": _check_htype,
}
