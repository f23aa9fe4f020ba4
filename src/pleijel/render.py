"""The ``table`` verb: a table of cells in markdown, csv, json or latex.

Only ``table`` runs this module: ``cmd_table`` reads the table's ``TableSpec``
from the parsed arguments, ``render_table`` computes its cells with
``cells._compute_cell`` and renders them in the format asked.  So a ``value``
op compiles none of it.
"""

import math
import sys
from collections import namedtuple

from .admissibility import shading_mask
from .cells import _compute_cell

TableSpec = namedtuple("TableSpec", "quantity n_max m_max fmt precision eps annotations",
                       defaults=(10, 10, "markdown", 4, 1e-8, True))


def _annotated_rows(spec: "TableSpec", cells: "dict[tuple[int, int], Cell]",
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


def _render_markdown(spec: "TableSpec", cells: "dict[tuple[int, int], Cell]") -> str:
    lines = [f"quantity: {spec.quantity} ({spec.precision} decimals; eps {spec.eps:g})", ""]
    header = "| n/m | " + " | ".join(str(m) for m in range(1, spec.m_max + 1)) + " |"
    rule = "|" + "---|" * (spec.m_max + 1)
    lines += [header, rule]
    lines += ["| " + " | ".join(row) + " |"
              for row in _annotated_rows(spec, cells, "**{}**", "({})")]
    if spec.annotations:
        lines += ["", "legend: **value** admissible and > 1; (value) no H-type group"]
    return "\n".join(lines) + "\n"


def _render_csv(spec: "TableSpec", cells: "dict[tuple[int, int], Cell]") -> str:
    lines = ["n,m,value,error_bound,admissible"]
    mask = shading_mask(spec.n_max, spec.m_max)
    for n in range(1, spec.n_max + 1):
        for m in range(1, spec.m_max + 1):
            c = cells[n, m]
            lines.append(f"{n},{m},{c.display},{c.error_bound:.3e},"
                         f"{str(mask[n - 1][m - 1]).lower()}")
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    # json's text for a float: its repr, and json's names for the non-finite
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _render_json(spec: "TableSpec", cells: "dict[tuple[int, int], Cell]") -> str:
    # json.dumps(payload, indent=1) byte for byte, written directly (json indents in
    # pure Python); the strings are names and digits, which json leaves as they are
    ordered = [cells[key] for key in sorted(cells)]
    mask = shading_mask(spec.n_max, spec.m_max)
    objects = []
    for c in ordered:
        exact = ("" if c.exact is None else
                 f',\n   "exact": "{c.exact.numerator}/{c.exact.denominator}"')
        objects.append(
            f'  {{\n   "n": {c.n},\n   "m": {c.m},\n   "value": {_json_float(c.value)},\n'
            f'   "display": "{c.display}",\n   "error_bound": {_json_float(c.error_bound)},\n'
            f'   "admissible": {str(mask[c.n - 1][c.m - 1]).lower()},\n'
            f'   "exceeds_one": {str(c.exceeds_one).lower()}{exact}\n  }}')
    return (f'{{\n "quantity": "{spec.quantity}",\n "n_max": {spec.n_max},\n'
            f' "m_max": {spec.m_max},\n "precision": {spec.precision},\n'
            f' "eps": {_json_float(spec.eps)},\n'
            f' "cells": [\n' + ",\n".join(objects) + "\n ]\n}\n")


def _render_latex(spec: "TableSpec", cells: "dict[tuple[int, int], Cell]") -> str:
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


RENDERERS = {
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
    return RENDERERS[spec.fmt](spec, cells)


def cmd_table(args) -> int:
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
