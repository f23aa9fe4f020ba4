"""The ``value`` verb, and the cells of ``table``: one certified cell.

``value`` runs this module through ``cmd_value``; ``table``, through
``render.cmd_table``, and ``check tables`` compute each cell they print or
certify with ``_compute_cell``.  The table half (``TableSpec``,
``render_table``, ``cmd_table``) is ``render``'s, so a ``value`` op compiles
none of it, and ``cells`` imports no ``render``.  The library computes each
enclosure at the binary64 rounding floor, the same for every eps, and
``_compute_cell`` decides ``--eps`` once, on the enclosure it prints, and
raises ``Refused`` where it is wider than eps allows (a value that underflows
binary64 meets no relative eps); a pair out of the series' range raises the
series' ``PrecisionUnreachable``.  Past n + m = 10,000 every quantity but
c_series raises the library's ``Refused``, gamma_bar included, and ``value``
refuses an exact gamma_bar whose reduced numerator or denominator may exceed
the interpreter's integer-to-string digit limit.
``cmd_value`` prints nothing before a refusal; ``cli.main`` prints it.

The library is called through its module attributes, looked up when a
cell is computed, so a wrapped module attribute is the one called.
"""

import math
import sys
from collections import namedtuple

from . import constants, numerics, series, sobolev
from .admissibility import admissible
from .core import DimPair, Enclosure, Refused


class Ratio(namedtuple("Ratio", "numerator denominator")):
    """An exact rational in lowest terms, built without ``fractions``."""

    __slots__ = ()

    def as_integer_ratio(self) -> tuple[int, int]:  # what round_half_away reads
        return self.numerator, self.denominator


# admissibility is the table's shading_mask; exceeds_one is certified: the exact
# value, or the enclosure's lower end, is > 1; exact is gamma_bar's Ratio, else None
Cell = namedtuple("Cell", "n m value display error_bound exceeds_one exact", defaults=(None,))


def _c_enclosure(pair: DimPair) -> Enclosure:
    sv = series.c_series(pair)
    return Enclosure(sv.value, sv.upper)


# every quantity but the exact gamma_bar: pair -> its certified enclosure
_ENCLOSURES = {
    "gamma_tilde": lambda pair: constants.gamma_tilde_interval(pair),
    "sobolev": lambda pair: sobolev.sobolev_interval(pair),
    "weyl": lambda pair: constants.weyl_interval(pair),
    "c_series": _c_enclosure,
}


def _compute_cell(quantity: str, n: int, m: int, precision: int, eps: float) -> Cell:
    pair = DimPair(n, m)
    if quantity == "gamma_bar":
        # gamma_bar_exact's Fraction, without importing fractions (and decimal)
        num, den = constants._gamma_bar_ratio(numerics._bounded_pair("gamma_bar", pair))
        common = math.gcd(num, den)
        exact = Ratio(num // common, den // common)
        return Cell(n=n, m=m, value=exact.numerator / exact.denominator,
                    display=numerics.round_half_away(exact, precision), error_bound=0.0,
                    exceeds_one=num > den, exact=exact)
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
        raise Refused(f"{quantity}({n},{m}) cannot be certified to "
                      f"{'absolute' if absolute else 'relative'} eps={eps:g} "
                      f"in binary64: its enclosure is {list(enc)}")
    return Cell(n=n, m=m, value=mid, display=numerics.round_half_away(mid, precision),
                error_bound=radius, exceeds_one=enc.lo > 1.0)


def cmd_value(args) -> int:
    cell = _compute_cell(args.quantity, args.n, args.m, args.precision, args.eps)
    adm = admissible(DimPair(args.n, args.m)).admissible
    line = cell.display
    if cell.exact is not None:
        # str() refuses integers over the interpreter's digit limit (0: none; no limit
        # before Python 3.10.7); b bits give at most b log10(2) + 1 digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        bits = max(cell.exact.numerator.bit_length(), cell.exact.denominator.bit_length())
        if limit and bits * 30103 // 100000 + 1 > limit:
            raise Refused(f"{args.quantity}({args.n},{args.m}) is exact, but its numerator or "
                          f"denominator may have more than the {limit} digits this interpreter "
                          "prints")
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
