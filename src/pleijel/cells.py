"""The ``value`` verb, and the cells of ``table``: one certified cell.

Only these two verbs run this module: ``value`` through ``cmd_value``, and
``table`` through ``render.cmd_table``, which computes each cell with
``_compute_cell``.  The table half (``TableSpec``, ``render_table``,
``cmd_table``) is ``render``'s, so a ``value`` op compiles none of it, and
``cells`` imports no ``render``.  The library computes each enclosure
at the binary64 rounding floor, the same for every eps, and
``_compute_cell`` decides ``--eps`` once, on the enclosure it prints.  A
certified value that cannot be delivered (its printed enclosure wider
than eps, a pair out of binary64 range, or a value that underflows
binary64 so no relative eps holds) is refused with a one-line message on
stderr and exit 2, as is an exact gamma_bar whose numerator or
denominator may exceed the interpreter's integer-to-string digit limit,
or a sobolev, weyl or gamma_tilde value with n + m > 10,000.

The library is called through its module attributes, looked up when a
cell is computed, so a wrapped module attribute is the one called.
"""

import math
import sys
from collections import namedtuple

from . import constants, numerics, series, sobolev
from .admissibility import admissible
from .core import DimPair, Enclosure, PrecisionUnreachable

_MAX_S = 10_000  # `value` refuses sobolev, weyl and gamma_tilde above this n + m


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
        num, den = constants._gamma_bar_ratio(pair)
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
        raise PrecisionUnreachable(f"{quantity}({n},{m}) cannot be certified to "
                                   f"{'absolute' if absolute else 'relative'} eps={eps:g} "
                                   f"in binary64: its enclosure is {list(enc)}",
                                   best_bound=radius, terms_used=0)
    return Cell(n=n, m=m, value=mid, display=numerics.round_half_away(mid, precision),
                error_bound=radius, exceeds_one=enc.lo > 1.0)


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


def cmd_value(args) -> int:
    if args.quantity in ("sobolev", "weyl", "gamma_tilde") and args.n + args.m > _MAX_S:
        # sobolev_interval's integer work grows like s^1.6: 0.08-0.13 s at the limit (x86-64).
        # weyl and gamma_tilde past it are certain refusals: n >= 2 is out of the
        # series' range ((n+m) log2 n > 1000), and at n = 1 the value underflows
        print(f"error: {args.quantity}({args.n},{args.m}) needs n + m <= {_MAX_S}",
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
