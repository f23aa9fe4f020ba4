"""The classification against the Pleijel threshold 1, and the ``exceptional`` verb.

``exceptional_set`` walks the exact gamma_bar down-set and asks the series
only inside it; ``cmd_exceptional`` prints each exceptional pair with its
certified gamma_tilde interval.  Only ``exceptional`` and ``check`` run this
module, so a ``value`` op compiles none of it.

``constants`` is called through its module attributes, looked up when a
pair is classified, so a wrapped module attribute is the one called.
"""

from . import constants
from .admissibility import radon_hurwitz
from .core import DimPair, Refused

__all__ = ["exceptional_set"]


def exceptional_set(n_max: int, m_max: int) -> list[DimPair]:
    """The admissible pairs of the box [1, n_max] x [1, m_max] with certified
    gamma_tilde >= 1, in walk order (by n, then m).

    gamma_tilde < gamma_bar (c exceeds its k = 0 term), and the exact
    gamma_bar decreases in n and in m (``monotonicity``), so a row stops at
    its first gamma_bar < 1, and the walk at the first row where that is
    m = 1 (n = 7): any box costs about a dozen exact gamma_bar and at most
    7 series evaluations.  A pair before the stop is exceptional iff the
    certified lower end of its gamma_tilde interval is >= 1, safe iff the
    upper end is < 1; an interval straddling 1 raises ``Refused`` rather
    than being decided.
    """
    if n_max < 1 or m_max < 1:
        raise ValueError(f"need n_max, m_max >= 1, got ({n_max}, {m_max})")
    exceptional: list[DimPair] = []
    for n in range(1, n_max + 1):
        # the admissible m are 1..rho(2n) - 1, so a tall box costs nothing extra
        for m in range(1, min(m_max, radon_hurwitz(2 * n) - 1) + 1):
            p = DimPair(n, m)
            num, den = constants._gamma_bar_ratio(p)
            if num < den:
                break
            low, high = constants.gamma_tilde_interval(p)
            if low >= 1.0:
                exceptional.append(p)
            elif high >= 1.0:
                raise Refused(f"gamma_tilde{p} in [{low!r}, {high!r}] straddles the threshold 1")
        if m == 1 and num < den:
            break
    return exceptional


def cmd_exceptional(args) -> int:
    """The ``exceptional`` verb: the exceptional pairs of the box with their intervals.

    Each interval is the certified one with its lower end rounded down and its
    upper end up at 8 decimals, exactly, on the floats' integer ratios (W. Tucker,
    *Validated Numerics*, 2011), so the printed interval contains the enclosure.
    The last line, ``uncertain: none``, is kept for readers of the output: a
    pair that cannot be decided is refused (exit 2) before anything is printed."""
    pairs = exceptional_set(args.n_max, args.m_max)
    print(f"exceptional pairs (certified gamma_tilde >= 1) "
          f"for 1 <= n <= {args.n_max}, 1 <= m <= {args.m_max}:")
    for p in pairs:
        (ln, ld), (hn, hd) = (end.as_integer_ratio() for end in constants.gamma_tilde_interval(p))
        # floor and ceiling of 10^8 times each end; both ends are >= 1
        low, high = ln * 10**8 // ld, -(-hn * 10**8 // hd)
        print(f"  {p}  gamma_tilde in [{low // 10**8}.{low % 10**8:08d}, "
              f"{high // 10**8}.{high % 10**8:08d}]")
    print("uncertain: none")
    return 0
