"""Shared value types and exceptions.

Everything in this package is parameterised by a dimension pair (n, m):
the underlying group is R^(2n) x R^m, where 2n is the dimension of the
horizontal layer and m the dimension of the centre.  The homogeneous
dimension is Q = 2n + 2m.  A request the package declines raises
``Refused`` or ``InadmissiblePair``, which ``cli.main`` alone prints.
"""

import math
import operator
from collections import namedtuple

__all__ = ["DimPair", "Enclosure", "InadmissiblePair", "PrecisionUnreachable", "Refused"]


class Refused(RuntimeError):
    """A well-formed request the package declines; its message says why."""


class PrecisionUnreachable(Refused):
    """The series kernel's refusal, raised by ``series`` alone: an eps below the
    enclosure's binary64 rounding floor (``terms_used`` is the head's length),
    or a pair out of binary64 range (``terms_used`` is 0)."""

    def __init__(self, message: str, terms_used: int):
        super().__init__(message)
        self.terms_used = terms_used


class InadmissiblePair(ValueError):
    """No H-type group exists for this (n, m); carries rho(2n)."""

    def __init__(self, pair: "DimPair", rho_2n: int):
        super().__init__(
            f"no H-type group with (n, m) = ({pair.n}, {pair.m}): "
            f"rho(2n) = rho({2 * pair.n}) = {rho_2n} allows at most m = {rho_2n - 1}"
        )
        self.pair = pair
        self.rho_2n = rho_2n


class DimPair(namedtuple("DimPair", "n m")):
    """Dimension parameters of an H-type group R^(2n) x R^m.

    n: half the dimension of the horizontal layer (which is always even).
    m: dimension of the centre.

    A tuple: DimPair(2, 1) == (2, 1), with the same order and hash.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        # bool is an int subclass; DimPair(True, True) would alias (1, 1)
        if type(n) is bool or type(m) is bool or not (isinstance(n, int) and isinstance(m, int)):
            raise TypeError(f"n, m must be ints, got ({n!r}, {m!r})")
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got ({n}, {m})")
        return tuple.__new__(cls, (n, m))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate there too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"({self.n},{self.m})"


def as_pair(pair) -> DimPair:
    """Coerce a DimPair or an (n, m) tuple of integers (``operator.index``) to DimPair."""
    if isinstance(pair, DimPair):
        return pair
    n, m = pair
    if isinstance(n, bool) or isinstance(m, bool):  # operator.index(True) is 1
        raise TypeError(f"n, m must be integers, got ({n!r}, {m!r})")
    return DimPair(operator.index(n), operator.index(m))


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """A certified interval [lo, hi] with binary64 ends: the true value lies in it."""

    __slots__ = ()

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> float:
        """Rounded up, so that mid +- radius covers [lo, hi] exactly."""
        mid = self.mid
        return math.nextafter(max(self.hi - mid, mid - self.lo), math.inf)
