"""Which (n, m) actually carry an H-type group.

A family of m skew-symmetric, orthogonal, pairwise anticommuting matrices
on R^(2n) exists iff m <= rho(2n) - 1, where rho is the classical
Radon-Hurwitz number: writing N = 2^(4a+b) * odd with b in {0, 1, 2, 3},

    rho(N) = 8a + 2^b.

rho depends only on the 2-adic part of N.  Consequences matching the
reference tables cell-for-cell: odd n admits only m = 1 (rho(2 odd) = 2),
n in {2, 6, 10} admit m <= 3, n = 4 admits m <= 7, n = 8 admits m <= 8.
"""

from collections import namedtuple

from .core import as_pair

__all__ = ["AdmissibilityVerdict", "radon_hurwitz", "admissible", "shading_mask"]


def radon_hurwitz(N: int) -> int:
    """Exact rho(N) for N >= 1."""
    if N < 1:
        raise ValueError(f"radon_hurwitz needs N >= 1, got {N}")
    a = (N & -N).bit_length() - 1  # 2-adic valuation
    return 8 * (a // 4) + 2 ** (a % 4)


# max_m = rho_2n - 1, the largest centre dimension possible
AdmissibilityVerdict = namedtuple("AdmissibilityVerdict", "pair admissible rho_2n max_m")


def admissible(pair) -> AdmissibilityVerdict:
    p = as_pair(pair)
    rho = radon_hurwitz(2 * p.n)
    return AdmissibilityVerdict(pair=p, admissible=p.m <= rho - 1, rho_2n=rho, max_m=rho - 1)


def shading_mask(n_max: int, m_max: int) -> list[list[bool]]:
    """Admissibility flags, rows indexed by n = 1..n_max, columns by m.

    True means admissible; the False cells are exactly the grey cells of
    the reference tables.
    """
    if n_max < 1 or m_max < 1:
        raise ValueError(f"need n_max, m_max >= 1, got ({n_max}, {m_max})")
    out = []
    for n in range(1, n_max + 1):
        max_m = radon_hurwitz(2 * n) - 1
        out.append([m <= max_m for m in range(1, m_max + 1)])
    return out
