"""The oracles: what only ``check`` and the tests call.

Each name here re-derives something the production modules compute, by
an independent route:

* ``gamma_tilde_product_form`` -- the defining product C^(-Q/2) W^-1,
  enclosed from ``sobolev_interval`` and ``weyl_interval``;
* ``weyl_density_bruteforce`` -- the Weyl constant, the spectral density at
  lambda = 1, rebuilt shell by shell: one stream of exact counts times
  powers per pair (``_shell_sum``), stopped and bracketed by ``_min_terms``
  and ``_integral_remainder``;
  ``_summand`` is the tests' direct-summation term;
* ``sphere_area`` -- the area of the unit sphere, a factor of that density;
* ``zeta_interval`` -- Riemann zeta from Borwein's series, summed exactly
  over integers, without the series' Euler-Maclaurin code or tables;
* ``Polynomial`` and ``sublaplacian`` -- the sublaplacian applied to exact
  polynomial test functions;
* ``from_json_dict`` -- an ``htype`` file read back and re-verified.

Of the package's modules only ``checks`` imports this one, so ``value``,
``table``, ``exceptional`` and ``htype`` neither compile nor run it.
"""

import math
import numbers
import sys
from collections.abc import Sized
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, count, islice, repeat, takewhile, tee
from operator import gt, le, mul

from . import constants, htype_algebra, numerics, series, sobolev
from .core import DimPair, Enclosure, Refused, as_pair

__all__ = [
    "gamma_tilde_product_form",
    "weyl_density_bruteforce",
    "sphere_area",
    "zeta_interval",
    "Polynomial",
    "sublaplacian",
    "from_json_dict",
]

LOG_PI = math.log(math.pi)
_LOG_TWO_PI = math.log(2 * math.pi)


# --------------------------------------------------------------------------
# the defining product

def gamma_tilde_product_form(pair) -> Enclosure:
    """Certified enclosure of the defining product C^(-Q/2) W^-1,
    [1/(C_hi^s W_hi), 1/(C_lo^s W_lo)] with s = n + m, built exactly from
    ``sobolev_interval`` and ``weyl_interval``.  The two routes share only
    the series value, so its overlap with ``gamma_tilde_interval``
    isolates the gamma/power algebra.  Refused unless W's lower end is a
    normal float: at or below 0 the upper end is infinite, and a subnormal
    W loses relative accuracy (the product is 10% wide at (1, 234)).
    """
    p = as_pair(pair)
    w = constants.weyl_interval(p)
    if not w.lo >= sys.float_info.min:
        raise Refused(f"gamma_tilde_product_form{p} needs W's lower end to be a normal "
                      f"float, got {w.lo!r}")
    c = sobolev.sobolev_interval(p)
    return numerics._outward(*numerics._ends(1, 1, 0, (c.lo, c.hi, -(p.n + p.m)), (w.lo, w.hi, -1)))


# --------------------------------------------------------------------------
# the series by direct summation

def _summand(n: int, m: int, k: int) -> float:
    """Summand C(k+n-1, k) / (2k+n)^(n+m) as a float, for n, m >= 1 and k >= 0.

    Evaluated as prod_{j<n} (k+j)/(j(2k+n)) * (2k+n)^-(m+1): the partial
    products stay O(1), so nothing overflows for any k, and the relative
    error is <= ~2n machine epsilons (far inside 1e-13).
    """
    d = 2 * k + n
    r = 1.0
    for j in range(1, n):
        r *= (k + j) / (j * d)
    return r * float(d) ** (-(m + 1))


def _integral_remainder(pair, K: int) -> float:
    """Closed form of int_K^inf f(x) dx for the real-extended summand
    f(x) = prod_{j<n}(x+j) / ((n-1)! (2x+n)^(n+m)).

    With u = 2x + n the numerator polynomial becomes
    2^-(n-1) * sum_i b_i u^i, and each power integrates to
    U^(i-n-m+1)/(n+m-i-1) with U = 2K + n.  f is nonincreasing for
    x >= n^2/2 (``_min_terms``), and there

        I(K) <= sum_{k >= K} f(k) <= I(K) + f(K),

    so this is a remainder lower bound only for K >= n^2/2.
    """
    p = as_pair(pair)
    U = float(2 * K + p.n)
    total = 0.0
    for i, b in enumerate(series._shifted_numerator_coeffs(p.n)):
        decay = p.n + p.m - i - 1  # >= m >= 1
        total += b * U ** (-decay) / decay
    return total / (2**p.n * math.factorial(p.n - 1))


def _min_terms(n: int) -> int:
    # past the summand's peak (k >= n^2/2 makes it nonincreasing), as the integral
    # bracket of the direct summations needs, plus a floor of 16
    return max(16, n, n * n // 2 + 1)


def sphere_area(d: int) -> float:
    """Surface measure of the unit d-sphere: 2 pi^((d+1)/2) / Gamma((d+1)/2).
    Refused past d = 437, where it falls below 2^-1022."""
    if d < 0:
        raise ValueError(f"sphere_area needs d >= 0, got {d}")
    if d > 437:
        raise Refused(f"sphere_area({d}) needs d <= 437: past it the area is below 2^-1022")
    h = (d + 1) / 2
    return math.exp(math.log(2) + h * LOG_PI - math.lgamma(h))


def _weyl_prefactor(p: DimPair) -> float:
    s = p.n + p.m
    return math.exp(math.log(sphere_area(p.m - 1)) - s * _LOG_TWO_PI - math.log(s))


def weyl_density_bruteforce(pair) -> float:
    """The Weyl constant rebuilt from first principles, as a cross-check of
    ``weyl_interval``: the on-diagonal spectral density 1(-Delta < lambda)
    at lambda = 1.

    The fibrewise diagonalisation gives Landau levels |tau|(2|k| + n) over
    multi-indices k in N_0^n; for each shell |k| = K the radial tau
    integral is exact:

        int_0^inf tau^(n+m-1) 1(tau (2K+n) < lambda) dtau
            = (lambda/(2K+n))^(n+m) / (n+m),

    and C(K+n-1, K) multi-indices have |k| = K (stars and bars), so the
    density is lambda^(n+m) times the constant omega_(m-1)/((2pi)^(n+m) (n+m))
    times ``_shell_sum``: the series, restructured.  The constant equals
    weyl_interval(pair).mid up to the combined certified error.

    Refused past n + m = 10000, where ``_shell_sum`` or ``sphere_area``
    refuses, and where the constant is not a normal binary64 number.
    """
    p = numerics._bounded_pair("weyl_density_bruteforce", pair)
    if (weyl := _weyl_prefactor(p) * _shell_sum(p.n, p.m)) >= sys.float_info.min:
        return weyl
    raise Refused(f"weyl_density_bruteforce{p} is not a normal float")


def _shell_sum(n: int, m: int) -> float:
    """sum_K C(K+n-1, K) (2K+n)^-(n+m), from one stream of shells: an exact
    count from n - 1 nested running sums times a float power each.

    The stream serves three uses: the stop, the first K >= _min_terms(n)
    whose shell is at most 1e-9 times the running float sum of the shells
    before it; one ``math.fsum`` of the shells before K (one rounding:
    J. R. Shewchuk, Discrete Comput. Geom. 18 (1997)); and the midpoint
    I(K) + f(K)/2 of the integral bracket of the rest.  Refused when a count
    reaches 2^53, inexact in binary64, before the stop (from (5, 1) on).
    """
    counts = repeat(1)  # C(K+n-1, K) is the sum over k <= K of C(k+n-2, k)
    for _ in range(n - 1):
        counts = accumulate(counts)
    powers = map(pow, count(float(n), 2.0), repeat(-(n + m)))  # (2K + n)^-(n+m)
    shells, ahead, kept = tee(map(mul, takewhile(partial(gt, 2**53), counts), powers), 3)
    partials = accumulate(ahead, initial=0.0)  # the sum before each shell
    stops = map(le, shells, map(mul, repeat(1e-9), partials))
    kmin = _min_terms(n)
    K = next(compress(count(kmin), islice(stops, kmin, None)), None)
    if K is None:
        raise Refused(f"the brute-force shell sum at ({n},{m}) needs a count of 2^53 or more")
    return math.fsum(islice(kept, K)) + (_integral_remainder((n, m), K) + next(kept) / 2)


# --------------------------------------------------------------------------
# Riemann zeta

_BORWEIN_K = 24  # terms of Borwein's series, whose remainder is below 3/5^24 < 6e-17
# d_j = sum_{i<=j} k (k+i-1)! 4^i / ((k-i)! (2i)!), j = 0..k: integer summands
_BORWEIN_D = tuple(accumulate(_BORWEIN_K * math.factorial(_BORWEIN_K + i - 1) * 4**i // (
    math.factorial(_BORWEIN_K - i) * math.factorial(2 * i)) for i in range(_BORWEIN_K + 1)))


def zeta_interval(s: int) -> Enclosure:
    """Riemann zeta at an integer s >= 2, enclosed to 1e-15 relative, by
    Borwein's series at k = 24 (P. Borwein, "An efficient algorithm for the
    Riemann zeta function", CMS Conf. Proc. 27, 2000, Algorithm 2):

        zeta(s) (1 - 2^(1-s)) = sum_{j<k} (-1)^j (d_k - d_j) / (d_k (j+1)^s) + g,

    |g| <= 3/(3+sqrt 8)^k < 3/5^k.  Summed over integers on the denominator
    d_k lcm(1..k)^s, each end is exact, then rounded outward: no float, no
    pi and no table of ``series``, so the checks' zeta rows stay independent.
    Refused past s = 10000, the exact constants' size rule.
    """
    if not isinstance(s, numbers.Integral) or s < 2:
        raise ValueError(f"zeta needs an integer s >= 2, got {s!r}")
    if s > 10_000:
        raise Refused(f"zeta_interval({s}) needs s <= 10000")
    s, k, d, L = int(s), _BORWEIN_K, _BORWEIN_D, math.lcm(*range(1, _BORWEIN_K + 1))
    head = sum((d[k] - d[j]) * (L // (j + 1)) ** s * (-1) ** j for j in range(k))
    den, tail = d[k] * L**s, 5**k  # the sum is head / den, and |g| < 3 / tail
    scale = den * tail * ((1 << (s - 1)) - 1)  # zeta(s) = (head/den + g) / (1 - 2^(1-s))
    return numerics._outward(((head * tail - 3 * den) << (s - 1), scale),
                             ((head * tail + 3 * den) << (s - 1), scale))


# --------------------------------------------------------------------------
# exact polynomials, for applying the sublaplacian to test functions

class Polynomial:
    """Sparse exact polynomial in nvars variables (Fraction coefficients)."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        self.nvars = nvars
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        for mono, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[tuple(mono)] = c

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def constant(cls, value, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    def scale(self, value) -> "Polynomial":
        v = Fraction(value)
        return Polynomial(self.nvars, {m: c * v for m, c in self.coeffs.items()})

    def diff(self, i: int) -> "Polynomial":
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, c in self.coeffs.items():
            if mono[i]:
                lowered = tuple(e - 1 if j == i else e for j, e in enumerate(mono))
                out[lowered] = out.get(lowered, Fraction(0)) + c * mono[i]
        return Polynomial(self.nvars, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars \
            and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        bits = [f"{c}*{mono}" for mono, c in sorted(self.coeffs.items())]
        return "Polynomial(" + " + ".join(bits) + ")"


def sublaplacian(s: "htype_algebra.HTypeStructure", u: Polynomial) -> Polynomial:
    """Apply the sublaplacian of ``s`` to a polynomial u in (x, t), exactly:

        Delta = Delta_x + |x|^2/4 Delta_t + sum_j <U^(j) x, grad_x> d_(t_j).

    Variables are ordered x_1..x_(2n), t_1..t_m.  The symbol consists of
    the identity block on x-derivatives, the weight |x|^2/4 on
    t-derivatives, and per central direction the linear vector field
    x -> U^(j) x paired with d/dt_j.
    """
    dx = s.dim_x
    nvars = dx + s.dim_t
    if u.nvars != nvars:
        raise ValueError(f"polynomial must have {nvars} variables")
    out = Polynomial(nvars)
    for i in range(dx):
        out = out + u.diff(i).diff(i)
    lap_t = Polynomial(nvars)
    for j in range(s.dim_t):
        lap_t = lap_t + u.diff(dx + j).diff(dx + j)
    if not lap_t.is_zero():
        weight = {tuple(2 if v == i else 0 for v in range(nvars)): Fraction(1, 4)
                  for i in range(dx)}  # |x|^2 / 4
        out = out + Polynomial(nvars, weight) * lap_t
    for j, P in enumerate(s.family):
        du = u.diff(dx + j)
        if du.is_zero():
            continue
        for i, (p, sign) in enumerate(zip(P.perm, P.signs)):
            di = du.diff(i)
            if not di.is_zero():  # (U^(j) x)_i = sign * x_p, one monomial
                out = out + Polynomial.variable(p, nvars).scale(sign) * di
    return out


# --------------------------------------------------------------------------
# an htype file read back: {"n": int, "m": int, "U": [[[int]]]}

def _from_rows(idx: int, rows, d: int) -> "htype_algebra.SignedPermutation":
    """Dense rows as a signed permutation; raises on shape, entries, skew, orthogonal."""
    if not (isinstance(rows, Sized) and len(rows) == d
            and all(isinstance(row, Sized) and len(row) == d for row in rows)):
        raise ValueError(f"U^({idx}) is not a {d} x {d} matrix")
    if not all(v in (-1, 0, 1) for row in rows for v in row):
        raise ValueError(f"U^({idx}) has entries outside {{-1, 0, 1}}")
    if any(rows[i][k] != -rows[k][i] for i in range(d) for k in range(d)):
        raise ValueError(f"U^({idx}) is not skew-symmetric")
    if any(sum(v * v for v in row) != 1 for row in rows):  # rows of norm 1: one entry each
        raise ValueError(f"U^({idx}) is not orthogonal")
    perm = tuple(k for row in rows for k, v in enumerate(row) if v)
    signs = tuple(int(rows[i][k]) for i, k in enumerate(perm))
    return htype_algebra.SignedPermutation(perm, signs)


def from_json_dict(data: dict) -> "htype_algebra.HTypeStructure":
    """The structure of ``htype_algebra.to_json_dict``'s dict, re-verified."""
    pair = DimPair(int(data["n"]), int(data["m"]))
    family = tuple(_from_rows(idx, U, 2 * pair.n) for idx, U in enumerate(data["U"], 1))
    s = htype_algebra.HTypeStructure(pair=pair, family=family)
    htype_algebra.verify_structure(s)
    return s
