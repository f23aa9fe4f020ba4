"""The oracles: what only ``check`` and the tests call.

Each name here re-derives something the production modules compute, by
an independent route:

* ``gamma_tilde_product_form`` -- the defining product C^(-Q/2) W^-1,
  enclosed from ``sobolev_interval`` and ``weyl_interval``;
* ``weyl_density_bruteforce`` -- the spectral density rebuilt shell by
  shell, with the series pieces it sums (``_summand``, ``_min_terms``,
  ``_integral_remainder``): each pair's shell counts and stop are built
  once, and each lambda's shells are added by one ``math.fsum``;
* ``sphere_area`` -- the area of the unit sphere, a factor of that density;
* ``zeta_interval`` -- Riemann zeta without the series' Euler-Maclaurin
  code;
* ``Polynomial`` and ``sublaplacian`` -- the sublaplacian applied to exact
  polynomial test functions;
* ``from_json_dict`` -- an ``htype`` file read back and re-verified.

Of the package's modules only ``checks`` imports this one, so ``value``,
``table``, ``exceptional`` and ``htype`` neither compile nor run it.
"""

import math
import numbers
from array import array
from collections.abc import Sized
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, islice, repeat, tee
from operator import le, mul, truediv

from .constants import sobolev_interval, weyl_interval
from .core import DimPair, Enclosure, as_pair
from .htype_algebra import HTypeStructure, SignedPermutation, verify_structure
from .numerics import _PI_HI, _PI_LO, _outward
from .series import _BERNOULLI, _ETA, _POW, _charge, _shifted_numerator_coeffs

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
    isolates the gamma/power algebra.  Where W's lower end underflows to
    0 or below, the upper end is infinite.
    """
    p = as_pair(pair)
    s = p.n + p.m
    c, w = sobolev_interval(p), weyl_interval(p)
    lo = 1 / (Fraction(c.hi) ** s * Fraction(w.hi))
    if w.lo <= 0:
        return Enclosure(math.nextafter(float(lo), -math.inf), math.inf)
    hi = 1 / (Fraction(c.lo) ** s * Fraction(w.lo))
    return _outward(lo.as_integer_ratio(), hi.as_integer_ratio())


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
    for i, b in enumerate(_shifted_numerator_coeffs(p.n)):
        decay = p.n + p.m - i - 1  # >= m >= 1
        total += b * U ** (-decay) / decay
    return total / (2**p.n * math.factorial(p.n - 1))


def _min_terms(n: int) -> int:
    # past the summand's peak (k >= n^2/2 makes it nonincreasing), as the integral
    # bracket of the direct summations needs, plus a floor of 16
    return max(16, n, n * n // 2 + 1)


def sphere_area(d: int) -> float:
    """Surface measure of the unit d-sphere: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if d < 0:
        raise ValueError(f"sphere_area needs d >= 0, got {d}")
    h = (d + 1) / 2
    return math.exp(math.log(2) + h * LOG_PI - math.lgamma(h))


def _weyl_prefactor(p: DimPair) -> float:
    s = p.n + p.m
    return math.exp(math.log(sphere_area(p.m - 1)) - s * _LOG_TWO_PI - math.log(s))


_BRUTEFORCE_EPS = 1e-9  # the shell sum stops at a term <= this times its partial sum


def weyl_density_bruteforce(pair, lam: float) -> float:
    """On-diagonal spectral density 1(-Delta < lambda) rebuilt from first
    principles, as a cross-check of ``weyl_interval``.

    The fibrewise diagonalisation gives Landau levels |tau|(2|k| + n) over
    multi-indices k in N_0^n; for each shell |k| = K the radial tau
    integral is exact:

        int_0^inf tau^(n+m-1) 1(tau (2K+n) < lambda) dtau
            = (lambda/(2K+n))^(n+m) / (n+m),

    so the density is omega_(m-1)/(2pi)^(n+m) times the shell sum of
    C(K+n-1, K) (lambda/(2K+n))^(n+m)/(n+m), where C(K+n-1, K) counts the
    multi-indices with |k| = K (stars and bars).  Shells are
    enumerated directly, independently of the c_series kernel: the sum
    stops at the first K >= _min_terms(n) whose series term is at most
    1e-9 times the partial series sum, and the rest is enclosed by the
    integral bracket (the shell sum *is* the series, restructured); the
    bracket midpoint is used.  The counts and the stop are lambda-free and
    built once per pair (``_bruteforce_shells``); each lambda divides,
    powers and scales its own shells, and ``math.fsum`` adds them with one
    rounding (J. R. Shewchuk, Discrete Comput. Geom. 18 (1997)).

    Equals weyl_interval(pair).mid * lambda^(n+m) up to the combined
    certified error.
    """
    p = as_pair(pair)
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    n, s = p.n, p.n + p.m
    counts, remainder = _bruteforce_shells(n, p.m)
    # (number of multi-indices with |k| = K) * (lam / (2K + n))^s / s, per shell, as
    # many as there are counts; 2K + n and s as the floats the divisions and the power
    # convert them to (a float counter adds integers exactly below 2^53)
    levels = map(truediv, repeat(lam), count(float(n), 2.0))
    sf = float(s)
    total = math.fsum(map(truediv, map(mul, counts, map(pow, levels, repeat(sf))), repeat(sf)))
    total += lam**s * remainder / s
    # omega_(m-1)/(2pi)^(n+m) * total; _weyl_prefactor carries an extra 1/s
    return _weyl_prefactor(p) * s * total


def _summands(n: int, m: int):
    """``_summand(n, m, k)`` for k = 0, 1, 2, ...: the same float operations
    in the same order, each step a ``map`` over unbounded counters."""
    r = repeat(1.0)
    for j in range(1, n):  # (k + j) / (j (2k + n))
        r = map(mul, r, map(truediv, count(j), count(j * n, 2 * j)))
    return map(mul, r, map(pow, count(float(n), 2.0), repeat(-(m + 1))))


@lru_cache(maxsize=16)
def _bruteforce_shells(n: int, m: int) -> tuple[array, float]:
    """The lambda-free part of weyl_density_bruteforce: the count
    C(K+n-1, K) of each shell summed before the stop rule holds, and the
    integral bracket of the series from there on.  The stop is the first
    K >= _min_terms(n) whose summand is at most 1e-9 times the running
    float sum of the summands before it, found without a Python-level loop.
    Each count is kept as the binary64 its product with a float converts it
    to (exact below 2^53: the three pairs ``check`` runs stay under 2^30),
    8 bytes a shell."""
    kmin = _min_terms(n)
    terms, ahead = tee(_summands(n, m))
    partials = accumulate(ahead, initial=0.0)  # the sum before each term
    stops = map(le, terms, map(mul, repeat(_BRUTEFORCE_EPS), partials))
    K = next(compress(count(kmin), islice(stops, kmin, None)))
    counts = repeat(1, K)  # C(K+n-1, K) is the sum over k <= K of C(k+n-2, k)
    for _ in range(n - 1):
        counts = accumulate(counts)
    return array("d", counts), _integral_remainder((n, m), K) + _summand(n, m, K) / 2


# --------------------------------------------------------------------------
# Riemann zeta

@lru_cache(maxsize=None)
def zeta_interval(s: int) -> Enclosure:
    """Riemann zeta at an integer s >= 2, enclosed to 1e-14 relative.

    Even s = 2j <= 24: zeta(2j) = |B_2j| (2 pi)^(2j) / (2 (2j)!), exact at
    both float bounds of pi.  Other s: ``math.fsum`` of j^-s for j < N (each
    pow charged 4 ulps, the sum one rounding) plus the remainder's integral
    bracket [N^(1-s), (N-1)^(1-s)] / (s-1), under 5e-15 wide.  Each end is
    exact, then rounded outward.  No Euler-Maclaurin code is shared with
    ``series``, so the checks' zeta rows stay an independent oracle.
    """
    if not isinstance(s, numbers.Integral) or s < 2:
        raise ValueError(f"zeta needs an integer s >= 2, got {s!r}")
    s = int(s)
    if s % 2 == 0 and s // 2 <= len(_BERNOULLI):
        num, den = _BERNOULLI[s // 2 - 1]
        num, den = abs(num) * 2 ** (s - 1), den * math.factorial(s)
        return _outward((num * _PI_LO[0] ** s, den * _PI_LO[1] ** s),
                        (num * _PI_HI[0] ** s, den * _PI_HI[1] ** s))
    N = math.ceil(2e14 ** (1 / s)) + 2  # bracket width ~ N^-s
    head = math.fsum(map(pow, map(float, range(1, N)), repeat(-float(s))))
    error = Fraction(_charge(_POW + 1, head) + (_POW + 1) * N * _ETA)
    lo = Fraction(head) - error + Fraction(1, (s - 1) * N ** (s - 1))
    hi = Fraction(head) + error + Fraction(1, (s - 1) * (N - 1) ** (s - 1))
    return _outward(lo.as_integer_ratio(), hi.as_integer_ratio())


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


def sublaplacian(s: HTypeStructure, u: Polynomial) -> Polynomial:
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

def _from_rows(idx: int, rows, d: int) -> SignedPermutation:
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
    return SignedPermutation(perm, tuple(int(rows[i][k]) for i, k in enumerate(perm)))


def from_json_dict(data: dict) -> HTypeStructure:
    """The structure of ``htype_algebra.to_json_dict``'s dict, re-verified."""
    pair = DimPair(int(data["n"]), int(data["m"]))
    family = tuple(_from_rows(idx, U, 2 * pair.n) for idx, U in enumerate(data["U"], 1))
    s = HTypeStructure(pair=pair, family=family)
    verify_structure(s)
    return s
