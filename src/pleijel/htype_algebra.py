"""Explicit H-type structures: the defining matrices, the group law, and
the sublaplacian symbol.

An H-type structure on R^(2n) x R^m is a family U^(1..m) of 2n x 2n
matrices that are skew-symmetric, orthogonal, and pairwise anticommuting.
The construction here realises a maximal family of signed permutations,
(U x)_i = signs[i] * x[perm[i]], so products, Kronecker products and all
three axioms are O(d) integer operations:

* dimension 2:  the rotation J = [[0, -1], [1, 0]];
* dimension 4:  left multiplication by i, j, k on the quaternions;
* dimension 8:  doubling -- diag-extend the quaternion lefts, add the
  symplectic block, and extend by P tensor (quaternion *rights*), which
  commute with the lefts by associativity;
* dimension 16: doubling of the 8-family (no complement needed);
* dimension 2^v, v >= 5: the product omega of the eight 16-dimensional
  matrices is symmetric, orthogonal, and anticommutes with each factor,
  so {B tensor I} + {omega tensor A} glues the 16-family to the family
  four steps down (the period-8 step rho(16 N) = 8 + rho(N));
* general 2n = 2^v * odd: tensor each family member with the odd-size
  identity.

The family size matches the Radon-Hurwitz maximum rho(2n) - 1 at every
even dimension, so construction succeeds exactly on admissible pairs.
For m = 1 the canonical symplectic block [[0, -I_n], [I_n, 0]] is
returned directly.  ``SignedPermutation.rows`` gives a member's dense
integer matrix.

The group law on R^(2n) x R^m is

    (x, t) o (xi, tau) = (x + xi, ..., t_j + tau_j + <U^(j) x, xi>/2, ...)

with one central coordinate per matrix; it is evaluated in exact rational
arithmetic whenever the inputs are rational.  The sublaplacian

    Delta = Delta_x + |x|^2/4 Delta_t + sum_j <U^(j) x, grad_x> d_(t_j)

is applied by ``sublaplacian`` to polynomial test functions, exactly.
"""

from __future__ import annotations

import operator
from collections.abc import Sized
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from .admissibility import admissible
from .core import DimPair, InadmissiblePair, as_pair

__all__ = [
    "SignedPermutation",
    "HTypeStructure",
    "GroupElement",
    "Polynomial",
    "construct",
    "verify_structure",
    "group_mul",
    "sublaplacian",
    "to_json_dict",
    "from_json_dict",
    "write_json",
]


class SignedPermutation(NamedTuple):
    """The matrix with the single entry signs[i] at (i, perm[i]) in row i."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @classmethod
    def identity(cls, d: int) -> SignedPermutation:
        return cls(tuple(range(d)), (1,) * d)

    def __matmul__(self, other: SignedPermutation) -> SignedPermutation:
        return SignedPermutation(tuple(other.perm[p] for p in self.perm),
                                 tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs)))

    def kron(self, other: SignedPermutation) -> SignedPermutation:
        b = len(other.perm)
        return SignedPermutation(tuple(p * b + q for p in self.perm for q in other.perm),
                                 tuple(s * t for s in self.signs for t in other.signs))

    def is_skew(self) -> bool:
        """U^T = -U: perm is an involution whose 2-cycles carry opposite signs."""
        p, s = self.perm, self.signs
        return all(p[p[i]] == i and s[p[i]] == -s[i] for i in range(len(p)))

    def anticommutes(self, other: SignedPermutation) -> bool:
        """U V = -V U: the two perms commute and the products' signs are opposite."""
        p, s, q, t = self.perm, self.signs, other.perm, other.signs
        return all(q[p[i]] == p[q[i]] and s[i] * t[p[i]] == -t[i] * s[q[i]]
                   for i in range(len(p)))

    def rows(self) -> list[list[int]]:
        return [[s if k == p else 0 for k in range(len(self.perm))]
                for p, s in zip(self.perm, self.signs)]


_J = SignedPermutation((1, 0), (-1, 1))  # [[0, -1], [1, 0]]
_P = SignedPermutation((1, 0), (1, 1))  # [[0, 1], [1, 0]]
_Q = SignedPermutation((0, 1), (1, -1))  # [[1, 0], [0, -1]]

# quaternion basis (1, i, j, k): _QMUL[a][b] = (sign, c) with e_a e_b = sign e_c
_QMUL = {
    0: {0: (1, 0), 1: (1, 1), 2: (1, 2), 3: (1, 3)},
    1: {0: (1, 1), 1: (-1, 0), 2: (1, 3), 3: (-1, 2)},
    2: {0: (1, 2), 1: (-1, 3), 2: (-1, 0), 3: (1, 1)},
    3: {0: (1, 3), 1: (1, 2), 2: (-1, 1), 3: (-1, 0)},
}


def _quaternion(a: int, side: str) -> SignedPermutation:
    """Left (x -> e_a x) or right (x -> x e_a) multiplication: e_b lands on sign e_c."""
    perm, signs = [0] * 4, [0] * 4
    for b in range(4):
        sign, c = _QMUL[a][b] if side == "left" else _QMUL[b][a]
        perm[c], signs[c] = b, sign
    return SignedPermutation(tuple(perm), tuple(signs))


@lru_cache(maxsize=None)
def _hurwitz_radon_family(v: int) -> tuple[SignedPermutation, ...]:
    """Maximal anticommuting skew orthogonal family on R^(2^v)."""
    if v == 1:
        return (_J,)
    if v == 2:
        return tuple(_quaternion(a, "left") for a in (1, 2, 3))
    if v == 3:
        return (tuple(_Q.kron(_quaternion(a, "left")) for a in (1, 2, 3))
                + (_J.kron(SignedPermutation.identity(4)),)
                + tuple(_P.kron(_quaternion(a, "right")) for a in (1, 2, 3)))
    if v == 4:
        return (tuple(_Q.kron(B) for B in _hurwitz_radon_family(3))
                + (_J.kron(SignedPermutation.identity(8)),))
    sixteen = _hurwitz_radon_family(4)
    omega = reduce(operator.matmul, sixteen)
    eye = SignedPermutation.identity(1 << (v - 4))
    return (tuple(B.kron(eye) for B in sixteen)
            + tuple(omega.kron(A) for A in _hurwitz_radon_family(v - 4)))


class HTypeStructure(NamedTuple):
    """An explicit family of signed permutation matrices realising an H-type group."""

    pair: DimPair
    family: tuple[SignedPermutation, ...]

    @property
    def dim_x(self) -> int:
        return 2 * self.pair.n

    @property
    def dim_t(self) -> int:
        return self.pair.m


def verify_structure(s: HTypeStructure) -> None:
    """Exact integer verification of all defining axioms, O(d) each; raises ValueError."""
    d = s.dim_x
    if len(s.family) != s.pair.m:
        raise ValueError(f"expected {s.pair.m} matrices, got {len(s.family)}")
    for idx, P in enumerate(s.family, 1):
        # orthogonal: perm is a bijection of range(d) and every sign is +-1
        if sorted(P.perm) != list(range(d)) or len(P.signs) != d or set(P.signs) - {-1, 1}:
            raise ValueError(f"U^({idx}) is not an orthogonal {d} x {d} signed permutation")
        if not P.is_skew():
            raise ValueError(f"U^({idx}) is not skew-symmetric")
    for i in range(len(s.family)):
        for j in range(i + 1, len(s.family)):
            if not s.family[i].anticommutes(s.family[j]):
                raise ValueError(f"U^({i + 1}) and U^({j + 1}) do not anticommute")


def construct(pair) -> HTypeStructure:
    """Build and verify an integer H-type structure for an admissible pair.

    Raises InadmissiblePair (citing rho(2n)) when none exists.
    """
    p = as_pair(pair)
    verdict = admissible(p)
    if not verdict.admissible:
        raise InadmissiblePair(p, verdict.rho_2n)
    if p.m == 1:
        family: tuple[SignedPermutation, ...] = (_J.kron(SignedPermutation.identity(p.n)),)
    else:
        two_n = 2 * p.n
        v = (two_n & -two_n).bit_length() - 1
        eye_odd = SignedPermutation.identity(two_n >> v)
        family = tuple(F.kron(eye_odd) for F in _hurwitz_radon_family(v)[: p.m])
    s = HTypeStructure(pair=p, family=family)
    verify_structure(s)
    return s


class GroupElement(NamedTuple):
    """A point (x, t) with len(x) = 2n and len(t) = m.

    Coordinates may be ints, Fractions, or floats; group operations stay
    exact on rational inputs.
    """

    x: tuple
    t: tuple


def _check_dims(s: HTypeStructure, g: GroupElement) -> None:
    if len(g.x) != s.dim_x or len(g.t) != s.dim_t:
        raise ValueError(
            f"element dimensions ({len(g.x)}, {len(g.t)}) do not match "
            f"structure ({s.dim_x}, {s.dim_t})"
        )


def group_mul(s: HTypeStructure, a: GroupElement, b: GroupElement) -> GroupElement:
    """(x, t) o (xi, tau) with the half-commutator correction <U x, xi>/2."""
    _check_dims(s, a)
    _check_dims(s, b)
    # tuple() of a generator allocates a guessed size and resizes it, so freed
    # results of the final size pile up unused on CPython's tuple free list;
    # tuple() of a list allocates the exact size and reuses them
    x = tuple([xa + xb for xa, xb in zip(a.x, b.x)])
    t = []
    for j, P in enumerate(s.family):
        # <U x, xi> = sum_i xi_i signs[i] x_perm[i]: d terms
        corr = sum(xi * (sign * a.x[p]) for xi, p, sign in zip(b.x, P.perm, P.signs))
        half = Fraction(1, 2) if isinstance(corr, (int, Fraction)) else 0.5
        t.append(a.t[j] + b.t[j] + half * corr)
    return GroupElement(x=x, t=tuple(t))


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
    """Apply the sublaplacian of ``s`` to a polynomial u in (x, t), exactly.

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
# JSON export: {"n": int, "m": int, "U": [[[int]]]}

def to_json_dict(s: HTypeStructure) -> dict:
    return {"n": s.pair.n, "m": s.pair.m, "U": [P.rows() for P in s.family]}


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
    pair = DimPair(int(data["n"]), int(data["m"]))
    family = tuple(_from_rows(idx, U, 2 * pair.n) for idx, U in enumerate(data["U"], 1))
    s = HTypeStructure(pair=pair, family=family)
    verify_structure(s)
    return s


def write_json(s: HTypeStructure, path) -> None:
    """Re-verify and serialise; never writes an unverified structure.

    Writes the text of ``json.dump(to_json_dict(s), fh, indent=1)`` and a
    newline, one matrix at a time (json indents in pure Python).
    """
    verify_structure(s)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "n": {s.pair.n},\n "m": {s.pair.m},\n "U": [')
        separator = "\n"
        for P in s.family:
            rows = ",\n".join("   [\n" + ",\n".join(f"    {v}" for v in row) + "\n   ]"
                              for row in P.rows())
            fh.write(f"{separator}  [\n{rows}\n  ]")
            separator = ",\n"
        fh.write("\n ]\n}\n")
