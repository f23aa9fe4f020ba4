"""Explicit H-type structures: the defining matrices, the group law, and
the sublaplacian symbol.

An H-type structure on R^(2n) x R^m is a family U^(1..m) of 2n x 2n
matrices that are skew-symmetric, orthogonal, and pairwise anticommuting.
The construction here realises a maximal family with entries in
{-1, 0, 1}, so all three axioms can be verified in exact integer
arithmetic:

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
returned directly.

The group law on R^(2n) x R^m is

    (x, t) o (xi, tau) = (x + xi, ..., t_j + tau_j + <U^(j) x, xi>/2, ...)

with one central coordinate per matrix; it is evaluated in exact rational
arithmetic whenever the inputs are rational.  The sublaplacian symbol

    Delta = Delta_x + |x|^2/4 Delta_t + sum_j <U^(j) x, grad_x> d_(t_j)

is exposed as exact coefficient data that can be applied to polynomial
test functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import TYPE_CHECKING

from .admissibility import admissible
from .core import DimPair, InadmissiblePair, as_pair

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HTypeStructure",
    "GroupElement",
    "Polynomial",
    "SublaplacianCoefficients",
    "construct",
    "verify_structure",
    "group_mul",
    "group_identity",
    "group_inverse",
    "jz_map",
    "sublaplacian_coefficients",
    "to_json_dict",
    "from_json_dict",
    "write_json",
]

# numpy is imported by the functions that build or verify matrices, so
# importing this module (and the CLI) does not load it
_R2 = ((0, -1), (1, 0))
_P2 = ((0, 1), (1, 0))
_Q2 = ((1, 0), (0, -1))

# quaternion basis (1, i, j, k): _QMUL[a][b] = (sign, c) with e_a e_b = sign e_c
_QMUL = {
    0: {0: (1, 0), 1: (1, 1), 2: (1, 2), 3: (1, 3)},
    1: {0: (1, 1), 1: (-1, 0), 2: (1, 3), 3: (-1, 2)},
    2: {0: (1, 2), 1: (-1, 3), 2: (-1, 0), 3: (1, 1)},
    3: {0: (1, 3), 1: (1, 2), 2: (-1, 1), 3: (-1, 0)},
}


def _quat_matrix(a: int, side: str) -> np.ndarray:
    """Matrix of left (x -> e_a x) or right (x -> x e_a) multiplication."""
    import numpy as np

    M = np.zeros((4, 4), dtype=np.int64)
    for b in range(4):
        sign, c = _QMUL[a][b] if side == "left" else _QMUL[b][a]
        M[c, b] = sign
    return M


@lru_cache(maxsize=None)
def _hurwitz_radon_family(v: int) -> tuple[np.ndarray, ...]:
    """Maximal anticommuting skew orthogonal family on R^(2^v)."""
    import numpy as np

    R2, P2, Q2 = (np.array(M, dtype=np.int64) for M in (_R2, _P2, _Q2))
    if v == 1:
        fam: tuple[np.ndarray, ...] = (R2,)
    elif v == 2:
        fam = tuple(_quat_matrix(a, "left") for a in (1, 2, 3))
    elif v == 3:
        lefts = [_quat_matrix(a, "left") for a in (1, 2, 3)]
        rights = [_quat_matrix(a, "right") for a in (1, 2, 3)]
        eye4 = np.eye(4, dtype=np.int64)
        fam = (
            tuple(np.kron(Q2, L) for L in lefts)
            + (np.kron(R2, eye4),)
            + tuple(np.kron(P2, R) for R in rights)
        )
    elif v == 4:
        base = _hurwitz_radon_family(3)
        fam = tuple(np.kron(Q2, B) for B in base) + (np.kron(R2, np.eye(8, dtype=np.int64)),)
    else:
        sixteen = _hurwitz_radon_family(4)
        omega = reduce(np.matmul, sixteen)
        small = _hurwitz_radon_family(v - 4)
        eye_small = np.eye(1 << (v - 4), dtype=np.int64)
        fam = tuple(np.kron(B, eye_small) for B in sixteen) + tuple(
            np.kron(omega, A) for A in small
        )
    for M in fam:
        M.setflags(write=False)
    return fam


@dataclass(frozen=True, eq=False)
class HTypeStructure:
    """An explicit family of matrices realising an H-type group."""

    pair: DimPair
    U: tuple[np.ndarray, ...]

    @property
    def dim_x(self) -> int:
        return 2 * self.pair.n

    @property
    def dim_t(self) -> int:
        return self.pair.m


def verify_structure(s: HTypeStructure) -> None:
    """Exact integer verification of all defining axioms; raises ValueError."""
    import numpy as np

    d = s.dim_x
    if len(s.U) != s.pair.m:
        raise ValueError(f"expected {s.pair.m} matrices, got {len(s.U)}")
    eye = np.eye(d, dtype=np.int64)
    for idx, U in enumerate(s.U):
        if U.shape != (d, d):
            raise ValueError(f"U^({idx + 1}) has shape {U.shape}, expected {(d, d)}")
        if not np.isin(U, (-1, 0, 1)).all():
            raise ValueError(f"U^({idx + 1}) has entries outside {{-1, 0, 1}}")
        if (U.T + U).any():
            raise ValueError(f"U^({idx + 1}) is not skew-symmetric")
        if (U.T @ U != eye).any():
            raise ValueError(f"U^({idx + 1}) is not orthogonal")
    for i in range(len(s.U)):
        for j in range(i + 1, len(s.U)):
            if (s.U[i] @ s.U[j] + s.U[j] @ s.U[i]).any():
                raise ValueError(f"U^({i + 1}) and U^({j + 1}) do not anticommute")


def construct(pair) -> HTypeStructure:
    """Build and verify an integer H-type structure for an admissible pair.

    Raises InadmissiblePair (citing rho(2n)) when none exists.
    """
    import numpy as np

    p = as_pair(pair)
    verdict = admissible(p)
    if not verdict.admissible:
        raise InadmissiblePair(p, verdict.rho_2n)
    if p.m == 1:
        eye_n = np.eye(p.n, dtype=np.int64)
        zero = np.zeros((p.n, p.n), dtype=np.int64)
        mats = [np.block([[zero, -eye_n], [eye_n, zero]])]
    else:
        two_n = 2 * p.n
        v = (two_n & -two_n).bit_length() - 1
        odd = two_n >> v
        family = _hurwitz_radon_family(v)[: p.m]
        eye_odd = np.eye(odd, dtype=np.int64)
        mats = [np.kron(F, eye_odd) for F in family]
    for M in mats:
        M.setflags(write=False)
    s = HTypeStructure(pair=p, U=tuple(mats))
    verify_structure(s)
    return s


@dataclass(frozen=True)
class GroupElement:
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
    x = tuple(xa + xb for xa, xb in zip(a.x, b.x))
    t = []
    for j, U in enumerate(s.U):
        rows = U.tolist()  # plain ints so Fractions survive
        corr = sum(
            b.x[i] * sum(rows[i][l] * a.x[l] for l in range(s.dim_x) if rows[i][l])
            for i in range(s.dim_x)
        )
        half = Fraction(1, 2) if isinstance(corr, (int, Fraction)) else 0.5
        t.append(a.t[j] + b.t[j] + half * corr)
    return GroupElement(x=x, t=tuple(t))


def group_identity(s: HTypeStructure) -> GroupElement:
    return GroupElement(x=(0,) * s.dim_x, t=(0,) * s.dim_t)


def group_inverse(g: GroupElement) -> GroupElement:
    # <U x, -x> = 0 by skew-symmetry, so negation inverts
    return GroupElement(x=tuple(-v for v in g.x), t=tuple(-v for v in g.t))


def jz_map(s: HTypeStructure, z) -> np.ndarray:
    """sum_j z_j U^(j); orthogonal whenever |z| = 1 (anticommutation)."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    if z.shape != (s.dim_t,):
        raise ValueError(f"z must have length {s.dim_t}, got shape {z.shape}")
    out = np.zeros((s.dim_x, s.dim_x), dtype=np.float64)
    for zj, U in zip(z, s.U):
        out += zj * U
    return out


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

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        bits = [f"{c}*{mono}" for mono, c in sorted(self.coeffs.items())]
        return "Polynomial(" + " + ".join(bits) + ")"


@dataclass(frozen=True, eq=False)
class SublaplacianCoefficients:
    """Second-order symbol of the sublaplacian, in exact form.

    Variables are ordered x_1..x_(2n), t_1..t_m.  The symbol consists of
    the identity block on x-derivatives, the weight |x|^2/4 on
    t-derivatives, and per central direction the linear vector field
    x -> U^(j) x paired with d/dt_j.
    """

    structure: HTypeStructure
    x_identity_dim: int
    t_weight: Polynomial
    mixed: tuple[np.ndarray, ...]

    @property
    def nvars(self) -> int:
        return self.structure.dim_x + self.structure.dim_t

    def apply(self, u: Polynomial) -> Polynomial:
        """Apply the sublaplacian to a polynomial in (x, t), exactly."""
        if u.nvars != self.nvars:
            raise ValueError(f"polynomial must have {self.nvars} variables")
        dx = self.structure.dim_x
        out = Polynomial(self.nvars)
        for i in range(dx):
            out = out + u.diff(i).diff(i)
        lap_t = Polynomial(self.nvars)
        for j in range(self.structure.dim_t):
            lap_t = lap_t + u.diff(dx + j).diff(dx + j)
        if not lap_t.is_zero():
            out = out + self.t_weight * lap_t
        for j, U in enumerate(self.mixed):
            du = u.diff(dx + j)
            if du.is_zero():
                continue
            rows = U.tolist()
            for i in range(dx):
                di = du.diff(i)
                if di.is_zero():
                    continue
                field_i = Polynomial(self.nvars, {
                    tuple(1 if v == l else 0 for v in range(self.nvars)): Fraction(rows[i][l])
                    for l in range(dx) if rows[i][l]
                })
                out = out + field_i * di
        return out


def sublaplacian_coefficients(s: HTypeStructure) -> SublaplacianCoefficients:
    nvars = s.dim_x + s.dim_t
    weight = Polynomial(nvars)
    for i in range(s.dim_x):
        xi = Polynomial.variable(i, nvars)
        weight = weight + xi * xi
    return SublaplacianCoefficients(
        structure=s,
        x_identity_dim=s.dim_x,
        t_weight=weight.scale(Fraction(1, 4)),
        mixed=s.U,
    )


# --------------------------------------------------------------------------
# JSON export: {"n": int, "m": int, "U": [[[int]]]}

def to_json_dict(s: HTypeStructure) -> dict:
    return {"n": s.pair.n, "m": s.pair.m, "U": [U.tolist() for U in s.U]}


def from_json_dict(data: dict) -> HTypeStructure:
    import numpy as np

    pair = DimPair(int(data["n"]), int(data["m"]))
    mats = tuple(np.array(U, dtype=np.int64) for U in data["U"])
    s = HTypeStructure(pair=pair, U=mats)
    verify_structure(s)
    return s


def write_json(s: HTypeStructure, path) -> None:
    """Re-verify and serialise; never writes an unverified structure."""
    verify_structure(s)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(s), fh, indent=1)
        fh.write("\n")
